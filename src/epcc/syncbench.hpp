// EPCC-style OpenMP directive overhead measurement (Bull '99), the
// methodology behind the paper's Table I.
//
// For each directive D the bench measures
//     T_test  = time of one outer repetition executing `inner_reps`
//               instances of D around a fixed busy-wait delay()
//     T_ref   = time of `inner_reps` bare delay() calls on one thread
// and reports overhead(D) = (T_test - T_ref) / inner_reps, averaged over
// `outer_reps` repetitions with its standard deviation — exactly Bull's
// scheme.  Table I is then overhead(MCA-libGOMP) / overhead(libGOMP) per
// directive and thread count.
#pragma once

#include <array>
#include <string_view>
#include <vector>

#include "gomp/runtime.hpp"

namespace ompmca::epcc {

enum class Directive {
  kParallel,
  kFor,
  kForDynamic,  // FOR with schedule(dynamic,1): the steal-scheduler hot path
  kParallelFor,
  kBarrier,
  kSingle,
  kCritical,
  kReduction,
};

inline constexpr std::array<Directive, 8> kAllDirectives = {
    Directive::kParallel, Directive::kFor,      Directive::kForDynamic,
    Directive::kParallelFor, Directive::kBarrier,  Directive::kSingle,
    Directive::kCritical,    Directive::kReduction,
};

std::string_view to_string(Directive d);

struct Measurement {
  Directive directive;
  unsigned nthreads = 0;
  int outer_reps = 0;
  int inner_reps = 0;
  double reference_us = 0;  // per inner rep
  double mean_us = 0;       // per inner rep, constructs included
  double sd_us = 0;
  double overhead_us = 0;   // mean_us - reference_us

  bool valid() const { return outer_reps > 0; }
};

struct SyncbenchOptions {
  int outer_reps = 10;
  int inner_reps = 64;
  int delay_length = 64;  // iterations of the busy-wait kernel
};

class Syncbench {
 public:
  using Options = SyncbenchOptions;

  explicit Syncbench(gomp::Runtime* rt, Options options = Options{});

  /// Measures one directive at @p nthreads.
  Measurement measure(Directive d, unsigned nthreads);

  /// Full sweep: every directive at every requested thread count.
  std::vector<Measurement> sweep(const std::vector<unsigned>& thread_counts);

  /// The busy-wait kernel (exposed for calibration tests).
  static void delay(int length);

 private:
  double reference_seconds();
  double one_rep_seconds(Directive d, unsigned nthreads);

  gomp::Runtime* rt_;
  Options options_;
  double reference_cache_ = -1.0;
};

/// Relative-overhead cell: mca / native (Table I's entries), carrying the
/// absolute per-runtime measurements so --json artifacts can be diffed
/// across builds.
struct RelativeOverhead {
  Directive directive;
  unsigned nthreads;
  double ratio;
  Measurement native;
  Measurement mca;
};

/// Builds Table I from two runtimes measured under identical options.
/// Each cell measures both runtimes five times, interleaved, and keeps each
/// runtime's smallest overhead before taking the ratio.
std::vector<RelativeOverhead> relative_overheads(
    gomp::Runtime* native, gomp::Runtime* mca,
    const std::vector<unsigned>& thread_counts,
    SyncbenchOptions options = SyncbenchOptions{});

}  // namespace ompmca::epcc
