// Shared pieces of the perfbench driver: run configuration, the metric
// sink, raw-sample statistics and the runtime configuration every
// workload and probe uses.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gomp/runtime.hpp"

namespace perfbench {

/// Team width of every workload and the most threads any of them runs at
/// once.  main.cpp refuses to start when the host has fewer CPUs.
inline constexpr unsigned kThreads = 4;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one run reports.  attempted/failed count checked
/// operations; diagnostics are printed but are not contract metrics.
struct Report {
  std::vector<Metric> metrics;
  std::vector<Metric> diagnostics;
  long attempted = 0;
  long failed = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void diag(std::string name, double value, std::string unit) {
    diagnostics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Linear-interpolated quantile (q in [0,1]) of raw samples; the same
/// definition as numpy's default.  Samples are sorted in place.
double quantile(std::vector<double>& samples, double q);
inline double median(std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

/// The configuration under test: the MCA backend on a host-shaped
/// kThreads-core single-cluster topology, with every ICV set here rather
/// than read from OMP_* variables.  Workers wait actively (see
/// README.md); only the parked-dispatch probe asks for passive waiting.
ompmca::gomp::RuntimeOptions runtime_options(
    ompmca::gomp::BackendKind kind = ompmca::gomp::BackendKind::kMca,
    ompmca::gomp::WaitPolicy policy = ompmca::gomp::WaitPolicy::kActive);

/// EPCC-style delay body: @p n dependent floating-point adds.
void delay(int n);

/// Runtime construction plus its first region of @p width, which launches
/// the workers and creates their MRAPI nodes, repeated; reports the median
/// as setup_s and returns the runtime built by the last repetition.
std::unique_ptr<ompmca::gomp::Runtime> timed_setup(
    Report& report,
    const ompmca::gomp::RuntimeOptions& opts = runtime_options(),
    unsigned width = kThreads);

/// One NPB class W kernel behind a uniform call: the timed-section seconds
/// and whether the official verification passed.
struct NpbRun {
  double seconds;
  bool verified;
};
struct NpbKernel {
  const char* name;
  const char* span_name;
  NpbRun (*run)(ompmca::gomp::Runtime&, unsigned nthreads);
};
extern const std::array<NpbKernel, 5> kNpbKernels;

// Workloads: each measures for cfg.seconds and fills the end-to-end
// metrics (traced run: the span A/B and overhead instead).
void run_fork_join(const RunConfig& cfg, Report& report);
void run_tenants_open(const RunConfig& cfg, Report& report);

/// One untraced tenants_open slice, for the traced run of a workload that
/// has no generator of its own; returns the generator lag samples (us).
std::vector<double> open_loop_gen_lag(const RunConfig& cfg, double seconds,
                                      Report& report);

// Layer probes for the traced run.
void probe_mrapi(Report& report);
void probe_backend(Report& report);
void probe_pool(Report& report);
void probe_constructs(Report& report);
void probe_tasks(Report& report);
void probe_npb(Report& report);

}  // namespace perfbench
