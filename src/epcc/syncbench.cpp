#include "epcc/syncbench.hpp"

#include <cmath>
#include <cstdlib>

#include "common/time.hpp"

namespace ompmca::epcc {

std::string_view to_string(Directive d) {
  switch (d) {
    case Directive::kParallel: return "PARALLEL";
    case Directive::kFor: return "FOR";
    case Directive::kForDynamic: return "FOR DYNAMIC";
    case Directive::kParallelFor: return "PARALLEL FOR";
    case Directive::kBarrier: return "BARRIER";
    case Directive::kSingle: return "SINGLE";
    case Directive::kCritical: return "CRITICAL";
    case Directive::kReduction: return "REDUCTION";
  }
  return "?";
}

Syncbench::Syncbench(gomp::Runtime* rt, Options options)
    : rt_(rt), options_(options) {}

void Syncbench::delay(int length) {
  // Bull's delay(): a dependency chain the optimizer cannot elide.
  volatile double a = 0.0;
  for (int i = 0; i < length; ++i) a = a + i * 0.5;
  if (a < 0) std::abort();  // never taken; keeps `a` observable
}

double Syncbench::reference_seconds() {
  if (reference_cache_ >= 0) return reference_cache_;
  // Warm up, then take the best-of-3 single-thread delay loop (least noise
  // on a shared host).
  delay(options_.delay_length);
  double best = 1e30;
  for (int r = 0; r < 3; ++r) {
    double t0 = monotonic_seconds();
    for (int j = 0; j < options_.inner_reps; ++j) delay(options_.delay_length);
    best = std::min(best, monotonic_seconds() - t0);
  }
  reference_cache_ = best;
  return best;
}

double Syncbench::one_rep_seconds(Directive d, unsigned nthreads) {
  using gomp::ParallelContext;
  const int inner = options_.inner_reps;
  const int len = options_.delay_length;
  double t0 = 0, t1 = 0;

  switch (d) {
    case Directive::kParallel: {
      t0 = monotonic_seconds();
      for (int j = 0; j < inner; ++j) {
        rt_->parallel([len](ParallelContext&) { delay(len); }, nthreads);
      }
      t1 = monotonic_seconds();
      break;
    }
    case Directive::kFor: {
      t0 = monotonic_seconds();
      rt_->parallel(
          [&](ParallelContext& ctx) {
            for (int j = 0; j < inner; ++j) {
              ctx.for_loop(0, static_cast<long>(ctx.num_threads()),
                           [len](long lo, long hi) {
                             for (long i = lo; i < hi; ++i) delay(len);
                           });
            }
          },
          nthreads);
      t1 = monotonic_seconds();
      break;
    }
    case Directive::kForDynamic: {
      // One iteration per thread under schedule(dynamic,1): the pure cost
      // of dynamic chunk distribution (each chunk is one delay()).
      t0 = monotonic_seconds();
      rt_->parallel(
          [&](ParallelContext& ctx) {
            for (int j = 0; j < inner; ++j) {
              ctx.for_loop(0, static_cast<long>(ctx.num_threads()),
                           [len](long lo, long hi) {
                             for (long i = lo; i < hi; ++i) delay(len);
                           },
                           gomp::ScheduleSpec{gomp::Schedule::kDynamic, 1});
            }
          },
          nthreads);
      t1 = monotonic_seconds();
      break;
    }
    case Directive::kParallelFor: {
      t0 = monotonic_seconds();
      for (int j = 0; j < inner; ++j) {
        rt_->parallel_for(0, static_cast<long>(nthreads),
                          [len](long lo, long hi) {
                            for (long i = lo; i < hi; ++i) delay(len);
                          },
                          {}, nthreads);
      }
      t1 = monotonic_seconds();
      break;
    }
    case Directive::kBarrier: {
      t0 = monotonic_seconds();
      rt_->parallel(
          [&](ParallelContext& ctx) {
            for (int j = 0; j < inner; ++j) {
              delay(len);
              ctx.barrier();
            }
          },
          nthreads);
      t1 = monotonic_seconds();
      break;
    }
    case Directive::kSingle: {
      t0 = monotonic_seconds();
      rt_->parallel(
          [&](ParallelContext& ctx) {
            for (int j = 0; j < inner; ++j) {
              ctx.single([len] { delay(len); });
            }
          },
          nthreads);
      t1 = monotonic_seconds();
      break;
    }
    case Directive::kCritical: {
      t0 = monotonic_seconds();
      rt_->parallel(
          [&](ParallelContext& ctx) {
            // inner criticals in total, spread over the team (Bull's shape).
            const int per_thread =
                inner / static_cast<int>(ctx.num_threads()) + 1;
            for (int j = 0; j < per_thread; ++j) {
              ctx.critical([len] { delay(len); });
            }
          },
          nthreads);
      t1 = monotonic_seconds();
      break;
    }
    case Directive::kReduction: {
      t0 = monotonic_seconds();
      for (int j = 0; j < inner; ++j) {
        rt_->parallel(
            [len](ParallelContext& ctx) {
              delay(len);
              (void)ctx.reduce_sum(1.0);  // timing the reduction, not its value
            },
            nthreads);
      }
      t1 = monotonic_seconds();
      break;
    }
  }
  return t1 - t0;
}

Measurement Syncbench::measure(Directive d, unsigned nthreads) {
  Measurement m;
  m.directive = d;
  m.nthreads = nthreads;
  m.outer_reps = options_.outer_reps;
  m.inner_reps = options_.inner_reps;
  m.reference_us = reference_seconds() / options_.inner_reps * 1e6;

  // Warm-up rep: pool spawn, first-touch, lock creation.
  (void)one_rep_seconds(d, nthreads);

  double sum = 0, sum_sq = 0;
  for (int k = 0; k < options_.outer_reps; ++k) {
    double per_construct_us =
        one_rep_seconds(d, nthreads) / options_.inner_reps * 1e6;
    sum += per_construct_us;
    sum_sq += per_construct_us * per_construct_us;
  }
  m.mean_us = sum / options_.outer_reps;
  double var = sum_sq / options_.outer_reps - m.mean_us * m.mean_us;
  m.sd_us = var > 0 ? std::sqrt(var) : 0.0;
  m.overhead_us = m.mean_us - m.reference_us;
  return m;
}

std::vector<Measurement> Syncbench::sweep(
    const std::vector<unsigned>& thread_counts) {
  std::vector<Measurement> out;
  for (Directive d : kAllDirectives) {
    for (unsigned n : thread_counts) {
      out.push_back(measure(d, n));
    }
  }
  return out;
}

std::vector<RelativeOverhead> relative_overheads(
    gomp::Runtime* native, gomp::Runtime* mca,
    const std::vector<unsigned>& thread_counts, SyncbenchOptions options) {
  // A wall-clock ratio from one sample per runtime flips past any fixed
  // bound on a loaded host; host noise only ever adds time, so the minimum
  // of a few interleaved trials is the least-disturbed sample.
  constexpr int kTrials = 5;
  Syncbench bench_native(native, options);
  Syncbench bench_mca(mca, options);
  auto keep_min = [](Measurement& best, const Measurement& m) {
    if (!best.valid() || m.overhead_us < best.overhead_us) best = m;
  };
  std::vector<RelativeOverhead> out;
  for (Directive d : kAllDirectives) {
    for (unsigned n : thread_counts) {
      // Interleave the two runtimes per trial so host noise hits both.
      Measurement mn{}, mm{};
      for (int t = 0; t < kTrials; ++t) {
        keep_min(mn, bench_native.measure(d, n));
        keep_min(mm, bench_mca.measure(d, n));
      }
      double denom = mn.overhead_us;
      double num = mm.overhead_us;
      // Guard tiny/negative overheads (timer noise): fall back to the mean
      // construct times, whose ratio is the same signal with less variance.
      if (denom <= 0 || num <= 0) {
        denom = mn.mean_us;
        num = mm.mean_us;
      }
      out.push_back({d, n, denom > 0 ? num / denom : 1.0, mn, mm});
    }
  }
  return out;
}

}  // namespace ompmca::epcc
