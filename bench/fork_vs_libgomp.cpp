// Fork/join against the outside yardstick: ulibgomp (native and MCA
// backends) next to the host's own libgomp, all under active wait.
//
// The paper's Table I PARALLEL and BARRIER rows divide MCA-libGOMP by stock
// libGOMP; this bench prints the same two costs on the host it runs on:
//  * empty_p50_us   — median wall time of one empty parallel region;
//  * barrier_p50_us — median wall time of one barrier inside a region, as
//                     the master sees it (arrival to release).
// for team widths 2 and 4 (clamped to the host's hardware threads).
//
// libgomp reads OMP_WAIT_POLICY once, when it loads, so the bench re-execs
// itself with OMP_WAIT_POLICY=active when that is not already set.  The
// ulibgomp runtimes get kActive through their ICVs and a host-shaped
// topology (one cluster of hardware_concurrency cores).
//
//   fork_vs_libgomp [--quick]
//
// Informational: always exits 0 unless a runtime fails to produce a team.
#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "gomp/gomp.hpp"

namespace {

using namespace ompmca;

struct Row {
  const char* runtime;
  unsigned width;
  double empty_p50_us;
  double barrier_p50_us;
};

double median_us(std::vector<std::uint64_t>& ns) {
  if (ns.empty()) return 0.0;
  std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
  return static_cast<double>(ns[ns.size() / 2]) / 1000.0;
}

/// Empty-region and barrier medians for one runtime, given its fork
/// (runs a body on @p width threads) — the same sampling for all three.
template <typename Fork>
Row measure(const char* name, unsigned width, int reps, Fork fork) {
  std::vector<std::uint64_t> region_ns;
  region_ns.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps + reps / 10; ++i) {
    const std::uint64_t t0 = monotonic_nanos();
    fork([](unsigned, auto&&) {});
    const std::uint64_t t1 = monotonic_nanos();
    if (i >= reps / 10) region_ns.push_back(t1 - t0);  // first 10%: warm-up
  }
  std::vector<std::uint64_t> barrier_ns(static_cast<std::size_t>(reps));
  fork([&](unsigned tid, auto&& barrier) {
    for (int i = 0; i < reps; ++i) {
      const std::uint64_t t0 = tid == 0 ? monotonic_nanos() : 0;
      barrier();
      if (tid == 0) {
        barrier_ns[static_cast<std::size_t>(i)] = monotonic_nanos() - t0;
      }
    }
  });
  return Row{name, width, median_us(region_ns), median_us(barrier_ns)};
}

Row measure_ulibgomp(const char* name, gomp::BackendKind kind, unsigned width,
                     int reps) {
  gomp::RuntimeOptions opts;
  opts.backend = kind;
  opts.topology = platform::Topology::generic(
      std::max(1u, std::thread::hardware_concurrency()));
  gomp::Icvs icvs;
  icvs.num_threads = width;
  icvs.thread_limit = width;
  icvs.wait_policy = gomp::WaitPolicy::kActive;
  opts.icvs = icvs;
  gomp::Runtime rt(opts);
  bool narrowed = false;
  Row row = measure(name, width, reps, [&](auto&& body) {
    rt.parallel([&](gomp::ParallelContext& ctx) {
      if (ctx.thread_num() == 0 && ctx.num_threads() != width) narrowed = true;
      body(ctx.thread_num(), [&ctx] { ctx.barrier(); });
    });
  });
  if (narrowed) {
    std::fprintf(stderr, "fork_vs_libgomp: %s ran narrower than %u\n", name,
                 width);
    std::exit(1);
  }
  return row;
}

Row measure_libgomp(unsigned width, int reps) {
  return measure("host-libgomp", width, reps, [&](auto&& body) {
#pragma omp parallel num_threads(width)
    {
      body(static_cast<unsigned>(omp_get_thread_num()), [] {
#pragma omp barrier
      });
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  const char* policy = std::getenv("OMP_WAIT_POLICY");
  if (policy == nullptr || std::strcmp(policy, "active") != 0) {
    // libgomp has already read its environment by now; start over with the
    // policy set so all three runtimes spin.
    ::setenv("OMP_WAIT_POLICY", "active", 1);
    ::execv("/proc/self/exe", argv);
    std::perror("fork_vs_libgomp: re-exec with OMP_WAIT_POLICY=active");
    return 1;
  }
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const int reps = quick ? 2000 : 20000;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  // Oversubscribed spinning measures the OS, so widths stop at the host's
  // hardware threads.  libgomp runs last: under active wait its parked
  // pool keeps spinning after a region, which would steal a core from
  // any runtime measured after it.
  std::vector<unsigned> widths;
  for (unsigned width : {2u, 4u}) {
    if (width <= hw) widths.push_back(width);
  }
  std::vector<Row> rows;
  for (unsigned width : widths) {
    rows.push_back(measure_ulibgomp("ulibgomp-native",
                                    gomp::BackendKind::kNative, width, reps));
  }
  for (unsigned width : widths) {
    rows.push_back(measure_ulibgomp("ulibgomp-mca", gomp::BackendKind::kMca,
                                    width, reps));
  }
  for (unsigned width : widths) rows.push_back(measure_libgomp(width, reps));
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.width < b.width;
  });

  std::printf("fork/join under active wait, %u hardware threads, %d reps\n",
              hw, reps);
  std::printf("%-16s %5s %14s %16s %10s %10s\n", "runtime", "width",
              "empty_p50_us", "barrier_p50_us", "empty/gomp", "bar/gomp");
  for (const Row& r : rows) {
    const Row* ref = nullptr;
    for (const Row& g : rows) {
      if (g.width == r.width && std::strcmp(g.runtime, "host-libgomp") == 0) {
        ref = &g;
      }
    }
    std::printf("%-16s %5u %14.2f %16.2f %10.2f %10.2f\n", r.runtime, r.width,
                r.empty_p50_us, r.barrier_p50_us,
                r.empty_p50_us / ref->empty_p50_us,
                r.barrier_p50_us / ref->barrier_p50_us);
  }
  return 0;
}
