// Ablation A1 (§5B.1 node management): persistent worker pool vs the
// literal create-per-region node lifecycle, under both backends.
//
// The paper's text describes nodes created at fork and finalized at join;
// libGOMP (and this runtime) parks a pool instead.  This bench quantifies
// what that choice is worth per PARALLEL construct.  The pool rows time
// Runtime::parallel.  The runtime has no per-region mode, so the per-region
// rows replay that lifecycle here, on the runtime's own backend: each
// region launches n-1 workers through SystemBackend::launch_thread (an
// MRAPI node create under the MCA backend), runs the body on all n
// threads, and joins them (node finalize).  They skip team setup and the
// ending barrier, so their gap over the pool rows is a lower bound.
//
// Exits non-zero when any per-region launch or join fails.
#include <benchmark/benchmark.h>

#include <atomic>

#include "gomp/gomp.hpp"

namespace {

using namespace ompmca;

std::atomic<bool> g_failed{false};

gomp::RuntimeOptions options_for(gomp::BackendKind backend, unsigned n) {
  gomp::RuntimeOptions opts;
  opts.backend = backend;
  gomp::Icvs icvs;
  icvs.num_threads = n;
  opts.icvs = icvs;
  return opts;
}

void run_pool(benchmark::State& state, gomp::BackendKind backend) {
  gomp::Runtime rt(
      options_for(backend, static_cast<unsigned>(state.range(0))));
  for (auto _ : state) {
    long sink = 0;
    rt.parallel([&](gomp::ParallelContext& ctx) {
      benchmark::DoNotOptimize(ctx.thread_num());
      if (ctx.thread_num() == 0) sink = 1;
    });
    benchmark::DoNotOptimize(sink);
  }
  state.SetLabel("pool");
}

void run_per_region(benchmark::State& state, gomp::BackendKind backend) {
  const auto n = static_cast<unsigned>(state.range(0));
  gomp::Runtime rt(options_for(backend, n));
  gomp::SystemBackend& be = rt.backend();
  // Backend indices above the pool's range, so these workers can never
  // collide with a pool worker's node.
  constexpr unsigned kFirstIndex = gomp::ThreadPool::kMaxWorkers;
  for (auto _ : state) {
    long sink = 0;
    auto body = [&sink](unsigned tid) {
      benchmark::DoNotOptimize(tid);
      if (tid == 0) sink = 1;
    };
    unsigned launched = 0;
    for (unsigned tid = 1; tid < n; ++tid, ++launched) {
      if (!ok(be.launch_thread(kFirstIndex + launched,
                               [&body, tid] { body(tid); }))) {
        break;
      }
    }
    body(0);
    bool joined = true;
    for (unsigned i = 0; i < launched; ++i) {
      joined = ok(be.join_thread(kFirstIndex + i)) && joined;
    }
    benchmark::DoNotOptimize(sink);
    if (launched + 1 < n || !joined) {
      g_failed.store(true);
      state.SkipWithError("per-region worker launch or join failed");
      break;
    }
  }
  state.SetLabel("per-region");
}

void BM_Parallel_Native_Pool(benchmark::State& state) {
  run_pool(state, gomp::BackendKind::kNative);
}
void BM_Parallel_Native_PerRegion(benchmark::State& state) {
  run_per_region(state, gomp::BackendKind::kNative);
}
void BM_Parallel_Mca_Pool(benchmark::State& state) {
  run_pool(state, gomp::BackendKind::kMca);
}
void BM_Parallel_Mca_PerRegion(benchmark::State& state) {
  run_per_region(state, gomp::BackendKind::kMca);
}

}  // namespace

BENCHMARK(BM_Parallel_Native_Pool)->Arg(2)->Arg(4)->Arg(8)->Iterations(200);
BENCHMARK(BM_Parallel_Native_PerRegion)->Arg(2)->Arg(4)->Arg(8)->Iterations(50);
BENCHMARK(BM_Parallel_Mca_Pool)->Arg(2)->Arg(4)->Arg(8)->Iterations(200);
BENCHMARK(BM_Parallel_Mca_PerRegion)->Arg(2)->Arg(4)->Arg(8)->Iterations(50);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return g_failed.load() ? 1 : 0;
}
