// Work-stealing loop-scheduler tests: exactly-once execution under
// randomized per-iteration stalls (steal-correctness) and the telemetry
// contract — steals happen under imbalance, not under balance.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <vector>

#include "gomp/gomp.hpp"
#include "obs/telemetry.hpp"

namespace ompmca::gomp {
namespace {

Runtime make_runtime(unsigned nthreads, BackendKind kind = BackendKind::kNative) {
  RuntimeOptions opts;
  opts.backend = kind;
  Icvs icvs;
  icvs.num_threads = nthreads;
  opts.icvs = icvs;
  return Runtime(opts);
}

void stall(unsigned iters) {
  volatile double sink = 0.0;
  for (unsigned i = 0; i < iters; ++i) sink = sink + i * 0.25;
}

// Every iteration of a stolen-from loop must run exactly once, no matter
// how unevenly the per-iteration work is distributed.
void run_exactly_once(Schedule kind, long chunk, unsigned nthreads,
                      BackendKind backend) {
  constexpr long kIters = 4096;
  constexpr int kRepeats = 8;
  Runtime rt = make_runtime(nthreads, backend);
  std::mt19937 rng(42);
  std::uniform_int_distribution<unsigned> stall_dist(0, 400);
  for (int rep = 0; rep < kRepeats; ++rep) {
    // Random stall per iteration, fixed before the loop so all threads see
    // the same cost surface (heavy tails force steals).
    std::vector<unsigned> cost(kIters);
    for (auto& c : cost) c = stall_dist(rng);
    std::vector<std::atomic<int>> hits(kIters);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    rt.parallel([&](ParallelContext& ctx) {
      ctx.for_loop(0, kIters,
                   [&](long lo, long hi) {
                     for (long i = lo; i < hi; ++i) {
                       stall(cost[static_cast<std::size_t>(i)]);
                       hits[static_cast<std::size_t>(i)].fetch_add(
                           1, std::memory_order_relaxed);
                     }
                   },
                   ScheduleSpec{kind, chunk});
    });
    for (long i = 0; i < kIters; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "iteration " << i << " rep " << rep;
    }
  }
}

TEST(StealScheduler, DynamicExactlyOnceUnderRandomStalls) {
  run_exactly_once(Schedule::kDynamic, 1, 8, BackendKind::kNative);
}

TEST(StealScheduler, DynamicChunkedExactlyOnceUnderRandomStalls) {
  run_exactly_once(Schedule::kDynamic, 7, 6, BackendKind::kNative);
}

TEST(StealScheduler, GuidedExactlyOnceUnderRandomStalls) {
  run_exactly_once(Schedule::kGuided, 1, 8, BackendKind::kNative);
}

TEST(StealScheduler, DynamicExactlyOnceOnMcaBackend) {
  run_exactly_once(Schedule::kDynamic, 1, 4, BackendKind::kMca);
}

// Telemetry contract, deterministic form: the LoopInstance is driven
// directly (as workshare_test does), so thread interleaving cannot blur
// the balanced/imbalanced distinction.

// Imbalance: a 4-wide loop where only thread 3 pulls chunks — it drains
// its own range, then must steal everything else.  With the cluster map
// {0,0,1,1} its first victims are same-cluster, then cross-cluster.
TEST(StealScheduler, StealsOccurUnderImbalance) {
  obs::ScopedEnable telemetry;
  static const unsigned kClusters[4] = {0, 0, 1, 1};
  LoopInstance loop;
  loop.enter(0, 0, 256, ScheduleSpec{Schedule::kDynamic, 1}, 4, kClusters);
  ASSERT_TRUE(loop.distributed());
  long pos = 0, lo = 0, hi = 0;
  std::vector<int> hits(256, 0);
  while (loop.next_chunk(3, &pos, &lo, &hi, false)) {
    for (long i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  }
  for (int h : hits) EXPECT_EQ(h, 1);
  for (unsigned t = 0; t < 4; ++t) loop.leave();

  obs::Snapshot s = obs::Registry::instance().snapshot();
  EXPECT_GT(s.counter(obs::Counter::kGompLoopSteal), 0u);
  EXPECT_GE(s.counter(obs::Counter::kGompLoopStealAttempt),
            s.counter(obs::Counter::kGompLoopSteal));
  // Every steal is classified by victim distance, and thread 3 had both a
  // same-cluster victim (thread 2) and cross-cluster ones (threads 0, 1).
  EXPECT_GT(s.counter(obs::Counter::kGompLoopStealLocal), 0u);
  EXPECT_GT(s.counter(obs::Counter::kGompLoopStealRemote), 0u);
  EXPECT_EQ(s.counter(obs::Counter::kGompLoopStealLocal) +
                s.counter(obs::Counter::kGompLoopStealRemote),
            s.counter(obs::Counter::kGompLoopSteal));
}

// Balance: claims interleaved round-robin, each thread's share exactly its
// pre-sliced range — nobody ever finds an empty own-range while work
// remains, so no steal is ever attempted.
TEST(StealScheduler, NoStealsUnderPerfectBalance) {
  obs::ScopedEnable telemetry;
  constexpr unsigned kThreads = 4;
  constexpr long kIters = 64;  // 16 per thread
  LoopInstance loop;
  loop.enter(0, 0, kIters, ScheduleSpec{Schedule::kDynamic, 1}, kThreads);
  ASSERT_TRUE(loop.distributed());
  long pos[kThreads] = {}, lo = 0, hi = 0;
  long claimed = 0;
  for (long round = 0; round < kIters / kThreads; ++round) {
    for (unsigned t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(loop.next_chunk(t, &pos[t], &lo, &hi, false));
      claimed += hi - lo;
    }
  }
  EXPECT_EQ(claimed, kIters);
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_FALSE(loop.next_chunk(t, &pos[t], &lo, &hi, false));
    loop.leave();
  }
  obs::Snapshot s = obs::Registry::instance().snapshot();
  EXPECT_EQ(s.counter(obs::Counter::kGompLoopSteal), 0u);
}

// The doorbell dispatch records a wakeup-latency histogram entry per woken
// worker (the telemetry the EPCC artifacts embed).
TEST(StealScheduler, DoorbellWakeTelemetryRecorded) {
  constexpr unsigned kThreads = 4;
  Runtime rt = make_runtime(kThreads);
  obs::ScopedEnable telemetry;
  rt.parallel([](ParallelContext&) { stall(10); });
  obs::Snapshot s = obs::Registry::instance().snapshot();
  EXPECT_EQ(s.hist(obs::Hist::kGompDoorbellWakeNs).count, kThreads - 1);
  EXPECT_EQ(s.counter(obs::Counter::kGompPoolDispatch), kThreads - 1);
}

}  // namespace
}  // namespace ompmca::gomp
