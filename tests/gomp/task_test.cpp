#include "gomp/task.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "gomp/runtime.hpp"

namespace ompmca::gomp {
namespace {

// --- TaskSystem unit level --------------------------------------------------

TEST(TaskSystem, OwnerRunsNewestFirst) {
  // The owner's end of a work-stealing deque is LIFO: the most recently
  // spawned task runs first (depth-first, cache-warm); thieves take the
  // oldest.  This is the classic Cilk-style execution order.
  TaskSystem ts;
  std::vector<int> order;
  Task* current = nullptr;
  ts.spawn(0, nullptr, [&] { order.push_back(1); });
  ts.spawn(0, nullptr, [&] { order.push_back(2); });
  EXPECT_EQ(ts.queued(), 2u);
  EXPECT_TRUE(ts.run_one(0, &current));
  EXPECT_TRUE(ts.run_one(0, &current));
  EXPECT_FALSE(ts.run_one(0, &current));
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(TaskSystem, DrainRunsTransitiveSpawns) {
  TaskSystem ts;
  std::atomic<int> count{0};
  Task* current = nullptr;
  ts.spawn(0, nullptr, [&] {
    count.fetch_add(1);
    ts.spawn(0, current, [&] {
      count.fetch_add(1);
      ts.spawn(0, current, [&] { count.fetch_add(1); });
    });
  });
  ts.drain(0, &current);
  EXPECT_EQ(count.load(), 3);
  EXPECT_EQ(ts.queued(), 0u);
}

TEST(TaskSystem, DependOutThenInOrders) {
  // in-tasks must observe the preceding out-task's write, regardless of
  // the deque's LIFO preference for the newest spawn.
  TaskSystem ts;
  Task* current = nullptr;
  int cell = 0;
  std::vector<int> reads;
  const void* addr = &cell;
  ts.spawn_depend(0, nullptr, [&] { cell = 42; }, nullptr, 0, &addr, 1);
  ts.spawn_depend(0, nullptr, [&] { reads.push_back(cell); }, &addr, 1,
                  nullptr, 0);
  ts.spawn_depend(0, nullptr, [&] { reads.push_back(cell); }, &addr, 1,
                  nullptr, 0);
  ts.drain(0, &current);
  EXPECT_EQ(reads, (std::vector<int>{42, 42}));
}

TEST(TaskSystem, DependChainRunsInSpawnOrder) {
  TaskSystem ts;
  Task* current = nullptr;
  int cell = 0;
  std::vector<int> order;
  const void* addr = &cell;
  for (int i = 0; i < 8; ++i) {
    ts.spawn_depend(0, nullptr, [&order, i] { order.push_back(i); }, nullptr,
                    0, &addr, 1);
  }
  ts.drain(0, &current);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(TaskSystem, DependWritersWaitForReaders) {
  // out after in: the second writer must wait for every reader of the
  // address, not just the previous writer.
  TaskSystem ts;
  Task* current = nullptr;
  int cell = 0;
  std::atomic<int> readers_done{0};
  std::atomic<int> readers_at_write{-1};
  const void* addr = &cell;
  ts.spawn_depend(0, nullptr, [&] { cell = 1; }, nullptr, 0, &addr, 1);
  for (int i = 0; i < 4; ++i) {
    ts.spawn_depend(0, nullptr, [&] { readers_done.fetch_add(1); }, &addr, 1,
                    nullptr, 0);
  }
  ts.spawn_depend(0, nullptr,
                  [&] { readers_at_write.store(readers_done.load()); },
                  nullptr, 0, &addr, 1);
  ts.drain(0, &current);
  EXPECT_EQ(readers_at_write.load(), 4);
}

TEST(TaskSystem, DependOnDisjointAddressesDoesNotSerialise) {
  // Sanity: tasks on unrelated addresses are all immediately runnable
  // (queued on the deque rather than parked in the dependence graph).
  TaskSystem ts;
  Task* current = nullptr;
  int a = 0, b = 0;
  const void* pa = &a;
  const void* pb = &b;
  ts.spawn_depend(0, nullptr, [&] { a = 1; }, nullptr, 0, &pa, 1);
  ts.spawn_depend(0, nullptr, [&] { b = 1; }, nullptr, 0, &pb, 1);
  EXPECT_EQ(ts.queued(), 2u);
  ts.drain(0, &current);
  EXPECT_EQ(a + b, 2);
}

TEST(TaskSystem, TaskloopCoversRangeExactlyOnce) {
  TaskSystem ts;
  Task record;
  Task* implicit = ts.make_implicit(record);
  Task* current = implicit;
  std::vector<int> hits(1000, 0);
  ts.taskloop(0, &current, 0, 1000, /*grain=*/64, [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  ts.drain(0, &current);
  implicit->release();
}

TEST(TaskSystem, TaskloopAdaptiveGrainCoversOddRange) {
  TaskSystem ts;
  Task record;
  Task* implicit = ts.make_implicit(record);
  Task* current = implicit;
  std::vector<int> hits(1237, 0);
  // grain 0 = adaptive policy; correctness must not depend on the grain.
  ts.taskloop(0, &current, 0, 1237, /*grain=*/0, [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  ts.drain(0, &current);
  implicit->release();
}

TEST(TaskSystem, TaskloopEmptyRangeSpawnsNothing) {
  TaskSystem ts;
  Task record;
  Task* implicit = ts.make_implicit(record);
  Task* current = implicit;
  bool ran = false;
  ts.taskloop(0, &current, 5, 5, 0, [&](long, long) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(ts.queued(), 0u);
  implicit->release();
}

// --- runtime integration ------------------------------------------------------

class TaskRuntimeTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  Runtime make_runtime(unsigned threads = 4) {
    RuntimeOptions opts;
    opts.backend = GetParam();
    Icvs icvs;
    icvs.num_threads = threads;
    opts.icvs = icvs;
    return Runtime(opts);
  }
};

TEST_P(TaskRuntimeTest, TasksRunByRegionEnd) {
  Runtime rt = make_runtime();
  std::atomic<int> done{0};
  rt.parallel([&](ParallelContext& ctx) {
    ctx.single([&] {
      for (int i = 0; i < 100; ++i) {
        ctx.task([&done] { done.fetch_add(1); });
      }
    }, /*nowait=*/true);
  });
  // The implicit region barrier must have executed every task.
  EXPECT_EQ(done.load(), 100);
}

TEST_P(TaskRuntimeTest, TaskwaitWaitsForChildren) {
  Runtime rt = make_runtime();
  std::atomic<int> children_done{0};
  std::atomic<bool> taskwait_early{false};
  rt.parallel([&](ParallelContext& ctx) {
    ctx.single([&] {
      for (int i = 0; i < 16; ++i) {
        ctx.task([&] { children_done.fetch_add(1); });
      }
      ctx.taskwait();
      if (children_done.load() != 16) taskwait_early.store(true);
    });
  });
  EXPECT_FALSE(taskwait_early.load());
  EXPECT_EQ(children_done.load(), 16);
}

TEST_P(TaskRuntimeTest, TaskwaitOnlyWaitsForDirectChildren) {
  Runtime rt = make_runtime();
  std::atomic<int> grandchildren{0};
  rt.parallel([&](ParallelContext& ctx) {
    ctx.single([&] {
      ctx.task([&] {
        // This child spawns its own child; the parent's taskwait must not
        // require the grandchild (only direct children).
        Runtime::current()->task([&] { grandchildren.fetch_add(1); });
      });
      ctx.taskwait();
    });
  });
  // Region end still runs everything.
  EXPECT_EQ(grandchildren.load(), 1);
}

TEST_P(TaskRuntimeTest, TaskgroupWaitsForTagged) {
  Runtime rt = make_runtime();
  std::atomic<int> in_group{0};
  std::atomic<bool> early{false};
  rt.parallel([&](ParallelContext& ctx) {
    ctx.single([&] {
      ctx.taskgroup([&] {
        for (int i = 0; i < 32; ++i) {
          ctx.task([&] { in_group.fetch_add(1); });
        }
      });
      if (in_group.load() != 32) early.store(true);
    });
  });
  EXPECT_FALSE(early.load());
}

TEST_P(TaskRuntimeTest, RecursiveFibonacciTasks) {
  Runtime rt = make_runtime();
  // Each invocation uses the *executing* thread's context, so spawns and
  // waits are attributed to the task actually running them.
  std::function<long(int)> fib = [&](int n) -> long {
    ParallelContext& ctx = *Runtime::current();
    if (n < 2) return n;
    long a = 0, b = 0;
    ctx.task([&fib, &a, n] { a = fib(n - 1); });
    b = fib(n - 2);
    ctx.taskwait();
    return a + b;
  };
  long result = 0;
  rt.parallel([&](ParallelContext& ctx) {
    ctx.single([&] { result = fib(12); });
  });
  EXPECT_EQ(result, 144);
}

TEST_P(TaskRuntimeTest, TasksExecuteOnMultipleThreads) {
  Runtime rt = make_runtime(4);
  std::mutex mu;
  std::set<unsigned> executors;
  rt.parallel([&](ParallelContext& ctx) {
    ctx.single([&] {
      for (int i = 0; i < 200; ++i) {
        ctx.task([&] {
          ParallelContext* me = Runtime::current();
          std::lock_guard lk(mu);
          executors.insert(me->thread_num());
        });
      }
    }, /*nowait=*/true);
    // Everyone else falls through to the implicit barrier and helps.
  });
  // On an oversubscribed host we cannot guarantee all 4 participate, but
  // the single's spawner cannot have done everything alone while 3 threads
  // drained the queue at the barrier — expect at least 2 executors
  // overwhelmingly often.  (Property kept loose to stay deterministic.)
  EXPECT_GE(executors.size(), 1u);
}

TEST_P(TaskRuntimeTest, TaskDependPipelineAcrossThreads) {
  // A three-stage produce/transform/consume pipeline per element: the
  // depend edges, not spawn order or thread assignment, carry correctness.
  Runtime rt = make_runtime();
  constexpr int kN = 32;
  std::vector<long> cells(kN, 0);
  std::vector<long> results(kN, 0);
  rt.parallel([&](ParallelContext& ctx) {
    ctx.single([&] {
      for (int i = 0; i < kN; ++i) {
        const void* addr = &cells[static_cast<std::size_t>(i)];
        ctx.task_depend([&cells, i] { cells[static_cast<std::size_t>(i)] = i; },
                        {}, {addr});
        ctx.task_depend(
            [&cells, i] { cells[static_cast<std::size_t>(i)] *= 10; }, {},
            {addr});
        ctx.task_depend(
            [&cells, &results, i] {
              results[static_cast<std::size_t>(i)] =
                  cells[static_cast<std::size_t>(i)];
            },
            {addr}, {});
      }
    }, /*nowait=*/true);
  });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], 10L * i) << "element " << i;
  }
}

TEST_P(TaskRuntimeTest, TaskloopSumsRange) {
  Runtime rt = make_runtime();
  std::atomic<long> sum{0};
  rt.parallel([&](ParallelContext& ctx) {
    ctx.single([&] {
      ctx.taskloop(1, 1001, [&](long lo, long hi) {
        long local = 0;
        for (long i = lo; i < hi; ++i) local += i;
        sum.fetch_add(local);
      });
      // taskloop has an implicit taskgroup: complete when the call returns.
      EXPECT_EQ(sum.load(), 500500L);
    });
  });
  EXPECT_EQ(sum.load(), 500500L);
}

INSTANTIATE_TEST_SUITE_P(BothBackends, TaskRuntimeTest,
                         ::testing::Values(BackendKind::kNative,
                                           BackendKind::kMca),
                         [](const ::testing::TestParamInfo<BackendKind>& param_info) {
                           return std::string(to_string(param_info.param));
                         });

}  // namespace
}  // namespace ompmca::gomp
