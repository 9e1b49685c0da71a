// Seeded regressions of the explicit-task subsystem, written against the
// bugs the seed implementation shipped:
//
//  * spawn() enqueued work without notifying idle_cv_, so a thread parked
//    in taskwait/group_wait (queue momentarily empty, children executing
//    elsewhere) slept through newly spawned tasks until an unrelated
//    finished() fired — if the only running task itself depended on the
//    queued work, the team deadlocked with runnable tasks queued;
//  * ParallelContext::task attached children to the *spawning thread's*
//    taskgroup construct state, so a task spawned from inside a stolen
//    task escaped the taskgroup end wait (OpenMP requires descendants to
//    be included);
//  * run_one left the current-task slot and the executing/live-children
//    accounting corrupted when a task body threw.
//
// Each test fails (or hangs, caught by a bounded in-test timeout) on the
// seed implementation and passes on the fixed one.  The scenarios target
// the scheduler's contract — wakeup on new work, group membership across
// steals, exception safety — and hold for both the seed's central FIFO
// shape and the work-stealing deques that replaced it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "gomp/runtime.hpp"
#include "gomp/task.hpp"

namespace ompmca::gomp {
namespace {

using namespace std::chrono_literals;

/// Spins until @p pred or ~8 s elapse; true when the predicate fired.
/// Bounded so a lost-wakeup regression fails the test instead of wedging
/// the whole binary until the ctest timeout.
template <typename Pred>
bool spin_until(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + 8s;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// --- lost wakeup: spawn() must wake parked waiters ---------------------------
//
// Thread A spawns child C and blocks in taskwait (C executing on thread B,
// nothing queued -> A parks).  C then spawns grandchild G and busy-waits on
// G's side effect.  B is occupied by C, so only A can run G — and A only
// learns about G if the spawn wakes it.  On the seed FIFO, A slept until
// C's bounded busy-wait expired and the test failed; with the progress
// epoch (and the seed-era notify fix), A wakes on the spawn and the chain
// completes promptly.
TEST(TaskRegression, SpawnWakesParkedTaskwaitWaiter) {
  TaskSystem ts(2, nullptr);
  std::atomic<bool> child_started{false};
  std::atomic<bool> grandchild_ran{false};
  std::atomic<bool> chain_completed{false};

  Task record_a;
  Task record_b;
  Task* implicit_a = ts.make_implicit(record_a);
  Task* implicit_b = ts.make_implicit(record_b);

  std::thread waiter([&] {
    Task* cur = implicit_a;
    ts.spawn(0, cur, [&ts, &child_started, &grandchild_ran,
                      &chain_completed] {
      child_started.store(true);
      // Let the waiter observe the empty deques and park in taskwait
      // before the grandchild is spawned (the lost-wakeup window).
      std::this_thread::sleep_for(100ms);
      // The helper thread is inside *this* body, so the grandchild can
      // only run on the parked waiter.  Spawned from the helper: tid 1.
      ts.spawn(1, nullptr, [&grandchild_ran] {
        grandchild_ran.store(true);
      });
      if (spin_until([&] { return grandchild_ran.load(); })) {
        chain_completed.store(true);
      }
    });
    // Hand the child to the helper before waiting, so taskwait finds
    // nothing takeable and parks (the lost-wakeup window).
    while (!child_started.load()) std::this_thread::yield();
    ts.taskwait(0, &cur);
  });
  std::thread helper([&] {
    Task* cur = implicit_b;
    while (!child_started.load()) {
      if (!ts.run_one(1, &cur)) std::this_thread::yield();
    }
  });
  helper.join();
  waiter.join();
  EXPECT_TRUE(chain_completed.load())
      << "grandchild never ran: spawn() did not wake the parked taskwait";
  EXPECT_TRUE(grandchild_ran.load());
  implicit_a->release();
  implicit_b->release();
}

// Same window through group_wait: the waiter parks on the group, new work
// arrives, and only the waiter is free to run it.
TEST(TaskRegression, SpawnWakesParkedGroupWaitWaiter) {
  TaskSystem ts(2, nullptr);
  TaskGroup group;
  std::atomic<bool> child_started{false};
  std::atomic<bool> grandchild_ran{false};
  std::atomic<bool> chain_completed{false};

  Task record_a;
  Task record_b;
  Task* implicit_a = ts.make_implicit(record_a);
  Task* implicit_b = ts.make_implicit(record_b);

  std::thread waiter([&] {
    Task* cur = implicit_a;
    implicit_a->active_group = &group;  // children join the group
    ts.spawn(0, cur, [&ts, &child_started, &grandchild_ran,
                      &chain_completed] {
      child_started.store(true);
      std::this_thread::sleep_for(100ms);
      ts.spawn(1, nullptr, [&grandchild_ran] {
        grandchild_ran.store(true);
      });
      if (spin_until([&] { return grandchild_ran.load(); })) {
        chain_completed.store(true);
      }
    });
    implicit_a->active_group = nullptr;
    // Hand the group task to the helper, then park on the group.
    while (!child_started.load()) std::this_thread::yield();
    ts.group_wait(0, &group, &cur);
  });
  std::thread helper([&] {
    Task* cur = implicit_b;
    while (!child_started.load()) {
      if (!ts.run_one(1, &cur)) std::this_thread::yield();
    }
  });
  helper.join();
  waiter.join();
  EXPECT_TRUE(chain_completed.load())
      << "grandchild never ran: spawn() did not wake the parked group_wait";
  implicit_a->release();
  implicit_b->release();
}

// --- taskgroup must include descendants of stolen tasks ----------------------
//
// Thread 0's taskgroup body spawns T and spins until T starts — which can
// only happen on thread 1: it reaches the barrier only after T is queued,
// and the barrier's task drain steals T.  (A barrier wait itself runs no
// tasks, so thread 1 must not reach it before the spawn.)  T then spawns
// grandchild G.  On the seed, G was attached to the executing thread's
// (empty) construct state and escaped the group, so taskgroup end returned
// while G — deliberately slow — was still pending.
TEST(TaskRegression, TaskgroupWaitsForDescendantsOfStolenTasks) {
  RuntimeOptions opts;
  Icvs icvs;
  icvs.num_threads = 2;
  opts.icvs = icvs;
  Runtime rt(opts);

  std::atomic<bool> stolen_task_spawned{false};
  std::atomic<bool> stolen_task_started{false};
  std::atomic<bool> grandchild_done{false};
  std::atomic<bool> group_waited_for_grandchild{false};

  rt.parallel([&](ParallelContext& ctx) {
    if (ctx.thread_num() == 0) {
      ctx.taskgroup([&] {
        ctx.task([&] {
          stolen_task_started.store(true);
          // Spawned from the executing task's context (possibly another
          // thread's); must still land in the enclosing taskgroup.
          Runtime::current()->task([&] {
            std::this_thread::sleep_for(50ms);
            grandchild_done.store(true);
          });
        });
        stolen_task_spawned.store(true);
        // Keep this thread inside the body until the other thread picked
        // the task up, so the spawn above really happens "stolen".
        ASSERT_TRUE(spin_until([&] { return stolen_task_started.load(); }));
      });
      group_waited_for_grandchild.store(grandchild_done.load());
    } else {
      EXPECT_TRUE(spin_until([&] { return stolen_task_spawned.load(); }));
    }
    ctx.barrier();
  });
  EXPECT_TRUE(group_waited_for_grandchild.load())
      << "taskgroup end returned before a stolen task's child completed";
  EXPECT_TRUE(grandchild_done.load());
}

// --- run_one exception safety ------------------------------------------------

TEST(TaskRegression, ThrowingTaskRestoresSlotAndAccounting) {
  TaskSystem ts;
  Task record;
  Task* implicit = ts.make_implicit(record);
  Task* cur = implicit;

  ts.spawn(0, cur, [] { throw std::runtime_error("task body"); });
  EXPECT_THROW(ts.run_one(0, &cur), std::runtime_error);
  // The current-task slot is restored...
  EXPECT_EQ(cur, implicit);
  // ...the child was accounted finished (taskwait returns instead of
  // parking forever on live_children)...
  ts.taskwait(0, &cur);
  // ...and the executing count was restored (drain returns instead of
  // spinning on a phantom in-flight task).
  std::atomic<int> ran{0};
  ts.spawn(0, cur, [&] { ran.fetch_add(1); });
  ts.drain(0, &cur);
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(ts.queued(), 0u);
  implicit->release();
}

TEST(TaskRegression, ThrowingTaskInsideGroupReleasesGroup) {
  TaskSystem ts;
  TaskGroup group;
  Task record;
  Task* implicit = ts.make_implicit(record);
  Task* cur = implicit;
  implicit->active_group = &group;
  ts.spawn(0, cur, [] { throw std::runtime_error("boom"); });
  implicit->active_group = nullptr;
  EXPECT_THROW(ts.run_one(0, &cur), std::runtime_error);
  // The group count was restored; group_wait must return immediately.
  ts.group_wait(0, &group, &cur);
  implicit->release();
  SUCCEED();
}

// --- taskgroup-scope exception safety ----------------------------------------
//
// taskloop and ParallelContext::taskgroup used to open their implicit group
// by hand: set active_group, run the body / spawn loop, restore, group_wait.
// A body that threw skipped the restore AND the wait, leaving the task's
// active_group pointing into the destroyed stack frame while live chunk
// tasks still referenced it.  Both now go through TaskGroupScope, whose
// destructor restores the override, drains the group even while unwinding,
// and propagates the first failure exactly once on the normal path.

TEST(TaskRegression, TaskloopThrowingChunkDrainsAndRestoresGroup) {
  TaskSystem ts;
  Task record;
  Task* implicit = ts.make_implicit(record);
  Task* cur = implicit;

  std::atomic<int> chunks_entered{0};
  EXPECT_THROW(
      ts.taskloop(0, &cur, 0, 64, /*grain=*/8,
                  [&](long lo, long) {
                    chunks_entered.fetch_add(1);
                    if (lo == 16) throw std::runtime_error("chunk");
                  }),
      std::runtime_error);

  // Every chunk was driven to completion before taskloop returned — the
  // scope drained the implicit group instead of abandoning queued chunks.
  EXPECT_EQ(chunks_entered.load(), 8);
  EXPECT_EQ(ts.queued(), 0u);
  // The group override was restored, not left dangling into taskloop's
  // destroyed frame: a subsequent spawn must parent to the implicit task
  // (no group), and the system stays usable.
  EXPECT_EQ(implicit->active_group, nullptr);
  std::atomic<int> after{0};
  ts.spawn(0, cur, [&] { after.fetch_add(1); });
  ts.drain(0, &cur);
  EXPECT_EQ(after.load(), 1);
  implicit->release();
}

TEST(TaskRegression, TaskloopExceptionDoesNotLeakIntoEnclosingGroup) {
  TaskSystem ts;
  TaskGroup outer;
  Task record;
  Task* implicit = ts.make_implicit(record);
  Task* cur = implicit;

  implicit->active_group = &outer;
  EXPECT_THROW(ts.taskloop(0, &cur, 0, 4, /*grain=*/1,
                           [](long, long) { throw std::runtime_error("x"); }),
               std::runtime_error);
  // The enclosing group's override is back in place (saved/restored, not
  // reset to null), and the inner chunks were not charged against it.
  EXPECT_EQ(implicit->active_group, &outer);
  implicit->active_group = nullptr;
  ts.group_wait(0, &outer, &cur);
  implicit->release();
  SUCCEED();
}

TEST(TaskRegression, TaskgroupThrowingBodyWaitsForGroup) {
  RuntimeOptions opts;
  Icvs icvs;
  icvs.num_threads = 4;
  opts.icvs = icvs;
  Runtime rt(opts);
  std::atomic<int> done{0};
  std::atomic<bool> caught_with_stragglers{false};
  std::atomic<bool> second_group_ok{false};
  rt.parallel([&](ParallelContext& ctx) {
    ctx.single([&] {
      try {
        ctx.taskgroup([&] {
          for (int i = 0; i < 32; ++i) {
            ctx.task([&] {
              std::this_thread::sleep_for(1ms);
              done.fetch_add(1);
            });
          }
          throw std::runtime_error("body");
        });
      } catch (const std::runtime_error&) {
        // The scope must have waited the group out while unwinding; the
        // queued tasks reference the taskgroup frame being destroyed.
        if (done.load() != 32) caught_with_stragglers.store(true);
      }
      // The active-group override was restored: a fresh taskgroup still
      // scopes correctly instead of charging into the dead frame's group.
      std::atomic<int> inner{0};
      ctx.taskgroup([&] {
        for (int i = 0; i < 8; ++i) ctx.task([&] { inner.fetch_add(1); });
      });
      second_group_ok.store(inner.load() == 8);
    });
  });
  EXPECT_FALSE(caught_with_stragglers.load())
      << "taskgroup body threw and the scope returned before its tasks";
  EXPECT_EQ(done.load(), 32);
  EXPECT_TRUE(second_group_ok.load());
}

}  // namespace
}  // namespace ompmca::gomp
