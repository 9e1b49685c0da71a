// Correctness-checker tests.
//
// Two layers, matching the checker's compilation model:
//  * the direct-API tests below run in every build — the checker core is
//    always compiled, only the hook macros are conditional — and pin down
//    the detection logic (order-graph cycles, generation counters,
//    deduplication, nesting state machines);
//  * the OMPMCA_CHECK_ENABLED-gated tests seed real violations through the
//    public MRAPI / gomp surfaces and assert each report fires exactly
//    once, with the right resource keys, through the live hooks.
#include "check/check.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "gomp/runtime.hpp"
#include "mrapi/mutex.hpp"
#include "mrapi/node.hpp"
#include "obs/telemetry.hpp"

namespace ompmca::check {
namespace {

class CheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset();
    set_enabled(true);
    set_abort_on_violation(false);
  }
  void TearDown() override { reset(); }

  /// Occurrence count folded into the (at most one) report of @p kind.
  static std::uint64_t count_of(ViolationKind kind) {
    std::uint64_t n = 0;
    for (const Violation& v : violations()) {
      if (v.kind == kind) n += v.count;
    }
    return n;
  }

  static std::size_t reports_of(ViolationKind kind) {
    std::size_t n = 0;
    for (const Violation& v : violations()) {
      if (v.kind == kind) ++n;
    }
    return n;
  }
};

// --- direct-API: lock order ---------------------------------------------------

TEST_F(CheckTest, ConsistentOrderReportsNothing) {
  int a = 0;
  int b = 0;
  for (int i = 0; i < 3; ++i) {
    on_acquire(LockClass::kMrapiMutex, &a, 100, "t:a");
    on_acquire(LockClass::kMrapiMutex, &b, 200, "t:b");
    on_release(LockClass::kMrapiMutex, &b);
    on_release(LockClass::kMrapiMutex, &a);
  }
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(CheckTest, InversionReportedOnceWithBothKeys) {
  int a = 0;
  int b = 0;
  on_acquire(LockClass::kMrapiMutex, &a, 100, "t:a1");
  on_acquire(LockClass::kMrapiMutex, &b, 200, "t:b1");
  on_release(LockClass::kMrapiMutex, &b);
  on_release(LockClass::kMrapiMutex, &a);
  EXPECT_EQ(violation_count(), 0u);

  on_acquire(LockClass::kMrapiMutex, &b, 200, "t:b2");
  on_acquire(LockClass::kMrapiMutex, &a, 100, "t:a2");
  on_release(LockClass::kMrapiMutex, &a);
  on_release(LockClass::kMrapiMutex, &b);

  ASSERT_EQ(violation_count(), 1u);
  const Violation v = violations()[0];
  EXPECT_EQ(v.kind, ViolationKind::kLockOrderInversion);
  EXPECT_EQ(v.key, 100u);  // the acquisition that closed the cycle
  EXPECT_NE(v.message.find("key 200"), std::string::npos);
  EXPECT_NE(v.message.find("t:a1"), std::string::npos)
      << "report must carry the conflicting chain's acquisition site: "
      << v.message;

  // Re-running the inverted order must not produce a second report.
  on_acquire(LockClass::kMrapiMutex, &b, 200, "t:b3");
  on_acquire(LockClass::kMrapiMutex, &a, 100, "t:a3");
  on_release(LockClass::kMrapiMutex, &a);
  on_release(LockClass::kMrapiMutex, &b);
  EXPECT_EQ(violation_count(), 1u);
}

TEST_F(CheckTest, TransitiveCycleDetected) {
  int a = 0;
  int b = 0;
  int c = 0;
  // A -> B, B -> C established; C -> A closes a three-lock cycle.
  on_acquire(LockClass::kMrapiMutex, &a, 1, "t:a");
  on_acquire(LockClass::kMrapiMutex, &b, 2, "t:b");
  on_release(LockClass::kMrapiMutex, &b);
  on_release(LockClass::kMrapiMutex, &a);
  on_acquire(LockClass::kMrapiMutex, &b, 2, "t:b");
  on_acquire(LockClass::kMrapiMutex, &c, 3, "t:c");
  on_release(LockClass::kMrapiMutex, &c);
  on_release(LockClass::kMrapiMutex, &b);
  EXPECT_EQ(violation_count(), 0u);
  on_acquire(LockClass::kMrapiMutex, &c, 3, "t:c2");
  on_acquire(LockClass::kMrapiMutex, &a, 1, "t:a2");
  on_release(LockClass::kMrapiMutex, &a);
  on_release(LockClass::kMrapiMutex, &c);
  EXPECT_EQ(reports_of(ViolationKind::kLockOrderInversion), 1u);
}

TEST_F(CheckTest, SameKeyDifferentClassAreDistinctNodes) {
  int m = 0;
  int s = 0;
  // mutex key 7 then semaphore key 7, consistently — never an inversion.
  for (int i = 0; i < 2; ++i) {
    on_acquire(LockClass::kMrapiMutex, &m, 7, "t:m");
    on_acquire(LockClass::kMrapiSemaphore, &s, 7, "t:s");
    on_release(LockClass::kMrapiSemaphore, &s);
    on_release(LockClass::kMrapiMutex, &m);
  }
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(CheckTest, RecursiveReacquireIsNotAnEdge) {
  int a = 0;
  on_acquire(LockClass::kMrapiMutex, &a, 9, "t:a");
  on_acquire(LockClass::kMrapiMutex, &a, 9, "t:a-rec");
  on_release(LockClass::kMrapiMutex, &a);
  on_release(LockClass::kMrapiMutex, &a);
  EXPECT_EQ(violation_count(), 0u);
  EXPECT_EQ(held_count(), 0u);
}

// --- direct-API: lifecycle ----------------------------------------------------

TEST_F(CheckTest, UseAfterDeleteCarriesKey) {
  int o = 0;
  on_create(LockClass::kMrapiMutex, 42, &o);
  on_delete(LockClass::kMrapiMutex, 42, &o);
  on_use_after_delete(LockClass::kMrapiMutex, &o, "t:ua");
  ASSERT_EQ(violation_count(), 1u);
  EXPECT_EQ(violations()[0].kind, ViolationKind::kUseAfterDelete);
  EXPECT_EQ(violations()[0].key, 42u);
}

TEST_F(CheckTest, DoubleDeleteOnlyForKeysThatExisted) {
  // Deleting a key that never existed is a plain bad argument, not a
  // lifecycle violation.
  on_delete_missing(LockClass::kMrapiMutex, 999, "t:never");
  EXPECT_EQ(violation_count(), 0u);

  int o = 0;
  on_create(LockClass::kMrapiMutex, 7, &o);
  on_delete(LockClass::kMrapiMutex, 7, &o);
  on_delete_missing(LockClass::kMrapiMutex, 7, "t:dd");
  ASSERT_EQ(violation_count(), 1u);
  EXPECT_EQ(violations()[0].kind, ViolationKind::kDoubleDelete);
  EXPECT_EQ(violations()[0].key, 7u);

  // A semaphore deletion of the same numeric key is unrelated.
  on_delete_missing(LockClass::kMrapiSemaphore, 7, "t:sem");
  EXPECT_EQ(violation_count(), 1u);
}

TEST_F(CheckTest, DoubleUnlockDeduplicates) {
  int o = 0;
  on_double_unlock(LockClass::kMrapiMutex, &o, "t:du");
  on_double_unlock(LockClass::kMrapiMutex, &o, "t:du");
  ASSERT_EQ(violation_count(), 1u);
  EXPECT_EQ(violations()[0].kind, ViolationKind::kDoubleUnlock);
  EXPECT_EQ(violations()[0].count, 2u);
}

TEST_F(CheckTest, NodeRetireWithHeldLocksFlagged) {
  int o = 0;
  on_acquire(LockClass::kMrapiMutex, &o, 5, "t:a");
  on_node_retire(3, "t:retire");
  ASSERT_EQ(reports_of(ViolationKind::kNodeRetireWithHeldLocks), 1u);
  for (const Violation& v : violations()) {
    if (v.kind == ViolationKind::kNodeRetireWithHeldLocks) {
      EXPECT_EQ(v.key, 3u);
      EXPECT_NE(v.message.find("key 5"), std::string::npos);
    }
  }
  on_release(LockClass::kMrapiMutex, &o);
  // Retiring with nothing held is clean and must not add a report.
  on_node_retire(4, "t:retire2");
  EXPECT_EQ(reports_of(ViolationKind::kNodeRetireWithHeldLocks), 1u);
}

TEST_F(CheckTest, HeldCountExcludesPoolPseudoLock) {
  int pool = 0;
  int m = 0;
  on_acquire(LockClass::kGompPool, &pool, 0, "t:pool");
  EXPECT_EQ(held_count(), 0u);
  on_acquire(LockClass::kMrapiMutex, &m, 1, "t:m");
  EXPECT_EQ(held_count(), 1u);
  on_release(LockClass::kMrapiMutex, &m);
  on_release(LockClass::kGompPool, &pool);
  EXPECT_EQ(held_count(), 0u);
}

TEST_F(CheckTest, PoolSlotsNeverInvertEachOther) {
  // Nested masters take dispatch slots in whatever order they free up.
  int slot_a = 0;
  int slot_b = 0;
  int m = 0;
  on_acquire(LockClass::kGompPool, &slot_a, 0, "t:outer-a");
  on_acquire(LockClass::kGompPool, &slot_b, 0, "t:nested-b");
  on_release(LockClass::kGompPool, &slot_b);
  on_release(LockClass::kGompPool, &slot_a);
  on_acquire(LockClass::kGompPool, &slot_b, 0, "t:outer-b");
  on_acquire(LockClass::kGompPool, &slot_a, 0, "t:nested-a");
  on_release(LockClass::kGompPool, &slot_a);
  on_release(LockClass::kGompPool, &slot_b);
  EXPECT_EQ(violation_count(), 0u);

  // A slot still orders against real locks.
  on_acquire(LockClass::kGompPool, &slot_a, 0, "t:slot");
  on_acquire(LockClass::kMrapiMutex, &m, 1, "t:m");
  on_release(LockClass::kMrapiMutex, &m);
  on_release(LockClass::kGompPool, &slot_a);
  on_acquire(LockClass::kMrapiMutex, &m, 1, "t:m2");
  on_acquire(LockClass::kGompPool, &slot_a, 0, "t:slot2");
  on_release(LockClass::kGompPool, &slot_a);
  on_release(LockClass::kMrapiMutex, &m);
  EXPECT_EQ(reports_of(ViolationKind::kLockOrderInversion), 1u);
}

// --- direct-API: gomp usage ---------------------------------------------------

TEST_F(CheckTest, BarrierNestingStateMachine) {
  int team = 0;
  on_barrier_usage(&team, "t:clean");
  EXPECT_EQ(violation_count(), 0u);

  on_region_enter(Region::kCritical, &team);
  on_barrier_usage(&team, "t:in-critical");
  on_region_exit(Region::kCritical, &team);
  EXPECT_EQ(reports_of(ViolationKind::kBarrierInsideCritical), 1u);

  on_region_enter(Region::kSingle, &team);
  on_barrier_usage(&team, "t:in-single");
  on_region_exit(Region::kSingle, &team);
  EXPECT_EQ(reports_of(ViolationKind::kBarrierInsideSingle), 1u);

  on_region_enter(Region::kWorkshare, &team);
  on_barrier_usage(&team, "t:in-ws");
  on_region_exit(Region::kWorkshare, &team);
  EXPECT_EQ(reports_of(ViolationKind::kBarrierInsideWorksharing), 1u);

  on_barrier_usage(&team, "t:clean-again");
  EXPECT_EQ(violation_count(), 3u);
}

TEST_F(CheckTest, NestedWorkshareSameTeamOnly) {
  int t1 = 0;
  int t2 = 0;
  // Nested parallelism: inner loop belongs to a *different* team — legal.
  on_region_enter(Region::kWorkshare, &t1);
  on_region_enter(Region::kWorkshare, &t2);
  on_region_exit(Region::kWorkshare, &t2);
  on_region_exit(Region::kWorkshare, &t1);
  EXPECT_EQ(violation_count(), 0u);

  on_region_enter(Region::kWorkshare, &t1);
  on_region_enter(Region::kWorkshare, &t1);
  on_region_exit(Region::kWorkshare, &t1);
  on_region_exit(Region::kWorkshare, &t1);
  EXPECT_EQ(reports_of(ViolationKind::kNestedWorksharing), 1u);
}

TEST_F(CheckTest, BarrierWhileHoldingLockNamesInnermost) {
  int a = 0;
  int b = 0;
  on_acquire(LockClass::kMrapiMutex, &a, 10, "t:a");
  on_acquire(LockClass::kGompUserLock, &b, 20, "t:b");
  on_barrier_held("t:barrier");
  on_release(LockClass::kGompUserLock, &b);
  on_release(LockClass::kMrapiMutex, &a);
  ASSERT_EQ(reports_of(ViolationKind::kBarrierWhileHoldingLock), 1u);
  const Violation v = violations()[0];
  EXPECT_EQ(v.lock_class, LockClass::kGompUserLock);
  EXPECT_EQ(v.key, 20u);
  on_barrier_held("t:barrier2");
  EXPECT_EQ(violation_count(), 1u);
}

// --- reporting ----------------------------------------------------------------

TEST_F(CheckTest, JsonSectionShape) {
  int o = 0;
  on_double_unlock(LockClass::kMrapiMutex, &o, "t:json");
  const std::string s = json_section();
  EXPECT_NE(s.find("\"violations_total\": 1"), std::string::npos) << s;
  EXPECT_NE(s.find("\"kind\": \"double_unlock\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"class\": \"mrapi_mutex\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"count\": 1"), std::string::npos) << s;
}

TEST_F(CheckTest, ResetClearsEverything) {
  int o = 0;
  on_create(LockClass::kMrapiMutex, 1, &o);
  on_double_unlock(LockClass::kMrapiMutex, &o, "t:r");
  ASSERT_EQ(violation_count(), 1u);
  reset();
  EXPECT_EQ(violation_count(), 0u);
  EXPECT_NE(json_section().find("\"violations\": []"), std::string::npos);
}

TEST_F(CheckTest, AbortOnViolationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  set_abort_on_violation(true);
  int o = 0;
  EXPECT_DEATH(on_double_unlock(LockClass::kMrapiMutex, &o, "t:abort"),
               "OMPMCA_CHECK_ABORT");
  set_abort_on_violation(false);
}

#if !OMPMCA_CHECK_ENABLED

// --- OFF build: hooks are token-level no-ops ----------------------------------

TEST_F(CheckTest, HooksCompileToNothingWhenCheckOff) {
  int o = 0;
  (void)o;
  OMPMCA_CHECK_CREATE(LockClass::kMrapiMutex, 1, &o);
  OMPMCA_CHECK_DELETE(LockClass::kMrapiMutex, 1, &o);
  OMPMCA_CHECK_DELETE_MISSING(LockClass::kMrapiMutex, 1);
  OMPMCA_CHECK_USE_AFTER_DELETE(LockClass::kMrapiMutex, &o);
  OMPMCA_CHECK_ACQUIRE(LockClass::kMrapiMutex, &o, 1);
  OMPMCA_CHECK_RELEASE(LockClass::kMrapiMutex, &o);
  OMPMCA_CHECK_DOUBLE_UNLOCK(LockClass::kMrapiMutex, &o);
  OMPMCA_CHECK_UNLOCK_NOT_OWNER(LockClass::kMrapiMutex, &o);
  OMPMCA_CHECK_NODE_RETIRE(1);
  OMPMCA_CHECK_REGION_ENTER(Region::kSingle, &o);
  OMPMCA_CHECK_REGION_EXIT(Region::kSingle, &o);
  OMPMCA_CHECK_BARRIER_USAGE(&o);
  OMPMCA_CHECK_BARRIER_HELD();
  EXPECT_EQ(violation_count(), 0u);
  EXPECT_EQ(held_count(), 0u);
}

TEST_F(CheckTest, MrapiPathsRecordNothingWhenCheckOff) {
  mrapi::Mutex m;
  mrapi::LockKey k;
  ASSERT_EQ(m.lock(mrapi::kTimeoutInfinite, &k), Status::kSuccess);
  ASSERT_EQ(m.unlock(k), Status::kSuccess);
  EXPECT_EQ(m.unlock(k), Status::kMutexNotLocked);  // seeded double unlock
  EXPECT_EQ(violation_count(), 0u);
}

#else  // OMPMCA_CHECK_ENABLED

// --- ON build: seeded violations through the real surfaces --------------------

class CheckSeededTest : public CheckTest {
 protected:
  static mrapi::DomainId next_domain() {
    static std::atomic<mrapi::DomainId> next{0};
    return next.fetch_add(1) % mrapi::Limits::kMaxDomains;
  }
  void SetUp() override {
    mrapi::Database::instance().reset();
    CheckTest::SetUp();
  }
};

TEST_F(CheckSeededTest, MutexInversionViaMrapi) {
  auto node = mrapi::Node::initialize(next_domain(), 1);
  ASSERT_TRUE(node.has_value());
  auto a = node->mutex_create(100);
  auto b = node->mutex_create(101);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());

  mrapi::LockKey ka;
  mrapi::LockKey kb;
  ASSERT_EQ((*a)->lock(mrapi::kTimeoutInfinite, &ka), Status::kSuccess);
  ASSERT_EQ((*b)->lock(mrapi::kTimeoutInfinite, &kb), Status::kSuccess);
  ASSERT_EQ((*b)->unlock(kb), Status::kSuccess);
  ASSERT_EQ((*a)->unlock(ka), Status::kSuccess);
  EXPECT_EQ(violation_count(), 0u);

  ASSERT_EQ((*b)->lock(mrapi::kTimeoutInfinite, &kb), Status::kSuccess);
  ASSERT_EQ((*a)->lock(mrapi::kTimeoutInfinite, &ka), Status::kSuccess);
  ASSERT_EQ((*a)->unlock(ka), Status::kSuccess);
  ASSERT_EQ((*b)->unlock(kb), Status::kSuccess);

  ASSERT_EQ(reports_of(ViolationKind::kLockOrderInversion), 1u);
  const Violation v = violations()[0];
  EXPECT_EQ(v.lock_class, LockClass::kMrapiMutex);
  EXPECT_EQ(v.key, 100u);
  EXPECT_NE(v.message.find("mrapi_mutex key 101"), std::string::npos) << v.message;
  (void)node->finalize();
}

TEST_F(CheckSeededTest, DoubleUnlockViaMrapi) {
  auto node = mrapi::Node::initialize(next_domain(), 1);
  ASSERT_TRUE(node.has_value());
  auto m = node->mutex_create(55);
  ASSERT_TRUE(m.has_value());
  mrapi::LockKey k;
  ASSERT_EQ((*m)->lock(mrapi::kTimeoutInfinite, &k), Status::kSuccess);
  ASSERT_EQ((*m)->unlock(k), Status::kSuccess);
  EXPECT_EQ((*m)->unlock(k), Status::kMutexNotLocked);
  EXPECT_EQ((*m)->unlock(k), Status::kMutexNotLocked);
  ASSERT_EQ(reports_of(ViolationKind::kDoubleUnlock), 1u);
  for (const Violation& v : violations()) {
    if (v.kind == ViolationKind::kDoubleUnlock) {
      EXPECT_EQ(v.key, 55u);
      EXPECT_EQ(v.count, 2u);
      EXPECT_NE(v.site.find("mutex.cpp"), std::string::npos) << v.site;
    }
  }
  (void)node->finalize();
}

TEST_F(CheckSeededTest, UseAfterDeleteViaStaleHandle) {
  auto node = mrapi::Node::initialize(next_domain(), 1);
  ASSERT_TRUE(node.has_value());
  auto m = node->mutex_create(77);
  ASSERT_TRUE(m.has_value());
  std::shared_ptr<mrapi::Mutex> stale = *m;
  ASSERT_EQ(node->mutex_delete(77), Status::kSuccess);

  mrapi::LockKey k;
  EXPECT_EQ(stale->lock(mrapi::kTimeoutInfinite, &k), Status::kMutexIdInvalid);
  EXPECT_EQ(stale->lock(mrapi::kTimeoutInfinite, &k), Status::kMutexIdInvalid);
  ASSERT_EQ(reports_of(ViolationKind::kUseAfterDelete), 1u);
  for (const Violation& v : violations()) {
    if (v.kind == ViolationKind::kUseAfterDelete) {
      EXPECT_EQ(v.lock_class, LockClass::kMrapiMutex);
      EXPECT_EQ(v.key, 77u);
    }
  }
  (void)node->finalize();
}

TEST_F(CheckSeededTest, DeleteWhileHeldRefusedThenDoubleDeleteFlagged) {
  auto node = mrapi::Node::initialize(next_domain(), 1);
  ASSERT_TRUE(node.has_value());
  auto m = node->mutex_create(88);
  ASSERT_TRUE(m.has_value());
  mrapi::LockKey k;
  ASSERT_EQ((*m)->lock(mrapi::kTimeoutInfinite, &k), Status::kSuccess);
  EXPECT_EQ(node->mutex_delete(88), Status::kMutexLocked);
  EXPECT_EQ(violation_count(), 0u);  // refused delete is not a violation
  ASSERT_EQ((*m)->unlock(k), Status::kSuccess);
  ASSERT_EQ(node->mutex_delete(88), Status::kSuccess);
  EXPECT_EQ(node->mutex_delete(88), Status::kMutexIdInvalid);
  ASSERT_EQ(reports_of(ViolationKind::kDoubleDelete), 1u);
  for (const Violation& v : violations()) {
    if (v.kind == ViolationKind::kDoubleDelete) {
      EXPECT_EQ(v.key, 88u);
    }
  }
  (void)node->finalize();
}

TEST_F(CheckSeededTest, SemaphoreDeleteWhileHeldRefused) {
  auto node = mrapi::Node::initialize(next_domain(), 1);
  ASSERT_TRUE(node.has_value());
  mrapi::SemaphoreAttributes attrs;
  attrs.shared_lock_limit = 1;
  auto s = node->sem_create(60, attrs);
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ((*s)->acquire(mrapi::kTimeoutInfinite), Status::kSuccess);
  EXPECT_EQ(node->sem_delete(60), Status::kSemLocked);
  ASSERT_EQ((*s)->release(), Status::kSuccess);
  EXPECT_EQ(node->sem_delete(60), Status::kSuccess);
  // Stale-handle operations after the successful delete fail cleanly.
  EXPECT_EQ((*s)->acquire(mrapi::kTimeoutInfinite), Status::kSemIdInvalid);
  EXPECT_EQ(reports_of(ViolationKind::kUseAfterDelete), 1u);
  (void)node->finalize();
}

TEST_F(CheckSeededTest, RwlockRetireBlocksStaleReaders) {
  auto node = mrapi::Node::initialize(next_domain(), 1);
  ASSERT_TRUE(node.has_value());
  auto r = node->rwlock_create(61);
  ASSERT_TRUE(r.has_value());
  std::shared_ptr<mrapi::Rwlock> stale = *r;
  ASSERT_EQ(node->rwlock_delete(61), Status::kSuccess);
  EXPECT_EQ(stale->lock_read(mrapi::kTimeoutInfinite), Status::kRwlIdInvalid);
  EXPECT_EQ(reports_of(ViolationKind::kUseAfterDelete), 1u);
  (void)node->finalize();
}

TEST_F(CheckSeededTest, NodeFinalizeWithHeldLockFlagged) {
  auto node = mrapi::Node::initialize(next_domain(), 9);
  ASSERT_TRUE(node.has_value());
  auto m = node->mutex_create(70);
  ASSERT_TRUE(m.has_value());
  mrapi::LockKey k;
  ASSERT_EQ((*m)->lock(mrapi::kTimeoutInfinite, &k), Status::kSuccess);
  (void)node->finalize();
  ASSERT_EQ(reports_of(ViolationKind::kNodeRetireWithHeldLocks), 1u);
  for (const Violation& v : violations()) {
    if (v.kind == ViolationKind::kNodeRetireWithHeldLocks) {
      EXPECT_EQ(v.key, 9u);
      EXPECT_NE(v.message.find("key 70"), std::string::npos) << v.message;
    }
  }
  ASSERT_EQ((*m)->unlock(k), Status::kSuccess);
}

gomp::RuntimeOptions one_thread_options() {
  gomp::RuntimeOptions opts;
  opts.backend = gomp::BackendKind::kNative;
  gomp::Icvs icvs;
  icvs.num_threads = 1;  // single-thread team: seeded nesting bugs cannot
                         // deadlock the test, the checks still fire
  opts.icvs = icvs;
  return opts;
}

TEST_F(CheckSeededTest, BarrierInsideCriticalViaRuntime) {
  gomp::Runtime rt(one_thread_options());
  rt.parallel([&](gomp::ParallelContext& ctx) {
    ctx.critical([&] { ctx.barrier(); });
  });
  EXPECT_EQ(reports_of(ViolationKind::kBarrierInsideCritical), 1u);
  // The physical-barrier check also sees the held critical mutex.
  EXPECT_EQ(reports_of(ViolationKind::kBarrierWhileHoldingLock), 1u);
}

TEST_F(CheckSeededTest, BarrierInsideSingleViaRuntime) {
  gomp::Runtime rt(one_thread_options());
  rt.parallel([&](gomp::ParallelContext& ctx) {
    ctx.single([&] { ctx.barrier(); }, /*nowait=*/true);
  });
  EXPECT_EQ(reports_of(ViolationKind::kBarrierInsideSingle), 1u);
}

TEST_F(CheckSeededTest, NestedWorksharingViaRuntime) {
  gomp::Runtime rt(one_thread_options());
  rt.parallel([&](gomp::ParallelContext& ctx) {
    ctx.for_loop(
        0, 2,
        [&](long, long) {
          ctx.for_loop(0, 2, [](long, long) {}, {}, /*nowait=*/true);
        },
        {}, /*nowait=*/true);
  });
  EXPECT_EQ(reports_of(ViolationKind::kNestedWorksharing), 1u);
}

TEST_F(CheckSeededTest, CleanRuntimeUsageReportsNothing) {
  gomp::Runtime rt(one_thread_options());
  rt.parallel([&](gomp::ParallelContext& ctx) {
    ctx.for_loop(0, 16, [](long, long) {}, {}, false);
    ctx.single([&] {}, false);
    ctx.critical([&] {});
    ctx.barrier();
  });
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(CheckSeededTest, ObsReportCarriesCheckSection) {
  int o = 0;
  on_double_unlock(LockClass::kMrapiMutex, &o, "t:obs");
  const std::string report = obs::Registry::instance().json("check-test");
  EXPECT_NE(report.find("\"check\""), std::string::npos);
  EXPECT_NE(report.find("double_unlock"), std::string::npos);
}

TEST_F(CheckSeededTest, RuntimeDisableSilencesHooks) {
  set_enabled(false);
  auto node = mrapi::Node::initialize(next_domain(), 1);
  ASSERT_TRUE(node.has_value());
  auto m = node->mutex_create(50);
  ASSERT_TRUE(m.has_value());
  mrapi::LockKey k;
  ASSERT_EQ((*m)->lock(mrapi::kTimeoutInfinite, &k), Status::kSuccess);
  ASSERT_EQ((*m)->unlock(k), Status::kSuccess);
  EXPECT_EQ((*m)->unlock(k), Status::kMutexNotLocked);
  EXPECT_EQ(violation_count(), 0u);
  set_enabled(true);
  (void)node->finalize();
}

#endif  // OMPMCA_CHECK_ENABLED

}  // namespace
}  // namespace ompmca::check
