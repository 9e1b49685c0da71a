#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "mrapi/mutex.hpp"
#include "mrapi/node.hpp"
#include "mrapi/rwlock.hpp"
#include "mrapi/semaphore.hpp"

namespace ompmca::mrapi {
namespace {

// --- Mutex -------------------------------------------------------------------

TEST(Mutex, LockUnlock) {
  Mutex m;
  LockKey key;
  ASSERT_EQ(m.lock(kTimeoutInfinite, &key), Status::kSuccess);
  EXPECT_EQ(key.value, 1u);
  EXPECT_TRUE(m.locked());
  ASSERT_EQ(m.unlock(key), Status::kSuccess);
  EXPECT_FALSE(m.locked());
}

TEST(Mutex, TrylockWhenHeldFails) {
  Mutex m;
  LockKey key;
  ASSERT_EQ(m.lock(kTimeoutInfinite, &key), Status::kSuccess);
  std::thread t([&m] {
    LockKey k2;
    EXPECT_EQ(m.trylock(&k2), Status::kMutexLocked);
  });
  t.join();
  (void)m.unlock(key);
}

TEST(Mutex, NonRecursiveRelockReportsLocked) {
  Mutex m;
  LockKey key;
  ASSERT_EQ(m.lock(kTimeoutInfinite, &key), Status::kSuccess);
  LockKey key2;
  EXPECT_EQ(m.lock(kTimeoutInfinite, &key2), Status::kMutexLocked);
  (void)m.unlock(key);
}

TEST(Mutex, UnlockWithoutLock) {
  Mutex m;
  EXPECT_EQ(m.unlock(LockKey{1}), Status::kMutexNotLocked);
}

TEST(Mutex, UnlockFromWrongThreadRejected) {
  Mutex m;
  LockKey key;
  ASSERT_EQ(m.lock(kTimeoutInfinite, &key), Status::kSuccess);
  std::thread t([&m] {
    EXPECT_EQ(m.unlock(LockKey{1}), Status::kMutexKeyInvalid);
  });
  t.join();
  EXPECT_EQ(m.unlock(key), Status::kSuccess);
}

TEST(Mutex, TimeoutExpires) {
  Mutex m;
  LockKey key;
  ASSERT_EQ(m.lock(kTimeoutInfinite, &key), Status::kSuccess);
  std::thread t([&m] {
    LockKey k2;
    EXPECT_EQ(m.lock(20, &k2), Status::kTimeout);
  });
  t.join();
  (void)m.unlock(key);
}

TEST(Mutex, RecursiveLockKeysInnermostFirst) {
  Mutex m(MutexAttributes{.recursive = true});
  LockKey k1, k2, k3;
  ASSERT_EQ(m.lock(kTimeoutInfinite, &k1), Status::kSuccess);
  ASSERT_EQ(m.lock(kTimeoutInfinite, &k2), Status::kSuccess);
  ASSERT_EQ(m.lock(kTimeoutInfinite, &k3), Status::kSuccess);
  EXPECT_EQ(k1.value, 1u);
  EXPECT_EQ(k2.value, 2u);
  EXPECT_EQ(k3.value, 3u);
  // Releasing out of order is an error.
  EXPECT_EQ(m.unlock(k1), Status::kMutexKeyInvalid);
  EXPECT_EQ(m.unlock(k3), Status::kSuccess);
  EXPECT_EQ(m.unlock(k2), Status::kSuccess);
  EXPECT_EQ(m.unlock(k1), Status::kSuccess);
  EXPECT_FALSE(m.locked());
}

TEST(Mutex, MutualExclusionStress) {
  Mutex m;
  long counter = 0;
  const int kThreads = 8;
  const int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        LockKey key;
        ASSERT_EQ(m.lock(kTimeoutInfinite, &key), Status::kSuccess);
        ++counter;  // data race iff the mutex is broken
        ASSERT_EQ(m.unlock(key), Status::kSuccess);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

// --- Semaphore ----------------------------------------------------------------

TEST(Semaphore, CountsDownAndUp) {
  Semaphore s(SemaphoreAttributes{.shared_lock_limit = 2});
  EXPECT_EQ(s.available(), 2u);
  EXPECT_EQ(s.acquire(kTimeoutImmediate), Status::kSuccess);
  EXPECT_EQ(s.acquire(kTimeoutImmediate), Status::kSuccess);
  EXPECT_EQ(s.available(), 0u);
  EXPECT_EQ(s.try_acquire(), Status::kMutexLocked);
  EXPECT_EQ(s.release(), Status::kSuccess);
  EXPECT_EQ(s.available(), 1u);
}

TEST(Semaphore, ReleaseBeyondLimitRejected) {
  Semaphore s(SemaphoreAttributes{.shared_lock_limit = 1});
  EXPECT_EQ(s.release(), Status::kSemNotLocked);
}

TEST(Semaphore, TimeoutExpires) {
  Semaphore s(SemaphoreAttributes{.shared_lock_limit = 1});
  ASSERT_EQ(s.acquire(kTimeoutImmediate), Status::kSuccess);
  EXPECT_EQ(s.acquire(20), Status::kTimeout);
  (void)s.release();
}

TEST(Semaphore, BlocksUntilRelease) {
  Semaphore s(SemaphoreAttributes{.shared_lock_limit = 1});
  ASSERT_EQ(s.acquire(kTimeoutImmediate), Status::kSuccess);
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    EXPECT_EQ(s.acquire(kTimeoutInfinite), Status::kSuccess);
    acquired.store(true);
  });
  EXPECT_FALSE(acquired.load());
  (void)s.release();
  t.join();
  EXPECT_TRUE(acquired.load());
}

TEST(Semaphore, BoundedConcurrencyInvariant) {
  Semaphore s(SemaphoreAttributes{.shared_lock_limit = 3});
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        ASSERT_EQ(s.acquire(kTimeoutInfinite), Status::kSuccess);
        int now = inside.fetch_add(1) + 1;
        int seen = max_inside.load();
        while (now > seen && !max_inside.compare_exchange_weak(seen, now)) {
        }
        inside.fetch_sub(1);
        ASSERT_EQ(s.release(), Status::kSuccess);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(max_inside.load(), 3);
}

// --- Rwlock ---------------------------------------------------------------------

TEST(Rwlock, MultipleReaders) {
  Rwlock rw;
  ASSERT_EQ(rw.lock_read(kTimeoutImmediate), Status::kSuccess);
  ASSERT_EQ(rw.lock_read(kTimeoutImmediate), Status::kSuccess);
  EXPECT_EQ(rw.readers(), 2u);
  EXPECT_EQ(rw.unlock_read(), Status::kSuccess);
  EXPECT_EQ(rw.unlock_read(), Status::kSuccess);
}

TEST(Rwlock, WriterExcludesReaders) {
  Rwlock rw;
  ASSERT_EQ(rw.lock_write(kTimeoutImmediate), Status::kSuccess);
  EXPECT_EQ(rw.lock_read(kTimeoutImmediate), Status::kRwlLocked);
  EXPECT_EQ(rw.lock_write(kTimeoutImmediate), Status::kRwlLocked);
  EXPECT_EQ(rw.unlock_write(), Status::kSuccess);
  EXPECT_EQ(rw.lock_read(kTimeoutImmediate), Status::kSuccess);
  (void)rw.unlock_read();
}

TEST(Rwlock, UnlockWithoutLock) {
  Rwlock rw;
  EXPECT_EQ(rw.unlock_read(), Status::kRwlNotLocked);
  EXPECT_EQ(rw.unlock_write(), Status::kRwlNotLocked);
}

TEST(Rwlock, MaxReadersEnforced) {
  Rwlock rw(RwlockAttributes{.max_readers = 2});
  ASSERT_EQ(rw.lock_read(kTimeoutImmediate), Status::kSuccess);
  ASSERT_EQ(rw.lock_read(kTimeoutImmediate), Status::kSuccess);
  EXPECT_EQ(rw.lock_read(kTimeoutImmediate), Status::kRwlLocked);
  (void)rw.unlock_read();
  (void)rw.unlock_read();
}

TEST(Rwlock, WriterNotStarvedByReaderStream) {
  Rwlock rw;
  ASSERT_EQ(rw.lock_read(kTimeoutImmediate), Status::kSuccess);
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    ASSERT_EQ(rw.lock_write(kTimeoutInfinite), Status::kSuccess);
    writer_done.store(true);
    (void)rw.unlock_write();
  });
  // Wait until the writer has queued behind our read lock (a fixed sleep
  // let a reader in first on a loaded host), then try to read: must be
  // refused (writer preference) while a writer waits.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (rw.waiting_writers() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(rw.waiting_writers(), 1u);
  for (int i = 0; i < 100 && !writer_done.load(); ++i) {
    if (rw.lock_read(kTimeoutImmediate) == Status::kSuccess) {
      // Only possible once the writer has been served.
      EXPECT_TRUE(writer_done.load());
      (void)rw.unlock_read();
      break;
    }
  }
  (void)rw.unlock_read();
  writer.join();
  EXPECT_TRUE(writer_done.load());
}

TEST(Rwlock, ReadersWritersStress) {
  Rwlock rw;
  long value = 0;
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {  // readers: value must always look consistent
      for (int i = 0; i < 500; ++i) {
        ASSERT_EQ(rw.lock_read(kTimeoutInfinite), Status::kSuccess);
        long a = value;
        long b = value;
        if (a != b) mismatch.store(true);
        ASSERT_EQ(rw.unlock_read(), Status::kSuccess);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        ASSERT_EQ(rw.lock_write(kTimeoutInfinite), Status::kSuccess);
        ++value;
        ASSERT_EQ(rw.unlock_write(), Status::kSuccess);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(value, 1000);
}

// --- registry-level behaviour -------------------------------------------------

TEST(SyncRegistry, MutexSharedByKeyAcrossNodes) {
  Database::instance().reset();
  auto a = Node::initialize(0, 1);
  auto b = Node::initialize(0, 2);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  auto ma = a->mutex_create(50);
  ASSERT_TRUE(ma.has_value());
  auto mb = b->mutex_get(50);
  ASSERT_TRUE(mb.has_value());
  EXPECT_EQ(ma->get(), mb->get());  // same underlying object
  EXPECT_EQ(b->mutex_create(50).status(), Status::kMutexExists);
  (void)a->finalize();
  (void)b->finalize();
}

TEST(SyncRegistry, DeleteLockedMutexRefused) {
  Database::instance().reset();
  auto n = Node::initialize(0, 1);
  ASSERT_TRUE(n.has_value());
  auto m = n->mutex_create(51);
  ASSERT_TRUE(m.has_value());
  LockKey key;
  ASSERT_EQ((*m)->lock(kTimeoutInfinite, &key), Status::kSuccess);
  EXPECT_EQ(n->mutex_delete(51), Status::kMutexLocked);
  (void)(*m)->unlock(key);
  EXPECT_EQ(n->mutex_delete(51), Status::kSuccess);
  EXPECT_EQ(n->mutex_get(51).status(), Status::kMutexIdInvalid);
  (void)n->finalize();
}

TEST(SyncRegistry, SemaphoreZeroLimitRejected) {
  Database::instance().reset();
  auto n = Node::initialize(0, 1);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->sem_create(60, SemaphoreAttributes{.shared_lock_limit = 0})
                .status(),
            Status::kSemValueInvalid);
  (void)n->finalize();
}

TEST(SyncRegistry, RwlockDeleteWhileHeldRefused) {
  Database::instance().reset();
  auto n = Node::initialize(0, 1);
  ASSERT_TRUE(n.has_value());
  auto rw = n->rwlock_create(70);
  ASSERT_TRUE(rw.has_value());
  ASSERT_EQ((*rw)->lock_read(kTimeoutImmediate), Status::kSuccess);
  EXPECT_EQ(n->rwlock_delete(70), Status::kRwlLocked);
  (void)(*rw)->unlock_read();
  EXPECT_EQ(n->rwlock_delete(70), Status::kSuccess);
  (void)n->finalize();
}

}  // namespace
}  // namespace ompmca::mrapi
