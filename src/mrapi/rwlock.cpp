#include "mrapi/rwlock.hpp"

#include <chrono>

#include "check/check.hpp"

namespace ompmca::mrapi {

namespace {

/// Waits on @p cv for @p pred honouring the MRAPI timeout conventions.
template <typename Pred>
Status timed_wait(std::condition_variable& cv, MutexLock& lk,
                  Timeout timeout_ms, Pred pred, Status busy) {
  if (pred()) return Status::kSuccess;
  if (timeout_ms == kTimeoutImmediate) return busy;
  if (timeout_ms == kTimeoutInfinite) {
    lk.wait(cv, pred);
    return Status::kSuccess;
  }
  if (!lk.wait_for(cv, std::chrono::milliseconds(timeout_ms), pred))
    return Status::kTimeout;
  return Status::kSuccess;
}

}  // namespace

Status Rwlock::lock_read(Timeout timeout_ms) {
  MutexLock lk(mu_);
  if (retired_) {
    OMPMCA_CHECK_USE_AFTER_DELETE(check::LockClass::kMrapiRwlock, this);
    return Status::kRwlIdInvalid;
  }
  auto pred = [this]() OMPMCA_REQUIRES(mu_) {
    if (retired_) return true;  // fail fast below, never sleep on a corpse
    if (writer_active_ || waiting_writers_ > 0) return false;
    if (attrs_.max_readers > 0 && active_readers_ >= attrs_.max_readers)
      return false;
    return true;
  };
  OMPMCA_RETURN_IF_ERROR(
      timed_wait(readers_cv_, lk, timeout_ms, pred, Status::kRwlLocked));
  if (retired_) {
    OMPMCA_CHECK_USE_AFTER_DELETE(check::LockClass::kMrapiRwlock, this);
    return Status::kRwlIdInvalid;
  }
  ++active_readers_;
  OMPMCA_CHECK_ACQUIRE(check::LockClass::kMrapiRwlock, this, 0);
  return Status::kSuccess;
}

Status Rwlock::lock_write(Timeout timeout_ms) {
  MutexLock lk(mu_);
  if (retired_) {
    OMPMCA_CHECK_USE_AFTER_DELETE(check::LockClass::kMrapiRwlock, this);
    return Status::kRwlIdInvalid;
  }
  ++waiting_writers_;
  auto pred = [this]() OMPMCA_REQUIRES(mu_) {
    return retired_ || (!writer_active_ && active_readers_ == 0);
  };
  Status s = timed_wait(writers_cv_, lk, timeout_ms, pred, Status::kRwlLocked);
  --waiting_writers_;
  if (ok(s) && retired_) {
    OMPMCA_CHECK_USE_AFTER_DELETE(check::LockClass::kMrapiRwlock, this);
    s = Status::kRwlIdInvalid;
  }
  if (!ok(s)) {
    // A failed writer must not keep readers parked.
    if (waiting_writers_ == 0) {
      lk.unlock();
      readers_cv_.notify_all();
    }
    return s;
  }
  writer_active_ = true;
  OMPMCA_CHECK_ACQUIRE(check::LockClass::kMrapiRwlock, this, 0);
  return Status::kSuccess;
}

Status Rwlock::unlock_read() {
  MutexLock lk(mu_);
  if (retired_) {
    OMPMCA_CHECK_USE_AFTER_DELETE(check::LockClass::kMrapiRwlock, this);
    return Status::kRwlIdInvalid;
  }
  if (active_readers_ == 0) {
    OMPMCA_CHECK_DOUBLE_UNLOCK(check::LockClass::kMrapiRwlock, this);
    return Status::kRwlNotLocked;
  }
  --active_readers_;
  OMPMCA_CHECK_RELEASE(check::LockClass::kMrapiRwlock, this);
  const bool wake_writer = active_readers_ == 0 && waiting_writers_ > 0;
  lk.unlock();
  if (wake_writer) {
    writers_cv_.notify_one();
  }
  return Status::kSuccess;
}

Status Rwlock::unlock_write() {
  MutexLock lk(mu_);
  if (retired_) {
    OMPMCA_CHECK_USE_AFTER_DELETE(check::LockClass::kMrapiRwlock, this);
    return Status::kRwlIdInvalid;
  }
  if (!writer_active_) {
    OMPMCA_CHECK_DOUBLE_UNLOCK(check::LockClass::kMrapiRwlock, this);
    return Status::kRwlNotLocked;
  }
  writer_active_ = false;
  OMPMCA_CHECK_RELEASE(check::LockClass::kMrapiRwlock, this);
  const bool wake_writer = waiting_writers_ > 0;
  lk.unlock();
  if (wake_writer) {
    writers_cv_.notify_one();
  } else {
    readers_cv_.notify_all();
  }
  return Status::kSuccess;
}

Status Rwlock::retire() {
  MutexLock lk(mu_);
  if (retired_) return Status::kRwlIdInvalid;
  if (writer_active_ || active_readers_ > 0) return Status::kRwlLocked;
  retired_ = true;
  lk.unlock();
  readers_cv_.notify_all();
  writers_cv_.notify_all();
  return Status::kSuccess;
}

bool Rwlock::retired() const {
  MutexLock lk(mu_);
  return retired_;
}

std::uint32_t Rwlock::readers() const {
  MutexLock lk(mu_);
  return active_readers_;
}

bool Rwlock::write_locked() const {
  MutexLock lk(mu_);
  return writer_active_;
}

std::uint32_t Rwlock::waiting_writers() const {
  MutexLock lk(mu_);
  return waiting_writers_;
}

}  // namespace ompmca::mrapi
