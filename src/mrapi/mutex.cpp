#include "mrapi/mutex.hpp"

#include <chrono>

#include "check/check.hpp"
#include "fault/fault.hpp"
#include "obs/telemetry.hpp"

namespace ompmca::mrapi {

Status Mutex::lock(Timeout timeout_ms, LockKey* key) {
  obs::Probe probe(obs::Hist::kMrapiMutexAcquireNs,
                   obs::trace::Type::kMutexAcquire);
  MutexLock lk(mu_);
  // Contention is decided before lock_locked may block: someone else holds
  // the mutex right now.
  const bool contended =
      depth_ > 0 && owner_ != std::this_thread::get_id() && !retired_;
  const Status s = lock_locked(lk, timeout_ms, key);
  if (s == Status::kSuccess) {
    probe.set_args(contended ? 1 : 0, 0);
  } else {
    probe.drop_event();  // the histogram still times the failed wait
  }
  return s;
}

Status Mutex::trylock(LockKey* key) {
  MutexLock lk(mu_);
  return lock_locked(lk, kTimeoutImmediate, key);
}

Status Mutex::lock_locked(MutexLock& lk, Timeout timeout_ms, LockKey* key) {
  if (key == nullptr) return Status::kInvalidArgument;
  if (retired_) {
    OMPMCA_CHECK_USE_AFTER_DELETE(check::LockClass::kMrapiMutex, this);
    return Status::kMutexIdInvalid;
  }
  const auto self = std::this_thread::get_id();

  if (depth_ > 0 && owner_ == self) {
    if (!attrs_.recursive) {
      // A non-recursive MRAPI mutex reports the relock instead of
      // self-deadlocking.
      return Status::kMutexLocked;
    }
    ++depth_;
    key->value = depth_;
    obs::count(obs::Counter::kMrapiMutexAcquire);
    OMPMCA_CHECK_ACQUIRE(check::LockClass::kMrapiMutex, this, 0);
    return Status::kSuccess;
  }

  // Fault injection simulates a timeout on the blocking acquire path only;
  // trylock (kTimeoutImmediate) keeps its exact semantics so lock-free
  // fast paths stay deterministic under chaos schedules.
  if (timeout_ms != kTimeoutImmediate &&
      OMPMCA_FAULT_POINT(kMrapiMutexAcquire)) {
    return Status::kTimeout;
  }

  // Retirement also satisfies the wait so parked threads can fail fast
  // instead of sleeping on a deleted mutex forever.
  auto available = [this]() OMPMCA_REQUIRES(mu_) {
    return depth_ == 0 || retired_;
  };
  if (depth_ > 0) {
    obs::count(obs::Counter::kMrapiMutexContended);
    if (timeout_ms == kTimeoutImmediate) return Status::kMutexLocked;
    if (timeout_ms == kTimeoutInfinite) {
      lk.wait(cv_, available);
    } else if (!lk.wait_for(cv_, std::chrono::milliseconds(timeout_ms),
                            available)) {
      return Status::kTimeout;
    }
    if (retired_) {
      OMPMCA_CHECK_USE_AFTER_DELETE(check::LockClass::kMrapiMutex, this);
      return Status::kMutexIdInvalid;
    }
  }
  owner_ = self;
  depth_ = 1;
  key->value = 1;
  obs::count(obs::Counter::kMrapiMutexAcquire);
  OMPMCA_CHECK_ACQUIRE(check::LockClass::kMrapiMutex, this, 0);
  return Status::kSuccess;
}

Status Mutex::unlock(const LockKey& key) {
  MutexLock lk(mu_);
  if (retired_) {
    OMPMCA_CHECK_USE_AFTER_DELETE(check::LockClass::kMrapiMutex, this);
    return Status::kMutexIdInvalid;
  }
  if (depth_ == 0) {
    OMPMCA_CHECK_DOUBLE_UNLOCK(check::LockClass::kMrapiMutex, this);
    return Status::kMutexNotLocked;
  }
  if (owner_ != std::this_thread::get_id()) {
    OMPMCA_CHECK_UNLOCK_NOT_OWNER(check::LockClass::kMrapiMutex, this);
    return Status::kMutexKeyInvalid;
  }
  // Recursive acquisitions must be released innermost-first.
  if (key.value != depth_) {
    OMPMCA_CHECK_UNLOCK_NOT_OWNER(check::LockClass::kMrapiMutex, this);
    return Status::kMutexKeyInvalid;
  }
  --depth_;
  OMPMCA_CHECK_RELEASE(check::LockClass::kMrapiMutex, this);
  if (depth_ == 0) {
    owner_ = std::thread::id{};
    lk.unlock();
    cv_.notify_one();
  }
  return Status::kSuccess;
}

Status Mutex::retire() {
  MutexLock lk(mu_);
  if (retired_) return Status::kMutexIdInvalid;
  if (depth_ > 0) return Status::kMutexLocked;
  retired_ = true;
  lk.unlock();
  cv_.notify_all();
  return Status::kSuccess;
}

bool Mutex::retired() const {
  MutexLock lk(mu_);
  return retired_;
}

bool Mutex::locked() const {
  MutexLock lk(mu_);
  return depth_ > 0;
}

}  // namespace ompmca::mrapi
