#include "gomp/pool.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>

#include "check/check.hpp"
#include "common/env.hpp"
#include "common/log.hpp"
#include "common/spin.hpp"
#include "common/time.hpp"
#include "fault/fault.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace ompmca::gomp {

namespace {

/// Cap on distinct clusters the lease scorer tracks (stack arrays, no
/// allocation on the fork path); real boards have a handful.
constexpr unsigned kMaxLeaseClusters = 32;

unsigned lowest_bit(std::uint64_t v) {
  return static_cast<unsigned>(std::countr_zero(v));
}

unsigned popcount64(std::uint64_t v) {
  return static_cast<unsigned>(std::popcount(v));
}

/// Always-on dispatch-protocol guard (release builds included): the misuse
/// it catches was previously a debug-only assert, and the release-build
/// failure mode was *silent* cross-tenant slab corruption — abort loudly
/// instead.
[[noreturn]] void pool_protocol_abort(const char* what) {
  OMPMCA_LOG_ERROR("pool: dispatch protocol violation: %s", what);
  std::abort();
}

/// Launches worker @p index through @p backend with the fault-injection
/// point and the bounded retry-with-backoff policy applied: transient
/// launch failures (fault-injected or real resource exhaustion) are retried
/// a few times with exponential backoff before the failure is surfaced.
Status launch_worker_with_retry(SystemBackend& backend, unsigned index,
                                std::function<void()> fn) {
  // A handful of attempts with exponential backoff: worker launch failures
  // under MRAPI are resource-exhaustion shaped (node table full, thread
  // creation refused) and usually clear once a peer retires.  The caller
  // degrades the team width when even the retries fail.
  constexpr unsigned kLaunchRetries = 4;
  constexpr unsigned kBackoffUs = 32;
  std::uint64_t failures = 0;
  for (unsigned attempt = 0;; ++attempt) {
    Status s;
    if (OMPMCA_FAULT_POINT(kPoolWorkerLaunch)) {
      s = Status::kOutOfResources;
    } else {
      s = backend.launch_thread(index, fn);
    }
    if (ok(s)) {
      if (failures > 0) OMPMCA_FAULT_RECOVERED(kPoolWorkerLaunch, failures);
      return s;
    }
    ++failures;
    if (attempt + 1 >= kLaunchRetries) {
      OMPMCA_FAULT_EXHAUSTED(kPoolWorkerLaunch, failures);
      return s;
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(kBackoffUs << attempt));
  }
}

}  // namespace

#define OMPMCA_POOL_GUARD(cond, what)       \
  do {                                      \
    if (!(cond)) pool_protocol_abort(what); \
  } while (0)

ThreadPool::ThreadPool(SystemBackend& backend, WaitPolicy wait_policy,
                       unsigned max_workers)
    : backend_(backend),
      wait_policy_(wait_policy),
      can_spin_(std::thread::hardware_concurrency() > 1),
      max_workers_(std::min(max_workers, kMaxWorkers)),
      slots_free_((1u << kMaxSlots) - 1),
      workers_free_(max_workers_ >= 64 ? ~std::uint64_t{0}
                                       : (std::uint64_t{1} << max_workers_) - 1),
      worker_cluster_(max_workers_, 0) {
  // Bounded lease wait before a contended master degrades width instead of
  // blocking; 0 disables waiting entirely.
  lease_wait_ns_ = 20'000;
  if (auto ns = env_long_clamped("OMPMCA_LEASE_WAIT_NS", 0, 1'000'000'000L)) {
    lease_wait_ns_ = static_cast<std::uint64_t>(*ns);
  }
  // Fixed-size bell bank: workers capture their Bell& at launch, and
  // masters index it concurrently, so it must never reallocate.
  bells_.reserve(max_workers_);
  for (unsigned i = 0; i < max_workers_; ++i) {
    bells_.push_back(std::make_unique<Bell>());
  }
  obs::monitor::register_stall_source(this, &ThreadPool::stall_probe);
}

ThreadPool::~ThreadPool() {
  // Before any teardown: unregister blocks until an in-progress probe
  // returns, so the monitor can never walk a dying pool's slots.
  obs::monitor::unregister_stall_source(this);
  // seq_cst: pairs with each bell's sleeping/mailbox Dekker protocol — the
  // exit flag must be globally ordered against the workers' park sequence.
  exit_.store(true, std::memory_order_seq_cst);
  for (auto& bell : bells_) {
    // Empty critical section: flushes out a worker caught between its
    // predicate check and its actual sleep (lost-wakeup guard).
    { MutexLock lk(bell->mu); }
    bell->cv.notify_one();
  }
  const std::uint64_t launched = launched_mask_.load(std::memory_order_relaxed);
  for (unsigned i = 0; i < max_workers_; ++i) {
    if ((launched & (std::uint64_t{1} << i)) != 0) {
      (void)backend_.join_thread(i);  // destructor: nowhere to report failure
    }
  }
  if (slab_mem_ != nullptr) {
    for (unsigned s = 0; s < kMaxSlots; ++s) slots_[s].~DispatchSlot();
    slab_mem_->release(slab_cluster_, slots_);
  }
}

void ThreadPool::set_worker_clusters(std::vector<unsigned> clusters,
                                     unsigned num_clusters) {
  assert(workers_launched() == 0 && "worker-cluster map after workers started");
  num_clusters_ = std::clamp(num_clusters, 1u, kMaxLeaseClusters);
  clusters.resize(max_workers_, 0);
  for (unsigned& c : clusters) c = std::min(c, num_clusters_ - 1);
  worker_cluster_ = std::move(clusters);
}

void ThreadPool::home_slab(ClusterMemory* mem, unsigned cluster) {
  assert(workers_launched() == 0 && "home_slab after workers started");
  if (mem == nullptr || slab_mem_ != nullptr) return;
  void* p = mem->acquire(cluster, sizeof(DispatchSlot) * kMaxSlots);
  if (p == nullptr) return;
  auto* bank = static_cast<DispatchSlot*>(p);
  for (unsigned s = 0; s < kMaxSlots; ++s) ::new (&bank[s]) DispatchSlot();
  slots_ = bank;
  slab_mem_ = mem;
  slab_cluster_ = cluster;
}

// --- ClusterSlabCache --------------------------------------------------------

ClusterSlabCache::~ClusterSlabCache() {
  MutexLock lk(mu_);
  for (auto& [cluster, slabs] : cache_) {
    for (Slab& s : slabs) backend_.deallocate(s.p);
  }
  // live_ should be empty here (every barrier retires before the runtime);
  // anything left is the caller's leak, not ours to free blind.
}

void* ClusterSlabCache::acquire(unsigned cluster, std::size_t bytes) {
  MutexLock lk(mu_);
  auto it = cache_.find(cluster);
  if (it != cache_.end()) {
    auto& slabs = it->second;
    for (std::size_t i = 0; i < slabs.size(); ++i) {
      if (slabs[i].bytes >= bytes) {
        void* p = slabs[i].p;
        live_[p] = slabs[i].bytes;
        slabs[i] = slabs.back();
        slabs.pop_back();
        return p;
      }
    }
  }
  void* p = backend_.allocate_on_cluster(bytes, cluster);
  if (p != nullptr) live_[p] = bytes;
  return p;
}

void ClusterSlabCache::release(unsigned cluster, void* p) {
  if (p == nullptr) return;
  MutexLock lk(mu_);
  auto it = live_.find(p);
  if (it == live_.end()) return;
  cache_[cluster].push_back(Slab{p, it->second});
  live_.erase(it);
}

// --- dispatch ----------------------------------------------------------------

ThreadPool::Dispatch::~Dispatch() {
  // Hard guard in every build: a Dispatch destroyed mid-region would free
  // its slot and lease while workers still reference them — the silent
  // cross-tenant corruption this protocol exists to kill.
  OMPMCA_POOL_GUARD(slot_ == -1 && !started_,
                    "Dispatch destroyed while its region is in flight");
}

int ThreadPool::spin_budget() const {
  // Active waits burn a long Backoff budget before sleeping (threads own a
  // HW thread on the board).  Passive waits stay strictly below Backoff's
  // yield threshold: a few dozen relaxes catch back-to-back regions, then
  // the worker parks without ever calling sched_yield — on an
  // oversubscribed host yield-spinning only churns the run queue that the
  // master needs.  A single-CPU host never spins at all: the mailbox cannot
  // change while we hold the only core.
  if (wait_policy_ == WaitPolicy::kActive) return 20000;
  return can_spin_ ? 48 : 0;
}

void ThreadPool::ring(Bell& bell) {
  // Targeted ring: only this dispatch's leased workers, and among those
  // only the ones that actually sleep — a worker still inside its spin
  // window costs no syscall at all.  Dekker pair per bell: the master's
  // seq_cst mailbox store is ordered before this sleeping load; the worker
  // stores sleeping (seq_cst) before re-checking its mailbox.  Either we
  // see the sleeper, or it sees the new word — never neither.
  // seq_cst: the Dekker load of the pair described above.
  if (bell.sleeping.load(std::memory_order_seq_cst)) {
    // Empty critical section: a worker between its predicate check and its
    // actual sleep holds bell.mu, so this lock flushes it out before the
    // notify — the classic lost-wakeup guard.
    { MutexLock lk(bell.mu); }
    bell.cv.notify_one();
  }
}

void ThreadPool::worker_loop(Bell& bell, std::uint64_t seen) {
  for (;;) {
    std::uint64_t a = bell.assign.load(std::memory_order_acquire);
    if (a == seen && !exit_.load(std::memory_order_relaxed)) {
      Backoff backoff;
      int budget = spin_budget();
      while ((a = bell.assign.load(std::memory_order_acquire)) == seen &&
             !exit_.load(std::memory_order_relaxed) && budget-- > 0) {
        backoff.pause();
      }
      if (a == seen && !exit_.load(std::memory_order_relaxed)) {
        // seq_cst: worker half of the Dekker pair — sleeping store ordered
        // before the mailbox/exit re-check; the master's mailbox store is
        // ordered before its sleeping load.
        bell.sleeping.store(true, std::memory_order_seq_cst);
        {
          MutexLock lk(bell.mu);
          lk.wait(bell.cv, [&] {
            // seq_cst: the re-check half of the Dekker pair above.
            return bell.assign.load(std::memory_order_seq_cst) != seen ||
                   exit_.load(std::memory_order_seq_cst);
          });
        }
        bell.sleeping.store(false, std::memory_order_relaxed);
        a = bell.assign.load(std::memory_order_acquire);
      }
    }
    if (exit_.load(std::memory_order_acquire)) return;
    seen = a;
    // A leased worker's mailbox changes at most once per lease: the next
    // master can only write it after this worker's join retired the lease.
    // So every observed word is exactly one region to serve.
    DispatchSlot& slot = slots_[assign_slot(a)];
    const unsigned tid = assign_tid(a);
    if (slot.dispatch_start_ns != 0) {
      // dispatch_start_ns is armed by start_team when telemetry or
      // tracing is on; both consumers share the single clock read.
      const std::uint64_t now = monotonic_nanos();
      if (obs::enabled()) {
        obs::count(obs::Counter::kGompPoolDispatch);
        obs::record(obs::Hist::kGompDoorbellWakeNs,
                    now - slot.dispatch_start_ns);
      }
      // Flow-arrow target: fork_ring (master) -> worker_wake, keyed by
      // the global dispatch sequence the mailbox word carries.
      obs::trace::instant_at(obs::trace::Type::kWorkerWake, now,
                             assign_seq(a));
    }
    // Heartbeat parity for the stall watchdog: capture armed() once so
    // both bumps happen or neither — a monitor started or stopped
    // mid-region must not leave the epoch odd forever.
    const bool hb = obs::monitor::armed();
    if (hb) bell.heartbeat.fetch_add(1, std::memory_order_relaxed);
    {
      obs::trace::Span work_span(obs::trace::Type::kWorkerWork,
                                 assign_seq(a));
      slot.work(tid);
    }
    if (hb) bell.heartbeat.fetch_add(1, std::memory_order_relaxed);
    // seq_cst: Dekker pair with wait_team — the decrement is ordered
    // before the join_waiting load, the master's join_waiting store
    // before its active re-check.  Only the last finisher — and only
    // when the master actually sleeps — pays for a notify.
    if (slot.active.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        slot.join_waiting.load(std::memory_order_seq_cst)) {
      { MutexLock lk(slot.done_mu); }
      slot.done_cv.notify_one();
    }
  }
}

int ThreadPool::claim_slot() {
  // acquire on success: pairs with release_slot's release fetch_or, so
  // this master's slot writes happen-after the previous owner's teardown.
  std::uint32_t free = slots_free_.load(std::memory_order_acquire);
  while (free != 0) {
    const int s = std::countr_zero(free);
    if (slots_free_.compare_exchange_weak(free, free & ~(1u << s),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      return s;
    }
  }
  return -1;
}

void ThreadPool::release_slot(int slot) {
  // release: publishes this region's teardown to the slot's next claimant.
  slots_free_.fetch_or(1u << slot, std::memory_order_release);
}

std::uint64_t ThreadPool::pick_bits(std::uint64_t avail, unsigned wanted,
                                    unsigned preferred) const {
  // Affinity order: the master's preferred cluster first (the workers that
  // share its L2), then the remaining clusters by descending free
  // population — least-loaded spill, so concurrent masters spread out
  // instead of piling onto one cluster's leftovers.
  std::uint64_t pick = 0;
  unsigned got = 0;
  auto take = [&](unsigned cluster) {
    std::uint64_t rest = avail & ~pick;
    while (rest != 0 && got < wanted) {
      const unsigned i = lowest_bit(rest);
      rest &= rest - 1;
      if (worker_cluster_[i] == cluster) {
        pick |= std::uint64_t{1} << i;
        ++got;
      }
    }
  };
  if (preferred < num_clusters_) take(preferred);
  if (got < wanted && num_clusters_ > 1) {
    unsigned counts[kMaxLeaseClusters] = {};
    std::uint64_t rest = avail & ~pick;
    while (rest != 0) {
      const unsigned i = lowest_bit(rest);
      rest &= rest - 1;
      ++counts[worker_cluster_[i]];
    }
    while (got < wanted) {
      unsigned best = num_clusters_;
      unsigned best_count = 0;
      for (unsigned c = 0; c < num_clusters_; ++c) {
        if (counts[c] > best_count) {
          best = c;
          best_count = counts[c];
        }
      }
      if (best == num_clusters_) break;  // nothing left anywhere
      counts[best] = 0;
      take(best);
    }
  } else if (got < wanted) {
    take(0);
  }
  return pick;
}

std::uint64_t ThreadPool::try_lease(unsigned wanted, unsigned preferred) {
  if (wanted == 0) return 0;
  for (;;) {
    // acquire: pairs with release_lease, so a re-leased worker's mailbox
    // write happens-after its previous master's join retired it.
    std::uint64_t avail = workers_free_.load(std::memory_order_acquire);
    if (avail == 0) return 0;
    const std::uint64_t pick = pick_bits(avail, wanted, preferred);
    if (pick == 0) return 0;
    if (workers_free_.compare_exchange_weak(avail, avail & ~pick,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      return pick;
    }
  }
}

std::uint64_t ThreadPool::lease_workers(unsigned wanted, unsigned preferred) {
  std::uint64_t lease = try_lease(wanted, preferred);
  unsigned got = popcount64(lease);
  if (got < wanted && lease_wait_ns_ > 0) {
    // Bounded wait-then-degrade: a short grace window lets a peer master's
    // join return its lease (server-shaped regions are brief), but a master
    // never parks here — degrading width keeps this tenant's dispatch
    // latency bounded under sustained oversubscription.  Backoff yields
    // past its spin threshold, which is exactly what lets the peer finish
    // on an oversubscribed host.
    const std::uint64_t t0 = monotonic_nanos();
    Backoff backoff;
    do {
      backoff.pause();
      lease |= try_lease(wanted - got, preferred);
      got = popcount64(lease);
    } while (got < wanted && monotonic_nanos() - t0 < lease_wait_ns_);
    if (obs::enabled()) {
      const std::uint64_t waited = monotonic_nanos() - t0;
      obs::record(obs::Hist::kGompLeaseWaitNs, waited);
      obs::tenant::add_lease_wait(waited);  // attributed to this master
    }
  }
  if (got < wanted) obs::count(obs::Counter::kGompLeaseDegraded);
  return lease;
}

void ThreadPool::release_lease(std::uint64_t lease) {
  if (lease == 0) return;
  // release: pairs with try_lease's acquire CAS (worker-reuse ordering).
  workers_free_.fetch_or(lease, std::memory_order_release);
}

std::uint64_t ThreadPool::ensure_launched(std::uint64_t lease) {
  std::uint64_t pending =
      lease & ~launched_mask_.load(std::memory_order_relaxed);
  while (pending != 0) {
    const unsigned index = lowest_bit(pending);
    pending &= pending - 1;
    Bell* bell = bells_[index].get();
    // Capture the mailbox word *before* the launch: the worker's first
    // wait must compare against a value predating any assignment this
    // dispatch will store, or it could sleep through its own first region.
    const std::uint64_t cur = bell->assign.load(std::memory_order_relaxed);
    Status s = launch_worker_with_retry(backend_, index, [this, bell, cur] {
      worker_loop(*bell, cur);
    });
    if (!ok(s)) {
      OMPMCA_LOG_ERROR("pool: failed to launch worker %u: %s", index,
                       std::string(to_string(s)).c_str());
      obs::count(obs::Counter::kGompTeamDegraded);
      lease &= ~(std::uint64_t{1} << index);
      release_lease(std::uint64_t{1} << index);
      continue;
    }
    // relaxed: only the bit's current lease holder launches it, so the
    // mask is single-writer per bit and only ever grows.
    launched_mask_.fetch_or(std::uint64_t{1} << index,
                            std::memory_order_relaxed);
    workers_launched_.fetch_add(1, std::memory_order_relaxed);
  }
  return lease;
}

unsigned ThreadPool::prepare(Dispatch& d, unsigned nthreads,
                             unsigned preferred_cluster) {
  OMPMCA_POOL_GUARD(d.slot_ == -1 && !d.started_,
                    "prepare() on a dispatch already in flight");
  d.pool_ = this;
  d.lease_ = 0;
  d.width_ = 1;
  if (nthreads <= 1) return 1;

  const int slot = claim_slot();
  if (slot < 0) {
    // All kMaxSlots regions already in flight: degrade this tenant to a
    // serialized region rather than block it on a stranger's join.
    obs::count(obs::Counter::kGompLeaseDegraded);
    return 1;
  }
  d.slot_ = slot;
  // in_flight_ is the multiplex witness: a second region dispatched while
  // another master's is still running is exactly the state the old
  // single-slab pool corrupted.
  if (in_flight_.fetch_add(1, std::memory_order_relaxed) > 0) {
    obs::count(obs::Counter::kGompTeamMultiplexed);
  }

  const unsigned extra = std::min(nthreads - 1, max_workers_);
  const std::uint64_t lease =
      ensure_launched(lease_workers(extra, preferred_cluster));
  d.lease_ = lease;
  d.width_ = 1 + popcount64(lease);
  return d.width_;
}

void ThreadPool::start_team(Dispatch& d, unsigned nthreads,
                            FunctionRef<void(unsigned)> fn) {
  OMPMCA_POOL_GUARD(d.pool_ == this && !d.started_,
                    "start_team() without a matching prepare()");
  OMPMCA_POOL_GUARD(nthreads <= d.width_,
                    "start_team() wider than the prepared lease");
  d.started_ = true;
  if (d.slot_ < 0) return;
  DispatchSlot& slot = slots_[static_cast<unsigned>(d.slot_)];
  const unsigned extra = nthreads > 0 ? nthreads - 1 : 0;

  // Pseudo-lock held by the master across the fork..join window: it gives
  // the order graph an edge from every lock held at start_team to the pool,
  // and from the pool to every lock acquired before wait_team — so taking a
  // region-internal lock around the whole region in one place and inside it
  // in another shows up as an inversion.  Keyed per slot so concurrent
  // masters model distinct locks, not contention on one.
  OMPMCA_CHECK_ACQUIRE(check::LockClass::kGompPool, &slot, 0);
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  slot.work = fn;
  slot.seq = seq;
  slot.dispatch_start_ns =
      (obs::enabled() || obs::trace::enabled()) ? monotonic_nanos() : 0;
  slot.active.store(extra, std::memory_order_relaxed);
  if (obs::monitor::armed()) {
    // Watchdog arm: mirrors first, then the start timestamp (release,
    // paired with the probe's acquire) so a probe that sees the region
    // in flight sees *this* region's identity, not the previous owner's.
    slot.mon_seq.store(seq, std::memory_order_relaxed);
    slot.mon_master.store(obs::tenant::current_id(), std::memory_order_relaxed);
    slot.mon_lease.store(d.lease_, std::memory_order_relaxed);
    slot.mon_start_ns.store(
        slot.dispatch_start_ns != 0 ? slot.dispatch_start_ns
                                    : monotonic_nanos(),
        std::memory_order_release);
  }

  // Two-phase ring, mirroring the old ticket-then-wake split: store every
  // participant's assignment word, then run the Dekker sleeping checks.
  // The caller may start narrower than prepared; surplus leased workers
  // stay parked.
  std::uint64_t rest = d.lease_;
  std::uint64_t to_ring = 0;
  for (unsigned tid = 1; tid <= extra; ++tid) {
    const unsigned index = lowest_bit(rest);
    rest &= rest - 1;
    // seq_cst: the doorbell ring itself — master half of the per-bell
    // Dekker pair (mailbox store ordered before the sleeping load in the
    // ring pass below).
    bells_[index]->assign.store(
        pack_assign(seq, static_cast<unsigned>(d.slot_), tid),
        std::memory_order_seq_cst);
    to_ring |= std::uint64_t{1} << index;
  }
  if (slot.dispatch_start_ns != 0 && extra > 0) {
    // The mailbox stores above ARE the doorbell ring; stamp them with the
    // same timestamp the wake-latency probes use so flow arrows line up.
    obs::trace::instant_at(obs::trace::Type::kForkRing,
                           slot.dispatch_start_ns, seq, extra + 1);
  }
  while (to_ring != 0) {
    const unsigned index = lowest_bit(to_ring);
    to_ring &= to_ring - 1;
    ring(*bells_[index]);
  }
}

void ThreadPool::wait_team(Dispatch& d, FunctionRef<void()> joined) {
  OMPMCA_POOL_GUARD(d.pool_ == this && d.started_,
                    "wait_team() without a matching start_team()");
  if (d.slot_ >= 0) {
    DispatchSlot& slot = slots_[static_cast<unsigned>(d.slot_)];
    if (slot.active.load(std::memory_order_acquire) != 0) {
      obs::trace::Span join_span(obs::trace::Type::kJoinWait, slot.seq);
      // The region-ending barrier already synchronised the team, so only
      // the workers' post-barrier teardown is outstanding.  Relax-spin
      // briefly (no yields), then block on the slot's done_cv — the spin
      // catches the common case on real cores, the block keeps an
      // oversubscribed host from burning the timeslice the last worker
      // needs.
      const int join_spins = can_spin_ ? 256 : 0;
      for (int i = 0; i < join_spins; ++i) {
        if (slot.active.load(std::memory_order_acquire) == 0) break;
        cpu_relax();
      }
      if (slot.active.load(std::memory_order_acquire) != 0) {
        // seq_cst: master half of the join Dekker pair — join_waiting
        // store ordered before the active re-check in the wait predicate.
        slot.join_waiting.store(true, std::memory_order_seq_cst);
        {
          MutexLock lk(slot.done_mu);
          lk.wait(slot.done_cv, [&] {
            // seq_cst: the re-check half of the join Dekker pair.
            return slot.active.load(std::memory_order_seq_cst) == 0;
          });
        }
        slot.join_waiting.store(false, std::memory_order_relaxed);
      }
    }
    if (joined) joined();
    // Watchdog disarm — gated on a relaxed load, not on armed(), so a
    // monitor stopped mid-region still gets its stale start cleared (a
    // later monitor would otherwise flag a long-gone region), while an
    // unmonitored run pays exactly one relaxed load here.
    if (slot.mon_start_ns.load(std::memory_order_relaxed) != 0) {
      slot.mon_start_ns.store(0, std::memory_order_relaxed);
    }
    OMPMCA_CHECK_RELEASE(check::LockClass::kGompPool, &slot);
    // Teardown order: lease first (the workers have retired — their
    // decrements are what the join above observed), then the multiplex
    // witness, then the slot, whose release fetch_or publishes everything
    // to the next claimant.
    release_lease(d.lease_);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    release_slot(d.slot_);
  } else if (joined) {
    joined();
  }
  d.lease_ = 0;
  d.slot_ = -1;
  d.started_ = false;
  d.width_ = 1;
}

void ThreadPool::stall_probe(void* ctx, std::uint64_t now_ns,
                             std::uint64_t stall_ns,
                             std::vector<obs::monitor::StallRegion>& out) {
  auto* pool = static_cast<ThreadPool*>(ctx);
  for (unsigned s = 0; s < kMaxSlots; ++s) {
    DispatchSlot& slot = pool->slots_[s];
    // acquire: pairs with start_team's release arm store, so a nonzero
    // start guarantees the identity mirrors below belong to this region.
    const std::uint64_t start =
        slot.mon_start_ns.load(std::memory_order_acquire);
    if (start == 0 || now_ns < start || now_ns - start < stall_ns) continue;
    obs::monitor::StallRegion r;
    r.seq = slot.mon_seq.load(std::memory_order_relaxed);
    r.slot = s;
    r.start_ns = start;
    r.master = slot.mon_master.load(std::memory_order_relaxed);
    r.workers = slot.mon_lease.load(std::memory_order_relaxed);
    r.active = slot.active.load(std::memory_order_relaxed);
    std::uint64_t rest = r.workers;
    while (rest != 0) {
      const unsigned i = lowest_bit(rest);
      rest &= rest - 1;
      // Odd epoch = inside the region body right now.
      if ((pool->bells_[i]->heartbeat.load(std::memory_order_relaxed) & 1) !=
          0) {
        r.busy |= std::uint64_t{1} << i;
      }
    }
    out.push_back(r);
  }
}

void ThreadPool::run(unsigned nthreads, FunctionRef<void(unsigned)> fn) {
  Dispatch d;
  const unsigned actual = prepare(d, nthreads);
  start_team(d, actual, fn);
  fn(0);
  wait_team(d);
}

}  // namespace ompmca::gomp
