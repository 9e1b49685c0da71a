// Worker-thread pool with multiplexed (per-dispatch mailbox) team dispatch.
//
// Workers are launched once through the backend and parked between regions
// — what libGOMP does, and what keeps the EPCC PARALLEL overhead sane.
// Every region, top-level or nested, dispatches through this one pool: a
// nested master leases its workers exactly as a tenant master does.  The
// literal lifecycle §5B.1 describes (node created at fork, finalized at
// join) lives in bench/ablation_node_mgmt, which measures it against the
// pool.
//
// Why multiplexed: the original pool had exactly one team slab, one ticket
// doorbell and one join, so two application threads forking concurrently
// (the multi-tenant server shape) silently corrupted each other's region.
// Now every in-flight region owns a DispatchSlot, and masters *lease*
// disjoint worker subsets from a shared free bitmap, so N masters partition
// the pool instead of sharing one epoch.
//
// Dispatch protocol (the hot path):
//  * Region entry (prepare): the master claims a DispatchSlot (slot bitmap
//    CAS) and leases workers from the free bitmap — cluster-affine first
//    (the caller's preferred cluster), then least-loaded by free count.
//    Under pressure the lease waits a bounded OMPMCA_LEASE_WAIT_NS and then
//    degrades the team width rather than blocking (gomp.lease_degraded /
//    gomp.lease_wait_ns account for it); a second region in flight counts
//    gomp.team_multiplexed.
//  * The master publishes the region's work descriptor in its slot, then
//    rings each leased worker's mailbox: one seq_cst store of the worker's
//    assignment word, which packs [seq:48][slot:8][tid:8] — a woken worker
//    knows *which* slot to read and which tid it runs as, so concurrent
//    masters never touch each other's descriptors.  The global seq makes
//    every assignment distinct (no ABA against a parked worker's last
//    word).
//  * Workers spin-then-block on their own mailbox (spin budget from
//    WaitPolicy; the passive budget stays below Backoff's yield threshold
//    so an oversubscribed host never churns the scheduler).  A worker that
//    must sleep parks on its cache-line-padded bell and advertises it in
//    bell.sleeping, so a master wakes exactly the sleeping participants.
//    Each bell's sleeping/assignment pair is a Dekker-style store-then-load
//    on both sides (all seq_cst), so a ring can never be missed.
//  * Join: each participant decrements the slot's active count; the master
//    relax-spins briefly — the region-ending team barrier has already
//    synchronised the team, so only post-barrier teardown is outstanding —
//    then falls back to blocking on the slot's done_cv (the last worker
//    notifies only when join_waiting says the master actually sleeps).
//    wait_team then returns the lease and the slot to their bitmaps.
//  * Runtime keeps one hot Team per slot (team.hpp): the claimed slot
//    index selects it, and wait_team's `joined` hook finishes it before the
//    slot is released, so the next claimant re-arms a quiescent team.
//  * Misusing the Dispatch handle (start before prepare, double start,
//    destroying an in-flight dispatch) aborts in every build — the failure
//    it replaces was silent cross-tenant slab corruption, which a
//    debug-only assert cannot be trusted to catch in production.
//
// Under the MCA backend every worker is an MRAPI node: the pool calls
// SystemBackend::launch_thread, which routes to the Listing-2
// mrapi_thread_create extension.  The worker-index bitmap doubles as the
// node-id allocator, so concurrent masters can never collide on a node id.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/align.hpp"
#include "common/annotations.hpp"
#include "common/locks.hpp"
#include "common/function_ref.hpp"
#include "gomp/backend.hpp"
#include "gomp/barrier.hpp"
#include "gomp/icv.hpp"
#include "obs/monitor.hpp"

namespace ompmca::gomp {

/// Worker lifecycle: the pool's workers persist, parked between regions.
enum class PoolMode { kPersistent };

/// ClusterMemory over SystemBackend::allocate_on_cluster with a free-list
/// cache: the team barrier allocates one ClusterTier per occupied
/// cluster per team build, and a slot's hot team is rebuilt whenever the
/// region shape changes, so released blocks are kept per cluster and reused
/// instead of round-tripping through the backend (an MRAPI segment create
/// under the MCA backend) on every rebuild.  acquire() returns nullptr when
/// the backend cannot place the block — callers fall back to the process
/// heap.
class ClusterSlabCache final : public ClusterMemory {
 public:
  explicit ClusterSlabCache(SystemBackend& backend) : backend_(backend) {}
  ~ClusterSlabCache() override;

  void* acquire(unsigned cluster, std::size_t bytes) override
      OMPMCA_EXCLUDES(mu_);
  void release(unsigned cluster, void* p) override OMPMCA_EXCLUDES(mu_);

 private:
  struct Slab {
    void* p = nullptr;
    std::size_t bytes = 0;
  };

  SystemBackend& backend_;
  CapMutex mu_;
  // cluster -> free slabs
  std::map<unsigned, std::vector<Slab>> cache_ OMPMCA_GUARDED_BY(mu_);
  // outstanding sizes
  std::map<void*, std::size_t> live_ OMPMCA_GUARDED_BY(mu_);
};

class ThreadPool {
 public:
  /// Worker-lease capacity ceiling: the free set is one 64-bit bitmap.
  static constexpr unsigned kMaxWorkers = 64;
  /// Concurrently in-flight regions; claims beyond this degrade to width 1.
  static constexpr unsigned kMaxSlots = 16;

  /// One master's handle on one in-flight region: the claimed dispatch
  /// slot and the leased worker set.  Strictly prepare -> start_team ->
  /// wait_team; any other sequence — including destruction mid-flight — is
  /// a hard protocol violation that aborts in every build.
  class Dispatch {
   public:
    Dispatch() = default;
    ~Dispatch();
    Dispatch(const Dispatch&) = delete;
    Dispatch& operator=(const Dispatch&) = delete;

    /// Width prepare() granted (1 = no workers leased).
    unsigned width() const { return width_; }
    /// The claimed dispatch slot (-1 when none): exclusive to this master
    /// until wait_team, so per-slot state needs no lock of its own.
    int slot() const { return slot_; }

   private:
    friend class ThreadPool;
    ThreadPool* pool_ = nullptr;
    int slot_ = -1;             // claimed DispatchSlot index; -1 = idle
    std::uint64_t lease_ = 0;   // leased worker-index bitmap
    unsigned width_ = 1;
    bool started_ = false;
  };

  ThreadPool(SystemBackend& backend,
             WaitPolicy wait_policy = WaitPolicy::kPassive,
             unsigned max_workers = kMaxWorkers);
  ~ThreadPool();

  /// Region entry, phase 1: claims a dispatch slot and leases up to
  /// @p nthreads - 1 workers into @p d (parked on their mailboxes,
  /// launched on first lease), preferring @p preferred_cluster and
  /// spilling least-loaded-first.  Returns the width actually achievable:
  /// launch failures and lease pressure degrade the team instead of
  /// blocking or indexing out of bounds later.
  unsigned prepare(Dispatch& d, unsigned nthreads,
                   unsigned preferred_cluster = 0);

  /// Region entry, phase 2: publishes @p fn in @p d's slot and rings the
  /// leased workers' mailboxes; they run fn(1..width-1).  @p nthreads must
  /// not exceed the width prepare() returned; @p fn must stay alive until
  /// wait_team() returns.  The caller then runs fn(0) itself.
  void start_team(Dispatch& d, unsigned nthreads,
                  FunctionRef<void(unsigned)> fn);

  /// Region exit: joins @p d's participants, runs @p joined (when set) —
  /// the last point at which the master still owns the slot — then returns
  /// the lease and the slot so other masters can claim them.
  void wait_team(Dispatch& d, FunctionRef<void()> joined = {});

  /// Convenience: prepare + start_team + fn(0) + wait_team.  The team may
  /// be narrower than requested if workers failed to launch.
  void run(unsigned nthreads, FunctionRef<void(unsigned)> fn);

  unsigned workers_launched() const {
    return workers_launched_.load(std::memory_order_relaxed);
  }

  /// Installs the worker-index -> hardware-cluster map the lease policy
  /// scores candidates with (identity-cluster 0 for every worker until
  /// set).  Call before the first region.
  void set_worker_clusters(std::vector<unsigned> clusters,
                           unsigned num_clusters);

  /// Re-homes the dispatch-slot bank in @p cluster's memory domain via
  /// @p mem (the masters' descriptors are the fork-path hot stores).  Must
  /// be called before the first region: workers read slots with no
  /// synchronisation beyond their mailbox word.  No-op when @p mem cannot
  /// place the block; the inline bank keeps serving.
  void home_slab(ClusterMemory* mem, unsigned cluster);

  /// True when the slot bank lives in cluster memory (tests/telemetry).
  bool slab_cluster_homed() const { return slab_mem_ != nullptr; }

 private:
  // Mailbox layout: [seq:48][slot:8][tid:8].  The slot byte routes the
  // worker to its region's descriptor, the tid byte is its rank in that
  // team, and the globally unique seq makes every assignment distinct from
  // whatever word the worker parked on (ABA guard).
  static constexpr unsigned kTidBits = 8;
  static constexpr unsigned kSlotBits = 8;
  static constexpr std::uint64_t kTidMask = (1u << kTidBits) - 1;
  static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;
  static unsigned assign_tid(std::uint64_t a) {
    return static_cast<unsigned>(a & kTidMask);
  }
  static unsigned assign_slot(std::uint64_t a) {
    return static_cast<unsigned>((a >> kTidBits) & kSlotMask);
  }
  static std::uint64_t assign_seq(std::uint64_t a) {
    return a >> (kTidBits + kSlotBits);
  }
  static std::uint64_t pack_assign(std::uint64_t seq, unsigned slot,
                                   unsigned tid) {
    return (seq << (kTidBits + kSlotBits)) |
           (static_cast<std::uint64_t>(slot) << kTidBits) | tid;
  }

  // One in-flight region's descriptor + join state.  The non-atomic fields
  // are master-written before the mailbox rings and read only by that
  // dispatch's participants, whose completion the master awaits before
  // releasing the slot — so the mailbox's seq_cst store/acquire load pair
  // is the only synchronisation they need, and the slot-bitmap
  // release/acquire pair covers reuse by the next master.
  struct alignas(kCacheLineBytes) DispatchSlot {
    FunctionRef<void(unsigned)> work;
    std::uint64_t dispatch_start_ns = 0;  // telemetry; 0 = untimed
    std::uint64_t seq = 0;                // trace flow-arrow key
    std::atomic<unsigned> active{0};
    std::atomic<bool> join_waiting{false};
    // Watchdog mirrors, written only when the monitor is armed.  The
    // monitor thread reads them with no other synchronisation, so unlike
    // the fields above they must be atomic: mon_start_ns is the arm flag
    // (0 = not in flight) and is stored last/cleared first, release/acquire
    // paired with the probe so the other mirrors are visible when it reads
    // a nonzero start.
    std::atomic<std::uint64_t> mon_start_ns{0};
    std::atomic<std::uint64_t> mon_seq{0};
    std::atomic<std::uint64_t> mon_master{0};  // tenant id
    std::atomic<std::uint64_t> mon_lease{0};   // leased worker bitmap
    // Parking-only (guards nothing): the join state is active/join_waiting.
    CapMutex done_mu;
    std::condition_variable done_cv;
  };

  // Per-worker mailbox + parking spot.  The assignment word carries the
  // information; the bell only carries the *sleeping* worker, so rings stay
  // targeted.  The mutex guards no data — it exists purely to park on (the
  // classic cv-parking shape); all state lives in the atomics.
  struct alignas(kCacheLineBytes) Bell {
    CapMutex mu;
    std::condition_variable cv;
    std::atomic<bool> sleeping{false};
    std::atomic<std::uint64_t> assign{0};
    // Watchdog heartbeat epoch, bumped (monitor armed only) entering and
    // leaving the region body: odd = inside slot.work right now.  Lives on
    // the worker's own cache line, so the bumps never contend.
    std::atomic<std::uint64_t> heartbeat{0};
  };

  int spin_budget() const;
  // bell is passed by reference (captured at launch) so workers never
  // index the bells_ array on the hot path.  A worker's pool index is
  // irrelevant inside the loop: its team rank arrives in the mailbox word.
  void worker_loop(Bell& bell, std::uint64_t seen);
  void ring(Bell& bell);

  /// The monitor's stall probe (runs on the sampler thread): appends every
  /// slot whose mon_start_ns is older than @p stall_ns, with the leased
  /// workers' heartbeat parity folded into StallRegion::busy.
  static void stall_probe(void* ctx, std::uint64_t now_ns,
                          std::uint64_t stall_ns,
                          std::vector<obs::monitor::StallRegion>& out);

  int claim_slot();
  void release_slot(int slot);
  /// Picks up to @p wanted bits of @p avail, @p preferred cluster first,
  /// then clusters by descending free population.
  std::uint64_t pick_bits(std::uint64_t avail, unsigned wanted,
                          unsigned preferred) const;
  /// CAS-claims up to @p wanted workers from the free set (no waiting).
  std::uint64_t try_lease(unsigned wanted, unsigned preferred);
  /// try_lease plus the bounded OMPMCA_LEASE_WAIT_NS wait-then-degrade.
  std::uint64_t lease_workers(unsigned wanted, unsigned preferred);
  void release_lease(std::uint64_t lease);
  /// Makes sure every leased worker's thread exists, dropping (and
  /// freeing) the ones whose launch failed.  Returns the surviving lease.
  std::uint64_t ensure_launched(std::uint64_t lease);

  SystemBackend& backend_;
  WaitPolicy wait_policy_;
  // Spinning only pays when the peer can make progress on another core;
  // on a single-CPU host every pause is stolen from the thread being
  // waited for, so all spin windows collapse to zero there.
  bool can_spin_;
  unsigned max_workers_;
  std::uint64_t lease_wait_ns_;

  // --- dispatch slots ---------------------------------------------------------
  alignas(kCacheLineBytes) std::atomic<std::uint32_t> slots_free_;
  DispatchSlot slots_inline_[kMaxSlots];
  // Points at slots_inline_ unless home_slab moved the bank into cluster
  // memory.
  DispatchSlot* slots_ = slots_inline_;
  ClusterMemory* slab_mem_ = nullptr;
  unsigned slab_cluster_ = 0;
  std::atomic<std::uint64_t> seq_{0};  // global dispatch sequence
  std::atomic<unsigned> in_flight_{0};
  std::atomic<bool> exit_{false};

  // --- worker leasing ---------------------------------------------------------
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> workers_free_;
  // Workers whose backend thread is running.  Launches are one-per-bit:
  // only the bit's lease holder launches it, so the mask only grows and a
  // relaxed read answers "already launched?".
  std::atomic<std::uint64_t> launched_mask_{0};
  std::atomic<unsigned> workers_launched_{0};
  std::vector<std::unique_ptr<Bell>> bells_;      // fixed size max_workers_
  std::vector<unsigned> worker_cluster_;          // pre-region config
  unsigned num_clusters_ = 1;
};

}  // namespace ompmca::gomp
