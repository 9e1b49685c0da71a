// The team barrier.
//
// One algorithm serves every team: a two-tier sense-reversing barrier
// matched to the machine.  The team's threads are grouped by hardware
// cluster, one group per occupied cluster.  Every thread arrives at a
// sense flag private to its group (traffic stays inside the cluster's
// shared L2); the last arriver of each group becomes that group's leader
// and combines at a tiny top tier, and the final leader releases top-down
// by flipping each group's sense.  Crossing the CoreNet fabric costs
// O(occupied clusters) arrivals per barrier instead of O(n) — the
// gomp.barrier_local / gomp.barrier_xcluster counters witness exactly that.
//
// One-group fast path: a team whose threads sit in one cluster (a nested
// bubble, any team on a one-cluster topology such as Topology::generic())
// gets a single group, which has the shape and cost of a central
// sense-reversing counter barrier.  Its last arriver flips the group's
// sense directly — no top-tier RMW, no tier-1 trace event — and every
// arrival counts as gomp.barrier_local.
//
// Wait policy: kPassive blocks on the group's condition variable (right for
// oversubscribed hosts and for power-conscious embedded use); kActive spins
// with escalating backoff (right when threads own HW threads).
//
// Team (team.hpp) builds the barrier from its thread -> cluster map and
// rebuilds it only when the wait policy changes or when a multi-cluster map
// moves; bench/ablation_barriers keeps the comparison against the tree and
// dissemination algorithms the runtime no longer carries.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <vector>

#include "common/align.hpp"
#include "common/annotations.hpp"
#include "common/locks.hpp"
#include "gomp/icv.hpp"

namespace ompmca::gomp {

/// Read by nothing: the runtime has one barrier.  Kept, with
/// RuntimeOptions::barrier, because perfbench/workloads.cpp still assigns it.
enum class BarrierKind { kAuto };

/// Cluster-local storage hook for barrier state.  acquire() returns a
/// cache-line-aligned block homed in @p cluster's memory domain (the
/// per-cluster arena sub-pool), or nullptr when the caller should fall back
/// to the process heap.  Implemented by gomp::ClusterSlabCache (pool.hpp).
class ClusterMemory {
 public:
  virtual ~ClusterMemory() = default;
  virtual void* acquire(unsigned cluster, std::size_t bytes) = 0;
  virtual void release(unsigned cluster, void* p) = 0;
};

/// Per occupied cluster one padded ClusterTier (counter + sense + cv)
/// lives — when a ClusterMemory is supplied — inside that cluster's modeled
/// L2 domain; the top tier is a single counter over group leaders.  Each
/// thread only ever waits on its own group's flag, so the spin/park line is
/// cluster-local.
class HierarchicalBarrier {
 public:
  /// @p cluster_of_thread maps tid -> hardware cluster id (nthreads
  /// entries, read during construction only); nullptr means one cluster.
  HierarchicalBarrier(unsigned nthreads, WaitPolicy policy,
                      const unsigned* cluster_of_thread,
                      ClusterMemory* mem = nullptr);
  ~HierarchicalBarrier();

  HierarchicalBarrier(const HierarchicalBarrier&) = delete;
  HierarchicalBarrier& operator=(const HierarchicalBarrier&) = delete;

  /// Blocks until all @c size() threads have arrived.  Reusable.
  void arrive_and_wait(unsigned tid);
  unsigned size() const { return n_; }

  /// Occupied clusters = top-tier width = cross-cluster arrivals per phase
  /// (none when it is 1).
  unsigned num_cluster_groups() const {
    return static_cast<unsigned>(groups_.size());
  }

 private:
  struct alignas(kCacheLineBytes) ClusterTier {
    std::atomic<unsigned> count{0};
    unsigned expected = 0;
    std::atomic<bool> sense{false};
    // Parking-only (guards nothing): the tier state is count/sense.
    CapMutex mu;
    std::condition_variable cv;
  };

  unsigned n_;
  WaitPolicy policy_;
  ClusterMemory* mem_;
  std::vector<unsigned> group_of_thread_;  // tid -> dense group index
  std::vector<unsigned> cluster_of_group_;  // dense group -> hw cluster id
  std::vector<ClusterTier*> groups_;
  std::vector<bool> group_from_mem_;  // allocation provenance per group
  // Per-thread sense: all threads flip in lockstep (everyone passes every
  // phase), so the releaser's write equals every waiter's expectation.
  std::vector<Padded<bool>> local_sense_;
  alignas(kCacheLineBytes) std::atomic<unsigned> top_count_{0};
};

}  // namespace ompmca::gomp
