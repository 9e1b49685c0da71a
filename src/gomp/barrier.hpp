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
// Waiting threads can help.  An OpenMP barrier is a task scheduling point,
// so the team barrier passes a BarrierWaiter (its task system): a thread
// that arrived early runs the tasks a later arriver spawns, the active
// spin between pauses and the passive wait by parking on the task
// system's progress epoch instead of the group's condition variable.
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
#include "obs/spine.hpp"

namespace ompmca::gomp {

/// Read by nothing: the runtime has one barrier.  Kept, with
/// RuntimeOptions::barrier, because perfbench/workloads.cpp still assigns it.
enum class BarrierKind { kAuto };

/// What an arrived thread does until its group is released (see the file
/// comment).  Each call runs on the waiting thread itself.
class BarrierWaiter {
 public:
  /// Active wait: runs one queued task; false when none is takeable.
  virtual bool help() = 0;
  /// Passive wait: runs queued tasks, and sleeps when none is takeable,
  /// until @p sense reads @p value.
  virtual void wait_until(const std::atomic<bool>& sense, bool value) = 0;
  /// Under passive wait the releasing thread calls this after flipping
  /// every group's sense: it wakes the threads wait_until() put to sleep.
  virtual void wake() = 0;

 protected:
  ~BarrierWaiter() = default;
};

class SystemBackend;

/// Per occupied cluster one padded ClusterTier (counter + sense + cv)
/// lives — when a backend is supplied — inside that cluster's modeled L2
/// domain (SystemBackend::allocate_on_cluster; the process heap when the
/// backend cannot place it); the top tier is a single counter over group
/// leaders.  Each thread only ever waits on its own group's flag, so the
/// spin/park line is cluster-local.
class HierarchicalBarrier {
 public:
  /// @p cluster_of_thread maps tid -> hardware cluster id (nthreads
  /// entries, read during construction only); nullptr means one cluster.
  HierarchicalBarrier(unsigned nthreads, WaitPolicy policy,
                      const unsigned* cluster_of_thread,
                      SystemBackend* backend = nullptr);
  ~HierarchicalBarrier();

  HierarchicalBarrier(const HierarchicalBarrier&) = delete;
  HierarchicalBarrier& operator=(const HierarchicalBarrier&) = delete;

  /// Blocks until all @c size() threads have arrived.  Reusable.  The
  /// arrival-locality counters and full-mode tier spans ride on @p probe's
  /// gate load and start time (the team barrier's own probe).  Every
  /// thread of one barrier passes a @p waiter, or none does.
  void arrive_and_wait(unsigned tid, const obs::Probe& probe = obs::Probe(),
                       BarrierWaiter* waiter = nullptr);
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
  SystemBackend* backend_;
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
