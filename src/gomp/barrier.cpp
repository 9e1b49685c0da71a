#include "gomp/barrier.hpp"

#include <cassert>
#include <new>

#include "check/check.hpp"
#include "common/spin.hpp"
#include "common/time.hpp"
#include "gomp/backend.hpp"

namespace ompmca::gomp {

HierarchicalBarrier::HierarchicalBarrier(unsigned nthreads, WaitPolicy policy,
                                         const unsigned* cluster_of_thread,
                                         SystemBackend* backend)
    : n_(nthreads), policy_(policy), backend_(backend) {
  assert(nthreads >= 1);
  group_of_thread_.resize(n_);
  // Dense group indices in first-appearance order, so group 0 is the
  // master's cluster and the cross-cluster release fans out from it.
  for (unsigned t = 0; t < n_; ++t) {
    const unsigned cluster = cluster_of_thread ? cluster_of_thread[t] : 0;
    unsigned g = 0;
    for (; g < cluster_of_group_.size(); ++g) {
      if (cluster_of_group_[g] == cluster) break;
    }
    if (g == cluster_of_group_.size()) cluster_of_group_.push_back(cluster);
    group_of_thread_[t] = g;
  }
  groups_.resize(cluster_of_group_.size());
  group_from_mem_.resize(cluster_of_group_.size(), false);
  for (unsigned g = 0; g < groups_.size(); ++g) {
    void* slab = backend_ ? backend_->allocate_on_cluster(
                                sizeof(ClusterTier), cluster_of_group_[g])
                          : nullptr;
    if (slab != nullptr) {
      groups_[g] = ::new (slab) ClusterTier();
      group_from_mem_[g] = true;
    } else {
      groups_[g] = new ClusterTier();
    }
  }
  for (unsigned t = 0; t < n_; ++t) ++groups_[group_of_thread_[t]]->expected;
  local_sense_.resize(n_);
  for (auto& s : local_sense_) *s = true;
}

HierarchicalBarrier::~HierarchicalBarrier() {
  for (unsigned g = 0; g < groups_.size(); ++g) {
    if (group_from_mem_[g]) {
      groups_[g]->~ClusterTier();
      backend_->deallocate(groups_[g]);
    } else {
      delete groups_[g];
    }
  }
}

void HierarchicalBarrier::arrive_and_wait(unsigned tid,
                                          const obs::Probe& probe,
                                          BarrierWaiter* waiter) {
  OMPMCA_CHECK_BARRIER_HELD();
  const bool my_sense = local_sense_[tid].value;
  local_sense_[tid].value = !my_sense;
  const unsigned g = group_of_thread_[tid];
  ClusterTier& tier = *groups_[g];
  const unsigned ngroups = static_cast<unsigned>(groups_.size());

  const unsigned arrived = tier.count.fetch_add(1, std::memory_order_acq_rel);
  const bool leader = arrived + 1 == tier.expected;
  // Group leaders are the only threads that touch the top tier, so CoreNet
  // crossings per phase == occupied clusters; a one-group team has no top
  // tier and never crosses.
  probe.count(leader && ngroups > 1 ? obs::Counter::kGompBarrierXCluster
                                    : obs::Counter::kGompBarrierLocal);
  if (leader) {
    tier.count.store(0, std::memory_order_relaxed);
    const bool final_leader =
        ngroups == 1 ||
        top_count_.fetch_add(1, std::memory_order_acq_rel) + 1 == ngroups;
    if (final_leader) {
      // Release every group top-down.
      if (ngroups > 1) top_count_.store(0, std::memory_order_relaxed);
      // Passive waiters with a BarrierWaiter sleep in wait_until(), not on
      // the group's condition variable: wake() below reaches them.  Active
      // waiters never sleep, so they need neither.
      const bool passive = policy_ == WaitPolicy::kPassive;
      for (ClusterTier* rt : groups_) {
        if (passive && waiter == nullptr) {
          {
            // Store under the mutex so no waiter can check the predicate
            // between its load and its sleep and miss the notify.
            MutexLock lk(rt->mu);
            rt->sense.store(my_sense, std::memory_order_release);
          }
          rt->cv.notify_all();
        } else {
          rt->sense.store(my_sense, std::memory_order_release);
        }
      }
      if (passive && waiter != nullptr) waiter->wake();
    }
    // The leader-tier span covers only the top-tier crossing; a leader that
    // was not last then waits on its own group's flag like everyone else.
    if (probe.verbose() && ngroups > 1) {
      probe.emit(obs::trace::Type::kBarrierTier, probe.begin_ns(),
                 monotonic_nanos(), /*tier=*/1, cluster_of_group_[g]);
    }
    if (final_leader) return;
  }

  if (policy_ == WaitPolicy::kPassive && waiter != nullptr) {
    waiter->wait_until(tier.sense, my_sense);
  } else if (policy_ == WaitPolicy::kPassive) {
    MutexLock lk(tier.mu);
    lk.wait(tier.cv, [&] {
      return tier.sense.load(std::memory_order_acquire) == my_sense;
    });
  } else {
    Backoff backoff;
    while (tier.sense.load(std::memory_order_acquire) != my_sense) {
      if (waiter != nullptr && waiter->help()) {
        backoff.reset();  // ran a task: the release may be close again
      } else {
        backoff.pause();
      }
    }
  }
  if (probe.verbose() && !leader) {
    probe.emit(obs::trace::Type::kBarrierTier, probe.begin_ns(),
               monotonic_nanos(), /*tier=*/0, cluster_of_group_[g]);
  }
}

}  // namespace ompmca::gomp
