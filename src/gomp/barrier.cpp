#include "gomp/barrier.hpp"

#include <cassert>
#include <new>

#include "check/check.hpp"
#include "common/spin.hpp"
#include "common/time.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace ompmca::gomp {

std::string_view to_string(BarrierKind k) {
  switch (k) {
    case BarrierKind::kCentral: return "central";
    case BarrierKind::kTree: return "tree";
    case BarrierKind::kDissemination: return "dissemination";
    case BarrierKind::kHierarchical: return "hierarchical";
    case BarrierKind::kAuto: return "auto";
  }
  return "?";
}

bool parse_barrier_kind(std::string_view text, BarrierKind* out) {
  if (text == "central") *out = BarrierKind::kCentral;
  else if (text == "tree") *out = BarrierKind::kTree;
  else if (text == "dissemination") *out = BarrierKind::kDissemination;
  else if (text == "hier" || text == "hierarchical")
    *out = BarrierKind::kHierarchical;
  else if (text == "auto") *out = BarrierKind::kAuto;
  else return false;
  return true;
}

BarrierKind effective_barrier_kind(BarrierKind kind, WaitPolicy policy,
                                   unsigned clusters_spanned) {
  if (kind == BarrierKind::kAuto) {
    kind = clusters_spanned > 1 ? BarrierKind::kHierarchical
                                : BarrierKind::kCentral;
  }
  if (kind == BarrierKind::kHierarchical && clusters_spanned <= 1) {
    // Degenerate: one cluster means no CoreNet hop to save; the flat
    // arity-4 tree is the same intra-cluster combining structure without
    // the top tier.
    return BarrierKind::kTree;
  }
  if (kind == BarrierKind::kDissemination && policy == WaitPolicy::kPassive) {
    return BarrierKind::kTree;
  }
  return kind;
}

BarrierKind effective_barrier_kind(BarrierKind kind, WaitPolicy policy) {
  return effective_barrier_kind(kind, policy, /*clusters_spanned=*/1);
}

unsigned clusters_spanned_by(const unsigned* cluster_of_thread,
                             unsigned nthreads) {
  if (cluster_of_thread == nullptr || nthreads == 0) return 1;
  unsigned spanned = 0;
  for (unsigned i = 0; i < nthreads; ++i) {
    bool seen = false;
    for (unsigned j = 0; j < i; ++j) {
      if (cluster_of_thread[j] == cluster_of_thread[i]) {
        seen = true;
        break;
      }
    }
    if (!seen) ++spanned;
  }
  return spanned;
}

std::unique_ptr<TeamBarrier> make_barrier(BarrierKind kind, unsigned nthreads,
                                          WaitPolicy policy,
                                          const unsigned* cluster_of_thread,
                                          ClusterMemory* mem) {
  const unsigned spanned = clusters_spanned_by(cluster_of_thread, nthreads);
  switch (effective_barrier_kind(kind, policy, spanned)) {
    case BarrierKind::kCentral:
      return std::make_unique<CentralBarrier>(nthreads, policy);
    case BarrierKind::kTree:
      return std::make_unique<TreeBarrier>(nthreads, policy);
    case BarrierKind::kDissemination:
      return std::make_unique<DisseminationBarrier>(nthreads);
    case BarrierKind::kHierarchical:
      return std::make_unique<HierarchicalBarrier>(nthreads, policy,
                                                   cluster_of_thread, mem);
    case BarrierKind::kAuto:
      break;  // resolved above; unreachable
  }
  return nullptr;
}

std::unique_ptr<TeamBarrier> make_barrier(BarrierKind kind, unsigned nthreads,
                                          WaitPolicy policy) {
  return make_barrier(kind, nthreads, policy, /*cluster_of_thread=*/nullptr);
}

// --- CentralBarrier ----------------------------------------------------------

CentralBarrier::CentralBarrier(unsigned nthreads, WaitPolicy policy)
    : n_(nthreads), policy_(policy) {
  assert(nthreads >= 1);
}

void CentralBarrier::arrive_and_wait(unsigned /*tid*/) {
  OMPMCA_CHECK_BARRIER_HELD();
  const bool my_sense = !sense_.load(std::memory_order_relaxed);
  if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
    count_.store(0, std::memory_order_relaxed);
    if (policy_ == WaitPolicy::kPassive) {
      {
        // The store must happen under the mutex or a waiter could check the
        // predicate between its load and its sleep and miss the notify.
        MutexLock lk(mu_);
        sense_.store(my_sense, std::memory_order_release);
      }
      cv_.notify_all();
    } else {
      sense_.store(my_sense, std::memory_order_release);
    }
    return;
  }
  if (policy_ == WaitPolicy::kPassive) {
    MutexLock lk(mu_);
    lk.wait(cv_, [&] {
      return sense_.load(std::memory_order_acquire) == my_sense;
    });
  } else {
    Backoff backoff;
    while (sense_.load(std::memory_order_acquire) != my_sense)
      backoff.pause();
  }
}

// --- TreeBarrier -------------------------------------------------------------

TreeBarrier::TreeBarrier(unsigned nthreads, WaitPolicy policy)
    : n_(nthreads), policy_(policy) {
  assert(nthreads >= 1);
  // Build leaves over groups of kArity threads, then combine upward.
  unsigned num_leaves = (n_ + kArity - 1) / kArity;
  leaf_of_thread_.resize(n_);

  // Level sizes, bottom-up.
  std::vector<unsigned> level_size;
  unsigned level = num_leaves;
  for (;;) {
    level_size.push_back(level);
    if (level == 1) break;
    level = (level + kArity - 1) / kArity;
  }
  unsigned total = 0;
  for (unsigned s : level_size) total += s;
  nodes_ = std::make_unique<Padded<TreeNode>[]>(total);

  // Node layout: leaves first, then each parent level.
  std::vector<unsigned> level_base(level_size.size());
  unsigned base = 0;
  for (std::size_t l = 0; l < level_size.size(); ++l) {
    level_base[l] = base;
    base += level_size[l];
  }
  // Leaf expected counts: the threads mapped to it.
  for (unsigned t = 0; t < n_; ++t) {
    unsigned leaf = t / kArity;
    leaf_of_thread_[t] = leaf;
    ++nodes_[leaf]->expected;
  }
  // Internal nodes: children are groups of kArity nodes of the level below.
  for (std::size_t l = 0; l + 1 < level_size.size(); ++l) {
    for (unsigned i = 0; i < level_size[l]; ++i) {
      unsigned parent_index = level_base[l + 1] + i / kArity;
      nodes_[level_base[l] + i]->parent = static_cast<int>(parent_index);
      ++nodes_[parent_index]->expected;
    }
  }
}

void TreeBarrier::arrive_and_wait(unsigned tid) {
  OMPMCA_CHECK_BARRIER_HELD();
  const bool my_sense = !sense_.load(std::memory_order_relaxed);

  // Climb: the last arriver at each node continues to its parent.
  int node = static_cast<int>(leaf_of_thread_[tid]);
  bool winner = true;
  while (node >= 0 && winner) {
    TreeNode& tn = *nodes_[static_cast<unsigned>(node)];
    unsigned arrived = tn.count.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (arrived == tn.expected) {
      tn.count.store(0, std::memory_order_relaxed);
      node = tn.parent;
    } else {
      winner = false;
    }
  }

  if (winner) {
    // Reached past the root: release everyone.
    if (policy_ == WaitPolicy::kPassive) {
      {
        MutexLock lk(mu_);
        sense_.store(my_sense, std::memory_order_release);
      }
      cv_.notify_all();
    } else {
      sense_.store(my_sense, std::memory_order_release);
    }
    return;
  }
  if (policy_ == WaitPolicy::kPassive) {
    MutexLock lk(mu_);
    lk.wait(cv_, [&] {
      return sense_.load(std::memory_order_acquire) == my_sense;
    });
  } else {
    Backoff backoff;
    while (sense_.load(std::memory_order_acquire) != my_sense)
      backoff.pause();
  }
}

// --- HierarchicalBarrier -----------------------------------------------------

HierarchicalBarrier::HierarchicalBarrier(unsigned nthreads, WaitPolicy policy,
                                         const unsigned* cluster_of_thread,
                                         ClusterMemory* mem)
    : n_(nthreads), policy_(policy), mem_(mem) {
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
    void* slab = mem_ ? mem_->acquire(cluster_of_group_[g],
                                      sizeof(ClusterTier))
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
      mem_->release(cluster_of_group_[g], groups_[g]);
    } else {
      delete groups_[g];
    }
  }
}

void HierarchicalBarrier::arrive_and_wait(unsigned tid) {
  OMPMCA_CHECK_BARRIER_HELD();
  const bool my_sense = local_sense_[tid].value;
  local_sense_[tid].value = !my_sense;
  const unsigned g = group_of_thread_[tid];
  ClusterTier& tier = *groups_[g];
  const bool tracing = obs::trace::verbose();
  const std::uint64_t t0 = tracing ? monotonic_nanos() : 0;

  const unsigned arrived = tier.count.fetch_add(1, std::memory_order_acq_rel);
  if (arrived + 1 == tier.expected) {
    // Cluster leader: the only thread of this cluster that touches the top
    // tier, so CoreNet crossings per phase == occupied clusters.
    tier.count.store(0, std::memory_order_relaxed);
    obs::count(obs::Counter::kGompBarrierXCluster);
    const unsigned ngroups = static_cast<unsigned>(groups_.size());
    const unsigned top =
        top_count_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (top == ngroups) {
      // Final leader: release every cluster top-down.
      top_count_.store(0, std::memory_order_relaxed);
      for (unsigned r = 0; r < ngroups; ++r) {
        ClusterTier& rt = *groups_[r];
        if (policy_ == WaitPolicy::kPassive) {
          {
            // Store under the mutex so no waiter can check the predicate
            // between its load and its sleep and miss the notify.
            MutexLock lk(rt.mu);
            rt.sense.store(my_sense, std::memory_order_release);
          }
          rt.cv.notify_all();
        } else {
          rt.sense.store(my_sense, std::memory_order_release);
        }
      }
      if (tracing) {
        obs::trace::complete(obs::trace::Type::kBarrierTier, t0, /*tier=*/1,
                             cluster_of_group_[g]);
      }
      return;
    }
    if (tracing) {
      obs::trace::complete(obs::trace::Type::kBarrierTier, t0, /*tier=*/1,
                           cluster_of_group_[g]);
      // Fall through to wait on our own cluster's flag like everyone else;
      // the leader-tier span above covers only the top-tier crossing.
    }
  } else {
    obs::count(obs::Counter::kGompBarrierLocal);
  }

  if (policy_ == WaitPolicy::kPassive) {
    MutexLock lk(tier.mu);
    lk.wait(tier.cv, [&] {
      return tier.sense.load(std::memory_order_acquire) == my_sense;
    });
  } else {
    Backoff backoff;
    while (tier.sense.load(std::memory_order_acquire) != my_sense)
      backoff.pause();
  }
  if (tracing && arrived + 1 != tier.expected) {
    obs::trace::complete(obs::trace::Type::kBarrierTier, t0, /*tier=*/0,
                         cluster_of_group_[g]);
  }
}

// --- DisseminationBarrier ------------------------------------------------------

DisseminationBarrier::DisseminationBarrier(unsigned nthreads) : n_(nthreads) {
  assert(nthreads >= 1);
  rounds_ = 0;
  while ((1u << rounds_) < n_) ++rounds_;
  flags_.resize(n_);
  for (auto& per_thread : flags_) {
    per_thread.resize(2);
    for (auto& per_parity : per_thread) {
      per_parity = std::vector<std::atomic<bool>>(rounds_);
      for (auto& f : per_parity) f.store(false, std::memory_order_relaxed);
    }
  }
  state_.resize(n_);
}

void DisseminationBarrier::arrive_and_wait(unsigned tid) {
  OMPMCA_CHECK_BARRIER_HELD();
  if (n_ == 1) return;
  ThreadState& st = *state_[tid];
  Backoff backoff;
  for (unsigned r = 0; r < rounds_; ++r) {
    unsigned partner = (tid + (1u << r)) % n_;
    flags_[partner][st.parity][r].store(st.sense, std::memory_order_release);
    while (flags_[tid][st.parity][r].load(std::memory_order_acquire) !=
           st.sense) {
      backoff.pause();
    }
    backoff.reset();
  }
  if (st.parity == 1) st.sense = !st.sense;
  st.parity ^= 1;
}

}  // namespace ompmca::gomp
