// Team execution: the fork-join core of the runtime.
//
// A Team is one parallel-region instance: N implicit tasks, a barrier, a
// ring of worksharing descriptors, a single/sections/critical substrate, a
// task queue and per-thread work meters.  Each participating thread runs
// the region body with a ParallelContext — the handle through which all
// OpenMP semantics (barrier, for, single, master, critical, sections,
// ordered, reduction, tasks) are expressed.
//
// The API is explicit rather than pragma-based: this library is the
// *runtime* (libGOMP's role), and ParallelContext's methods correspond to
// the entry points a compiler would emit (GOMP_parallel, GOMP_loop_*,
// GOMP_barrier, GOMP_critical_*, ...).
//
// Lifecycle (hot teams, as libgomp keeps them): Runtime caches one Team per
// pool dispatch slot, built lazily at the slot's first width >= 2 fork.  A
// later region on that slot with the same width re-arms it (rearm()), so a
// same-shape fork allocates nothing: the barrier, the workshare ring and
// its loop ranges, the reduce slots, the task deques and the per-thread
// implicit-task records all persist.  rearm() resets exactly the
// per-region state — level, parent, inherited data environment, single
// counter, meters — and takes the region's placement, including the nested
// bubble reservation; finish() returns that reservation and drops the
// dependence table's references, so a parked team holds neither
// occupancy nor task records.  The barrier is the only structure built
// from the placement, so rearm() fails — and the slot's team is rebuilt —
// only when the barrier cannot follow: the wait policy changed, or the map
// moved and spans more than one cluster (before or after).  A one-group
// team moving between clusters, as a nested bubble does, keeps its
// barrier.  Width-1 regions use a stack Team and skip the cache.
#pragma once

#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/align.hpp"
#include "common/function_ref.hpp"
#include "gomp/barrier.hpp"
#include "gomp/icv.hpp"
#include "gomp/task.hpp"
#include "gomp/workshare.hpp"
#include "obs/telemetry.hpp"
#include "platform/cost_model.hpp"

namespace ompmca::gomp {

class BackendMutex;
class Runtime;
class Team;

/// Bounded lookahead for back-to-back nowait worksharing constructs.
inline constexpr unsigned kWorkshareRing = 4;

class ParallelContext {
 public:
  unsigned thread_num() const { return tid_; }
  unsigned num_threads() const;
  /// omp_get_level() as seen from this context.
  unsigned level() const;
  Runtime& runtime() const;
  Team& team() const { return *team_; }

  /// Explicit barrier (also drains queued explicit tasks, as OpenMP
  /// barriers must).
  void barrier();

  // --- worksharing loops ------------------------------------------------------
  /// Iterations [begin, end) divided per @p spec; @p body receives [lo, hi)
  /// chunks.  Implicit ending barrier unless @p nowait.
  void for_loop(long begin, long end, FunctionRef<void(long, long)> body,
                ScheduleSpec spec = {}, bool nowait = false);

  /// Worksharing loop whose body may call ordered(); always ends in a
  /// barrier (ordered implies waiting anyway).
  void for_loop_ordered(long begin, long end,
                        FunctionRef<void(long, long)> body,
                        ScheduleSpec spec = {});

  /// SIMD-friendly worksharing (the `for simd` shape): one static block per
  /// thread with internal chunk boundaries rounded to @p simd_width, so
  /// every thread's range except possibly the last is vector-alignable.
  /// The body vectorises its [lo, hi) range; meter vector_fraction
  /// accordingly for the board model (the e6500 AltiVec mapping, §4A).
  void for_loop_simd(long begin, long end, FunctionRef<void(long, long)> body,
                     long simd_width = 8, bool nowait = false);

  /// Inside for_loop_ordered's body: runs @p fn when iteration @p iter's
  /// turn comes (strict iteration order across the team).
  void ordered(long iter, FunctionRef<void()> fn);

  // --- low-level worksharing (the GOMP_loop_* ABI shape) -----------------------
  /// Establishes (or joins) a worksharing loop and pulls the first chunk;
  /// false when this thread has none.  Pair with loop_next/loop_end.
  bool loop_start(long begin, long end, ScheduleSpec spec, long* lo,
                  long* hi);
  /// Pulls the next chunk of the loop opened by loop_start.
  bool loop_next(long* lo, long* hi);
  /// Retires this thread's participation; barrier unless @p nowait.
  void loop_end(bool nowait = false);

  // --- sections ----------------------------------------------------------------
  void sections(std::initializer_list<FunctionRef<void()>> section_bodies,
                bool nowait = false);

  // --- single / master ----------------------------------------------------------
  /// True for the (one) winning thread.  Pair with the nowait flag of
  /// single(); this low-level form has NO implicit barrier.
  bool single_begin();
  void single(FunctionRef<void()> fn, bool nowait = false);
  void master(FunctionRef<void()> fn);

  // --- critical ------------------------------------------------------------------
  void critical(FunctionRef<void()> fn);  // the unnamed critical
  void critical(std::string_view name, FunctionRef<void()> fn);

  // --- reduction -------------------------------------------------------------------
  /// Combines each thread's @p local with @p op in thread order
  /// (deterministic) and returns the result on every thread.  Includes the
  /// construct's barriers.  T must be trivially copyable and <= 64 bytes.
  template <typename T, typename Op>
  T reduce(T local, Op op);

  template <typename T>
  T reduce_sum(T local) {
    return reduce(local, [](T a, T b) { return a + b; });
  }
  template <typename T>
  T reduce_max(T local) {
    return reduce(local, [](T a, T b) { return a > b ? a : b; });
  }
  template <typename T>
  T reduce_min(T local) {
    return reduce(local, [](T a, T b) { return a < b ? a : b; });
  }

  // --- explicit tasks ------------------------------------------------------------
  void task(std::function<void()> fn);
  /// task with depend clauses: starts after the last writer of every @p in
  /// address and after the last writer and all readers of every @p out
  /// address (pass an inout address via @p out).
  void task_depend(std::function<void()> fn,
                   std::initializer_list<const void*> in,
                   std::initializer_list<const void*> out);
  void taskwait();
  void taskgroup(FunctionRef<void()> body);
  /// taskloop: [begin, end) split into chunk tasks, waited on as an
  /// implicit taskgroup.  grain <= 0 = adaptive (see TaskSystem::taskloop).
  void taskloop(long begin, long end, std::function<void(long, long)> body,
                long grain = 0);

  // --- work metering (virtual-time cross-checks, simx) -----------------------------
  platform::Work& meter();

 private:
  friend class Team;
  void run_critical(BackendMutex& mu, std::string_view name,
                    FunctionRef<void()> fn);

  Team* team_ = nullptr;
  unsigned tid_ = 0;
  unsigned long loop_gen_ = 0;
  unsigned long sections_gen_ = 0;
  unsigned long single_gen_ = 0;
  LoopInstance* active_ordered_loop_ = nullptr;
  LoopInstance* active_loop_ = nullptr;  // loop_start/next/end state
  long active_loop_pos_ = 0;
  Task* current_task_ = nullptr;
};

class Team {
 public:
  /// Builds an @p nthreads team and arms it for a region forked from
  /// @p parent_ctx (nullptr = top level).
  Team(Runtime& rt, unsigned nthreads, ParallelContext* parent_ctx);

  /// Re-arms this (finished) team for a new region of the same width
  /// forked from @p parent_ctx.  False — with nothing reserved — when the
  /// region's placement needs a different barrier; the caller rebuilds.
  bool rearm(ParallelContext* parent_ctx);

  /// Nesting depth: 1 for a top-level region, parent + 1 for nested ones.
  unsigned level() const { return level_; }

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  unsigned nthreads() const { return nthreads_; }
  Runtime& runtime() { return rt_; }

  /// The hardware cluster thread @p tid is placed on.
  unsigned cluster_of_thread(unsigned tid) const {
    return cluster_of_thread_[tid];
  }
  /// The cluster a nested bubble team was pinned to, or nullopt for flat
  /// placement (top-level teams, oversized or spill-refused nested ones).
  std::optional<unsigned> bubble_cluster() const { return bubble_cluster_; }
  /// nullptr for width-1 teams (the barrier fast path).
  const HierarchicalBarrier* team_barrier() const { return barrier_.get(); }

  /// Runs @p body as thread @p tid of this team (called by the pool/master).
  void run_thread(unsigned tid, FunctionRef<void(ParallelContext&)> body);

  /// Called by the master after all threads returned, before the team can
  /// be re-armed: merges meters upward (nested team) or publishes them
  /// (top-level team), then returns the bubble reservation and drops the
  /// dependence table's task references.
  void finish();

  TaskSystem& tasks() { return tasks_; }

 private:
  friend class ParallelContext;

  // Two cache lines: big enough for small aggregate reductions (e.g. the
  // EP kernel's 10-bin annulus histogram) while staying false-sharing-free.
  static constexpr std::size_t kMaxReduceBytes = 128;
  struct alignas(kCacheLineBytes) ReduceSlot {
    std::array<std::byte, kMaxReduceBytes> bytes;
  };

  /// Places the region's threads: takes the nested bubble reservation (if
  /// any) and rewrites cluster_of_thread_.  True when the map changed.
  bool place(ParallelContext* parent_ctx);
  /// Resets the per-region state for a region forked from @p parent_ctx.
  void arm(ParallelContext* parent_ctx);
  void release_bubble();

  Runtime& rt_;
  const unsigned nthreads_;
  const WaitPolicy wait_policy_;  // the barrier was built for this policy
  unsigned level_ = 1;
  ParallelContext* parent_ctx_ = nullptr;
  // The master's data-environment ICVs at fork time: every team thread
  // inherits these for the region and discards its changes at region end
  // (run_thread installs/restores the thread-local override).
  EnvIcvs inherited_env_;
  std::unique_ptr<HierarchicalBarrier> barrier_;
  // Thread -> hardware cluster, from the topology's placement under the
  // proc-bind ICV (or all one cluster for a nested bubble team); feeds the
  // loop scheduler's cluster-local steal pass and the barrier's groups.
  // Rewritten in place by every rearm(); the task deques and the loop ring
  // read it through borrowed pointers.
  std::vector<unsigned> cluster_of_thread_;
  std::optional<unsigned> bubble_cluster_;
  std::array<LoopInstance, kWorkshareRing> loops_;
  std::array<SectionsInstance, kWorkshareRing> sections_;
  std::atomic<unsigned long> single_counter_{0};
  TaskSystem tasks_;
  // One implicit-task record per thread (Task holds atomics, so no vector).
  std::unique_ptr<Padded<Task>[]> implicit_tasks_;
  std::vector<Padded<platform::Work>> meters_;
  std::vector<ReduceSlot> reduce_slots_;
  ReduceSlot reduce_result_;
};

// --- template bodies ---------------------------------------------------------

template <typename T, typename Op>
T ParallelContext::reduce(T local, Op op) {
  static_assert(std::is_trivially_copyable_v<T>,
                "reduction type must be trivially copyable");
  obs::count(obs::Counter::kGompReduction);
  obs::ScopedTimer obs_timer(obs::Hist::kGompReductionNs);
  static_assert(sizeof(T) <= Team::kMaxReduceBytes,
                "reduction type exceeds the per-thread slot");
  std::memcpy(team_->reduce_slots_[tid_].bytes.data(), &local, sizeof(T));
  barrier();
  if (tid_ == 0) {
    T acc;
    std::memcpy(&acc, team_->reduce_slots_[0].bytes.data(), sizeof(T));
    for (unsigned t = 1; t < team_->nthreads_; ++t) {
      T v;
      std::memcpy(&v, team_->reduce_slots_[t].bytes.data(), sizeof(T));
      acc = op(acc, v);
    }
    std::memcpy(team_->reduce_result_.bytes.data(), &acc, sizeof(T));
  }
  barrier();
  T result;
  std::memcpy(&result, team_->reduce_result_.bytes.data(), sizeof(T));
  return result;
}

}  // namespace ompmca::gomp
