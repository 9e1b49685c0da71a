#include "gomp/team.hpp"

#include <algorithm>
#include <cassert>

#include "check/check.hpp"
#include "common/time.hpp"
#include "gomp/runtime.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace ompmca::gomp {

namespace {

/// Stable order-graph key for a named critical's backing mutex (FNV-1a of
/// the name), so inversion reports name the construct, not a pointer.
[[maybe_unused]] std::uint64_t critical_key(std::string_view name) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Unlocks a BackendMutex the caller already holds (the telemetry path
/// acquires with try_lock-then-lock so it can count contention).
class AdoptedBackendLock {
 public:
  explicit AdoptedBackendLock(BackendMutex& m) : m_(m) {}
  ~AdoptedBackendLock() { m_.unlock(); }
  AdoptedBackendLock(const AdoptedBackendLock&) = delete;
  AdoptedBackendLock& operator=(const AdoptedBackendLock&) = delete;

 private:
  BackendMutex& m_;
};

}  // namespace

Team::Team(Runtime& rt, unsigned nthreads, ParallelContext* parent_ctx)
    : rt_(rt),
      nthreads_(nthreads),
      wait_policy_(rt.icvs().wait_policy),
      cluster_of_thread_(nthreads),
      // The task deques steal in the same cluster-first victim order as
      // the loop scheduler; they borrow the map place() fills below.
      tasks_(nthreads, cluster_of_thread_.data()),
      implicit_tasks_(std::make_unique<Padded<Task>[]>(nthreads)),
      meters_(nthreads),
      reduce_slots_(nthreads) {
  place(parent_ctx);
  // Width-1 fast path: nothing to rendezvous, so no barrier object at all —
  // ParallelContext::barrier() degenerates to a task drain.
  if (nthreads_ > 1) {
    barrier_ = std::make_unique<HierarchicalBarrier>(
        nthreads_, wait_policy_, cluster_of_thread_.data(),
        rt.cluster_memory());
  }
  arm(parent_ctx);
}

bool Team::rearm(ParallelContext* parent_ctx) {
  const bool moved = place(parent_ctx);
  // The barrier is the only structure built from the placement.  A
  // one-group barrier never reads cluster ids, so a team moving from one
  // cluster to another (a nested bubble landing elsewhere) keeps it; a map
  // that moved and spans more than one cluster, before or after, needs a
  // barrier laid out for its groups.
  const auto in_one_cluster = [this] {
    return std::all_of(
        cluster_of_thread_.begin(), cluster_of_thread_.end(),
        [this](unsigned c) { return c == cluster_of_thread_[0]; });
  };
  if (rt_.icvs().wait_policy != wait_policy_ ||
      (moved && (barrier_->num_cluster_groups() > 1 || !in_one_cluster()))) {
    release_bubble();
    return false;
  }
  arm(parent_ctx);
  return true;
}

bool Team::place(ParallelContext* parent_ctx) {
  const platform::Topology& topo = rt_.topology();
  // Bubble placement: a nested region that fits inside one cluster is
  // pinned there — preferring the master's own cluster so the sub-team
  // shares the data its parent thread already has in that L2 — instead of
  // inheriting the board-wide scatter.  Under scatter even a 4-thread
  // nested team would span all three clusters and pay CoreNet on every
  // barrier; as a bubble its barrier is one in-cluster group.
  bubble_cluster_.reset();
  if (parent_ctx != nullptr && nthreads_ > 1 && rt_.nested_bubble() &&
      topo.num_clusters() > 1 &&
      nthreads_ <= topo.num_hw_threads() / topo.num_clusters()) {
    const unsigned preferred =
        parent_ctx->team().cluster_of_thread(parent_ctx->thread_num());
    bubble_cluster_ = rt_.occupancy().reserve_bubble(nthreads_, preferred);
    if (bubble_cluster_) {
      obs::count(*bubble_cluster_ == preferred
                     ? obs::Counter::kGompTeamBubble
                     : obs::Counter::kGompTeamBubbleSpill);
    }
  }
  const platform::PlacementPolicy policy =
      rt_.icvs().proc_bind == ProcBind::kClose
          ? platform::PlacementPolicy::kCompact
          : platform::PlacementPolicy::kScatter;
  bool moved = false;
  for (unsigned i = 0; i < nthreads_; ++i) {
    const unsigned c =
        bubble_cluster_ ? *bubble_cluster_
                        : topo.cluster_of_hw_thread(topo.placement(i, policy));
    moved = moved || cluster_of_thread_[i] != c;
    cluster_of_thread_[i] = c;
  }
  return moved;
}

void Team::arm(ParallelContext* parent_ctx) {
  level_ = parent_ctx != nullptr ? parent_ctx->level() + 1 : 1;
  parent_ctx_ = parent_ctx;
  inherited_env_ = rt_.env_icvs();
  single_counter_.store(0, std::memory_order_relaxed);
  for (auto& m : meters_) m.value = platform::Work{};
}

void Team::release_bubble() {
  if (bubble_cluster_) rt_.occupancy().release(*bubble_cluster_, nthreads_);
  bubble_cluster_.reset();
}

void Team::run_thread(unsigned tid, FunctionRef<void(ParallelContext&)> body) {
  ParallelContext ctx;
  ctx.team_ = this;
  ctx.tid_ = tid;
  // Each thread's implicit task: refcounted so children can pin it past
  // this frame, and so taskwait tracks its children per spec.  The record
  // is this team's; the join orders its reuse after every child's release.
  ctx.current_task_ = TaskSystem::make_implicit(implicit_tasks_[tid].value);

  // Make the context discoverable by the omp_*-style shims, restoring the
  // enclosing one on exit (nested regions).
  ParallelContext* saved = Runtime::t_current_;
  Runtime::t_current_ = &ctx;
  // Per-data-environment ICVs: inherit the master's fork-time values for
  // the region, restore this thread's own environment afterwards — an
  // omp_set_num_threads inside the region dies with the region, per spec.
  std::optional<EnvIcvs> saved_env = rt_.swap_env_override(inherited_env_);
  body(ctx);
  // Region-ending synchronisation, split in two.  Draining here guarantees
  // every explicit task finishes inside the region (OpenMP requires it of
  // the implicit barrier): each spawner drains until the task system is
  // quiescent, and the master cannot pass the join until every thread's
  // drain returned.  The thread rendezvous itself is the fork/join join —
  // the dispatch slot's active count.  Workers have nothing to execute
  // after the region, so they signal arrival and park instead of sleeping
  // through a full barrier release broadcast first; the release is
  // observable only by the master, and the join gives it exactly that.
  tasks_.drain(tid, &ctx.current_task_);
  rt_.swap_env_override(saved_env);
  Runtime::t_current_ = saved;
}

void Team::finish() {
  if (parent_ctx_ != nullptr) {
    // Nested team: fold our meters into the parent thread's meter.
    platform::Work& parent_meter = parent_ctx_->meter();
    for (auto& m : meters_) parent_meter += m.value;
  } else {
    // Top-level team: publish into the *master's* thread-local slot.
    // Concurrent masters each finish their own regions; a shared member
    // here was a data race as soon as two top-level regions overlapped.
    std::vector<platform::Work>& out = rt_.last_meters_slot();
    out.assign(meters_.size(), platform::Work{});
    for (std::size_t i = 0; i < meters_.size(); ++i) {
      out[i] = meters_[i].value;
    }
  }
  tasks_.release_dependences();
  release_bubble();
}

// --- ParallelContext -----------------------------------------------------------

unsigned ParallelContext::num_threads() const { return team_->nthreads_; }

unsigned ParallelContext::level() const { return team_->level_; }

Runtime& ParallelContext::runtime() const { return team_->rt_; }

void ParallelContext::barrier() {
  OMPMCA_CHECK_BARRIER_USAGE(team_);
  team_->tasks_.drain(tid_, &current_task_);
  // Width-1 fast path: the drain above is the whole barrier — no atomics,
  // no sense flip, no telemetry noise for serialized regions.  The
  // held-lock audit still applies: a barrier under a lock is a program
  // bug regardless of team width (wider runs would deadlock).
  if (team_->barrier_ == nullptr) {
    OMPMCA_CHECK_BARRIER_HELD();
    return;
  }
  if (obs::enabled() || obs::trace::enabled()) {
    obs::count(obs::Counter::kGompBarrier);
    const std::uint64_t t0 = monotonic_nanos();
    team_->barrier_->arrive_and_wait(tid_);
    if (obs::enabled()) {
      obs::record(obs::Hist::kGompBarrierWaitNs, monotonic_nanos() - t0);
    }
    obs::trace::complete(obs::trace::Type::kBarrier, t0,
                         team_->barrier_->num_cluster_groups(),
                         team_->nthreads_);
  } else {
    team_->barrier_->arrive_and_wait(tid_);
  }
}

void ParallelContext::for_loop(long begin, long end,
                               FunctionRef<void(long, long)> body,
                               ScheduleSpec spec, bool nowait) {
  obs::count(obs::Counter::kGompFor);
  obs::ScopedTimer timer(obs::Hist::kGompForNs);
  if (spec.kind == Schedule::kRuntime) spec = team_->rt_.icvs().run_schedule;
  obs::trace::Span span(obs::trace::Type::kFor,
                        static_cast<std::uint64_t>(spec.kind));
  LoopInstance& loop = team_->loops_[loop_gen_ % kWorkshareRing];
  loop.enter(loop_gen_, begin, end, spec, team_->nthreads_,
             team_->cluster_of_thread_.data());
  ++loop_gen_;
  OMPMCA_CHECK_REGION_ENTER(check::Region::kWorkshare, team_);
  long pos = 0;
  long lo = 0;
  long hi = 0;
  while (loop.next_chunk(tid_, &pos, &lo, &hi)) {
    body(lo, hi);
  }
  OMPMCA_CHECK_REGION_EXIT(check::Region::kWorkshare, team_);
  loop.leave();
  if (!nowait) barrier();
}

void ParallelContext::for_loop_ordered(long begin, long end,
                                       FunctionRef<void(long, long)> body,
                                       ScheduleSpec spec) {
  obs::count(obs::Counter::kGompFor);
  obs::ScopedTimer timer(obs::Hist::kGompForNs);
  if (spec.kind == Schedule::kRuntime) spec = team_->rt_.icvs().run_schedule;
  obs::trace::Span span(obs::trace::Type::kFor,
                        static_cast<std::uint64_t>(spec.kind));
  LoopInstance& loop = team_->loops_[loop_gen_ % kWorkshareRing];
  loop.enter(loop_gen_, begin, end, spec, team_->nthreads_,
             team_->cluster_of_thread_.data());
  ++loop_gen_;
  LoopInstance* saved = active_ordered_loop_;
  active_ordered_loop_ = &loop;
  OMPMCA_CHECK_REGION_ENTER(check::Region::kWorkshare, team_);
  long pos = 0;
  long lo = 0;
  long hi = 0;
  while (loop.next_chunk(tid_, &pos, &lo, &hi)) {
    body(lo, hi);
  }
  OMPMCA_CHECK_REGION_EXIT(check::Region::kWorkshare, team_);
  active_ordered_loop_ = saved;
  loop.leave();
  barrier();
}

void ParallelContext::for_loop_simd(long begin, long end,
                                    FunctionRef<void(long, long)> body,
                                    long simd_width, bool nowait) {
  obs::count(obs::Counter::kGompFor);
  obs::ScopedTimer timer(obs::Hist::kGompForNs);
  obs::trace::Span span(obs::trace::Type::kFor,
                        static_cast<std::uint64_t>(Schedule::kStatic));
  if (simd_width < 1) simd_width = 1;
  OMPMCA_CHECK_REGION_ENTER(check::Region::kWorkshare, team_);
  const long total = end - begin;
  if (total > 0) {
    // Block partition in units of simd_width vectors; the remainder tail
    // rides with the last thread.
    const long vectors = (total + simd_width - 1) / simd_width;
    const long n = static_cast<long>(team_->nthreads_);
    const long t = static_cast<long>(tid_);
    const long base = vectors / n;
    const long rem = vectors % n;
    const long my_first_vec = t * base + std::min(t, rem);
    const long my_vecs = base + (t < rem ? 1 : 0);
    if (my_vecs > 0) {
      const long lo = begin + my_first_vec * simd_width;
      const long hi = std::min(end, lo + my_vecs * simd_width);
      body(lo, hi);
    }
  }
  OMPMCA_CHECK_REGION_EXIT(check::Region::kWorkshare, team_);
  if (!nowait) barrier();
}

bool ParallelContext::loop_start(long begin, long end, ScheduleSpec spec,
                                 long* lo, long* hi) {
  assert(active_loop_ == nullptr && "loop_start while a loop is open");
  if (spec.kind == Schedule::kRuntime) spec = team_->rt_.icvs().run_schedule;
  LoopInstance& loop = team_->loops_[loop_gen_ % kWorkshareRing];
  loop.enter(loop_gen_, begin, end, spec, team_->nthreads_,
             team_->cluster_of_thread_.data());
  ++loop_gen_;
  active_loop_ = &loop;
  active_loop_pos_ = 0;
  OMPMCA_CHECK_REGION_ENTER(check::Region::kWorkshare, team_);
  return loop_next(lo, hi);
}

bool ParallelContext::loop_next(long* lo, long* hi) {
  assert(active_loop_ != nullptr && "loop_next without loop_start");
  return active_loop_->next_chunk(tid_, &active_loop_pos_, lo, hi);
}

void ParallelContext::loop_end(bool nowait) {
  assert(active_loop_ != nullptr && "loop_end without loop_start");
  OMPMCA_CHECK_REGION_EXIT(check::Region::kWorkshare, team_);
  active_loop_->leave();
  active_loop_ = nullptr;
  if (!nowait) barrier();
}

void ParallelContext::ordered(long iter, FunctionRef<void()> fn) {
  assert(active_ordered_loop_ != nullptr &&
         "ordered() outside a for_loop_ordered body");
  active_ordered_loop_->ordered_wait(iter);
  fn();
  active_ordered_loop_->ordered_post();
}

void ParallelContext::sections(
    std::initializer_list<FunctionRef<void()>> section_bodies, bool nowait) {
  SectionsInstance& ws = team_->sections_[sections_gen_ % kWorkshareRing];
  ws.enter(sections_gen_, static_cast<int>(section_bodies.size()),
           team_->nthreads_);
  ++sections_gen_;
  OMPMCA_CHECK_REGION_ENTER(check::Region::kWorkshare, team_);
  for (;;) {
    int idx = ws.next_section();
    if (idx < 0) break;
    (section_bodies.begin() + idx)->operator()();
  }
  OMPMCA_CHECK_REGION_EXIT(check::Region::kWorkshare, team_);
  ws.leave();
  if (!nowait) barrier();
}

bool ParallelContext::single_begin() {
  unsigned long expected = single_gen_;
  ++single_gen_;
  return team_->single_counter_.compare_exchange_strong(
      expected, expected + 1, std::memory_order_acq_rel);
}

void ParallelContext::single(FunctionRef<void()> fn, bool nowait) {
  obs::count(obs::Counter::kGompSingle);
  obs::ScopedTimer timer(obs::Hist::kGompSingleNs);
  obs::trace::Span span(obs::trace::Type::kSingle);
  if (single_begin()) {
    OMPMCA_CHECK_REGION_ENTER(check::Region::kSingle, team_);
    fn();
    OMPMCA_CHECK_REGION_EXIT(check::Region::kSingle, team_);
  }
  if (!nowait) barrier();
}

void ParallelContext::master(FunctionRef<void()> fn) {
  if (tid_ == 0) fn();
}

void ParallelContext::critical(FunctionRef<void()> fn) {
  run_critical(team_->rt_.unnamed_critical_mutex(), "", fn);
}

void ParallelContext::critical(std::string_view name,
                               FunctionRef<void()> fn) {
  run_critical(team_->rt_.critical_mutex(std::string(name)), name, fn);
}

void ParallelContext::run_critical(BackendMutex& mu,
                                   [[maybe_unused]] std::string_view name,
                                   FunctionRef<void()> fn) {
  obs::trace::Span span(obs::trace::Type::kCritical);  // acquire + body
  if (obs::enabled()) {
    obs::count(obs::Counter::kGompCritical);
    obs::ScopedTimer timer(obs::Hist::kGompCriticalNs);
    // try_lock first so a blocked acquisition is observable as contention;
    // a no-op (seeded-broken) mutex never blocks and counts zero here.
    if (!mu.try_lock()) {
      obs::count(obs::Counter::kGompCriticalContended);
      mu.lock();
    }
    OMPMCA_CHECK_ACQUIRE(check::LockClass::kGompCritical, &mu,
                         critical_key(name));
    AdoptedBackendLock guard(mu);
    OMPMCA_CHECK_REGION_ENTER(check::Region::kCritical, team_);
    fn();
    OMPMCA_CHECK_REGION_EXIT(check::Region::kCritical, team_);
    OMPMCA_CHECK_RELEASE(check::LockClass::kGompCritical, &mu);
  } else {
    BackendLockGuard guard(mu);
    OMPMCA_CHECK_ACQUIRE(check::LockClass::kGompCritical, &mu,
                         critical_key(name));
    OMPMCA_CHECK_REGION_ENTER(check::Region::kCritical, team_);
    fn();
    OMPMCA_CHECK_REGION_EXIT(check::Region::kCritical, team_);
    OMPMCA_CHECK_RELEASE(check::LockClass::kGompCritical, &mu);
  }
}

void ParallelContext::task(std::function<void()> fn) {
  // Children join the *executing task's* active group (current_task_ is
  // switched by run_one while a stolen task body runs), never the spawning
  // thread's construct state: OpenMP taskgroup end waits for descendants,
  // so a task spawned from inside a stolen task must not escape the group.
  // spawn() derives the group from the parent record.
  team_->tasks_.spawn(tid_, current_task_, std::move(fn));
}

void ParallelContext::task_depend(std::function<void()> fn,
                                  std::initializer_list<const void*> in,
                                  std::initializer_list<const void*> out) {
  team_->tasks_.spawn_depend(tid_, current_task_, std::move(fn), in.begin(),
                             in.size(), out.begin(), out.size());
}

void ParallelContext::taskwait() {
  team_->tasks_.taskwait(tid_, &current_task_);
}

void ParallelContext::taskgroup(FunctionRef<void()> body) {
  // Tasks spawned inside body — transitively, through any depth of
  // descendants, on any thread — join the group; taskgroup end waits for
  // all of them.  The group override lives in the executing task's record
  // (spawned children inherit it), so descendants of stolen tasks stay
  // tracked.
  if (current_task_ == nullptr) {
    // No task record to carry the override: nothing can join the group.
    body();
    return;
  }
  // RAII: a throwing body must still restore the override and wait the
  // group out — queued group tasks reference this frame's TaskGroup, and
  // the pre-RAII code left active_group dangling into the dead frame.
  TaskGroupScope scope(team_->tasks_, tid_, current_task_, &current_task_);
  body();
}

void ParallelContext::taskloop(long begin, long end,
                               std::function<void(long, long)> body,
                               long grain) {
  team_->tasks_.taskloop(tid_, &current_task_, begin, end, grain, body);
}

platform::Work& ParallelContext::meter() {
  return team_->meters_[tid_].value;
}

}  // namespace ompmca::gomp
