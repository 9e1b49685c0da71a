// The instrumentation spine shared by telemetry, trace and the monitor:
//
//  * the catalog — one X-macro table per family defines every counter,
//    histogram, gauge and trace event exactly once; the enums and their
//    name() lookups are generated from it;
//  * the gate — one relaxed atomic bitmask (metrics, trace, full trace,
//    monitor) is the only thing a disabled hook touches;
//  * the probe — one RAII object per hook site loads the gate once and,
//    only when some bit is set, reads the clock once at each edge, feeding
//    the site's counter, histogram and trace event from that one pair.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>

#include "common/time.hpp"

namespace ompmca::obs {

// --- the catalog -------------------------------------------------------------
//
// Names are the stable export surface (JSON report keys, JSONL keys, the
// ompmca_* Prometheus families, Chrome trace event names); enumerator order
// is the report order.

/// Monotonic event counters: X(enumerator, dotted name).
#define OMPMCA_OBS_COUNTERS(X)                                               \
  /* gomp — per-directive entries. */                                        \
  X(kGompParallel, "gomp.parallel")                                          \
  X(kGompFor, "gomp.for")                                                    \
  X(kGompBarrier, "gomp.barrier")                                            \
  X(kGompSingle, "gomp.single")                                              \
  X(kGompCritical, "gomp.critical")                                          \
  X(kGompCriticalContended, "gomp.critical_contended")                       \
  X(kGompReduction, "gomp.reduction")                                        \
  X(kGompTaskSpawned, "gomp.task_spawned")                                   \
  X(kGompTaskloop, "gomp.taskloop")                                          \
  /* Work-stealing task deques (cluster-first victim order); remote = the */ \
  /* steal crossed a cluster boundary (CoreNet hop). */                      \
  X(kGompTaskStolen, "gomp.task_stolen")                                     \
  X(kGompTaskStolenLocal, "gomp.task_stolen_local")                          \
  X(kGompTaskStolenRemote, "gomp.task_stolen_remote")                        \
  X(kGompPoolDispatch, "gomp.pool_dispatch")                                 \
  /* Barrier arrival locality: an arrival that stayed inside its cluster */  \
  /* vs one that crossed CoreNet (one per occupied cluster per phase). */    \
  X(kGompBarrierLocal, "gomp.barrier_local")                                 \
  X(kGompBarrierXCluster, "gomp.barrier_xcluster")                           \
  /* Teams narrower than requested: worker launch failed (degraded) or */    \
  /* concurrent masters held the lease past the bounded wait. */             \
  X(kGompTeamDegraded, "gomp.team_degraded")                                 \
  /* Regions dispatched while another master's was in flight. */             \
  X(kGompTeamMultiplexed, "gomp.team_multiplexed")                           \
  X(kGompLeaseDegraded, "gomp.lease_degraded")                               \
  /* Nested teams pinned whole into one cluster; a spill landed in a */      \
  /* cluster other than the master's. */                                     \
  X(kGompTeamBubble, "gomp.team_bubble")                                     \
  X(kGompTeamBubbleSpill, "gomp.team_bubble_spill")                          \
  /* Work-stealing loop scheduler (dynamic/guided distributed ranges). */    \
  X(kGompLoopStealAttempt, "gomp.loop_steal_attempt")                        \
  X(kGompLoopSteal, "gomp.loop_steal")                                       \
  X(kGompLoopStealLocal, "gomp.loop_steal_local")                            \
  X(kGompLoopStealRemote, "gomp.loop_steal_remote")                          \
  /* mrapi — the MCA service layer. */                                       \
  X(kMrapiMutexAcquire, "mrapi.mutex_acquire")                               \
  X(kMrapiMutexContended, "mrapi.mutex_contended")                           \
  X(kMrapiNodeCreate, "mrapi.node_create")                                   \
  X(kMrapiNodeRetire, "mrapi.node_retire")                                   \
  X(kMrapiArenaAllocate, "mrapi.arena_allocate")                             \
  X(kMrapiArenaAllocateFailed, "mrapi.arena_allocate_failed")                \
  X(kMrapiArenaRelease, "mrapi.arena_release")                               \
  /* Partitioned arena: a hinted allocation served by its own cluster's */   \
  /* sub-pool vs spilled into another cluster's. */                          \
  X(kMrapiArenaClusterLocal, "mrapi.arena_cluster_local")                    \
  X(kMrapiArenaClusterSpill, "mrapi.arena_cluster_spill")                    \
  /* platform — placement machinery. */                                      \
  X(kPlatformTeamShape, "platform.team_shape")                               \
  /* obs — the live monitor's own meters. */                                 \
  X(kObsMonitorTick, "obs.monitor_tick")                                     \
  X(kObsStallDetected, "obs.stall_detected")

/// Duration histograms (nanoseconds, power-of-two buckets).
#define OMPMCA_OBS_HISTS(X)                                                  \
  X(kGompParallelNs, "gomp.parallel_ns")                                     \
  X(kGompForNs, "gomp.for_ns")                                               \
  X(kGompSingleNs, "gomp.single_ns")                                         \
  X(kGompCriticalNs, "gomp.critical_ns")                                     \
  X(kGompReductionNs, "gomp.reduction_ns")                                   \
  X(kGompBarrierWaitNs, "gomp.barrier_wait_ns")                              \
  /* doorbell ring -> worker starts the region body */                       \
  X(kGompDoorbellWakeNs, "gomp.doorbell_wake_ns")                            \
  /* time a master waited for contended worker leases */                     \
  X(kGompLeaseWaitNs, "gomp.lease_wait_ns")                                  \
  X(kMrapiMutexAcquireNs, "mrapi.mutex_acquire_ns")                          \
  X(kMrapiArenaAllocateNs, "mrapi.arena_allocate_ns")                        \
  X(kMrapiArenaReleaseNs, "mrapi.arena_release_ns")

/// High-water-mark gauges (global, updated with a fetch-max loop).
#define OMPMCA_OBS_GAUGES(X)                                                 \
  X(kMrapiArenaBytesInUseHwm, "mrapi.arena_bytes_in_use_hwm")                \
  X(kGompTaskQueueDepthHwm, "gomp.task_queue_depth_hwm")

/// Trace events: X(enumerator, name, category, a0 key, a1 key).  An empty
/// a1 key means the event carries one payload word.  "(full)" marks events
/// recorded only in full mode: they fire per loop chunk or per task.
#define OMPMCA_OBS_EVENTS(X)                                                 \
  /* gomp fork/join (doorbell dispatch pipeline). */                         \
  X(kParallel, "parallel", "gomp", "width", "nested")                        \
  X(kForkRing, "fork_ring", "gomp", "epoch", "width")    /* instant */       \
  X(kWorkerWake, "worker_wake", "gomp", "epoch", "")     /* instant */       \
  X(kWorkerWork, "worker_work", "gomp", "epoch", "")                         \
  X(kJoinWait, "join_wait", "gomp", "epoch", "")                             \
  X(kBarrier, "barrier", "gomp", "groups", "width")                          \
  /* (full) tier 0 = intra-cluster wait, 1 = leader crossing CoreNet */      \
  X(kBarrierTier, "barrier_tier", "gomp", "tier", "cluster")                 \
  /* gomp worksharing; for carries the schedule kind in a0. */               \
  X(kFor, "for", "gomp", "a0", "a1")                                         \
  X(kSingle, "single", "gomp", "a0", "a1")                                   \
  X(kCritical, "critical", "gomp", "a0", "a1")  /* acquire + body */         \
  X(kLoopChunk, "loop_chunk", "gomp", "lo", "hi")          /* (full) */      \
  X(kStealAttempt, "steal_attempt", "gomp", "victim", "")  /* (full) */      \
  X(kSteal, "steal", "gomp", "victim", "local")            /* (full) */      \
  /* gomp explicit tasks (full). */                                          \
  X(kTaskSpawn, "task_spawn", "gomp", "tid", "depth")                        \
  X(kTaskRun, "task_run", "gomp", "stolen", "")                              \
  X(kTaskSteal, "task_steal", "gomp", "victim", "local")                     \
  /* mrapi. */                                                               \
  X(kMutexAcquire, "mutex_acquire", "mrapi", "contended", "")                \
  X(kNodeCreate, "node_create", "mrapi", "node", "")                         \
  X(kNodeRetire, "node_retire", "mrapi", "node", "")                         \
  X(kShmemCreate, "shmem_create", "mrapi", "key", "bytes")                   \
  /* fault injection (instants). */                                          \
  X(kFaultInject, "fault_inject", "fault", "site", "")                       \
  X(kFaultRecover, "fault_recover", "fault", "site", "")                     \
  X(kFaultExhaust, "fault_exhaust", "fault", "site", "")                     \
  /* check (instants). */                                                    \
  X(kLockAcquire, "lock_acquire", "check", "lock_class", "key")              \
  X(kCheckViolation, "check_violation", "check", "violation", "")

#define OMPMCA_OBS_ENUMERATOR(id, ...) id,
#define OMPMCA_OBS_NAME(id, dotted, ...) dotted,

enum class Counter : unsigned {
  OMPMCA_OBS_COUNTERS(OMPMCA_OBS_ENUMERATOR) kCount
};
enum class Hist : unsigned {
  OMPMCA_OBS_HISTS(OMPMCA_OBS_ENUMERATOR) kCount
};
enum class Gauge : unsigned {
  OMPMCA_OBS_GAUGES(OMPMCA_OBS_ENUMERATOR) kCount
};

inline constexpr unsigned kNumCounters = static_cast<unsigned>(Counter::kCount);
inline constexpr unsigned kNumHists = static_cast<unsigned>(Hist::kCount);
inline constexpr unsigned kNumGauges = static_cast<unsigned>(Gauge::kCount);

namespace detail {
inline constexpr std::array<std::string_view, kNumCounters> kCounterNames{
    OMPMCA_OBS_COUNTERS(OMPMCA_OBS_NAME)};
inline constexpr std::array<std::string_view, kNumHists> kHistNames{
    OMPMCA_OBS_HISTS(OMPMCA_OBS_NAME)};
inline constexpr std::array<std::string_view, kNumGauges> kGaugeNames{
    OMPMCA_OBS_GAUGES(OMPMCA_OBS_NAME)};
}  // namespace detail

/// Dotted metric names used in every export.
constexpr std::string_view name(Counter c) {
  return detail::kCounterNames[static_cast<unsigned>(c)];
}
constexpr std::string_view name(Hist h) {
  return detail::kHistNames[static_cast<unsigned>(h)];
}
constexpr std::string_view name(Gauge g) {
  return detail::kGaugeNames[static_cast<unsigned>(g)];
}

namespace trace {

/// Event types.  Exported by name, so renumbering is harmless.
enum class Type : std::uint32_t {
  OMPMCA_OBS_EVENTS(OMPMCA_OBS_ENUMERATOR) kCount
};

inline constexpr unsigned kNumTypes = static_cast<unsigned>(Type::kCount);

/// One catalog row: the export name, the Chrome category and the keys the
/// two payload words are rendered under.
struct EventInfo {
  std::string_view name;
  std::string_view category;
  std::string_view a0_key;
  std::string_view a1_key;  // empty: a1 is not rendered
};

namespace detail {
#define OMPMCA_OBS_EVENT_INFO(id, nm, cat, k0, k1) EventInfo{nm, cat, k0, k1},
inline constexpr std::array<EventInfo, kNumTypes> kEventInfo{
    OMPMCA_OBS_EVENTS(OMPMCA_OBS_EVENT_INFO)};
#undef OMPMCA_OBS_EVENT_INFO
}  // namespace detail

constexpr const EventInfo& info(Type t) {
  return detail::kEventInfo[static_cast<unsigned>(t)];
}
constexpr std::string_view name(Type t) { return info(t).name; }

}  // namespace trace

#undef OMPMCA_OBS_ENUMERATOR
#undef OMPMCA_OBS_NAME

// --- the gate ----------------------------------------------------------------

/// Gate bits.  Full trace mode sets both trace bits; an armed monitor
/// records metrics whatever the metrics bit says, so stopping it leaves
/// the metrics bit exactly as the user set it.
enum GateBit : unsigned {
  kGateMetrics = 1u << 0,    // OMPMCA_TELEMETRY / set_enabled
  kGateTrace = 1u << 1,      // OMPMCA_TRACE=ring|full / trace::set_mode
  kGateTraceFull = 1u << 2,  // OMPMCA_TRACE=full
  kGateMonitor = 1u << 3,    // OMPMCA_MONITOR / monitor::start
};
inline constexpr unsigned kGateRecordsMetrics = kGateMetrics | kGateMonitor;

namespace detail {
extern std::atomic<unsigned> g_gate;

/// Replaces the bits under @p mask with @p bits (the other bits keep their
/// value).
void set_gate_bits(unsigned mask, unsigned bits);

void add_counter(Counter c, std::uint64_t n);
void record_hist(Hist h, std::uint64_t ns);
}  // namespace detail

/// One relaxed load: the whole disabled-mode cost of a hook site.
inline unsigned gate() {
  return detail::g_gate.load(std::memory_order_relaxed);
}

namespace trace::detail {
void emit(Type type, std::uint64_t begin_ns, std::uint64_t end_ns,
          std::uint64_t a0, std::uint64_t a1);
}  // namespace trace::detail

// --- the probe ---------------------------------------------------------------

/// One hook site's instrumentation.  Construction loads the gate once and,
/// when any bit is set, reads the clock and bumps the site's counter;
/// destruction reads the clock once more and feeds the site's histogram and
/// trace event from the same pair of reads.  Pass kCount for a counter,
/// histogram or event the site does not have.  The helpers let the site
/// record extra metrics and events under the same gate load.
class Probe {
 public:
  Probe() : Probe(Counter::kCount, Hist::kCount, trace::Type::kCount) {}
  explicit Probe(trace::Type event, std::uint64_t a0 = 0, std::uint64_t a1 = 0)
      : Probe(Counter::kCount, Hist::kCount, event, a0, a1) {}
  explicit Probe(Hist hist, trace::Type event = trace::Type::kCount)
      : Probe(Counter::kCount, hist, event) {}
  Probe(Counter counter, Hist hist,
        trace::Type event = trace::Type::kCount, std::uint64_t a0 = 0,
        std::uint64_t a1 = 0)
      : gate_(gate()), hist_(hist), event_(event), a0_(a0), a1_(a1) {
    if (gate_ == 0) return;
    begin_ns_ = monotonic_nanos();
    if (counter != Counter::kCount) count(counter);
  }
  ~Probe() {
    const bool hist = hist_ != Hist::kCount && metrics();
    const bool event = event_ != trace::Type::kCount && tracing();
    if (!hist && !event) return;
    const std::uint64_t end_ns = monotonic_nanos();
    if (hist) detail::record_hist(hist_, end_ns - begin_ns_);
    if (event) trace::detail::emit(event_, begin_ns_, end_ns, a0_, a1_);
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  bool metrics() const { return (gate_ & kGateRecordsMetrics) != 0; }
  bool tracing() const { return (gate_ & kGateTrace) != 0; }
  bool verbose() const { return (gate_ & kGateTraceFull) != 0; }
  bool monitored() const { return (gate_ & kGateMonitor) != 0; }
  /// The construction timestamp; 0 when the gate was clear.
  std::uint64_t begin_ns() const { return begin_ns_; }

  /// Payload words of the site's event (known only partway through).
  void set_args(std::uint64_t a0, std::uint64_t a1) {
    a0_ = a0;
    a1_ = a1;
  }
  /// The site's event is not emitted (the operation it spans failed).
  void drop_event() { event_ = trace::Type::kCount; }

  void count(Counter c, std::uint64_t n = 1) const {
    if (metrics()) detail::add_counter(c, n);
  }
  void record(Hist h, std::uint64_t ns) const {
    if (metrics()) detail::record_hist(h, ns);
  }
  void emit(trace::Type t, std::uint64_t begin_ns, std::uint64_t end_ns,
            std::uint64_t a0 = 0, std::uint64_t a1 = 0) const {
    if (tracing()) trace::detail::emit(t, begin_ns, end_ns, a0, a1);
  }

 private:
  unsigned gate_;
  std::uint64_t begin_ns_ = 0;
  Hist hist_;
  trace::Type event_;
  std::uint64_t a0_;
  std::uint64_t a1_;
};

}  // namespace ompmca::obs
