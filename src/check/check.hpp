// Runtime correctness checker: lockdep-style acquisition-order validation,
// keyed-resource lifecycle auditing and OpenMP construct-nesting checks.
//
// The paper's claim is "MRAPI-backed libGOMP adds no overhead and no
// correctness hazards"; TSan can only witness the interleavings a run
// happens to produce.  This subsystem makes the hazard classes *structural*:
//
//  * lock order  — every acquisition is appended to a per-thread held-lock
//    stack; each (held, acquired) pair becomes an edge in a global
//    acquisition-order graph.  The first edge that closes a cycle is
//    reported with the acquisition sites of both conflicting chains, even
//    if the deadlock itself never fired in this run.
//  * lifecycle   — every keyed MRAPI resource carries a generation counter;
//    use-after-delete, double-delete, double-unlock, unlock-by-non-owner
//    and node-retire-with-held-locks are flagged at the offending call.
//  * gomp usage  — illegal construct nesting (barrier inside
//    single/critical/worksharing, worksharing inside worksharing on the
//    same team, blocking on a team barrier while holding a user lock).
//
// Cost model: the hooks below are macros.  Compiled without
// -DOMPMCA_CHECK=ON they expand to ((void)0) — not a load, not a branch —
// so release hot paths are bit-identical with or without this subsystem.
// With the option ON, each hook is one relaxed load when the checker is
// runtime-disabled (OMPMCA_CHECK=0), and takes a global registry mutex when
// enabled (this is a debugging configuration, not a benchmarking one).
//
// Runtime knobs (checked once at startup, compiled-in builds only):
//   OMPMCA_CHECK=0|1        enable/disable recording (default: enabled)
//   OMPMCA_CHECK_ABORT=1    abort() on the first violation (CI tripwire)
//
// Violations are deduplicated (a seeded bug reports once, not once per
// iteration) and surface through the obs JSON report as a "check" section,
// so bench --json artifacts carry them alongside the telemetry snapshot.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#ifndef OMPMCA_CHECK_ENABLED
#define OMPMCA_CHECK_ENABLED 0
#endif

namespace ompmca::check {

/// Classes of lockable / keyed resources the checker knows about.  The
/// class partitions the order-graph node space, so an MRAPI mutex with key
/// 7 and a semaphore with key 7 are distinct nodes.
enum class LockClass : unsigned {
  kMrapiMutex,
  kMrapiRwlock,
  kMrapiSemaphore,
  kMrapiShmem,    // lifecycle-only (shared-memory segments are not locks)
  kMrapiRmem,     // lifecycle-only
  kGompCritical,  // named/unnamed critical backing mutexes
  kGompUserLock,  // omp_lock_t / omp_nest_lock_t shims
  kGompPool,      // pseudo-lock held by the master across start_team..wait_team
  kCount,
};

enum class ViolationKind : unsigned {
  kLockOrderInversion,
  kDoubleUnlock,
  kUnlockNotOwner,
  kUseAfterDelete,
  kDoubleDelete,
  kNodeRetireWithHeldLocks,
  kBarrierWhileHoldingLock,
  kBarrierInsideSingle,
  kBarrierInsideCritical,
  kBarrierInsideWorksharing,
  kNestedWorksharing,
  kCount,
};

std::string_view name(LockClass c);
std::string_view name(ViolationKind k);

/// One deduplicated violation report.
struct Violation {
  ViolationKind kind{};
  LockClass lock_class{};
  /// Resource key (MRAPI ResourceKey / node id / synthesized lock id).
  std::uint64_t key = 0;
  /// Detection site of the first occurrence ("file:line").
  std::string site;
  /// Human-readable context: for order inversions, both acquisition chains
  /// with their sites; for lifecycle bugs, the create/delete generations.
  std::string message;
  /// Occurrences folded into this report (>= 1).
  std::uint64_t count = 0;
};

// --- runtime switches ---------------------------------------------------------

bool enabled();
void set_enabled(bool on);
void set_abort_on_violation(bool on);
bool abort_on_violation();

/// Clears the order graph, the lifecycle registry and all recorded
/// violations (tests).  Per-thread held stacks are left alone: balanced
/// acquire/release keeps them self-cleaning.
void reset();

// --- lifecycle registry (called by the MRAPI database) ------------------------

/// A keyed resource came to life; bumps the (class, key) generation.
void on_create(LockClass cls, std::uint64_t key, const void* obj);
/// The key was deleted; @p obj is retired (later uses are use-after-delete).
void on_delete(LockClass cls, std::uint64_t key, const void* obj);
/// Delete of a key that is absent: double-delete if that key ever existed.
void on_delete_missing(LockClass cls, std::uint64_t key, const char* site);
/// An operation reached a retired object (stale handle).
void on_use_after_delete(LockClass cls, const void* obj, const char* site);

// --- lock-order validator -----------------------------------------------------

/// Successful acquisition.  @p key_hint names the lock when the object was
/// never registered with on_create (gomp-side locks); 0 = derive from @p obj.
/// Semaphores join the order graph as edge targets only — they have no
/// owner (units are routinely released by another thread), so they never
/// sit on the per-thread held stack.
void on_acquire(LockClass cls, const void* obj, std::uint64_t key_hint,
                const char* site);
/// Successful release (pops the innermost matching held entry).
void on_release(LockClass cls, const void* obj);

/// Error-path reports from the primitives themselves.
void on_double_unlock(LockClass cls, const void* obj, const char* site);
void on_unlock_not_owner(LockClass cls, const void* obj, const char* site);

/// Number of locks the calling thread currently holds (pseudo-locks
/// excluded); used by tests and the node-retire audit.
std::size_t held_count();

// --- node lifecycle -----------------------------------------------------------

/// A node is being finalized by the calling thread; flags retire-with-
/// held-locks when that thread's held stack is non-empty.
void on_node_retire(std::uint64_t node_id, const char* site);

// --- gomp usage validator -----------------------------------------------------

enum class Region : unsigned { kSingle, kCritical, kWorkshare };

void on_region_enter(Region r, const void* team);
void on_region_exit(Region r, const void* team);
/// Semantic team-barrier entry (ParallelContext::barrier): construct
/// nesting checks (single/critical/worksharing).
void on_barrier_usage(const void* team, const char* site);
/// Physical barrier arrival (HierarchicalBarrier): held-lock check.
void on_barrier_held(const char* site);

// --- reporting ----------------------------------------------------------------

/// Snapshot of the deduplicated violation list (stable order: discovery).
std::vector<Violation> violations();
std::uint64_t violation_count();

/// The "check" section of the obs JSON report (a complete JSON value).
std::string json_section();

}  // namespace ompmca::check

// --- hook macros --------------------------------------------------------------
//
// All call sites go through these so that an OMPMCA_CHECK=OFF build contains
// no trace of the checker: no load, no branch, no dead argument evaluation.

#if OMPMCA_CHECK_ENABLED

#define OMPMCA_CHECK_STRINGIZE_IMPL_(x) #x
#define OMPMCA_CHECK_STRINGIZE_(x) OMPMCA_CHECK_STRINGIZE_IMPL_(x)
#define OMPMCA_CHECK_SITE_ __FILE__ ":" OMPMCA_CHECK_STRINGIZE_(__LINE__)

#define OMPMCA_CHECK_HOOK_(call)                  \
  do {                                            \
    if (::ompmca::check::enabled()) {             \
      ::ompmca::check::call;                      \
    }                                             \
  } while (false)

#define OMPMCA_CHECK_CREATE(cls, key, obj) \
  OMPMCA_CHECK_HOOK_(on_create(cls, key, obj))
#define OMPMCA_CHECK_DELETE(cls, key, obj) \
  OMPMCA_CHECK_HOOK_(on_delete(cls, key, obj))
#define OMPMCA_CHECK_DELETE_MISSING(cls, key) \
  OMPMCA_CHECK_HOOK_(on_delete_missing(cls, key, OMPMCA_CHECK_SITE_))
#define OMPMCA_CHECK_USE_AFTER_DELETE(cls, obj) \
  OMPMCA_CHECK_HOOK_(on_use_after_delete(cls, obj, OMPMCA_CHECK_SITE_))
#define OMPMCA_CHECK_ACQUIRE(cls, obj, key_hint) \
  OMPMCA_CHECK_HOOK_(on_acquire(cls, obj, key_hint, OMPMCA_CHECK_SITE_))
#define OMPMCA_CHECK_RELEASE(cls, obj) \
  OMPMCA_CHECK_HOOK_(on_release(cls, obj))
#define OMPMCA_CHECK_DOUBLE_UNLOCK(cls, obj) \
  OMPMCA_CHECK_HOOK_(on_double_unlock(cls, obj, OMPMCA_CHECK_SITE_))
#define OMPMCA_CHECK_UNLOCK_NOT_OWNER(cls, obj) \
  OMPMCA_CHECK_HOOK_(on_unlock_not_owner(cls, obj, OMPMCA_CHECK_SITE_))
#define OMPMCA_CHECK_NODE_RETIRE(node_id) \
  OMPMCA_CHECK_HOOK_(on_node_retire(node_id, OMPMCA_CHECK_SITE_))
#define OMPMCA_CHECK_REGION_ENTER(region, team) \
  OMPMCA_CHECK_HOOK_(on_region_enter(region, team))
#define OMPMCA_CHECK_REGION_EXIT(region, team) \
  OMPMCA_CHECK_HOOK_(on_region_exit(region, team))
#define OMPMCA_CHECK_BARRIER_USAGE(team) \
  OMPMCA_CHECK_HOOK_(on_barrier_usage(team, OMPMCA_CHECK_SITE_))
#define OMPMCA_CHECK_BARRIER_HELD() \
  OMPMCA_CHECK_HOOK_(on_barrier_held(OMPMCA_CHECK_SITE_))

#else  // !OMPMCA_CHECK_ENABLED

#define OMPMCA_CHECK_CREATE(cls, key, obj) ((void)0)
#define OMPMCA_CHECK_DELETE(cls, key, obj) ((void)0)
#define OMPMCA_CHECK_DELETE_MISSING(cls, key) ((void)0)
#define OMPMCA_CHECK_USE_AFTER_DELETE(cls, obj) ((void)0)
#define OMPMCA_CHECK_ACQUIRE(cls, obj, key_hint) ((void)0)
#define OMPMCA_CHECK_RELEASE(cls, obj) ((void)0)
#define OMPMCA_CHECK_DOUBLE_UNLOCK(cls, obj) ((void)0)
#define OMPMCA_CHECK_UNLOCK_NOT_OWNER(cls, obj) ((void)0)
#define OMPMCA_CHECK_NODE_RETIRE(node_id) ((void)0)
#define OMPMCA_CHECK_REGION_ENTER(region, team) ((void)0)
#define OMPMCA_CHECK_REGION_EXIT(region, team) ((void)0)
#define OMPMCA_CHECK_BARRIER_USAGE(team) ((void)0)
#define OMPMCA_CHECK_BARRIER_HELD() ((void)0)

#endif  // OMPMCA_CHECK_ENABLED
