// Flight-recorder tracing: per-thread lock-free rings of fixed-size binary
// events, exported as Chrome Trace Event / Perfetto JSON.
//
// The telemetry layer (telemetry.hpp) aggregates counters and histograms —
// good for ratios, useless for attribution.  When an EPCC ratio regresses we
// need to see *which* fork was slow, which barrier phase stalled, which steal
// chain crossed a cluster.  The tracer records individual events:
//
//  * every thread appends to its own power-of-two ring of 40-byte slots
//    (type, begin/end ns, two payload words); the writer publishes each slot
//    with one release store of the ring head, readers snapshot with acquire
//    loads — no locks anywhere on the hot path;
//  * `OMPMCA_TRACE=off|ring|full` sets the trace bits of the spine's gate
//    (spine.hpp).  Disabled hooks cost that one relaxed load and a
//    predictable branch, the same load telemetry's hooks pay.
//    `ring` keeps only the newest 4096 events per thread (flight recorder;
//    set_ring_capacity resizes it); `full` archives every wrapped-out chunk
//    so nothing is lost;
//  * `OMPMCA_TRACE_FILE=<path>` exports Chrome/Perfetto JSON at process exit;
//    benches do the same on demand via write_chrome_json().  The export
//    carries per-thread tracks and flow arrows from each doorbell ring to the
//    worker wakes it caused, so fork critical paths are visible in the UI;
//  * on a check violation or fault exhaustion the last events per thread are
//    rendered as a crash flight record (dump_flight_record), so the first
//    inversion/deadlock report arrives with its event history attached.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/spine.hpp"

namespace ompmca::obs::trace {

enum class Mode : unsigned {
  kOff = 0,   // hooks cost one relaxed load
  kRing = 1,  // newest N events per thread survive (flight recorder)
  kFull = 2,  // wrapped-out ring chunks are archived; nothing is dropped
};

struct Event {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;  // == begin_ns for instants
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  Type type = Type::kCount;
};

/// One thread's recovered event stream, oldest first.
struct ThreadTrace {
  std::uint64_t tid = 0;       // registration order, not OS tid
  std::uint64_t recorded = 0;  // events ever written by this thread
  std::uint64_t dropped = 0;   // overwritten before snapshot (ring mode)
  std::vector<Event> events;
};

/// True in ring and full mode.
inline bool enabled() { return (gate() & kGateTrace) != 0; }

/// True only in full mode.  Per-iteration events (loop chunks, steal
/// attempts) are gated on this instead of enabled(): they cost a clock read
/// per loop *chunk*, which is measurable on EPCC FOR microbenchmarks, so the
/// always-on ring tier records control flow only and the deep-dive full tier
/// adds the per-chunk detail.
inline bool verbose() { return (gate() & kGateTraceFull) != 0; }

Mode mode();
void set_mode(Mode m);

/// Ring capacity per thread (power of two; takes effect at the next reset()).
void set_ring_capacity(std::size_t events);
std::size_t ring_capacity();

/// Drops all recorded events and re-sizes rings to the configured capacity.
/// Tests only: concurrent writers make the result approximate.
void reset();

// --- recording hooks ---------------------------------------------------------

/// Point event stamped now.
inline void instant(Type t, std::uint64_t a0 = 0, std::uint64_t a1 = 0) {
  if (!enabled()) return;
  const std::uint64_t now = monotonic_nanos();
  detail::emit(t, now, now, a0, a1);
}

/// Duration event whose start the caller measured (after checking enabled()).
inline void complete(Type t, std::uint64_t begin_ns, std::uint64_t a0 = 0,
                     std::uint64_t a1 = 0) {
  if (!enabled()) return;
  detail::emit(t, begin_ns, monotonic_nanos(), a0, a1);
}

// --- snapshot / export -------------------------------------------------------

/// Recovers every thread's surviving events, oldest first per thread.
std::vector<ThreadTrace> snapshot();

/// The snapshot rendered as Chrome Trace Event JSON ({"traceEvents": [...]})
/// — loadable in Perfetto / chrome://tracing.  Emits per-thread tracks, X
/// (complete) events with ts/dur in microseconds, and flow arrows (s/f pairs
/// keyed by epoch) from each kForkRing to the kWorkerWake events it caused.
std::string chrome_json();

/// Writes chrome_json() to @p path.  Returns false (and logs) on I/O error.
bool write_chrome_json(const std::string& path);

// --- crash flight record -----------------------------------------------------

/// Renders the newest kFlightRecordEvents events of every thread as text and
/// writes it to stderr; the rendered record is also retained for
/// last_flight_record().  No-op when tracing is disabled.  Called by the
/// check subsystem on a violation and by fault on retry exhaustion; safe
/// under their report locks (the tracer takes no locks that can point back).
void dump_flight_record(const char* reason);

inline constexpr std::size_t kFlightRecordEvents = 32;

/// Number of flight records dumped since start/reset, and the text of the
/// most recent one (empty when none).
std::uint64_t flight_record_count();
std::string last_flight_record();

}  // namespace ompmca::obs::trace
