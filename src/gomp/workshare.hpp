// Worksharing-loop and sections state shared by a team.
//
// One LoopInstance is the shared descriptor of one `for` construct
// execution: the first thread to arrive configures it; every thread then
// pulls chunks per the schedule.  A team keeps a small ring of instances so
// `nowait` loops can overlap (threads may be up to kRingSize constructs
// apart before the earliest must fully drain — libGOMP has the same kind of
// bounded lookahead).
//
// Dynamic and guided schedules use distributed per-thread ranges with
// cluster-aware work-stealing instead of one shared cursor: the iteration
// space is pre-sliced into one contiguous range per thread (a single packed
// 64-bit atomic each, cache-line padded), owners claim chunks off the front
// of their own range, and a thread whose range runs dry steals the back
// half of a victim's range — preferring victims in its own cluster (same
// shared L2) before crossing clusters over CoreNet.  Every iteration has a
// unique remover (owner CAS on the front, thief CAS on the back), so
// exactly-once execution holds by construction.  Loops too large for the
// 32-bit packed offsets, width-1 teams, and loops too small to amortise the
// per-thread slots (under kMinChunksPerThread chunks per thread) fall back
// to the shared cursor.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>

#include "common/align.hpp"
#include "common/annotations.hpp"
#include "common/locks.hpp"
#include "gomp/icv.hpp"

namespace ompmca::gomp {

class LoopInstance {
 public:
  /// First arriver configures; later arrivers (same generation) pass through.
  /// Blocks (briefly) until stragglers of generation gen - kRingSize leave.
  /// @p cluster_of_thread (optional, length nthreads, must outlive the
  /// construct) drives cluster-local victim preference when stealing.
  void enter(unsigned long gen, long begin, long end, ScheduleSpec spec,
             unsigned nthreads, const unsigned* cluster_of_thread = nullptr);

  /// Next chunk for @p tid; false when no work is left anywhere (stealing
  /// schedules) or the thread's share is exhausted (static).
  /// @p thread_pos is per-thread cursor state owned by the caller
  /// (chunk ordinal for static schedules; ignored otherwise).  @p verbose
  /// is the caller's full-trace bit, read once per construct: when set,
  /// every chunk and steal emits its trace event.
  bool next_chunk(unsigned tid, long* thread_pos, long* lo, long* hi,
                  bool verbose);

 private:
  /// next_chunk's schedule dispatch; the public wrapper adds the trace hook.
  bool next_chunk_impl(unsigned tid, long* thread_pos, long* lo, long* hi,
                       bool verbose);

 public:

  /// Marks @p tid done with this generation (enables ring recycling).
  void leave();

  // --- ordered(§ worksharing) -------------------------------------------------
  /// Blocks until iteration @p iter is the next in sequence, runs nothing —
  /// the caller executes its ordered body between ordered_wait and
  /// ordered_post.
  void ordered_wait(long iter);
  void ordered_post();

  /// True when this generation hands out distributed per-thread ranges
  /// (the work-stealing path) rather than a shared cursor.
  bool distributed() const { return distributed_; }

 private:
  // A thread's remaining range, packed [lo:32][hi:32] as offsets from
  // begin_.  Owner claims [lo, lo+k) with a CAS on the front; a thief
  // claims [mid, hi) with a CAS on the back.  Empty when lo >= hi.
  struct alignas(kCacheLineBytes) RangeSlot {
    std::atomic<std::uint64_t> range{0};
  };
  static constexpr long kMaxStealableIters = 0x7fffffffL;
  // Minimum chunks per thread before distribution pays for itself; below
  // this the shared cursor wins (loop-end detection there is one load, not
  // an O(nthreads) scan of every slot).
  static constexpr long kMinChunksPerThread = 4;

  static std::uint64_t pack(std::uint32_t lo, std::uint32_t hi) {
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }
  static std::uint32_t range_lo(std::uint64_t r) {
    return static_cast<std::uint32_t>(r >> 32);
  }
  static std::uint32_t range_hi(std::uint64_t r) {
    return static_cast<std::uint32_t>(r);
  }

  /// Chunk size for a claim from a range with @p len iterations left.
  std::uint32_t claim_size(std::uint32_t len) const;
  /// Claims the next chunk off the front of @p slot's own range.
  bool claim_local(unsigned slot, long* lo, long* hi);
  /// Scans victims (same cluster first) and steals the back half of one.
  bool steal_range(unsigned tid, long* lo, long* hi, bool verbose);

  // Generation whose configuration is currently published; kNoGen before
  // the first construct.  enter() stays mutex-serialised on purpose: an
  // uncontended handoff measures faster than a lock-free check on the hot
  // EPCC loops, because it gives the configuring thread an exclusive
  // window on the descriptor cache lines.  leave() is lock-free for every
  // thread but the last, which resets the slot under the mutex.
  static constexpr unsigned long kNoGen = ~0ul;

  CapMutex init_mu_;
  std::condition_variable drained_cv_;
  std::atomic<unsigned long> ready_gen_{kNoGen};
  bool configured_ OMPMCA_GUARDED_BY(init_mu_) = false;
  // participants_ and the loop configuration below are written by the
  // configuring thread under init_mu_ but read lock-free by the team:
  // ready_gen_'s release store publishes them (same-generation readers
  // acquire it), so they are protocol-published, not mutex-guarded.
  unsigned participants_ = 0;
  std::atomic<unsigned> left_{0};

  long begin_ = 0;
  long end_ = 0;
  ScheduleSpec spec_;
  unsigned nthreads_ = 1;
  bool distributed_ = false;
  const unsigned* cluster_of_ = nullptr;
  unsigned ranges_cap_ = 0;
  std::unique_ptr<RangeSlot[]> ranges_;
  alignas(kCacheLineBytes) std::atomic<long> cursor_{0};

  CapMutex ordered_mu_;
  std::condition_variable ordered_cv_;
  long ordered_next_ OMPMCA_GUARDED_BY(ordered_mu_) = 0;
};

/// Shared state for a `sections` construct: threads pull section indices.
class SectionsInstance {
 public:
  void enter(unsigned long gen, int num_sections, unsigned nthreads);
  /// Index of the next unexecuted section, or -1 when exhausted.
  int next_section();
  void leave();

 private:
  CapMutex init_mu_;
  std::condition_variable drained_cv_;
  unsigned long gen_ OMPMCA_GUARDED_BY(init_mu_) = 0;
  bool configured_ OMPMCA_GUARDED_BY(init_mu_) = false;
  unsigned left_ OMPMCA_GUARDED_BY(init_mu_) = 0;
  unsigned participants_ OMPMCA_GUARDED_BY(init_mu_) = 0;
  // Written under init_mu_ at configuration, read lock-free by the team's
  // next_section calls after the construct's entry synchronisation.
  int num_sections_ = 0;
  alignas(kCacheLineBytes) std::atomic<int> cursor_{0};
};

/// Computes chunk [lo, hi) number @p pos for a static schedule.
/// Returns false when @p tid has no chunk @p pos.
bool static_chunk(long begin, long end, long chunk, unsigned tid,
                  unsigned nthreads, long pos, long* lo, long* hi);

}  // namespace ompmca::gomp
