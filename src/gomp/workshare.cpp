#include "gomp/workshare.hpp"

#include <algorithm>
#include <cassert>

#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace ompmca::gomp {

bool static_chunk(long begin, long end, long chunk, unsigned tid,
                  unsigned nthreads, long pos, long* lo, long* hi) {
  const long count = end - begin;
  if (count <= 0) return false;
  if (chunk <= 0) {
    // Block partition: one contiguous chunk per thread, remainder spread
    // over the first threads (libGOMP's static split).
    if (pos > 0) return false;
    const long base = count / static_cast<long>(nthreads);
    const long rem = count % static_cast<long>(nthreads);
    const long t = static_cast<long>(tid);
    long my_lo = begin + t * base + std::min(t, rem);
    long my_count = base + (t < rem ? 1 : 0);
    if (my_count <= 0) return false;
    *lo = my_lo;
    *hi = my_lo + my_count;
    return true;
  }
  // Cyclic chunks: thread's pos-th chunk starts at (tid + pos*nthreads)*chunk.
  const long start =
      begin + (static_cast<long>(tid) + pos * static_cast<long>(nthreads)) *
                  chunk;
  if (start >= end) return false;
  *lo = start;
  *hi = std::min(end, start + chunk);
  return true;
}

void LoopInstance::enter(unsigned long gen, long begin, long end,
                         ScheduleSpec spec, unsigned nthreads,
                         const unsigned* cluster_of_thread) {
  MutexLock lk(init_mu_);
  // Wait for the previous occupant of this ring slot to fully drain.
  lk.wait(drained_cv_, [&, this]() OMPMCA_REQUIRES(init_mu_) {
    return ready_gen_.load(std::memory_order_relaxed) == gen || !configured_;
  });
  if (!configured_) {
    configured_ = true;
    participants_ = nthreads;
    begin_ = begin;
    end_ = end;
    spec_ = spec;
    if (spec_.kind == Schedule::kRuntime) spec_.kind = Schedule::kStatic;
    if (spec_.chunk <= 0 &&
        (spec_.kind == Schedule::kDynamic || spec_.kind == Schedule::kGuided)) {
      spec_.chunk = 1;
    }
    nthreads_ = nthreads;
    cluster_of_ = cluster_of_thread;
    const long total = end - begin;
    // Distribute only when each thread gets enough chunks to amortise the
    // machinery: a loop with ~one chunk per thread pays the O(nthreads)
    // empty-scan at loop end without ever amortising it, and a single
    // shared fetch_add is cheaper there.
    const long min_iters = kMinChunksPerThread * static_cast<long>(nthreads) *
                           std::max(spec_.chunk, 1L);
    distributed_ = (spec_.kind == Schedule::kDynamic ||
                    spec_.kind == Schedule::kGuided) &&
                   nthreads > 1 && total >= min_iters &&
                   total <= kMaxStealableIters;
    if (distributed_) {
      if (ranges_cap_ < nthreads) {
        ranges_ = std::make_unique<RangeSlot[]>(nthreads);
        ranges_cap_ = nthreads;
      }
      // Pre-slice [0, total) into one contiguous range per thread.  Later
      // arrivers of this generation synchronise on init_mu_, so relaxed
      // stores suffice here.
      for (unsigned t = 0; t < nthreads; ++t) {
        const auto t_lo = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(total) * t / nthreads);
        const auto t_hi = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(total) * (t + 1) / nthreads);
        ranges_[t].range.store(pack(t_lo, t_hi), std::memory_order_relaxed);
      }
    }
    cursor_.store(begin, std::memory_order_relaxed);
    {
      // ordered_next_ belongs to ordered_mu_; this uncontended acquire
      // (no same-generation thread can reach ordered_wait before the
      // ready_gen_ publication below) keeps the field single-lock.
      MutexLock olk(ordered_mu_);
      ordered_next_ = begin;
    }
    ready_gen_.store(gen, std::memory_order_release);
  }
  assert(ready_gen_.load(std::memory_order_relaxed) == gen &&
         "workshare ring overrun: raise kRingSize");
}

std::uint32_t LoopInstance::claim_size(std::uint32_t len) const {
  const auto chunk = static_cast<std::uint32_t>(
      std::min(spec_.chunk, kMaxStealableIters));
  if (spec_.kind == Schedule::kGuided) {
    // Guided decay, localised: half of what this thread still holds, never
    // below the minimum chunk.  Ranges start at ~total/nthreads, so chunk
    // sizes shrink geometrically exactly like the shared-cursor form.
    return std::min(len, std::max(chunk, len / 2));
  }
  return std::min(len, chunk);
}

bool LoopInstance::claim_local(unsigned slot, long* lo, long* hi) {
  std::uint64_t cur = ranges_[slot].range.load(std::memory_order_acquire);
  for (;;) {
    const std::uint32_t r_lo = range_lo(cur);
    const std::uint32_t r_hi = range_hi(cur);
    if (r_lo >= r_hi) return false;
    const std::uint32_t take = claim_size(r_hi - r_lo);
    if (ranges_[slot].range.compare_exchange_weak(cur, pack(r_lo + take, r_hi),
                                                  std::memory_order_acq_rel,
                                                  std::memory_order_acquire)) {
      *lo = begin_ + static_cast<long>(r_lo);
      *hi = begin_ + static_cast<long>(r_lo + take);
      return true;
    }
  }
}

bool LoopInstance::steal_range(unsigned tid, long* lo, long* hi) {
  const unsigned n = nthreads_;
  const unsigned my_cluster = cluster_of_ != nullptr ? cluster_of_[tid] : 0;
  const int passes = cluster_of_ != nullptr ? 2 : 1;
  for (;;) {
    bool any_work = false;
    // Pass 0: victims sharing our cluster's L2; pass 1: across CoreNet.
    for (int pass = 0; pass < passes; ++pass) {
      for (unsigned off = 1; off < n; ++off) {
        const unsigned v = (tid + off) % n;
        const bool local =
            cluster_of_ == nullptr || cluster_of_[v] == my_cluster;
        if (passes == 2 && (pass == 0) != local) continue;
        std::uint64_t cur = ranges_[v].range.load(std::memory_order_acquire);
        for (;;) {
          const std::uint32_t v_lo = range_lo(cur);
          const std::uint32_t v_hi = range_hi(cur);
          if (v_lo >= v_hi) break;
          any_work = true;
          obs::count(obs::Counter::kGompLoopStealAttempt);
          if (obs::trace::verbose()) {
            obs::trace::instant(obs::trace::Type::kStealAttempt, v);
          }
          // Victim keeps the front half (its cache-warm prefix); we take
          // the back half.  A one-iteration range is taken whole.
          const std::uint32_t mid = v_lo + (v_hi - v_lo) / 2;
          if (ranges_[v].range.compare_exchange_weak(
                  cur, pack(v_lo, mid), std::memory_order_acq_rel,
                  std::memory_order_acquire)) {
            obs::count(obs::Counter::kGompLoopSteal);
            obs::count(local ? obs::Counter::kGompLoopStealLocal
                             : obs::Counter::kGompLoopStealRemote);
            if (obs::trace::verbose()) {
              obs::trace::instant(obs::trace::Type::kSteal, v, local ? 1 : 0);
            }
            const std::uint32_t take = claim_size(v_hi - mid);
            if (mid + take < v_hi) {
              // Park the rest in our own slot (empty — that's why we're
              // stealing; only the owner ever refills it).
              ranges_[tid].range.store(pack(mid + take, v_hi),
                                       std::memory_order_release);
            }
            *lo = begin_ + static_cast<long>(mid);
            *hi = begin_ + static_cast<long>(mid + take);
            return true;
          }
          // Lost the race; re-examine this victim with the fresh value.
        }
      }
    }
    if (!any_work) return false;
  }
}

bool LoopInstance::next_chunk(unsigned tid, long* thread_pos, long* lo,
                              long* hi) {
  const bool got = next_chunk_impl(tid, thread_pos, lo, hi);
  // Per-chunk events are full-mode only: a clock read per chunk is
  // measurable on EPCC FOR, and the always-on ring tier must stay cheap.
  if (got && obs::trace::verbose()) {
    obs::trace::instant(obs::trace::Type::kLoopChunk,
                        static_cast<std::uint64_t>(*lo),
                        static_cast<std::uint64_t>(*hi));
  }
  return got;
}

bool LoopInstance::next_chunk_impl(unsigned tid, long* thread_pos, long* lo,
                                   long* hi) {
  switch (spec_.kind) {
    case Schedule::kAuto:
    case Schedule::kStatic: {
      bool got = static_chunk(begin_, end_,
                              spec_.kind == Schedule::kAuto ? 0 : spec_.chunk,
                              tid, nthreads_, *thread_pos, lo, hi);
      if (got) ++*thread_pos;
      return got;
    }
    case Schedule::kDynamic:
    case Schedule::kGuided: {
      if (distributed_) {
        if (claim_local(tid, lo, hi)) return true;
        return steal_range(tid, lo, hi);
      }
      // Shared-cursor fallback (width-1 teams, > 2^31-1 iterations).
      if (spec_.kind == Schedule::kDynamic) {
        long start = cursor_.fetch_add(spec_.chunk, std::memory_order_relaxed);
        if (start >= end_) return false;
        *lo = start;
        *hi = std::min(end_, start + spec_.chunk);
        return true;
      }
      long cur = cursor_.load(std::memory_order_relaxed);
      long next;
      do {
        if (cur >= end_) return false;
        const long remaining = end_ - cur;
        const long size = std::max(
            spec_.chunk, remaining / (2 * static_cast<long>(nthreads_)));
        next = std::min(end_, cur + size);
      } while (!cursor_.compare_exchange_weak(cur, next,
                                              std::memory_order_relaxed));
      *lo = cur;
      *hi = next;
      return true;
    }
    case Schedule::kRuntime:
      break;  // resolved at enter()
  }
  return false;
}

void LoopInstance::leave() {
  // Lock-free for all but the last leaver (one fetch_add); the acq_rel RMW
  // chain makes every leaver's loop reads happen-before the last leaver's
  // reset, which flips configured_ under init_mu_ so a drain-waiter in
  // enter() observes it consistently.  participants_ is read before the
  // RMW: once this thread has counted itself out, the last leaver may hand
  // the slot to the next loop, whose enter() rewrites it.
  const unsigned participants = participants_;
  if (left_.fetch_add(1, std::memory_order_acq_rel) + 1 == participants) {
    {
      MutexLock lk(init_mu_);
      configured_ = false;
      left_.store(0, std::memory_order_relaxed);
    }
    drained_cv_.notify_all();
  }
}

void LoopInstance::ordered_wait(long iter) {
  MutexLock lk(ordered_mu_);
  lk.wait(ordered_cv_, [&, this]() OMPMCA_REQUIRES(ordered_mu_) {
    return ordered_next_ == iter;
  });
}

void LoopInstance::ordered_post() {
  {
    MutexLock lk(ordered_mu_);
    ++ordered_next_;
  }
  ordered_cv_.notify_all();
}

void SectionsInstance::enter(unsigned long gen, int num_sections,
                             unsigned nthreads) {
  MutexLock lk(init_mu_);
  lk.wait(drained_cv_, [&, this]() OMPMCA_REQUIRES(init_mu_) {
    return gen_ == gen || !configured_;
  });
  if (!configured_) {
    gen_ = gen;
    configured_ = true;
    participants_ = nthreads;
    left_ = 0;
    num_sections_ = num_sections;
    cursor_.store(0, std::memory_order_relaxed);
  }
  assert(gen_ == gen && "sections ring overrun");
}

int SectionsInstance::next_section() {
  int idx = cursor_.fetch_add(1, std::memory_order_relaxed);
  return idx < num_sections_ ? idx : -1;
}

void SectionsInstance::leave() {
  MutexLock lk(init_mu_);
  if (++left_ == participants_) {
    configured_ = false;
    lk.unlock();
    drained_cv_.notify_all();
  }
}

}  // namespace ompmca::gomp
