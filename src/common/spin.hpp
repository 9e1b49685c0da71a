// Bounded spin-then-yield backoff.
//
// On the paper's board, runtime wait loops spin briefly (threads own a HW
// thread) before blocking.  On an oversubscribed host, unbounded spinning
// livelocks, so every wait loop in this project uses this helper: a few
// pause iterations, then escalating yields.
#pragma once

#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace ompmca {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#elif defined(__powerpc64__) || defined(__powerpc__)
  // "or 27,27,27": the Power ISA low-priority hint (the e6500 drops the
  // spinning SMT lane's dispatch priority so its sibling keeps the core).
  asm volatile("or 27,27,27" ::: "memory");
#else
  // Fallback: a compiler barrier so the loop is not optimised out.
  asm volatile("" ::: "memory");
#endif
}

/// Escalating backoff: spin a handful of times, then yield to the OS.
class Backoff {
 public:
  /// Pauses before the first yield.  On a 4-vCPU x86 host, 64 and 65536
  /// measured the same width-4 empty region and in-region barrier
  /// (fork_vs_libgomp, Release, active wait), so one constant serves every
  /// wait loop.
  static constexpr int kSpinLimit = 64;

  void pause() {
    if (count_ < kSpinLimit) {
      ++count_;
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }

  void reset() { count_ = 0; }

 private:
  int count_ = 0;
};

}  // namespace ompmca
