// Zero-allocation fork: once a dispatch slot's hot team exists, a region of
// the same shape must not touch the heap or the environment — no Team, no
// make_barrier, no TaskDeque, no getenv.  This binary replaces the global
// operator new/delete and getenv with counting versions (one process-wide
// count, so worker threads are counted too) and asserts a zero count over
// long runs of warm regions, on both backends.
//
// Own binary on purpose: the replacements are process-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "gomp/gomp.hpp"

extern char** environ;

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long> g_allocs{0};
std::atomic<long> g_getenvs{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n != 0 ? n : 1);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  const auto a = static_cast<std::size_t>(align);
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     n != 0 ? n : 1) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, a)) return p;
  throw std::bad_alloc();
}
// Every operator new above is malloc/posix_memalign underneath, so free is
// the matching release; GCC cannot see that through the replacement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

// Counting getenv: TaskSystem's tuning knobs are read at construction, so a
// getenv on a warm fork means something was rebuilt.  Scans environ itself
// rather than forwarding, so it needs no dynamic-loader lookup.
extern "C" char* getenv(const char* name) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_getenvs.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t len = std::strlen(name);
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, name, len) == 0 && (*e)[len] == '=') {
      return *e + len + 1;
    }
  }
  return nullptr;
}

namespace ompmca::gomp {
namespace {

struct Counts {
  long allocs;
  long getenvs;
};

/// Runs @p fn a few times uncounted (the warm-up that builds the hot teams
/// and grows every lazily sized buffer), then @p reps times counted.
template <typename Fn>
Counts count_after_warmup(Fn fn, int reps) {
  for (int i = 0; i < 3; ++i) fn();
  g_allocs = 0;
  g_getenvs = 0;
  g_counting = true;
  for (int i = 0; i < reps; ++i) fn();
  g_counting = false;
  return Counts{g_allocs.load(), g_getenvs.load()};
}

Runtime make_runtime(BackendKind kind) {
  RuntimeOptions opts;
  opts.backend = kind;
  Icvs icvs;
  icvs.num_threads = 4;
  icvs.nested = true;
  icvs.max_active_levels = 2;
  opts.icvs = icvs;
  return Runtime(opts);
}

class ZeroAllocForkTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(ZeroAllocForkTest, EmptyWidth4Regions) {
  Runtime rt = make_runtime(GetParam());
  const Counts c =
      count_after_warmup([&] { rt.parallel([](ParallelContext&) {}); }, 1000);
  EXPECT_EQ(c.allocs, 0);
  EXPECT_EQ(c.getenvs, 0);
}

TEST_P(ZeroAllocForkTest, ConstructMixRegions) {
  Runtime rt = make_runtime(GetParam());
  std::atomic<long> sink{0};
  std::atomic<bool> wrong{false};
  auto region = [&] {
    rt.parallel([&](ParallelContext& ctx) {
      long local = 0;
      ctx.for_loop(0, 400, [&](long lo, long hi) { local += hi - lo; });
      ctx.for_loop(
          0, 400, [&](long lo, long hi) { local += hi - lo; },
          ScheduleSpec{Schedule::kDynamic, 4});
      ctx.single([&] { sink.fetch_add(1, std::memory_order_relaxed); });
      ctx.critical([&] { sink.fetch_add(1, std::memory_order_relaxed); });
      if (ctx.reduce_sum(local) != 800) wrong = true;
      ctx.barrier();
    });
  };
  const Counts c = count_after_warmup(region, 1000);
  EXPECT_FALSE(wrong.load());
  EXPECT_EQ(c.allocs, 0);
  EXPECT_EQ(c.getenvs, 0);
}

TEST_P(ZeroAllocForkTest, NestedTwoInTwoReusesItsTeams) {
  Runtime rt = make_runtime(GetParam());
  std::atomic<int> inner_threads{0};
  auto region = [&] {
    rt.parallel(
        [&](ParallelContext&) {
          rt.parallel(
              [&](ParallelContext& inner) {
                inner_threads.fetch_add(1, std::memory_order_relaxed);
                inner.barrier();
              },
              2);
        },
        2);
  };
  const Counts c = count_after_warmup(region, 1000);
  EXPECT_EQ(inner_threads.load(), 4 * 1003);
  EXPECT_EQ(c.allocs, 0);
  EXPECT_EQ(c.getenvs, 0);
}

INSTANTIATE_TEST_SUITE_P(
    BothBackends, ZeroAllocForkTest,
    ::testing::Values(BackendKind::kNative, BackendKind::kMca),
    [](const ::testing::TestParamInfo<BackendKind>& param_info) {
      return std::string(to_string(param_info.param));
    });

}  // namespace
}  // namespace ompmca::gomp
