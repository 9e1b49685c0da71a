#include "gomp/workshare.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

namespace ompmca::gomp {
namespace {

// --- static_chunk: pure function, exhaustive properties -----------------------

struct StaticCase {
  long begin, end, chunk;
  unsigned nthreads;
};

class StaticChunkTest : public ::testing::TestWithParam<StaticCase> {};

TEST_P(StaticChunkTest, PartitionIsExactCover) {
  const auto c = GetParam();
  std::vector<int> hits(static_cast<std::size_t>(c.end - c.begin), 0);
  for (unsigned tid = 0; tid < c.nthreads; ++tid) {
    long pos = 0;
    long lo = 0, hi = 0;
    while (static_chunk(c.begin, c.end, c.chunk, tid, c.nthreads, pos, &lo,
                        &hi)) {
      ++pos;
      ASSERT_LE(c.begin, lo);
      ASSERT_LT(lo, hi);
      ASSERT_LE(hi, c.end);
      for (long i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i - c.begin)];
      if (c.chunk <= 0) break;  // block schedule: single chunk per thread
    }
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "iteration " << (c.begin + static_cast<long>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StaticChunkTest,
    ::testing::Values(StaticCase{0, 100, 0, 1}, StaticCase{0, 100, 0, 3},
                      StaticCase{0, 100, 0, 24}, StaticCase{0, 7, 0, 24},
                      StaticCase{5, 105, 0, 8}, StaticCase{0, 100, 1, 4},
                      StaticCase{0, 100, 7, 4}, StaticCase{0, 99, 10, 3},
                      StaticCase{-50, 50, 13, 5}, StaticCase{0, 1, 0, 2},
                      StaticCase{0, 24, 1, 24}, StaticCase{0, 23, 4, 24}));

TEST(StaticChunk, EmptyRange) {
  long lo, hi;
  EXPECT_FALSE(static_chunk(10, 10, 0, 0, 4, 0, &lo, &hi));
  EXPECT_FALSE(static_chunk(10, 5, 0, 0, 4, 0, &lo, &hi));
}

TEST(StaticChunk, BlockRemainderGoesToFirstThreads) {
  // 10 iterations over 4 threads: 3,3,2,2.
  long lo, hi;
  ASSERT_TRUE(static_chunk(0, 10, 0, 0, 4, 0, &lo, &hi));
  EXPECT_EQ(hi - lo, 3);
  ASSERT_TRUE(static_chunk(0, 10, 0, 1, 4, 0, &lo, &hi));
  EXPECT_EQ(hi - lo, 3);
  ASSERT_TRUE(static_chunk(0, 10, 0, 2, 4, 0, &lo, &hi));
  EXPECT_EQ(hi - lo, 2);
  ASSERT_TRUE(static_chunk(0, 10, 0, 3, 4, 0, &lo, &hi));
  EXPECT_EQ(hi - lo, 2);
}

TEST(StaticChunk, CyclicAssignsRoundRobin) {
  // chunk=2, 3 threads: thread 1's chunks are [2,4), [8,10), ...
  long lo, hi;
  ASSERT_TRUE(static_chunk(0, 12, 2, 1, 3, 0, &lo, &hi));
  EXPECT_EQ(lo, 2);
  EXPECT_EQ(hi, 4);
  ASSERT_TRUE(static_chunk(0, 12, 2, 1, 3, 1, &lo, &hi));
  EXPECT_EQ(lo, 8);
  EXPECT_EQ(hi, 10);
  EXPECT_FALSE(static_chunk(0, 12, 2, 1, 3, 2, &lo, &hi));
}

// --- LoopInstance: concurrent schedules cover every iteration exactly once ----

struct LoopCase {
  Schedule kind;
  long chunk;
  unsigned nthreads;
  long iterations;
};

class LoopInstanceTest : public ::testing::TestWithParam<LoopCase> {};

TEST_P(LoopInstanceTest, ChunksCoverRangeExactlyOnce) {
  const auto c = GetParam();
  LoopInstance loop;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(c.iterations));
  for (auto& h : hits) h.store(0);

  auto worker = [&](unsigned tid) {
    loop.enter(/*gen=*/0, 0, c.iterations, ScheduleSpec{c.kind, c.chunk},
               c.nthreads);
    long pos = 0, lo = 0, hi = 0;
    while (loop.next_chunk(tid, &pos, &lo, &hi, false)) {
      ASSERT_LE(0, lo);
      ASSERT_LT(lo, hi);
      ASSERT_LE(hi, c.iterations);
      for (long i = lo; i < hi; ++i)
        hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
    loop.leave();
  };

  std::vector<std::thread> threads;
  for (unsigned t = 1; t < c.nthreads; ++t) threads.emplace_back(worker, t);
  worker(0);
  for (auto& t : threads) t.join();

  for (long i = 0; i < c.iterations; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
        << "iteration " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, LoopInstanceTest,
    ::testing::Values(
        LoopCase{Schedule::kStatic, 0, 4, 1000},
        LoopCase{Schedule::kStatic, 7, 4, 1000},
        LoopCase{Schedule::kStatic, 0, 24, 10},
        LoopCase{Schedule::kDynamic, 1, 4, 1000},
        LoopCase{Schedule::kDynamic, 16, 8, 1000},
        LoopCase{Schedule::kGuided, 1, 4, 1000},
        LoopCase{Schedule::kGuided, 8, 8, 5000},
        LoopCase{Schedule::kAuto, 0, 6, 999},
        LoopCase{Schedule::kDynamic, 1000, 4, 10}),
    [](const ::testing::TestParamInfo<LoopCase>& param_info) {
      const auto& c = param_info.param;
      return std::string(to_string(c.kind)) + "_c" +
             std::to_string(c.chunk) + "_t" + std::to_string(c.nthreads) +
             "_n" + std::to_string(c.iterations);
    });

TEST(LoopInstance, GuidedChunksDecrease) {
  LoopInstance loop;
  loop.enter(0, 0, 10000, ScheduleSpec{Schedule::kGuided, 1}, 4);
  long pos = 0, lo = 0, hi = 0;
  long first = 0, last = 0;
  bool first_seen = false;
  while (loop.next_chunk(0, &pos, &lo, &hi, false)) {
    if (!first_seen) {
      first = hi - lo;
      first_seen = true;
    }
    last = hi - lo;
  }
  loop.leave();
  EXPECT_GT(first, last);
  EXPECT_EQ(last, 1);  // converges to the minimum chunk
}

TEST(LoopInstance, RingReuseAcrossGenerations) {
  LoopInstance loop;
  for (unsigned long gen = 0; gen < 5; ++gen) {
    loop.enter(gen, 0, 10, ScheduleSpec{}, 1);
    long pos = 0, lo, hi;
    ASSERT_TRUE(loop.next_chunk(0, &pos, &lo, &hi, false));
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 10);
    loop.leave();
  }
}

// --- SectionsInstance ----------------------------------------------------------

TEST(Sections, EachSectionRunsOnce) {
  SectionsInstance ws;
  const int kSections = 10;
  std::vector<std::atomic<int>> hits(kSections);
  for (auto& h : hits) h.store(0);
  auto worker = [&](unsigned /*tid*/) {
    ws.enter(0, kSections, 4);
    for (;;) {
      int idx = ws.next_section();
      if (idx < 0) break;
      hits[static_cast<std::size_t>(idx)].fetch_add(1);
    }
    ws.leave();
  };
  std::vector<std::thread> threads;
  for (unsigned t = 1; t < 4; ++t) threads.emplace_back(worker, t);
  worker(0);
  for (auto& t : threads) t.join();
  for (int i = 0; i < kSections; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Sections, MoreThreadsThanSections) {
  SectionsInstance ws;
  std::atomic<int> total{0};
  auto worker = [&](unsigned) {
    ws.enter(0, 2, 6);
    for (;;) {
      int idx = ws.next_section();
      if (idx < 0) break;
      total.fetch_add(1);
    }
    ws.leave();
  };
  std::vector<std::thread> threads;
  for (unsigned t = 1; t < 6; ++t) threads.emplace_back(worker, t);
  worker(0);
  for (auto& t : threads) t.join();
  EXPECT_EQ(total.load(), 2);
}

}  // namespace
}  // namespace ompmca::gomp
