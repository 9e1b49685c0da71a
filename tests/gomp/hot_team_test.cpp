// Hot teams: a repeated fork re-arms the dispatch slot's cached Team
// instead of building a new one.  Reuse must be invisible — every region
// sees fresh per-region state (single, workshare ring, reductions, meters,
// data environment, dependences) whatever ran on the slot before, including
// regions of another width and regions of another master.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "gomp/gomp.hpp"

namespace ompmca::gomp {
namespace {

Runtime make_runtime(BackendKind kind, unsigned threads) {
  RuntimeOptions opts;
  opts.backend = kind;
  Icvs icvs;
  icvs.num_threads = threads;
  icvs.nested = true;
  icvs.max_active_levels = 2;
  opts.icvs = icvs;
  return Runtime(opts);
}

// Back-to-back widths 4/3/4/2, each run twice: the second region of a pair
// re-arms the team the first one left on the slot, the width change after
// it forces a rebuild.
constexpr std::array<unsigned, 8> kWidths = {4, 4, 3, 3, 4, 4, 2, 2};

/// One region of width @p width running every per-region construct once
/// and checking it; false when any construct saw state from an earlier
/// region (a stale single counter, loop or sections slot, or reduction).
bool checked_region(Runtime& rt, unsigned width) {
  constexpr long kIters = 257;
  std::array<std::atomic<int>, kIters> static_hits{};
  std::array<std::atomic<int>, kIters> dynamic_hits{};
  std::array<std::atomic<int>, 5> section_hits{};
  std::atomic<int> singles{0};
  std::atomic<unsigned> team_width{0};
  std::atomic<bool> sums_ok{true};
  rt.parallel(
      [&](ParallelContext& ctx) {
        if (ctx.thread_num() == 0) team_width = ctx.num_threads();
        ctx.single([&] { singles.fetch_add(1); });
        ctx.for_loop(0, kIters, [&](long lo, long hi) {
          for (long i = lo; i < hi; ++i) static_hits[i].fetch_add(1);
        });
        ctx.for_loop(
            0, kIters,
            [&](long lo, long hi) {
              for (long i = lo; i < hi; ++i) dynamic_hits[i].fetch_add(1);
            },
            ScheduleSpec{Schedule::kDynamic, 3}, /*nowait=*/true);
        ctx.sections({[&] { section_hits[0].fetch_add(1); },
                      [&] { section_hits[1].fetch_add(1); },
                      [&] { section_hits[2].fetch_add(1); },
                      [&] { section_hits[3].fetch_add(1); },
                      [&] { section_hits[4].fetch_add(1); }});
        const long sum = ctx.reduce_sum(static_cast<long>(ctx.thread_num()));
        const long n = ctx.num_threads();
        if (sum != n * (n - 1) / 2) sums_ok = false;
      },
      width);
  bool ok = true;
  auto expect = [&ok](bool cond) { ok = ok && cond; };
  expect(team_width.load() == width);
  expect(singles.load() == 1);
  expect(sums_ok.load());
  for (long i = 0; i < kIters; ++i) {
    expect(static_hits[i].load() == 1);
    expect(dynamic_hits[i].load() == 1);
  }
  for (auto& h : section_hits) expect(h.load() == 1);
  return ok;
}

class HotTeamTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(HotTeamTest, MixedWidthsFromOneMaster) {
  Runtime rt = make_runtime(GetParam(), 4);
  for (int round = 0; round < 25; ++round) {
    for (unsigned w : kWidths) {
      ASSERT_TRUE(checked_region(rt, w)) << "round " << round << " width " << w;
    }
  }
}

TEST_P(HotTeamTest, MixedWidthsFromTwoConcurrentMasters) {
  Runtime rt = make_runtime(GetParam(), 4);
  std::atomic<int> failures{0};
  std::vector<std::thread> masters;
  for (int m = 0; m < 2; ++m) {
    masters.emplace_back([&rt, &failures, m] {
      for (int round = 0; round < 25; ++round) {
        for (std::size_t k = 0; k < kWidths.size(); ++k) {
          // The two masters walk the sequence out of phase, so a slot's
          // team alternates between widths and owners.
          const unsigned w = kWidths[(k + 2 * static_cast<std::size_t>(m)) %
                                     kWidths.size()];
          if (!checked_region(rt, w)) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : masters) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(HotTeamTest, LastRegionMetersHoldOnlyTheLastRegion) {
  Runtime rt = make_runtime(GetParam(), 4);
  for (int k = 1; k <= 8; ++k) {
    const unsigned w = kWidths[static_cast<std::size_t>(k - 1)];
    rt.parallel(
        [&](ParallelContext& ctx) {
          ctx.meter().flops += k * 10.0 + ctx.thread_num();
        },
        w);
    const std::vector<platform::Work>& meters = rt.last_region_meters();
    ASSERT_EQ(meters.size(), w) << "region " << k;
    for (unsigned t = 0; t < w; ++t) {
      EXPECT_EQ(meters[t].flops, k * 10.0 + t) << "region " << k << " tid "
                                               << t;
    }
  }
}

TEST_P(HotTeamTest, EnvChangeInsideRegionDoesNotLeakIntoNext) {
  Runtime rt = make_runtime(GetParam(), 4);
  for (int k = 0; k < 10; ++k) {
    // The master's nthreads-var changes between regions while the team
    // width (and so the reused team) stays 4.
    const int nvar = 2 + k % 2;
    omp_set_num_threads(rt, nvar);
    std::atomic<int> wrong_env{0};
    std::atomic<unsigned> width{0};
    rt.parallel(
        [&](ParallelContext& ctx) {
          if (ctx.thread_num() == 0) width = ctx.num_threads();
          // Every thread starts from the master's fork-time nthreads-var,
          // never from what it or a thread before it set last region.
          if (omp_get_max_threads(rt) != nvar) wrong_env.fetch_add(1);
          omp_set_num_threads(rt, 1);
          if (omp_get_max_threads(rt) != 1) wrong_env.fetch_add(1);
        },
        4);
    EXPECT_EQ(width.load(), 4u) << "region " << k;
    EXPECT_EQ(wrong_env.load(), 0) << "region " << k;
    EXPECT_EQ(omp_get_max_threads(rt), nvar) << "region " << k;
  }
}

TEST_P(HotTeamTest, DependChainsOnOneAddressStayOrderedAcrossRegions) {
  Runtime rt = make_runtime(GetParam(), 4);
  int cell = 0;  // the depend address every region reuses
  for (int k = 0; k < 20; ++k) {
    std::vector<int> order;
    // Every task holds a copy; the dependence table keeps completed tasks,
    // so the count drops back to 1 only if region end released them.
    auto token = std::make_shared<int>(k);
    rt.parallel([&](ParallelContext& ctx) {
      ctx.single([&] {
        for (int i = 0; i < 16; ++i) {
          ctx.task_depend([&order, i, token] { order.push_back(i); }, {},
                          {&cell});
        }
      });
    });
    ASSERT_EQ(order.size(), 16u) << "region " << k;
    for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i) << "region " << k;
    EXPECT_EQ(token.use_count(), 1) << "region " << k;
  }
}

TEST_P(HotTeamTest, NestedTwoInTwoRegionsStayCorrect) {
  Runtime rt = make_runtime(GetParam(), 2);
  for (int k = 0; k < 50; ++k) {
    std::atomic<int> inner_singles{0};
    std::atomic<int> bad{0};
    rt.parallel([&](ParallelContext& outer) {
      rt.parallel(
          [&](ParallelContext& inner) {
            if (inner.num_threads() != 2 || inner.level() != 2) {
              bad.fetch_add(1);
            }
            inner.single([&] { inner_singles.fetch_add(1); });
            if (inner.reduce_sum(1) != 2) bad.fetch_add(1);
          },
          2);
      if (outer.level() != 1) bad.fetch_add(1);
    });
    EXPECT_EQ(inner_singles.load(), 2) << "region " << k;
    EXPECT_EQ(bad.load(), 0) << "region " << k;
  }
}

// The barrier is laid out per cluster, so a re-armed team whose map moved
// and spans more than one cluster, before or after, gets a new barrier.
TEST_P(HotTeamTest, MovedMultiClusterMapRebuildsTheBarrier) {
  Runtime rt = make_runtime(GetParam(), 6);
  auto groups = [&rt] {
    unsigned g = 0;
    rt.parallel([&g](ParallelContext& ctx) {
      if (ctx.thread_num() == 0) {
        g = ctx.team().team_barrier()->num_cluster_groups();
      }
      ctx.barrier();
    });
    return g;
  };
  EXPECT_EQ(groups(), 3u);  // spread: two threads in each T4240 cluster
  rt.icvs().proc_bind = ProcBind::kClose;
  EXPECT_EQ(groups(), 1u);  // close: all six in cluster 0
  rt.icvs().proc_bind = ProcBind::kSpread;
  EXPECT_EQ(groups(), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    BothBackends, HotTeamTest,
    ::testing::Values(BackendKind::kNative, BackendKind::kMca),
    [](const ::testing::TestParamInfo<BackendKind>& param_info) {
      return std::string(to_string(param_info.param));
    });

}  // namespace
}  // namespace ompmca::gomp
