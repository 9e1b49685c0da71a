// End-to-end runtime semantics, parameterized over both system backends —
// every behaviour here must be identical under "stock libGOMP" (native) and
// "MCA-libGOMP" (mca), which is the paper's core claim.
#include "gomp/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include "gomp/backend_native.hpp"
#include "gomp/gomp.hpp"
#include "mrapi/database.hpp"

namespace ompmca::gomp {
namespace {

RuntimeOptions options_for(BackendKind kind, unsigned threads = 8) {
  RuntimeOptions opts;
  opts.backend = kind;
  Icvs icvs;
  icvs.num_threads = threads;
  opts.icvs = icvs;
  return opts;
}

class RuntimeBackendTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  std::unique_ptr<Runtime> make_runtime(unsigned threads = 8) {
    return std::make_unique<Runtime>(options_for(GetParam(), threads));
  }
};

TEST_P(RuntimeBackendTest, ParallelRunsAllThreadsOnce) {
  auto rt = make_runtime(8);
  std::vector<std::atomic<int>> hits(8);
  for (auto& h : hits) h.store(0);
  rt->parallel([&](ParallelContext& ctx) {
    EXPECT_EQ(ctx.num_threads(), 8u);
    hits[ctx.thread_num()].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(RuntimeBackendTest, NumThreadsClauseOverridesIcv) {
  auto rt = make_runtime(8);
  std::atomic<unsigned> seen{0};
  rt->parallel([&](ParallelContext& ctx) { seen = ctx.num_threads(); }, 3);
  EXPECT_EQ(seen.load(), 3u);
}

TEST_P(RuntimeBackendTest, RepeatedRegionsReuseSemantics) {
  auto rt = make_runtime(4);
  for (int r = 0; r < 50; ++r) {
    std::atomic<int> count{0};
    rt->parallel([&](ParallelContext&) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 4);
  }
}

TEST_P(RuntimeBackendTest, ParallelForSumsCorrectly) {
  auto rt = make_runtime(8);
  const long n = 100000;
  std::vector<double> data(n, 1.0);
  std::atomic<long> touched{0};
  rt->parallel_for(0, n, [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) data[i] *= 2.0;
    touched.fetch_add(hi - lo);
  });
  EXPECT_EQ(touched.load(), n);
  EXPECT_DOUBLE_EQ(std::accumulate(data.begin(), data.end(), 0.0), 2.0 * n);
}

TEST_P(RuntimeBackendTest, ForLoopAllSchedules) {
  auto rt = make_runtime(6);
  for (Schedule kind : {Schedule::kStatic, Schedule::kDynamic,
                        Schedule::kGuided, Schedule::kAuto}) {
    const long n = 10007;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    rt->parallel([&](ParallelContext& ctx) {
      ctx.for_loop(
          0, n,
          [&](long lo, long hi) {
            for (long i = lo; i < hi; ++i) hits[i].fetch_add(1);
          },
          ScheduleSpec{kind, kind == Schedule::kStatic ? 5 : 3});
    });
    for (long i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << to_string(kind) << " iter " << i;
    }
  }
}

TEST_P(RuntimeBackendTest, RuntimeScheduleUsesIcv) {
  auto opts = options_for(GetParam(), 4);
  opts.icvs->run_schedule = ScheduleSpec{Schedule::kDynamic, 2};
  Runtime rt(opts);
  std::atomic<long> covered{0};
  rt.parallel([&](ParallelContext& ctx) {
    ctx.for_loop(
        0, 1000, [&](long lo, long hi) { covered.fetch_add(hi - lo); },
        ScheduleSpec{Schedule::kRuntime, 0});
  });
  EXPECT_EQ(covered.load(), 1000);
}

TEST_P(RuntimeBackendTest, ConsecutiveNowaitLoops) {
  auto rt = make_runtime(4);
  const long n = 1000;
  std::vector<std::atomic<int>> a(n), b(n), c(n);
  for (long i = 0; i < n; ++i) {
    a[i].store(0);
    b[i].store(0);
    c[i].store(0);
  }
  rt->parallel([&](ParallelContext& ctx) {
    ctx.for_loop(0, n, [&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) a[i].fetch_add(1);
    }, {}, /*nowait=*/true);
    ctx.for_loop(0, n, [&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) b[i].fetch_add(1);
    }, {}, /*nowait=*/true);
    ctx.for_loop(0, n, [&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) c[i].fetch_add(1);
    }, {}, /*nowait=*/true);
  });
  for (long i = 0; i < n; ++i) {
    ASSERT_EQ(a[i].load(), 1);
    ASSERT_EQ(b[i].load(), 1);
    ASSERT_EQ(c[i].load(), 1);
  }
}

TEST_P(RuntimeBackendTest, BarrierSeparatesPhases) {
  auto rt = make_runtime(6);
  std::vector<int> phase1(6, 0);
  std::atomic<bool> violation{false};
  rt->parallel([&](ParallelContext& ctx) {
    phase1[ctx.thread_num()] = 1;
    ctx.barrier();
    for (int v : phase1) {
      if (v != 1) violation.store(true);
    }
  });
  EXPECT_FALSE(violation.load());
}

TEST_P(RuntimeBackendTest, SingleExecutesExactlyOnce) {
  auto rt = make_runtime(8);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    std::atomic<int> after{0};
    rt->parallel([&](ParallelContext& ctx) {
      ctx.single([&] { count.fetch_add(1); });
      // The implicit barrier of single() guarantees visibility here.
      if (count.load() != 1) after.fetch_add(1);
    });
    ASSERT_EQ(count.load(), 1);
    ASSERT_EQ(after.load(), 0);
  }
}

TEST_P(RuntimeBackendTest, SequenceOfSinglesDistributes) {
  auto rt = make_runtime(4);
  std::atomic<int> total{0};
  rt->parallel([&](ParallelContext& ctx) {
    for (int i = 0; i < 20; ++i) {
      ctx.single([&] { total.fetch_add(1); });
    }
  });
  EXPECT_EQ(total.load(), 20);
}

TEST_P(RuntimeBackendTest, MasterOnlyThreadZero) {
  auto rt = make_runtime(8);
  std::atomic<int> count{0};
  std::atomic<unsigned> who{999};
  rt->parallel([&](ParallelContext& ctx) {
    ctx.master([&] {
      count.fetch_add(1);
      who.store(ctx.thread_num());
    });
  });
  EXPECT_EQ(count.load(), 1);
  EXPECT_EQ(who.load(), 0u);
}

TEST_P(RuntimeBackendTest, CriticalProvidesMutualExclusion) {
  auto rt = make_runtime(8);
  long counter = 0;  // unsynchronized on purpose: critical must protect it
  rt->parallel([&](ParallelContext& ctx) {
    for (int i = 0; i < 1000; ++i) {
      ctx.critical([&] { ++counter; });
    }
  });
  EXPECT_EQ(counter, 8000);
}

TEST_P(RuntimeBackendTest, NamedCriticalsAreIndependentLocks) {
  auto rt = make_runtime(4);
  long a = 0, b = 0;
  rt->parallel([&](ParallelContext& ctx) {
    for (int i = 0; i < 500; ++i) {
      ctx.critical("lock_a", [&] { ++a; });
      ctx.critical("lock_b", [&] { ++b; });
    }
  });
  EXPECT_EQ(a, 2000);
  EXPECT_EQ(b, 2000);
}

TEST_P(RuntimeBackendTest, ReductionSumDeterministic) {
  auto rt = make_runtime(8);
  double result = 0.0;
  rt->parallel([&](ParallelContext& ctx) {
    double local = 0.0;
    ctx.for_loop(1, 1001, [&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) local += static_cast<double>(i);
    }, {}, /*nowait=*/true);
    double total = ctx.reduce_sum(local);
    if (ctx.thread_num() == 0) result = total;
  });
  EXPECT_DOUBLE_EQ(result, 500500.0);
}

TEST_P(RuntimeBackendTest, ReductionMinMax) {
  auto rt = make_runtime(6);
  long max_val = 0, min_val = 0;
  rt->parallel([&](ParallelContext& ctx) {
    long tid = static_cast<long>(ctx.thread_num());
    long mx = ctx.reduce_max(tid * 10 + 1);
    long mn = ctx.reduce_min(tid * 10 + 1);
    if (tid == 0) {
      max_val = mx;
      min_val = mn;
    }
  });
  EXPECT_EQ(max_val, 51);
  EXPECT_EQ(min_val, 1);
}

TEST_P(RuntimeBackendTest, ReductionCustomOpStruct) {
  struct MinMax {
    double lo, hi;
  };
  auto rt = make_runtime(5);
  MinMax out{0, 0};
  rt->parallel([&](ParallelContext& ctx) {
    double v = static_cast<double>(ctx.thread_num());
    MinMax local{v, v};
    MinMax all = ctx.reduce(local, [](MinMax a, MinMax b) {
      return MinMax{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
    });
    if (ctx.thread_num() == 0) out = all;
  });
  EXPECT_DOUBLE_EQ(out.lo, 0.0);
  EXPECT_DOUBLE_EQ(out.hi, 4.0);
}

TEST_P(RuntimeBackendTest, SectionsRunEachBodyOnce) {
  auto rt = make_runtime(4);
  std::atomic<int> s1{0}, s2{0}, s3{0};
  rt->parallel([&](ParallelContext& ctx) {
    // FunctionRef is non-owning: the lambdas must be named lvalues that
    // outlive the sections call.
    auto b1 = [&s1] { s1.fetch_add(1); };
    auto b2 = [&s2] { s2.fetch_add(1); };
    auto b3 = [&s3] { s3.fetch_add(1); };
    ctx.sections({FunctionRef<void()>(b1), FunctionRef<void()>(b2),
                  FunctionRef<void()>(b3)});
  });
  EXPECT_EQ(s1.load(), 1);
  EXPECT_EQ(s2.load(), 1);
  EXPECT_EQ(s3.load(), 1);
}

TEST_P(RuntimeBackendTest, OrderedExecutesInIterationOrder) {
  auto rt = make_runtime(4);
  std::vector<long> order;
  rt->parallel([&](ParallelContext& ctx) {
    ctx.for_loop_ordered(
        0, 100,
        [&](long lo, long hi) {
          for (long i = lo; i < hi; ++i) {
            ctx.ordered(i, [&] { order.push_back(i); });
          }
        },
        ScheduleSpec{Schedule::kDynamic, 1});
  });
  ASSERT_EQ(order.size(), 100u);
  for (long i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST_P(RuntimeBackendTest, NestedParallelSerializesByDefault) {
  auto rt = make_runtime(4);
  std::atomic<int> inner_sizes{0};
  rt->parallel([&](ParallelContext&) {
    rt->parallel([&](ParallelContext& inner) {
      if (inner.num_threads() == 1) inner_sizes.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_sizes.load(), 4);
}

TEST_P(RuntimeBackendTest, NestedParallelWhenEnabled) {
  auto opts = options_for(GetParam(), 3);
  opts.icvs->nested = true;
  opts.icvs->max_active_levels = 2;
  Runtime rt(opts);
  std::atomic<int> total{0};
  rt.parallel([&](ParallelContext&) {
    rt.parallel([&](ParallelContext&) { total.fetch_add(1); }, 2);
  });
  EXPECT_EQ(total.load(), 6);  // 3 outer x 2 inner
}

TEST_P(RuntimeBackendTest, MetersAccumulatePerThread) {
  auto rt = make_runtime(4);
  rt->parallel([&](ParallelContext& ctx) {
    ctx.meter().flops += 100.0 * (ctx.thread_num() + 1);
    ctx.meter().bytes += 10.0;
  });
  const auto& meters = rt->last_region_meters();
  ASSERT_EQ(meters.size(), 4u);
  for (unsigned t = 0; t < 4; ++t) {
    EXPECT_DOUBLE_EQ(meters[t].flops, 100.0 * (t + 1));
    EXPECT_DOUBLE_EQ(meters[t].bytes, 10.0);
  }
}

// The team barrier gets one group per occupied cluster: a close-bound
// 6-wide team packs into one T4240 cluster, a spread-bound one scatters two
// threads into each of the three.  Both shapes must separate phases.
TEST_P(RuntimeBackendTest, BarrierGroupsFollowPlacement) {
  for (ProcBind bind : {ProcBind::kClose, ProcBind::kSpread}) {
    auto opts = options_for(GetParam(), 6);
    opts.icvs->proc_bind = bind;
    Runtime rt(opts);
    std::atomic<long> total{0};
    std::atomic<bool> violation{false};
    rt.parallel([&](ParallelContext& ctx) {
      if (ctx.thread_num() == 0) {
        EXPECT_EQ(ctx.team().team_barrier()->num_cluster_groups(),
                  bind == ProcBind::kClose ? 1u : 3u);
      }
      for (long phase = 0; phase < 10; ++phase) {
        total.fetch_add(1);
        ctx.barrier();
        if (total.load() < 6 * (phase + 1)) violation.store(true);
      }
    });
    EXPECT_EQ(total.load(), 60);
    EXPECT_FALSE(violation.load());
  }
}

TEST_P(RuntimeBackendTest, WidthOneTeamTakesFastPath) {
  auto rt = make_runtime(4);
  // A width-1 region constructs no barrier at all and never touches the
  // worker pool; barriers and loops inside it must still be no-ops.
  int runs = 0;
  rt->parallel(
      [&](ParallelContext& ctx) {
        EXPECT_EQ(ctx.num_threads(), 1u);
        EXPECT_EQ(ctx.team().team_barrier(), nullptr);
        ctx.barrier();  // must not hang
        long sum = 0;
        ctx.for_loop(0, 100, [&](long lo, long hi) { sum += hi - lo; });
        EXPECT_EQ(sum, 100);
        ++runs;
      },
      1);
  EXPECT_EQ(runs, 1);

  // Nested width-1 regions (the common "nested disabled" shape) take the
  // same fast path at every level.
  std::atomic<int> inner_runs{0};
  rt->parallel([&](ParallelContext& outer_ctx) {
    outer_ctx.runtime().parallel(
        [&](ParallelContext& inner) {
          EXPECT_EQ(inner.team().team_barrier(), nullptr);
          inner.barrier();
          inner_runs.fetch_add(1);
        },
        1);
  });
  EXPECT_EQ(inner_runs.load(), 4);
}

TEST_P(RuntimeBackendTest, NestedTeamGetsBubblePlacement) {
  // A nested team narrow enough to fit one cluster is pinned inside a
  // single cluster (preferably the master's) instead of scattering.
  auto opts = options_for(GetParam(), 3);
  opts.icvs->nested = true;
  opts.icvs->max_active_levels = 2;
  Runtime rt(opts);
  ASSERT_TRUE(rt.nested_bubble());
  std::atomic<int> bubbled{0}, inner_total{0};
  rt.parallel([&](ParallelContext& ctx) {
    ctx.runtime().parallel(
        [&](ParallelContext& inner) {
          inner_total.fetch_add(1);
          Team& team = inner.team();
          if (inner.thread_num() == 0 && team.bubble_cluster().has_value()) {
            bubbled.fetch_add(1);
            const unsigned home = *team.bubble_cluster();
            for (unsigned t = 0; t < inner.num_threads(); ++t) {
              EXPECT_EQ(team.cluster_of_thread(t), home);
            }
            // Single-cluster team: one barrier group, no top tier.
            EXPECT_EQ(team.team_barrier()->num_cluster_groups(), 1u);
          }
          inner.barrier();
        },
        2);
  });
  EXPECT_EQ(inner_total.load(), 3 * 2);
  // Three clusters of capacity 8 can hold three 2-wide bubbles: every
  // nested team must have been placed.
  EXPECT_EQ(bubbled.load(), 3);
}

TEST_P(RuntimeBackendTest, NestedPlacementFlatKnobDisablesBubbles) {
  auto opts = options_for(GetParam(), 3);
  opts.icvs->nested = true;
  opts.icvs->max_active_levels = 2;
  opts.nested_bubble = false;
  Runtime rt(opts);
  EXPECT_FALSE(rt.nested_bubble());
  std::atomic<int> bubbled{0};
  rt.parallel([&](ParallelContext& ctx) {
    ctx.runtime().parallel(
        [&](ParallelContext& inner) {
          if (inner.team().bubble_cluster().has_value()) bubbled.fetch_add(1);
          inner.barrier();
        },
        2);
  });
  EXPECT_EQ(bubbled.load(), 0);
}

/// Either real backend behind a launch_thread probe: counts every launch
/// and, while @p fail is set, refuses them.
class LaunchProbeBackend final : public SystemBackend {
 public:
  LaunchProbeBackend(BackendKind kind,
                     std::shared_ptr<std::atomic<unsigned>> launches,
                     std::shared_ptr<std::atomic<bool>> fail)
      : launches_(std::move(launches)), fail_(std::move(fail)) {
    const platform::Topology topo = platform::Topology::t4240rdb();
    if (kind == BackendKind::kMca) {
      mrapi::Database::instance().configure_platform(topo);
      inner_ = std::make_unique<McaBackend>(0);
    } else {
      inner_ = std::make_unique<NativeBackend>(topo);
    }
  }

  std::string_view name() const override { return "launch-probe"; }
  Status launch_thread(unsigned index, std::function<void()> fn) override {
    launches_->fetch_add(1);
    if (fail_->load()) return Status::kOutOfResources;
    return inner_->launch_thread(index, std::move(fn));
  }
  Status join_thread(unsigned index) override {
    return inner_->join_thread(index);
  }
  void* allocate(std::size_t bytes) override {
    return inner_->allocate(bytes);
  }
  void deallocate(void* p) override { inner_->deallocate(p); }
  void* allocate_on_cluster(std::size_t bytes, unsigned cluster) override {
    return inner_->allocate_on_cluster(bytes, cluster);
  }
  std::unique_ptr<BackendMutex> create_mutex() override {
    return inner_->create_mutex();
  }
  unsigned num_procs() override { return inner_->num_procs(); }

 private:
  std::shared_ptr<std::atomic<unsigned>> launches_;
  std::shared_ptr<std::atomic<bool>> fail_;
  std::unique_ptr<SystemBackend> inner_;
};

RuntimeOptions probed_nested_options(
    BackendKind kind, unsigned threads, unsigned pool_workers,
    std::shared_ptr<std::atomic<unsigned>> launches,
    std::shared_ptr<std::atomic<bool>> fail) {
  RuntimeOptions opts = options_for(kind, threads);
  opts.icvs->nested = true;
  opts.icvs->max_active_levels = 2;
  opts.pool_max_workers = pool_workers;
  opts.backend_factory = [kind, launches, fail] {
    return std::make_unique<LaunchProbeBackend>(kind, launches, fail);
  };
  return opts;
}

TEST_P(RuntimeBackendTest, NestedTeamsLeaseFromThePool) {
  // Nested masters lease parked pool workers like any master: 50 outer
  // width-3 regions, each thread opening a width-2 nested one, need at
  // most 2 + 3 workers at once, so a 6-worker pool launches each thread
  // once instead of once per nested worker per region.
  auto launches = std::make_shared<std::atomic<unsigned>>(0);
  auto fail = std::make_shared<std::atomic<bool>>(false);
  Runtime rt(probed_nested_options(GetParam(), 3, 6, launches, fail));
  std::atomic<int> teams{0}, narrow{0};
  for (int r = 0; r < 50; ++r) {
    rt.parallel([&](ParallelContext& ctx) {
      ctx.runtime().parallel(
          [&](ParallelContext& inner) {
            if (inner.thread_num() != 0) return;
            teams.fetch_add(1);
            if (inner.num_threads() != 2) narrow.fetch_add(1);
          },
          2);
    });
  }
  EXPECT_EQ(teams.load(), 150);
  EXPECT_EQ(narrow.load(), 0);
  EXPECT_LE(launches->load(), 6u);
}

TEST_P(RuntimeBackendTest, NestedLaunchFailureReturnsLeaseImmediately) {
  // A 3-worker pool: the width-2 outer team holds one worker, leaving
  // exactly the two a width-3 nested team needs.
  auto launches = std::make_shared<std::atomic<unsigned>>(0);
  auto fail = std::make_shared<std::atomic<bool>>(false);
  Runtime rt(probed_nested_options(GetParam(), 2, 3, launches, fail));
  rt.parallel([&](ParallelContext& ctx) {
    if (ctx.thread_num() != 0) return;
    // The outer team's worker already runs, so every launch attempted
    // while failing is of a pool index the outer team does not use.  The
    // nested team degrades to width 1 instead of waiting on workers that
    // do not exist.
    fail->store(true);
    std::atomic<int> first{0};
    rt.parallel([&](ParallelContext&) { first.fetch_add(1); }, 3);
    EXPECT_EQ(first.load(), 1);
    fail->store(false);
    // Still inside the same outer region: the failed launches returned
    // their lease bits, so a sibling nested team gets its full width.
    std::atomic<int> second{0};
    rt.parallel([&](ParallelContext&) { second.fetch_add(1); }, 3);
    EXPECT_EQ(second.load(), 3);
  });
}

/// Either real backend behind a create_mutex probe: counts every mutex
/// creation and, when @p fail is set, refuses them (nullptr).
class MutexProbeBackend final : public SystemBackend {
 public:
  MutexProbeBackend(BackendKind kind,
                    std::shared_ptr<std::atomic<unsigned>> creates, bool fail)
      : creates_(std::move(creates)), fail_(fail) {
    const platform::Topology topo = platform::Topology::t4240rdb();
    if (kind == BackendKind::kMca) {
      mrapi::Database::instance().configure_platform(topo);
      inner_ = std::make_unique<McaBackend>(0);
    } else {
      inner_ = std::make_unique<NativeBackend>(topo);
    }
  }

  std::string_view name() const override { return "mutex-probe"; }
  Status launch_thread(unsigned index, std::function<void()> fn) override {
    return inner_->launch_thread(index, std::move(fn));
  }
  Status join_thread(unsigned index) override {
    return inner_->join_thread(index);
  }
  void* allocate(std::size_t bytes) override {
    return inner_->allocate(bytes);
  }
  void deallocate(void* p) override { inner_->deallocate(p); }
  std::unique_ptr<BackendMutex> create_mutex() override {
    creates_->fetch_add(1);
    return fail_ ? nullptr : inner_->create_mutex();
  }
  unsigned num_procs() override { return inner_->num_procs(); }

 private:
  std::shared_ptr<std::atomic<unsigned>> creates_;
  bool fail_;
  std::unique_ptr<SystemBackend> inner_;
};

/// 20 width-4 regions x 500 unnamed criticals around a plain increment;
/// returns the count (exact only when the critical excludes).
long hammer_unnamed_critical(Runtime& rt) {
  long counter = 0;
  for (int r = 0; r < 20; ++r) {
    rt.parallel([&](ParallelContext& ctx) {
      for (int i = 0; i < 500; ++i) ctx.critical([&] { ++counter; });
    });
  }
  return counter;
}

TEST_P(RuntimeBackendTest, UnnamedCriticalIsOneBackendMutex) {
  // The unnamed critical's fast path skips the registry, not the backend:
  // its mutex is created through create_mutex once, then reused.
  auto creates = std::make_shared<std::atomic<unsigned>>(0);
  RuntimeOptions opts = options_for(GetParam(), 4);
  opts.backend_factory = [kind = GetParam(), creates] {
    return std::make_unique<MutexProbeBackend>(kind, creates, false);
  };
  Runtime rt(opts);
  EXPECT_EQ(hammer_unnamed_critical(rt), 20 * 4 * 500);
  EXPECT_EQ(creates->load(), 1u);
  // critical("") names the same mutex; another name gets its own.
  rt.parallel([](ParallelContext& ctx) {
    ctx.critical("", [] {});
    ctx.critical("other", [] {});
  });
  EXPECT_EQ(creates->load(), 2u);
}

TEST_P(RuntimeBackendTest, UnnamedCriticalDegradesToNativeMutex) {
  // A backend that cannot create mutexes still gets exclusion: the first
  // unnamed critical falls back to a process mutex and publishes that.
  auto creates = std::make_shared<std::atomic<unsigned>>(0);
  RuntimeOptions opts = options_for(GetParam(), 4);
  opts.backend_factory = [kind = GetParam(), creates] {
    return std::make_unique<MutexProbeBackend>(kind, creates, true);
  };
  Runtime rt(opts);
  EXPECT_EQ(hammer_unnamed_critical(rt), 20 * 4 * 500);
  EXPECT_EQ(creates->load(), 1u);
}

TEST_P(RuntimeBackendTest, ThreadNumsAreDistinct) {
  auto rt = make_runtime(8);
  std::mutex mu;
  std::set<unsigned> seen;
  rt->parallel([&](ParallelContext& ctx) {
    std::lock_guard lk(mu);
    seen.insert(ctx.thread_num());
  });
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 7u);
}

TEST_P(RuntimeBackendTest, TwentyFourThreadRegion) {
  // The board's full width.
  auto rt = make_runtime(24);
  std::atomic<int> count{0};
  rt->parallel([&](ParallelContext& ctx) {
    count.fetch_add(1);
    ctx.barrier();
    EXPECT_EQ(count.load(), 24);
  });
  EXPECT_EQ(count.load(), 24);
}

INSTANTIATE_TEST_SUITE_P(BothBackends, RuntimeBackendTest,
                         ::testing::Values(BackendKind::kNative,
                                           BackendKind::kMca),
                         [](const ::testing::TestParamInfo<BackendKind>& param_info) {
                           return std::string(to_string(param_info.param));
                         });

// --- runtime-level (backend-independent) ---------------------------------------

TEST(Runtime, DefaultThreadCountFromMetadata) {
  // Without OMP_NUM_THREADS, the pool is sized from the platform: 24 on the
  // modelled T4240RDB (§5B.4).
  ::unsetenv("OMP_NUM_THREADS");
  Runtime rt(RuntimeOptions{});
  EXPECT_EQ(rt.max_threads(), 24u);
}

TEST(Runtime, ResolveNumThreadsClamps) {
  auto opts = options_for(BackendKind::kNative, 8);
  opts.icvs->thread_limit = 16;
  Runtime rt(opts);
  EXPECT_EQ(rt.resolve_num_threads(0), 8u);
  EXPECT_EQ(rt.resolve_num_threads(5), 5u);
  EXPECT_EQ(rt.resolve_num_threads(100), 16u);
}

TEST(Runtime, TwoRuntimesSideBySide) {
  // The benches run native and MCA simultaneously; they must not interfere.
  Runtime native(options_for(BackendKind::kNative, 4));
  Runtime mca(options_for(BackendKind::kMca, 4));
  std::atomic<int> a{0}, b{0};
  native.parallel([&](ParallelContext&) { a.fetch_add(1); });
  mca.parallel([&](ParallelContext&) { b.fetch_add(1); });
  EXPECT_EQ(a.load(), 4);
  EXPECT_EQ(b.load(), 4);
}

}  // namespace
}  // namespace ompmca::gomp
