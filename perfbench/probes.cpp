// Layer probes for the traced run.  Each one drives a single layer through
// its public functions with the benchmark's own timestamps, so a per-layer
// number can be matched to the end-to-end metric it should move (see
// README.md).  Timings are medians of raw samples; short operations are
// timed in batches so the clock read does not dominate.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <thread>

#include "bench.hpp"
#include "gomp/pool.hpp"
#include "mrapi/mrapi.hpp"
#include "spans.hpp"

namespace perfbench {

namespace gomp = ompmca::gomp;
namespace mrapi = ompmca::mrapi;
using ompmca::ok;

namespace {

// A domain and keys of the probe's own, clear of the runtime's (domain 0).
constexpr mrapi::DomainId kProbeDomain = 7;
constexpr mrapi::NodeId kProbeNode = 1;
constexpr mrapi::NodeId kProbeWorker = 2;
constexpr mrapi::ResourceKey kProbeKeyBase = 0x7000'0000;
// Backend worker index outside the pool's range (0..63).
constexpr unsigned kProbeThreadIndex = 200;

constexpr int kBatches = 200;

/// Median over kBatches of the mean cost of one @p body call, each batch
/// running it @p per_batch times.
template <typename F>
double batched_ns(int per_batch, F&& body) {
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < per_batch; ++i) body();
    ns.push_back(static_cast<double>(now_ns() - t0) / per_batch);
  }
  return median(ns);
}

/// Median of @p reps single timings of @p body, in ns.
template <typename F>
double each_ns(int reps, F&& body) {
  std::vector<double> ns;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    body(i);
    ns.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(ns);
}

}  // namespace

void probe_mrapi(Report& report) {
  auto node = mrapi::Node::initialize(kProbeDomain, kProbeNode,
                                      mrapi::NodeAttributes{"perfbench"});
  report.check(static_cast<bool>(node));
  if (!node) return;
  auto mu_r = node->mutex_create(kProbeKeyBase);
  report.check(static_cast<bool>(mu_r));
  if (!mu_r) return;
  mrapi::Mutex& mu = **mu_r;
  long bad = 0;
  long counter = 0;  // guarded by mu
  auto lock_unlock = [&] {
    mrapi::LockKey key;
    if (!ok(mu.lock(mrapi::kTimeoutInfinite, &key))) {
      ++bad;
      return;
    }
    ++counter;
    if (!ok(mu.unlock(key))) ++bad;
  };
  {
    Span s(true, Layer::kMrapi, "mrapi.mutex");
    report.add("mrapi.mutex_ns", batched_ns(1000, lock_unlock), "ns");
  }
  {
    Span s(true, Layer::kMrapi, "mrapi.mutex_contended");
    // Two threads hammer one mutex; per-op cost is wall time over all ops.
    constexpr int kOps = 20000;
    std::vector<double> ns;
    std::atomic<long> other_bad{0};
    for (int rep = 0; rep < 9; ++rep) {
      const long before = counter;
      std::atomic<bool> go{false};
      std::thread other([&] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < kOps; ++i) {
          mrapi::LockKey key;
          if (!ok(mu.lock(mrapi::kTimeoutInfinite, &key))) {
            other_bad.fetch_add(1);
            continue;
          }
          ++counter;
          if (!ok(mu.unlock(key))) other_bad.fetch_add(1);
        }
      });
      const std::uint64_t t0 = now_ns();
      go.store(true, std::memory_order_release);
      for (int i = 0; i < kOps; ++i) lock_unlock();
      other.join();
      ns.push_back(static_cast<double>(now_ns() - t0) / (2.0 * kOps));
      report.check(counter - before == 2L * kOps);
    }
    report.add("mrapi.mutex_contended_ns", median(ns), "ns");
    bad += other_bad.load();
  }
  report.check(bad == 0);
  (void)node->mutex_delete(kProbeKeyBase);  // probe teardown, best effort

  {
    Span s(true, Layer::kMrapi, "mrapi.shmem_cycle");
    mrapi::ShmemAttributes attrs;
    attrs.mode = mrapi::ShmemMode::kHeap;
    attrs.use_malloc = true;
    long failures = 0;
    const double ns = each_ns(2000, [&](int i) {
      const mrapi::ResourceKey key = kProbeKeyBase + 1 + i;
      auto seg = node->shmem_create(key, 4096, attrs);
      if (!seg) {
        ++failures;
        return;
      }
      auto addr = (*seg)->attach(node->node_id());
      if (!addr || !ok((*seg)->detach(node->node_id()))) ++failures;
      if (!ok(node->shmem_delete(key))) ++failures;
    });
    report.check(failures == 0);
    report.add("mrapi.shmem_cycle_us", ns / 1e3, "us");
  }
  {
    Span s(true, Layer::kMrapi, "mrapi.node_cycle");
    long failures = 0;
    const double ns = each_ns(200, [&](int) {
      mrapi::ThreadParameters params;
      params.start_routine = [] {};
      if (!ok(node->thread_create(kProbeWorker, std::move(params))) ||
          !ok(node->thread_join(kProbeWorker)) ||
          !ok(node->thread_finalize(kProbeWorker))) {
        ++failures;
      }
    });
    report.check(failures == 0);
    report.add("mrapi.node_cycle_us", ns / 1e3, "us");
  }
  report.check(ok(node->finalize()));
}

void probe_backend(Report& report) {
  double launch_us[2] = {}, alloc_ns[2] = {}, mutex_ns[2] = {};
  const gomp::BackendKind kinds[2] = {gomp::BackendKind::kNative,
                                      gomp::BackendKind::kMca};
  for (int k = 0; k < 2; ++k) {
    const std::string kind(gomp::to_string(kinds[k]));
    Span s(true, Layer::kBackend, k == 0 ? "backend.native" : "backend.mca");
    gomp::Runtime rt(runtime_options(kinds[k]));
    gomp::SystemBackend& be = rt.backend();
    long failures = 0;
    launch_us[k] = each_ns(200, [&](int) {
      if (!ok(be.launch_thread(kProbeThreadIndex, [] {})) ||
          !ok(be.join_thread(kProbeThreadIndex))) {
        ++failures;
      }
    }) / 1e3;
    alloc_ns[k] = batched_ns(50, [&] {
      void* p = be.allocate(256);
      if (p == nullptr) ++failures;
      be.deallocate(p);
    });
    auto mu = be.create_mutex();
    if (mu == nullptr) {
      ++failures;
    } else {
      mutex_ns[k] = batched_ns(1000, [&] {
        mu->lock();
        mu->unlock();
      });
    }
    report.check(failures == 0);
    report.add("backend." + kind + ".launch_join_us", launch_us[k], "us");
    report.add("backend." + kind + ".alloc_ns", alloc_ns[k], "ns");
    report.add("backend." + kind + ".mutex_ns", mutex_ns[k], "ns");
  }
  // Table I's service-layer delta: the MCA backend over the native one.
  report.add("backend.mca_over_native.launch_join", launch_us[1] / launch_us[0],
             "x");
  report.add("backend.mca_over_native.alloc", alloc_ns[1] / alloc_ns[0], "x");
  report.add("backend.mca_over_native.mutex", mutex_ns[1] / mutex_ns[0], "x");
}

namespace {

/// Timings of one dispatch through the pool's public protocol, from the
/// master's side and from the workers' own body stamps.
struct DispatchTimes {
  double prepare_ns, start_ns, wake_skew_us, join_tail_ns;
};

/// Runs @p reps width-kThreads dispatches on a fresh runtime with
/// @p policy, sleeping @p gap between them; false if any was narrowed.
bool time_dispatches(gomp::WaitPolicy policy, int reps,
                     std::chrono::microseconds gap,
                     std::vector<DispatchTimes>& out) {
  gomp::Runtime rt(runtime_options(gomp::BackendKind::kMca, policy));
  rt.parallel([](gomp::ParallelContext&) {}, kThreads);  // launch workers
  gomp::ThreadPool& pool = rt.pool();
  struct alignas(64) Stamp {
    std::atomic<std::uint64_t> start{0}, end{0};
  };
  std::array<Stamp, kThreads> stamps;
  auto body = [&](unsigned tid) {
    if (tid >= kThreads) return;
    stamps[tid].start.store(now_ns(), std::memory_order_relaxed);
    stamps[tid].end.store(now_ns(), std::memory_order_relaxed);
  };
  bool ok_all = true;
  for (int i = 0; i < reps; ++i) {
    if (gap.count() > 0) std::this_thread::sleep_for(gap);
    gomp::ThreadPool::Dispatch d;
    const std::uint64_t t0 = now_ns();
    const unsigned w = pool.prepare(d, kThreads);
    const std::uint64_t t1 = now_ns();
    pool.start_team(d, w, body);
    const std::uint64_t t2 = now_ns();
    body(0);
    pool.wait_team(d);
    const std::uint64_t t3 = now_ns();
    if (w != kThreads) {
      ok_all = false;
      continue;
    }
    std::uint64_t last_start = 0, last_end = 0;
    for (unsigned t = 0; t < kThreads; ++t) {
      if (t > 0) last_start = std::max(last_start, stamps[t].start.load());
      last_end = std::max(last_end, stamps[t].end.load());
    }
    out.push_back({static_cast<double>(t1 - t0), static_cast<double>(t2 - t1),
                   static_cast<double>(last_start - t1) / 1e3,
                   static_cast<double>(t3 - std::max(last_end, t2))});
  }
  return ok_all;
}

}  // namespace

void probe_pool(Report& report) {
  std::vector<DispatchTimes> hot, parked;
  {
    Span s(true, Layer::kPool, "pool.dispatch(back-to-back)");
    report.check(time_dispatches(gomp::WaitPolicy::kActive, 3000,
                                 std::chrono::microseconds(0), hot));
  }
  {
    // Passive workers and idle gaps long enough for every worker to park.
    Span s(true, Layer::kPool, "pool.dispatch(parked)");
    report.check(time_dispatches(gomp::WaitPolicy::kPassive, 300,
                                 std::chrono::microseconds(300), parked));
  }
  auto med = [](const std::vector<DispatchTimes>& v,
                double DispatchTimes::*field) {
    std::vector<double> x;
    for (const DispatchTimes& d : v) x.push_back(d.*field);
    return median(x);
  };
  report.add("pool.prepare_ns", med(hot, &DispatchTimes::prepare_ns), "ns");
  report.add("pool.start_ns", med(hot, &DispatchTimes::start_ns), "ns");
  report.add("pool.wake_skew_us", med(hot, &DispatchTimes::wake_skew_us), "us");
  report.add("pool.join_tail_ns", med(hot, &DispatchTimes::join_tail_ns), "ns");
  report.add("pool.wake_skew_parked_us",
             med(parked, &DispatchTimes::wake_skew_us), "us");
}

void probe_constructs(Report& report) {
  Span phase(true, Layer::kContext, "probe.constructs");
  gomp::Runtime rt(runtime_options());
  enum C { kBarrier, kStatic, kDynamic, kSingle, kCritical, kReduce,
           kTaskloop, kNum };
  static const char* const kNames[kNum] = {
      "construct.barrier_us", "construct.for_static_us",
      "construct.for_dynamic_us", "construct.single_us",
      "construct.critical_us", "construct.reduce_us",
      "construct.taskloop_us"};
  constexpr long kIters = 64;
  constexpr int kRegions = 1500;
  // samples[tid][construct], each written only by its own thread.
  std::array<std::array<std::vector<double>, kNum>, kThreads> samples;
  std::array<std::uint64_t, kThreads> arrival{};
  std::vector<double> skew_us;
  long failures = 0;
  for (int r = 0; r < kRegions; ++r) {
    long critical_count = 0;  // guarded by the unnamed critical
    std::atomic<long> reduce_bad{0}, taskloop_iters{0};
    std::atomic<unsigned> width{0};
    rt.parallel(
        [&](gomp::ParallelContext& ctx) {
          const unsigned tid = ctx.thread_num();
          if (tid >= kThreads) return;
          if (tid == 0) width.store(ctx.num_threads());
          auto& mine = samples[tid];
          auto timed = [&](C c, auto&& fn) {
            const std::uint64_t t0 = now_ns();
            fn();
            mine[c].push_back(static_cast<double>(now_ns() - t0) / 1e3);
            return t0;
          };
          arrival[tid] = timed(kBarrier, [&] { ctx.barrier(); });
          long local = 0;
          timed(kStatic, [&] {
            ctx.for_loop(0, kIters, [&](long lo, long hi) {
              for (long i = lo; i < hi; ++i) {
                delay(40);
                local += i;
              }
            });
          });
          timed(kDynamic, [&] {
            ctx.for_loop(
                0, kIters, [&](long lo, long hi) { delay(40 * int(hi - lo)); },
                {gomp::Schedule::kDynamic, 1});
          });
          timed(kSingle, [&] { ctx.single([] {}); });
          timed(kCritical, [&] { ctx.critical([&] { ++critical_count; }); });
          timed(kReduce, [&] {
            if (ctx.reduce_sum(local) != kIters * (kIters - 1) / 2) {
              reduce_bad.fetch_add(1);
            }
          });
          if (tid != 0) return;
          timed(kTaskloop, [&] {
            ctx.taskloop(
                0, kIters,
                [&](long lo, long hi) {
                  delay(40 * int(hi - lo));
                  taskloop_iters.fetch_add(hi - lo);
                },
                8);
          });
        },
        kThreads);
    if (width.load() != kThreads || critical_count != kThreads ||
        reduce_bad.load() != 0 || taskloop_iters.load() != kIters) {
      ++failures;
      continue;
    }
    // The first barrier's arrival spread: last arrival minus first.
    const auto [lo, hi] = std::minmax_element(arrival.begin(), arrival.end());
    skew_us.push_back(static_cast<double>(*hi - *lo) / 1e3);
  }
  report.check(failures == 0);
  for (int c = 0; c < kNum; ++c) {
    std::vector<double> all;
    for (auto& per_thread : samples) {
      all.insert(all.end(), per_thread[c].begin(), per_thread[c].end());
    }
    report.add(kNames[c], median(all), "us");
  }
  report.add("construct.barrier_skew_us", median(skew_us), "us");
}

void probe_tasks(Report& report) {
  Span phase(true, Layer::kContext, "probe.tasks");
  gomp::Runtime rt(runtime_options());
  constexpr int kTasks = 16;
  constexpr int kRegions = 1000;
  std::vector<double> spawn_ns, taskwait_us;
  long spawned = 0, stolen = 0, failures = 0;
  for (int r = 0; r < kRegions; ++r) {
    std::array<std::atomic<int>, kTasks> ran_on{};
    std::atomic<int> runs{0};
    rt.parallel(
        [&](gomp::ParallelContext& ctx) {
          if (ctx.thread_num() != 0) return;  // helpers steal at the end barrier
          const std::uint64_t t0 = now_ns();
          for (int k = 0; k < kTasks; ++k) {
            ctx.task([&ran_on, &runs, k] {
              ran_on[k].store(static_cast<int>(
                  gomp::Runtime::current()->thread_num()));
              delay(200);
              runs.fetch_add(1);
            });
          }
          const std::uint64_t t1 = now_ns();
          ctx.taskwait();
          const std::uint64_t t2 = now_ns();
          spawn_ns.push_back(static_cast<double>(t1 - t0) / kTasks);
          taskwait_us.push_back(static_cast<double>(t2 - t1) / 1e3);
        },
        kThreads);
    if (runs.load() != kTasks) ++failures;
    spawned += kTasks;
    for (auto& t : ran_on) stolen += t.load() != 0 ? 1 : 0;
  }
  report.check(failures == 0);
  report.add("task.spawn_ns", median(spawn_ns), "ns");
  report.add("task.taskwait_us", median(taskwait_us), "us");
  report.add("task.stolen_share",
             static_cast<double>(stolen) / static_cast<double>(spawned),
             "share");
}

void probe_npb(Report& report) {
  gomp::Runtime rt(runtime_options());
  for (const NpbKernel& k : kNpbKernels) {
    report.check(k.run(rt, kThreads).verified);  // warm-up, untimed
    NpbRun r4{}, r1{};
    std::uint64_t t0 = 0, t1 = 0;
    {
      Span s(true, Layer::kNpb, k.span_name);
      t0 = now_ns();
      r4 = k.run(rt, kThreads);
      t1 = now_ns();
    }
    {
      Span s(true, Layer::kNpb, k.span_name);
      r1 = k.run(rt, 1);
    }
    report.check(r4.verified && r1.verified);
    const std::string p = std::string("npb.") + k.name;
    report.add(p + ".run_s", static_cast<double>(t1 - t0) / 1e9, "s");
    report.add(p + ".section_s", r4.seconds, "s");
    report.add(p + ".speedup_4v1", r1.seconds / r4.seconds, "x");
  }
}

}  // namespace perfbench
