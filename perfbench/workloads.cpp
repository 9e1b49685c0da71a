// The two workloads.  Each one makes one layer do most of the work:
//  * fork_join    — closed loop of back-to-back width-4 regions running the
//                   Table I construct mix plus tasks: dispatch, barrier,
//                   workshare, task and backend-mutex costs dominate.
//  * tenants_open — open loop, 2 tenant masters x width 2 with seeded
//                   Poisson arrivals: dispatch after idle gaps, concurrent
//                   slot claim/lease and a runtime-wide critical contended
//                   across tenants.
// Every op is checked; a failed check counts against report.attempted.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <random>
#include <thread>

#include "bench.hpp"
#include "npb/npb.hpp"
#include "spans.hpp"

namespace perfbench {

namespace gomp = ompmca::gomp;
namespace npb = ompmca::npb;

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

gomp::RuntimeOptions runtime_options(gomp::BackendKind kind,
                                     gomp::WaitPolicy policy) {
  gomp::RuntimeOptions o;
  o.backend = kind;
  o.topology = ompmca::platform::Topology::generic(kThreads);
  gomp::Icvs icvs;
  icvs.num_threads = kThreads;
  icvs.dynamic_threads = false;
  icvs.nested = false;
  icvs.max_active_levels = 1;
  icvs.run_schedule = {gomp::Schedule::kDynamic, 1};
  icvs.wait_policy = policy;
  icvs.proc_bind = gomp::ProcBind::kSpread;
  icvs.thread_limit = kThreads;
  o.icvs = icvs;
  o.barrier = gomp::BarrierKind::kAuto;
  o.pool_mode = gomp::PoolMode::kPersistent;
  return o;
}

void delay(int n) {
  volatile double sink = 0.0;
  for (int i = 0; i < n; ++i) sink = sink + i * 0.5;
}

std::unique_ptr<gomp::Runtime> timed_setup(Report& report,
                                           const gomp::RuntimeOptions& opts,
                                           unsigned width) {
  // Median of many cold set-ups: one is a single thread-creation burst
  // and too noisy to compare across runs.  The first few are untimed: they
  // pay for the process's first thread stacks and allocator arenas.
  constexpr int kWarmups = 5;
  constexpr int kReps = 101;
  std::vector<double> seconds;
  std::unique_ptr<gomp::Runtime> rt;
  for (int i = 0; i < kWarmups + kReps; ++i) {
    rt.reset();
    unsigned got = 0;
    const std::uint64_t t0 = now_ns();
    rt = std::make_unique<gomp::Runtime>(opts);
    rt->parallel(
        [&](gomp::ParallelContext& ctx) {
          if (ctx.thread_num() == 0) got = ctx.num_threads();
        },
        width);
    if (i >= kWarmups) {
      seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    report.check(got == width);
  }
  report.add("setup_s", median(seconds), "s");
  return rt;
}

namespace {

// Untimed lead-in of fork_join and tenants_open.  On a 4-vCPU VM, thread
// wake-up latency right after idle or after a burst of full-CPU work (the
// previous run) differs from its steady value for a few seconds.
constexpr std::uint64_t kSettleNs = 3'000'000'000;

double uniform01(std::mt19937_64& g) {
  return static_cast<double>(g() >> 11) * 0x1.0p-53;
}

int uniform_int(std::mt19937_64& g, int lo, int hi) {
  return lo + static_cast<int>(uniform01(g) * (hi - lo + 1));
}

/// Trace gate shared by the workloads: in a traced run every other op is
/// traced while the span buffers have room; the untraced ops of that
/// window are the A/B baseline for bench.trace_overhead_pct.
struct TraceGate {
  bool traced_run;
  bool in_window() const { return traced_run && !spans_full(); }
  bool trace_op(std::uint32_t op) const { return in_window() && (op & 1u); }
};

void report_overhead(Report& report, std::vector<double>& traced,
                     std::vector<double>& untraced) {
  const double base = median(untraced);
  report.add("bench.trace_overhead_pct",
             base > 0 ? (median(traced) - base) / base * 100.0 : 0.0, "%");
  report.diag("bench.traced_ops", static_cast<double>(traced.size()), "count");
}

/// Latency samples folded one one-second window at a time: a window keeps
/// only its quantiles, so the benchmark's own memory does not grow with the
/// run and peak_rss_mb stays the runtime's.  One thread feeds it, in time
/// order.
class WindowedSamples {
 public:
  static constexpr std::array<double, 3> kQuantiles = {0.5, 0.9, 0.99};

  /// Adds @p us to the one-second window of the measured span (from
  /// @p start_ns) in which its op ended at @p end_ns.
  void add(double us, std::uint64_t end_ns, std::uint64_t start_ns) {
    const std::uint64_t w =
        end_ns > start_ns ? (end_ns - start_ns) / 1'000'000'000 : 0;
    if (w != window_) fold();
    window_ = w;
    current_.push_back(us);
    ++count_;
  }
  void append(WindowedSamples& o) {
    o.fold();
    windows_.insert(windows_.end(), o.windows_.begin(), o.windows_.end());
    count_ += o.count_;
  }
  /// Median over the windows of each window's kQuantiles[i] quantile.  A
  /// burst of interference from the shared host that lasts a second or two
  /// moves a few windows, not the figure.  Windows with too few samples to
  /// place a p99 count only when the run has no other.
  double median_of(std::size_t i) {
    constexpr std::size_t kMinWindowSamples = 100;
    fold();
    std::vector<double> full, all;
    for (const Window& w : windows_) {
      all.push_back(w.q[i]);
      if (w.samples >= kMinWindowSamples) full.push_back(w.q[i]);
    }
    return median(full.empty() ? all : full);
  }
  long count() const { return count_; }

 private:
  struct Window {
    std::array<double, kQuantiles.size()> q;
    std::size_t samples;
  };

  void fold() {
    if (current_.empty()) return;
    Window w{{}, current_.size()};
    for (std::size_t i = 0; i < kQuantiles.size(); ++i) {
      w.q[i] = quantile(current_, kQuantiles[i]);
    }
    windows_.push_back(w);
    current_.clear();
  }

  std::uint64_t window_ = 0;
  std::vector<double> current_;
  std::vector<Window> windows_;
  long count_ = 0;
};

/// op_p50_us, op_p90_us and empty_p50_us, each the median over one-second
/// windows of that window's percentile.
void add_latency(Report& report, WindowedSamples& op,
                 WindowedSamples& empty) {
  report.add("op_p50_us", op.median_of(0), "us");
  report.add("op_p90_us", op.median_of(1), "us");
  report.add("empty_p50_us", empty.median_of(0), "us");
  report.diag("op_p99_us", op.median_of(2), "us");
  report.diag("op_samples", static_cast<double>(op.count()), "count");
  report.diag("empty_samples", static_cast<double>(empty.count()), "count");
}

/// Times one empty region of @p width; true when every member ran exactly
/// once and the team was not narrowed.
bool empty_region(gomp::Runtime& rt, unsigned width, bool traced,
                  std::uint32_t parent, std::uint32_t op, double* us) {
  std::array<std::atomic<int>, kThreads> hits{};
  std::atomic<unsigned> got{0};
  Span rs(traced, Layer::kRuntime, "Runtime::parallel(empty)", parent, op);
  const std::uint64_t t0 = now_ns();
  rt.parallel(
      [&](gomp::ParallelContext& ctx) {
        const unsigned tid = ctx.thread_num();
        if (tid < kThreads) hits[tid].fetch_add(1, std::memory_order_relaxed);
        if (tid == 0) got.store(ctx.num_threads(), std::memory_order_relaxed);
      },
      width);
  *us = static_cast<double>(now_ns() - t0) / 1e3;
  bool ok = got.load() == width;
  for (unsigned t = 0; t < kThreads; ++t) {
    ok = ok && hits[t].load() == (t < width ? 1 : 0);
  }
  return ok;
}

// --- fork_join ---------------------------------------------------------------

constexpr long kLoopIters = 64;
constexpr int kTasks = 16;
constexpr long kTaskloopGrain = 8;
// Delay units per loop iteration / task body: short bodies, so dispatch
// and construct costs dominate the region.
constexpr int kDelayLo = 20;
constexpr int kDelayHi = 60;

struct ForkJoinInputs {
  std::vector<int> static_delay, dynamic_delay, task_delay, taskloop_delay;
  std::vector<long> values;
  long expected_sum = 0;
};

ForkJoinInputs fork_join_inputs(std::uint64_t seed) {
  std::mt19937_64 g(seed);
  ForkJoinInputs in;
  auto fill = [&](std::vector<int>& v, long n) {
    for (long i = 0; i < n; ++i) v.push_back(uniform_int(g, kDelayLo, kDelayHi));
  };
  fill(in.static_delay, kLoopIters);
  fill(in.dynamic_delay, kLoopIters);
  fill(in.task_delay, kTasks);
  fill(in.taskloop_delay, kLoopIters);
  for (long i = 0; i < kLoopIters; ++i) {
    in.values.push_back(uniform_int(g, 0, 1000));
    in.expected_sum += in.values.back();
  }
  return in;
}

struct ForkJoinState {
  std::array<std::atomic<int>, kLoopIters> static_hits{}, dynamic_hits{},
      taskloop_hits{};
  std::atomic<int> single_runs{0}, task_runs{0}, reduce_bad{0};
  std::atomic<unsigned> width{0};
  long critical_count = 0;  // guarded by the unnamed critical

  /// Checks one region's outcome and resets for the next.
  bool check_and_reset() {
    bool ok = width.load() == kThreads && single_runs.load() == 1 &&
              task_runs.load() == kTasks && reduce_bad.load() == 0 &&
              critical_count == static_cast<long>(kThreads);
    for (long i = 0; i < kLoopIters; ++i) {
      ok = ok && static_hits[i].load() == 1 && dynamic_hits[i].load() == 1 &&
           taskloop_hits[i].load() == 1;
      static_hits[i].store(0);
      dynamic_hits[i].store(0);
      taskloop_hits[i].store(0);
    }
    single_runs.store(0);
    task_runs.store(0);
    reduce_bad.store(0);
    width.store(0);
    critical_count = 0;
    return ok;
  }
};

/// One construct-mix region: the Table I set (for static, for dynamic,1,
/// single, unnamed critical, reduction, barrier) plus 16 tasks and a
/// taskloop spawned by the master.  Returns fork-to-join microseconds.
double construct_region(gomp::Runtime& rt, const ForkJoinInputs& in,
                        ForkJoinState& st, bool traced, std::uint32_t parent,
                        std::uint32_t op) {
  Span rs(traced, Layer::kRuntime, "Runtime::parallel", parent, op);
  const std::uint32_t pid = rs.id();
  const std::uint64_t t0 = now_ns();
  rt.parallel(
      [&](gomp::ParallelContext& ctx) {
        const unsigned tid = ctx.thread_num();
        if (tid == 0) st.width.store(ctx.num_threads());
        long local = 0;
        {
          Span s(traced, Layer::kContext, "for_static", pid, op);
          ctx.for_loop(
              0, kLoopIters,
              [&](long lo, long hi) {
                for (long i = lo; i < hi; ++i) {
                  delay(in.static_delay[i]);
                  st.static_hits[i].fetch_add(1, std::memory_order_relaxed);
                  local += in.values[i];
                }
              },
              {gomp::Schedule::kStatic, 0});
        }
        {
          Span s(traced, Layer::kContext, "for_dynamic", pid, op);
          ctx.for_loop(
              0, kLoopIters,
              [&](long lo, long hi) {
                for (long i = lo; i < hi; ++i) {
                  delay(in.dynamic_delay[i]);
                  st.dynamic_hits[i].fetch_add(1, std::memory_order_relaxed);
                }
              },
              {gomp::Schedule::kDynamic, 1});
        }
        {
          Span s(traced, Layer::kContext, "single", pid, op);
          ctx.single([&] { st.single_runs.fetch_add(1); });
        }
        {
          Span s(traced, Layer::kContext, "critical", pid, op);
          ctx.critical([&] { ++st.critical_count; });
        }
        long sum = 0;
        {
          Span s(traced, Layer::kContext, "reduce_sum", pid, op);
          sum = ctx.reduce_sum(local);
        }
        if (sum != in.expected_sum) st.reduce_bad.fetch_add(1);
        {
          Span s(traced, Layer::kContext, "barrier", pid, op);
          ctx.barrier();
        }
        if (tid != 0) return;  // the end barrier drains the master's tasks
        {
          Span s(traced, Layer::kContext, "task", pid, op);
          for (int k = 0; k < kTasks; ++k) {
            ctx.task([&st, &in, k] {
              delay(in.task_delay[k]);
              st.task_runs.fetch_add(1);
            });
          }
        }
        {
          Span s(traced, Layer::kContext, "taskloop", pid, op);
          ctx.taskloop(
              0, kLoopIters,
              [&](long lo, long hi) {
                for (long i = lo; i < hi; ++i) {
                  delay(in.taskloop_delay[i]);
                  st.taskloop_hits[i].fetch_add(1, std::memory_order_relaxed);
                }
              },
              kTaskloopGrain);
        }
        {
          Span s(traced, Layer::kContext, "taskwait", pid, op);
          ctx.taskwait();
        }
      },
      kThreads);
  return static_cast<double>(now_ns() - t0) / 1e3;
}

// --- tenants_open --------------------------------------------------------------

constexpr unsigned kTenants = 2;
constexpr unsigned kTenantWidth = kThreads / kTenants;
// The pool holds just the workers the tenants lease, so masters plus
// workers are kThreads threads: a spare spinning worker would share a CPU
// with a master or a leased worker and put the scheduler in the tail.
constexpr unsigned kTenantWorkers = kTenants * (kTenantWidth - 1);

gomp::RuntimeOptions tenant_runtime_options() {
  gomp::RuntimeOptions o = runtime_options();
  o.pool_max_workers = kTenantWorkers;
  return o;
}

// Fixed per-tenant arrival rate.  At about 22 us of service per region each
// tenant is a few percent busy, so regions rarely queue behind their own
// tenant's previous one but now and then overlap the other tenant's.
constexpr double kTenantRatePerS = 1500.0;
// Share of arrivals that are empty regions (timed fork to join: dispatch
// after an idle gap on its own).
constexpr double kEmptyShare = 0.25;
// Loop iterations of a construct region.  Its delay work is about half of
// the region, so the few microseconds by which a worker's wake-up varies
// with the shared host's state do not set the p90 alone: on the 4-vCPU
// host, 32 iterations gave a p90 that moved 3-4 times as much from run to
// run as 256 do.
constexpr long kTenantIters = 256;

struct Arrival {
  std::uint64_t due_ns;  // offset from the run start
  bool empty;
};

struct TenantInputs {
  std::vector<Arrival> arrivals;
  std::vector<int> delays;
  std::vector<long> values;
  long expected_sum = 0;
};

TenantInputs tenant_inputs(std::uint64_t seed, unsigned tenant,
                           double seconds) {
  std::mt19937_64 g(seed * 0x9E3779B97F4A7C15ULL + tenant + 1);
  TenantInputs in;
  for (long i = 0; i < kTenantIters; ++i) {
    in.delays.push_back(uniform_int(g, kDelayLo, kDelayHi));
    in.values.push_back(uniform_int(g, 0, 1000));
    in.expected_sum += in.values.back();
  }
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - uniform01(g)) / kTenantRatePerS;
    if (t >= seconds) break;
    in.arrivals.push_back(
        {static_cast<std::uint64_t>(t * 1e9), uniform01(g) < kEmptyShare});
  }
  return in;
}

/// Busy-waits for @p due.  The masters spin rather than sleep: a timer
/// wake-up is late by up to a millisecond on a loaded VM, which would put
/// the OS timer, not the runtime, in the latency tail.
void wait_until(std::uint64_t due) {
  while (now_ns() < due) {
  }
}

struct TenantOut {
  WindowedSamples op, empty;
  std::vector<double> gen_lag_us;
  std::vector<double> ab_traced_us, ab_untraced_us;
  long attempted = 0, failed = 0, critical_regions = 0;
};

void tenant_main(gomp::Runtime& rt, const TenantInputs& in,
                 std::uint64_t start_ns, bool traced_run,
                 std::atomic<long>& global_critical, TenantOut& out) {
  const TraceGate gate{traced_run};
  std::uint64_t prev_join = 0;
  std::uint32_t op = 0;
  for (const Arrival& a : in.arrivals) {
    ++op;
    const std::uint64_t due = start_ns + a.due_ns;
    wait_until(due);
    const bool window = gate.in_window();
    const bool traced = gate.trace_op(op);
    const std::uint64_t t_fork = now_ns();
    out.gen_lag_us.push_back(
        static_cast<double>(t_fork - std::max(due, prev_join)) / 1e3);
    Span os(traced, Layer::kBench, a.empty ? "arrival(empty)" : "arrival",
            0, op);
    bool ok = true;
    if (a.empty) {
      double us = 0;
      ok = empty_region(rt, kTenantWidth, traced, os.id(), op, &us);
      if (!traced) out.empty.add(us, now_ns(), start_ns);
    } else {
      std::array<std::atomic<int>, kTenantWidth> members{};
      std::array<std::atomic<int>, kTenantIters> cover{};
      std::atomic<unsigned> width{0};
      std::atomic<int> reduce_bad{0};
      long region_critical = 0;  // guarded by the unnamed critical
      {
        Span rs(traced, Layer::kRuntime, "Runtime::parallel", os.id(), op);
        const std::uint32_t pid = rs.id();
        rt.parallel(
            [&](gomp::ParallelContext& ctx) {
              const unsigned tid = ctx.thread_num();
              if (tid < kTenantWidth) members[tid].fetch_add(1);
              if (tid == 0) width.store(ctx.num_threads());
              long local = 0;
              {
                Span s(traced, Layer::kContext, "for_static", pid, op);
                ctx.for_loop(
                    0, kTenantIters,
                    [&](long lo, long hi) {
                      for (long i = lo; i < hi; ++i) {
                        delay(in.delays[i]);
                        cover[i].fetch_add(1, std::memory_order_relaxed);
                        local += in.values[i];
                      }
                    },
                    {gomp::Schedule::kStatic, 0});
              }
              if (tid == 0) {
                // The masters contend with each other here.  Both members
                // of one team leave the loop's barrier together, so if
                // both entered, every region would also contend within
                // its team and sleep on the MRAPI mutex's condition
                // variable.  The p90 would then measure the host's
                // wake-up latency, not the runtime.
                Span s(traced, Layer::kContext, "critical", pid, op);
                ctx.critical([&] {
                  ++region_critical;
                  global_critical.fetch_add(1, std::memory_order_relaxed);
                });
              }
              long sum = 0;
              {
                Span s(traced, Layer::kContext, "reduce_sum", pid, op);
                sum = ctx.reduce_sum(local);
              }
              if (sum != in.expected_sum) reduce_bad.fetch_add(1);
            },
            kTenantWidth);
      }
      const std::uint64_t t_join = now_ns();
      const double us = static_cast<double>(t_join - due) / 1e3;
      if (!traced) out.op.add(us, t_join, start_ns);
      if (window) (traced ? out.ab_traced_us : out.ab_untraced_us).push_back(us);
      ok = width.load() == kTenantWidth && reduce_bad.load() == 0 &&
           region_critical == 1;
      for (auto& m : members) ok = ok && m.load() == 1;
      for (auto& c : cover) ok = ok && c.load() == 1;
      ++out.critical_regions;
    }
    prev_join = now_ns();
    ++out.attempted;
    if (!ok) ++out.failed;
  }
}

/// Runs both tenants against @p rt for @p seconds and merges their output.
TenantOut tenants_loop(gomp::Runtime& rt, const RunConfig& cfg, double seconds,
                       bool traced_run, Report& report) {
  std::array<TenantInputs, kTenants> inputs;
  for (unsigned t = 0; t < kTenants; ++t) {
    inputs[t] = tenant_inputs(cfg.seed, t, seconds);
  }
  std::array<TenantOut, kTenants> outs;
  std::atomic<long> global_critical{0};
  // Both schedules start together a little in the future, after the
  // tenant threads exist.
  const std::uint64_t start = now_ns() + 2'000'000;
  {
    std::vector<std::thread> masters;
    for (unsigned t = 1; t < kTenants; ++t) {
      masters.emplace_back(tenant_main, std::ref(rt), std::cref(inputs[t]),
                           start, traced_run, std::ref(global_critical),
                           std::ref(outs[t]));
    }
    tenant_main(rt, inputs[0], start, traced_run, global_critical, outs[0]);
    for (auto& m : masters) m.join();
  }
  TenantOut all;
  for (auto& o : outs) {
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    all.op.append(o.op);
    all.empty.append(o.empty);
    append(all.gen_lag_us, o.gen_lag_us);
    append(all.ab_traced_us, o.ab_traced_us);
    append(all.ab_untraced_us, o.ab_untraced_us);
    report.attempted += o.attempted;
    report.failed += o.failed;
    all.critical_regions += o.critical_regions;
  }
  report.check(global_critical.load() == all.critical_regions);
  return all;
}

template <typename R>
NpbRun kernel_run(const R& r) {
  return {r.seconds, r.verify.verified};
}

}  // namespace

const std::array<NpbKernel, 5> kNpbKernels = {{
    {"cg", "npb::run_cg",
     [](gomp::Runtime& rt, unsigned n) {
       return kernel_run(npb::run_cg(rt, npb::Class::W, n));
     }},
    {"mg", "npb::run_mg",
     [](gomp::Runtime& rt, unsigned n) {
       return kernel_run(npb::run_mg(rt, npb::Class::W, n));
     }},
    {"ft", "npb::run_ft",
     [](gomp::Runtime& rt, unsigned n) {
       return kernel_run(npb::run_ft(rt, npb::Class::W, n));
     }},
    {"is", "npb::run_is",
     [](gomp::Runtime& rt, unsigned n) {
       return kernel_run(npb::run_is(rt, npb::Class::W, n));
     }},
    {"ep", "npb::run_ep",
     [](gomp::Runtime& rt, unsigned n) {
       return kernel_run(npb::run_ep(rt, npb::Class::W, n));
     }},
}};

void run_fork_join(const RunConfig& cfg, Report& report) {
  auto rt = timed_setup(report);
  const ForkJoinInputs in = fork_join_inputs(cfg.seed);
  auto st = std::make_unique<ForkJoinState>();
  const TraceGate gate{cfg.traced};
  WindowedSamples op_us, empty_us;
  std::vector<double> ab_traced, ab_untraced;
  const std::uint64_t settled = now_ns() + kSettleNs;
  const std::uint64_t deadline =
      settled + static_cast<std::uint64_t>(cfg.seconds * 1e9);
  std::uint32_t op = 0;
  for (std::uint64_t t = now_ns(); t < deadline; t = now_ns()) {
    const bool measured = t >= settled;
    if (measured) ++op;
    const bool window = measured && gate.in_window();
    const bool traced = measured && gate.trace_op(op);
    {
      Span os(traced, Layer::kBench, "fork_join.region", 0, op);
      const double us = construct_region(*rt, in, *st, traced, os.id(), op);
      report.check(st->check_and_reset());
      if (window) (traced ? ab_traced : ab_untraced).push_back(us);
      if (measured && !traced) op_us.add(us, now_ns(), settled);
    }
    {
      Span os(traced, Layer::kBench, "fork_join.empty", 0, op);
      double us = 0;
      report.check(empty_region(*rt, kThreads, traced, os.id(), op, &us));
      if (measured && !traced) empty_us.add(us, now_ns(), settled);
    }
  }
  add_latency(report, op_us, empty_us);
  if (cfg.traced) report_overhead(report, ab_traced, ab_untraced);
}

void run_tenants_open(const RunConfig& cfg, Report& report) {
  auto rt = timed_setup(report, tenant_runtime_options(), 1 + kTenantWorkers);
  tenants_loop(*rt, cfg, kSettleNs / 1e9, /*traced_run=*/false, report);
  TenantOut out = tenants_loop(*rt, cfg, cfg.seconds, cfg.traced, report);
  report.diag("tenant_rate_per_s", kTenantRatePerS, "1/s");
  if (cfg.traced) {
    report.add("bench.gen_lag_p90_us", quantile(out.gen_lag_us, 0.9), "us");
    report_overhead(report, out.ab_traced_us, out.ab_untraced_us);
  }
  add_latency(report, out.op, out.empty);
}

std::vector<double> open_loop_gen_lag(const RunConfig& cfg, double seconds,
                                      Report& report) {
  gomp::Runtime rt(tenant_runtime_options());
  TenantOut out = tenants_loop(rt, cfg, seconds, /*traced_run=*/false, report);
  return out.gen_lag_us;
}

}  // namespace perfbench
