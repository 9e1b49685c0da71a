// Live-monitor tests: delta-sampler correctness under concurrent writers,
// tenant attribution across masters, the stall watchdog's fire-exactly-once
// protocol against a seeded (pinned-open) region, rendered-format shape,
// and clean sampler shutdown mid-region.
#include "obs/monitor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "gomp/gomp.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace ompmca::obs {
namespace {

std::uint64_t stall_count() {
  return Registry::instance().snapshot().counter(Counter::kObsStallDetected);
}

/// Spin-waits (bounded) until @p pred holds; returns its final value.
template <typename Pred>
bool eventually(Pred pred, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

TEST(Monitor, DeltaSamplerReportsExactDeltas) {
  ScopedEnable scope;
  monitor::DeltaSampler sampler;
  count(Counter::kGompParallel, 7);
  record(Hist::kGompParallelNs, 1000);
  record(Hist::kGompParallelNs, 3000);
  monitor::Sample s1 = sampler.take();
  const unsigned c = static_cast<unsigned>(Counter::kGompParallel);
  const unsigned h = static_cast<unsigned>(Hist::kGompParallelNs);
  EXPECT_EQ(s1.tick, 1u);
  EXPECT_EQ(s1.counter_delta[c], 7u);
  EXPECT_EQ(s1.counter_total[c], 7u);
  EXPECT_EQ(s1.hist_delta[h].count, 2u);
  EXPECT_GT(s1.interval_s, 0.0);

  // Nothing moved: the next delta is exactly zero while totals persist.
  monitor::Sample s2 = sampler.take();
  EXPECT_EQ(s2.tick, 2u);
  EXPECT_EQ(s2.counter_delta[c], 0u);
  EXPECT_EQ(s2.counter_total[c], 7u);
  EXPECT_EQ(s2.hist_delta[h].count, 0u);

  count(Counter::kGompParallel, 3);
  monitor::Sample s3 = sampler.take();
  EXPECT_EQ(s3.counter_delta[c], 3u);
  EXPECT_EQ(s3.counter_total[c], 10u);
}

TEST(Monitor, DeltaSamplerSurvivesRegistryReset) {
  ScopedEnable scope;
  monitor::DeltaSampler sampler;
  count(Counter::kGompParallel, 5);
  (void)sampler.take();
  Registry::instance().reset();  // counters go backwards
  count(Counter::kGompParallel, 2);
  monitor::Sample s = sampler.take();
  // Clamped, never underflowed: 2 < 5, so the delta reports 0, not 2^64-3.
  EXPECT_EQ(s.counter_delta[static_cast<unsigned>(Counter::kGompParallel)],
            0u);
}

TEST(Monitor, DeltaSamplesSumToTotalUnderConcurrentWriters) {
  ScopedEnable scope;
  monitor::DeltaSampler sampler;
  (void)sampler.take();  // baseline

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        count(Counter::kMrapiMutexAcquire);
        record(Hist::kMrapiMutexAcquireNs, 500);
      }
    });
  }
  // Sample concurrently with the writers; every counted event must land in
  // exactly one interval (deltas partition the timeline).
  std::uint64_t summed = 0;
  std::uint64_t summed_hist = 0;
  for (int i = 0; i < 50; ++i) {
    monitor::Sample s = sampler.take();
    summed += s.counter_delta[static_cast<unsigned>(Counter::kMrapiMutexAcquire)];
    summed_hist +=
        s.hist_delta[static_cast<unsigned>(Hist::kMrapiMutexAcquireNs)].count;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  monitor::Sample last = sampler.take();
  summed += last.counter_delta[static_cast<unsigned>(Counter::kMrapiMutexAcquire)];
  summed_hist +=
      last.hist_delta[static_cast<unsigned>(Hist::kMrapiMutexAcquireNs)].count;

  Snapshot total = Registry::instance().snapshot();
  EXPECT_EQ(summed, total.counter(Counter::kMrapiMutexAcquire));
  EXPECT_EQ(summed_hist, total.hist(Hist::kMrapiMutexAcquireNs).count);
}

TEST(Monitor, TenantMetersAttributePerMaster) {
  ScopedEnable scope;
  tenant::reset();
  // Two masters, distinct meters: regions and dispatch latencies must not
  // bleed across threads.
  std::uint64_t id_a = 0;
  std::uint64_t id_b = 0;
  std::thread a([&] {
    id_a = tenant::current_id();
    for (int i = 0; i < 10; ++i) tenant::on_region(1000, false);
    tenant::add_lease_wait(111);
  });
  std::thread b([&] {
    id_b = tenant::current_id();
    for (int i = 0; i < 3; ++i) tenant::on_region(8000, true);
  });
  a.join();
  b.join();
  EXPECT_NE(id_a, id_b);

  bool saw_a = false;
  bool saw_b = false;
  for (const tenant::Snap& t : tenant::snapshot()) {
    if (t.id == id_a) {
      saw_a = true;
      EXPECT_EQ(t.regions, 10u);
      EXPECT_EQ(t.degraded_width, 0u);
      EXPECT_EQ(t.lease_wait_ns, 111u);
      EXPECT_EQ(t.dispatch.count, 10u);
    } else if (t.id == id_b) {
      saw_b = true;
      EXPECT_EQ(t.regions, 3u);
      EXPECT_EQ(t.degraded_width, 3u);
      EXPECT_EQ(t.dispatch.count, 3u);
    }
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);

  // The shutdown report carries the same attribution.
  const std::string report = Registry::instance().json("tenant-test");
  EXPECT_NE(report.find("\"tenants\""), std::string::npos);
  EXPECT_NE(report.find("\"degraded_width\": 3"), std::string::npos);
  tenant::reset();
}

TEST(Monitor, JsonlRenderingIsWellFormed) {
  ScopedEnable scope;
  monitor::DeltaSampler sampler;
  count(Counter::kGompParallel, 4);
  record(Hist::kGompParallelNs, 2000);
  tenant::on_region(1500, false);
  monitor::Sample s = sampler.take();
  const std::string line = monitor::to_jsonl(s);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one line per tick
  EXPECT_NE(line.find("\"monitor\":\"ompmca\""), std::string::npos);
  EXPECT_NE(line.find("\"gomp.parallel\":{\"delta\":4"), std::string::npos);
  EXPECT_NE(line.find("\"gomp.parallel_ns\":{\"count\":1"), std::string::npos);
  EXPECT_NE(line.find("\"p99_ns\":"), std::string::npos);
  EXPECT_NE(line.find("\"tenants\":{"), std::string::npos);
  EXPECT_NE(line.find("\"stalls_total\":"), std::string::npos);
  // Quiet counters stay out of the line (delta-only rendering).
  EXPECT_EQ(line.find("mrapi.node_create"), std::string::npos);
  tenant::reset();
}

TEST(Monitor, PromRenderingFollowsExposition) {
  ScopedEnable scope;
  monitor::DeltaSampler sampler;
  count(Counter::kGompParallel, 2);
  record(Hist::kGompParallelNs, 4000);
  monitor::Sample s = sampler.take();
  const std::string text = monitor::to_prom(s);
  EXPECT_NE(text.find("# TYPE ompmca_gomp_parallel_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ompmca_gomp_parallel_total 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ompmca_gomp_parallel_ns summary"),
            std::string::npos);
  EXPECT_NE(text.find("ompmca_gomp_parallel_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ompmca_gomp_parallel_ns_count 1"), std::string::npos);
  EXPECT_NE(text.find("ompmca_monitor_tick 1"), std::string::npos);
  // Every non-comment line is "name{labels} value" — no stray punctuation.
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string ln = text.substr(pos, eol - pos);
    if (!ln.empty() && ln[0] != '#') {
      EXPECT_NE(ln.find(' '), std::string::npos) << ln;
    }
    pos = eol + 1;
  }
}

TEST(Monitor, SamplerThreadStreamsJsonlToFile) {
  ScopedEnable scope;
  const std::string path = "monitor_test_stream.jsonl";
  monitor::Options o;
  o.interval_ms = 5;
  o.path = path;
  o.stall_ns = 0;  // no watchdog in this test
  ASSERT_TRUE(monitor::start(o));
  EXPECT_FALSE(monitor::start(o));  // second monitor refused
  count(Counter::kGompParallel, 6);
  EXPECT_TRUE(eventually([] { return monitor::ticks() >= 3; }));
  monitor::stop();
  EXPECT_FALSE(monitor::running());
  const std::uint64_t final_ticks = monitor::ticks();
  EXPECT_GE(final_ticks, 3u);

  // One JSON object per line, and the tick counter matches the line count.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) contents.append(buf, n);
  std::fclose(f);
  std::uint64_t lines = 0;
  for (char ch : contents) lines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(lines, final_ticks);
  EXPECT_NE(contents.find("\"gomp.parallel\""), std::string::npos);
  EXPECT_EQ(monitor::last_rendered_sample().front(), '{');
  std::remove(path.c_str());
}

TEST(Monitor, WatchdogFiresExactlyOnceOnSeededStall) {
  ScopedEnable scope;
  trace::set_mode(trace::Mode::kRing);  // arm the flight recorder
  trace::reset();

  gomp::RuntimeOptions opts;
  gomp::Icvs icvs;
  icvs.num_threads = 2;
  opts.icvs = icvs;
  gomp::Runtime rt(opts);
  rt.parallel([](gomp::ParallelContext&) {}, 2);  // launch workers

  const std::uint64_t flights_before = trace::flight_record_count();

  monitor::Options o;
  o.interval_ms = 10;
  o.path = "monitor_test_watchdog.jsonl";
  o.stall_ns = 40'000'000;  // 40 ms: far above dispatch, far below the pin
  ASSERT_TRUE(monitor::start(o));

  // Seed the stall: a region whose body pins the slot open until released.
  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  std::thread master([&] {
    rt.parallel(
        [&](gomp::ParallelContext& ctx) {
          if (ctx.thread_num() == 0) entered.store(true);
          while (!release.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        },
        2);
  });
  ASSERT_TRUE(eventually([&] { return entered.load(); }));
  // The watchdog must fire once the region outlives stall_ns...
  EXPECT_TRUE(eventually([] { return stall_count() >= 1; }));
  // ...and exactly once: the same seq is deduped on every later tick.
  const std::uint64_t ticks_at_fire = monitor::ticks();
  EXPECT_TRUE(
      eventually([&] { return monitor::ticks() >= ticks_at_fire + 4; }));
  EXPECT_EQ(stall_count(), 1u);
  // The report dumped the flight record through the crash path.
  EXPECT_EQ(trace::flight_record_count(), flights_before + 1);
  EXPECT_NE(trace::last_flight_record().find("stall watchdog"),
            std::string::npos);

  release.store(true, std::memory_order_release);
  master.join();

  // The region completed: later ticks stay quiet (no phantom re-report).
  const std::uint64_t after = monitor::ticks();
  EXPECT_TRUE(eventually([&] { return monitor::ticks() >= after + 2; }));
  EXPECT_EQ(stall_count(), 1u);

  monitor::stop();
  trace::set_mode(trace::Mode::kOff);
  std::remove("monitor_test_watchdog.jsonl");
}

// The monitor's gate bit arms recording only while it runs: after stop()
// the hooks fall back to the metrics bit, here off.
TEST(Monitor, StopRestoresTheGate) {
  const bool was = enabled();
  set_enabled(false);
  monitor::Options o;
  o.interval_ms = 5;
  o.path = "monitor_test_gate.jsonl";
  o.stall_ns = 0;
  ASSERT_TRUE(monitor::start(o));
  EXPECT_TRUE(enabled());
  monitor::stop();
  EXPECT_FALSE(enabled());
  set_enabled(was);
  std::remove("monitor_test_gate.jsonl");
}

TEST(Monitor, CleanShutdownMidRegion) {
  ScopedEnable scope;
  gomp::RuntimeOptions opts;
  gomp::Icvs icvs;
  icvs.num_threads = 2;
  opts.icvs = icvs;
  gomp::Runtime rt(opts);

  monitor::Options o;
  o.interval_ms = 5;
  o.path = "monitor_test_shutdown.jsonl";
  ASSERT_TRUE(monitor::start(o));

  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  std::thread master([&] {
    rt.parallel(
        [&](gomp::ParallelContext& ctx) {
          if (ctx.thread_num() == 0) entered.store(true);
          while (!release.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        },
        2);
  });
  ASSERT_TRUE(eventually([&] { return entered.load(); }));
  // stop() must return promptly with the region still open — the final
  // sample and watchdog pass cannot wait on the region's join.
  monitor::stop();
  EXPECT_FALSE(monitor::running());
  EXPECT_GE(monitor::ticks(), 1u);  // the final sample was emitted

  release.store(true, std::memory_order_release);
  master.join();

  // Restartable after a stop: the monitor is a process-lifetime service.
  ASSERT_TRUE(monitor::start(o));
  monitor::stop();
  std::remove("monitor_test_shutdown.jsonl");
}

}  // namespace
}  // namespace ompmca::obs
