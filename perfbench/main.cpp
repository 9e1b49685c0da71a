// perfbench driver binary.  run.py builds it and calls
//
//   perfbench --workload <fork_join|tenants_open> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <path>]
//
// It prints one "name value unit" line per metric and diagnostic, then one
// JSON line with every metric, the attempted/failed counts and the build
// fingerprint.  --trace 1 runs the workload with every other op traced,
// then the layer probes, and reports the per-layer metrics.
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>

#include "bench.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;

unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

int usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  return 2;
}

void print_metrics(const char* key, const std::vector<Metric>& metrics) {
  std::printf("\"%s\": {", key);
  const char* sep = "";
  for (const Metric& m : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}, ");
}

void print_json(const Report& report) {
  std::printf("{\"attempted\": %ld, \"failed\": %ld, ", report.attempted,
              report.failed);
  print_metrics("metrics", report.metrics);
  print_metrics("diagnostics", report.diagnostics);
  std::printf("\"build\": {\"compiler\": \"%s\", \"build_type\": \"%s\"}}\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      cfg.traced = std::strcmp(val, "1") == 0;
    } else if (key == "--trace-out") {
      trace_out = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (!(cfg.seconds > 0 && cfg.seconds <= 600)) {
    return usage("--seconds must be in (0, 600]");
  }
  const std::map<std::string, std::function<void(const RunConfig&, Report&)>>
      workloads = {{"fork_join", run_fork_join},
                   {"tenants_open", run_tenants_open}};
  auto it = workloads.find(cfg.workload);
  if (it == workloads.end()) return usage("unknown --workload");
  // Every workload (and probe) runs kThreads threads at most; on fewer
  // CPUs the numbers would measure the OS scheduler, not the runtime.
  const unsigned cpus = host_cpus();
  if (cpus < kThreads) {
    std::fprintf(stderr,
                 "perfbench: %s needs %u CPUs, this process may use %u; "
                 "refusing to run oversubscribed\n",
                 cfg.workload.c_str(), kThreads, cpus);
    return 3;
  }

  Report report;
  it->second(cfg, report);
  if (cfg.traced) {
    if (cfg.workload != "tenants_open") {
      // The generator-lag metric needs an open loop; take a short one.
      std::vector<double> lag = open_loop_gen_lag(cfg, 1.0, report);
      report.add("bench.gen_lag_p90_us", quantile(lag, 0.9), "us");
    }
    probe_mrapi(report);
    probe_backend(report);
    probe_pool(report);
    probe_constructs(report);
    probe_tasks(report);
    probe_npb(report);
    const SpanSummary spans = summarize_spans();
    double total = 0;
    for (double ns : spans.self_ns) total += ns;
    for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
      report.add(std::string("self.") + layer_name(static_cast<Layer>(l)) +
                     "_pct",
                 total > 0 ? spans.self_ns[l] / total * 100.0 : 0.0, "%");
    }
    report.diag("trace.spans", static_cast<double>(spans.spans), "count");
    report.diag("trace.dropped", static_cast<double>(spans.dropped), "count");
    if (!trace_out.empty() && !write_spans(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      report.check(false);
    }
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  report.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  report.add("ok_share",
             report.attempted > 0
                 ? static_cast<double>(report.attempted - report.failed) /
                       static_cast<double>(report.attempted)
                 : 0.0,
             "share");
  for (const Metric& m : report.metrics) {
    std::printf("%-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : report.diagnostics) {
    std::printf("%-40s %14.6g %s (diagnostic)\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  print_json(report);
  return 0;
}
