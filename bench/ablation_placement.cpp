// Ablation A6: thread placement on the modelled T4240, in two parts.
//
// Part 1 (human mode): the classic OMP_PROC_BIND spread-vs-close study on
// the NAS kernels — spread gives every software thread its own core until
// 12 threads; close packs SMT pairs immediately.
//
// Part 2 (the tentpole study): flat board-wide placement + flat barrier
// against bubble placement + hierarchical barrier:
//   * a 24-thread top-level team's barrier, flat vs two-tier model;
//   * a 4-thread nested team: scatter (spans all 3 clusters) vs a bubble
//     pinned inside the master's cluster — barrier and fork critical path;
//   * a live runtime witness: real teams with real barriers, reporting the
//     gomp.barrier_local / gomp.barrier_xcluster split and the bubble
//     counters (and, with --trace, the barrier_tier sub-events for
//     bench/analyze_trace.py).  The runtime has only the two-tier barrier,
//     so flat mode derives the flat barrier's split from the team's
//     cluster map.
//
// Flags:
//   --mode=flat|hier  which configuration the artifact describes (default
//                     hier).  Keys are identical across modes so
//                     bench/diff_artifacts.py diffs the two directly.
//   --json            emit a diff_artifacts.py-compatible artifact (the
//                     modeled fork critical path rides in trace_summary).
//   --trace=PATH      export a Chrome trace of the runtime witness.
//   --quick           skip the simx spread/close study (CI smoke).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "gomp/runtime.hpp"
#include "npb/npb.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "platform/cost_model.hpp"
#include "simx/engine.hpp"

namespace {

using namespace ompmca;

double run_simx(const platform::CostModel& model, const simx::Program& program,
                unsigned n, platform::PlacementPolicy policy) {
  simx::Engine engine(&model, n, policy);
  return engine.run(program).seconds;
}

/// Spread-vs-close sanity study (pre-existing A6 content).
bool spread_close_study(const platform::CostModel& model) {
  bool all_ok = true;
  for (const auto& [name, trace] :
       {std::pair<const char*, simx::Program (*)(npb::Class)>{"EP",
                                                              npb::trace_ep},
        {"CG", npb::trace_cg}}) {
    simx::Program program = trace(npb::Class::A);
    std::printf("== placement ablation: NAS %s class A ==\n", name);
    std::printf("  %-8s %-14s %-14s %-8s\n", "threads", "spread (s)",
                "close (s)", "ratio");
    for (unsigned n : {2u, 4u, 8u, 12u, 16u, 24u}) {
      double spread =
          run_simx(model, program, n, platform::PlacementPolicy::kScatter);
      double close =
          run_simx(model, program, n, platform::PlacementPolicy::kCompact);
      std::printf("  %-8u %-14.4f %-14.4f %-8.3f\n", n, spread, close,
                  close / spread);
      if (n <= 12) all_ok &= close >= spread * 0.999;
      if (n == 24) all_ok &= std::fabs(close - spread) / spread < 0.01;
    }
    std::printf("\n");
  }
  return all_ok;
}

/// The four modeled quantities of one configuration, in microseconds.
struct ModeNumbers {
  double barrier_top_w24;
  double barrier_nested_w4;
  double fork_top_w24;
  double fork_nested_w4;
  double fork_cp_mean() const { return (fork_top_w24 + fork_nested_w4) / 2; }
};

ModeNumbers model_mode(const platform::CostModel& model, bool hier) {
  const platform::Topology& topo = model.topology();
  platform::TeamShape top(topo, 24);
  platform::TeamShape nested_flat(topo, 4);  // scatter: spans all 3 clusters

  // Bubble shape: the nested team pinned on 4 whole cores of the master's
  // cluster (cluster 0) — what Team's reserve_bubble path produces.
  std::vector<unsigned> bubble_hw;
  for (unsigned h = 0; h < topo.num_hw_threads() && bubble_hw.size() < 4; ++h) {
    if (topo.cluster_of_hw_thread(h) == 0 &&
        topo.hw_thread(h).smt_lane == 0) {
      bubble_hw.push_back(h);
    }
  }
  platform::TeamShape nested_bubble(topo, bubble_hw);

  ModeNumbers m;
  if (hier) {
    m.barrier_top_w24 = model.barrier_seconds_hierarchical(top) * 1e6;
    // The bubble team spans one cluster, where the barrier is one group
    // with no top tier: flat model, 1-cluster shape.
    m.barrier_nested_w4 = model.barrier_seconds(nested_bubble) * 1e6;
    m.fork_top_w24 = model.fork_seconds(top) * 1e6;
    m.fork_nested_w4 = model.fork_seconds(nested_bubble) * 1e6;
  } else {
    m.barrier_top_w24 = model.barrier_seconds(top) * 1e6;
    m.barrier_nested_w4 = model.barrier_seconds(nested_flat) * 1e6;
    m.fork_top_w24 = model.fork_seconds(top) * 1e6;
    m.fork_nested_w4 = model.fork_seconds(nested_flat) * 1e6;
  }
  return m;
}

/// Live-runtime locality witness: a 6-thread team (2 per cluster under
/// scatter) running explicit barriers, plus nested 2-wide inner teams.
struct Witness {
  std::uint64_t barrier_local = 0;
  std::uint64_t barrier_xcluster = 0;
  std::uint64_t team_bubble = 0;
  std::uint64_t team_bubble_spill = 0;
};

gomp::RuntimeOptions witness_options(bool hier) {
  gomp::RuntimeOptions opts;
  opts.nested_bubble = hier;
  gomp::Icvs icvs;
  icvs.num_threads = 6;
  icvs.nested = true;
  icvs.max_active_levels = 2;
  opts.icvs = icvs;
  return opts;
}

Witness run_witness(bool hier) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  Witness w;

  // Phase 1 — barrier locality on a flat 6-thread team (no nesting, so
  // every counted phase is a full 6-arrival barrier and the local/xcluster
  // ratio is exact).  The hier numbers are the runtime barrier's own
  // counters.  The flat numbers come from the team's cluster map: a flat
  // barrier homes its state in the master's cluster, so every arrival from
  // another cluster crosses CoreNet — O(n) crossings per barrier.
  constexpr std::uint64_t kBarriers = 50;
  std::atomic<std::uint64_t> flat_local{0};
  std::atomic<std::uint64_t> flat_xcluster{0};
  obs::Registry::instance().reset();
  {
    gomp::Runtime rt(witness_options(hier));
    rt.parallel([&](gomp::ParallelContext& ctx) {
      for (std::uint64_t i = 0; i < kBarriers; ++i) ctx.barrier();
      const gomp::Team& team = ctx.team();
      (team.cluster_of_thread(ctx.thread_num()) == team.cluster_of_thread(0)
           ? flat_local
           : flat_xcluster)
          .fetch_add(kBarriers, std::memory_order_relaxed);
    });
  }
  if (hier) {
    obs::Snapshot s = obs::Registry::instance().snapshot();
    w.barrier_local = s.counter(obs::Counter::kGompBarrierLocal);
    w.barrier_xcluster = s.counter(obs::Counter::kGompBarrierXCluster);
  } else {
    w.barrier_local = flat_local.load();
    w.barrier_xcluster = flat_xcluster.load();
  }

  // Phase 2 — nested bubble reservations (counted at team construction).
  obs::Registry::instance().reset();
  {
    gomp::Runtime rt(witness_options(hier));
    rt.parallel([&](gomp::ParallelContext& ctx) {
      ctx.runtime().parallel(
          [](gomp::ParallelContext& inner) { inner.barrier(); }, 2);
    });
  }
  {
    obs::Snapshot s = obs::Registry::instance().snapshot();
    w.team_bubble = s.counter(obs::Counter::kGompTeamBubble);
    w.team_bubble_spill = s.counter(obs::Counter::kGompTeamBubbleSpill);
  }
  obs::set_enabled(was_enabled);
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  bool hier = true;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--mode=flat") == 0) hier = false;
    if (std::strcmp(argv[i], "--mode=hier") == 0) hier = true;
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
  }

  const platform::CostModel model(platform::Topology::t4240rdb(),
                                  platform::ServiceCosts::native());
  bool all_ok = true;

  if (!json && !quick) all_ok &= spread_close_study(model);

  // Always compute both configurations: the PASS/FAIL gate is the
  // flat-vs-hier comparison even when only one side is being emitted.
  const ModeNumbers flat = model_mode(model, false);
  const ModeNumbers hierm = model_mode(model, true);
  const ModeNumbers& mine = hier ? hierm : flat;
  all_ok &= hierm.barrier_top_w24 < flat.barrier_top_w24;
  all_ok &= hierm.barrier_nested_w4 < flat.barrier_nested_w4;
  all_ok &= hierm.fork_nested_w4 < flat.fork_nested_w4;
  all_ok &= hierm.fork_cp_mean() < flat.fork_cp_mean();

  if (!trace_path.empty()) obs::trace::set_mode(obs::trace::Mode::kFull);
  const Witness w = run_witness(hier);
  if (hier) {
    // Bubble reservations must have happened, and the 6-thread top team's
    // cross-cluster arrivals must run at O(clusters)=3 per phase — equal to
    // the intra-cluster count for the 2-per-cluster shape.
    all_ok &= w.team_bubble + w.team_bubble_spill >= 1;
    all_ok &= w.barrier_xcluster == w.barrier_local;
  } else {
    // Flat barrier on the same shape: 4 of 6 arrivals cross CoreNet.
    all_ok &= w.barrier_xcluster == 2 * w.barrier_local;
  }
  if (!trace_path.empty()) {
    if (obs::trace::write_chrome_json(trace_path)) {
      std::fprintf(stderr, "trace written to %s\n", trace_path.c_str());
    }
    obs::trace::set_mode(obs::trace::Mode::kOff);
  }

  const char* mode_name = hier ? "hier" : "flat";
  if (json) {
    std::printf("{\n");
    std::printf("  \"_meta\": {\"bench\": \"ablation_placement\", "
                "\"mode\": \"%s\", \"checks\": \"%s\"},\n",
                mode_name, all_ok ? "PASS" : "FAIL");
    std::printf("  \"overheads\": {\n");
    std::printf("    \"barrier_top_w24\": {\"overhead_us\": %.4f},\n",
                mine.barrier_top_w24);
    std::printf("    \"barrier_nested_w4\": {\"overhead_us\": %.4f},\n",
                mine.barrier_nested_w4);
    std::printf("    \"fork_top_w24\": {\"overhead_us\": %.4f},\n",
                mine.fork_top_w24);
    std::printf("    \"fork_nested_w4\": {\"overhead_us\": %.4f}\n",
                mine.fork_nested_w4);
    std::printf("  },\n");
    std::printf("  \"telemetry\": {\"gomp.barrier_local\": %llu, "
                "\"gomp.barrier_xcluster\": %llu, "
                "\"gomp.team_bubble\": %llu, "
                "\"gomp.team_bubble_spill\": %llu},\n",
                static_cast<unsigned long long>(w.barrier_local),
                static_cast<unsigned long long>(w.barrier_xcluster),
                static_cast<unsigned long long>(w.team_bubble),
                static_cast<unsigned long long>(w.team_bubble_spill));
    std::printf("  \"trace_summary\": {\"fork_critical_path_us\": "
                "{\"count\": 2, \"mean_us\": %.4f, \"max_us\": %.4f, "
                "\"p95_us\": %.4f}}\n",
                mine.fork_cp_mean(),
                std::max(mine.fork_top_w24, mine.fork_nested_w4),
                std::max(mine.fork_top_w24, mine.fork_nested_w4));
    std::printf("}\n");
  } else {
    std::printf("== flat vs hier+bubble (modeled T4240, us) ==\n");
    std::printf("  %-20s %-12s %-12s %-8s\n", "quantity", "flat", "hier",
                "ratio");
    const struct {
      const char* name;
      double f, h;
    } rows[] = {
        {"barrier_top_w24", flat.barrier_top_w24, hierm.barrier_top_w24},
        {"barrier_nested_w4", flat.barrier_nested_w4, hierm.barrier_nested_w4},
        {"fork_top_w24", flat.fork_top_w24, hierm.fork_top_w24},
        {"fork_nested_w4", flat.fork_nested_w4, hierm.fork_nested_w4},
        {"fork_cp_mean", flat.fork_cp_mean(), hierm.fork_cp_mean()},
    };
    for (const auto& r : rows) {
      std::printf("  %-20s %-12.4f %-12.4f %-8.3f\n", r.name, r.f, r.h,
                  r.h / r.f);
    }
    std::printf("\n== runtime witness (%s mode, 6-thread team) ==\n",
                mode_name);
    std::printf("  gomp.barrier_local    %llu\n",
                static_cast<unsigned long long>(w.barrier_local));
    std::printf("  gomp.barrier_xcluster %llu\n",
                static_cast<unsigned long long>(w.barrier_xcluster));
    std::printf("  gomp.team_bubble      %llu (+%llu spilled)\n",
                static_cast<unsigned long long>(w.team_bubble),
                static_cast<unsigned long long>(w.team_bubble_spill));
    std::printf("\nchecks: %s\n", all_ok ? "PASS" : "FAIL");
  }
  return all_ok ? 0 : 1;
}
