// Ablation A4: barrier algorithm choice, measured two ways:
//   * wall clock on this host (real threads, active wait) for four
//     algorithms.  Two are the runtime's barrier (gomp::HierarchicalBarrier):
//     "central" runs it over a one-cluster map, where it is one group with
//     the shape of a sense-reversing counter barrier; "hierarchical" runs it
//     over a synthetic 3-cluster map, T4240-style.  The other two — an
//     arity-4 combining tree and a dissemination barrier — live only in
//     this file, so the comparison stays reproducible although the runtime
//     no longer carries them.  Every timed algorithm first passes a
//     phase-separation check; a violation fails the run (exit 1).
//   * the platform cost model's T4240 prediction: the flat model
//     (barrier_seconds, per-thread term over the whole team plus a CoreNet
//     penalty per extra cluster) against the two-tier model
//     (barrier_seconds_hierarchical, per-thread term over the fullest
//     cluster only, CoreNet crossed once per occupied cluster).
//
// Flags:
//   --quick        fewer rounds/widths (CI smoke, sanitizer runs)
//   --kind=NAME    restrict the wall-clock section to one algorithm:
//                  central, tree, dissemination, hier (or hierarchical);
//                  --kind=hier under TSan exercises exactly the two-tier
//                  protocol
//   --json         emit a diff_artifacts.py-compatible artifact on stdout
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/align.hpp"
#include "common/spin.hpp"
#include "gomp/barrier.hpp"
#include "platform/cost_model.hpp"

namespace {

using namespace ompmca;

/// Arity-4 combining tree (the arity matches the 4-core clusters): the last
/// arriver at each node climbs to its parent, and whoever passes the root
/// flips one shared sense flag.  Spin-only: the ablation runs active wait.
class TreeBarrier {
 public:
  static constexpr unsigned kArity = 4;

  explicit TreeBarrier(unsigned nthreads) : leaf_of_thread_(nthreads) {
    // Level sizes, bottom-up: leaves over groups of kArity threads, then
    // each parent level over groups of kArity nodes.
    std::vector<unsigned> level_size;
    for (unsigned level = (nthreads + kArity - 1) / kArity;;
         level = (level + kArity - 1) / kArity) {
      level_size.push_back(level);
      if (level == 1) break;
    }
    unsigned total = 0;
    for (unsigned n : level_size) total += n;
    nodes_ = std::make_unique<Padded<Node>[]>(total);
    for (unsigned t = 0; t < nthreads; ++t) {
      leaf_of_thread_[t] = t / kArity;
      ++nodes_[t / kArity]->expected;
    }
    unsigned base = 0;
    for (std::size_t l = 0; l + 1 < level_size.size(); ++l) {
      const unsigned parent_base = base + level_size[l];
      for (unsigned i = 0; i < level_size[l]; ++i) {
        const unsigned parent = parent_base + i / kArity;
        nodes_[base + i]->parent = static_cast<int>(parent);
        ++nodes_[parent]->expected;
      }
      base = parent_base;
    }
  }

  void arrive_and_wait(unsigned tid) {
    const bool my_sense = !sense_.load(std::memory_order_relaxed);
    for (int node = static_cast<int>(leaf_of_thread_[tid]); node >= 0;) {
      Node& n = *nodes_[static_cast<unsigned>(node)];
      if (n.count.fetch_add(1, std::memory_order_acq_rel) + 1 != n.expected) {
        Backoff backoff;
        while (sense_.load(std::memory_order_acquire) != my_sense)
          backoff.pause();
        return;
      }
      n.count.store(0, std::memory_order_relaxed);
      node = n.parent;
    }
    // Climbed past the root: release everyone.
    sense_.store(my_sense, std::memory_order_release);
  }

 private:
  struct Node {
    std::atomic<unsigned> count{0};
    unsigned expected = 0;
    int parent = -1;
  };

  // Node holds an atomic and cannot be moved, which rules out std::vector.
  std::unique_ptr<Padded<Node>[]> nodes_;
  std::vector<unsigned> leaf_of_thread_;
  std::atomic<bool> sense_{false};
};

/// ceil(log2 n) rounds of pairwise signalling; each round waits on a
/// different per-thread flag, so it is inherently spin-only.
class DisseminationBarrier {
 public:
  explicit DisseminationBarrier(unsigned nthreads)
      : n_(nthreads), flags_(nthreads), state_(nthreads) {
    while ((1u << rounds_) < n_) ++rounds_;
    for (auto& per_thread : flags_) {
      for (auto& per_parity : per_thread) {
        per_parity = std::vector<std::atomic<bool>>(rounds_);
        for (auto& f : per_parity) f.store(false, std::memory_order_relaxed);
      }
    }
  }

  void arrive_and_wait(unsigned tid) {
    State& st = *state_[tid];
    Backoff backoff;
    for (unsigned r = 0; r < rounds_; ++r) {
      const unsigned partner = (tid + (1u << r)) % n_;
      flags_[partner][st.parity][r].store(st.sense,
                                          std::memory_order_release);
      while (flags_[tid][st.parity][r].load(std::memory_order_acquire) !=
             st.sense) {
        backoff.pause();
      }
      backoff.reset();
    }
    if (st.parity == 1) st.sense = !st.sense;
    st.parity ^= 1;
  }

 private:
  struct State {
    unsigned parity = 0;
    bool sense = true;
  };

  unsigned n_;
  unsigned rounds_ = 0;
  // flags_[tid][parity][round]
  std::vector<std::array<std::vector<std::atomic<bool>>, 2>> flags_;
  std::vector<Padded<State>> state_;
};

enum class Algo { kCentral, kTree, kDissemination, kHierarchical };

const char* name(Algo a) {
  switch (a) {
    case Algo::kCentral: return "central";
    case Algo::kTree: return "tree";
    case Algo::kDissemination: return "dissemination";
    case Algo::kHierarchical: return "hierarchical";
  }
  return "?";
}

bool parse_algo(std::string_view text, Algo* out) {
  if (text == "central") *out = Algo::kCentral;
  else if (text == "tree") *out = Algo::kTree;
  else if (text == "dissemination") *out = Algo::kDissemination;
  else if (text == "hier" || text == "hierarchical")
    *out = Algo::kHierarchical;
  else return false;
  return true;
}

struct Timing {
  double ns = 0;           // wall-clock ns per barrier
  bool separated = false;  // passed the phase-separation check
};

/// Runs @p threads real threads through @p barrier: first a
/// phase-separation check (after each barrier every thread of the phase
/// must have arrived), then @p rounds timed barriers.
template <typename Barrier>
Timing time_barrier(Barrier& barrier, unsigned threads, int rounds) {
  constexpr int kCheckPhases = 50;
  std::atomic<int> arrivals{0};
  std::atomic<bool> violation{false};
  std::chrono::steady_clock::time_point t0;
  auto body = [&](unsigned tid) {
    for (int phase = 0; phase < kCheckPhases; ++phase) {
      arrivals.fetch_add(1, std::memory_order_acq_rel);
      barrier.arrive_and_wait(tid);
      if (arrivals.load(std::memory_order_acquire) <
          (phase + 1) * static_cast<int>(threads)) {
        violation.store(true);
      }
    }
    if (tid == 0) t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) barrier.arrive_and_wait(tid);
  };
  std::vector<std::thread> team;
  for (unsigned t = 1; t < threads; ++t) team.emplace_back(body, t);
  body(0);
  for (auto& t : team) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  return {std::chrono::duration<double, std::nano>(t1 - t0).count() / rounds,
          !violation.load()};
}

Timing run(Algo algo, unsigned threads, int rounds) {
  switch (algo) {
    case Algo::kCentral: {
      gomp::HierarchicalBarrier b(threads, gomp::WaitPolicy::kActive,
                                  /*cluster_of_thread=*/nullptr);
      return time_barrier(b, threads, rounds);
    }
    case Algo::kHierarchical: {
      // Threads round-robined over three synthetic clusters.
      std::vector<unsigned> cluster_of_thread(threads);
      for (unsigned i = 0; i < threads; ++i) cluster_of_thread[i] = i % 3;
      gomp::HierarchicalBarrier b(threads, gomp::WaitPolicy::kActive,
                                  cluster_of_thread.data());
      return time_barrier(b, threads, rounds);
    }
    case Algo::kTree: {
      TreeBarrier b(threads);
      return time_barrier(b, threads, rounds);
    }
    case Algo::kDissemination: {
      DisseminationBarrier b(threads);
      return time_barrier(b, threads, rounds);
    }
  }
  return {};
}

struct Row {
  std::string key;
  double us;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  bool restrict_kind = false;
  Algo only = Algo::kCentral;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strncmp(argv[i], "--kind=", 7) == 0) {
      if (!parse_algo(argv[i] + 7, &only)) {
        std::fprintf(stderr, "ablation_barriers: bad --kind=%s\n",
                     argv[i] + 7);
        return 2;
      }
      restrict_kind = true;
    }
  }

  const int rounds = quick ? 200 : 2000;
  const std::vector<unsigned> widths = quick ? std::vector<unsigned>{4u}
                                             : std::vector<unsigned>{2u, 4u, 8u};
  std::vector<Row> rows;
  bool all_ok = true;

  if (!json) {
    std::printf("== barrier ablation: wall clock (host, %d rounds) ==\n",
                rounds);
    std::printf("  %-14s %-8s %-12s %-8s\n", "kind", "threads", "ns/barrier",
                "phases");
  }
  for (Algo algo : {Algo::kCentral, Algo::kTree, Algo::kDissemination,
                    Algo::kHierarchical}) {
    if (restrict_kind && algo != only) continue;
    for (unsigned n : widths) {
      const Timing t = run(algo, n, rounds);
      all_ok &= t.separated;
      if (!json) {
        std::printf("  %-14s %-8u %-12.0f %-8s\n", name(algo), n, t.ns,
                    t.separated ? "ok" : "VIOLATED");
      }
      rows.push_back({"host_" + std::string(name(algo)) + "_t" +
                          std::to_string(n),
                      t.ns / 1000.0});
    }
  }

  // Modeled T4240 view.  The flat model is algorithm-agnostic (central and
  // tree differ in constants the model folds into ServiceCosts), so the
  // interesting comparison is flat vs two-tier on scatter-placed teams.
  const platform::CostModel model(platform::Topology::t4240rdb(),
                                  platform::ServiceCosts::native());
  if (!json) {
    std::printf("\n== barrier ablation: modeled T4240 (scatter teams) ==\n");
    std::printf("  %-8s %-12s %-12s %-8s\n", "threads", "flat (us)",
                "hier (us)", "ratio");
  }
  for (unsigned n : {4u, 12u, 24u}) {
    platform::TeamShape shape(model.topology(), n);
    const double flat = model.barrier_seconds(shape) * 1e6;
    const double hier = model.barrier_seconds_hierarchical(shape) * 1e6;
    if (!json) {
      std::printf("  %-8u %-12.4f %-12.4f %-8.3f\n", n, flat, hier,
                  hier / flat);
    }
    rows.push_back({"model_flat_w" + std::to_string(n), flat});
    rows.push_back({"model_hier_w" + std::to_string(n), hier});
    // The two-tier barrier must beat the flat one whenever combining depth
    // dominates — i.e. once the per-cluster occupancy is below the team
    // width (any multi-cluster team wider than its fullest cluster).
    if (n >= 12 && hier >= flat) all_ok = false;
  }

  if (json) {
    std::printf("{\n");
    std::printf("  \"_meta\": {\"bench\": \"ablation_barriers\", "
                "\"rounds\": %d, \"policy\": \"active\", "
                "\"clusters\": 3, \"checks\": \"%s\"},\n",
                rounds, all_ok ? "PASS" : "FAIL");
    std::printf("  \"overheads\": {\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::printf("    \"%s\": {\"overhead_us\": %.4f}%s\n",
                  rows[i].key.c_str(), rows[i].us,
                  i + 1 == rows.size() ? "" : ",");
    }
    std::printf("  }\n}\n");
  } else {
    std::printf("\nchecks: %s\n", all_ok ? "PASS" : "FAIL");
  }
  return all_ok ? 0 : 1;
}
