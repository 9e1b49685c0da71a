#include "gomp/barrier.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "gomp/backend_native.hpp"

namespace ompmca::gomp {
namespace {

enum class Map { kOneCluster, kScatter, kSparse };

struct BarrierCase {
  WaitPolicy policy;
  unsigned nthreads;
  Map map;
};

std::vector<unsigned> cluster_map(Map map, unsigned nthreads) {
  std::vector<unsigned> cluster_of_thread(nthreads);
  for (unsigned i = 0; i < nthreads; ++i) {
    switch (map) {
      case Map::kOneCluster: cluster_of_thread[i] = 5; break;
      // T4240-shaped scatter: threads round-robin over three clusters.
      case Map::kScatter: cluster_of_thread[i] = i % 3; break;
      // Uneven occupancy over non-contiguous cluster ids.
      case Map::kSparse: cluster_of_thread[i] = (i % 4 == 1) ? 2 : 7; break;
    }
  }
  return cluster_of_thread;
}

class BarrierParamTest : public ::testing::TestWithParam<BarrierCase> {};

// The fundamental barrier property: no thread observes phase k+1 work
// before every thread finished phase k.
TEST_P(BarrierParamTest, SeparatesPhases) {
  const BarrierCase c = GetParam();
  const std::vector<unsigned> cluster_of_thread =
      cluster_map(c.map, c.nthreads);
  HierarchicalBarrier barrier(c.nthreads, c.policy, cluster_of_thread.data());
  EXPECT_EQ(barrier.size(), c.nthreads);

  constexpr int kPhases = 25;
  std::atomic<int> arrivals{0};
  std::atomic<bool> violation{false};

  auto worker = [&](unsigned tid) {
    for (int phase = 0; phase < kPhases; ++phase) {
      arrivals.fetch_add(1, std::memory_order_acq_rel);
      barrier.arrive_and_wait(tid);
      // After the barrier every thread of this phase must have arrived.
      if (arrivals.load(std::memory_order_acquire) <
          (phase + 1) * static_cast<int>(c.nthreads)) {
        violation.store(true);
      }
      barrier.arrive_and_wait(tid);  // separate the read from next phase
    }
  };

  std::vector<std::thread> threads;
  for (unsigned t = 1; t < c.nthreads; ++t) threads.emplace_back(worker, t);
  worker(0);
  for (auto& t : threads) t.join();

  EXPECT_FALSE(violation.load());
  EXPECT_EQ(arrivals.load(), kPhases * static_cast<int>(c.nthreads));
}

std::vector<BarrierCase> all_cases() {
  std::vector<BarrierCase> cases;
  for (WaitPolicy policy : {WaitPolicy::kPassive, WaitPolicy::kActive}) {
    for (unsigned n : {2u, 4u, 6u, 24u}) {
      for (Map map : {Map::kOneCluster, Map::kScatter, Map::kSparse}) {
        cases.push_back({policy, n, map});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    PolicyWidthMap, BarrierParamTest, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<BarrierCase>& param_info) {
      const auto& c = param_info.param;
      const char* map = c.map == Map::kOneCluster ? "one_cluster"
                        : c.map == Map::kScatter  ? "scatter"
                                                  : "sparse";
      return std::string(c.policy == WaitPolicy::kPassive ? "passive"
                                                          : "active") +
             "_" + std::to_string(c.nthreads) + "_" + map;
    });

TEST(HierarchicalBarrier, SingleThreadIsNoOp) {
  HierarchicalBarrier b(1, WaitPolicy::kPassive, nullptr);
  for (int i = 0; i < 100; ++i) b.arrive_and_wait(0);  // must not hang
}

TEST(HierarchicalBarrier, GroupCountMatchesOccupiedClusters) {
  // 24-thread T4240 scatter placement: 3 clusters, 8 threads each.
  std::vector<unsigned> map(24);
  for (unsigned i = 0; i < 24; ++i) map[i] = i % 3;
  HierarchicalBarrier b(24, WaitPolicy::kPassive, map.data());
  EXPECT_EQ(b.size(), 24u);
  EXPECT_EQ(b.num_cluster_groups(), 3u);

  // Uneven occupancy: clusters {7, 2} — top tier width 2, not max-id+1.
  const std::vector<unsigned> sparse{7, 2, 7, 7};
  HierarchicalBarrier s(4, WaitPolicy::kActive, sparse.data());
  EXPECT_EQ(s.num_cluster_groups(), 2u);

  // One cluster, or no map at all: a single group.
  const std::vector<unsigned> one(8, 5u);
  EXPECT_EQ(HierarchicalBarrier(8, WaitPolicy::kPassive, one.data())
                .num_cluster_groups(),
            1u);
  EXPECT_EQ(HierarchicalBarrier(8, WaitPolicy::kPassive, nullptr)
                .num_cluster_groups(),
            1u);
}

// A recording backend: serves every call from a NativeBackend but records
// which cluster each cluster-homed allocation, and its later deallocation,
// was attributed to.
class RecordingBackend final : public SystemBackend {
 public:
  std::string_view name() const override { return "recording"; }
  Status launch_thread(unsigned index, std::function<void()> fn) override {
    return inner_.launch_thread(index, std::move(fn));
  }
  Status join_thread(unsigned index) override {
    return inner_.join_thread(index);
  }
  void* allocate(std::size_t bytes) override { return inner_.allocate(bytes); }
  void deallocate(void* p) override {
    if (auto it = cluster_of_.find(p); it != cluster_of_.end()) {
      releases.push_back(it->second);
      cluster_of_.erase(it);
    }
    inner_.deallocate(p);
  }
  void* allocate_on_cluster(std::size_t bytes, unsigned cluster) override {
    void* p = inner_.allocate_on_cluster(bytes, cluster);
    acquires.push_back(cluster);
    cluster_of_[p] = cluster;
    return p;
  }
  std::unique_ptr<BackendMutex> create_mutex() override {
    return inner_.create_mutex();
  }
  unsigned num_procs() override { return inner_.num_procs(); }

  std::vector<unsigned> acquires;
  std::vector<unsigned> releases;

 private:
  NativeBackend inner_{platform::Topology::t4240rdb()};
  std::map<void*, unsigned> cluster_of_;
};

TEST(HierarchicalBarrier, HomesTierStatePerCluster) {
  RecordingBackend backend;
  const std::vector<unsigned> map{0, 1, 2, 0, 1, 2};
  {
    HierarchicalBarrier b(6, WaitPolicy::kPassive, map.data(), &backend);
    // One tier allocation per occupied cluster, attributed to that cluster.
    ASSERT_EQ(backend.acquires.size(), 3u);
    EXPECT_EQ(backend.acquires, (std::vector<unsigned>{0, 1, 2}));
    EXPECT_TRUE(backend.releases.empty());

    // The barrier still works with externally homed state.
    std::vector<std::thread> threads;
    std::atomic<int> after{0};
    for (unsigned t = 1; t < 6; ++t) {
      threads.emplace_back([&, t] {
        b.arrive_and_wait(t);
        after.fetch_add(1);
      });
    }
    b.arrive_and_wait(0);
    after.fetch_add(1);
    for (auto& th : threads) th.join();
    EXPECT_EQ(after.load(), 6);
  }
  // Destruction releases every acquired block back to its cluster.
  EXPECT_EQ(backend.releases, backend.acquires);
}

}  // namespace
}  // namespace ompmca::gomp
