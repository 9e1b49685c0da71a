#include "gomp/barrier.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <new>
#include <thread>
#include <vector>

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

// A counting ClusterMemory: hands out heap blocks but records which cluster
// each acquire/release was attributed to.
class RecordingClusterMemory final : public ClusterMemory {
 public:
  void* acquire(unsigned cluster, std::size_t bytes) override {
    acquires.push_back(cluster);
    return ::operator new(bytes, std::align_val_t{kCacheLineBytes});
  }
  void release(unsigned cluster, void* p) override {
    releases.push_back(cluster);
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }
  std::vector<unsigned> acquires;
  std::vector<unsigned> releases;
};

TEST(HierarchicalBarrier, HomesTierStatePerCluster) {
  RecordingClusterMemory mem;
  const std::vector<unsigned> map{0, 1, 2, 0, 1, 2};
  {
    HierarchicalBarrier b(6, WaitPolicy::kPassive, map.data(), &mem);
    // One tier allocation per occupied cluster, attributed to that cluster.
    ASSERT_EQ(mem.acquires.size(), 3u);
    EXPECT_EQ(mem.acquires, (std::vector<unsigned>{0, 1, 2}));
    EXPECT_TRUE(mem.releases.empty());

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
  EXPECT_EQ(mem.releases, mem.acquires);
}

}  // namespace
}  // namespace ompmca::gomp
