// Tests for the §VII future-work extensions: topology-aware placement
// and the prioritized scheduler queue, plus the spin/backoff helpers.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/spin.hpp"
#include "queue/priority_queue.hpp"
#include "topology/placement.hpp"
#include "topology/torus.hpp"

namespace {

using bgq::queue::PriorityMsgQueue;
using bgq::topo::map_grid;
using bgq::topo::neighbor_hops;
using bgq::topo::NodeId;
using bgq::topo::Placement;
using bgq::topo::Torus;

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

TEST(Placement, LinearMapIsIdentity) {
  Torus t = Torus::bgq_partition(64);
  const auto map = map_grid(t, 8, 8, Placement::kLinear);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(map[i], i);
}

TEST(Placement, FoldedMapIsAPermutation) {
  Torus t = Torus::bgq_partition(512);
  const auto map = map_grid(t, 16, 32, Placement::kFolded);
  std::set<NodeId> seen(map.begin(), map.end());
  EXPECT_EQ(seen.size(), map.size()) << "mapping must not collide";
  for (NodeId n : map) EXPECT_LT(n, t.node_count());
}

class PlacementSizes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {
};

TEST_P(PlacementSizes, FoldedReducesNeighborHops) {
  // The paper's future-work claim: topological placement reduces the
  // distance between communicating partners.  For pencil grids on BG/Q
  // partitions the folded embedding must beat oblivious linear order.
  const auto [nodes, g1] = GetParam();
  const std::size_t g2 = nodes / g1;
  Torus t = Torus::bgq_partition(nodes);
  const auto lin = neighbor_hops(t, map_grid(t, g1, g2,
                                             Placement::kLinear),
                                 g1, g2);
  const auto fold = neighbor_hops(t, map_grid(t, g1, g2,
                                              Placement::kFolded),
                                  g1, g2);
  EXPECT_LE(fold.overall(), lin.overall() + 1e-12)
      << "folded " << fold.overall() << " vs linear " << lin.overall();
}

INSTANTIATE_TEST_SUITE_P(
    Grids, PlacementSizes,
    ::testing::Values(std::make_pair(std::size_t{64}, std::size_t{8}),
                      std::make_pair(std::size_t{256}, std::size_t{16}),
                      std::make_pair(std::size_t{512}, std::size_t{16}),
                      std::make_pair(std::size_t{1024}, std::size_t{32})),
    [](const auto& info) {
      return "n" + std::to_string(info.param.first) + "g" +
             std::to_string(info.param.second);
    });

TEST(Placement, RejectsOversizedGrid) {
  Torus t = Torus::bgq_partition(64);
  EXPECT_THROW(map_grid(t, 16, 16, Placement::kLinear),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Priority queue
// ---------------------------------------------------------------------------

std::uint64_t* tag(std::uint64_t v) {
  return reinterpret_cast<std::uint64_t*>(v + 1);
}
std::uint64_t untag(std::uint64_t* p) {
  return reinterpret_cast<std::uint64_t>(p) - 1;
}

TEST(PriorityMsgQueue, StrictPriorityOrder) {
  PriorityMsgQueue<std::uint64_t*> q;
  q.enqueue(tag(10), 5);
  q.enqueue(tag(20), -3);  // most urgent
  q.enqueue(tag(30), 0);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.top_priority(), -3);
  EXPECT_EQ(untag(q.try_dequeue()), 20u);
  EXPECT_EQ(untag(q.try_dequeue()), 30u);
  EXPECT_EQ(untag(q.try_dequeue()), 10u);
  EXPECT_EQ(q.try_dequeue(), nullptr);
  EXPECT_TRUE(q.empty());
}

TEST(PriorityMsgQueue, FifoWithinPriorityClass) {
  PriorityMsgQueue<std::uint64_t*> q;
  for (std::uint64_t i = 0; i < 10; ++i) q.enqueue(tag(i), 7);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(untag(q.try_dequeue()), i);
  }
}

TEST(PriorityMsgQueue, InterleavedOperations) {
  PriorityMsgQueue<std::uint64_t*> q;
  q.enqueue(tag(1), 2);
  q.enqueue(tag(2), 1);
  EXPECT_EQ(untag(q.try_dequeue()), 2u);
  q.enqueue(tag(3), 0);
  q.enqueue(tag(4), 3);
  EXPECT_EQ(untag(q.try_dequeue()), 3u);
  EXPECT_EQ(untag(q.try_dequeue()), 1u);
  EXPECT_EQ(untag(q.try_dequeue()), 4u);
  EXPECT_EQ(q.classes(), 0u);
}

TEST(PriorityMsgQueue, ClassesTrackDistinctPriorities) {
  PriorityMsgQueue<std::uint64_t*> q;
  q.enqueue(tag(1), 1);
  q.enqueue(tag(2), 1);
  q.enqueue(tag(3), 9);
  EXPECT_EQ(q.classes(), 2u);
  q.try_dequeue();
  q.try_dequeue();
  EXPECT_EQ(q.classes(), 1u);
}

// ---------------------------------------------------------------------------
// Spin helpers
// ---------------------------------------------------------------------------

TEST(Spin, SpinUntilObservesFlagUnderEveryPolicy) {
  using bgq::IdlePollPolicy;
  for (auto policy : {IdlePollPolicy::kHotSpin, IdlePollPolicy::kL2Paced,
                      IdlePollPolicy::kOsYield}) {
    std::atomic<bool> flag{false};
    std::thread setter([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      flag.store(true, std::memory_order_release);
    });
    while (!flag.load(std::memory_order_acquire)) bgq::idle_pause(policy);
    setter.join();
    SUCCEED();
  }
}

}  // namespace
