// Tests for the §VII future-work extension of topology-aware placement,
// plus the spin/backoff helpers.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/spin.hpp"
#include "topology/placement.hpp"
#include "topology/torus.hpp"

namespace {

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
