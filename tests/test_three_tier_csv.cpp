// Tests for the two adopter-facing extensions: the legacy three-tier
// topology builder (Sheriff is topology-agnostic) and CSV trace import /
// replay (swap the synthetic stand-ins for real monitoring exports).

#include <gtest/gtest.h>

#include <sstream>

#include "common/require.hpp"
#include "core/engine.hpp"
#include "topology/three_tier.hpp"
#include "workload/csv_trace.hpp"

namespace topo = sheriff::topo;
namespace core = sheriff::core;
namespace wl = sheriff::wl;
namespace sc = sheriff::common;

class ThreeTierShapes : public ::testing::TestWithParam<int> {};

TEST_P(ThreeTierShapes, MatchesClosedForm) {
  topo::ThreeTierOptions options;
  options.racks = GetParam();
  options.hosts_per_rack = 3;
  options.racks_per_agg = 4;
  const auto shape = topo::three_tier_shape(options);
  const auto t = topo::build_three_tier(options);
  EXPECT_EQ(t.rack_count(), shape.racks);
  EXPECT_EQ(t.count_kind(topo::NodeKind::kHost), shape.hosts);
  EXPECT_EQ(t.count_kind(topo::NodeKind::kTorSwitch), shape.tor_switches);
  EXPECT_EQ(t.count_kind(topo::NodeKind::kAggSwitch), shape.agg_switches);
  EXPECT_EQ(t.count_kind(topo::NodeKind::kCoreSwitch), shape.core_switches);
  EXPECT_EQ(t.link_count(), shape.links);
}

INSTANTIATE_TEST_SUITE_P(RackCounts, ThreeTierShapes, ::testing::Values(4, 8, 16, 17, 32));

TEST(ThreeTier, TorsAreSingleHomed) {
  topo::ThreeTierOptions options;
  options.racks = 8;
  options.racks_per_agg = 4;
  const auto t = topo::build_three_tier(options);
  for (const auto& rack : t.racks()) {
    std::size_t uplinks = 0;
    for (topo::LinkId l : t.links_of(rack.tor)) {
      if (topo::is_switch(t.node(t.peer(l, rack.tor)).kind)) ++uplinks;
    }
    EXPECT_EQ(uplinks, 1u);  // the legacy tree's defining property
  }
}

TEST(ThreeTier, NeighborRegionsAreAggGroups) {
  topo::ThreeTierOptions options;
  options.racks = 8;
  options.racks_per_agg = 4;
  const auto t = topo::build_three_tier(options);
  // Rack 0's one-hop neighbors are the other racks on its agg switch.
  const auto neighbors = t.neighbor_racks(0);
  EXPECT_EQ(neighbors.size(), 3u);
  for (topo::RackId r : neighbors) EXPECT_LT(r, 4u);
}

TEST(ThreeTier, EngineRunsEndToEnd) {
  topo::ThreeTierOptions options;
  options.racks = 8;
  options.hosts_per_rack = 3;
  const auto t = topo::build_three_tier(options);
  core::EngineConfig config;
  wl::DeploymentOptions deploy;
  deploy.seed = 61;
  core::DistributedEngine engine(t, deploy, config);
  const auto metrics = engine.run(8);
  EXPECT_EQ(metrics.size(), 8u);
  for (const auto& node : t.nodes()) {
    if (node.kind == topo::NodeKind::kHost) {
      EXPECT_LE(engine.deployment().host_used_capacity(node.id),
                engine.deployment().host_capacity());
    }
  }
  // Balance still improves on the legacy tree.
  EXPECT_LT(metrics.back().workload_stddev_after, metrics.front().workload_stddev_before);
}

TEST(ThreeTier, RejectsBadOptions) {
  topo::ThreeTierOptions options;
  options.racks = 0;
  EXPECT_THROW(topo::build_three_tier(options), sc::RequirementError);
}

TEST(CsvTrace, ParsesPlainColumn) {
  std::istringstream csv("1.5\n2.25\n-3\n");
  const auto values = wl::read_csv_column(csv);
  EXPECT_EQ(values, (std::vector<double>{1.5, 2.25, -3.0}));
}

TEST(CsvTrace, SkipsHeaderAndSelectsColumn) {
  std::istringstream csv("time,cpu,mem\n0,42.5,10\n1,43.5,11\n\n2,44.5,12\n");
  const auto values = wl::read_csv_column(csv, 1);
  EXPECT_EQ(values, (std::vector<double>{42.5, 43.5, 44.5}));
}

TEST(CsvTrace, RejectsNonNumericDataCell) {
  std::istringstream csv("cpu\n42\noops\n");
  EXPECT_THROW(wl::read_csv_column(csv), sc::RequirementError);
}

TEST(CsvTrace, RejectsMissingColumn) {
  std::istringstream csv("1,2\n3\n");
  EXPECT_THROW(wl::read_csv_column(csv, 1), sc::RequirementError);
}

TEST(CsvTrace, MissingFileThrows) {
  EXPECT_THROW(wl::read_csv_column_file("/nonexistent/trace.csv"), sc::RequirementError);
}

TEST(ReplayTrace, LoopsAndHolds) {
  wl::ReplayTraceGenerator looping({1.0, 2.0, 3.0}, /*loop=*/true);
  const auto looped = looping.generate(7);
  EXPECT_EQ(looped, (std::vector<double>{1, 2, 3, 1, 2, 3, 1}));

  wl::ReplayTraceGenerator holding({1.0, 2.0}, /*loop=*/false);
  const auto held = holding.generate(4);
  EXPECT_EQ(held, (std::vector<double>{1, 2, 2, 2}));

  EXPECT_THROW(wl::ReplayTraceGenerator({}, true), sc::RequirementError);
}

TEST(ReplayTrace, RoundTripsThroughCsv) {
  std::istringstream csv("traffic\n10\n20\n30\n");
  wl::ReplayTraceGenerator replay(wl::read_csv_column(csv), true);
  EXPECT_EQ(replay.size(), 3u);
  EXPECT_DOUBLE_EQ(replay.next(), 10.0);
  EXPECT_DOUBLE_EQ(replay.next(), 20.0);
}
