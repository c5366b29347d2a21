// Differentials for in-place shortest-path-tree repair across liveness
// changes: graph::repair_tree against a fresh dijkstra_into on random
// uniform-weight graphs, the Router's repaired tree cache against fresh
// builds on the masked fabric (plus cached routing against the uncached
// reference route, ECMP hash choice included), and the cached engine under
// fault plans against metrics goldens of the uncached engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "fault/fault_plan.hpp"
#include "golden.hpp"
#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "net/routing.hpp"
#include "reference.hpp"
#include "topology/bcube.hpp"
#include "topology/fat_tree.hpp"
#include "topology/liveness.hpp"
#include "topology/three_tier.hpp"

namespace core = sheriff::core;
namespace fault = sheriff::fault;
namespace graph = sheriff::graph;
namespace net = sheriff::net;
namespace reference = sheriff::reference;
namespace topo = sheriff::topo;
namespace wl = sheriff::wl;
namespace sc = sheriff::common;

namespace {

/// Uniform index in [0, n).
std::size_t pick(sc::Pcg32& rng, std::size_t n) {
  return rng.next_below(static_cast<std::uint32_t>(n));
}

void expect_same_tree(const graph::ShortestPathTree& repaired,
                      const graph::ShortestPathTree& fresh, const std::string& where) {
  ASSERT_EQ(repaired.distance.size(), fresh.distance.size()) << where;
  for (std::size_t v = 0; v < fresh.distance.size(); ++v) {
    // Bitwise: the repair must reproduce the left-folded level sums.
    ASSERT_EQ(repaired.distance[v], fresh.distance[v]) << where << " distance of " << v;
    ASSERT_EQ(repaired.parents[v], fresh.parents[v]) << where << " parents of " << v;
  }
}

// --- (a) graph::repair_tree vs dijkstra_into --------------------------------

/// The same edge set inserted in a shuffled order: a different adjacency
/// order, which the canonical tree must not see.
graph::Graph reshuffled(const std::vector<graph::VertexPair>& edges, std::size_t n, double w,
                        sc::Pcg32& rng) {
  std::vector<graph::VertexPair> order = edges;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[pick(rng, i)]);
  }
  graph::Graph g(n);
  for (const auto& [u, v] : order) g.add_edge(v, u, w);
  return g;
}

TEST(TreeRepair, MatchesFreshBfsOnRandomEdgeBatches) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    sc::Pcg32 rng(seed * 7919 + 1);
    const std::size_t n = 6 + pick(rng, 35);
    const double w = seed % 2 == 0 ? 1.0 : 0.7;  // 0.7: inexact level sums
    const double density = 0.05 + 0.25 * rng.next_double();
    std::vector<graph::VertexPair> edges;
    for (graph::Vertex u = 0; u < n; ++u) {
      for (graph::Vertex v = u + 1; v < n; ++v) {
        if (rng.next_double() < density) edges.emplace_back(u, v);
      }
    }
    graph::Graph g(n);
    for (const auto& [u, v] : edges) g.add_edge(u, v, w);

    const auto source = static_cast<graph::Vertex>(pick(rng, n));
    std::vector<bool> blocked;
    if (rng.next_double() < 0.5) {
      blocked.assign(n, false);
      for (int b = rng.uniform_int(1, 2); b > 0; --b) {
        const auto v = static_cast<graph::Vertex>(pick(rng, n));
        if (v != source) blocked[v] = true;
      }
    }
    graph::ShortestPathTree tree;
    graph::dijkstra_into(g, source, blocked, tree);
    graph::TreeRepairScratch scratch;

    for (int batch = 0; batch < 12; ++batch) {
      std::vector<graph::VertexPair> removed;
      std::vector<graph::VertexPair> added;
      for (int r = rng.uniform_int(0, 4); r > 0 && !edges.empty(); --r) {
        const std::size_t i = pick(rng, edges.size());
        removed.push_back(edges[i]);
        g.remove_edge(edges[i].first, edges[i].second);
        edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(i));
      }
      for (int a = rng.uniform_int(0, 4); a > 0; --a) {
        auto u = static_cast<graph::Vertex>(pick(rng, n));
        auto v = static_cast<graph::Vertex>(pick(rng, n));
        if (u == v) continue;
        if (u > v) std::swap(u, v);
        if (std::find(edges.begin(), edges.end(), graph::VertexPair{u, v}) != edges.end()) continue;
        edges.emplace_back(u, v);
        added.emplace_back(v, u);  // either endpoint order is accepted
        g.add_edge(u, v, w);
      }
      graph::repair_tree(g, source, blocked, removed, added, tree, scratch);

      const std::string where = "seed " + std::to_string(seed) + " batch " + std::to_string(batch);
      graph::ShortestPathTree fresh;
      graph::dijkstra_into(g, source, blocked, fresh);
      expect_same_tree(tree, fresh, where);
      if (!edges.empty()) {
        const graph::Graph other = reshuffled(edges, n, w, rng);
        expect_same_tree(tree, graph::dijkstra(other, source, blocked), where + " reshuffled");
      }
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(TreeRepair, RemoveEdgeKeepsCountsAndUniformity) {
  graph::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.remove_edge(2, 1);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(2, 1));
  EXPECT_TRUE(g.uniform_weights());
  EXPECT_DOUBLE_EQ(g.total_weight(), 2.0);
  EXPECT_THROW(g.remove_edge(1, 2), sc::RequirementError);
}

// --- (b) Router: repaired cache vs fresh builds, cached vs uncached ---------

topo::Topology fat_tree(int pods) {
  topo::FatTreeOptions options;
  options.pods = pods;
  options.hosts_per_rack = 2;
  return topo::build_fat_tree(options);
}

topo::Topology bcube(int ports, int levels) {
  topo::BCubeOptions options;
  options.ports = ports;
  options.levels = levels;
  return topo::build_bcube(options);
}

topo::Topology three_tier() {
  topo::ThreeTierOptions options;
  options.racks = 8;
  options.hosts_per_rack = 2;
  options.racks_per_agg = 2;
  options.core_switches = 2;
  return topo::build_three_tier(options);
}

/// Flips 1–3 random links, switches or hosts.
void random_events(const topo::Topology& t, topo::LivenessMask& mask, sc::Pcg32& rng) {
  const auto switches = [&] {
    std::vector<topo::NodeId> out;
    for (const topo::Node& node : t.nodes()) {
      if (topo::is_switch(node.kind)) out.push_back(node.id);
    }
    return out;
  }();
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  for (int e = rng.uniform_int(1, 3); e > 0; --e) {
    const double kind = rng.next_double();
    if (kind < 0.6) {
      const auto l = static_cast<topo::LinkId>(pick(rng, t.link_count()));
      mask.set_link(l, !mask.link_up(l));
    } else if (kind < 0.85) {
      const topo::NodeId s = switches[pick(rng, switches.size())];
      mask.set_node(s, !mask.node_up(s));
    } else {
      const topo::NodeId h = hosts[pick(rng, hosts.size())];
      mask.set_node(h, !mask.node_up(h));
    }
  }
}

/// Every cached tree must equal a fresh build on the masked fabric.
void expect_cache_is_fresh(const topo::Topology& t, const topo::LivenessMask& mask,
                           const net::Router& router, const std::string& where) {
  const graph::Graph live = t.wired_graph(topo::EdgeWeight::kHops, mask);
  router.for_each_cached_tree([&](topo::NodeId source, std::span<const topo::NodeId> blocked,
                                  const graph::ShortestPathTree& tree) {
    std::vector<bool> blocked_mask;
    if (!blocked.empty()) {
      blocked_mask.assign(t.node_count(), false);
      for (topo::NodeId b : blocked) blocked_mask[b] = true;
    }
    expect_same_tree(tree, graph::dijkstra(live, source, blocked_mask),
                     where + " tree of " + std::to_string(source));
  });
}

void expect_router_repairs_exactly(const topo::Topology& t, const std::string& name) {
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  std::vector<topo::NodeId> switches;
  for (const topo::Node& node : t.nodes()) {
    if (topo::is_switch(node.kind)) switches.push_back(node.id);
  }
  std::size_t repairs = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sc::Pcg32 rng(seed * 104729 + hosts.size());
    topo::LivenessMask mask(t);
    net::Router cached(t);
    cached.apply_liveness(&mask);
    // The reference routes every query with its own Dijkstra on the live
    // hop graph, rebuilt from the mask after each batch of events.
    graph::Graph live = t.wired_graph(topo::EdgeWeight::kHops, mask);

    std::vector<net::Flow> flows;
    std::vector<std::vector<topo::NodeId>> blocks;
    for (std::uint32_t id = 0; id < 24; ++id) {
      net::Flow flow;
      flow.id = id;
      flow.src_host = hosts[pick(rng, hosts.size())];
      flow.dst_host = hosts[pick(rng, hosts.size())];
      flows.push_back(flow);
      std::vector<topo::NodeId> blocked;
      for (int b = rng.uniform_int(0, 2); b > 0; --b) {
        const topo::NodeId s = switches[pick(rng, switches.size())];
        if (std::find(blocked.begin(), blocked.end(), s) == blocked.end()) blocked.push_back(s);
      }
      blocks.push_back(std::move(blocked));
    }

    for (int step = 0; step < 30; ++step) {
      const std::string where =
          name + " seed " + std::to_string(seed) + " step " + std::to_string(step);
      for (std::size_t f = 0; f < flows.size(); ++f) {
        for (const bool use_blocks : {false, true}) {
          const auto blocked = use_blocks ? std::span<const topo::NodeId>(blocks[f])
                                          : std::span<const topo::NodeId>{};
          net::Flow a = flows[f];
          net::Flow b = flows[f];
          const bool ok_a = cached.route(a, blocked);
          const bool ok_b = reference::route_uncached(live, b, blocked);
          ASSERT_EQ(ok_a, ok_b) << where << " flow " << f;
          ASSERT_EQ(a.path, b.path) << where << " flow " << f;
        }
      }
      random_events(t, mask, rng);
      cached.refresh_liveness();
      live = t.wired_graph(topo::EdgeWeight::kHops, mask);
      expect_cache_is_fresh(t, mask, cached, where);
      if (testing::Test::HasFatalFailure()) return;
    }
    repairs += cached.cache_stats().tree_repairs;
  }
  EXPECT_GT(repairs, 0u) << name << ": the differential never exercised a repair";
}

TEST(RouterRepair, FatTreeK4) { expect_router_repairs_exactly(fat_tree(4), "fat-tree k4"); }
TEST(RouterRepair, FatTreeK8) { expect_router_repairs_exactly(fat_tree(8), "fat-tree k8"); }
TEST(RouterRepair, BCube41) { expect_router_repairs_exactly(bcube(4, 1), "bcube(4,1)"); }
TEST(RouterRepair, BCube32) { expect_router_repairs_exactly(bcube(3, 2), "bcube(3,2)"); }
TEST(RouterRepair, ThreeTier) { expect_router_repairs_exactly(three_tier(), "three-tier"); }

TEST(RouterRepair, ReportsRemovedLinksAndDropsUnqueriedTrees) {
  const topo::Topology t = fat_tree(4);
  topo::LivenessMask mask(t);
  net::Router router(t);
  router.apply_liveness(&mask);
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  net::Flow flow;
  flow.src_host = hosts.front();
  flow.dst_host = hosts.back();
  ASSERT_TRUE(router.route(flow));

  // A dead link on the path is reported; its endpoints' trees repair.
  const topo::LinkId dead = t.link_between(flow.path[1], flow.path[2]);
  mask.set_link(dead, false);
  const net::Router::LivenessDelta down = router.refresh_liveness();
  ASSERT_TRUE(down);
  ASSERT_EQ(down.removed.size(), 1u);
  EXPECT_EQ(down.removed[0], dead);
  EXPECT_EQ(router.cache_stats().tree_repairs, 1u);

  // Nobody queried the tree since: the recovery drops it, and reports no
  // removals (a recovery cannot kill a path).
  mask.set_link(dead, true);
  const net::Router::LivenessDelta up = router.refresh_liveness();
  ASSERT_TRUE(up);
  EXPECT_TRUE(up.removed.empty());
  EXPECT_EQ(router.cache_stats().tree_drops, 1u);
  EXPECT_FALSE(router.refresh_liveness());  // version unchanged
  std::size_t cached = 0;
  router.for_each_cached_tree([&](auto, auto, const auto&) { ++cached; });
  EXPECT_EQ(cached, 0u);
}

// --- (c) engine: the cached router against the uncached one, under faults.
// Before the uncached router arm was retired, these scenarios pinned the
// route cache on vs off to byte-identical metrics CSVs and checkpoints; the
// goldens are the metrics CSVs both legs produced then, so the cached
// engine must still reproduce the uncached run.

std::string metrics_csv(const std::vector<core::RoundMetrics>& rounds) {
  std::ostringstream os;
  core::write_metrics_csv(os, rounds);
  return os.str();
}

void expect_cached_routes_match_golden(const topo::Topology& t, const fault::FaultPlan& plan,
                                  const std::string& golden) {
  wl::DeploymentOptions deployment;
  deployment.seed = 31;
  deployment.hot_vm_fraction = 0.3;
  core::EngineConfig config;
  config.fault_plan = &plan;
  core::DistributedEngine engine(t, deployment, config);
  reference::expect_matches_golden(golden, metrics_csv(engine.run(60)));
  // Not vacuous: the faults made the router repair cached trees.
  EXPECT_GT(engine.router().cache_stats().tree_repairs, 0u);
}

TEST(RouteRepairEngine, FatTreeFaultedCacheOnOffIdentical) {
  const topo::Topology t = fat_tree(4);
  fault::FaultOptions options;
  options.seed = 9;
  options.message_drop_probability = 0.05;
  auto plan = fault::FaultPlan::random_link_flaps(t, options, 12, 1, 55, 3);
  plan.fail_switch(t.nodes_of_kind(topo::NodeKind::kAggSwitch).front(), 10, 30);
  plan.fail_switch(t.rack(2).tor, 25, 40);
  plan.fail_host(t.rack(3).hosts[0], 15, 45);
  plan.set_options(options);
  expect_cached_routes_match_golden(t, plan, "route_repair_fattree_k4_faulted_metrics.txt");
}

TEST(RouteRepairEngine, BCubeFaultedCacheOnOffIdentical) {
  const topo::Topology t = bcube(4, 1);
  fault::FaultOptions options;
  options.seed = 9;
  fault::FaultPlan plan(options);
  plan.fail_link(0, 3, 20);
  plan.fail_link(t.link_count() - 1, 8, 40);
  plan.fail_link(t.link_count() / 2, 12, 0);
  plan.fail_switch(t.nodes_of_kind(topo::NodeKind::kBCubeSwitch).front(), 18, 35);
  plan.fail_host(t.nodes_of_kind(topo::NodeKind::kHost)[5], 22, 50);
  expect_cached_routes_match_golden(t, plan, "route_repair_bcube41_faulted_metrics.txt");
}

}  // namespace
