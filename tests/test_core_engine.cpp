// End-to-end engine tests: alert collection through the shims, Alg. 1
// dispatch, and the round loop's global invariants (capacity safety,
// balance improvement, determinism, sheriff-vs-centralized search space).

#include <gtest/gtest.h>

#include <algorithm>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "topology/bcube.hpp"
#include "topology/fat_tree.hpp"

namespace core = sheriff::core;
namespace wl = sheriff::wl;
namespace topo = sheriff::topo;
namespace net = sheriff::net;
namespace sc = sheriff::common;

namespace {

const topo::Topology& fat_tree() {
  static const topo::Topology t = [] {
    topo::FatTreeOptions options;
    options.pods = 4;
    options.hosts_per_rack = 3;
    return topo::build_fat_tree(options);
  }();
  return t;
}

wl::DeploymentOptions deployment_options(std::uint64_t seed = 42) {
  wl::DeploymentOptions options;
  options.seed = seed;
  options.vms_per_host = 3.0;
  return options;
}

}  // namespace

TEST(Engine, RoundsRunAndCountersAreConsistent) {
  core::DistributedEngine engine(fat_tree(), deployment_options(), core::EngineConfig{});
  const auto metrics = engine.run(6);
  ASSERT_EQ(metrics.size(), 6u);
  EXPECT_EQ(engine.rounds_run(), 6u);
  for (std::size_t r = 0; r < metrics.size(); ++r) {
    EXPECT_EQ(metrics[r].round, r);
    EXPECT_GE(metrics[r].workload_stddev_before, 0.0);
    EXPECT_GE(metrics[r].workload_stddev_after, 0.0);
    EXPECT_LE(metrics[r].migrations, metrics[r].migration_requests);
    EXPECT_GE(metrics[r].max_link_utilization, 0.0);
    EXPECT_LE(metrics[r].max_link_utilization, 1.0 + 1e-9);
  }
}

TEST(Engine, HostCapacityNeverExceeded) {
  core::DistributedEngine engine(fat_tree(), deployment_options(1), core::EngineConfig{});
  engine.run(8);
  const auto& d = engine.deployment();
  for (const auto& node : fat_tree().nodes()) {
    if (node.kind != topo::NodeKind::kHost) continue;
    EXPECT_LE(d.host_used_capacity(node.id), d.host_capacity());
  }
}

TEST(Engine, DependencyConflictsPreservedAfterMigrations) {
  core::DistributedEngine engine(fat_tree(), deployment_options(2), core::EngineConfig{});
  engine.run(8);
  const auto& d = engine.deployment();
  for (wl::VmId a = 0; a < d.vm_count(); ++a) {
    for (wl::VmId b : d.dependencies().neighbors(a)) {
      EXPECT_NE(d.vm(a).host, d.vm(b).host);
    }
  }
}

TEST(Engine, MigrationsActuallyHappenUnderSkew) {
  core::DistributedEngine engine(fat_tree(), deployment_options(3), core::EngineConfig{});
  const auto metrics = engine.run(10);
  std::size_t total_migrations = 0;
  for (const auto& m : metrics) total_migrations += m.migrations;
  EXPECT_GT(total_migrations, 0u);
}

TEST(Engine, BalanceImprovesOverRounds) {
  core::DistributedEngine engine(fat_tree(), deployment_options(4), core::EngineConfig{});
  const auto metrics = engine.run(12);
  // Average stddev over the last three rounds must beat the first round's
  // (the workload is stochastic, so compare smoothed values).
  const double early = metrics.front().workload_stddev_before;
  double late = 0.0;
  for (std::size_t i = metrics.size() - 3; i < metrics.size(); ++i) {
    late += metrics[i].workload_stddev_after;
  }
  late /= 3.0;
  EXPECT_LT(late, early);
}

TEST(Engine, DeterministicAcrossIdenticalRuns) {
  core::DistributedEngine a(fat_tree(), deployment_options(5), core::EngineConfig{});
  core::DistributedEngine b(fat_tree(), deployment_options(5), core::EngineConfig{});
  const auto ma = a.run(5);
  const auto mb = b.run(5);
  for (std::size_t r = 0; r < ma.size(); ++r) {
    EXPECT_EQ(ma[r].migrations, mb[r].migrations);
    EXPECT_DOUBLE_EQ(ma[r].migration_cost, mb[r].migration_cost);
    EXPECT_EQ(ma[r].search_space, mb[r].search_space);
    EXPECT_DOUBLE_EQ(ma[r].workload_stddev_after, mb[r].workload_stddev_after);
  }
}

TEST(Engine, ParallelCollectMatchesSerial) {
  // The pool size alone decides parallelism: one thread is the serial mode.
  sc::ThreadPool one_thread(1);
  sc::ThreadPool four_threads(4);
  core::EngineConfig serial_config;
  serial_config.pool = &one_thread;
  core::EngineConfig parallel_config;
  parallel_config.pool = &four_threads;
  core::DistributedEngine serial(fat_tree(), deployment_options(6), serial_config);
  core::DistributedEngine parallel(fat_tree(), deployment_options(6), parallel_config);
  const auto ms = serial.run(4);
  const auto mp = parallel.run(4);
  for (std::size_t r = 0; r < ms.size(); ++r) {
    EXPECT_EQ(ms[r].migrations, mp[r].migrations);
    EXPECT_DOUBLE_EQ(ms[r].migration_cost, mp[r].migration_cost);
    EXPECT_DOUBLE_EQ(ms[r].workload_stddev_after, mp[r].workload_stddev_after);
  }
}

TEST(Engine, CentralizedModeSearchesMoreAndCostsLessPerMove) {
  core::EngineConfig sheriff_config;
  core::EngineConfig central_config;
  central_config.mode = core::ManagerMode::kCentralized;

  core::DistributedEngine sheriff(fat_tree(), deployment_options(7), sheriff_config);
  core::DistributedEngine central(fat_tree(), deployment_options(7), central_config);
  const auto ms = sheriff.run(8);
  const auto mc = central.run(8);

  std::size_t sheriff_space = 0;
  std::size_t central_space = 0;
  for (const auto& m : ms) sheriff_space += m.search_space;
  for (const auto& m : mc) central_space += m.search_space;
  // The global manager examines far more candidate pairs (Fig. 12/14).
  EXPECT_GT(central_space, 2 * sheriff_space);
}

TEST(Engine, FlowsFollowMigratedVms) {
  core::DistributedEngine engine(fat_tree(), deployment_options(8), core::EngineConfig{});
  engine.run(8);
  const auto& d = engine.deployment();
  // Every routed flow starts at its owner VM's current host.
  for (const auto& flow : engine.flows()) {
    if (!flow.routed()) continue;
    const auto& path = flow.path;
    EXPECT_EQ(path.front(), flow.src_host);
    EXPECT_EQ(path.back(), flow.dst_host);
    EXPECT_EQ(d.topology().node(flow.src_host).kind, topo::NodeKind::kHost);
  }
}

TEST(Engine, EnsemblePredictorModeRunsOnTinyDeployment) {
  // Keep it tiny: the ensemble refits ARIMA+NARNET per VM.
  topo::FatTreeOptions topt;
  topt.pods = 2;
  topt.hosts_per_rack = 1;
  const auto tiny = topo::build_fat_tree(topt);
  auto dopt = deployment_options(9);
  dopt.vms_per_host = 2.0;
  core::EngineConfig config;
  config.predictor = core::PredictorKind::kEnsemble;
  core::DistributedEngine engine(tiny, dopt, config);
  const auto metrics = engine.run(3);
  EXPECT_EQ(metrics.size(), 3u);
}

TEST(Engine, WorksOnBCube) {
  topo::BCubeOptions options;
  options.ports = 4;
  options.levels = 1;
  const auto t = topo::build_bcube(options);
  core::DistributedEngine engine(t, deployment_options(10), core::EngineConfig{});
  const auto metrics = engine.run(6);
  EXPECT_EQ(metrics.size(), 6u);
  const auto& d = engine.deployment();
  for (const auto& node : t.nodes()) {
    if (node.kind != topo::NodeKind::kHost) continue;
    EXPECT_LE(d.host_used_capacity(node.id), d.host_capacity());
  }
}

class EngineProperties : public ::testing::TestWithParam<int> {};

TEST_P(EngineProperties, InvariantsAcrossSeeds) {
  auto deploy = deployment_options(static_cast<std::uint64_t>(GetParam()) * 131 + 3);
  deploy.vms_per_host = 2.0 + (GetParam() % 3);
  core::EngineConfig config;
  config.flow_demand_scale_gbps = 0.3 + 0.2 * (GetParam() % 4);
  core::DistributedEngine engine(fat_tree(), deploy, config);
  const auto metrics = engine.run(6);
  const auto& d = engine.deployment();

  // Capacity, conflicts, and accounting must hold whatever the seed.
  for (const auto& node : fat_tree().nodes()) {
    if (node.kind != topo::NodeKind::kHost) continue;
    int used = 0;
    for (wl::VmId id : d.vms_on_host(node.id)) {
      EXPECT_EQ(d.vm(id).host, node.id);
      used += d.vm(id).capacity;
    }
    EXPECT_EQ(used, d.host_used_capacity(node.id));
    EXPECT_LE(used, d.host_capacity());
  }
  for (wl::VmId a = 0; a < d.vm_count(); ++a) {
    for (wl::VmId b : d.dependencies().neighbors(a)) {
      EXPECT_NE(d.vm(a).host, d.vm(b).host);
    }
  }
  for (const auto& m : metrics) {
    EXPECT_LE(m.migrations, m.migration_requests);
    EXPECT_GE(m.flow_satisfaction, 0.0);
    EXPECT_LE(m.flow_satisfaction, 1.0 + 1e-9);
    EXPECT_GT(m.flow_fairness, 0.0);
    EXPECT_LE(m.flow_fairness, 1.0 + 1e-9);
    EXPECT_GE(m.migration_seconds, 0.0);
    EXPECT_GE(m.migration_downtime_seconds, 0.0);
    EXPECT_LE(m.migration_downtime_seconds, m.migration_seconds + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperties, ::testing::Range(1, 9));

TEST(Engine, AlertedVmsMatchesThreshold) {
  core::DistributedEngine engine(fat_tree(), deployment_options(11), core::EngineConfig{});
  engine.run(2);
  const core::AlertScheme scheme(engine.config().sheriff.vm_alert_threshold);
  for (wl::VmId id : engine.alerted_vms()) {
    EXPECT_LT(id, engine.deployment().vm_count());
  }
}
