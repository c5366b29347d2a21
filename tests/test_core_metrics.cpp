// Tests for the metrics utilities, the shim Observation-driven collect
// phase (ToR queue/utilization prediction of Sec. IV-A), and the engine's
// QCN integration.

#include <gtest/gtest.h>

#include <sstream>

#include "common/require.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "core/shim_controller.hpp"
#include "topology/fat_tree.hpp"

namespace core = sheriff::core;
namespace wl = sheriff::wl;
namespace topo = sheriff::topo;
namespace sc = sheriff::common;

namespace {

const topo::Topology& test_topology() {
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
  return options;
}

}  // namespace

TEST(Metrics, TableAndCsvRoundTrip) {
  core::EngineConfig config;
  core::DistributedEngine engine(test_topology(), deployment_options(), config);
  const auto rounds = engine.run(4);

  const auto table = core::metrics_table(rounds);
  EXPECT_EQ(table.rows(), 4u);
  EXPECT_EQ(table.cell(2, 0), "2");  // round ids in order

  std::ostringstream csv;
  core::write_metrics_csv(csv, rounds);
  const std::string text = csv.str();
  EXPECT_NE(text.find("round,stddev_before"), std::string::npos);
  // header + one line per round
  EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')), 5u);
}

TEST(Metrics, SummaryAggregates) {
  core::EngineConfig config;
  core::DistributedEngine engine(test_topology(), deployment_options(7), config);
  const auto rounds = engine.run(6);
  const auto summary = core::summarize(rounds);
  EXPECT_EQ(summary.rounds, 6u);
  EXPECT_DOUBLE_EQ(summary.first_stddev, rounds.front().workload_stddev_before);
  EXPECT_DOUBLE_EQ(summary.last_stddev, rounds.back().workload_stddev_after);
  std::size_t migrations = 0;
  for (const auto& m : rounds) migrations += m.migrations;
  EXPECT_EQ(summary.total_migrations, migrations);
  EXPECT_GE(summary.mean_link_peak, 0.0);
  EXPECT_LE(summary.mean_link_peak, 1.0 + 1e-9);
}

TEST(Metrics, EmptySummaryIsZero) {
  const auto summary = core::summarize({});
  EXPECT_EQ(summary.rounds, 0u);
  EXPECT_EQ(summary.total_migrations, 0u);
}

TEST(ShimObservation, PredictedTorQueueTriggersAlert) {
  const wl::Deployment deployment(test_topology(), deployment_options(3));
  core::SheriffConfig config;
  core::ShimController shim(0, test_topology(), config);
  std::vector<wl::WorkloadProfile> predicted(deployment.vm_count());  // all-zero: calm

  core::ShimController::Observation obs;
  obs.fleet_mean_load_percent = 50.0;  // no host is a relative hotspot
  obs.predicted_tor_queue = 10.0;      // above equilibrium
  obs.tor_queue_equilibrium = 4.0;
  const auto calm = shim.collect(deployment, predicted, obs);
  ASSERT_EQ(calm.alerts.size(), 1u);
  EXPECT_EQ(calm.alerts[0].source, core::AlertSource::kLocalTor);

  obs.predicted_tor_queue = 1.0;  // below equilibrium: silent
  const auto quiet = shim.collect(deployment, predicted, obs);
  EXPECT_TRUE(quiet.alerts.empty());
}

TEST(ShimObservation, PredictedUtilizationOverridesShares) {
  const wl::Deployment deployment(test_topology(), deployment_options(4));
  core::SheriffConfig config;
  config.tor_utilization_threshold = 0.85;
  core::ShimController shim(1, test_topology(), config);
  std::vector<wl::WorkloadProfile> predicted(deployment.vm_count());

  core::ShimController::Observation obs;
  obs.fleet_mean_load_percent = 50.0;
  obs.predicted_tor_utilization = 0.95;  // predicted hot even with no shares
  const auto result = shim.collect(deployment, predicted, obs);
  ASSERT_EQ(result.alerts.size(), 1u);
  EXPECT_EQ(result.alerts[0].source, core::AlertSource::kLocalTor);
  EXPECT_NEAR(result.alerts[0].value, 0.95, 1e-12);
}

TEST(ShimObservation, HotSwitchListBecomesAlerts) {
  const wl::Deployment deployment(test_topology(), deployment_options(5));
  core::SheriffConfig config;
  core::ShimController shim(2, test_topology(), config);
  std::vector<wl::WorkloadProfile> predicted(deployment.vm_count());

  const auto cores = test_topology().nodes_of_kind(topo::NodeKind::kCoreSwitch);
  core::ShimController::Observation obs;
  obs.fleet_mean_load_percent = 50.0;
  const std::vector<topo::NodeId> hot{cores[0], cores[1]};
  obs.hot_switches = hot;
  const auto result = shim.collect(deployment, predicted, obs);
  ASSERT_EQ(result.alerts.size(), 2u);
  for (const auto& alert : result.alerts) {
    EXPECT_EQ(alert.source, core::AlertSource::kOuterSwitch);
  }
}

TEST(EngineQcn, RateControlReducesCongestedRounds) {
  const auto run = [&](bool qcn) {
    core::EngineConfig config;
    config.qcn_rate_control = qcn;
    config.flow_demand_scale_gbps = 1.2;  // slam the fabric
    auto deploy = deployment_options(9);
    deploy.dependency_degree = 2.0;
    core::DistributedEngine engine(test_topology(), deploy, config);
    std::size_t congested = 0;
    std::size_t limited = 0;
    for (int r = 0; r < 12; ++r) {
      const auto m = engine.run_round();
      congested += m.congested_switches;
      limited += m.rate_limited_flows;
    }
    return std::pair{congested, limited};
  };
  const auto [congested_on, limited_on] = run(true);
  const auto [congested_off, limited_off] = run(false);
  EXPECT_GT(limited_on, 0u);
  EXPECT_EQ(limited_off, 0u);
  EXPECT_LT(congested_on, congested_off);
}

// Golden-file lockdown of the CSV schema (S3 of the observability sweep):
// downstream notebooks parse this byte for byte, so the header and the cell
// formatting (fixed precisions per column) are pinned exactly. All doubles
// in the golden row are dyadic rationals, so std::fixed formatting is
// deterministic across platforms.
TEST(Metrics, CsvGoldenRow) {
  core::RoundMetrics m;
  m.round = 3;
  m.workload_stddev_before = 1.25;
  m.workload_stddev_after = 0.75;
  m.workload_mean = 2.5;
  m.host_alerts = 4;
  m.tor_alerts = 2;
  m.switch_alerts = 1;
  m.migrations = 5;
  m.migration_requests = 7;
  m.migration_rejects = 2;
  m.reroutes = 3;
  m.migration_cost = 12.5;
  m.search_space = 96;
  m.max_link_utilization = 0.875;
  m.congested_switches = 2;
  m.rate_limited_flows = 6;
  m.flow_satisfaction = 0.5;
  m.flow_fairness = 1.0;
  m.migration_seconds = 2.25;
  m.migration_downtime_seconds = 0.0625;
  m.failed_links = 1;
  m.failed_switches = 0;
  m.orphaned_vms = 2;
  m.unroutable_flows = 3;
  m.protocol_drops = 4;
  m.protocol_retries = 5;
  m.recovery_migrations = 6;
  m.shard_conflicts = 7;

  std::ostringstream csv;
  core::write_metrics_csv(csv, std::span<const core::RoundMetrics>(&m, 1));

  const std::string expected =
      "round,stddev_before,stddev_after,mean_load,host_alerts,tor_alerts,switch_alerts,"
      "migrations,requests,rejects,reroutes,migration_cost,search_space,max_link_util,"
      "congested_switches,rate_limited_flows,flow_satisfaction,flow_fairness,migration_s,"
      "downtime_s,failed_links,failed_switches,orphaned_vms,unroutable_flows,protocol_drops,"
      "protocol_retries,recovery_migrations,shard_conflicts\n"
      "3,1.250,0.750,2.500,4,2,1,5,7,2,3,12.50,96,0.875,2,6,0.500,1.000,2.25,0.0625,"
      "1,0,2,3,4,5,6,7\n";
  EXPECT_EQ(csv.str(), expected);
}
