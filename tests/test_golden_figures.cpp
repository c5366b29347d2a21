// Golden-figure regression tests: pin small-instance outputs of the
// figure benches, and the metrics CSVs of small k-median and faulted
// Sheriff engine runs, byte-for-byte. The figure pipelines (trace generation,
// ARIMA fitting, the balance loop, the Sheriff-vs-centralized sweep) are
// fully deterministic given their seeds, so any diff here is a behavior
// change that would silently reshape the paper figures.
//
// Golden files live in tests/golden/ and are compared byte-exact. To
// regenerate after an intentional change:
//
//     SHERIFF_REGEN_GOLDENS=1 ctest -L golden
//
// then review the diff of tests/golden/*.txt like any other code change.
// Wall-clock columns (the *_seconds fields of ManagerComparison) are
// deliberately excluded — only deterministic columns are pinned.
//
// This target compiles bench/bench_support.cpp directly instead of
// linking a bench library: the ASan preset builds with
// SHERIFF_BUILD_BENCH=OFF, and these tests must still run there.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "common/ascii_plot.hpp"
#include "common/math_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "fault/fault_plan.hpp"
#include "golden.hpp"
#include "timeseries/arima.hpp"
#include "topology/fat_tree.hpp"
#include "workload/trace_generator.hpp"

namespace bench = sheriff::bench;
namespace common = sheriff::common;
namespace core = sheriff::core;
namespace fault = sheriff::fault;
namespace topo = sheriff::topo;
namespace ts = sheriff::ts;
namespace wl = sheriff::wl;

namespace {

using sheriff::reference::expect_matches_golden;

}  // namespace

// Small instance of bench_fig06_arima: four days of the weekly traffic
// trace, 50/50 train/test, ARIMA(1,1,1) one-step predictions.
TEST(GoldenFigures, Fig06ArimaSmallInstance) {
  auto gen = wl::make_weekly_traffic_trace(601);
  const auto series = gen->generate(48 * 4);
  const std::size_t split = series.size() / 2;
  const std::vector<double> train(series.begin(),
                                  series.begin() + static_cast<std::ptrdiff_t>(split));
  const std::vector<double> actual(series.begin() + static_cast<std::ptrdiff_t>(split),
                                   series.end());

  ts::ArimaModel model(ts::ArimaOrder{1, 1, 1});
  model.fit(train);

  const auto train_preds = model.one_step_predictions(train, 8);
  const std::vector<double> train_actual(train.begin() + 8, train.end());
  const auto test_preds = model.one_step_predictions(series, split);
  std::vector<double> bias(actual.size());
  for (std::size_t i = 0; i < actual.size(); ++i) bias[i] = actual[i] - test_preds[i];

  std::ostringstream os;
  os << "fig06 small instance: weekly trace seed 601, 48*4 samples, ARIMA(1,1,1)\n"
     << "phi=" << common::format_fixed(model.ar_coefficients()[0], 6)
     << " theta=" << common::format_fixed(model.ma_coefficients()[0], 6)
     << " c=" << common::format_fixed(model.intercept(), 6)
     << " sigma^2=" << common::format_fixed(model.innovation_variance(), 6) << "\n";
  common::Table table({"window", "MSE", "RMSE", "MAPE %", "mean bias", "signal stddev"});
  table.begin_row()
      .add("train (in-sample)")
      .add(common::mean_squared_error(train_actual, train_preds), 3)
      .add(common::root_mean_squared_error(train_actual, train_preds), 3)
      .add(common::mean_absolute_percentage_error(train_actual, train_preds), 2)
      .add(0.0, 3)
      .add(common::stddev(train_actual), 2);
  table.begin_row()
      .add("test (one-step)")
      .add(common::mean_squared_error(actual, test_preds), 3)
      .add(common::root_mean_squared_error(actual, test_preds), 3)
      .add(common::mean_absolute_percentage_error(actual, test_preds), 2)
      .add(common::mean(bias), 3)
      .add(common::stddev(actual), 2);
  table.print(os);
  expect_matches_golden("fig06_arima_small.txt", os.str());
}

// Small instance of bench_fig09_fattree_balance: 4-pod Fat-Tree, 8
// migration rounds, including the rendered stddev curve.
TEST(GoldenFigures, Fig09FatTreeBalanceSmallInstance) {
  topo::FatTreeOptions topt;
  topt.pods = 4;
  topt.hosts_per_rack = 2;
  const auto topology = topo::build_fat_tree(topt);
  const auto result = bench::run_balance(topology, 8, 901);

  std::ostringstream os;
  os << "fig09 small instance: " << topology.name() << " (" << topology.host_count()
     << " hosts, " << topology.rack_count() << " racks), 8 rounds, seed 901\n";
  common::Table table({"migration round", "workload stddev %"});
  for (std::size_t r = 0; r < result.stddev_by_round.size(); ++r) {
    table.begin_row().add(r).add(result.stddev_by_round[r], 2);
  }
  table.print(os);
  common::PlotOptions plot;
  plot.title = "\nworkload stddev (%) by migration round";
  plot.series_names = {"stddev"};
  os << common::render_plot(result.stddev_by_round, plot);
  os << "\nmigrations " << result.total_migrations << ", alerts " << result.total_alerts
     << "\n";
  expect_matches_golden("fig09_fattree_balance_small.txt", os.str());
}

// Small instance of bench_fig11_fattree_cost: the Sheriff-vs-centralized
// sweep at 4 and 8 pods. Only deterministic columns are pinned — the
// sweep's wall-clock seconds are left out.
TEST(GoldenFigures, Fig11FatTreeCostSmallInstance) {
  const auto sweep = bench::sweep_fat_tree({4, 8}, 1101);

  std::ostringstream os;
  os << "fig11 small instance: fat-tree pods {4, 8}, 5% alerted, seed 1101\n";
  common::Table table({"pods", "hosts", "alerted", "APP cost", "OPT cost", "APP space",
                       "OPT space", "APP moves", "OPT moves"});
  for (const auto& p : sweep) {
    table.begin_row()
        .add(p.size_param)
        .add(p.hosts)
        .add(p.alerted)
        .add(p.sheriff_cost, 3)
        .add(p.centralized_cost, 3)
        .add(p.sheriff_space)
        .add(p.centralized_space)
        .add(p.sheriff_migrations)
        .add(p.centralized_migrations);
  }
  table.print(os);
  double worst_ratio = 0.0;
  for (const auto& p : sweep) {
    if (p.centralized_cost > 0.0) {
      worst_ratio = std::max(worst_ratio, p.sheriff_cost / p.centralized_cost);
    }
  }
  os << "\nworst sheriff/optimal cost ratio: " << common::format_fixed(worst_ratio, 3)
     << "\n";
  expect_matches_golden("fig11_fattree_cost_small.txt", os.str());
}

// 20 rounds of a kKMedian engine on an 8-pod Fat-Tree (32 facility racks,
// k = 4, p = 2): every round's metrics CSV row, search_space included, so
// the planner's medians and its candidate-evaluation accounting are both
// pinned. Any change to the k-median scan that moves a chosen median or
// the evaluation count shows up here.
TEST(GoldenFigures, KMedianEngineSmallInstanceMetricsCsv) {
  topo::FatTreeOptions topt;
  topt.pods = 8;
  topt.hosts_per_rack = 2;
  topt.tor_agg_gbps = 1.0;
  const auto topology = topo::build_fat_tree(topt);

  wl::DeploymentOptions deployment;
  deployment.seed = 2015;
  deployment.vms_per_host = 3.0;
  deployment.max_vm_capacity = 20;
  deployment.placement = wl::PlacementPolicy::kSkewed;
  deployment.hot_vm_fraction = 0.3;

  core::EngineConfig config;
  config.mode = core::ManagerMode::kKMedian;
  config.sheriff.cost.computing_cost = 100.0;
  core::DistributedEngine engine(topology, deployment, config);
  const auto rounds = engine.run(20);

  std::size_t search_space = 0;
  for (const auto& m : rounds) search_space += m.search_space;
  ASSERT_GT(search_space, 0u);  // the planner must actually run

  std::ostringstream os;
  core::write_metrics_csv(os, rounds);
  expect_matches_golden("kmedian_fattree_k8_metrics.txt", os.str());
}

// The four kSheriff manage-phase variants — {legacy interleaved sweep,
// sharded propose/commit} × {MessagePassing, SerializedFcfs} — each pinned
// over 30 rounds on a small Fat-Tree whose fault plan crashes a shim (its
// neighbor takes the rack over) and a host (its VMs become orphans that the
// recovery path re-places), under a lossy control channel.
TEST(GoldenFigures, ManageVariantsFaultedFatTreeMetricsCsv) {
  topo::FatTreeOptions topt;
  topt.pods = 6;
  topt.hosts_per_rack = 3;
  const auto topology = topo::build_fat_tree(topt);

  wl::DeploymentOptions deployment;
  deployment.seed = 2015;
  deployment.vms_per_host = 3.0;
  deployment.placement = wl::PlacementPolicy::kSkewed;
  deployment.hot_vm_fraction = 0.3;

  constexpr std::size_t kRounds = 30;
  fault::FaultOptions fault_options;
  fault_options.seed = 17;
  fault_options.message_drop_probability = 0.15;
  fault::FaultPlan plan(fault_options);
  plan.fail_link(static_cast<topo::LinkId>(7), 2, 9);
  plan.fail_shim(5, 5, 20);
  plan.fail_host(topology.rack(1).hosts[0], 8);
  plan.fail_host(topology.rack(5).hosts[1], 12, 24);

  std::ostringstream os;
  for (const bool sharded : {false, true}) {
    for (const core::MigrationProtocol protocol :
         {core::MigrationProtocol::kMessagePassing, core::MigrationProtocol::kSerializedFcfs}) {
      core::EngineConfig config;
      config.sheriff.cost.computing_cost = 100.0;
      // One-rack regions, so the takeover neighbor places rack 5's moves
      // into a region different from rack 5's own.
      config.sheriff.max_region_racks = 1;
      config.sharded_manage = sharded;
      config.protocol = protocol;
      config.fault_plan = &plan;
      // Fail-fast invariant audit of every round, among its checks that a
      // VM migrates at most once per round.
      config.audit = true;
      config.audit_fail_fast = true;
      core::DistributedEngine engine(topology, deployment, config);
      const auto rounds = engine.run(kRounds);

      std::size_t migrations = 0;
      std::size_t recoveries = 0;
      for (const auto& m : rounds) {
        migrations += m.migrations;
        recoveries += m.recovery_migrations;
      }
      EXPECT_GT(migrations, recoveries) << "alert-driven migrations must run";
      EXPECT_GT(recoveries, 0u) << "the host failure must orphan VMs";
      EXPECT_EQ(engine.managing_rack(5), 5u) << "the crashed shim must have recovered";

      os << "# sharded_manage=" << (sharded ? 1 : 0) << " protocol="
         << (protocol == core::MigrationProtocol::kMessagePassing ? "message_passing"
                                                                   : "serialized_fcfs")
         << "\n";
      core::write_metrics_csv(os, rounds);
    }
  }
  expect_matches_golden("manage_variants_fattree_k6_metrics.txt", os.str());
}
