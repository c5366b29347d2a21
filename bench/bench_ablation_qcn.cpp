// Ablation: QCN end-host rate control (Sec. III-A.2) on vs off under a
// congested fabric. With the reaction point active, senders back off on
// congestion feedback, queues stay near equilibrium, and fewer switch
// alerts reach the shims.

#include <iostream>

#include "bench_support.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "topology/fat_tree.hpp"

namespace {

struct ModeTotals {
  std::size_t congested_switch_rounds = 0;
  std::size_t switch_alerts = 0;
  std::size_t reroutes = 0;
  std::size_t rate_limited_flow_rounds = 0;
  double mean_peak_utilization = 0.0;
};

ModeTotals run(const sheriff::topo::Topology& topology, bool qcn) {
  using namespace sheriff;
  core::EngineConfig config;
  config.qcn_rate_control = qcn;
  config.flow_demand_scale_gbps = 0.9;
  auto deploy = bench::bench_deployment_options(33);
  deploy.dependency_degree = 2.0;
  core::DistributedEngine engine(topology, deploy, config);

  ModeTotals totals;
  const int rounds = 20;
  for (int r = 0; r < rounds; ++r) {
    const auto m = engine.run_round();
    totals.congested_switch_rounds += m.congested_switches;
    totals.switch_alerts += m.switch_alerts;
    totals.reroutes += m.reroutes;
    totals.rate_limited_flow_rounds += m.rate_limited_flows;
    totals.mean_peak_utilization += m.max_link_utilization;
  }
  totals.mean_peak_utilization /= rounds;
  return totals;
}

}  // namespace

int main() {
  using namespace sheriff;
  bench::print_figure_header(
      "Ablation E", "QCN end-host rate control on vs off",
      "Sec. III-A.2 design point: reacting to QCN feedback at the sender eases the "
      "congestion itself, leaving less for reroute/migration to clean up");

  topo::FatTreeOptions topt;
  topt.pods = 6;
  topt.hosts_per_rack = 3;
  topt.tor_agg_gbps = 1.0;
  const auto topology = topo::build_fat_tree(topt);

  const auto with_qcn = run(topology, true);
  const auto without = run(topology, false);

  common::Table table({"mode", "congested switch-rounds", "switch alerts", "reroutes",
                       "rate-limited flow-rounds", "mean peak link util"});
  const auto add_row = [&](const char* name, const ModeTotals& t) {
    table.begin_row()
        .add(name)
        .add(t.congested_switch_rounds)
        .add(t.switch_alerts)
        .add(t.reroutes)
        .add(t.rate_limited_flow_rounds)
        .add(t.mean_peak_utilization, 3);
  };
  add_row("QCN rate control on", with_qcn);
  add_row("QCN rate control off", without);
  table.print(std::cout);

  std::cout << "\nwith the reaction point active, the queue backlog that raises switch\n"
               "alerts is absorbed at the senders.\n";
  return 0;
}
