#include "bench_support.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "obs/timing.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/checkpoint.hpp"
#include "common/table.hpp"
#include "migration/cost_model.hpp"
#include "migration/request.hpp"
#include "topology/bcube.hpp"
#include "topology/fat_tree.hpp"

namespace sheriff::bench {

void print_figure_header(const std::string& figure_id, const std::string& description,
                         const std::string& paper_expectation) {
  std::cout << "==============================================================\n"
            << figure_id << " — " << description << "\n"
            << "paper expectation: " << paper_expectation << "\n"
            << "==============================================================\n";
}

void run_rounds(core::DistributedEngine& engine, std::size_t rounds,
                const snapshot::CheckpointCli& checkpoints, const std::string& run_tag) {
  if (checkpoints.checkpoint_every == 0 && checkpoints.resume_path.empty()) {
    engine.run(rounds);
    return;
  }
  snapshot::CheckpointCli scoped = checkpoints;
  scoped.checkpoint_prefix = checkpoints.checkpoint_prefix + "." + run_tag;
  if (!scoped.resume_path.empty()) {
    // Probe without committing: a checkpoint binds to one run's
    // topology+config, and a multi-scenario bench hits every run with the
    // same --resume path. Let the fingerprint decide; roll the engine back
    // if the load rejected the file partway through.
    const std::vector<std::uint8_t> pristine = core::Checkpoint::serialize(engine);
    try {
      core::Checkpoint::load(engine, scoped.resume_path);
      std::cout << "  [" << run_tag << "] resumed from " << scoped.resume_path << " at round "
                << engine.rounds_run() << "\n";
    } catch (const snapshot::SnapshotError& e) {
      core::Checkpoint::deserialize(engine, pristine);
      std::cout << "  [" << run_tag << "] checkpoint does not match this run (" << e.what()
                << "); starting fresh\n";
    }
    scoped.resume_path.clear();  // handled here, not by run_with_checkpoints
  }
  (void)snapshot::run_with_checkpoints(engine, rounds, scoped);
}

wl::DeploymentOptions bench_deployment_options(std::uint64_t seed) {
  wl::DeploymentOptions options;
  options.seed = seed;
  options.vms_per_host = 3.0;
  options.max_vm_capacity = 20;  // Sec. VI-B: "VM capacity is set up to 20"
  options.placement = wl::PlacementPolicy::kSkewed;
  return options;
}

BalanceResult run_balance(const topo::Topology& topology, std::size_t rounds,
                          std::uint64_t seed) {
  core::EngineConfig config;
  // Sec. VI-B cost settings: C_r = 100, delta = eta = 1, C_d = 1.
  config.sheriff.cost.computing_cost = 100.0;
  config.sheriff.cost.delta = 1.0;
  config.sheriff.cost.eta = 1.0;
  config.sheriff.cost.unit_distance_cost = 1.0;

  config.sheriff.receiver_max_load_percent = 35.0;  // spread onto cool hosts

  auto deploy = bench_deployment_options(seed);
  deploy.skew_weight = 12.0;  // start visibly unbalanced, like Fig. 9/10
  deploy.skew_hot_fraction = 0.15;
  deploy.hot_vm_fraction = 0.1;
  deploy.hot_host_bias = 5.0;  // the packed hosts are also the busy ones

  core::DistributedEngine engine(topology, deploy, config);
  BalanceResult result;
  result.stddev_by_round.push_back(engine.deployment().workload_stddev());
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto m = engine.run_round();
    result.stddev_by_round.push_back(m.workload_stddev_after);
    result.total_migrations += m.migrations;
    result.total_alerts += m.host_alerts + m.tor_alerts + m.switch_alerts;
  }
  return result;
}

namespace {

/// 5 % of VMs, uniformly (skipping delay-sensitive ones, which PRIORITY
/// would eliminate anyway).
std::vector<wl::VmId> sample_alerted(const wl::Deployment& deployment, double fraction,
                                     std::uint64_t seed) {
  common::Pcg32 rng(seed ^ 0xa1e57UL);
  std::vector<wl::VmId> pool;
  for (const auto& vm : deployment.vms()) {
    if (!vm.delay_sensitive) pool.push_back(vm.id);
  }
  rng.shuffle(pool);
  const auto take = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(pool.size())));
  pool.resize(std::min(take, pool.size()));
  std::sort(pool.begin(), pool.end());
  return pool;
}

}  // namespace

ManagerComparison compare_managers(const topo::Topology& topology, double alert_fraction,
                                   std::uint64_t seed, std::size_t size_param) {
  ManagerComparison out;
  out.size_param = size_param;
  out.hosts = topology.host_count();
  core::SheriffConfig config;  // paper cost defaults

  // --- Sheriff: per-rack shims, one-hop regions, same alerted VM set.
  {
    wl::Deployment deployment(topology, bench_deployment_options(seed));
    const auto alerted = sample_alerted(deployment, alert_fraction, seed);
    out.alerted = alerted.size();
    mig::MigrationCostModel cost_model(topology, deployment, config.cost);
    mig::AdmissionBroker broker(deployment);

    // Group the alerted VMs by their rack: each shim migrates its own.
    std::vector<std::vector<wl::VmId>> by_rack(topology.rack_count());
    for (wl::VmId id : alerted) {
      by_rack[topology.node(deployment.vm(id).host).rack].push_back(id);
    }
    obs::Stopwatch watch;
    for (topo::RackId r = 0; r < topology.rack_count(); ++r) {
      if (by_rack[r].empty()) continue;
      core::ShimController shim(r, topology, config);
      core::VmMigrationScheduler scheduler(deployment, cost_model, broker,
                                           config.max_matching_rounds);
      const auto plan = scheduler.migrate(by_rack[r], shim.region_target_hosts());
      out.sheriff_cost += plan.total_cost;
      out.sheriff_space += plan.search_space;
      out.sheriff_migrations += plan.moves.size();
    }
    out.sheriff_seconds = watch.elapsed_seconds();
  }

  // --- Centralized: identical initial state (same seed), global search.
  {
    wl::Deployment deployment(topology, bench_deployment_options(seed));
    const auto alerted = sample_alerted(deployment, alert_fraction, seed);
    mig::MigrationCostModel cost_model(topology, deployment, config.cost);
    core::CentralizedManager manager(deployment, cost_model, config);
    obs::Stopwatch watch;
    const auto plan = manager.migrate(alerted);
    out.centralized_seconds = watch.elapsed_seconds();
    out.centralized_cost = plan.total_cost;
    out.centralized_space = plan.search_space;
    out.centralized_migrations = plan.moves.size();
  }
  return out;
}

std::vector<ManagerComparison> sweep_fat_tree(const std::vector<int>& pod_counts,
                                              std::uint64_t seed) {
  std::vector<ManagerComparison> out;
  for (int pods : pod_counts) {
    topo::FatTreeOptions options;
    options.pods = pods;
    options.hosts_per_rack = 2;
    // Sec. VI-B: "available bandwidth between core and aggregation is 10,
    // between aggregation and ToR is 1".
    options.tor_agg_gbps = 1.0;
    options.agg_core_gbps = 10.0;
    const auto topology = topo::build_fat_tree(options);
    out.push_back(compare_managers(topology, 0.05, seed + static_cast<std::uint64_t>(pods),
                                   static_cast<std::size_t>(pods)));
    std::cout << "  swept pods=" << pods << " (" << out.back().hosts << " hosts, "
              << out.back().alerted << " alerted)\n";
  }
  return out;
}

std::vector<ManagerComparison> sweep_bcube(const std::vector<int>& switch_counts,
                                           std::uint64_t seed) {
  std::vector<ManagerComparison> out;
  for (int n : switch_counts) {
    topo::BCubeOptions options;
    options.ports = n;
    options.levels = 1;
    const auto topology = topo::build_bcube(options);
    out.push_back(compare_managers(topology, 0.05, seed + static_cast<std::uint64_t>(n),
                                   static_cast<std::size_t>(n)));
    std::cout << "  swept switches/level=" << n << " (" << out.back().hosts << " hosts, "
              << out.back().alerted << " alerted)\n";
  }
  return out;
}

void print_comparison_table(const std::vector<ManagerComparison>& sweep,
                            const std::string& size_label) {
  common::Table table({size_label, "hosts", "alerted", "sheriff cost", "optimal cost",
                       "cost ratio", "sheriff space", "central space", "space ratio",
                       "sheriff s", "central s"});
  for (const auto& point : sweep) {
    const double cost_ratio =
        point.centralized_cost > 0.0 ? point.sheriff_cost / point.centralized_cost : 0.0;
    const double space_ratio =
        point.sheriff_space > 0
            ? static_cast<double>(point.centralized_space) /
                  static_cast<double>(point.sheriff_space)
            : 0.0;
    table.begin_row()
        .add(point.size_param)
        .add(point.hosts)
        .add(point.alerted)
        .add(point.sheriff_cost, 1)
        .add(point.centralized_cost, 1)
        .add(cost_ratio, 3)
        .add(point.sheriff_space)
        .add(point.centralized_space)
        .add(space_ratio, 1)
        .add(point.sheriff_seconds, 3)
        .add(point.centralized_seconds, 3);
  }
  table.print(std::cout);
}

std::vector<ScaleScenario> make_scale_scenarios() {
  std::vector<ScaleScenario> scenarios;
  topo::FatTreeOptions ft;
  ft.pods = 16;
  ft.hosts_per_rack = 4;
  ft.tor_agg_gbps = 1.0;  // Sec. VI-B capacities: contention like Fig. 11/12
  scenarios.push_back({"fat_tree_k16", topo::build_fat_tree(ft), 12});
  ft.pods = 24;
  scenarios.push_back({"fat_tree_k24", topo::build_fat_tree(ft), 6});
  // Sec. V-A centralized k-median reduction: the manage phase is the
  // planner + Alg. 5 local search + matching (the delta-evaluated solver).
  ft.pods = 16;
  scenarios.push_back(
      {"fat_tree_k16_kmedian", topo::build_fat_tree(ft), 12, core::ManagerMode::kKMedian});
  // Regional-sharding ablation on the largest fabric: besides the
  // production leg (8 contiguous rack shards with the per-rack flow index
  // and the ordered claim commit), bench_scale runs a legacy interleaved
  // sweep leg; the reported manage ratio is the algorithmic win of
  // sharding alone, even on a single-core runner. The workload is shaped
  // so congestion sits at the agg–core layer: one hot core/agg switch
  // alerts dozens of racks at once, so the legacy sweep pays an O(flows)
  // F-set scan plus a reroute pass per alerted shim, while the sharded
  // commit coalesces the duplicate claims into one.
  ScaleScenario k32;
  k32.name = "fat_tree_k32";
  ft.pods = 32;
  ft.hosts_per_rack = 2;
  ft.host_link_gbps = 10.0;
  ft.tor_agg_gbps = 10.0;
  ft.agg_core_gbps = 1.0;
  k32.topology = topo::build_fat_tree(ft);
  k32.rounds = 4;
  k32.shard_ablation = true;
  k32.deploy.placement = wl::PlacementPolicy::kUniform;
  k32.deploy.hot_vm_fraction = 0.0;  // alerts come from the fabric, not hot VMs
  k32.deploy.dependency_degree = 2.0;
  k32.flow_demand_scale_gbps = 2.0;
  k32.reroute_fraction = 0.3;
  k32.max_matching_rounds = 4;
  scenarios.push_back(std::move(k32));

  topo::BCubeOptions bc;
  bc.ports = 4;
  bc.levels = 2;
  scenarios.push_back({"bcube_4_2", topo::build_bcube(bc), 30});
  return scenarios;
}

core::EngineConfig scale_engine_config(const ScaleScenario& scenario) {
  core::EngineConfig config;
  config.sheriff.cost.computing_cost = 100.0;  // Sec. VI-B settings
  config.mode = scenario.mode;
  if (scenario.shard_ablation) config.manage_shards = scenario.manage_shards;
  config.flow_demand_scale_gbps = scenario.flow_demand_scale_gbps;
  config.sheriff.reroute_fraction = scenario.reroute_fraction;
  config.sheriff.max_matching_rounds = scenario.max_matching_rounds;
  return config;
}

}  // namespace sheriff::bench
