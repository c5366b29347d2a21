#include "workloads.hpp"

#include "common/rng.hpp"
#include "topology/fat_tree.hpp"

namespace sheriff::perfbench {
namespace {

constexpr std::size_t kRepRounds = kTimedRounds + kResumeRounds;

/// Sec. VI-B deployment: ~3 VMs per host, VM capacity up to 20, skewed
/// placement with 8% hot VMs.
wl::DeploymentOptions skewed_deployment(std::uint64_t seed) {
  wl::DeploymentOptions options;
  options.seed = seed;
  options.vms_per_host = 3.0;
  options.max_vm_capacity = 20;
  options.placement = wl::PlacementPolicy::kSkewed;
  return options;
}

/// Sec. VI-B cost setting (C_r = 100); every hot-path kernel at its default.
core::EngineConfig sheriff_config() {
  core::EngineConfig config;
  config.sheriff.cost.computing_cost = 100.0;
  return config;
}

/// A Fat-Tree with the Sec. VI-B 1 Gb/s ToR–aggregation links.
topo::Topology contended_fat_tree(int pods) {
  topo::FatTreeOptions options;
  options.pods = pods;
  options.hosts_per_rack = 4;
  options.tor_agg_gbps = 1.0;
  return topo::build_fat_tree(options);
}

Fabric pristine(topo::Topology topology) {
  return {std::make_unique<topo::Topology>(std::move(topology)), nullptr};
}

// --- reroute_k32 / reroute_k16 ----------------------------------------------
// Congestion sits at the 1 Gb/s aggregation–core layer under uniform
// placement, so alerts come from hot outer switches shared by dozens of
// racks: FLOWREROUTE in the serial sharded commit dominates the round.
// reroute_k16 is the same shaping on a k=16 fabric. Its repetitions take
// ~0.5 s instead of 7-10 s, so a run holds dozens of them.

/// Fat-Tree with 2 hosts per rack, 10 Gb/s host and ToR–aggregation links
/// and 1 Gb/s aggregation–core links.
topo::Topology agg_core_bottleneck_fat_tree(int pods) {
  topo::FatTreeOptions options;
  options.pods = pods;
  options.hosts_per_rack = 2;
  options.host_link_gbps = 10.0;
  options.tor_agg_gbps = 10.0;
  options.agg_core_gbps = 1.0;
  return topo::build_fat_tree(options);
}

Fabric k32_fabric(std::uint64_t /*seed*/) { return pristine(build_k32_fabric()); }

Fabric k16_reroute_fabric(std::uint64_t /*seed*/) {
  return pristine(agg_core_bottleneck_fat_tree(16));
}

wl::DeploymentOptions reroute_deployment(std::uint64_t seed) {
  wl::DeploymentOptions options = skewed_deployment(seed);
  options.placement = wl::PlacementPolicy::kUniform;
  options.hot_vm_fraction = 0.0;
  options.dependency_degree = 2.0;
  return options;
}

core::EngineConfig reroute_config() {
  core::EngineConfig config = sheriff_config();
  config.manage_shards = 8;
  config.flow_demand_scale_gbps = 2.0;
  config.sheriff.reroute_fraction = 0.3;
  config.sheriff.max_matching_rounds = 4;
  return config;
}

// --- migrate_k24 ------------------------------------------------------------
// Skewed placement with hot VMs on 1 Gb/s ToR uplinks: host alerts drive
// dozens of migrations per round and reroutes are rare.

Fabric k24_fabric(std::uint64_t /*seed*/) { return pristine(contended_fat_tree(24)); }

// --- faulted_k16 ------------------------------------------------------------
// The write side of routing and fair share: link flaps every round,
// aggregation-switch crashes, ToR outages (shim takeover, orphaned VMs,
// recovery migrations) and lossy REQUEST/ACK messaging. 30% hot VMs
// rather than 8%: with ~120 hot VMs on k=16 the alert count, and with it
// the round time, swings by ±15% from seed to seed; ~460 halve that.

wl::DeploymentOptions k16_faulted_deployment(std::uint64_t seed) {
  wl::DeploymentOptions options = skewed_deployment(seed);
  options.hot_vm_fraction = 0.3;
  return options;
}

Fabric k16_faulted_fabric(std::uint64_t seed) {
  Fabric fabric = pristine(contended_fat_tree(16));
  const topo::Topology& topology = *fabric.topology;
  fault::FaultOptions options;
  options.seed = seed;
  options.message_drop_probability = 0.1;
  options.max_protocol_retries = 16;
  auto plan = std::make_unique<fault::FaultPlan>(fault::FaultPlan::random_link_flaps(
      topology, options, kRepRounds, 1, kRepRounds, 3));
  common::Pcg32 rng(seed ^ 0x5e1ffULL);
  const std::vector<topo::NodeId> aggs = topology.nodes_of_kind(topo::NodeKind::kAggSwitch);
  for (std::size_t round = 5; round < kRepRounds; round += 10) {
    plan->fail_switch(aggs[rng.next_below(static_cast<std::uint32_t>(aggs.size()))], round,
                      round + 4);
  }
  const auto racks = static_cast<std::uint32_t>(topology.rack_count());
  for (std::size_t round = 12; round < kRepRounds; round += 25) {
    plan->fail_switch(topology.rack(rng.next_below(racks)).tor, round, round + 8);
  }
  plan->set_options(options);
  fabric.plan = std::move(plan);
  return fabric;
}

// --- kmedian_k16 ------------------------------------------------------------
// The Sec. V-A centralized k-median reduction: the only workload whose
// manage phase runs the k-median planner and Alg. 5 local search.

Fabric k16_fabric(std::uint64_t /*seed*/) { return pristine(contended_fat_tree(16)); }

core::EngineConfig kmedian_config() {
  core::EngineConfig config = sheriff_config();
  config.mode = core::ManagerMode::kKMedian;
  return config;
}

}  // namespace

topo::Topology build_k32_fabric() { return agg_core_bottleneck_fat_tree(32); }

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"reroute_k32", k32_fabric, reroute_deployment, reroute_config},
      {"reroute_k16", k16_reroute_fabric, reroute_deployment, reroute_config},
      {"migrate_k24", k24_fabric, skewed_deployment, sheriff_config},
      {"faulted_k16", k16_faulted_fabric, k16_faulted_deployment, sheriff_config},
      {"kmedian_k16", k16_fabric, skewed_deployment, kmedian_config},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace sheriff::perfbench
