#pragma once
// The benchmark's seeded workloads. Each one is a fabric, a VM
// deployment, an engine configuration and (for faulted_k16) a fault plan,
// all derived from the workload name and the seed alone, so the same
// (name, seed) pair always yields the same simulation.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "fault/fault_plan.hpp"
#include "topology/topology.hpp"
#include "workload/deployment.hpp"

namespace sheriff::perfbench {

/// Rounds each repetition times; the p90 of a run needs >= 100 samples so
/// that at least ten lie beyond it even when a run holds one repetition.
inline constexpr std::size_t kTimedRounds = 100;
/// Extra rounds both the original and the resumed engine run for the
/// resume-parity check.
inline constexpr std::size_t kResumeRounds = 3;

/// Everything a repetition builds before round 0. The topology is heap
/// held because the engine and the fault plan keep pointers into it.
struct Fabric {
  std::unique_ptr<topo::Topology> topology;
  std::unique_ptr<fault::FaultPlan> plan;  ///< null on a pristine fabric
};

struct Workload {
  std::string name;
  /// Builds the topology and, where the workload has one, the fault plan
  /// covering every round a repetition runs.
  Fabric (*build_fabric)(std::uint64_t seed);
  wl::DeploymentOptions (*deployment)(std::uint64_t seed);
  core::EngineConfig (*config)();
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// The workload called `name`, or nullptr.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// The k=32 Fat-Tree of reroute_k32, also the graph the calibration BFS
/// sweep runs on.
[[nodiscard]] topo::Topology build_k32_fabric();

}  // namespace sheriff::perfbench
