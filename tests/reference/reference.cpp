#include "reference.hpp"

#include <algorithm>
#include <cmath>

#include "graph/dijkstra.hpp"
#include "graph/matching.hpp"
#include "net/routing.hpp"

namespace sheriff::reference {

bool route_uncached(const graph::Graph& hop_graph, net::Flow& flow,
                    std::span<const topo::NodeId> blocked) {
  flow.path.clear();
  if (flow.src_host == flow.dst_host) return false;
  std::vector<bool> blocked_mask;
  if (!blocked.empty()) {
    blocked_mask.assign(hop_graph.vertex_count(), false);
    for (topo::NodeId b : blocked) blocked_mask[b] = true;
  }
  const graph::ShortestPathTree tree = graph::dijkstra(hop_graph, flow.src_host, blocked_mask);
  return net::walk_ecmp(tree, flow, hop_graph.vertex_count());
}

mig::CostBreakdown legacy_cost(const mig::MigrationCostModel& model,
                               const wl::Deployment& deployment,
                               const net::FairShareResult* shares, wl::VmId vm_id,
                               topo::NodeId destination) {
  const topo::Topology& topo = deployment.topology();
  const mig::CostParams& params = model.params();
  const wl::VirtualMachine& vm = deployment.vm(vm_id);
  mig::CostBreakdown breakdown;
  breakdown.computing = params.computing_cost;

  double new_span = 0.0;
  double old_span = 0.0;
  for (wl::VmId other : deployment.dependencies().neighbors(vm_id)) {
    const topo::NodeId partner = deployment.vm(other).host;
    new_span += model.partner_rooted() ? model.host_distance(partner, destination)
                                       : model.host_distance(destination, partner);
    if (params.dependency_mode == mig::DependencyCostMode::kClampedDelta) {
      old_span += model.partner_rooted() ? model.host_distance(partner, vm.host)
                                         : model.host_distance(vm.host, partner);
    }
  }
  breakdown.dependency =
      params.dependency_mode == mig::DependencyCostMode::kPostMoveSpan
          ? params.unit_distance_cost * new_span
          : params.unit_distance_cost * std::max(0.0, new_span - old_span);

  const std::vector<topo::NodeId> path = model.shortest_path(vm.host, destination);
  if (path.size() < 2) return breakdown;  // unreachable or own host: infeasible
  double transmission = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const topo::LinkId link = topo.link_between(path[i], path[i + 1]);
    const double capacity = topo.link(link).capacity_gbps;
    double available = capacity;
    if (shares != nullptr) {
      available = std::max(shares->available_bandwidth(topo, link),
                           params.management_reserve_fraction * capacity);
    }
    // B(e): the smaller of available and requested bandwidth, which must
    // clear the threshold B_t for the link to be usable.
    const double b = std::min(available, params.request_gbps);
    if (b <= params.bandwidth_threshold_gbps) return breakdown;  // infeasible
    const double t = static_cast<double>(vm.capacity) / b;        // T(e)
    const double p = b / capacity;                                // P(e)
    transmission += params.delta * t + params.eta * p;
  }
  breakdown.transmission = transmission;
  breakdown.feasible = true;
  return breakdown;
}

std::vector<core::ProposedMove> exhaustive_matching(const wl::Deployment& deployment,
                                                    const mig::MigrationCostModel& model,
                                                    const std::vector<wl::VmId>& candidates,
                                                    const std::vector<topo::NodeId>& targets,
                                                    std::size_t* search_space) {
  std::vector<core::ProposedMove> out;
  if (candidates.empty()) return out;
  std::vector<topo::NodeId> open;
  for (topo::NodeId h : targets) {
    if (deployment.host_free_capacity(h) > 0) open.push_back(h);
  }
  if (open.empty()) return out;
  const std::size_t batch = std::min(candidates.size(), open.size());
  graph::AssignmentProblem problem(batch, open.size());
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t c = 0; c < open.size(); ++c) {
      if (search_space != nullptr) ++*search_space;
      if (!deployment.can_place(candidates[r], open[c])) continue;
      const double cost = model.total_cost(candidates[r], open[c]);
      if (std::isfinite(cost)) problem.set_cost(r, c, cost);
    }
  }
  const auto matching = graph::solve_assignment(problem);
  for (std::size_t r = 0; r < batch; ++r) {
    const std::size_t col = matching.assignment[r];
    if (col == graph::AssignmentResult::kUnassigned) continue;
    out.push_back({candidates[r], open[col], problem.cost(r, col)});
  }
  return out;
}

}  // namespace sheriff::reference
