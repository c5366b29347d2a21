#pragma once
// Test-only reference kernels (the sheriff_reference library). Each one is
// the plain, unoptimized form of a production kernel and exists only as
// the oracle of a differential test or a bench_micro comparison:
//
//   route_uncached      one heap Dijkstra per query + the ECMP walk — what
//                       net::Router answers from its tree and path caches
//   legacy_cost         Eq. (1) with the per-link transmission walk over
//                       the fair-share result — what MigrationCostModel
//                       evaluates on its CostSurface
//   exhaustive_matching the matching sweep with every candidate evaluated
//                       — what core::propose_matching prunes with the
//                       admissible bound
//
// Oracles that production code still calls (net::max_min_fair_share for
// the auditor's deep check, graph::local_search_kmedian, heap
// graph::dijkstra) stay in src/.

#include <cstddef>
#include <span>
#include <vector>

#include "core/vm_migration.hpp"
#include "graph/graph.hpp"
#include "migration/cost_model.hpp"
#include "net/fair_share.hpp"
#include "net/flow.hpp"
#include "topology/topology.hpp"
#include "workload/deployment.hpp"

namespace sheriff::reference {

/// Routes `flow` on `hop_graph` (the live hop-weighted wired graph) with
/// one graph::dijkstra from the source that excludes `blocked`, then
/// net::walk_ecmp. Same contract as net::Router::route: false (empty
/// path) for a self-flow or when no path exists under the blocks.
bool route_uncached(const graph::Graph& hop_graph, net::Flow& flow,
                    std::span<const topo::NodeId> blocked = {});

/// Eq. (1) for moving `vm` to `destination`, term by term: the computing
/// cost, the dependency span from model.host_distance in the model's
/// rooting mode, and the transmission term walked link by link along
/// model.shortest_path against `shares` (nullptr = idle links).
mig::CostBreakdown legacy_cost(const mig::MigrationCostModel& model,
                               const wl::Deployment& deployment,
                               const net::FairShareResult* shares, wl::VmId vm,
                               topo::NodeId destination);

/// core::propose_matching with every (candidate, open target) pair
/// evaluated through model.total_cost: no bound, no infeasibility skip.
std::vector<core::ProposedMove> exhaustive_matching(const wl::Deployment& deployment,
                                                    const mig::MigrationCostModel& model,
                                                    const std::vector<wl::VmId>& candidates,
                                                    const std::vector<topo::NodeId>& targets,
                                                    std::size_t* search_space = nullptr);

}  // namespace sheriff::reference
