#include "core/kmedian_planner.hpp"

#include <algorithm>
#include <cassert>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "graph/dijkstra.hpp"
#include "graph/floyd_warshall.hpp"
#include "graph/kmedian_fast.hpp"
#include "migration/cost_model.hpp"
#include "migration/request.hpp"
#include "obs/timing.hpp"

namespace sheriff::core {

namespace {

KMedianPlan to_plan(const graph::KMedianSolution& solution) {
  KMedianPlan out;
  out.destinations.assign(solution.medians.begin(), solution.medians.end());
  out.connection_cost = solution.cost;
  out.evaluations = solution.evaluations;
  out.hit_evaluation_cap = solution.hit_evaluation_cap;
  return out;
}

}  // namespace

KMedianPlanner::KMedianPlanner(const topo::Topology& topo, bool use_floyd_warshall)
    : KMedianPlanner(topo, KMedianPlannerOptions{use_floyd_warshall, nullptr, nullptr}) {}

KMedianPlanner::KMedianPlanner(const topo::Topology& topo, KMedianPlannerOptions options)
    : topo_(&topo), options_(options), distances_(topo.rack_count()) {
  SHERIFF_REQUIRE(topo.rack_count() >= 1, "topology has no racks");
  rebuild();
}

void KMedianPlanner::rebuild() {
  // Rack-to-rack costs are wired shortest-path distances between the
  // racks' ToRs over the full network graph (hosts included — in BCube the
  // inter-rack paths run through server NICs). The paper builds the rack
  // multigraph T and collapses it with Floyd–Warshall; running APSP /
  // per-ToR Dijkstra on the node graph and restricting to ToR rows yields
  // the same complete metric T'.
  const topo::LivenessMask* mask = options_.liveness;
  const graph::Graph g = mask == nullptr
                             ? topo_->wired_graph(topo::EdgeWeight::kDistance)
                             : topo_->wired_graph(topo::EdgeWeight::kDistance, *mask);
  const std::size_t racks = topo_->rack_count();
  if (options_.use_floyd_warshall) {
    // The paper's original pipeline; O(|V|^3), test/small-scale only.
    const auto apsp = graph::floyd_warshall(g);
    for (topo::RackId r = 0; r < racks; ++r) {
      for (topo::RackId c = 0; c < racks; ++c) {
        distances_.set(r, c, apsp.distance.at(topo_->rack(r).tor, topo_->rack(c).tor));
      }
    }
  } else if (mask == nullptr && options_.shared_rows != nullptr) {
    // Shared rows: the cost model's distance cache holds the same per-ToR
    // Dijkstra trees on the same unmasked distance graph — read them
    // instead of sweeping again, so ToR distances have one source of
    // truth. Masked rebuilds keep their own sweep (the shared rows are
    // pristine by construction).
    for (topo::RackId r = 0; r < racks; ++r) {
      const auto& tree = options_.shared_rows->distance_tree(topo_->rack(r).tor);
      for (topo::RackId c = 0; c < racks; ++c) {
        distances_.set(r, c, tree.distance[topo_->rack(c).tor]);
      }
    }
  } else {
    // One Dijkstra per ToR row, sharded over contiguous rack blocks; each
    // shard owns its rows, so the matrix is identical for any pool size.
    constexpr std::size_t kShardRacks = 8;
    const std::size_t shards = (racks + kShardRacks - 1) / kShardRacks;
    const auto run_shard = [&](std::size_t s) {
      graph::ShortestPathTree tree;
      const topo::RackId lo = static_cast<topo::RackId>(s * kShardRacks);
      const topo::RackId hi =
          static_cast<topo::RackId>(std::min<std::size_t>(racks, (s + 1) * kShardRacks));
      for (topo::RackId r = lo; r < hi; ++r) {
        graph::dijkstra_into(g, topo_->rack(r).tor, {}, tree);
        for (topo::RackId c = 0; c < racks; ++c) {
          distances_.set(r, c, tree.distance[topo_->rack(c).tor]);
        }
      }
    };
    common::parallel_for(options_.pool, shards, run_shard);
  }

  facilities_.clear();
  facilities_.reserve(racks);
  for (topo::RackId r = 0; r < racks; ++r) {
    // A rack whose ToR is down cannot receive (or source) traffic; keep it
    // out of the facility set so the solvers never open it.
    if (mask == nullptr || mask->node_up(topo_->rack(r).tor)) facilities_.push_back(r);
  }
  SHERIFF_REQUIRE(!facilities_.empty(), "no live racks to plan over");
  if (mask == nullptr) {
    SHERIFF_REQUIRE(distances_.all_finite(), "rack graph is disconnected");
  }
  // Faulted fabrics may legitimately have unreachable rack pairs; the
  // solvers handle ∞ distances (the fast path defers to the reference).
  built_version_ = mask == nullptr ? 0 : mask->version();
  ++rebuilds_;
}

bool KMedianPlanner::refresh() {
  if (options_.liveness == nullptr) return false;
  if (options_.liveness->version() == built_version_) return false;
  rebuild();
  return true;
}

graph::KMedianInstance KMedianPlanner::make_instance(
    const std::vector<topo::RackId>& source_racks, std::size_t k) const {
  graph::KMedianInstance instance;
  instance.distance = &distances_;
  instance.k = k;
  instance.clients.assign(source_racks.begin(), source_racks.end());
  instance.facilities.assign(facilities_.begin(), facilities_.end());
  return instance;
}

KMedianPlan KMedianPlanner::plan(const std::vector<topo::RackId>& source_racks,
                                 const PlanOptions& options) const {
  auto instance = make_instance(source_racks, options.k);
  instance.max_evaluations = options.max_evaluations;
  graph::FastKMedianOptions fast;
  fast.p = options.p;
  return to_plan(graph::fast_kmedian(instance, fast));
}

KMedianPlan KMedianPlanner::plan_reference(const std::vector<topo::RackId>& source_racks,
                                           std::size_t k, std::size_t p) const {
  return to_plan(graph::local_search_kmedian(make_instance(source_racks, k), p));
}

KMedianPlan KMedianPlanner::plan_exact(const std::vector<topo::RackId>& source_racks,
                                       std::size_t k) const {
  return to_plan(graph::exhaustive_kmedian(make_instance(source_racks, k)));
}

KMedianMigrationManager::KMedianMigrationManager(wl::Deployment& deployment,
                                                 mig::MigrationCostModel& cost_model,
                                                 const KMedianPlanner& planner)
    : KMedianMigrationManager(deployment, cost_model, planner, Options{}) {}

KMedianMigrationManager::KMedianMigrationManager(wl::Deployment& deployment,
                                                 mig::MigrationCostModel& cost_model,
                                                 const KMedianPlanner& planner,
                                                 Options options)
    : deployment_(&deployment), cost_model_(&cost_model), planner_(&planner),
      options_(options) {
  SHERIFF_REQUIRE(options.destination_racks >= 1, "need at least one destination rack");
  SHERIFF_REQUIRE(options.local_search_p >= 1, "swap size must be at least 1");
}

MigrationPlan KMedianMigrationManager::migrate(std::vector<wl::VmId> alerted) {
  MigrationPlan plan;
  last_destinations_.clear();
  if (alerted.empty()) return plan;
  const topo::Topology& topo = deployment_->topology();

  // Source ToRs: the racks the alerted VMs live in, deduplicated in first-
  // appearance order with O(racks) seen-flags.
  std::vector<topo::RackId> sources;
  std::vector<char> seen(topo.rack_count(), 0);
  for (wl::VmId id : alerted) {
    const topo::RackId r = topo.node(deployment_->vm(id).host).rack;
    if (!seen[r]) {
      seen[r] = 1;
      sources.push_back(r);
    }
  }
#ifndef NDEBUG
  // Determinism micro-assert: the flag-based dedup must keep exactly the
  // first-appearance order the original linear-scan dedup produced.
  {
    std::vector<topo::RackId> reference;
    for (wl::VmId id : alerted) {
      const topo::RackId r = topo.node(deployment_->vm(id).host).rack;
      if (std::find(reference.begin(), reference.end(), r) == reference.end()) {
        reference.push_back(r);
      }
    }
    assert(sources == reference && "source-rack dedup changed order");
  }
#endif

  KMedianPlanner::PlanOptions plan_options;
  plan_options.k = std::min(options_.destination_racks, planner_->facility_racks().size());
  plan_options.p = options_.local_search_p;
  plan_options.max_evaluations = options_.max_evaluations;
  KMedianPlan selection;
  {
    obs::ScopedTimer timer(stats_.kmedian_ns);
    selection = planner_->plan(sources, plan_options);
  }
  last_destinations_ = selection.destinations;
  plan.search_space += selection.evaluations;
  ++stats_.plans;
  stats_.evaluations += selection.evaluations;
  if (selection.hit_evaluation_cap) ++stats_.cap_hits;

  std::vector<topo::NodeId> targets;
  for (topo::RackId r : selection.destinations) {
    for (topo::NodeId h : topo.rack(r).hosts) {
      if (options_.liveness != nullptr && !options_.liveness->host_attached(topo, h)) continue;
      targets.push_back(h);
    }
  }

  obs::ScopedTimer timer(stats_.schedule_ns);
  mig::AdmissionBroker broker(*deployment_);
  VmMigrationScheduler scheduler(*deployment_, *cost_model_, broker);
  plan.merge(scheduler.migrate(std::move(alerted), targets));
  return plan;
}

}  // namespace sheriff::core
