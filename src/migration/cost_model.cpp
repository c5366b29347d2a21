#include "migration/cost_model.hpp"

#include <algorithm>
#include <limits>

#include "common/require.hpp"

namespace sheriff::mig {

MigrationCostModel::MigrationCostModel(const topo::Topology& topo,
                                       const wl::Deployment& deployment, CostParams params)
    : topo_(&topo),
      deployment_(&deployment),
      params_(params),
      distance_graph_(topo.wired_graph(topo::EdgeWeight::kDistance)),
      idle_surface_(topo),
      loaded_surface_(topo),
      rows_(topo.node_count()) {
  SHERIFF_REQUIRE(params.computing_cost >= 0.0, "C_r must be non-negative");
  SHERIFF_REQUIRE(params.request_gbps > 0.0, "requested bandwidth must be positive");
  // Static leaf tables: a single-homed node reaches the fabric only
  // through its one wired link, so its paths are its peer's plus that leaf
  // edge — the structural fact behind both the shared-leaf tree mode and
  // the surface-mode path decomposition.
  const std::size_t n = topo.node_count();
  single_homed_.assign(n, 0);
  rack_leaf_.assign(n, 0);
  leaf_link_.assign(n, 0);
  leaf_tor_.assign(n, topo::kInvalidNode);
  for (topo::NodeId v = 0; v < n; ++v) {
    const auto edges = distance_graph_.neighbors(v);
    if (edges.size() != 1) continue;
    single_homed_[v] = 1;
    leaf_tor_[v] = edges[0].to;
    leaf_link_[v] = topo.link_between(v, edges[0].to);
    const auto& node = topo.node(v);
    rack_leaf_[v] = node.kind == topo::NodeKind::kHost && node.rack != topo::kInvalidRack &&
                            topo.rack(node.rack).tor == edges[0].to
                        ? 1
                        : 0;
  }
  for (const auto& link : topo.links()) {
    if (topo.node(link.a).kind == topo::NodeKind::kHost &&
        topo.node(link.b).kind == topo::NodeKind::kHost) {
      hosts_adjacent_ = true;
      break;
    }
  }
  idle_surface_.build(nullptr, params_.management_reserve_fraction, params_.request_gbps,
                      params_.bandwidth_threshold_gbps);
}

MigrationCostModel::~MigrationCostModel() { clear_rows(); }

void MigrationCostModel::clear_rows() const {
  for (auto& slot : rows_) {
    delete slot.exchange(nullptr, std::memory_order_acq_rel);
  }
}

void MigrationCostModel::set_bandwidth_state(const net::FairShareResult* shares) {
  shares_ = shares;
  // The idle snapshot depends on the immutable link capacities only: the
  // constructor builds it once, and the engine's end-of-round reset to
  // idle just switches back to it.
  if (shares == nullptr) {
    surface_ = &idle_surface_;
    return;
  }
  loaded_surface_.build(shares, params_.management_reserve_fraction, params_.request_gbps,
                        params_.bandwidth_threshold_gbps);
  surface_ = &loaded_surface_;
  surface_builds_.fetch_add(1, std::memory_order_relaxed);
}

CostModelStats MigrationCostModel::stats() const noexcept {
  CostModelStats out;
  out.evaluated = evaluated_.load(std::memory_order_relaxed);
  out.pruned = pruned_.load(std::memory_order_relaxed);
  out.surface_builds = surface_builds_.load(std::memory_order_relaxed);
  return out;
}

MigrationCostModel::Row* MigrationCostModel::build_row(topo::NodeId root) const {
  auto* row = new Row;
  row->tree = graph::dijkstra(distance_graph_, root);
  // Destination-rack memo: the root→ToR link sequence along the tree's
  // deterministic path, shared by every shim querying this root within
  // (and across) rounds. link_between runs once per (root, rack) instead
  // of once per (candidate, hop).
  const std::size_t racks = topo_->rack_count();
  row->rack_links.resize(racks);
  row->rack_ok.assign(racks, 0);
  for (topo::RackId r = 0; r < racks; ++r) {
    const topo::NodeId tor = topo_->rack(r).tor;
    if (tor == topo::kInvalidNode) continue;
    if (row->tree.distance[tor] == graph::kInfiniteDistance) continue;
    const auto path = row->tree.path_to(tor);
    if (path.empty()) continue;
    auto& links = row->rack_links[r];
    links.reserve(path.size() - 1);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      links.push_back(topo_->link_between(path[i], path[i + 1]));
    }
    row->rack_ok[r] = 1;
  }
  return row;
}

const MigrationCostModel::Row& MigrationCostModel::row_for(topo::NodeId root) const {
  std::atomic<Row*>& slot = rows_[root];
  Row* existing = slot.load(std::memory_order_acquire);
  if (existing != nullptr) return *existing;
  // Build outside any lock (two threads may race on the same root; the
  // loser's identical, deterministic row is discarded — cheaper than
  // serializing all Dijkstra runs, and the published row never mutates).
  Row* built = build_row(root);
  Row* expected = nullptr;
  if (slot.compare_exchange_strong(expected, built, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *built;
  }
  delete built;
  return *expected;
}

const graph::ShortestPathTree& MigrationCostModel::tree_for(topo::NodeId source) const {
  return row_for(source).tree;
}

const graph::ShortestPathTree& MigrationCostModel::distance_tree(topo::NodeId root) const {
  return row_for(root).tree;
}

double MigrationCostModel::host_distance(topo::NodeId from, topo::NodeId to) const {
  if (from == to) return 0.0;
  if (shared_leaf_trees_) {
    if (single_homed_[from] != 0) {
      // Single-homed: every path out of `from` crosses its one leaf edge,
      // so the neighbor's (shared) tree answers the query.
      const auto& leaf = distance_graph_.neighbors(from)[0];
      if (to == leaf.to) return leaf.weight;
      return leaf.weight + tree_for(leaf.to).distance[to];
    }
  }
  return tree_for(from).distance[to];
}

std::vector<topo::NodeId> MigrationCostModel::shortest_path(topo::NodeId from,
                                                            topo::NodeId to) const {
  if (shared_leaf_trees_ && from != to) {
    if (single_homed_[from] != 0) {
      const topo::NodeId via = leaf_tor_[from];
      if (to == via) return {from, to};
      auto path = tree_for(via).path_to(to);
      if (path.empty()) return path;  // unreachable
      path.insert(path.begin(), from);
      return path;
    }
  }
  return tree_for(from).path_to(to);
}

double MigrationCostModel::dependency_cost(wl::VmId vm_id, topo::NodeId vm_host,
                                           topo::NodeId destination) const {
  // Dependency cost (Eq. 1's C_d·D(e)·χ term), in the configured mode.
  // Partner-rooted mode queries the same distances from the partner's tree
  // (the wired graph is undirected, so d(a,b) = d(b,a)): one tree per
  // partner instead of one per candidate destination. Shared verbatim by
  // cost() and candidate_lower_bound() so both produce the identical FP
  // value.
  double new_span = 0.0;
  double old_span = 0.0;
  for (wl::VmId other : deployment_->dependencies().neighbors(vm_id)) {
    const topo::NodeId partner = deployment_->vm(other).host;
    new_span += partner_rooted_ ? host_distance(partner, destination)
                                : host_distance(destination, partner);
    if (params_.dependency_mode == DependencyCostMode::kClampedDelta) {
      old_span += partner_rooted_ ? host_distance(partner, vm_host)
                                  : host_distance(vm_host, partner);
    }
  }
  switch (params_.dependency_mode) {
    case DependencyCostMode::kPostMoveSpan:
      return params_.unit_distance_cost * new_span;
    case DependencyCostMode::kClampedDelta:
      return params_.unit_distance_cost * std::max(0.0, new_span - old_span);
  }
  return 0.0;
}

void MigrationCostModel::surface_transmission(const wl::VirtualMachine& vm,
                                              topo::NodeId destination,
                                              CostBreakdown& breakdown) const {
  // Walks the links of shortest_path(src, destination) in order against
  // the SoA snapshot, with the per-link Eq. (1) walk's FP expressions, so
  // the result is bit-identical to that walk. An infeasible link aborts
  // with the partial sum discarded.
  const topo::NodeId src = vm.host;
  if (src == destination) return;  // one-node path: infeasible, as before
  const double cap = static_cast<double>(vm.capacity);
  const double delta = params_.delta;
  const double eta = params_.eta;
  double transmission = 0.0;
  if (shared_leaf_trees_ && single_homed_[src] != 0) {
    // Path shape: [src] + tor_tree.path_to(dst). First link is the
    // leaf edge; the middle is the memoized root→ToR sequence when the
    // destination hangs single-homed off its rack's ToR (every fat-tree
    // host); otherwise walk the same deterministic tree path live.
    const topo::NodeId root = leaf_tor_[src];
    if (!surface_->step(leaf_link_[src], cap, delta, eta, transmission)) return;
    if (destination != root) {
      const Row& row = row_for(root);
      if (rack_leaf_[destination] != 0) {
        const topo::RackId rack = topo_->node(destination).rack;
        if (row.rack_ok[rack] == 0) return;  // unreachable
        for (const topo::LinkId l : row.rack_links[rack]) {
          if (!surface_->step(l, cap, delta, eta, transmission)) return;
        }
        if (!surface_->step(leaf_link_[destination], cap, delta, eta, transmission)) return;
      } else {
        const auto path = row.tree.path_to(destination);
        if (path.empty()) return;  // unreachable
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          const topo::LinkId l = topo_->link_between(path[i], path[i + 1]);
          if (!surface_->step(l, cap, delta, eta, transmission)) return;
        }
      }
    }
  } else {
    const auto path = shortest_path(src, destination);
    if (path.size() < 2) return;  // unreachable
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const topo::LinkId l = topo_->link_between(path[i], path[i + 1]);
      if (!surface_->step(l, cap, delta, eta, transmission)) return;
    }
  }
  breakdown.transmission = transmission;
  breakdown.feasible = true;
}

CostBreakdown MigrationCostModel::cost(wl::VmId vm_id, topo::NodeId destination) const {
  evaluated_.fetch_add(1, std::memory_order_relaxed);
  const wl::VirtualMachine& vm = deployment_->vm(vm_id);
  SHERIFF_REQUIRE(topo_->node(destination).kind == topo::NodeKind::kHost,
                  "migration destination must be a host");
  CostBreakdown breakdown;
  breakdown.computing = params_.computing_cost;
  breakdown.dependency = dependency_cost(vm_id, vm.host, destination);
  surface_transmission(vm, destination, breakdown);
  return breakdown;
}

double MigrationCostModel::total_cost_with_base(wl::VmId vm_id, topo::NodeId destination,
                                                double base) const {
  evaluated_.fetch_add(1, std::memory_order_relaxed);
  const wl::VirtualMachine& vm = deployment_->vm(vm_id);
  CostBreakdown breakdown;
  surface_transmission(vm, destination, breakdown);
  // total() folds (computing + dependency) + transmission left-to-right
  // and `base` is that exact inner sum, so this is bitwise total_cost().
  return breakdown.feasible ? base + breakdown.transmission
                            : std::numeric_limits<double>::infinity();
}

double MigrationCostModel::candidate_lower_bound(wl::VmId vm_id, topo::NodeId destination,
                                                 double* base_out) const {
  const wl::VirtualMachine& vm = deployment_->vm(vm_id);
  if (destination == vm.host) return std::numeric_limits<double>::infinity();
  // The computing + dependency base is evaluated with the identical FP
  // expression cost()/total() use, so base == total − transmission exactly.
  const double base = params_.computing_cost + dependency_cost(vm_id, vm.host, destination);
  if (base_out != nullptr) *base_out = base;
  if (!surface_->host_usable(vm.host) || !surface_->host_usable(destination)) {
    return std::numeric_limits<double>::infinity();
  }
  // With no host—host link, src != dst guarantees every path has >= 2
  // links, whose first (last) is incident to src (dst). Nonnegative
  // left-folded sums are monotone under rounding, so the accumulated
  // transmission S_n satisfies S_n >= fl(t_first + t_last) >=
  // fl(min_src + min_dst), hence fl(base + S_n) >= fl(base + fl(...)).
  if (hosts_adjacent_) return base;
  const double cap = static_cast<double>(vm.capacity);
  const double src_term = surface_->min_incident_term(vm.host, cap, params_.delta, params_.eta);
  const double dst_term =
      surface_->min_incident_term(destination, cap, params_.delta, params_.eta);
  return base + (src_term + dst_term);
}

bool MigrationCostModel::provably_infeasible(wl::VmId vm_id, topo::NodeId destination) const {
  const wl::VirtualMachine& vm = deployment_->vm(vm_id);
  if (destination == vm.host) return true;  // one-node path never feasible
  return !surface_->host_usable(vm.host) || !surface_->host_usable(destination);
}

double MigrationCostModel::path_bottleneck_bandwidth(wl::VmId vm,
                                                     topo::NodeId destination) const {
  const wl::VirtualMachine& m = deployment_->vm(vm);
  const auto path = shortest_path(m.host, destination);
  if (path.size() < 2) return 0.0;
  double bottleneck = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const topo::LinkId link = topo_->link_between(path[i], path[i + 1]);
    const double capacity = topo_->link(link).capacity_gbps;
    double available = capacity;
    if (shares_ != nullptr) {
      available = std::max(shares_->available_bandwidth(*topo_, link),
                           params_.management_reserve_fraction * capacity);
    }
    bottleneck = std::min(bottleneck, std::min(available, params_.request_gbps));
  }
  return bottleneck;
}

double MigrationCostModel::total_cost(wl::VmId vm, topo::NodeId destination) const {
  const CostBreakdown breakdown = cost(vm, destination);
  return breakdown.feasible ? breakdown.total() : std::numeric_limits<double>::infinity();
}

}  // namespace sheriff::mig
