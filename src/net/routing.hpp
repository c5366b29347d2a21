#pragma once
// Shortest-path routing with ECMP spreading. Paths are computed on the
// hop-weighted wired graph; among equal-cost parents the router picks
// deterministically by a per-flow hash, which spreads flows over the
// fabric the way ECMP hashing does.
//
// The router optionally carries a topo::LivenessMask: dead links/nodes are
// dropped from the hop graph and a per-node component labelling is
// recomputed (only when the mask's version changes — fault events are
// rare, routing queries are not), giving O(1) reachability checks while
// the fabric is degraded. A refresh diffs a per-link "usable" snapshot
// against the mask and patches the hop graph in place.
//
// Caching: routing queries repeat heavily — route_all shares sources
// across flows, FLOWREROUTE blocks the same hot switch for many flows, and
// migrations re-route a handful of flows per round on an unchanged fabric.
// The router therefore keeps (a) a shortest-path-tree cache keyed on
// (source, blocked set) and (b) a resolved-path cache keyed on the flow
// id, its endpoints, AND the sorted blocked set (the ECMP walk is a pure
// function of those on a fixed live fabric) — blocked reroute probes are
// the queries that actually repeat round over round, and failed probes
// (no path under the blocks) are cached too. A liveness refresh repairs
// every tree queried since the previous refresh in place
// (graph::repair_tree, bit-identical to a fresh build), drops the others
// and those whose root died (recycling their storage for later misses),
// and invalidates the resolved paths in place. Only cache overflow,
// set_cache_enabled and apply_liveness clear both caches wholesale.
// Disable via set_cache_enabled to get the naive one-Dijkstra-per-query
// behavior (the bench baseline).

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/dijkstra.hpp"
#include "net/flow.hpp"
#include "topology/liveness.hpp"
#include "topology/topology.hpp"

namespace sheriff::obs {
class MetricRegistry;
}

namespace sheriff::net {

struct RouterCacheStats {
  std::size_t tree_hits = 0;
  std::size_t tree_misses = 0;
  std::size_t path_hits = 0;
  std::size_t path_misses = 0;
  std::size_t evictions = 0;  ///< wholesale clears (overflow, set_cache_enabled, apply_liveness)
  std::size_t tree_repairs = 0;  ///< trees repaired across a liveness refresh
  std::size_t tree_drops = 0;    ///< trees dropped at a refresh (not queried since, or root died)
};

class Router {
 public:
  /// The topology must outlive the router.
  explicit Router(const topo::Topology& topo);

  /// Attaches (or detaches, with nullptr) a liveness mask; the mask must
  /// outlive the router. Triggers a hop-graph + reachability recompute.
  void apply_liveness(const topo::LivenessMask* liveness);

  /// What one refresh_liveness() call changed.
  struct LivenessDelta {
    bool refreshed = false;  ///< the mask moved since the last refresh
    /// Links that became unusable, ascending; valid until the next refresh.
    std::span<const topo::LinkId> removed;
    explicit operator bool() const noexcept { return refreshed; }
  };

  /// Re-checks the attached mask's version; if fault events happened since
  /// the last call, patches the hop graph, relabels components, and
  /// repairs the tree cache (see the header comment).
  LivenessDelta refresh_liveness();

  /// True when both nodes are up and connected through live links.
  [[nodiscard]] bool reachable(topo::NodeId a, topo::NodeId b) const;
  [[nodiscard]] bool node_live(topo::NodeId node) const;

  /// Routes `flow` (fills flow.path). `blocked` nodes are excluded — pass
  /// the hot switches when rerouting (FLOWREROUTE). Returns false when no
  /// path exists under the blocks (path left empty).
  bool route(Flow& flow, std::span<const topo::NodeId> blocked = {}) const;

  /// Routes every flow in place; returns the number successfully routed.
  std::size_t route_all(std::span<Flow> flows) const;

  /// Number of distinct shortest paths between two hosts (diagnostics).
  [[nodiscard]] std::size_t shortest_path_count(topo::NodeId src, topo::NodeId dst) const;

  /// Toggles the tree/path caches (enabled by default); disabling clears
  /// them, giving the naive recompute-every-query behavior.
  void set_cache_enabled(bool enabled);
  [[nodiscard]] bool cache_enabled() const noexcept { return cache_enabled_; }
  [[nodiscard]] const RouterCacheStats& cache_stats() const noexcept { return cache_stats_; }

  /// Publishes the cumulative cache stats as `router.*` gauges.
  void publish_metrics(obs::MetricRegistry& registry) const;

  /// Calls visit(source, sorted blocked set, tree) for every cached tree —
  /// lets the repair differential compare each one with a fresh build.
  template <class Visit>
  void for_each_cached_tree(Visit&& visit) const {
    std::scoped_lock lock(cache_mutex_);
    for (const auto& [source, slots] : tree_cache_) {
      for (const TreeSlot& slot : slots) {
        visit(source, std::span<const topo::NodeId>(slot.blocked), *slot.tree);
      }
    }
  }

 private:
  void rebuild();
  void relabel_components();
  void clear_caches() const;
  /// Repairs the trees queried since the last refresh for the given edge
  /// changes and drops the rest; invalidates every resolved path.
  void repair_caches(std::span<const graph::VertexPair> removed,
                     std::span<const graph::VertexPair> added);
  /// The shortest-path tree out of `src` under `blocked`, cached. The
  /// reference stays valid until the next liveness refresh (values are
  /// stable unique_ptrs, so concurrent readers survive rehashes).
  const graph::ShortestPathTree& tree_for(topo::NodeId src,
                                          std::span<const topo::NodeId> blocked) const;

  const topo::Topology* topo_;
  const topo::LivenessMask* liveness_ = nullptr;
  std::uint64_t liveness_version_ = 0;
  graph::Graph hop_graph_;
  std::vector<bool> link_in_graph_;       ///< per link: an edge of hop_graph_
  std::vector<topo::LinkId> removed_links_;  ///< last refresh's removals
  graph::TreeRepairScratch repair_scratch_;
  std::vector<std::uint32_t> component_;  ///< live-graph component label per node

  // --- caches (logically const; guarded for concurrent route() calls) ------
  struct TreeSlot {
    std::vector<topo::NodeId> blocked;  ///< sorted blocked set this tree was built under
    std::unique_ptr<graph::ShortestPathTree> tree;
    bool queried = true;  ///< looked up since the last liveness refresh
  };
  struct PathEntry {
    topo::NodeId src = topo::kInvalidNode;
    topo::NodeId dst = topo::kInvalidNode;
    bool ok = false;
    std::vector<topo::NodeId> blocked;  ///< sorted blocked set of the query
    std::vector<topo::NodeId> path;
  };
  /// Per-flow path-cache slot: the unblocked walk plus a small FIFO of
  /// blocked-query results (reroute probes repeat the same few hot
  /// switches; failed probes are cached as ok=false entries).
  struct FlowPathSlot {
    PathEntry plain;
    std::vector<PathEntry> blocked;
  };
  bool cache_enabled_ = true;
  mutable std::mutex cache_mutex_;
  mutable std::unordered_map<topo::NodeId, std::vector<TreeSlot>> tree_cache_;
  mutable std::size_t tree_cache_entries_ = 0;
  mutable std::vector<FlowPathSlot> path_cache_;  ///< indexed by FlowId
  /// Trees dropped at a refresh, kept (bounded) so later misses rebuild
  /// into their allocations instead of allocating a fresh tree.
  mutable std::vector<std::unique_ptr<graph::ShortestPathTree>> spare_trees_;
  mutable RouterCacheStats cache_stats_;
};

}  // namespace sheriff::net
