#include "net/routing.hpp"

#include <algorithm>
#include <iterator>

#include "common/require.hpp"
#include "graph/dijkstra.hpp"
#include "obs/registry.hpp"

namespace sheriff::net {

namespace {

/// Cheap integer mix for deterministic ECMP choices.
std::uint32_t mix(std::uint32_t x) noexcept {
  x ^= x >> 16;
  x *= 0x7feb352dU;
  x ^= x >> 15;
  x *= 0x846ca68bU;
  x ^= x >> 16;
  return x;
}

/// Bound on cached shortest-path trees before a wholesale clear: enough
/// for every host of the biggest bench fabrics plus reroute variants,
/// small enough to bound memory on degenerate query streams.
constexpr std::size_t kMaxCachedTrees = 4096;
/// Dropped trees kept for reuse by later cache misses: a BFS into a used
/// tree skips the per-vertex allocations, about 3x cheaper on k=16.
constexpr std::size_t kMaxSpareTrees = 16;
/// Flow ids above this skip the path cache (keeps the id-indexed table
/// dense; engine flow tables are far below it).
constexpr std::size_t kMaxPathCacheFlows = 1u << 20;
/// Blocked-query results retained per flow (FIFO): reroute probes cycle
/// through at most a handful of hot switches per flow.
constexpr std::size_t kMaxBlockedEntriesPerFlow = 4;

}  // namespace

bool walk_ecmp(const graph::ShortestPathTree& tree, Flow& flow, std::size_t node_count) {
  if (tree.distance[flow.dst_host] == graph::kInfiniteDistance) return false;
  std::vector<topo::NodeId> reverse_path{flow.dst_host};
  topo::NodeId cur = flow.dst_host;
  std::uint32_t salt = mix(flow.id * 0x9e3779b9U + 1U);
  while (cur != flow.src_host) {
    const auto& parents = tree.parents[cur];
    SHERIFF_REQUIRE(!parents.empty(), "broken shortest path tree");
    salt = mix(salt + static_cast<std::uint32_t>(reverse_path.size()));
    cur = parents[salt % parents.size()];
    reverse_path.push_back(cur);
    SHERIFF_REQUIRE(reverse_path.size() <= node_count, "routing loop detected");
  }
  flow.path.assign(reverse_path.rbegin(), reverse_path.rend());
  return true;
}

namespace {

/// walk_ecmp on a tree rooted at a single-homed source's sole neighbor
/// `via` instead of the source itself. With unit hop weights every vertex
/// v != src satisfies d_src(v) = 1 + d_via(v) *exactly* (integers in FP),
/// so the tight-predecessor sets, the parent-list build order (the heap
/// ties on (distance, vertex)), and the salt sequence along the shared
/// segment are identical to the src-rooted tree's; the src-rooted walk's
/// final via→src step draws a salt but has exactly one parent, so the
/// deterministic append below reproduces it bit for bit.
bool walk_ecmp_via(const graph::ShortestPathTree& tree, Flow& flow, topo::NodeId via,
                   std::size_t node_count) {
  if (tree.distance[flow.dst_host] == graph::kInfiniteDistance) return false;
  std::vector<topo::NodeId> reverse_path{flow.dst_host};
  topo::NodeId cur = flow.dst_host;
  std::uint32_t salt = mix(flow.id * 0x9e3779b9U + 1U);
  while (cur != via) {
    const auto& parents = tree.parents[cur];
    SHERIFF_REQUIRE(!parents.empty(), "broken shortest path tree");
    salt = mix(salt + static_cast<std::uint32_t>(reverse_path.size()));
    cur = parents[salt % parents.size()];
    reverse_path.push_back(cur);
    SHERIFF_REQUIRE(reverse_path.size() <= node_count, "routing loop detected");
  }
  reverse_path.push_back(flow.src_host);
  flow.path.assign(reverse_path.rbegin(), reverse_path.rend());
  return true;
}

}  // namespace

bool Flow::transits(topo::NodeId node) const noexcept {
  if (path.size() < 3) return false;
  return std::find(path.begin() + 1, path.end() - 1, node) != path.end() - 1;
}

Router::Router(const topo::Topology& topo)
    : topo_(&topo),
      hop_graph_(topo.wired_graph(topo::EdgeWeight::kHops)),
      link_in_graph_(topo.link_count(), true) {}

void Router::apply_liveness(const topo::LivenessMask* liveness) {
  liveness_ = liveness;
  rebuild();
}

Router::LivenessDelta Router::refresh_liveness() {
  if (liveness_ == nullptr || liveness_->version() == liveness_version_) return {};
  liveness_version_ = liveness_->version();
  // Diff the graph's links against the mask and patch the hop graph in
  // place; the edge lists drive the tree repair below.
  removed_links_.clear();
  std::vector<graph::VertexPair> removed;
  std::vector<graph::VertexPair> added;
  for (topo::LinkId l = 0; l < topo_->link_count(); ++l) {
    const bool usable = liveness_->link_usable(*topo_, l);
    if (usable == link_in_graph_[l]) continue;
    link_in_graph_[l] = usable;
    const topo::Link& link = topo_->link(l);
    if (usable) {
      hop_graph_.add_edge(link.a, link.b, 1.0);
      added.emplace_back(link.a, link.b);
    } else {
      hop_graph_.remove_edge(link.a, link.b);
      removed.emplace_back(link.a, link.b);
      removed_links_.push_back(l);
    }
  }
  relabel_components();
  repair_caches(removed, added);
  return {true, removed_links_};
}

void Router::clear_caches() const {
  std::scoped_lock lock(cache_mutex_);
  if (tree_cache_entries_ > 0 || !path_cache_.empty()) ++cache_stats_.evictions;
  tree_cache_.clear();
  tree_cache_entries_ = 0;
  path_cache_.clear();
  spare_trees_.clear();
}

void Router::repair_caches(std::span<const graph::VertexPair> removed,
                           std::span<const graph::VertexPair> added) {
  std::scoped_lock lock(cache_mutex_);
  for (FlowPathSlot& slot : path_cache_) {
    slot.plain.src = topo::kInvalidNode;
    for (PathEntry& entry : slot.blocked) entry.src = topo::kInvalidNode;
  }
  // Trees nobody asked for since the last refresh are dropped rather than
  // repaired: blocked reroute trees are mostly one-shot, and keeping them
  // all would let them pile up across fault rounds.
  const std::vector<bool> no_blocks;
  std::vector<bool> blocked_mask;
  for (auto it = tree_cache_.begin(); it != tree_cache_.end();) {
    const topo::NodeId root = it->first;
    const bool root_up = liveness_->node_up(root);
    auto& slots = it->second;
    std::size_t kept = 0;
    for (TreeSlot& slot : slots) {
      if (!slot.queried || !root_up) {
        ++cache_stats_.tree_drops;
        --tree_cache_entries_;
        if (spare_trees_.size() < kMaxSpareTrees) spare_trees_.push_back(std::move(slot.tree));
        continue;
      }
      if (!slot.blocked.empty()) {
        blocked_mask.assign(topo_->node_count(), false);
        for (topo::NodeId b : slot.blocked) blocked_mask[b] = true;
      }
      graph::repair_tree(hop_graph_, root, slot.blocked.empty() ? no_blocks : blocked_mask,
                         removed, added, *slot.tree, repair_scratch_);
      ++cache_stats_.tree_repairs;
      slot.queried = false;
      if (&slots[kept] != &slot) slots[kept] = std::move(slot);
      ++kept;
    }
    slots.resize(kept);
    it = slots.empty() ? tree_cache_.erase(it) : std::next(it);
  }
}

void Router::rebuild() {
  clear_caches();
  removed_links_.clear();
  liveness_version_ = liveness_ != nullptr ? liveness_->version() : 0;
  if (liveness_ == nullptr || liveness_->all_up()) {
    hop_graph_ = topo_->wired_graph(topo::EdgeWeight::kHops);
    link_in_graph_.assign(topo_->link_count(), true);
  } else {
    hop_graph_ = topo_->wired_graph(topo::EdgeWeight::kHops, *liveness_);
    for (topo::LinkId l = 0; l < topo_->link_count(); ++l) {
      link_in_graph_[l] = liveness_->link_usable(*topo_, l);
    }
  }
  relabel_components();
}

void Router::relabel_components() {
  if (liveness_ == nullptr || liveness_->all_up()) {
    component_.clear();
    return;
  }
  // Label live components by BFS so reachable() is an O(1) compare.
  component_.assign(topo_->node_count(), 0);
  std::uint32_t next_label = 0;
  std::vector<topo::NodeId> frontier;
  for (topo::NodeId start = 0; start < topo_->node_count(); ++start) {
    if (component_[start] != 0 || !liveness_->node_up(start)) continue;
    ++next_label;
    component_[start] = next_label;
    frontier.assign(1, start);
    while (!frontier.empty()) {
      const topo::NodeId cur = frontier.back();
      frontier.pop_back();
      for (const auto& edge : hop_graph_.neighbors(cur)) {
        if (component_[edge.to] == 0) {
          component_[edge.to] = next_label;
          frontier.push_back(edge.to);
        }
      }
    }
  }
}

bool Router::node_live(topo::NodeId node) const {
  return liveness_ == nullptr || liveness_->node_up(node);
}

bool Router::reachable(topo::NodeId a, topo::NodeId b) const {
  if (!node_live(a) || !node_live(b)) return false;
  if (component_.empty()) return true;  // pristine fabric: connected by validate()
  return component_[a] == component_[b];
}

const graph::ShortestPathTree& Router::tree_for(topo::NodeId src,
                                                std::span<const topo::NodeId> blocked) const {
  std::vector<topo::NodeId> key(blocked.begin(), blocked.end());
  std::sort(key.begin(), key.end());
  std::unique_ptr<graph::ShortestPathTree> tree;
  {
    std::scoped_lock lock(cache_mutex_);
    const auto it = tree_cache_.find(src);
    if (it != tree_cache_.end()) {
      for (TreeSlot& slot : it->second) {
        if (slot.blocked == key) {
          ++cache_stats_.tree_hits;
          slot.queried = true;
          return *slot.tree;
        }
      }
    }
    ++cache_stats_.tree_misses;
    if (!spare_trees_.empty()) {
      tree = std::move(spare_trees_.back());
      spare_trees_.pop_back();
    }
  }

  // Compute outside the lock (two threads may race on the same key; the
  // loser's duplicate is kept too — harmless, both trees are identical).
  std::vector<bool> blocked_mask;
  if (!blocked.empty()) {
    blocked_mask.assign(topo_->node_count(), false);
    for (topo::NodeId b : blocked) blocked_mask[b] = true;
  }
  if (tree == nullptr) tree = std::make_unique<graph::ShortestPathTree>();
  graph::dijkstra_into(hop_graph_, src, blocked_mask, *tree);

  std::scoped_lock lock(cache_mutex_);
  if (tree_cache_entries_ >= kMaxCachedTrees) {
    ++cache_stats_.evictions;
    tree_cache_.clear();
    tree_cache_entries_ = 0;
  }
  auto& slots = tree_cache_[src];
  slots.push_back(TreeSlot{std::move(key), std::move(tree), true});
  ++tree_cache_entries_;
  return *slots.back().tree;
}

bool Router::route(Flow& flow, std::span<const topo::NodeId> blocked) const {
  SHERIFF_REQUIRE(flow.src_host < topo_->node_count() && flow.dst_host < topo_->node_count(),
                  "flow endpoints out of range");
  flow.path.clear();
  if (flow.src_host == flow.dst_host) return false;
  if (!reachable(flow.src_host, flow.dst_host)) return false;
  for (topo::NodeId b : blocked) {
    SHERIFF_REQUIRE(b != flow.src_host && b != flow.dst_host, "cannot block a flow endpoint");
  }

  // Resolved-path cache: the ECMP walk is a pure function of (flow id,
  // src, dst, blocked set) on a fixed live fabric, so a repeat query —
  // including the blocked probes FLOWREROUTE re-issues round over round,
  // and probes that found no path under the blocks — can return the
  // stored outcome outright. A hit is indistinguishable from a recompute.
  const bool path_cacheable = flow.id < kMaxPathCacheFlows;
  std::vector<topo::NodeId> blocked_key(blocked.begin(), blocked.end());
  std::sort(blocked_key.begin(), blocked_key.end());
  if (path_cacheable) {
    std::scoped_lock lock(cache_mutex_);
    if (flow.id < path_cache_.size()) {
      const FlowPathSlot& slot = path_cache_[flow.id];
      const PathEntry* found = nullptr;
      if (blocked_key.empty()) {
        if (slot.plain.src == flow.src_host && slot.plain.dst == flow.dst_host) {
          found = &slot.plain;
        }
      } else {
        for (const PathEntry& entry : slot.blocked) {
          if (entry.src == flow.src_host && entry.dst == flow.dst_host &&
              entry.blocked == blocked_key) {
            found = &entry;
            break;
          }
        }
      }
      if (found != nullptr) {
        ++cache_stats_.path_hits;
        flow.path = found->path;
        return found->ok;
      }
    }
    ++cache_stats_.path_misses;
  }

  // Single-homed sources (every fat-tree host) share their neighbor ToR's
  // tree: the walk is bit-identical (see walk_ecmp_via) and the tree cache
  // shrinks from one tree per querying host to one per ToR — the dominant
  // Dijkstra load of the routing phase.
  bool ok;
  const auto leaf = hop_graph_.neighbors(flow.src_host);
  if (leaf.size() == 1) {
    const topo::NodeId via = leaf[0].to;
    if (std::find(blocked.begin(), blocked.end(), via) != blocked.end()) {
      ok = false;  // the source's only egress is blocked: no path exists
    } else if (flow.dst_host == via) {
      flow.path.assign({flow.src_host, via});
      ok = true;
    } else {
      ok = walk_ecmp_via(tree_for(via, blocked), flow, via, topo_->node_count());
    }
  } else {
    ok = walk_ecmp(tree_for(flow.src_host, blocked), flow, topo_->node_count());
  }

  if (path_cacheable) {
    std::scoped_lock lock(cache_mutex_);
    if (path_cache_.size() <= flow.id) path_cache_.resize(flow.id + 1);
    FlowPathSlot& slot = path_cache_[flow.id];
    PathEntry* entry;
    if (blocked_key.empty()) {
      entry = &slot.plain;
    } else {
      // Small FIFO per flow: reroutes probe at most a few hot switches.
      // Entries a liveness refresh invalidated are older than every live
      // one, so they are evicted first.
      if (slot.blocked.size() >= kMaxBlockedEntriesPerFlow) {
        slot.blocked.erase(slot.blocked.begin());
      }
      entry = &slot.blocked.emplace_back();
      entry->blocked = std::move(blocked_key);
    }
    entry->src = flow.src_host;
    entry->dst = flow.dst_host;
    entry->ok = ok;
    entry->path = flow.path;
  }
  return ok;
}

std::size_t Router::route_all(std::span<Flow> flows) const {
  std::size_t routed = 0;
  for (Flow& f : flows) {
    if (route(f)) ++routed;
  }
  return routed;
}

std::size_t Router::shortest_path_count(topo::NodeId src, topo::NodeId dst) const {
  return tree_for(src, {}).path_count(dst);
}

void Router::publish_metrics(obs::MetricRegistry& registry) const {
  registry.gauge("router.tree_hits").set(static_cast<double>(cache_stats_.tree_hits));
  registry.gauge("router.tree_misses").set(static_cast<double>(cache_stats_.tree_misses));
  registry.gauge("router.path_hits").set(static_cast<double>(cache_stats_.path_hits));
  registry.gauge("router.path_misses").set(static_cast<double>(cache_stats_.path_misses));
  registry.gauge("router.evictions").set(static_cast<double>(cache_stats_.evictions));
  registry.gauge("router.tree_repairs").set(static_cast<double>(cache_stats_.tree_repairs));
  registry.gauge("router.tree_drops").set(static_cast<double>(cache_stats_.tree_drops));
}

}  // namespace sheriff::net
