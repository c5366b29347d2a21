#include "graph/dijkstra.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/require.hpp"

namespace sheriff::graph {

namespace {

/// Distances closer than this are ties (equal-cost parents).
constexpr double kTieTolerance = 1e-12;

/// Opens a new repair epoch: resizes (and clears) the marks only when the
/// graph size changed or the epoch counter wrapped.
void begin_repair(TreeRepairScratch& s, std::size_t n) {
  if (s.queued.size() != n || ++s.epoch == 0) {
    for (auto* marks : {&s.queued, &s.affected, &s.moved, &s.touched}) marks->assign(n, 0);
    s.old_distance.resize(n);
    s.epoch = 1;
  }
  s.affected_list.clear();
  s.moved_list.clear();
  s.touched_list.clear();
  s.heap.clear();
}

}  // namespace

std::vector<Vertex> ShortestPathTree::path_to(Vertex target) const {
  std::vector<Vertex> out;
  if (target >= distance.size() || distance[target] == kInfiniteDistance) return out;
  Vertex cur = target;
  out.push_back(cur);
  while (!parents[cur].empty()) {
    cur = *std::min_element(parents[cur].begin(), parents[cur].end());
    out.push_back(cur);
    SHERIFF_REQUIRE(out.size() <= distance.size(), "parent cycle detected");
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::size_t ShortestPathTree::path_count(Vertex target, std::size_t cap) const {
  if (target >= distance.size() || distance[target] == kInfiniteDistance) return 0;
  // Memoized DFS over the (acyclic) tight-predecessor DAG.
  std::vector<std::size_t> memo(distance.size(), 0);
  std::vector<bool> done(distance.size(), false);
  // Iterative post-order to avoid recursion depth issues on big fabrics.
  std::vector<Vertex> stack{target};
  while (!stack.empty()) {
    const Vertex v = stack.back();
    if (done[v]) {
      stack.pop_back();
      continue;
    }
    if (parents[v].empty()) {
      memo[v] = 1;  // the source
      done[v] = true;
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (Vertex p : parents[v]) {
      if (!done[p]) {
        stack.push_back(p);
        ready = false;
      }
    }
    if (!ready) continue;
    std::size_t total = 0;
    for (Vertex p : parents[v]) total = std::min(cap, total + memo[p]);
    memo[v] = total;
    done[v] = true;
    stack.pop_back();
  }
  return memo[target];
}

ShortestPathTree dijkstra(const Graph& g, Vertex source, const std::vector<bool>& blocked) {
  ShortestPathTree tree;
  dijkstra_into(g, source, blocked, tree);
  return tree;
}

void dijkstra_into(const Graph& g, Vertex source, const std::vector<bool>& blocked,
                   ShortestPathTree& tree) {
  const std::size_t n = g.vertex_count();
  SHERIFF_REQUIRE(source < n, "source out of range");
  SHERIFF_REQUIRE(blocked.empty() || blocked.size() == n, "blocked mask size mismatch");
  tree.distance.assign(n, kInfiniteDistance);
  // Clear the per-vertex parent lists in place: on reuse this keeps their
  // heap blocks, which is the point of the _into variant.
  if (tree.parents.size() == n) {
    for (auto& p : tree.parents) p.clear();
  } else {
    tree.parents.assign(n, {});
  }

  const auto is_blocked = [&](Vertex v) { return !blocked.empty() && blocked[v]; };
  if (is_blocked(source)) return;

  // Level-synchronous fast path for uniform-weight graphs (every DCN
  // fabric's hop-distance graph). It replays the heap loop's exact
  // relaxation sequence, so distances, parent sets, and parent order are
  // all bit-identical to the general path below:
  //  - the heap orders (distance, vertex) lexicographically, and under one
  //    shared weight w every vertex at hop level d carries the same
  //    distance S_d (the same d-fold left sum of w), so pops proceed level
  //    by level, ascending vertex id within a level — which is precisely a
  //    BFS frontier sorted ascending;
  //  - ties never re-push, and strict improvements happen only on first
  //    discovery, so the heap holds no duplicates to replicate;
  //  - consecutive levels are separated by ~w > the tie tolerance (guarded
  //    below, with vertex_count bounding the level index so the running
  //    sum always strictly grows), so the tolerance branches fire exactly
  //    as they do in the heap loop.
  if (g.uniform_weights() && g.edge_count() > 0 && g.uniform_weight() > 1e-9 &&
      n < (std::size_t{1} << 26)) {
    tree.distance[source] = 0.0;
    std::vector<Vertex> frontier{source};
    std::vector<Vertex> next;
    while (!frontier.empty()) {
      for (const Vertex u : frontier) {
        const double d = tree.distance[u];
        for (const Edge& e : g.neighbors(u)) {
          if (is_blocked(e.to)) continue;
          const double candidate = d + e.weight;
          if (candidate + kTieTolerance < tree.distance[e.to]) {
            tree.distance[e.to] = candidate;
            tree.parents[e.to].assign(1, u);
            next.push_back(e.to);
          } else if (std::abs(candidate - tree.distance[e.to]) <= kTieTolerance) {
            auto& ps = tree.parents[e.to];
            if (std::find(ps.begin(), ps.end(), u) == ps.end()) ps.push_back(u);
          }
        }
      }
      std::sort(next.begin(), next.end());
      frontier.swap(next);
      next.clear();
    }
    return;
  }

  using Item = std::pair<double, Vertex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  tree.distance[source] = 0.0;
  heap.emplace(0.0, source);

  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > tree.distance[u] + kTieTolerance) continue;
    for (const Edge& e : g.neighbors(u)) {
      if (is_blocked(e.to)) continue;
      const double candidate = d + e.weight;
      if (candidate + kTieTolerance < tree.distance[e.to]) {
        tree.distance[e.to] = candidate;
        tree.parents[e.to].assign(1, u);
        heap.emplace(candidate, e.to);
      } else if (std::abs(candidate - tree.distance[e.to]) <= kTieTolerance) {
        auto& ps = tree.parents[e.to];
        if (std::find(ps.begin(), ps.end(), u) == ps.end()) ps.push_back(u);
      }
    }
  }
}

void repair_tree(const Graph& g, Vertex source, const std::vector<bool>& blocked,
                 std::span<const VertexPair> removed, std::span<const VertexPair> added,
                 ShortestPathTree& tree, TreeRepairScratch& s) {
  const std::size_t n = g.vertex_count();
  SHERIFF_REQUIRE(source < n && tree.distance.size() == n && tree.parents.size() == n,
                  "tree does not match the graph");
  SHERIFF_REQUIRE(blocked.empty() || blocked.size() == n, "blocked mask size mismatch");
  SHERIFF_REQUIRE(g.uniform_weights(), "tree repair needs a uniform-weight graph");
  const auto is_blocked = [&](Vertex v) { return !blocked.empty() && blocked[v]; };
  if (is_blocked(source)) return;  // an empty tree stays empty

  begin_repair(s, n);
  const std::uint32_t epoch = s.epoch;
  const double w = g.uniform_weight();
  std::vector<double>& dist = tree.distance;
  // Blocked nodes sit at infinity in every tree dijkstra_into builds, and
  // relax() below never labels one, so the distance tests exclude them.
  // u sits one level above v (the tie rule of dijkstra_into).
  const auto tight = [&](Vertex u, Vertex v) {
    return dist[u] != kInfiniteDistance && dist[v] != kInfiniteDistance &&
           std::abs(dist[u] + w - dist[v]) <= kTieTolerance;
  };
  const auto push = [&](double d, Vertex v) {
    s.heap.emplace_back(d, v);
    std::push_heap(s.heap.begin(), s.heap.end(), std::greater<>{});
  };
  const auto pop = [&] {
    std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<>{});
    const auto top = s.heap.back();
    s.heap.pop_back();
    return top;
  };

  // Phase 1: the affected set, in ascending old level, so every node one
  // level up is decided before a candidate is judged. Only children of a
  // removed tree edge or of an affected node can lose their last parent.
  const auto enqueue = [&](Vertex v) {
    if (s.queued[v] == epoch) return;
    s.queued[v] = epoch;
    push(dist[v], v);
  };
  for (const auto& [a, b] : removed) {
    if (tight(a, b)) enqueue(b);
    if (tight(b, a)) enqueue(a);
  }
  while (!s.heap.empty()) {
    const Vertex v = pop().second;
    const auto edges = g.neighbors(v);
    const bool supported = std::any_of(edges.begin(), edges.end(), [&](const Edge& e) {
      return s.affected[e.to] != epoch && tight(e.to, v);
    });
    if (supported) continue;
    s.affected[v] = epoch;
    s.affected_list.push_back(v);
    for (const Edge& e : edges) {
      if (tight(v, e.to)) enqueue(e.to);
    }
  }

  // Phases 2 + 3: unaffected nodes keep a realizable distance (their old
  // one), affected nodes restart from infinity. Every edge that can still
  // shorten a label then runs out of the heap, exactly as in Dijkstra: an
  // affected node's edges from unaffected neighbours (its seed) and the
  // added edges. Old edges between unaffected nodes are never tense.
  const auto move_to = [&](Vertex v, double d) {
    if (s.moved[v] != epoch) {
      s.moved[v] = epoch;
      s.old_distance[v] = dist[v];
      s.moved_list.push_back(v);
    }
    dist[v] = d;
  };
  const auto relax = [&](Vertex u, Vertex x) {
    if (dist[u] == kInfiniteDistance || is_blocked(x)) return;
    const double candidate = dist[u] + w;
    if (candidate + kTieTolerance < dist[x]) {
      move_to(x, candidate);
      push(candidate, x);
    }
  };
  for (const Vertex v : s.affected_list) move_to(v, kInfiniteDistance);
  for (const Vertex v : s.affected_list) {
    for (const Edge& e : g.neighbors(v)) relax(e.to, v);
  }
  for (const auto& [a, b] : added) {
    relax(a, b);
    relax(b, a);
  }
  while (!s.heap.empty()) {
    const auto [d, u] = pop();
    if (d > dist[u] + kTieTolerance) continue;  // stale entry
    for (const Edge& e : g.neighbors(u)) relax(u, e.to);
  }

  // Phase 4: canonical parent lists where an input to them changed — the
  // node's own distance, a neighbour's distance, or its adjacency.
  const auto touch = [&](Vertex v) {
    if (s.touched[v] == epoch) return;
    s.touched[v] = epoch;
    s.touched_list.push_back(v);
  };
  for (const Vertex v : s.moved_list) {
    if (dist[v] == s.old_distance[v]) continue;
    touch(v);
    for (const Edge& e : g.neighbors(v)) touch(e.to);
  }
  for (const auto& [a, b] : removed) {
    touch(a);
    touch(b);
  }
  for (const auto& [a, b] : added) {
    touch(a);
    touch(b);
  }
  for (const Vertex v : s.touched_list) {
    auto& ps = tree.parents[v];
    ps.clear();
    if (v == source || dist[v] == kInfiniteDistance) continue;
    for (const Edge& e : g.neighbors(v)) {
      if (tight(e.to, v)) ps.push_back(e.to);
    }
    std::sort(ps.begin(), ps.end());
    ps.erase(std::unique(ps.begin(), ps.end()), ps.end());
  }
}

}  // namespace sheriff::graph
