#pragma once
// Single-source shortest paths. The flow router uses Dijkstra (with ECMP
// tie tracking) instead of all-pairs Floyd–Warshall when it only needs the
// paths out of one host.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace sheriff::graph {

struct ShortestPathTree {
  std::vector<double> distance;               ///< from the source
  std::vector<std::vector<Vertex>> parents;   ///< all tight predecessors (ECMP)

  /// One shortest path source→target (deterministic: lowest-id parents);
  /// empty if unreachable.
  [[nodiscard]] std::vector<Vertex> path_to(Vertex target) const;

  /// Number of distinct shortest paths to `target` (capped at `cap` to
  /// avoid overflow on highly redundant fabrics).
  [[nodiscard]] std::size_t path_count(Vertex target, std::size_t cap = 1'000'000) const;
};

/// Dijkstra from `source`; `blocked[v] == true` removes v from the graph
/// (used by FLOWREROUTE to route around hot switches). `blocked` may be
/// empty meaning nothing is blocked.
ShortestPathTree dijkstra(const Graph& g, Vertex source, const std::vector<bool>& blocked = {});

/// Same, writing into `out` so repeated runs (the router's cache-miss path)
/// reuse the tree's allocations instead of rebuilding them per call.
void dijkstra_into(const Graph& g, Vertex source, const std::vector<bool>& blocked,
                   ShortestPathTree& out);

/// An undirected edge by its endpoints.
using VertexPair = std::pair<Vertex, Vertex>;

/// Reusable scratch for repair_tree: epoch-stamped per-vertex marks, so a
/// repair costs what it touches instead of O(V) clears. Holds no results;
/// any scratch works for any tree.
struct TreeRepairScratch {
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> queued;    ///< phase-1 candidate already queued
  std::vector<std::uint32_t> affected;  ///< lost every shortest-path parent
  std::vector<std::uint32_t> moved;     ///< distance written this repair
  std::vector<std::uint32_t> touched;   ///< parent list to recompute
  std::vector<double> old_distance;     ///< valid where moved == epoch
  std::vector<Vertex> affected_list;
  std::vector<Vertex> moved_list;
  std::vector<Vertex> touched_list;
  std::vector<std::pair<double, Vertex>> heap;  ///< min-heap via std::greater
};

/// Repairs, in place, a tree that dijkstra_into built from `source` under
/// `blocked` on a uniform-weight graph, after the graph changed into `g`
/// by removing the `removed` edges and adding the `added` ones. The result
/// is bit-identical to dijkstra_into(g, source, blocked, tree): on a
/// uniform-weight graph that tree is canonical — distance is the hop level
/// (the same left-folded sum of the weight) and parents[v] lists every
/// unblocked neighbour one level up, in ascending id order — whatever the
/// order of the adjacency lists. The work is proportional to the part of
/// the tree the change touches:
///  1. affected set: level by level from the removed edges, a node is
///     affected when no unaffected unblocked neighbour sits one level up;
///  2. affected nodes are re-seeded from their unaffected neighbours;
///  3. seeds and distance decreases across the added edges propagate in
///     one heap pass (nodes nothing reaches become unreachable);
///  4. parent lists are recomputed only for changed nodes, their
///     neighbours, and the endpoints of changed edges.
/// `g` must have uniform weights (or no edges).
void repair_tree(const Graph& g, Vertex source, const std::vector<bool>& blocked,
                 std::span<const VertexPair> removed, std::span<const VertexPair> added,
                 ShortestPathTree& tree, TreeRepairScratch& scratch);

}  // namespace sheriff::graph
