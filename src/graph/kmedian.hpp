#pragma once
// k-median solvers. Sec. V-A reduces VMMIGRATION to k-median on the
// Floyd–Warshall-completed rack graph T'; Alg. 5 is the Arya et al. local
// search with swap size p, whose approximation ratio is 3 + 2/p. We
// implement that local search (for any p), plus an exhaustive solver used
// as ground truth by the ratio experiments and property tests.

#include <cstddef>
#include <functional>
#include <vector>

#include "graph/graph.hpp"

namespace sheriff::graph {

struct KMedianInstance {
  const DistanceMatrix* distance = nullptr;  ///< metric over all points
  std::vector<std::size_t> clients;          ///< demand points (source ToRs)
  std::vector<std::size_t> facilities;       ///< allowed medians (all ToRs)
  std::size_t k = 1;                         ///< number of medians to open
  /// Safety bound on candidate evaluations (0 = unlimited). Local search on
  /// a pathological metric can take a long improvement chain; once the
  /// budget is spent the solver returns its current (still feasible, just
  /// not necessarily locally optimal) solution and flags the cap.
  std::size_t max_evaluations = 0;
};

struct KMedianSolution {
  std::vector<std::size_t> medians;   ///< chosen facility ids, size k
  double cost = 0.0;                  ///< sum over clients of distance to nearest median
  std::size_t evaluations = 0;        ///< candidate solutions examined (search-space metric)
  bool hit_evaluation_cap = false;    ///< stopped early on KMedianInstance::max_evaluations
};

/// Connection cost of a given median set for the instance.
double kmedian_cost(const KMedianInstance& instance, const std::vector<std::size_t>& medians);

namespace detail {

/// Shared between the reference and fast solvers.
void validate(const KMedianInstance& instance);

/// Enumerates all index-combinations of size `p` from [0, n) in
/// lexicographic order; invokes fn with each. Returns false if fn requested
/// a stop (found improvement). Both solvers scan candidates in exactly this
/// order — the differential tests rely on matching trajectories.
bool for_each_combination(std::size_t n, std::size_t p,
                          const std::function<bool(const std::vector<std::size_t>&)>& fn);

/// One first-improvement pass of the reference Alg. 5 scan over swap sizes
/// min_swap..max_swap (clamped to k), starting from `sol.medians` with
/// connection cost `sol.cost`. Candidates run out-slot combination major,
/// then outside-facility combinations, both lexicographic, and each is
/// priced from scratch with kmedian_cost. The first candidate below
/// sol.cost·(1 − min_relative_gain) replaces sol.medians (slot order kept)
/// and sol.cost, and the call returns true. Every candidate advances
/// sol.evaluations; KMedianInstance::max_evaluations stops the pass at
/// exactly the candidate it names and sets sol.hit_evaluation_cap.
/// local_search_kmedian repeats this pass from swap size 1; the tests use
/// it from swap size 2 as the oracle of the fast convergence scan.
bool reference_swap_scan(const KMedianInstance& instance, std::size_t min_swap,
                         std::size_t max_swap, double min_relative_gain, KMedianSolution& sol);

}  // namespace detail

/// Alg. 5: local search with swaps of up to `p` facilities at a time,
/// first-improvement, deterministic initial solution (first k facilities).
/// `min_relative_gain` is the improvement threshold that makes the
/// 3 + 2/p guarantee polynomial-time (Arya et al. use cost reductions of at
/// least cost/poly; any positive epsilon preserves the ratio up to (1+eps)).
KMedianSolution local_search_kmedian(const KMedianInstance& instance, std::size_t p,
                                     double min_relative_gain = 1e-9);

/// Exhaustive optimum over all C(|facilities|, k) subsets. Test-scale only.
KMedianSolution exhaustive_kmedian(const KMedianInstance& instance);

}  // namespace sheriff::graph
