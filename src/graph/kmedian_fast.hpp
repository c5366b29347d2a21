#pragma once
// Fast swap-based k-median (Resende & Werneck-style delta evaluation).
//
// The reference Alg. 5 local search (kmedian.hpp) re-evaluates
// kmedian_cost from scratch for every candidate swap — O(k·|F|·|C|·k) per
// improvement step for p = 1. The classic fast formulation keeps, per
// client, the distance to its nearest and second-nearest open median; with
// that bookkeeping the gain of every single swap ⟨close r, open f⟩ is
//
//   gain(r, f) = gain_add(f) − loss(r, f)
//   gain_add(f) = Σ_c max(0, d1(c) − d(c, f))
//   loss(r, f)  = Σ_{c: nearest(c)=r, d(c,f) ≥ d1(c)} (min(d2(c), d(c,f)) − d1(c))
//
// so one sweep over all k·(|F|−k) swaps costs O(|F|·(|C|+k)) — each
// candidate facility f needs one pass over the clients plus a k-sized
// reduction. A sweep is one serial pass over the candidate facilities in
// instance order, on scratch allocated once per solve: a k=16 Fat-Tree plan
// reads at most ~16k distances per sweep, too few to repay a thread
// dispatch.
//
// Swap sizes p ≥ 2 only matter as a convergence check: the 3 + 2/p
// analysis of Arya et al. needs that *no* swap of size ≤ p improves the
// final solution. Once the fast p=1 sweeps stall, multi_swap_scan walks
// every swap of size 2..p in the reference order, but prices only the
// candidates a per-out-combination lower bound cannot rule out (DESIGN.md
// §9); an accepted multi-swap resumes the p=1 sweeps. Accepted swaps,
// costs and evaluation counts equal the reference scan's bit for bit.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/kmedian.hpp"

namespace sheriff::graph {

struct FastKMedianOptions {
  std::size_t p = 1;                   ///< Alg. 5 swap size (≥2 adds multi_swap_scan)
  double min_relative_gain = 1e-9;     ///< same improvement threshold as the reference
};

/// Per-client nearest / second-nearest open-median bookkeeping plus the
/// connection cost, repaired incrementally after each accepted swap.
class KMedianState {
 public:
  /// `medians` are facility ids (positions in the distance matrix).
  KMedianState(const KMedianInstance& instance, std::vector<std::size_t> medians);

  /// Rebuilds all bookkeeping for a new median set (used when the p ≥ 2
  /// convergence check accepts a multi-swap).
  void reset(std::vector<std::size_t> medians);

  [[nodiscard]] double cost() const noexcept { return cost_; }
  [[nodiscard]] const std::vector<std::size_t>& open() const noexcept { return open_; }
  [[nodiscard]] bool is_open(std::size_t facility) const;

  /// Closes the median at `position` and opens `facility` there, repairing
  /// the per-client bookkeeping incrementally: clients whose nearest or
  /// second-nearest lived at `position` rescan the open set (O(k)), every
  /// other client only compares against the new facility (O(1)). The cost
  /// is re-summed over the repaired d1 in fixed client order, so it stays
  /// bitwise equal to a from-scratch kmedian_cost of the same median set.
  void apply_swap(std::size_t position, std::size_t facility);

  /// Distance from client index `ci` (into instance.clients) to its
  /// nearest / second-nearest open median. Test hooks.
  [[nodiscard]] double nearest_distance(std::size_t ci) const { return d1_[ci]; }
  [[nodiscard]] double second_distance(std::size_t ci) const { return d2_[ci]; }
  /// Median slot (position in open()) serving client `ci`.
  [[nodiscard]] std::size_t nearest_position(std::size_t ci) const { return m1_[ci]; }

 private:
  friend KMedianSolution fast_kmedian(const KMedianInstance&, const FastKMedianOptions&);

  void rebuild_client(std::size_t ci);
  void recompute_cost();

  const KMedianInstance* instance_;
  std::vector<std::size_t> open_;       ///< facility id per median slot
  std::vector<char> open_mask_;         ///< by facility id (matrix index)
  std::vector<double> d1_;              ///< per client: nearest open distance
  std::vector<double> d2_;              ///< per client: second-nearest distance
  std::vector<std::uint32_t> m1_;       ///< per client: slot of the nearest
  std::vector<std::uint32_t> m2_;       ///< per client: slot of the second
  double cost_ = 0.0;
};

/// The convergence check over swap sizes 2..min(options.p, k), from the
/// state's median set: equivalent to
/// detail::reference_swap_scan(instance, 2, options.p, ε, sol) on the same
/// medians — same accepted candidate (applied to `state` via reset), same
/// bitwise cost, same sol.evaluations and hit_evaluation_cap, including
/// where KMedianInstance::max_evaluations stops it. Returns true when a
/// multi-swap was accepted. Requires finite, non-negative distances.
bool multi_swap_scan(const KMedianInstance& instance, KMedianState& state, KMedianSolution& sol,
                     const FastKMedianOptions& options);

/// Delta-evaluated local search. Each p = 1 sweep applies the first
/// improving swap in the reference solver's scan order (median slot major,
/// then facilities in instance order), so the accepted-swap trajectory —
/// and therefore the final median set — is identical to
/// local_search_kmedian(instance, 1); only the work to find each swap
/// shrinks. Instances with an unreachable client/facility pair
/// (possible on a partitioned fabric) fall back to the reference solver,
/// whose ∞-cost comparisons handle them. Honors
/// KMedianInstance::max_evaluations at sweep granularity in the p=1 phase:
/// it may overshoot the cap by at most one sweep (k·(|F|−k) candidates).
/// The multi-swap phase stops exactly at the cap.
KMedianSolution fast_kmedian(const KMedianInstance& instance,
                             const FastKMedianOptions& options = {});

}  // namespace sheriff::graph
