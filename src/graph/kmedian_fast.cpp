#include "graph/kmedian_fast.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/require.hpp"

namespace sheriff::graph {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// The single swap a delta sweep accepts.
struct SwapChoice {
  bool found = false;
  std::size_t position = 0;  ///< median slot to close
  std::size_t facility = 0;  ///< facility id to open
};

bool improves(double cost, double gain, double min_relative_gain) {
  // Mirror the reference acceptance test: candidate < cost · (1 − ε).
  return cost - gain < cost * (1.0 - min_relative_gain);
}

}  // namespace

KMedianState::KMedianState(const KMedianInstance& instance, std::vector<std::size_t> medians)
    : instance_(&instance) {
  open_mask_.assign(instance.distance->size(), 0);
  reset(std::move(medians));
}

void KMedianState::reset(std::vector<std::size_t> medians) {
  SHERIFF_REQUIRE(!medians.empty(), "median set must be non-empty");
  for (std::size_t f : open_) open_mask_[f] = 0;
  open_ = std::move(medians);
  for (std::size_t f : open_) {
    SHERIFF_REQUIRE(f < open_mask_.size(), "median out of range");
    open_mask_[f] = 1;
  }
  const std::size_t clients = instance_->clients.size();
  d1_.assign(clients, kInf);
  d2_.assign(clients, kInf);
  m1_.assign(clients, 0);
  m2_.assign(clients, 0);
  for (std::size_t ci = 0; ci < clients; ++ci) rebuild_client(ci);
  recompute_cost();
}

bool KMedianState::is_open(std::size_t facility) const {
  return facility < open_mask_.size() && open_mask_[facility] != 0;
}

void KMedianState::rebuild_client(std::size_t ci) {
  const std::size_t c = instance_->clients[ci];
  double d1 = kInf;
  double d2 = kInf;
  std::uint32_t m1 = 0;
  std::uint32_t m2 = 0;
  for (std::size_t s = 0; s < open_.size(); ++s) {
    const double d = instance_->distance->at(c, open_[s]);
    if (d < d1) {
      d2 = d1;
      m2 = m1;
      d1 = d;
      m1 = static_cast<std::uint32_t>(s);
    } else if (d < d2) {
      d2 = d;
      m2 = static_cast<std::uint32_t>(s);
    }
  }
  d1_[ci] = d1;
  d2_[ci] = d2;
  m1_[ci] = m1;
  m2_[ci] = m2;
}

void KMedianState::recompute_cost() {
  // Fixed client order: the sum is bitwise equal to kmedian_cost over the
  // same median set, so the fast trajectory tracks the reference exactly.
  double total = 0.0;
  for (std::size_t ci = 0; ci < d1_.size(); ++ci) total += d1_[ci];
  cost_ = total;
}

void KMedianState::apply_swap(std::size_t position, std::size_t facility) {
  SHERIFF_REQUIRE(position < open_.size(), "swap position out of range");
  SHERIFF_REQUIRE(facility < open_mask_.size(), "swap facility out of range");
  SHERIFF_REQUIRE(open_mask_[facility] == 0, "swap facility already open");
  open_mask_[open_[position]] = 0;
  open_[position] = facility;
  open_mask_[facility] = 1;
  const std::uint32_t pos = static_cast<std::uint32_t>(position);
  for (std::size_t ci = 0; ci < d1_.size(); ++ci) {
    if (m1_[ci] == pos || m2_[ci] == pos) {
      rebuild_client(ci);
      continue;
    }
    const double d = instance_->distance->at(instance_->clients[ci], facility);
    if (d < d1_[ci]) {
      d2_[ci] = d1_[ci];
      m2_[ci] = m1_[ci];
      d1_[ci] = d;
      m1_[ci] = pos;
    } else if (d < d2_[ci]) {
      d2_[ci] = d;
      m2_[ci] = pos;
    }
  }
  recompute_cost();
}

namespace {

/// Facilities outside the current median set, in instance order — the same
/// scan order the reference solver uses. Refills `outside`, keeping its
/// capacity.
std::vector<std::size_t> outside_facilities(const KMedianInstance& instance,
                                            const KMedianState& state,
                                            std::vector<std::size_t> outside = {}) {
  outside.clear();
  outside.reserve(instance.facilities.size());
  for (std::size_t f : instance.facilities) {
    if (!state.is_open(f)) outside.push_back(f);
  }
  return outside;
}

/// One full delta sweep over all k·|outside| single swaps. Returns the first
/// improving swap in the reference order — the lowest median slot any
/// facility improves, and the first such facility in `outside` — so the
/// sweep replays the reference trajectory. `loss` is k-sized scratch.
SwapChoice delta_sweep(const KMedianInstance& instance, const KMedianState& state,
                       const std::vector<std::size_t>& outside, std::vector<double>& loss,
                       double min_relative_gain) {
  const std::size_t clients = instance.clients.size();
  const double cost = state.cost();
  SwapChoice chosen;
  // Slots a later facility can still win: only those below the chosen one,
  // since facilities arrive in scan order.
  std::size_t limit = state.open().size();
  for (std::size_t f : outside) {
    std::fill(loss.begin(), loss.end(), 0.0);
    double gain_add = 0.0;
    for (std::size_t ci = 0; ci < clients; ++ci) {
      const double dcf = instance.distance->at(instance.clients[ci], f);
      const double d1 = state.nearest_distance(ci);
      if (dcf < d1) {
        gain_add += d1 - dcf;
      } else {
        // Only matters when the client's own median closes: it reconnects
        // to min(second-nearest, f).
        loss[state.nearest_position(ci)] += std::min(state.second_distance(ci), dcf) - d1;
      }
    }
    for (std::size_t pos = 0; pos < limit; ++pos) {
      if (improves(cost, gain_add - loss[pos], min_relative_gain)) {
        chosen = {true, pos, f};
        limit = pos;  // ends this loop too
      }
    }
  }
  return chosen;
}

/// Advances `sol.evaluations` over `count` ≥ 1 consecutive candidates the
/// way the reference scan's per-candidate cap check does. Returns false, with
/// the counter at the cap and the cap flagged, when max_evaluations stops the
/// scan at one of them.
bool charge_candidates(const KMedianInstance& instance, KMedianSolution& sol,
                       std::size_t count) {
  const std::size_t cap = instance.max_evaluations;
  if (cap != 0 && sol.evaluations + count > cap) {
    sol.evaluations = std::max(sol.evaluations, cap);
    sol.hit_evaluation_cap = true;
    return false;
  }
  sol.evaluations += count;
  return true;
}

/// C(n, r) for the small r of a swap size; exact while the result fits.
std::size_t binomial(std::size_t n, std::size_t r) {
  if (r > n) return 0;
  std::size_t out = 1;
  for (std::size_t i = 1; i <= r; ++i) out = out * (n - r + i) / i;
  return out;
}

/// The swap-size 2..p convergence scan (DESIGN.md §9). Candidates run in the
/// reference order — out-slot combination R major, then in-facility
/// combinations F of `outside`, both lexicographic — and are counted one by
/// one, but only those the bound cannot rule out are priced:
///
///   cost(R, F) = Σ_c min(rem_R(c), min_{f∈F} d(c,f)) ≥ base_R − Σ_{f∈F} g_R(f)
///
/// with rem_R(c) the nearest distance among the slots that stay open,
/// base_R = Σ_c rem_R(c) and g_R(f) = Σ_c max(0, rem_R(c) − d(c,f)).
class MultiSwapScan {
 public:
  MultiSwapScan(const KMedianInstance& instance, KMedianState& state, KMedianSolution& sol,
                const FastKMedianOptions& options)
      : instance_(instance), state_(state), sol_(sol),
        threshold_(state.cost() * (1.0 - options.min_relative_gain)),
        outside_(outside_facilities(instance, state)),
        rem_(instance.clients.size()),
        gain_(outside_.size()),
        suffix_max_(outside_.size() + 1, 0.0),
        candidate_(state.open()) {}

  /// Returns true after applying the first improving multi-swap to the state.
  bool run(std::size_t max_swap) {
    const std::size_t k = state_.open().size();
    for (swap_ = 2; swap_ <= max_swap; ++swap_) {
      if (outside_.size() < swap_) continue;
      in_idx_.assign(swap_, 0);
      // Relative slack of the pruning test: twice an upper bound on the
      // rounding error of base_R, the g_R sums, their tuple sum and the
      // reference's cost sum (DESIGN.md §9).
      slack_scale_ = static_cast<double>(instance_.clients.size() + swap_ + 4) *
                     std::numeric_limits<double>::epsilon();
      const bool completed = detail::for_each_combination(
          k, swap_, [&](const std::vector<std::size_t>& out_idx) {
            out_idx_ = out_idx;
            prepare_out_combination();
            return scan_level(0, 0, 0.0);
          });
      if (found_) {
        state_.reset(std::move(candidate_));
        return true;
      }
      if (!completed) return false;  // stopped by max_evaluations
    }
    return false;
  }

 private:
  /// rem_R, base_R, g_R and its suffix maxima for the out-combination R.
  void prepare_out_combination() {
    const std::vector<std::size_t>& open = state_.open();
    const std::size_t clients = instance_.clients.size();
    closing_.assign(open.size(), 0);
    for (std::size_t slot : out_idx_) closing_[slot] = 1;
    // With every slot swapped out nothing stays open and rem_R is ∞: the
    // bound says nothing, so every candidate is priced.
    bounded_ = swap_ < open.size();
    if (!bounded_) return;
    base_ = 0.0;
    for (std::size_t ci = 0; ci < clients; ++ci) {
      const std::size_t c = instance_.clients[ci];
      double rem = kInf;
      for (std::size_t slot = 0; slot < open.size(); ++slot) {
        if (!closing_[slot]) rem = std::min(rem, instance_.distance->at(c, open[slot]));
      }
      rem_[ci] = rem;
      base_ += rem;
    }
    std::fill(gain_.begin(), gain_.end(), 0.0);
    for (std::size_t ci = 0; ci < clients; ++ci) {
      const std::size_t c = instance_.clients[ci];
      for (std::size_t i = 0; i < outside_.size(); ++i) {
        const double d = instance_.distance->at(c, outside_[i]);
        if (d < rem_[ci]) gain_[i] += rem_[ci] - d;
      }
    }
    for (std::size_t i = outside_.size(); i-- > 0;) {
      suffix_max_[i] = std::max(gain_[i], suffix_max_[i + 1]);
    }
  }

  /// True when no tuple whose g_R values sum to at most `gain_sum` can be
  /// accepted. Monotone in gain_sum, also in floating point.
  [[nodiscard]] bool ruled_out(double gain_sum) const {
    if (!bounded_) return false;
    return base_ - gain_sum >= threshold_ + slack_scale_ * (2.0 * base_ + gain_sum);
  }

  /// Enumerates in-combination positions depth..swap−1 from outside index
  /// `from`, given the g_R sum of the positions before. Returns false to stop.
  bool scan_level(std::size_t depth, std::size_t from, double partial) {
    const std::size_t n = outside_.size();
    const std::size_t left = swap_ - depth;
    for (std::size_t i = from; i + left <= n; ++i) {
      // Every tuple continuing with an index ≥ i adds at most `left` copies
      // of suffix_max_[i]; when even that is ruled out, so is the rest of
      // this level: C(n − i, left) candidates, counted and skipped.
      double upper = partial;
      for (std::size_t j = 0; j < left; ++j) upper += suffix_max_[i];
      if (ruled_out(upper)) return charge_candidates(instance_, sol_, binomial(n - i, left));
      in_idx_[depth] = i;
      const double sum = partial + gain_[i];
      if (left > 1) {
        if (!scan_level(depth + 1, i + 1, sum)) return false;
      } else if (ruled_out(sum)) {
        if (!charge_candidates(instance_, sol_, 1)) return false;
      } else if (!price()) {
        return false;
      }
    }
    return true;
  }

  /// Prices the current (R, F) with the reference expression. Returns false
  /// to stop: on acceptance (found_) or at the evaluation cap.
  bool price() {
    if (!charge_candidates(instance_, sol_, 1)) return false;
    candidate_ = state_.open();
    for (std::size_t i = 0; i < swap_; ++i) candidate_[out_idx_[i]] = outside_[in_idx_[i]];
    if (kmedian_cost(instance_, candidate_) < threshold_) {
      found_ = true;
      return false;
    }
    return true;
  }

  const KMedianInstance& instance_;
  KMedianState& state_;
  KMedianSolution& sol_;
  const double threshold_;               ///< reference acceptance: cost·(1 − ε)
  const std::vector<std::size_t> outside_;
  std::vector<double> rem_;               ///< per client: rem_R(c)
  std::vector<double> gain_;              ///< per outside facility: g_R(f)
  std::vector<double> suffix_max_;        ///< max of gain_[i..), 0 past the end
  std::vector<std::size_t> candidate_;    ///< median set being priced
  std::vector<std::size_t> out_idx_;      ///< current out-combination R (slots)
  std::vector<std::size_t> in_idx_;       ///< current in-combination F (outside indices)
  std::vector<char> closing_;             ///< by slot: part of R
  std::size_t swap_ = 0;
  double base_ = 0.0;
  double slack_scale_ = 0.0;
  bool bounded_ = false;
  bool found_ = false;
};

bool all_distances_finite(const KMedianInstance& instance) {
  for (std::size_t c : instance.clients) {
    for (std::size_t f : instance.facilities) {
      if (!std::isfinite(instance.distance->at(c, f))) return false;
    }
  }
  return true;
}

}  // namespace

bool multi_swap_scan(const KMedianInstance& instance, KMedianState& state, KMedianSolution& sol,
                     const FastKMedianOptions& options) {
  return MultiSwapScan(instance, state, sol, options).run(std::min(options.p, instance.k));
}

KMedianSolution fast_kmedian(const KMedianInstance& instance, const FastKMedianOptions& options) {
  detail::validate(instance);
  SHERIFF_REQUIRE(options.p >= 1, "swap size p must be at least 1");
  if (!all_distances_finite(instance)) {
    // A partitioned fabric can leave unreachable pairs; the delta formulas
    // would mix infinities (∞ − ∞), so defer to the reference solver.
    return local_search_kmedian(instance, options.p, options.min_relative_gain);
  }

  KMedianState state(instance,
                     {instance.facilities.begin(),
                      instance.facilities.begin() + static_cast<std::ptrdiff_t>(instance.k)});
  KMedianSolution sol;
  sol.evaluations = 1;
  std::vector<std::size_t> outside;
  std::vector<double> loss(instance.k);

  bool converged = false;
  while (!converged && !sol.hit_evaluation_cap) {
    // Fast p=1 phase: delta sweeps until no single swap improves.
    for (;;) {
      if (instance.max_evaluations != 0 && sol.evaluations >= instance.max_evaluations) {
        sol.hit_evaluation_cap = true;
        break;
      }
      outside = outside_facilities(instance, state, std::move(outside));
      const SwapChoice choice =
          delta_sweep(instance, state, outside, loss, options.min_relative_gain);
      sol.evaluations += outside.size() * state.open().size();
      if (!choice.found) break;
      state.apply_swap(choice.position, choice.facility);
    }
    if (sol.hit_evaluation_cap) break;
    // Convergence check: no p ≤ options.p swap may improve. A successful
    // multi-swap re-opens the fast p=1 phase, exactly like the reference
    // restarting its scan at swap size 1.
    converged = options.p < 2 || !multi_swap_scan(instance, state, sol, options);
  }

  sol.medians = state.open();
  std::sort(sol.medians.begin(), sol.medians.end());
  sol.cost = state.cost();
  return sol;
}

}  // namespace sheriff::graph
