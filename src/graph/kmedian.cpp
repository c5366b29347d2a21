#include "graph/kmedian.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/require.hpp"

namespace sheriff::graph {

namespace detail {

void validate(const KMedianInstance& instance) {
  SHERIFF_REQUIRE(instance.distance != nullptr, "instance needs a distance matrix");
  SHERIFF_REQUIRE(instance.k >= 1, "k must be at least 1");
  SHERIFF_REQUIRE(instance.k <= instance.facilities.size(), "k exceeds facility count");
  const std::size_t n = instance.distance->size();
  for (std::size_t c : instance.clients) SHERIFF_REQUIRE(c < n, "client out of range");
  for (std::size_t f : instance.facilities) SHERIFF_REQUIRE(f < n, "facility out of range");
}

bool for_each_combination(std::size_t n, std::size_t p,
                          const std::function<bool(const std::vector<std::size_t>&)>& fn) {
  std::vector<std::size_t> idx(p);
  for (std::size_t i = 0; i < p; ++i) idx[i] = i;
  if (p > n) return true;
  for (;;) {
    if (!fn(idx)) return false;
    // Advance to the next combination.
    std::size_t i = p;
    while (i > 0) {
      --i;
      if (idx[i] != i + n - p) break;
      if (i == 0) return true;
    }
    if (idx[i] == i + n - p) return true;
    ++idx[i];
    for (std::size_t j = i + 1; j < p; ++j) idx[j] = idx[j - 1] + 1;
  }
}

bool reference_swap_scan(const KMedianInstance& instance, std::size_t min_swap,
                         std::size_t max_swap, double min_relative_gain, KMedianSolution& sol) {
  std::vector<std::size_t> outside;
  outside.reserve(instance.facilities.size());
  for (std::size_t f : instance.facilities) {
    if (std::find(sol.medians.begin(), sol.medians.end(), f) == sol.medians.end()) {
      outside.push_back(f);
    }
  }
  max_swap = std::min(max_swap, instance.k);
  bool improved = false;
  for (std::size_t swap = min_swap; swap <= max_swap && !improved; ++swap) {
    if (outside.size() < swap) continue;
    for_each_combination(sol.medians.size(), swap, [&](const std::vector<std::size_t>& out_idx) {
      return for_each_combination(outside.size(), swap,
                                  [&](const std::vector<std::size_t>& in_idx) {
        if (instance.max_evaluations != 0 && sol.evaluations >= instance.max_evaluations) {
          sol.hit_evaluation_cap = true;
          return false;  // budget spent: keep the current solution
        }
        std::vector<std::size_t> candidate = sol.medians;
        for (std::size_t i = 0; i < swap; ++i) candidate[out_idx[i]] = outside[in_idx[i]];
        const double cost = kmedian_cost(instance, candidate);
        ++sol.evaluations;
        if (cost < sol.cost * (1.0 - min_relative_gain)) {
          sol.medians = std::move(candidate);
          sol.cost = cost;
          improved = true;
          return false;  // stop scanning
        }
        return true;
      });
    });
    if (sol.hit_evaluation_cap) break;
  }
  return improved;
}

}  // namespace detail

using detail::for_each_combination;
using detail::validate;

double kmedian_cost(const KMedianInstance& instance, const std::vector<std::size_t>& medians) {
  SHERIFF_REQUIRE(!medians.empty(), "median set must be non-empty");
  double total = 0.0;
  for (std::size_t c : instance.clients) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t m : medians) best = std::min(best, instance.distance->at(c, m));
    total += best;
  }
  return total;
}

KMedianSolution local_search_kmedian(const KMedianInstance& instance, std::size_t p,
                                     double min_relative_gain) {
  validate(instance);
  SHERIFF_REQUIRE(p >= 1, "swap size p must be at least 1");
  KMedianSolution sol;
  sol.medians.assign(instance.facilities.begin(),
                     instance.facilities.begin() + static_cast<std::ptrdiff_t>(instance.k));
  sol.cost = kmedian_cost(instance, sol.medians);
  sol.evaluations = 1;
  // Try swap sizes 1..p; a first improvement restarts the scan.
  while (!sol.hit_evaluation_cap &&
         detail::reference_swap_scan(instance, 1, p, min_relative_gain, sol)) {
  }
  std::sort(sol.medians.begin(), sol.medians.end());
  return sol;
}

KMedianSolution exhaustive_kmedian(const KMedianInstance& instance) {
  validate(instance);
  KMedianSolution best;
  best.cost = std::numeric_limits<double>::infinity();
  for_each_combination(instance.facilities.size(), instance.k,
                       [&](const std::vector<std::size_t>& idx) {
    std::vector<std::size_t> candidate(idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) candidate[i] = instance.facilities[idx[i]];
    const double cost = kmedian_cost(instance, candidate);
    ++best.evaluations;
    if (cost < best.cost) {
      best.cost = cost;
      best.medians = std::move(candidate);
    }
    return true;
  });
  std::sort(best.medians.begin(), best.medians.end());
  return best;
}

}  // namespace sheriff::graph
