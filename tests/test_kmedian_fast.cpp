// Fast swap-based k-median tests: differential equality against the
// reference Alg. 5 scan (first-improvement trajectory parity), the
// bound-pruned multi-swap convergence scan against the reference
// combinational scan candidate for candidate (caps included), the
// 3 + 2/p bound against the exhaustive optimum, p = 1 parity with the
// reference on 30- and 140-facility instances, planner rows identical
// across pool sizes (pristine and faulted), the max_evaluations safety
// cap, planner refresh semantics, and a naive-vs-fast differential of the
// engine's kKMedian manage phase.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/kmedian_planner.hpp"
#include "graph/kmedian.hpp"
#include "graph/kmedian_fast.hpp"
#include "topology/fat_tree.hpp"
#include "topology/liveness.hpp"

namespace sg = sheriff::graph;
namespace sc = sheriff::common;
namespace core = sheriff::core;
namespace topo = sheriff::topo;
namespace wl = sheriff::wl;

namespace {

/// Random metric: points on a plane, Euclidean distances.
sg::DistanceMatrix random_metric(std::size_t n, sc::Pcg32& rng) {
  std::vector<std::pair<double, double>> pts(n);
  for (auto& p : pts) p = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
  sg::DistanceMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double dx = pts[i].first - pts[j].first;
      const double dy = pts[i].second - pts[j].second;
      m.set(i, j, std::sqrt(dx * dx + dy * dy));
    }
  }
  return m;
}

sg::KMedianInstance make_instance(const sg::DistanceMatrix& m, std::size_t k) {
  sg::KMedianInstance instance;
  instance.distance = &m;
  instance.k = k;
  for (std::size_t i = 0; i < m.size(); ++i) {
    instance.clients.push_back(i);
    instance.facilities.push_back(i);
  }
  return instance;
}

const topo::Topology& small_fat_tree() {
  static const topo::Topology t = [] {
    topo::FatTreeOptions options;
    options.pods = 4;
    options.hosts_per_rack = 3;
    return topo::build_fat_tree(options);
  }();
  return t;
}

struct ScanCase {
  std::string name;
  sg::KMedianInstance instance;  ///< its metric outlives the case
};

/// `clients` distinct random points of the metric as clients, every point a
/// facility — the shape of a k-median plan (a few source racks, all racks
/// as candidate destinations).
sg::KMedianInstance engine_shaped_instance(const sg::DistanceMatrix& m, std::size_t clients,
                                           std::size_t k, sc::Pcg32& rng) {
  sg::KMedianInstance instance;
  instance.distance = &m;
  instance.k = k;
  for (std::size_t i = 0; i < m.size(); ++i) instance.facilities.push_back(i);
  std::vector<std::size_t> points = instance.facilities;
  rng.shuffle(points);
  instance.clients.assign(points.begin(), points.begin() + static_cast<std::ptrdiff_t>(clients));
  return instance;
}

const sg::DistanceMatrix& fat_tree_rack_metric(int pods) {
  static std::deque<std::pair<int, sg::DistanceMatrix>> cache;
  for (const auto& [cached_pods, m] : cache) {
    if (cached_pods == pods) return m;
  }
  topo::FatTreeOptions options;
  options.pods = pods;
  options.hosts_per_rack = 1;
  const topo::Topology t = topo::build_fat_tree(options);
  return cache.emplace_back(pods, core::KMedianPlanner(t).rack_distances()).second;
}

/// Engine-shaped instances for the convergence-scan differentials:
/// Euclidean metrics with `min_points`..`max_points` facilities, and the
/// Fat-Tree k = 8/16 planner rack matrices, whose integral hop distances tie
/// often. 1–12 clients, k = 2..max_k.
std::vector<ScanCase> scan_cases(std::size_t min_points, std::size_t max_points,
                                 std::size_t max_k, std::size_t euclidean,
                                 const std::vector<int>& fat_tree_pods, std::uint64_t seed) {
  static std::deque<sg::DistanceMatrix> metrics;  // outlives every returned case
  sc::Pcg32 rng(seed);
  std::vector<ScanCase> cases;
  const auto draw_k = [&] { return 2 + rng.next_below(static_cast<std::uint32_t>(max_k - 1)); };
  const auto draw_clients = [&] { return 1 + rng.next_below(12); };
  for (std::size_t i = 0; i < euclidean; ++i) {
    const std::size_t n = min_points + rng.next_below(static_cast<std::uint32_t>(
                                           max_points - min_points + 1));
    const sg::DistanceMatrix& m = metrics.emplace_back(random_metric(n, rng));
    const std::size_t k = draw_k();
    cases.push_back({"euclidean n=" + std::to_string(n) + " k=" + std::to_string(k),
                     engine_shaped_instance(m, draw_clients(), k, rng)});
  }
  for (const int pods : fat_tree_pods) {
    const sg::DistanceMatrix& m = fat_tree_rack_metric(pods);
    for (int i = 0; i < 3; ++i) {
      const std::size_t k = draw_k();
      cases.push_back({"fat-tree k" + std::to_string(pods) + " k=" + std::to_string(k),
                       engine_shaped_instance(m, draw_clients(), k, rng)});
    }
  }
  return cases;
}

struct ScanOutcome {
  bool found = false;
  std::vector<std::size_t> medians;  ///< slot order
  double cost = 0.0;
  std::size_t evaluations = 0;
  bool hit_cap = false;
};

ScanOutcome fast_scan(const sg::KMedianInstance& instance, const std::vector<std::size_t>& open,
                      std::size_t p, std::size_t start) {
  sg::KMedianState state(instance, open);
  sg::KMedianSolution sol;
  sol.evaluations = start;
  sg::FastKMedianOptions options;
  options.p = p;
  const bool found = sg::multi_swap_scan(instance, state, sol, options);
  return {found, state.open(), state.cost(), sol.evaluations, sol.hit_evaluation_cap};
}

ScanOutcome reference_scan(const sg::KMedianInstance& instance,
                           const std::vector<std::size_t>& open, std::size_t p,
                           std::size_t start) {
  sg::KMedianSolution sol;
  sol.medians = open;
  sol.cost = sg::kmedian_cost(instance, open);
  sol.evaluations = start;
  const bool found = sg::detail::reference_swap_scan(instance, 2, p, 1e-9, sol);
  return {found, sol.medians, sol.cost, sol.evaluations, sol.hit_evaluation_cap};
}

void expect_same_scan(const ScanOutcome& fast, const ScanOutcome& reference,
                      const std::string& context) {
  EXPECT_EQ(fast.found, reference.found) << context;
  EXPECT_EQ(fast.medians, reference.medians) << context;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.cost), std::bit_cast<std::uint64_t>(reference.cost))
      << context << ": cost " << fast.cost << " vs " << reference.cost;
  EXPECT_EQ(fast.evaluations, reference.evaluations) << context;
  EXPECT_EQ(fast.hit_cap, reference.hit_cap) << context;
}

/// Compares the two scans from `open` uncapped, then under caps already
/// overshot on entry (as a p=1 sweep can leave it), at the first candidate,
/// mid-scan, one before the accepting candidate and exactly at it. Returns
/// the uncapped reference outcome.
ScanOutcome expect_scan_parity(sg::KMedianInstance instance, const std::vector<std::size_t>& open,
                               std::size_t p, const std::string& context) {
  const std::size_t start = 1 + instance.k * (instance.facilities.size() - instance.k);
  instance.max_evaluations = 0;
  const ScanOutcome reference = reference_scan(instance, open, p, start);
  expect_same_scan(fast_scan(instance, open, p, start), reference, context + " uncapped");
  std::vector<std::size_t> caps = {start - 1, start, start + (reference.evaluations - start) / 2};
  if (reference.found) {
    caps.push_back(reference.evaluations - 1);
    caps.push_back(reference.evaluations);
  }
  for (const std::size_t cap : caps) {
    instance.max_evaluations = cap;
    expect_same_scan(fast_scan(instance, open, p, start), reference_scan(instance, open, p, start),
                     context + " cap " + std::to_string(cap));
  }
  return reference;
}

/// The reference Alg. 5 trajectory run phase by phase; true when it ever
/// accepts a single swap. Without one, the fast solver's sweep-granular
/// p=1 accounting counts exactly the reference's candidates.
bool reference_accepts_single_swap(const sg::KMedianInstance& instance, std::size_t p) {
  sg::KMedianSolution sol;
  sol.medians.assign(instance.facilities.begin(),
                     instance.facilities.begin() + static_cast<std::ptrdiff_t>(instance.k));
  sol.cost = sg::kmedian_cost(instance, sol.medians);
  for (;;) {
    if (sg::detail::reference_swap_scan(instance, 1, 1, 1e-9, sol)) return true;
    if (!sg::detail::reference_swap_scan(instance, 2, p, 1e-9, sol)) return false;
  }
}

}  // namespace

// --- Differential: the fast first-improvement p=1 path replays the
// --- reference scan's trajectory — identical medians and bitwise cost.

TEST(FastKMedianDifferential, FirstImprovementMatchesReferenceAcross50Seeds) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    sc::Pcg32 rng(1000 + seed);
    const std::size_t n = 6 + rng.next_below(3);  // 6..8
    const auto m = random_metric(n, rng);
    const std::size_t k = 2 + seed % 3;
    if (k >= n) continue;
    auto instance = make_instance(m, k);
    for (std::size_t p = 1; p <= 3; ++p) {
      const auto reference = sg::local_search_kmedian(instance, p);
      sg::FastKMedianOptions options;
      options.p = p;
      const auto fast = sg::fast_kmedian(instance, options);
      EXPECT_EQ(fast.medians, reference.medians)
          << "seed " << seed << " p " << p << ": median sets diverged";
      EXPECT_EQ(fast.cost, reference.cost)
          << "seed " << seed << " p " << p << ": costs diverged";
    }
  }
}

// --- Convergence scan: the bound-pruned multi-swap scan against the
// --- reference combinational scan from random and 1-optimal open sets —
// --- accepted tuple, cost bits, evaluations and cap flag, capped or not.

void expect_scan_parity_on(const std::vector<ScanCase>& cases, std::size_t p,
                           std::uint64_t seed) {
  sc::Pcg32 rng(seed);
  std::size_t accepted = 0;
  std::size_t exhausted = 0;
  for (const ScanCase& c : cases) {
    std::vector<std::size_t> random_open = c.instance.facilities;
    rng.shuffle(random_open);
    random_open.resize(c.instance.k);
    sg::FastKMedianOptions p1;
    const std::vector<std::size_t> one_optimal = sg::fast_kmedian(c.instance, p1).medians;
    for (const auto& [label, open] : {std::pair{"random", random_open},
                                      std::pair{"1-optimal", one_optimal}}) {
      const ScanOutcome reference = expect_scan_parity(
          c.instance, open, p, c.name + " p=" + std::to_string(p) + " " + label + " open set");
      ++(reference.found ? accepted : exhausted);
    }
  }
  // Both outcomes must occur, or a differential could pass vacuously.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(exhausted, 0u);
}

TEST(FastKMedianScan, SwapSizeTwoMatchesReferenceScan) {
  expect_scan_parity_on(scan_cases(30, 130, 5, 20, {8, 16}, 5000), 2, 5001);
}

TEST(FastKMedianScan, SwapSizeThreeMatchesReferenceScan) {
  expect_scan_parity_on(scan_cases(30, 45, 4, 12, {8}, 5100), 3, 5101);
}

// --- fast_kmedian against local_search_kmedian on the same instances:
// --- medians and cost always; evaluations too when no single swap is ever
// --- accepted (facilities reordered to start from a 1-optimal set).

TEST(FastKMedianScan, SolverMatchesReferenceOnEngineShapedInstances) {
  std::size_t counted = 0;
  for (const std::size_t p : {2u, 3u}) {
    std::vector<ScanCase> cases = p == 2 ? scan_cases(30, 130, 5, 8, {8, 16}, 5200)
                                         : scan_cases(30, 45, 4, 6, {8}, 5300);
    for (ScanCase& c : cases) {
      // Second pass: the reference's 1-optimal set first, so the p=1 phase
      // opens with a sweep that accepts nothing.
      for (int pass = 0; pass < 2; ++pass) {
        if (pass == 1) {
          const std::vector<std::size_t> start = sg::local_search_kmedian(c.instance, 1).medians;
          std::vector<std::size_t> reordered = start;
          for (std::size_t f : c.instance.facilities) {
            if (std::find(start.begin(), start.end(), f) == start.end()) reordered.push_back(f);
          }
          c.instance.facilities = reordered;
        }
        const std::string context = c.name + " p=" + std::to_string(p) + " pass " +
                                    std::to_string(pass);
        const auto reference = sg::local_search_kmedian(c.instance, p);
        sg::FastKMedianOptions options;
        options.p = p;
        const auto fast = sg::fast_kmedian(c.instance, options);
        EXPECT_EQ(fast.medians, reference.medians) << context;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.cost),
                  std::bit_cast<std::uint64_t>(reference.cost))
            << context;
        if (!reference_accepts_single_swap(c.instance, p)) {
          EXPECT_EQ(fast.evaluations, reference.evaluations) << context;
          ++counted;
        }
      }
    }
  }
  EXPECT_GT(counted, 0u);
}

// --- The 3 + 2/p bound against the exhaustive optimum on <= 8x8
// --- instances.

TEST(FastKMedianBound, WithinPaperBoundAcross50Seeds) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    sc::Pcg32 rng(2000 + seed);
    const std::size_t n = 6 + rng.next_below(3);  // 6..8
    const auto m = random_metric(n, rng);
    const std::size_t k = 2 + seed % 3;
    if (k >= n) continue;
    auto instance = make_instance(m, k);
    const auto exact = sg::exhaustive_kmedian(instance);
    ASSERT_GT(exact.cost, 0.0);
    for (std::size_t p = 1; p <= 2; ++p) {
      const double bound = 3.0 + 2.0 / static_cast<double>(p);
      sg::FastKMedianOptions options;
      options.p = p;
      const auto fast = sg::fast_kmedian(instance, options);
      EXPECT_LE(fast.cost, bound * exact.cost + 1e-9)
          << "seed " << seed << " p " << p << ": ratio " << fast.cost / exact.cost;
      EXPECT_GE(fast.cost, exact.cost - 1e-9);  // cannot beat the optimum
    }
  }
}

// --- p = 1: fast_kmedian against local_search_kmedian(…, 1) — medians and
// --- cost bits from the instance's own start, and evaluations as well from
// --- the reference's 1-optimal set, where neither solver accepts a swap.

void expect_swap_size_one_parity(sg::KMedianInstance instance, const std::string& context) {
  const auto reference = sg::local_search_kmedian(instance, 1);
  const auto fast = sg::fast_kmedian(instance);
  EXPECT_EQ(fast.medians, reference.medians) << context;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.cost), std::bit_cast<std::uint64_t>(reference.cost))
      << context;

  std::vector<std::size_t> reordered = reference.medians;
  for (std::size_t f : instance.facilities) {
    if (std::find(reordered.begin(), reordered.end(), f) == reordered.end()) {
      reordered.push_back(f);
    }
  }
  instance.facilities = reordered;
  const auto settled_reference = sg::local_search_kmedian(instance, 1);
  const auto settled_fast = sg::fast_kmedian(instance);
  EXPECT_EQ(settled_fast.medians, settled_reference.medians) << context << " from 1-optimal";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(settled_fast.cost),
            std::bit_cast<std::uint64_t>(settled_reference.cost))
      << context << " from 1-optimal";
  EXPECT_EQ(settled_fast.evaluations, settled_reference.evaluations)
      << context << " from 1-optimal";
}

TEST(FastKMedianDifferential, SwapSizeOneMatchesReferenceOn30FacilityInstances) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    sc::Pcg32 rng(3000 + seed);
    const auto m = random_metric(30, rng);
    expect_swap_size_one_parity(make_instance(m, 4), "seed " + std::to_string(seed));
  }
}

// 136 outside facilities × 140 clients: sweeps past 16k distance reads.
TEST(FastKMedianDifferential, SwapSizeOneMatchesReferenceOn140FacilityInstances) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    sc::Pcg32 rng(3100 + seed);
    const auto m = random_metric(140, rng);
    expect_swap_size_one_parity(make_instance(m, 4), "seed " + std::to_string(seed));
  }
}

TEST(FastKMedianDeterminism, PlannerRowsAgreeAcrossPoolSizesPristineAndFaulted) {
  const topo::Topology& topology = small_fat_tree();
  sc::ThreadPool pool2(2);
  sc::ThreadPool pool8(8);

  // Pristine fabric: sharded rows must equal the serial Dijkstra sweep bit
  // for bit (same per-row computation, different shard ownership only) and
  // the Floyd–Warshall reference up to FP summation order.
  const core::KMedianPlanner serial(topology);
  const core::KMedianPlanner reference(topology, /*use_floyd_warshall=*/true);
  for (sc::ThreadPool* pool : {&pool2, &pool8}) {
    core::KMedianPlannerOptions options;
    options.pool = pool;
    const core::KMedianPlanner sharded(topology, options);
    for (topo::RackId r = 0; r < topology.rack_count(); ++r) {
      for (topo::RackId c = 0; c < topology.rack_count(); ++c) {
        EXPECT_EQ(sharded.rack_distances().at(r, c), serial.rack_distances().at(r, c));
        EXPECT_NEAR(sharded.rack_distances().at(r, c), reference.rack_distances().at(r, c),
                    1e-9);
      }
    }
  }

  // Faulted fabric: kill one ToR; rows and the facility set must still be
  // pool-size independent.
  topo::LivenessMask mask(topology);
  mask.set_node(topology.rack(1).tor, false);
  core::KMedianPlannerOptions serial_options;
  serial_options.liveness = &mask;
  const core::KMedianPlanner faulted_serial(topology, serial_options);
  EXPECT_EQ(faulted_serial.facility_racks().size(), topology.rack_count() - 1);
  for (sc::ThreadPool* pool : {&pool2, &pool8}) {
    core::KMedianPlannerOptions options;
    options.pool = pool;
    options.liveness = &mask;
    const core::KMedianPlanner sharded(topology, options);
    EXPECT_EQ(sharded.facility_racks(), faulted_serial.facility_racks());
    for (topo::RackId r = 0; r < topology.rack_count(); ++r) {
      for (topo::RackId c = 0; c < topology.rack_count(); ++c) {
        EXPECT_EQ(sharded.rack_distances().at(r, c), faulted_serial.rack_distances().at(r, c));
      }
    }
  }
}

// --- max_evaluations safety cap.

TEST(FastKMedianCap, ReferenceSolverStopsExactlyAtCap) {
  sc::Pcg32 rng(4000);
  const auto m = random_metric(16, rng);
  auto instance = make_instance(m, 4);
  const auto unlimited = sg::local_search_kmedian(instance, 2);
  ASSERT_GT(unlimited.evaluations, 20u);
  instance.max_evaluations = 20;
  const auto capped = sg::local_search_kmedian(instance, 2);
  EXPECT_TRUE(capped.hit_evaluation_cap);
  EXPECT_LE(capped.evaluations, 20u);
  EXPECT_FALSE(unlimited.hit_evaluation_cap);
  // A capped run never returns worse than its own start, and never better
  // than the full search.
  EXPECT_GE(capped.cost, unlimited.cost - 1e-9);
}

TEST(FastKMedianCap, FastSolverOvershootsByAtMostOneSweep) {
  sc::Pcg32 rng(4001);
  const auto m = random_metric(16, rng);
  auto instance = make_instance(m, 4);
  const auto unlimited = sg::fast_kmedian(instance);
  ASSERT_GT(unlimited.evaluations, 30u);
  EXPECT_FALSE(unlimited.hit_evaluation_cap);
  instance.max_evaluations = 30;
  const auto capped = sg::fast_kmedian(instance);
  EXPECT_TRUE(capped.hit_evaluation_cap);
  // Sweep granularity: at most one extra sweep of k * (|F| - k) candidates.
  const std::size_t sweep = instance.k * (instance.facilities.size() - instance.k);
  EXPECT_LE(capped.evaluations, 30u + sweep);
}

// --- Planner refresh semantics: version-gated rebuilds.

TEST(KMedianPlannerRefresh, RebuildsOnlyWhenMaskVersionMoves) {
  const topo::Topology& topology = small_fat_tree();
  topo::LivenessMask mask(topology);
  core::KMedianPlannerOptions options;
  options.liveness = &mask;
  core::KMedianPlanner planner(topology, options);
  EXPECT_EQ(planner.rebuilds(), 1u);  // the constructor's initial build
  EXPECT_FALSE(planner.refresh());    // mask unchanged: no rebuild
  EXPECT_EQ(planner.rebuilds(), 1u);

  mask.set_node(topology.rack(0).tor, false);
  EXPECT_TRUE(planner.refresh());
  EXPECT_EQ(planner.rebuilds(), 2u);
  EXPECT_EQ(planner.facility_racks().size(), topology.rack_count() - 1);
  EXPECT_FALSE(planner.refresh());  // already caught up

  mask.set_node(topology.rack(0).tor, true);
  EXPECT_TRUE(planner.refresh());
  EXPECT_EQ(planner.facility_racks().size(), topology.rack_count());

  // A planner without a mask never rebuilds (the topology is immutable);
  // rebuild() stays available for the naive benchmarking path.
  core::KMedianPlanner unmasked(topology);
  EXPECT_FALSE(unmasked.refresh());
  EXPECT_EQ(unmasked.rebuilds(), 1u);
  unmasked.rebuild();
  EXPECT_EQ(unmasked.rebuilds(), 2u);
}

// --- Engine-level differential: the kKMedian manage phase picks the same
// --- moves with the fast solver as with the naive rebuild + reference scan.

TEST(EngineKMedian, FastAndNaiveRoundsAgree) {
  wl::DeploymentOptions deployment;
  deployment.seed = 2015;
  deployment.vms_per_host = 3.0;

  core::EngineConfig fast_config;
  fast_config.mode = core::ManagerMode::kKMedian;

  // Flip the solver and the pure-caching switches only: the cost-rooting
  // modes (partner_rooted_costs, shared_leaf_cost_trees) are equal-cost
  // but not bit-identical, so they stay the same on both engines.
  core::EngineConfig naive_config = fast_config;
  naive_config.incremental_fair_share = false;
  naive_config.route_cache = false;
  naive_config.retain_cost_trees = false;
  naive_config.fast_kmedian = false;

  core::DistributedEngine fast_engine(small_fat_tree(), deployment, fast_config);
  core::DistributedEngine naive_engine(small_fat_tree(), deployment, naive_config);
  const auto fast_metrics = fast_engine.run(8);
  const auto naive_metrics = naive_engine.run(8);
  ASSERT_EQ(fast_metrics.size(), naive_metrics.size());
  for (std::size_t r = 0; r < fast_metrics.size(); ++r) {
    EXPECT_EQ(fast_metrics[r].migrations, naive_metrics[r].migrations) << "round " << r;
    EXPECT_EQ(fast_metrics[r].host_alerts, naive_metrics[r].host_alerts) << "round " << r;
    // search_space is intentionally not compared: the fast solver counts
    // candidate evaluations at sweep granularity while the reference scan
    // counts per candidate, so the totals differ even though the swap
    // trajectory (and therefore every migration) is identical.
  }
  // Both engines must land every VM on the same host.
  const auto& fd = fast_engine.deployment();
  const auto& nd = naive_engine.deployment();
  ASSERT_EQ(fd.vm_count(), nd.vm_count());
  for (wl::VmId vm = 0; vm < fd.vm_count(); ++vm) {
    EXPECT_EQ(fd.vm(vm).host, nd.vm(vm).host) << "vm " << vm;
  }
}
