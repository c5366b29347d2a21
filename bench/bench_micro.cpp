// Micro-benchmarks (google-benchmark) of the algorithmic kernels Sheriff
// leans on: Floyd–Warshall, Dijkstra, Hungarian matching, max–min fair
// share, k-median local search, the knapsack, ARIMA/NARNET fitting, and
// the Eq. (1) migration decision kernel (surface build / per-candidate
// eval / bound-pruned sweep).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "bench_support.hpp"
#include "common/rng.hpp"
#include "core/kmedian_planner.hpp"
#include "graph/dijkstra.hpp"
#include "graph/floyd_warshall.hpp"
#include "graph/kmedian.hpp"
#include "graph/knapsack.hpp"
#include "graph/matching.hpp"
#include "migration/cost_model.hpp"
#include "net/fair_share.hpp"
#include "net/queueing.hpp"
#include "net/rate_control.hpp"
#include "net/routing.hpp"
#include "reference.hpp"
#include "timeseries/arima.hpp"
#include "timeseries/holt_winters.hpp"
#include "timeseries/narnet.hpp"
#include "timeseries/simulate.hpp"
#include "topology/fat_tree.hpp"
#include "topology/liveness.hpp"
#include "workload/deployment.hpp"
#include "workload/trace_generator.hpp"

namespace {

using namespace sheriff;

graph::Graph random_graph(std::size_t n, std::size_t extra, common::Pcg32& rng) {
  graph::Graph g(n);
  for (graph::Vertex v = 1; v < n; ++v) {
    g.add_edge(v, static_cast<graph::Vertex>(rng.next_below(v)), rng.uniform(0.1, 10.0));
  }
  for (std::size_t e = 0; e < extra; ++e) {
    const auto a = static_cast<graph::Vertex>(rng.next_below(static_cast<std::uint32_t>(n)));
    const auto b = static_cast<graph::Vertex>(rng.next_below(static_cast<std::uint32_t>(n)));
    if (a != b) g.add_edge(a, b, rng.uniform(0.1, 10.0));
  }
  return g;
}

void BM_FloydWarshall(benchmark::State& state) {
  common::Pcg32 rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = random_graph(n, 3 * n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::floyd_warshall(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FloydWarshall)->Arg(32)->Arg(64)->Arg(128)->Complexity(benchmark::oNCubed);

void BM_DijkstraFatTree(benchmark::State& state) {
  topo::FatTreeOptions options;
  options.pods = static_cast<int>(state.range(0));
  const auto t = topo::build_fat_tree(options);
  const auto g = t.wired_graph(topo::EdgeWeight::kHops);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::dijkstra(g, 0));
  }
}
BENCHMARK(BM_DijkstraFatTree)->Arg(8)->Arg(16)->Arg(24);

void BM_HungarianMatching(benchmark::State& state) {
  common::Pcg32 rng(2);
  const auto n = static_cast<std::size_t>(state.range(0));
  graph::AssignmentProblem problem(n, 2 * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < 2 * n; ++c) problem.set_cost(r, c, rng.uniform(0.0, 100.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::solve_assignment(problem));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HungarianMatching)->Arg(16)->Arg(64)->Arg(128)->Complexity();

void BM_MaxMinFairShare(benchmark::State& state) {
  topo::FatTreeOptions options;
  options.pods = 8;
  const auto t = topo::build_fat_tree(options);
  const net::Router router(t);
  common::Pcg32 rng(3);
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  std::vector<net::Flow> flows;
  for (net::FlowId id = 0; id < static_cast<net::FlowId>(state.range(0)); ++id) {
    net::Flow f;
    f.id = id;
    f.src_host = rng.pick(hosts);
    f.dst_host = rng.pick(hosts);
    if (f.src_host == f.dst_host) continue;
    f.demand_gbps = rng.uniform(0.05, 1.5);
    flows.push_back(f);
  }
  router.route_all(flows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::max_min_fair_share(t, flows));
  }
}
BENCHMARK(BM_MaxMinFairShare)->Arg(128)->Arg(512)->Arg(2048);

// The incremental solver under the engine's steady-state shape: each
// iteration churns the demand of ~10% of the flows (a rotating subset)
// and re-solves. Measures the event-driven water-fill kernel plus dirty
// detection — compare against BM_MaxMinFairShare at the same flow count
// for the from-scratch cost it replaces.
void BM_IncrementalFairShareChurn(benchmark::State& state) {
  topo::FatTreeOptions options;
  options.pods = 8;
  const auto t = topo::build_fat_tree(options);
  const net::Router router(t);
  common::Pcg32 rng(3);
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  std::vector<net::Flow> flows;
  for (net::FlowId id = 0; id < static_cast<net::FlowId>(state.range(0)); ++id) {
    net::Flow f;
    f.id = id;
    f.src_host = rng.pick(hosts);
    f.dst_host = rng.pick(hosts);
    if (f.src_host == f.dst_host) continue;
    f.demand_gbps = rng.uniform(0.05, 1.5);
    flows.push_back(f);
  }
  router.route_all(flows);
  net::FairShareSolver solver(t);
  solver.solve(flows);
  std::size_t phase = 0;
  for (auto _ : state) {
    for (std::size_t f = phase; f < flows.size(); f += 10) {
      flows[f].demand_gbps *= (phase % 2 == 0) ? 1.1 : 1.0 / 1.1;
    }
    phase = (phase + 1) % 10;
    benchmark::DoNotOptimize(solver.solve(flows));
  }
}
BENCHMARK(BM_IncrementalFairShareChurn)->Arg(128)->Arg(512)->Arg(2048);

void BM_KMedianLocalSearch(benchmark::State& state) {
  common::Pcg32 rng(4);
  const std::size_t n = 48;
  std::vector<std::pair<double, double>> pts(n);
  for (auto& p : pts) p = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
  graph::DistanceMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double dx = pts[i].first - pts[j].first;
      const double dy = pts[i].second - pts[j].second;
      m.set(i, j, std::sqrt(dx * dx + dy * dy));
    }
  }
  graph::KMedianInstance instance;
  instance.distance = &m;
  instance.k = 6;
  for (std::size_t i = 0; i < n; ++i) {
    instance.clients.push_back(i);
    instance.facilities.push_back(i);
  }
  const auto p = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::local_search_kmedian(instance, p));
  }
}
BENCHMARK(BM_KMedianLocalSearch)->Arg(1)->Arg(2);

void BM_Knapsack(benchmark::State& state) {
  common::Pcg32 rng(5);
  std::vector<graph::KnapsackItem> items;
  for (int i = 0; i < 64; ++i) items.push_back({1 + rng.next_below(20), rng.uniform(0.0, 10.0)});
  const auto budget = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::min_value_knapsack(items, budget));
  }
}
BENCHMARK(BM_Knapsack)->Arg(50)->Arg(200);

void BM_ArimaFit(benchmark::State& state) {
  common::Pcg32 rng(6);
  const auto series =
      ts::simulate_arma({0.6}, {0.3}, 1.0, 1.0, static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    ts::ArimaModel model(ts::ArimaOrder{1, 1, 1});
    model.fit(series);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_ArimaFit)->Arg(256)->Arg(1024);

void BM_NarnetFit(benchmark::State& state) {
  auto gen = wl::make_weekly_traffic_trace(7);
  const auto series = gen->generate(336);
  for (auto _ : state) {
    ts::NarNet::Options options;
    options.inputs = 8;
    options.hidden = static_cast<int>(state.range(0));
    options.max_epochs = 60;
    ts::NarNet net(options);
    net.fit(series);
    benchmark::DoNotOptimize(net);
  }
}
BENCHMARK(BM_NarnetFit)->Arg(10)->Arg(20);

void BM_HoltWintersFit(benchmark::State& state) {
  auto gen = wl::make_weekly_traffic_trace(8);
  const auto series = gen->generate(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ts::HoltWintersModel::Options options;
    options.period = 48;
    ts::HoltWintersModel model(options);
    model.fit(series);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_HoltWintersFit)->Arg(336)->Arg(1344);

void BM_QcnControllerUpdate(benchmark::State& state) {
  topo::FatTreeOptions options;
  options.pods = 8;
  options.tor_agg_gbps = 1.0;
  const auto t = topo::build_fat_tree(options);
  const net::Router router(t);
  common::Pcg32 rng(9);
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  std::vector<net::Flow> flows;
  for (net::FlowId id = 0; id < static_cast<net::FlowId>(state.range(0)); ++id) {
    net::Flow f;
    f.id = id;
    f.src_host = rng.pick(hosts);
    f.dst_host = rng.pick(hosts);
    if (f.src_host == f.dst_host) continue;
    f.demand_gbps = rng.uniform(0.5, 2.0);
    flows.push_back(f);
  }
  router.route_all(flows);
  net::SwitchQueues queues(t);
  net::QcnRateController controller;
  const auto shares = net::max_min_fair_share(t, flows);
  queues.update(shares, flows);
  for (auto _ : state) {
    controller.update(flows, queues);
    benchmark::DoNotOptimize(controller.tracked_flows());
  }
}
BENCHMARK(BM_QcnControllerUpdate)->Arg(256)->Arg(1024);

// Shared fixture for the Eq. (1) decision-kernel benches: a k=8 Fat-Tree
// with the Sec. VI-B oversubscribed ToR uplinks, a bench-standard VM
// population, routed flows, and one fair-share allocation installed as the
// cost model's bandwidth state — the exact inputs the manage phase hands
// the kernel each round.
struct CostKernelScenario {
  topo::Topology topo;
  wl::Deployment deployment;
  std::vector<topo::NodeId> hosts;
  std::vector<net::Flow> flows;
  net::FairShareResult shares;
  std::vector<wl::VmId> alerted;

  CostKernelScenario()
      : topo([] {
          topo::FatTreeOptions options;
          options.pods = 8;
          options.tor_agg_gbps = 1.0;
          return topo::build_fat_tree(options);
        }()),
        deployment(topo, bench::bench_deployment_options(2015)),
        hosts(topo.nodes_of_kind(topo::NodeKind::kHost)) {
    const net::Router router(topo);
    common::Pcg32 rng(7);
    for (net::FlowId id = 0; id < net::FlowId{1024}; ++id) {
      net::Flow f;
      f.id = id;
      f.src_host = rng.pick(hosts);
      f.dst_host = rng.pick(hosts);
      if (f.src_host == f.dst_host) continue;
      f.demand_gbps = rng.uniform(0.05, 1.5);
      flows.push_back(f);
    }
    router.route_all(flows);
    shares = net::max_min_fair_share(topo, flows);
    // 5 % of the VMs alerted, as the Sec. VI-B experiments assume.
    for (std::size_t id = 0; id < deployment.vm_count(); id += 20) {
      alerted.push_back(static_cast<wl::VmId>(id));
    }
  }
};

const CostKernelScenario& cost_kernel_scenario() {
  static const CostKernelScenario scenario;
  return scenario;
}

mig::CostParams cost_kernel_params() {
  mig::CostParams params;
  params.computing_cost = 100.0;
  return params;
}

void configure_cost_kernel_model(mig::MigrationCostModel& model, const CostKernelScenario& s) {
  model.set_partner_rooted(true);
  model.set_shared_leaf_trees(true);
  model.set_bandwidth_state(&s.shares);
}

// Cost of the once-per-round SoA snapshot (set_bandwidth_state rebuilds
// it); the price every surfaced evaluation amortizes.
void BM_CostKernelSurfaceBuild(benchmark::State& state) {
  const CostKernelScenario& s = cost_kernel_scenario();
  mig::MigrationCostModel model(s.topo, s.deployment, cost_kernel_params());
  configure_cost_kernel_model(model, s);
  for (auto _ : state) {
    model.set_bandwidth_state(&s.shares);
    benchmark::DoNotOptimize(model.stats().surface_builds);
  }
}
BENCHMARK(BM_CostKernelSurfaceBuild);

// Per-candidate Eq. (1) evaluation: Arg(0) = the reference per-link walk
// over the shares vectors (sheriff_reference::legacy_cost), Arg(1) = the
// production CostSurface kernel (bit-identical costs; the speedup is the
// point).
void BM_CostKernelEval(benchmark::State& state) {
  const CostKernelScenario& s = cost_kernel_scenario();
  mig::MigrationCostModel model(s.topo, s.deployment, cost_kernel_params());
  configure_cost_kernel_model(model, s);
  const bool surface = state.range(0) != 0;
  common::Pcg32 rng(11);
  std::vector<std::pair<wl::VmId, topo::NodeId>> pairs;
  for (int i = 0; i < 256; ++i) pairs.emplace_back(rng.pick(s.alerted), rng.pick(s.hosts));
  for (auto _ : state) {
    double sum = 0.0;
    for (const auto& [vm, dest] : pairs) {
      sum += surface ? model.cost(vm, dest).total()
                     : reference::legacy_cost(model, s.deployment, &s.shares, vm, dest).total();
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_CostKernelEval)->Arg(0)->Arg(1);

// The single-VM matching sweep the regional shims run: one alerted VM
// against every host. Arg(0) = exhaustive (evaluate all), Arg(1) = the
// admissible-bound scan propose_matching uses (same argmin, fewer full
// evaluations).
void BM_CostKernelPrunedSweep(benchmark::State& state) {
  const CostKernelScenario& s = cost_kernel_scenario();
  mig::MigrationCostModel model(s.topo, s.deployment, cost_kernel_params());
  configure_cost_kernel_model(model, s);
  const bool prune = state.range(0) != 0;
  std::size_t i = 0;
  for (auto _ : state) {
    const wl::VmId vm = s.alerted[i++ % s.alerted.size()];
    double best = graph::AssignmentProblem::kForbidden;
    for (const topo::NodeId dest : s.hosts) {
      if (prune) {
        double base = 0.0;
        if (model.provably_infeasible(vm, dest) ||
            model.candidate_lower_bound(vm, dest, &base) >= best) {
          continue;
        }
        const double cost = model.total_cost_with_base(vm, dest, base);
        if (cost < best) best = cost;
        continue;
      }
      const double cost = model.total_cost(vm, dest);
      if (cost < best) best = cost;
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_CostKernelPrunedSweep)->Arg(0)->Arg(1);

/// One flow per rack of a k=16 Fat-Tree, each to the rack half the fabric
/// away, so every ToR-rooted tree gets queried.
std::vector<net::Flow> one_flow_per_rack(const topo::Topology& t) {
  std::vector<net::Flow> flows;
  for (topo::RackId r = 0; r < t.rack_count(); ++r) {
    net::Flow flow;
    flow.id = r;
    flow.src_host = t.rack(r).hosts[0];
    flow.dst_host = t.rack((r + t.rack_count() / 2) % t.rack_count()).hosts[0];
    flows.push_back(flow);
  }
  return flows;
}

topo::Topology k16_fat_tree() {
  topo::FatTreeOptions options;
  options.pods = 16;
  return topo::build_fat_tree(options);
}

/// A warm k=16 router takes one link flap (agg—core, down then up on
/// alternate iterations): refresh_liveness repairs every cached ToR tree,
/// then every ToR is queried again.
void BM_RouterRefreshLiveness(benchmark::State& state) {
  const topo::Topology t = k16_fat_tree();
  topo::LivenessMask mask(t);
  net::Router router(t);
  router.apply_liveness(&mask);
  auto flows = one_flow_per_rack(t);
  router.route_all(flows);
  topo::LinkId flapped = 0;
  for (const topo::Link& link : t.links()) {
    if (t.node(link.a).kind == topo::NodeKind::kAggSwitch &&
        t.node(link.b).kind == topo::NodeKind::kCoreSwitch) {
      flapped = link.id;
      break;
    }
  }
  for (auto _ : state) {
    mask.set_link(flapped, !mask.link_up(flapped));
    router.refresh_liveness();
    benchmark::DoNotOptimize(router.route_all(flows));
  }
  state.counters["repairs"] = benchmark::Counter(
      static_cast<double>(router.cache_stats().tree_repairs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RouterRefreshLiveness);

/// FLOWREROUTE-shaped queries on a warm k=16 router: each iteration routes
/// one flow per rack around one blocked aggregation switch, cycling through
/// more switches than the per-flow path cache holds, so every query walks a
/// cached blocked tree.
void BM_RouterRouteBlocked(benchmark::State& state) {
  const topo::Topology t = k16_fat_tree();
  const net::Router router(t);
  auto flows = one_flow_per_rack(t);
  const auto aggs = t.nodes_of_kind(topo::NodeKind::kAggSwitch);
  std::size_t next = 0;
  for (auto _ : state) {
    const topo::NodeId blocked[] = {aggs[next++ % 8]};
    for (net::Flow& flow : flows) benchmark::DoNotOptimize(router.route(flow, blocked));
  }
}
BENCHMARK(BM_RouterRouteBlocked);

/// The kKMedian manage phase's plan: a k=16 Fat-Tree rack matrix (128
/// facility racks), 6 source racks, k = 4, p = 2 — the p=1 delta sweeps plus
/// the bound-pruned swap-size-2 convergence scan. Cycles through 32 fixed
/// source sets so the time is an average over instances.
void BM_FastKMedianPlannerShaped(benchmark::State& state) {
  const topo::Topology t = k16_fat_tree();
  const core::KMedianPlanner planner(t);
  common::Pcg32 rng(16);
  std::vector<std::vector<topo::RackId>> source_sets(32);
  for (auto& sources : source_sets) {
    while (sources.size() < 6) {
      const auto r = static_cast<topo::RackId>(rng.next_below(t.rack_count()));
      if (std::find(sources.begin(), sources.end(), r) == sources.end()) sources.push_back(r);
    }
  }
  core::KMedianPlanner::PlanOptions options;
  options.k = 4;
  options.p = 2;
  std::size_t next = 0;
  std::size_t evaluations = 0;
  for (auto _ : state) {
    const core::KMedianPlan plan = planner.plan(source_sets[next++ % source_sets.size()], options);
    evaluations += plan.evaluations;
    benchmark::DoNotOptimize(plan.connection_cost);
  }
  state.counters["evaluations"] = benchmark::Counter(static_cast<double>(evaluations),
                                                     benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FastKMedianPlannerShaped);

void BM_FatTreeBuild(benchmark::State& state) {
  topo::FatTreeOptions options;
  options.pods = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::build_fat_tree(options));
  }
}
BENCHMARK(BM_FatTreeBuild)->Arg(8)->Arg(24)->Arg(48);

}  // namespace

BENCHMARK_MAIN();
