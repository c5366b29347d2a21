// Scale bench for the per-round hot path: run the production engine on the
// evaluation fabrics on a one-thread pool (the serial mode, as perfbench
// runs it: the timings then do not depend on the runner's core count) and
// report the time per round, end to end and per phase (from per-round
// PhaseProfile deltas), next to a calibration kernel run in the same
// process: graph::dijkstra_into from every ToR of the k=16 Fat-Tree hop
// graph, the kernel routing spends its time in. Times are CPU time of the
// one engine thread (a phase's wall time scaled by the round's CPU share),
// so waiting for a core on a busy host does not count. Each scenario runs
// three fresh engines, with one calibration sweep before every round; a
// phase reports the median over rounds of each round's fastest
// repetition, and the calibration its fastest sweep. Dividing one by the
// other cancels most of the machine's speed: the CI perf gate
// (tools/check_bench_scale.py) holds each normalized median to a
// per-scenario budget in bench/baselines/BENCH_scale_baseline.json.
//
// fat_tree_k32 also runs a legacy-manage leg (sharded_manage off, every
// other setting equal) and reports the manage-phase ratio of the two legs:
// the algorithmic win of regional sharding. That ratio is reported, not
// gated.
//
// Emits machine-readable BENCH_scale.json (schema sheriff.bench_scale.v6)
// next to the table.
//
// Usage: bench_scale [output.json]

#include <time.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_support.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "graph/dijkstra.hpp"
#include "obs/timing.hpp"
#include "topology/fat_tree.hpp"

namespace {

using namespace sheriff;

using Scenario = bench::ScaleScenario;

/// The phases reported per round, in JSON order. `net` is routing plus
/// fair share (workload_route + fair_share): the network hot path.
const std::vector<std::string> kPhases = {
    "round",  "fault",           "workload_route", "fair_share",      "net",
    "queue",  "predict",         "manage",         "manage_decision", "manage_kmedian",
    "manage_schedule", "manage_commit"};

/// Milliseconds per phase of one round (or, with checkpoint flags active,
/// of the mean round), indexed like kPhases.
using RoundSample = std::vector<double>;

/// CPU time the calling thread has run, in ns. Unlike wall time it does
/// not grow while the thread waits for a core.
double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Runs `work` and returns (wall ns, the calling thread's CPU ns).
template <class Work>
std::pair<double, double> timed(Work&& work) {
  const double cpu_before = thread_cpu_ns();
  obs::Stopwatch watch;
  work();
  const double wall = static_cast<double>(watch.elapsed_ns());
  return {wall, thread_cpu_ns() - cpu_before};
}

RoundSample phase_delta(const core::PhaseProfile& before, const core::PhaseProfile& after,
                        double round_ns) {
  const auto ms = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a) / 1e6; };
  const double workload = ms(before.workload_ns, after.workload_ns);
  const double fair_share = ms(before.fair_share_ns, after.fair_share_ns);
  return {round_ns / 1e6,
          ms(before.fault_ns, after.fault_ns),
          workload,
          fair_share,
          workload + fair_share,
          ms(before.queue_ns, after.queue_ns),
          ms(before.predict_ns, after.predict_ns),
          ms(before.manage_ns, after.manage_ns),
          ms(before.manage_decision_ns, after.manage_decision_ns),
          ms(before.manage_kmedian_ns, after.manage_kmedian_ns),
          ms(before.manage_schedule_ns, after.manage_schedule_ns),
          ms(before.manage_commit_ns, after.manage_commit_ns)};
}

/// The phases of `rounds` rounds as CPU ms per round: each phase's wall
/// time (PhaseProfile delta) scaled by the share of the rounds' wall time
/// the thread actually ran (the engine runs on one thread here). A wait
/// for a core inflates the wall time but not the CPU time.
RoundSample cpu_sample(const core::PhaseProfile& before, const core::PhaseProfile& after,
                       double wall_ns, double cpu_ns, double rounds) {
  const double share = wall_ns > 0.0 ? std::min(1.0, cpu_ns / wall_ns) : 1.0;
  RoundSample sample = phase_delta(before, after, wall_ns);
  for (double& v : sample) v *= share / rounds;
  return sample;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The calibration kernel: one sweep = graph::dijkstra_into from every ToR
/// of the k=16 Fat-Tree hop graph into a reused tree.
class Calibration {
 public:
  Calibration()
      : topology_([] {
          topo::FatTreeOptions ft;
          ft.pods = 16;
          ft.hosts_per_rack = 4;
          return topo::build_fat_tree(ft);
        }()),
        graph_(topology_.wired_graph(topo::EdgeWeight::kHops)) {}

  /// CPU ms of one sweep.
  double sweep_ms() {
    return timed([this] {
             for (const topo::Rack& rack : topology_.racks()) {
               graph::dijkstra_into(graph_, rack.tor, {}, tree_);
             }
           }).second / 1e6;
  }

 private:
  topo::Topology topology_;
  graph::Graph graph_;
  graph::ShortestPathTree tree_;
};

/// Repetitions of each leg (a fresh engine each). The engine is
/// deterministic, so round r does the same work in every repetition.
constexpr int kRepetitions = 3;

struct LegResult {
  std::size_t vms = 0;
  std::size_t flows = 0;
  std::vector<double> median_ms;  ///< indexed like kPhases
  double calibration_ms = 0.0;    ///< fastest calibration sweep
  std::size_t calibration_sweeps = 0;
  net::FairShareSolver::Stats fair_share;
  std::size_t fair_share_components = 0;
  std::size_t fair_share_arena_bytes = 0;
  net::RouterCacheStats router;
};

/// Runs kRepetitions fresh engines for the scenario's rounds, with one
/// calibration sweep before every round, so the rounds and the
/// calibration see the same host. A phase's result is the median over
/// rounds of each round's fastest repetition, and the calibration is the
/// fastest sweep: noise from the host only ever adds time.
LegResult run_leg(const Scenario& scenario, const core::EngineConfig& config,
                  const snapshot::CheckpointCli& checkpoints, const std::string& tag,
                  Calibration& calibration) {
  std::vector<RoundSample> fastest;  ///< per round, per phase: min over repetitions
  std::vector<double> sweeps;
  LegResult result;
  const auto keep_fastest = [&fastest](std::size_t round, RoundSample sample) {
    if (round == fastest.size()) {
      fastest.push_back(std::move(sample));
      return;
    }
    for (std::size_t p = 0; p < sample.size(); ++p) {
      fastest[round][p] = std::min(fastest[round][p], sample[p]);
    }
  };
  for (int rep = 0; rep < kRepetitions; ++rep) {
    core::DistributedEngine engine(scenario.topology, scenario.deploy, config);
    if (checkpoints.checkpoint_every != 0 || !checkpoints.resume_path.empty()) {
      // Saving/resuming runs are not timed per round: one mean-round sample.
      sweeps.push_back(calibration.sweep_ms());
      const core::PhaseProfile before = engine.phase_profile();
      const auto [wall, cpu] =
          timed([&] { bench::run_rounds(engine, scenario.rounds, checkpoints, tag); });
      const double rounds =
          static_cast<double>(std::max<std::size_t>(1, engine.phase_profile().rounds));
      keep_fastest(0, cpu_sample(before, engine.phase_profile(), wall, cpu, rounds));
    } else {
      for (std::size_t r = 0; r < scenario.rounds; ++r) {
        sweeps.push_back(calibration.sweep_ms());
        const core::PhaseProfile before = engine.phase_profile();
        const auto [wall, cpu] = timed([&] { (void)engine.run_round(); });
        keep_fastest(r, cpu_sample(before, engine.phase_profile(), wall, cpu, 1.0));
      }
    }
    result.vms = engine.deployment().vm_count();
    result.flows = engine.flows().size();
    result.fair_share = engine.fair_share_solver().stats();
    result.fair_share_components = engine.fair_share_solver().component_count();
    result.fair_share_arena_bytes = engine.fair_share_solver().arena_bytes();
    result.router = engine.router().cache_stats();
  }
  for (std::size_t p = 0; p < kPhases.size(); ++p) {
    std::vector<double> column;
    for (const RoundSample& sample : fastest) column.push_back(sample[p]);
    result.median_ms.push_back(median(std::move(column)));
  }
  result.calibration_sweeps = sweeps.size();
  result.calibration_ms = *std::min_element(sweeps.begin(), sweeps.end());
  return result;
}

struct ScenarioResult {
  std::string name;
  std::size_t nodes = 0;
  std::size_t links = 0;
  std::size_t rounds = 0;
  LegResult production;
  bool ablation = false;
  LegResult legacy_manage;  ///< fat_tree_k32 only: sharded_manage off

  [[nodiscard]] static double phase(const LegResult& leg, const std::string& phase_name) {
    const auto it = std::find(kPhases.begin(), kPhases.end(), phase_name);
    return leg.median_ms[static_cast<std::size_t>(it - kPhases.begin())];
  }
  [[nodiscard]] double sharded_manage_ratio() const {
    const double sharded = phase(production, "manage");
    return sharded > 0.0 ? phase(legacy_manage, "manage") / sharded : 0.0;
  }
};

void emit_medians(std::ostream& os, const LegResult& leg) {
  os << "{";
  for (std::size_t p = 0; p < kPhases.size(); ++p) {
    os << (p > 0 ? ", " : "") << "\"" << kPhases[p] << "\": " << leg.median_ms[p];
  }
  os << "}";
}

}  // namespace

int main(int argc, char** argv) {
  const snapshot::CheckpointCli checkpoints = snapshot::parse_checkpoint_cli(argc, argv);
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_scale.json";
  if (checkpoints.checkpoint_every != 0 || !checkpoints.resume_path.empty()) {
    std::cout << "WARNING: checkpoint flags active — timings are per mean round, not\n"
              << "per-round medians, and NOT comparable to the budgets; run without\n"
              << "--checkpoint-every/--resume for the CI perf gate.\n";
  }
  bench::print_figure_header(
      "Scale", "per-round hot path: median ms/round per phase against a calibration kernel",
      "every normalized median (phase ms / calibration ms) stays within its "
      "per-scenario budget; regional sharding beats the legacy manage sweep on k=32");

  Calibration calibration;
  common::ThreadPool serial(1);
  std::vector<ScenarioResult> results;
  for (const Scenario& s : bench::make_scale_scenarios()) {
    ScenarioResult r;
    r.name = s.name;
    r.nodes = s.topology.node_count();
    r.links = s.topology.link_count();
    r.rounds = s.rounds;
    std::cout << "\n== " << s.name << " (" << r.nodes << " nodes, " << r.links << " links, "
              << s.rounds << " rounds) ==\n";
    core::EngineConfig config = bench::scale_engine_config(s);
    config.pool = &serial;
    r.production = run_leg(s, config, checkpoints, s.name, calibration);
    if (s.shard_ablation) {
      core::EngineConfig legacy = config;
      legacy.sharded_manage = false;
      r.ablation = true;
      r.legacy_manage =
          run_leg(s, legacy, checkpoints, s.name + ".legacy_manage", calibration);
    }

    const double cal = r.production.calibration_ms;
    std::cout << std::fixed << std::setprecision(3) << "  calibration: " << cal
              << " ms (fastest of " << r.production.calibration_sweeps << " sweeps)\n";
    for (std::size_t p = 0; p < kPhases.size(); ++p) {
      const double ms = r.production.median_ms[p];
      if (ms == 0.0) continue;
      std::cout << "  " << std::left << std::setw(16) << kPhases[p] << std::right
                << std::setw(10) << ms << " ms/round  (" << std::setw(8) << ms / cal
                << " x calibration)\n";
    }
    if (r.ablation) {
      std::cout << "  legacy manage: " << r.phase(r.legacy_manage, "manage")
                << " ms/round -> sharded " << r.phase(r.production, "manage")
                << " ms/round (" << std::setprecision(2) << r.sharded_manage_ratio() << "x)\n";
    }
    std::cout << std::defaultfloat << std::setprecision(6);
    results.push_back(std::move(r));
  }

  std::ofstream os(out_path);
  os << "{\n  \"schema\": \"sheriff.bench_scale.v6\",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    const LegResult& p = r.production;
    os << "  {\n"
       << "    \"name\": \"" << r.name << "\",\n"
       << "    \"nodes\": " << r.nodes << ",\n"
       << "    \"links\": " << r.links << ",\n"
       << "    \"vms\": " << p.vms << ",\n"
       << "    \"flows\": " << p.flows << ",\n"
       << "    \"rounds\": " << r.rounds << ",\n"
       << "    \"repetitions\": " << kRepetitions << ",\n"
       << "    \"calibration_ms\": " << p.calibration_ms << ",\n"
       << "    \"calibration_sweeps\": " << p.calibration_sweeps << ",\n"
       << "    \"median_ms\": ";
    emit_medians(os, p);
    os << ",\n    \"fair_share\": {\"solves\": " << p.fair_share.solves
       << ", \"full_rebuilds\": " << p.fair_share.full_rebuilds
       << ", \"affected_flows\": " << p.fair_share.affected_flows
       << ", \"reused_flows\": " << p.fair_share.reused_flows
       << ", \"components\": " << p.fair_share_components
       << ", \"arena_bytes\": " << p.fair_share_arena_bytes << "},\n"
       << "    \"router\": {\"tree_hits\": " << p.router.tree_hits
       << ", \"tree_misses\": " << p.router.tree_misses
       << ", \"path_hits\": " << p.router.path_hits
       << ", \"path_misses\": " << p.router.path_misses << "}";
    if (r.ablation) {
      os << ",\n    \"ablation\": {\"legacy_manage_median_ms\": ";
      emit_medians(os, r.legacy_manage);
      os << ", \"sharded_manage_ratio\": " << r.sharded_manage_ratio() << "}";
    }
    os << "\n  }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
