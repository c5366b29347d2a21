// Sheriff benchmark driver: builds one workload's fabric from each of four
// sub-seeds of a seed and runs a core::DistributedEngine on it, repetition
// after repetition, until the requested measuring time is spent. It times only calls into public
// functions (construction, run_round, Checkpoint::serialize/deserialize and
// a few layer probes) and reads per-layer numbers from existing accessors:
// phase_profile() deltas, router().cache_stats(), fair_share_solver()
// stats and the observation hub's registry and auditor.
//
// Every measurement is kept in memory as a span and written to stdout as
// one raw JSON document when the run ends; perfbench/run.py reduces it to
// the benchmark's metrics and checks.
//
// Usage: sheriff_perfbench --workload NAME --seed N --seconds S --trace 0|1

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "graph/dijkstra.hpp"
#include "migration/cost_model.hpp"
#include "net/fair_share.hpp"
#include "net/routing.hpp"
#include "snapshot/checkpoint.hpp"
#include "workloads.hpp"

namespace {

using namespace sheriff;
using Clock = std::chrono::steady_clock;

/// The engine's explicit pool. One worker: on a few shared vCPUs, every
/// extra thread makes a round wait for the slowest of them, and then the
/// round time measures the host's scheduler rather than the simulator.
constexpr std::size_t kPoolThreads = 1;
/// Simulations per run. Repetition i simulates sub-seed i mod kSubSeeds of
/// the run's seed, so a run's figures pool several deployments (and fault
/// plans) instead of hanging on one.
constexpr std::size_t kSubSeeds = 4;
constexpr int kCalibrationSweeps = 5;
constexpr int kSaveRepeats = 5;
constexpr int kCostProbePasses = 3;
constexpr std::size_t kCostProbeVms = 64;
constexpr std::size_t kCostProbePairs = 4096;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

std::string metrics_csv(std::span<const core::RoundMetrics> rounds) {
  std::ostringstream os;
  core::write_metrics_csv(os, rounds);
  return os.str();
}

/// Returns freed heap to the system and resets the process's peak RSS to
/// its current RSS (Linux clear_refs "5"), so that the next peak_rss_kib()
/// covers only what follows.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// The process's peak RSS in KiB: VmHWM, which starts afresh at exec,
/// where getrusage's ru_maxrss would carry over the parent's peak.
double peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Pins the calling thread, and the threads it starts from now on, to one
/// CPU. Repetitions take turns over the CPUs, so that one vCPU slowed by
/// other tenants of the host holds back only some of them; the fastest
/// repetition of each round then drops that slowness (see run.py).
void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

// --- spans -------------------------------------------------------------------

/// One timed interval. Round spans carry the round's PhaseProfile deltas:
/// `children` are the disjoint top-level phases (their sum never exceeds
/// the round, so round − Σ children is the round's self time) and `parts`
/// are sub-phases nested inside a child, reported but not subtracted.
struct Span {
  std::string name;
  int id = 0;
  int parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::vector<std::pair<std::string, std::uint64_t>> children;
  std::vector<std::pair<std::string, std::uint64_t>> parts;
  std::vector<std::pair<std::string, double>> attrs;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Records [begin, end) under `parent`; returns the span for decoration.
  Span& add(std::string name, int parent, Clock::time_point begin, Clock::time_point end) {
    Span span;
    span.name = std::move(name);
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.start_ns = ns_between(origin_, begin);
    span.dur_ns = ns_between(begin, end);
    spans_.push_back(std::move(span));
    return spans_.back();
  }
  /// Times `fn()` as a span.
  template <typename F>
  Span& time(std::string name, int parent, F&& fn) {
    const auto begin = Clock::now();
    fn();
    return add(std::move(name), parent, begin, Clock::now());
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] Span& at(int id) { return spans_[static_cast<std::size_t>(id)]; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Difference of two cumulative phase profiles, as round-span children.
void attach_phases(Span& span, const core::PhaseProfile& before, const core::PhaseProfile& after) {
  const auto d = [](std::uint64_t a, std::uint64_t b) { return b - a; };
  std::uint64_t propose_before = 0;
  std::uint64_t propose_after = 0;
  for (std::uint64_t ns : before.manage_shard_propose_ns) propose_before += ns;
  for (std::uint64_t ns : after.manage_shard_propose_ns) propose_after += ns;
  span.children = {
      {"fault", d(before.fault_ns, after.fault_ns)},
      {"workload", d(before.workload_ns, after.workload_ns)},
      {"fair_share", d(before.fair_share_ns, after.fair_share_ns)},
      {"queue", d(before.queue_ns, after.queue_ns)},
      {"predict", d(before.predict_ns, after.predict_ns)},
      {"manage", d(before.manage_ns, after.manage_ns)},
  };
  span.parts = {
      {"fair_share.build", d(before.fair_share_build_ns, after.fair_share_build_ns)},
      {"fair_share.fill", d(before.fair_share_fill_ns, after.fair_share_fill_ns)},
      {"manage.commit", d(before.manage_commit_ns, after.manage_commit_ns)},
      {"manage.decision", d(before.manage_decision_ns, after.manage_decision_ns)},
      {"manage.kmedian", d(before.manage_kmedian_ns, after.manage_kmedian_ns)},
      {"manage.schedule", d(before.manage_schedule_ns, after.manage_schedule_ns)},
      // Busy time summed over the parallel shard tasks, not wall time.
      {"manage.propose_busy", propose_after - propose_before},
  };
}

// --- raw JSON output ---------------------------------------------------------

/// Minimal streaming JSON writer for the raw document.
class Json {
 public:
  explicit Json(std::ostream& os) : os_(os) { os_ << std::setprecision(17); }

  Json& begin(const char* key = nullptr) { return open(key, '{'); }
  Json& begin_list(const char* key = nullptr) { return open(key, '['); }
  Json& end() {
    os_ << closers_.back();
    closers_.pop_back();
    first_ = false;
    return *this;
  }
  template <typename T>
  Json& field(const char* key, const T& value) {
    sep(key);
    write(value);
    return *this;
  }
  template <typename T>
  Json& item(const T& value) {
    sep(nullptr);
    write(value);
    return *this;
  }

 private:
  Json& open(const char* key, char bracket) {
    sep(key);
    os_ << bracket;
    closers_.push_back(bracket == '{' ? '}' : ']');
    first_ = true;
    return *this;
  }
  void sep(const char* key) {
    if (!first_) os_ << ',';
    first_ = false;
    if (key != nullptr) os_ << '"' << key << "\":";
  }
  void write(const std::string& s) {
    os_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        os_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        os_ << ' ';
      } else {
        os_ << c;
      }
    }
    os_ << '"';
  }
  void write(const char* s) { write(std::string(s)); }
  void write(bool b) { os_ << (b ? "true" : "false"); }
  template <typename T>
  void write(T v) {
    os_ << v;
  }

  std::ostream& os_;
  std::vector<char> closers_;
  bool first_ = true;
};

void write_pairs(Json& json, const char* key,
                 const std::vector<std::pair<std::string, std::uint64_t>>& pairs) {
  json.begin(key);
  for (const auto& [name, value] : pairs) json.field(name.c_str(), value);
  json.end();
}

void write_span(Json& json, const Span& span) {
  json.begin()
      .field("name", span.name)
      .field("id", span.id)
      .field("parent", span.parent)
      .field("start_ns", span.start_ns)
      .field("dur_ns", span.dur_ns);
  if (!span.children.empty()) write_pairs(json, "children", span.children);
  if (!span.parts.empty()) write_pairs(json, "parts", span.parts);
  if (!span.attrs.empty()) {
    json.begin("attrs");
    for (const auto& [name, value] : span.attrs) json.field(name.c_str(), value);
    json.end();
  }
  json.end();
}

// --- one repetition ----------------------------------------------------------

/// What a repetition reports besides its spans.
struct RepResult {
  std::uint64_t seed = 0;  ///< the sub-seed this repetition simulated
  bool observe = false;
  int span = -1;
  std::string error;  ///< non-empty when the repetition threw
  std::string csv_hash;
  std::string checkpoint_hash;
  std::size_t checkpoint_bytes = 0;
  bool resume_parity = false;
  double peak_rss_kib = 0.0;
  std::vector<std::pair<std::string, double>> counts;
};

struct RunContext {
  const perfbench::Workload& workload;
  std::uint64_t seed;
  common::ThreadPool& pool;
  SpanLog& log;
};

void add_count(RepResult& rep, const char* name, double value) {
  rep.counts.emplace_back(name, value);
}

/// Layer probes on the engine's state after its last timed round.
void run_probes(const core::DistributedEngine& engine, RunContext& ctx, int parent,
                RepResult& rep) {
  const topo::Topology& topology = engine.topology();
  const topo::LivenessMask* liveness =
      engine.fault_injector() != nullptr ? &engine.fault_injector()->liveness() : nullptr;

  {
    net::Router router(topology);
    if (liveness != nullptr) router.apply_liveness(liveness);
    std::vector<net::Flow> flows(engine.flows().begin(), engine.flows().end());
    for (net::Flow& flow : flows) flow.path.clear();
    std::size_t routed = 0;
    ctx.log.time("probe.route_all_cold", parent, [&] { routed = router.route_all(flows); })
        .attrs.emplace_back("flows_routed", static_cast<double>(routed));
  }
  {
    net::FairShareSolver solver(topology);
    solver.set_thread_pool(&ctx.pool);
    std::vector<net::Flow> flows(engine.flows().begin(), engine.flows().end());
    ctx.log.time("probe.fair_share_cold", parent, [&] { (void)solver.solve(flows, liveness); });
    ctx.log.time("probe.fair_share_warm", parent, [&] { (void)solver.solve(flows, liveness); });
  }
  {
    const core::EngineConfig& config = engine.config();
    mig::MigrationCostModel model(topology, engine.deployment(), config.sheriff.cost);
    model.set_partner_rooted(config.partner_rooted_costs);
    model.set_shared_leaf_trees(config.shared_leaf_cost_trees);
    model.set_bandwidth_state(&engine.fair_share_solver().result());
    std::vector<wl::VmId> vms = engine.alerted_vms();
    if (vms.empty()) {  // fall back to the lowest VM ids so the probe always runs
      for (wl::VmId v = 0; v < engine.deployment().vm_count(); ++v) vms.push_back(v);
    }
    if (vms.size() > kCostProbeVms) vms.resize(kCostProbeVms);
    std::vector<std::pair<wl::VmId, topo::NodeId>> pairs;
    for (wl::VmId vm : vms) {
      const topo::RackId rack = topology.node(engine.deployment().vm(vm).host).rack;
      for (topo::RackId region : topology.neighbor_racks(rack)) {
        for (topo::NodeId host : topology.rack(region).hosts) pairs.emplace_back(vm, host);
      }
    }
    if (pairs.size() > kCostProbePairs) pairs.resize(kCostProbePairs);
    double checksum = 0.0;
    const auto sweep = [&] {
      for (const auto& [vm, host] : pairs) {
        const double cost = model.total_cost(vm, host);
        if (cost < 1e300) checksum += cost;
      }
    };
    sweep();  // builds the model's lazily cached rows, untimed
    for (int pass = 0; pass < kCostProbePasses; ++pass) {
      Span& span = ctx.log.time("probe.cost_eval", parent, sweep);
      span.attrs.emplace_back("pairs", static_cast<double>(pairs.size()));
    }
    add_count(rep, "probe.cost_checksum", checksum);
  }
}

/// Sums the simulated statistics of the timed rounds.
void add_sim_counts(RepResult& rep, std::span<const core::RoundMetrics> rounds) {
  double alerts = 0, migrations = 0, reroutes = 0, iterations = 0, retries = 0, conflicts = 0,
         recoveries = 0;
  for (const core::RoundMetrics& m : rounds) {
    alerts += static_cast<double>(m.host_alerts + m.tor_alerts + m.switch_alerts);
    migrations += static_cast<double>(m.migrations);
    reroutes += static_cast<double>(m.reroutes);
    iterations += static_cast<double>(m.protocol_iterations);
    retries += static_cast<double>(m.protocol_retries);
    conflicts += static_cast<double>(m.shard_conflicts);
    recoveries += static_cast<double>(m.recovery_migrations);
  }
  add_count(rep, "sim.alerts", alerts);
  add_count(rep, "sim.migrations", migrations);
  add_count(rep, "sim.reroutes", reroutes);
  add_count(rep, "sim.protocol_iterations", iterations);
  add_count(rep, "sim.protocol_retries", retries);
  add_count(rep, "sim.shard_conflicts", conflicts);
  add_count(rep, "sim.recovery_migrations", recoveries);
}

void add_layer_counts(RepResult& rep, const core::DistributedEngine& engine) {
  const net::RouterCacheStats& router = engine.router().cache_stats();
  add_count(rep, "router.tree_hits", static_cast<double>(router.tree_hits));
  add_count(rep, "router.tree_misses", static_cast<double>(router.tree_misses));
  add_count(rep, "router.path_hits", static_cast<double>(router.path_hits));
  add_count(rep, "router.path_misses", static_cast<double>(router.path_misses));
  const net::FairShareSolver& solver = engine.fair_share_solver();
  add_count(rep, "fair_share.solves", static_cast<double>(solver.stats().solves));
  add_count(rep, "fair_share.full_rebuilds", static_cast<double>(solver.stats().full_rebuilds));
  add_count(rep, "fair_share.affected_flows", static_cast<double>(solver.stats().affected_flows));
  add_count(rep, "fair_share.reused_flows", static_cast<double>(solver.stats().reused_flows));
  add_count(rep, "fair_share.arena_bytes", static_cast<double>(solver.arena_bytes()));
  if (const obs::ObservationHub* hub = engine.observation_hub()) {
    for (const char* name : {"cost.evaluated", "cost.pruned"}) {
      const obs::Counter* counter = hub->registry().find_counter(name);
      add_count(rep, name, counter != nullptr ? static_cast<double>(counter->value()) : 0.0);
    }
    if (const obs::InvariantAuditor* auditor = hub->auditor()) {
      add_count(rep, "auditor.violations", static_cast<double>(auditor->violation_count()));
      add_count(rep, "auditor.rounds_audited", static_cast<double>(auditor->rounds_audited()));
    }
  }
}

RepResult run_rep(RunContext& ctx, bool observe, int index) {
  RepResult rep;
  rep.seed = ctx.seed;
  rep.observe = observe;
  const auto rep_begin = Clock::now();
  rep.span = ctx.log.add("rep", -1, rep_begin, rep_begin).id;
  ctx.log.at(rep.span).attrs = {{"index", index}, {"observe", observe ? 1.0 : 0.0}};
  reset_peak_rss();
  try {
    perfbench::Fabric fabric;
    ctx.log.time("setup.topology", rep.span,
                 [&] { fabric = ctx.workload.build_fabric(ctx.seed); });
    const wl::DeploymentOptions deployment = ctx.workload.deployment(ctx.seed);
    core::EngineConfig config = ctx.workload.config();
    config.pool = &ctx.pool;
    config.fault_plan = fabric.plan.get();
    config.observe = observe;
    config.audit = observe;

    std::unique_ptr<core::DistributedEngine> engine;
    ctx.log.time("setup.engine", rep.span, [&] {
      engine = std::make_unique<core::DistributedEngine>(*fabric.topology, deployment, config);
    });

    std::vector<core::RoundMetrics> rounds;
    rounds.reserve(perfbench::kTimedRounds);
    core::PhaseProfile before = engine->phase_profile();
    for (std::size_t r = 0; r < perfbench::kTimedRounds; ++r) {
      const auto begin = Clock::now();
      rounds.push_back(engine->run_round());
      const auto end = Clock::now();
      const core::PhaseProfile& after = engine->phase_profile();
      Span& span = ctx.log.add("round", rep.span, begin, end);
      attach_phases(span, before, after);
      span.attrs = {{"round", static_cast<double>(r)},
                    {"migrations", static_cast<double>(rounds.back().migrations)},
                    {"reroutes", static_cast<double>(rounds.back().reroutes)}};
      before = after;
    }
    rep.peak_rss_kib = peak_rss_kib();
    add_sim_counts(rep, rounds);
    add_layer_counts(rep, *engine);
    const std::string csv = metrics_csv(rounds);
    rep.csv_hash = hex(fnv1a(csv.data(), csv.size()));

    std::vector<std::uint8_t> bytes;
    for (int i = 0; i < kSaveRepeats; ++i) {
      ctx.log.time("checkpoint.save", rep.span,
                   [&] { bytes = core::Checkpoint::serialize(*engine); });
    }
    rep.checkpoint_bytes = bytes.size();
    rep.checkpoint_hash = hex(fnv1a(bytes.data(), bytes.size()));

    if (observe) {
      const auto begin = Clock::now();
      const int probes = ctx.log.add("probes", rep.span, begin, begin).id;
      run_probes(*engine, ctx, probes, rep);
      ctx.log.at(probes).dur_ns = ns_between(begin, Clock::now());
    }

    // Resume parity: the original continues, is dropped, and a fresh engine
    // restored from the checkpoint must continue byte-identically.
    const std::string original_tail = metrics_csv(engine->run(perfbench::kResumeRounds));
    engine.reset();
    engine = std::make_unique<core::DistributedEngine>(*fabric.topology, deployment, config);
    std::vector<std::uint8_t> copy = bytes;
    ctx.log.time("checkpoint.load", rep.span,
                 [&] { core::Checkpoint::deserialize(*engine, std::move(copy)); });
    const std::string resumed_tail = metrics_csv(engine->run(perfbench::kResumeRounds));
    rep.resume_parity = resumed_tail == original_tail;
  } catch (const std::exception& e) {
    rep.error = e.what();
  }
  ctx.log.at(rep.span).dur_ns = ns_between(rep_begin, Clock::now());
  return rep;
}

/// Dijkstra from every ToR of the k=32 Fat-Tree hop graph: a fixed kernel
/// that shows how fast the host ran single-threaded graph code when the
/// run started.
std::vector<double> calibrate(SpanLog& log) {
  const topo::Topology topology = perfbench::build_k32_fabric();
  const graph::Graph g = topology.wired_graph(topo::EdgeWeight::kHops);
  graph::ShortestPathTree tree;
  std::vector<double> sweeps_ms;
  for (int sweep = 0; sweep < kCalibrationSweeps; ++sweep) {
    const Span& span = log.time("calibration.bfs_sweep", -1, [&] {
      for (const topo::Rack& rack : topology.racks()) {
        graph::dijkstra_into(g, rack.tor, {}, tree);
      }
    });
    sweeps_ms.push_back(static_cast<double>(span.dur_ns) / 1e6);
  }
  return sweeps_ms;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds) return std::nullopt;
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: sheriff_perfbench --workload NAME --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  const perfbench::Workload* workload = perfbench::find_workload(args->workload);
  if (workload == nullptr) {
    std::cerr << "unknown workload: " << args->workload << "\n";
    return 2;
  }

  const std::vector<int> cpus = allowed_cpus();
  const auto origin = Clock::now();
  SpanLog log(origin);
  const std::vector<double> calibration_ms = calibrate(log);

  // Repetitions go in blocks of one per sub-seed, until the measuring time
  // is spent, at least two blocks. The traced run alternates untraced and
  // traced blocks, at least one of each, for the tracing overhead.
  std::vector<RepResult> reps;
  const auto measure_begin = Clock::now();
  while (reps.size() < 2 * kSubSeeds ||
         static_cast<double>(ns_between(measure_begin, Clock::now())) / 1e9 < args->seconds) {
    const std::size_t i = reps.size();
    const std::size_t block = i / kSubSeeds;
    // Each repetition runs on the next allowed CPU in turn, shifted by one
    // every block so that every sub-seed visits every CPU; the pool's
    // worker inherits the pin.
    if (!cpus.empty()) pin_to_cpu(cpus[(i + block) % cpus.size()]);
    common::ThreadPool pool(kPoolThreads);
    RunContext ctx{*workload, args->seed * kSubSeeds + i % kSubSeeds, pool, log};
    const bool observe = args->trace && block % 2 == 1;
    reps.push_back(run_rep(ctx, observe, static_cast<int>(i)));
  }

  Json json(std::cout);
  json.begin()
      .field("workload", workload->name)
      .field("seed", args->seed)
      .field("trace", args->trace)
      .field("threads", kPoolThreads)
      .field("timed_rounds", perfbench::kTimedRounds);
  json.begin_list("calibration_ms");
  for (double ms : calibration_ms) json.item(ms);
  json.end();
  json.begin_list("reps");
  for (const RepResult& rep : reps) {
    json.begin()
        .field("span", rep.span)
        .field("seed", rep.seed)
        .field("observe", rep.observe)
        .field("error", rep.error)
        .field("csv_hash", rep.csv_hash)
        .field("checkpoint_hash", rep.checkpoint_hash)
        .field("checkpoint_bytes", rep.checkpoint_bytes)
        .field("resume_parity", rep.resume_parity)
        .field("peak_rss_kib", rep.peak_rss_kib);
    json.begin("counts");
    for (const auto& [name, value] : rep.counts) json.field(name.c_str(), value);
    json.end();
    json.end();
  }
  json.end();
  json.begin_list("spans");
  for (const Span& span : log.spans()) write_span(json, span);
  json.end();
  json.end();
  std::cout << "\n";
  return 0;
}
