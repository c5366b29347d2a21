#pragma once
// DistributedEngine: the round-based simulation driver tying everything
// together. Every round (one management period T):
//
//   1. VM workloads evolve (trace-driven) and flows update their demands.
//   2. The fair-share allocator produces link loads; switch queues update
//      and emit QCN congestion feedback.
//   3. Every VM's predictor observes the new sample; shims *collect*
//      alerts from the T-ahead predictions, one task per rack, since
//      collection is read-only.
//   4. Shims run Alg. 1's alert dispatch (FLOWREROUTE first) and hand each
//      migration set to one schedule step that the protocol picks: a
//      demand for the message-passing REQUEST/ACK run (Alg. 3/4), or an
//      FCFS scheduler run through one shared admission broker.
//
// Every sweep runs on the worker pool (EngineConfig::pool). A one-thread
// pool is the serial mode; results are identical at every pool size.
//
// The same engine can run in centralized mode, where one manager with the
// global view processes the union of all alerts against all hosts — the
// baseline of Fig. 11–14.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/centralized_manager.hpp"
#include "core/config.hpp"
#include "core/kmedian_planner.hpp"
#include "core/manage_shards.hpp"
#include "core/predictor.hpp"
#include "core/protocol.hpp"
#include "core/shim_controller.hpp"
#include "core/vm_migration.hpp"
#include "fault/fault_injector.hpp"
#include "fault/lossy_channel.hpp"
#include "migration/cost_model.hpp"
#include "net/fair_share.hpp"
#include "net/queueing.hpp"
#include "net/flow_stats.hpp"
#include "net/rate_control.hpp"
#include "net/reroute.hpp"
#include "net/routing.hpp"
#include "obs/hub.hpp"
#include "topology/topology.hpp"
#include "workload/deployment.hpp"

namespace sheriff::common {
class ThreadPool;
}

namespace sheriff::core {

enum class ManagerMode : std::uint8_t {
  kSheriff,      ///< regional shims (the paper's scheme)
  kCentralized,  ///< one global manager (the baseline)
  kKMedian,      ///< Sec. V-A centralized k-median reduction (Alg. 5 planner)
};

enum class MigrationProtocol : std::uint8_t {
  kMessagePassing,  ///< propose/decide/apply rounds with per-rack delegates
                    ///< (the paper's distributed REQUEST/ACK; default)
  kSerializedFcfs,  ///< shims act one after another through one broker
};

enum class PredictorKind : std::uint8_t {
  kHolt,      ///< cheap double-exponential smoothing (default at scale)
  kEnsemble,  ///< full ARIMA+NARNET dynamic selection (small scenarios)
  kNaive,     ///< no prediction (contingency baseline for ablations)
};

struct EngineConfig {
  SheriffConfig sheriff;
  ManagerMode mode = ManagerMode::kSheriff;
  MigrationProtocol protocol = MigrationProtocol::kMessagePassing;
  PredictorKind predictor = PredictorKind::kHolt;
  double flow_demand_scale_gbps = 0.4;  ///< demand per dependency edge at TRF=1
  bool qcn_rate_control = true;         ///< end-host reaction to QCN feedback (Sec. III-A.2)
  // --- cost-model rooting modes. Each picks equal-cost trees whose FP
  //     summation order / path tie-breaks may differ, so each mode is
  //     deterministic but the modes are not bit-identical to each other.
  //     Every other hot-path kernel (incremental fair share, router tree
  //     and path caches, retained cost rows, the CostSurface decision
  //     kernel with bound pruning, the fast k-median) is the only kernel
  //     of its layer; parallelism is not a switch either — the pool size
  //     alone decides it. ------------------------------------------------
  /// Dependency-span distances rooted at the partners instead of every
  /// candidate destination (one Dijkstra tree per partner, not per host).
  bool partner_rooted_costs = true;
  /// Cost-model trees shared across single-homed hosts (rooted at the ToR
  /// behind the host's one leaf edge): one tree per queried rack instead
  /// of one per queried host on fat-tree-like fabrics.
  bool shared_leaf_cost_trees = true;
  /// Regional sharding of the manage phase (kSheriff mode, DESIGN.md §11):
  /// shims are grouped into deterministic contiguous rack shards, each
  /// shard's alert dispatch + reroute/migration planning runs as one
  /// parallel *propose* task against an immutable round snapshot, and all
  /// claims are committed in one serial *apply* pass ordered by shim id
  /// (duplicate reroute claims on one switch resolve to the lowest shim
  /// id; the rest count as RoundMetrics::shard_conflicts). Results are
  /// byte-identical for ANY shard count — tests pin 1/2/8. false = the
  /// legacy interleaved serial sweep (bench_scale's k32 ablation leg).
  bool sharded_manage = true;
  /// Shard count for the sharded manage phase; 0 = auto (min(8, racks)).
  /// Clamped to [1, rack_count]. Like the pool size, this never changes
  /// results, so it is deliberately excluded from the checkpoint
  /// fingerprint.
  std::size_t manage_shards = 0;
  std::size_t kmedian_destination_racks = 4;  ///< k medians per plan (kKMedian mode)
  std::size_t kmedian_swap_p = 2;             ///< Alg. 5 swap size (kKMedian mode)
  std::size_t kmedian_max_evaluations = 0;    ///< k-median safety cap (0 = unlimited)
  /// Worker pool for every parallel sweep (workload advance, fair-share
  /// fill, switch queue update, predictor observe, shim collect, shard
  /// propose, protocol propose/decide, k-median planner rows). nullptr =
  /// the process-wide default pool. Each sweep is one common::parallel_for
  /// call, which runs it inline on the round's thread when the pool has
  /// one worker, the sweep has fewer than two items or is below its grain
  /// constant, or the round already runs on one of the pool's workers — so
  /// a one-thread pool is the serial mode in cost as well as in results.
  /// Sweeps are bit-identical for any pool size — tests pin pools of size
  /// 1/2/8 to prove it — so the pool never enters the checkpoint
  /// fingerprint.
  common::ThreadPool* pool = nullptr;
  /// Optional timed fault schedule (link/switch/host/shim failures, lossy
  /// protocol messaging). Must outlive the engine. An empty plan (or
  /// nullptr) reproduces the pristine-fabric run bit for bit.
  const fault::FaultPlan* fault_plan = nullptr;
  // --- observability (src/obs/): all off by default. With everything off
  //     the engine owns no ObservationHub and the per-round hot path takes
  //     a handful of null checks. perfbench's traced mode reports what
  //     observe + audit cost as `trace.overhead_pct` (≈10% on reroute_k32;
  //     perfbench/README.md).
  bool observe = false;  ///< own an ObservationHub (event trace + metric registry)
  bool audit = false;    ///< run the InvariantAuditor each round (implies observe)
  bool audit_fail_fast = false;       ///< first violation throws RequirementError
  bool deep_fair_share_audit = false; ///< auditor re-solves from scratch (tests only)
  std::size_t trace_capacity_per_shim = 4096;
};

struct RoundMetrics {
  std::size_t round = 0;
  double workload_stddev_before = 0.0;  ///< Fig. 9/10 metric, pre-management
  double workload_stddev_after = 0.0;   ///< ... post-management
  double workload_mean = 0.0;
  std::size_t host_alerts = 0;
  std::size_t tor_alerts = 0;
  std::size_t switch_alerts = 0;
  std::size_t migrations = 0;
  std::size_t migration_requests = 0;
  std::size_t migration_rejects = 0;
  std::size_t reroutes = 0;
  double migration_cost = 0.0;     ///< Fig. 11/13 metric
  std::size_t search_space = 0;    ///< Fig. 12/14 metric
  double max_link_utilization = 0.0;
  std::size_t congested_switches = 0;
  std::size_t rate_limited_flows = 0;      ///< flows under a QCN cut this round
  double flow_satisfaction = 1.0;          ///< mean allocated/demand over offered flows
  double flow_fairness = 1.0;              ///< Jain's index over allocated rates
  std::size_t protocol_conflicts = 0;      ///< same-round reservation races resolved
  std::size_t protocol_iterations = 0;     ///< propose/decide/apply rounds used
  /// Cross-shard claims resolved by the ordered commit of the sharded
  /// manage phase (duplicate reroute claims on one hot switch dropped in
  /// favor of the lowest shim id). Deterministic and shard-count
  /// invariant; 0 on the legacy sweep.
  std::size_t shard_conflicts = 0;
  double migration_seconds = 0.0;          ///< summed live-migration wall time
  double migration_downtime_seconds = 0.0; ///< summed stop&copy suspensions
  // --- failure model (all zero on a pristine fabric) -----------------------
  std::size_t failed_links = 0;        ///< links unable to carry traffic this round
  std::size_t failed_switches = 0;     ///< switches currently crashed
  std::size_t orphaned_vms = 0;        ///< VMs on dead/cut-off hosts before recovery
  std::size_t unroutable_flows = 0;    ///< flows with no live path this round
  std::size_t protocol_drops = 0;      ///< REQUEST/ACK messages lost this round
  std::size_t protocol_retries = 0;    ///< re-proposals after message loss
  std::size_t recovery_migrations = 0; ///< orphaned VMs re-placed this round
};

/// Wall time spent in each stage of run_round, summed over all rounds run
/// so far. Feeds bench_scale's per-phase breakdown; not meant to be cheap
/// enough to leave on in inner loops (it is — two clock reads per phase).
struct PhaseProfile {
  std::uint64_t fault_ns = 0;       ///< fault events + liveness propagation
  std::uint64_t workload_ns = 0;    ///< trace advance + demand updates + routing
  std::uint64_t fair_share_ns = 0;  ///< max–min allocation
  /// Incremental-solver sub-phases of fair_share_ns: dirty detection +
  /// CSR/component upkeep vs the water-filling kernel proper.
  std::uint64_t fair_share_build_ns = 0;
  std::uint64_t fair_share_fill_ns = 0;
  std::uint64_t queue_ns = 0;       ///< switch queues + QCN rate control
  std::uint64_t predict_ns = 0;     ///< predictor observe + shim collect
  std::uint64_t manage_ns = 0;      ///< reroutes + migration protocol (total)
  /// kKMedian-mode sub-phases of manage_ns: planner row upkeep + the
  /// k-median solve, and the matching/scheduling of the chosen moves.
  std::uint64_t manage_kmedian_ns = 0;
  std::uint64_t manage_schedule_ns = 0;
  /// Sharded-manage sub-phases of manage_ns: wall time of each shard's
  /// parallel propose task (indexed by shard, summed over rounds) and of
  /// the serial ordered commit. Empty/zero on the legacy sweep.
  std::vector<std::uint64_t> manage_shard_propose_ns;
  std::uint64_t manage_commit_ns = 0;
  /// Migration decision kernel inside manage_ns: protocol matching runs,
  /// scheduler/manager migrate calls — the Eq. (1) evaluation load, as
  /// opposed to the kmedian solve and the sharded commit bookkeeping.
  /// (On the sharded-FCFS path the scheduler runs inside the commit pass,
  /// so there decision time is also part of manage_commit_ns.)
  std::uint64_t manage_decision_ns = 0;
  std::size_t rounds = 0;
};

/// Cumulative bookkeeping of the sharded manage phase. Every field is a
/// deterministic function of the run (and invariant to the shard count —
/// the ordered commit resolves claims identically however the propose
/// work was grouped), so the whole struct travels in checkpoints (section
/// SHRD) and must survive a resume byte-exactly.
struct ManageShardStats {
  std::uint64_t sharded_rounds = 0;     ///< rounds run through propose/commit
  std::uint64_t reroute_claims = 0;     ///< reroute claims proposed
  std::uint64_t reroute_commits = 0;    ///< claims that won the ordered commit
  std::uint64_t reroute_conflicts = 0;  ///< duplicate claims dropped
  std::uint64_t vm_claims = 0;          ///< VM migration claims proposed
  std::uint64_t vm_commits = 0;         ///< VM claims that won the ordered commit
  std::uint64_t vm_conflicts = 0;       ///< duplicate VM claims dropped
  std::vector<std::uint64_t> demands_by_rack;  ///< migration demands issued per managing rack
};

/// Shared read-only substrate for fleets of engines over one topology
/// (DESIGN.md §12). Everything here is *cold, immutable* input that is
/// expensive to derive and identical for every run: borrowing it never
/// changes a single output byte, it only skips redundant construction
/// work. All pointers are borrowed and must outlive every engine built
/// over the substrate.
struct EngineSubstrate {
  /// A maskless KMedianPlanner over the engine's topology whose ToR
  /// distance rows every borrowing engine reuses instead of running its
  /// own O(racks) Dijkstra sweep (kKMedian mode only; ignored otherwise).
  /// Borrowed only when the engine would never mutate the planner — i.e.
  /// no fault plan is bound (no liveness-driven refresh()); engines
  /// outside that envelope
  /// silently build their own planner, so a substrate is always safe to
  /// pass. plan() is const and data-race free, so concurrent fleet runs
  /// may share one planner.
  const KMedianPlanner* kmedian_planner = nullptr;
};

class DistributedEngine {
 public:
  /// The topology must outlive the engine.
  DistributedEngine(const topo::Topology& topo, const wl::DeploymentOptions& deployment_options,
                    EngineConfig config);
  /// Substrate-borrowing constructor: identical behavior, minus the cost
  /// of rebuilding whatever the substrate already holds.
  DistributedEngine(const topo::Topology& topo, const wl::DeploymentOptions& deployment_options,
                    EngineConfig config, const EngineSubstrate& substrate);

  /// Runs one management round; returns its metrics.
  RoundMetrics run_round();
  /// Runs `rounds` rounds.
  std::vector<RoundMetrics> run(std::size_t rounds);

  [[nodiscard]] const topo::Topology& topology() const noexcept { return *topo_; }
  [[nodiscard]] const wl::Deployment& deployment() const noexcept { return deployment_; }
  [[nodiscard]] std::span<const net::Flow> flows() const noexcept { return flows_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t rounds_run() const noexcept { return round_; }
  [[nodiscard]] const PhaseProfile& phase_profile() const noexcept { return profile_; }
  [[nodiscard]] const net::Router& router() const noexcept { return router_; }
  [[nodiscard]] const net::FairShareSolver& fair_share_solver() const noexcept {
    return solver_;
  }
  /// The manage-phase shard partition (resolved from EngineConfig::
  /// manage_shards at construction; a 1-shard plan when sharding is off).
  [[nodiscard]] const ManageShardPlan& shard_plan() const noexcept { return shard_plan_; }
  [[nodiscard]] const ManageShardStats& shard_stats() const noexcept { return shard_stats_; }

  /// Force-collects the alerted VM set of the *current* state (used by
  /// benches that want to hand the same alerts to both manager modes).
  [[nodiscard]] std::vector<wl::VmId> alerted_vms() const;

  /// The observation hub, or nullptr when observability is off
  /// (EngineConfig::observe/audit both false and SHERIFF_FORCE_AUDIT unset).
  [[nodiscard]] obs::ObservationHub* observation_hub() noexcept { return hub_.get(); }
  [[nodiscard]] const obs::ObservationHub* observation_hub() const noexcept {
    return hub_.get();
  }

  /// The fault injector driving this run, or nullptr on a pristine fabric.
  [[nodiscard]] const fault::FaultInjector* fault_injector() const noexcept {
    return injector_.get();
  }
  /// The rack whose shim currently manages `rack` (a live neighbor when the
  /// own shim is down), or topo::kInvalidRack when nobody can take over.
  [[nodiscard]] topo::RackId managing_rack(topo::RackId rack) const;

  /// Checkpoint hooks (see DESIGN.md §10). save_state serializes every
  /// piece of mutable cross-round state; load_state expects a freshly
  /// constructed engine over the *same* (topology, deployment options,
  /// config) — constructor-derived structure (VM population, dependency
  /// graph, flow table shape, shims) is validated via a fingerprint, not
  /// serialized. Caches (router trees/paths, cost-model Dijkstra trees and
  /// rack-prefix link memos, the per-round cost surface) resume cold: they
  /// are rebuilt on demand and never change results.
  /// The fault injector is restored by replaying its plan up to the saved
  /// round (trace-detached), which reproduces the LivenessMask bit for bit
  /// including its version counter. After load_state, run_round() continues
  /// the run bit-identically to one that never stopped.
  void save_state(snapshot::Writer& writer) const;
  void load_state(snapshot::Reader& reader);

 private:
  void build_flows();
  void update_flow_demands();
  void observe_and_predict();
  /// The pool the parallel sweeps run on (config override or the default).
  [[nodiscard]] common::ThreadPool& worker_pool() const;
  [[nodiscard]] std::unique_ptr<ProfilePredictor> make_predictor() const;
  void apply_fault_events(RoundMetrics& metrics);
  void recompute_takeovers();
  /// Round-boundary observability: publishes subsystem metrics into the
  /// hub's registry and runs the management-side audit. hub_ must be set.
  void publish_round(const RoundMetrics& metrics, std::span<const obs::AuditedMove> moves);
  /// True when the host is up and has at least one usable link.
  [[nodiscard]] bool host_attached(topo::NodeId host) const;
  /// VMs stranded on dead or cut-off hosts, grouped for recovery.
  [[nodiscard]] std::vector<wl::VmId> collect_orphans() const;
  /// Propose phase of the sharded manage sweep (DESIGN.md §11): every
  /// shard's shims run Alg. 1 as a pure propose() against the manage-entry
  /// round state, in parallel across shards. Returned vector is indexed by
  /// rack id; racks with no live manager keep an empty proposal.
  [[nodiscard]] std::vector<ShimProposal> propose_shards(
      std::span<const ShimCollectResult> collected);
  /// Commit phase: one serial pass ordered by shim id. Reroute claims
  /// commit first-claimant-wins (cross-shard duplicates become
  /// RoundMetrics::shard_conflicts); each non-empty migration set is handed
  /// to `schedule` (a demand push under kMessagePassing, an FCFS scheduler
  /// run under kSerializedFcfs).
  void commit_proposals(
      std::span<ShimProposal> proposals, RoundMetrics& metrics,
      const std::function<void(topo::RackId, std::vector<wl::VmId>)>& schedule);

  const topo::Topology* topo_;
  EngineConfig config_;
  wl::Deployment deployment_;
  net::Router router_;
  net::FlowRerouter rerouter_;
  net::SwitchQueues queues_;
  net::FairShareSolver solver_;
  net::QcnRateController rate_controller_;
  mig::MigrationCostModel cost_model_;
  std::vector<ShimController> shims_;
  std::vector<net::Flow> flows_;
  std::vector<wl::VmId> flow_owner_;  ///< source VM of each flow
  std::vector<wl::VmId> flow_peer_;   ///< destination VM of each flow
  std::vector<std::unique_ptr<ProfilePredictor>> predictors_;  ///< by VmId
  std::vector<wl::WorkloadProfile> predicted_;                 ///< by VmId
  std::vector<HoltScalar> tor_utilization_predictors_;         ///< by RackId
  std::vector<HoltScalar> tor_queue_predictors_;               ///< by RackId
  std::unique_ptr<fault::FaultInjector> injector_;  ///< null = pristine fabric
  std::unique_ptr<fault::LossyChannel> channel_;    ///< null = reliable messaging
  std::unique_ptr<KMedianPlanner> kmedian_planner_;          ///< kKMedian mode, owned (null when borrowed)
  /// The planner actually consulted (owned or substrate-borrowed); null
  /// outside kKMedian mode. Mutating calls (refresh/rebuild) only ever go
  /// to kmedian_planner_ — a borrowed planner is strictly read-only.
  const KMedianPlanner* kmedian_planner_view_ = nullptr;
  std::unique_ptr<KMedianMigrationManager> kmedian_manager_; ///< kKMedian mode only
  std::unique_ptr<obs::ObservationHub> hub_;        ///< null = observability off
  std::vector<topo::RackId> takeover_;              ///< managing rack per rack
  ManageShardPlan shard_plan_;
  ManageShardStats shard_stats_;
  std::size_t round_ = 0;
  PhaseProfile profile_;
  /// Last stats snapshot published to the metric registry (delta counters).
  KMedianMigrationManager::Stats published_kmedian_stats_;
  std::size_t published_planner_rebuilds_ = 0;
  mig::CostModelStats published_cost_stats_;
};

}  // namespace sheriff::core
