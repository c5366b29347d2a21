#include "core/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "obs/timing.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/rng_io.hpp"

namespace sheriff::core {

using PhaseTimer = obs::ScopedTimer;

DistributedEngine::DistributedEngine(const topo::Topology& topo,
                                     const wl::DeploymentOptions& deployment_options,
                                     EngineConfig config)
    : DistributedEngine(topo, deployment_options, config, EngineSubstrate{}) {}

DistributedEngine::DistributedEngine(const topo::Topology& topo,
                                     const wl::DeploymentOptions& deployment_options,
                                     EngineConfig config, const EngineSubstrate& substrate)
    : topo_(&topo),
      config_(config),
      deployment_(topo, deployment_options),
      router_(topo),
      rerouter_(router_),
      queues_(topo),
      solver_(topo),
      cost_model_(topo, deployment_, config.sheriff.cost) {
  solver_.set_thread_pool(&worker_pool());
  cost_model_.set_partner_rooted(config_.partner_rooted_costs);
  cost_model_.set_shared_leaf_trees(config_.shared_leaf_cost_trees);
  // Startup, not round, time: the ToR-rooted distance rows (and their
  // rack-prefix link memos) derive from the immutable pristine topology
  // only, so build them all here — the first manage round's decision
  // sweep then runs entirely against warm rows. Bit-identical to lazy
  // construction; profiling showed the cold builds were ~75% of the
  // first-round decision time on the k=24 fabric.
  for (topo::RackId r = 0; r < topo.rack_count(); ++r) {
    const topo::NodeId tor = topo.rack(r).tor;
    if (tor != topo::kInvalidNode) (void)cost_model_.distance_tree(tor);
  }
  // SHERIFF_FORCE_AUDIT=1 (the CI sanitizer job sets it) turns the
  // invariant auditor on in fail-fast mode for every engine, so the whole
  // tier-1 suite hard-fails on any conservation-law breach.
  if (const char* force = std::getenv("SHERIFF_FORCE_AUDIT");
      force != nullptr && force[0] == '1') {
    config_.audit = true;
    config_.audit_fail_fast = true;
  }
  if (config_.observe || config_.audit) {
    obs::ObservationConfig observation;
    observation.trace_capacity_per_shim = config_.trace_capacity_per_shim;
    observation.audit = config_.audit;
    observation.audit_options.fail_fast = config_.audit_fail_fast;
    observation.audit_options.deep_fair_share = config_.deep_fair_share_audit;
    hub_ = std::make_unique<obs::ObservationHub>(topo.rack_count(), observation);
  }
  shims_.reserve(topo.rack_count());
  for (topo::RackId r = 0; r < topo.rack_count(); ++r) {
    shims_.emplace_back(r, topo, config.sheriff);
    if (hub_ != nullptr) shims_.back().set_trace(&hub_->trace());
  }
  predictors_.reserve(deployment_.vm_count());
  for (std::size_t i = 0; i < deployment_.vm_count(); ++i) {
    predictors_.push_back(make_predictor());
  }
  predicted_.resize(deployment_.vm_count());
  tor_utilization_predictors_.resize(topo.rack_count());
  tor_queue_predictors_.resize(topo.rack_count());
  if (config_.fault_plan != nullptr) {
    injector_ = std::make_unique<fault::FaultInjector>(topo, *config_.fault_plan);
    if (hub_ != nullptr) injector_->set_trace(&hub_->trace());
    const fault::FaultOptions& fault_options = config_.fault_plan->options();
    if (fault_options.message_drop_probability > 0.0) {
      channel_ = std::make_unique<fault::LossyChannel>(fault_options.message_drop_probability,
                                                       fault_options.seed);
    }
    router_.apply_liveness(&injector_->liveness());
    queues_.set_liveness(&injector_->liveness());
    for (ShimController& shim : shims_) shim.set_liveness(&injector_->liveness());
    takeover_.resize(topo.rack_count());
    recompute_takeovers();
  }
  // Shard plan: a pure function of (rack_count, shard_count). 0 = auto
  // (min(8, racks)). The shard count only partitions the propose sweep —
  // results are byte-identical for every value (DESIGN.md §11) — so it is
  // excluded from the checkpoint fingerprint, like the pool size.
  {
    const std::size_t requested = config_.manage_shards != 0
                                      ? config_.manage_shards
                                      : std::min<std::size_t>(8, topo.rack_count());
    shard_plan_ = ManageShardPlan(topo.rack_count(), config_.sharded_manage ? requested : 1);
    profile_.manage_shard_propose_ns.assign(shard_plan_.shard_count(), 0);
    shard_stats_.demands_by_rack.assign(topo.rack_count(), 0);
  }
  if (config_.mode == ManagerMode::kKMedian) {
    // The planner's ToR rows are computed once here and shared across
    // rounds (a fault plan refreshes them when the liveness mask moves);
    // the row sweep gets the worker pool: the rows do not depend on it. A
    // fleet substrate can lend its pre-built maskless planner instead, but
    // only inside the envelope where this engine would never mutate one: a
    // pristine fabric (no liveness-driven refresh()). The borrowed rows are
    // identical to the ones an owned build would produce — the row sweep
    // is pool-size invariant and the mask-free graph is the same — so
    // borrowed and owned engines are byte-identical (tests/test_fleet.cpp
    // pins it).
    const bool borrow = substrate.kmedian_planner != nullptr && config_.fault_plan == nullptr;
    if (borrow) {
      SHERIFF_REQUIRE(
          substrate.kmedian_planner->rack_distances().size() == topo.rack_count(),
          "substrate k-median planner was built over a different topology");
      kmedian_planner_view_ = substrate.kmedian_planner;
    } else {
      KMedianPlannerOptions planner_options;
      planner_options.pool = &worker_pool();
      planner_options.liveness = injector_ != nullptr ? &injector_->liveness() : nullptr;
      // Pristine fabrics share the cost model's distance rows (identical
      // values, one source of truth); faulted ones need masked sweeps.
      planner_options.shared_rows = injector_ == nullptr ? &cost_model_ : nullptr;
      kmedian_planner_ = std::make_unique<KMedianPlanner>(topo, planner_options);
      kmedian_planner_view_ = kmedian_planner_.get();
    }
    KMedianMigrationManager::Options manager_options;
    manager_options.destination_racks = config_.kmedian_destination_racks;
    manager_options.local_search_p = config_.kmedian_swap_p;
    manager_options.max_evaluations = config_.kmedian_max_evaluations;
    manager_options.liveness = injector_ != nullptr ? &injector_->liveness() : nullptr;
    kmedian_manager_ = std::make_unique<KMedianMigrationManager>(
        deployment_, cost_model_, *kmedian_planner_view_, manager_options);
  }
  build_flows();
}

topo::RackId DistributedEngine::managing_rack(topo::RackId rack) const {
  SHERIFF_REQUIRE(rack < topo_->rack_count(), "rack out of range");
  return injector_ == nullptr ? rack : takeover_[rack];
}

void DistributedEngine::recompute_takeovers() {
  for (topo::RackId r = 0; r < topo_->rack_count(); ++r) {
    if (!injector_->shim_down(r)) {
      takeover_[r] = r;
      continue;
    }
    // Neighbor-region takeover: the lowest-numbered one-hop neighbor with a
    // live shim adopts the rack. No live neighbor means the rack runs
    // unmanaged until a shim recovers.
    takeover_[r] = topo::kInvalidRack;
    auto neighbors = topo_->neighbor_racks(r);
    std::sort(neighbors.begin(), neighbors.end());
    for (topo::RackId n : neighbors) {
      if (!injector_->shim_down(n)) {
        takeover_[r] = n;
        break;
      }
    }
    if (hub_ != nullptr) {
      hub_->trace().emit(obs::EventTrace::kEngine, obs::EventType::kShimTakeover, r,
                         takeover_[r]);
    }
  }
}

bool DistributedEngine::host_attached(topo::NodeId host) const {
  return injector_ == nullptr || injector_->liveness().host_attached(*topo_, host);
}

std::vector<wl::VmId> DistributedEngine::collect_orphans() const {
  std::vector<wl::VmId> orphans;
  if (injector_ == nullptr || injector_->liveness().all_up()) return orphans;
  for (topo::NodeId h : topo_->nodes_of_kind(topo::NodeKind::kHost)) {
    if (host_attached(h)) continue;
    const auto& stranded = deployment_.vms_on_host(h);
    orphans.insert(orphans.end(), stranded.begin(), stranded.end());
  }
  return orphans;
}

void DistributedEngine::apply_fault_events(RoundMetrics& metrics) {
  const fault::InjectionReport report = injector_->advance(metrics.round);
  if (report.fabric_changed) {
    // Tear down routes crossing a link that just became unusable; step 1
    // re-routes them over the surviving fabric (or counts them as
    // unroutable). Every routed path was live before this event (auditor
    // check 9), so only a removed link can kill one: recovery-only events
    // skip the scan, and a hop needs a link lookup only when both of its
    // ends touch a removed link.
    const net::Router::LivenessDelta delta = router_.refresh_liveness();
    if (!delta.removed.empty()) {
      const topo::LivenessMask& mask = injector_->liveness();
      std::vector<bool> near_removed(topo_->node_count(), false);
      for (topo::LinkId l : delta.removed) {
        near_removed[topo_->link(l).a] = true;
        near_removed[topo_->link(l).b] = true;
      }
      for (net::Flow& flow : flows_) {
        if (!flow.routed()) continue;
        bool live = true;
        for (std::size_t i = 0; live && i + 1 < flow.path.size(); ++i) {
          const topo::NodeId a = flow.path[i];
          const topo::NodeId b = flow.path[i + 1];
          if (near_removed[a] && near_removed[b]) {
            live = mask.link_usable(*topo_, topo_->link_between(a, b));
          }
        }
        if (!live) flow.path.clear();
      }
    }
  }
  if (report.fabric_changed || report.shims_changed) recompute_takeovers();
  metrics.failed_links = injector_->failed_link_count();
  metrics.failed_switches = injector_->failed_switch_count();
}

std::unique_ptr<ProfilePredictor> DistributedEngine::make_predictor() const {
  switch (config_.predictor) {
    case PredictorKind::kHolt: return std::make_unique<HoltProfilePredictor>();
    case PredictorKind::kEnsemble: return std::make_unique<EnsembleProfilePredictor>();
    case PredictorKind::kNaive: return std::make_unique<NaiveProfilePredictor>();
  }
  SHERIFF_REQUIRE(false, "unknown predictor kind");
  return nullptr;
}

void DistributedEngine::build_flows() {
  // One flow per dependency edge (a < b to avoid duplicates): dependent
  // VMs communicate, and their traffic feature drives the demand.
  const auto& deps = deployment_.dependencies();
  for (wl::VmId a = 0; a < deployment_.vm_count(); ++a) {
    for (wl::VmId b : deps.neighbors(a)) {
      if (a >= b) continue;
      net::Flow flow;
      flow.id = static_cast<net::FlowId>(flows_.size());
      flow.src_host = deployment_.vm(a).host;
      flow.dst_host = deployment_.vm(b).host;
      flow.delay_sensitive =
          deployment_.vm(a).delay_sensitive || deployment_.vm(b).delay_sensitive;
      flows_.push_back(std::move(flow));
      flow_owner_.push_back(a);
      flow_peer_.push_back(b);
    }
  }
  router_.route_all(flows_);
}

void DistributedEngine::update_flow_demands() {
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    const double trf = deployment_.vm(flow_owner_[f]).profile[wl::Feature::kTraffic];
    const double demand = config_.flow_demand_scale_gbps * trf;
    // Skip-write unchanged demands: the incremental fair-share solver's
    // dirty detection is value-based, so an equal store would be re-marked
    // clean anyway — but leaving the field untouched keeps this loop
    // honest about churn and lets the solver report reused_flows.
    if (flows_[f].demand_gbps != demand) flows_[f].demand_gbps = demand;
  }
}

common::ThreadPool& DistributedEngine::worker_pool() const {
  return config_.pool != nullptr ? *config_.pool : common::default_pool();
}

void DistributedEngine::observe_and_predict() {
  const std::size_t n = deployment_.vm_count();
  common::parallel_for(n > 256 ? &worker_pool() : nullptr, n, [&](std::size_t i) {
    predictors_[i]->observe(deployment_.vm(static_cast<wl::VmId>(i)).profile);
    predicted_[i] = predictors_[i]->ready()
                        ? predictors_[i]->predict(config_.sheriff.prediction_horizon)
                        : deployment_.vm(static_cast<wl::VmId>(i)).profile;
  });
}

std::vector<wl::VmId> DistributedEngine::alerted_vms() const {
  const AlertScheme scheme(config_.sheriff.vm_alert_threshold);
  std::vector<wl::VmId> out;
  for (std::size_t i = 0; i < predicted_.size(); ++i) {
    if (scheme.fires(predicted_[i])) out.push_back(static_cast<wl::VmId>(i));
  }
  return out;
}

RoundMetrics DistributedEngine::run_round() {
  RoundMetrics metrics;
  metrics.round = round_++;
  if (hub_ != nullptr) hub_->trace().set_round(static_cast<std::uint32_t>(metrics.round));

  // 0. Fault schedule: apply this round's due events, propagate the new
  //    liveness to the router, and tear down routes over dead elements.
  if (injector_ != nullptr) {
    PhaseTimer timer(profile_.fault_ns);
    apply_fault_events(metrics);
  }

  // 1. Workloads evolve; flows track the new traffic levels and any
  //    migrated endpoints.
  {
    PhaseTimer timer(profile_.workload_ns);
    deployment_.advance(&worker_pool());
    for (std::size_t f = 0; f < flows_.size(); ++f) {
      net::Flow& flow = flows_[f];
      const topo::NodeId src = deployment_.vm(flow_owner_[f]).host;
      const topo::NodeId dst = deployment_.vm(flow_peer_[f]).host;
      if (flow.src_host != src || flow.dst_host != dst) {
        flow.src_host = src;
        flow.dst_host = dst;
        flow.path.clear();
      }
    }
    update_flow_demands();
    for (net::Flow& flow : flows_) {
      if (!flow.routed()) router_.route(flow);
    }
    if (injector_ != nullptr) {
      for (const net::Flow& flow : flows_) {
        if (flow.src_host != flow.dst_host && !flow.routed()) ++metrics.unroutable_flows;
      }
    }
  }

  // 2. Network state: fair share + queue/QCN update, then the end-host
  //    reaction point adjusts rate limits for the next period. The
  //    incremental solver re-waterfills only the components touched since
  //    last round.
  const topo::LivenessMask* liveness =
      injector_ != nullptr ? &injector_->liveness() : nullptr;
  const net::FairShareResult* shares_ptr;
  {
    PhaseTimer timer(profile_.fair_share_ns);
    shares_ptr = &solver_.solve(flows_, liveness);
    profile_.fair_share_build_ns = solver_.timings().build_ns;
    profile_.fair_share_fill_ns = solver_.timings().fill_ns;
  }
  const net::FairShareResult& shares = *shares_ptr;
  // Network-state invariants are checked here, while flows' paths and rate
  // limits are exactly what the allocation saw: the QCN update below moves
  // rate limits, and management reroutes change paths mid-round.
  if (hub_ != nullptr && hub_->auditor() != nullptr) {
    obs::InvariantAuditor::RoundInputs inputs;
    inputs.round = static_cast<std::uint32_t>(metrics.round);
    inputs.deployment = &deployment_;
    inputs.flows = flows_;
    inputs.shares = shares_ptr;
    inputs.solver = &solver_;
    inputs.liveness = liveness;
    hub_->auditor()->audit_network(inputs);
  }
  std::vector<topo::NodeId> congested;
  {
    PhaseTimer timer(profile_.queue_ns);
    queues_.update(shares, flows_, 1.0, &worker_pool());
    // QoS is measured against the demands the allocator actually saw: the
    // QCN reaction point below tightens rate limits for the *next* period,
    // and a freshly lowered limit would read as allocated/demand > 1.
    const auto qos = net::compute_qos_stats(flows_);
    metrics.flow_satisfaction = qos.mean_satisfaction;
    metrics.flow_fairness = qos.jain_fairness;
    if (config_.qcn_rate_control) {
      rate_controller_.update(flows_, queues_);
      metrics.rate_limited_flows = rate_controller_.tracked_flows();
    }
    congested = queues_.congested_switches();
    metrics.congested_switches = congested.size();
    for (double u : shares.link_utilization) {
      metrics.max_link_utilization = std::max(metrics.max_link_utilization, u);
    }
  }

  // 3. Prediction + alert collection (parallel across racks).
  std::optional<PhaseTimer> predict_timer(std::in_place, profile_.predict_ns);
  observe_and_predict();
  metrics.workload_stddev_before = deployment_.workload_stddev();
  metrics.workload_mean = deployment_.workload_mean();

  // Pre-filter congestion feedback per rack: scan flows once, not per shim.
  std::vector<std::vector<topo::NodeId>> rack_hot(topo_->rack_count());
  if (!congested.empty()) {
    for (std::size_t f = 0; f < flows_.size(); ++f) {
      if (!flows_[f].routed()) continue;
      const topo::RackId owner_rack = topo_->node(flows_[f].src_host).rack;
      for (topo::NodeId sw : congested) {
        if (!flows_[f].transits(sw)) continue;
        auto& list = rack_hot[owner_rack];
        if (std::find(list.begin(), list.end(), sw) == list.end()) list.push_back(sw);
      }
    }
  }

  // Per-rack ToR signal prediction (Sec. IV-A): feed this round's uplink
  // utilization and queue length into the scalar predictors, then hand the
  // shims their T-ahead extrapolations.
  const double fleet_mean = deployment_.workload_mean();
  std::vector<ShimController::Observation> observations(shims_.size());
  for (topo::RackId r = 0; r < topo_->rack_count(); ++r) {
    const topo::NodeId tor = topo_->rack(r).tor;
    double utilization = 0.0;
    for (topo::LinkId l : topo_->links_of(tor)) {
      const topo::NodeId other = topo_->peer(l, tor);
      if (!topo::is_switch(topo_->node(other).kind)) continue;
      utilization = std::max(utilization, shares.link_utilization[l]);
    }
    tor_utilization_predictors_[r].observe(utilization);
    tor_queue_predictors_[r].observe(queues_.queue_length(tor));

    auto& obs = observations[r];
    obs.shares = &shares;
    obs.hot_switches = rack_hot[r];
    obs.fleet_mean_load_percent = fleet_mean;
    obs.tor_queue_equilibrium = queues_.config().equilibrium_queue;
    if (tor_utilization_predictors_[r].ready()) {
      obs.predicted_tor_utilization = std::max(
          0.0, tor_utilization_predictors_[r].predict(config_.sheriff.prediction_horizon));
      obs.predicted_tor_queue = std::max(
          0.0, tor_queue_predictors_[r].predict(config_.sheriff.prediction_horizon));
    }
  }

  std::vector<ShimCollectResult> collected(shims_.size());
  common::parallel_for(shims_.size() > 8 ? &worker_pool() : nullptr, shims_.size(),
                       [&](std::size_t s) {
                         collected[s] = shims_[s].collect(deployment_, predicted_, observations[s]);
                       });
  for (std::size_t s = 0; s < shims_.size(); ++s) shims_[s].record_alerts(collected[s]);
  predict_timer.reset();
  std::optional<PhaseTimer> manage_timer(std::in_place, profile_.manage_ns);

  // 4. Management actions. VMs stranded on dead or cut-off hosts are
  //    re-placed through the same machinery as alert-driven migrations (a
  //    control-plane restart from shared storage, so a severed source does
  //    not block it); `orphans` stays sorted for the recovery accounting.
  std::vector<wl::VmId> orphans = collect_orphans();
  std::sort(orphans.begin(), orphans.end());
  metrics.orphaned_vms = orphans.size();
  const auto count_recoveries = [&](const MigrationPlan& plan) {
    if (orphans.empty()) return;
    for (const MigrationMove& move : plan.moves) {
      if (std::binary_search(orphans.begin(), orphans.end(), move.vm)) {
        ++metrics.recovery_migrations;
      }
    }
  };
  // Orphans grouped by the rack of their stranded host; each group becomes
  // a recovery demand issued by the rack's managing shim.
  std::vector<std::vector<wl::VmId>> orphans_by_rack;
  if (!orphans.empty()) {
    orphans_by_rack.resize(topo_->rack_count());
    for (wl::VmId vm : orphans) {
      orphans_by_rack[topo_->node(deployment_.vm(vm).host).rack].push_back(vm);
    }
  }

  // Committed moves become MigrationCompleted trace events, and (with the
  // auditor on) the round's move list for the management-side checks.
  std::vector<obs::AuditedMove> audited_moves;
  const auto observe_plan = [&](const MigrationPlan& plan) {
    if (hub_ == nullptr) return;
    for (const MigrationMove& move : plan.moves) {
      hub_->trace().emit(obs::EventTrace::kEngine, obs::EventType::kMigrationCompleted,
                         move.vm, move.to, move.cost);
      if (hub_->auditor() != nullptr) {
        audited_moves.push_back({move.vm, move.from, move.to, move.cost,
                                 move.duration_seconds, move.downtime_seconds});
      }
    }
  };

  cost_model_.set_bandwidth_state(&shares);
  if (config_.mode == ManagerMode::kSheriff) {
    const auto account_plan = [&](const MigrationPlan& plan) {
      metrics.migrations += plan.moves.size();
      metrics.migration_requests += plan.requests;
      metrics.migration_rejects += plan.rejects;
      metrics.migration_cost += plan.total_cost;
      metrics.search_space += plan.search_space;
      metrics.migration_seconds += plan.total_duration_seconds;
      metrics.migration_downtime_seconds += plan.total_downtime_seconds;
      observe_plan(plan);
    };
    // The protocol decides what scheduling a migration set means. A rack
    // whose shim is down is handled by its takeover neighbor `mgr`: the
    // set is attributed to the neighbor and placed in *its* region.
    const bool message_passing = config_.protocol == MigrationProtocol::kMessagePassing;
    std::vector<MigrationDemand> demands;
    std::function<void(topo::RackId, std::vector<wl::VmId>)> schedule;
    if (message_passing) {
      // A demand for the one distributed propose/decide/apply run below.
      schedule = [&](topo::RackId mgr, std::vector<wl::VmId> set) {
        demands.push_back(
            {shims_[mgr].rack(), std::move(set), shims_[mgr].migration_targets(deployment_)});
      };
    } else {
      // An immediate FCFS scheduler run through the shared admission broker.
      // Each VM is scheduled at most once per round — the first set naming
      // it, in shim order, wins — as the message-passing protocol does
      // across its demands: on the legacy sweep a later shim's selection
      // sees the VMs an earlier shim just moved onto its hosts.
      schedule = [&, broker = mig::AdmissionBroker(deployment_),
                  scheduled = std::vector<bool>(deployment_.vm_count(), false)](
                     topo::RackId mgr, std::vector<wl::VmId> set) mutable {
        std::erase_if(set, [&](wl::VmId vm) {
          const bool again = scheduled[vm];
          scheduled[vm] = true;
          return again;
        });
        VmMigrationScheduler scheduler(deployment_, cost_model_, broker,
                                       config_.sheriff.max_matching_rounds);
        MigrationPlan plan;
        {
          PhaseTimer decision_timer(profile_.manage_decision_ns);
          plan = scheduler.migrate(std::move(set), shims_[mgr].migration_targets(deployment_));
        }
        account_plan(plan);
        count_recoveries(plan);
      };
    }
    if (config_.sharded_manage) {
      // Sharded two-phase sweep (DESIGN.md §11): parallel pure propose per
      // shard, serial commit ordered by shim id. Under kSerializedFcfs the
      // scheduler runs inside the commit pass, so there decision time is
      // also part of manage_commit_ns.
      std::vector<ShimProposal> proposals = propose_shards(collected);
      PhaseTimer commit_timer(profile_.manage_commit_ns);
      commit_proposals(proposals, metrics, schedule);
    } else {
      // Legacy interleaved sweep (serial: reroutes, and FCFS moves, touch
      // shared state between alert dispatches) — the bench baseline leg.
      for (std::size_t s = 0; s < shims_.size(); ++s) {
        const topo::RackId mgr = managing_rack(static_cast<topo::RackId>(s));
        if (mgr == topo::kInvalidRack) continue;  // unmanaged until a shim recovers
        auto selection = shims_[s].select(collected[s], deployment_, predicted_, rerouter_,
                                          flows_, flow_owner_);
        metrics.host_alerts += selection.host_alerts;
        metrics.tor_alerts += selection.tor_alerts;
        metrics.switch_alerts += selection.switch_alerts;
        metrics.reroutes += selection.reroutes.rerouted;
        if (!selection.migration_set.empty()) schedule(mgr, std::move(selection.migration_set));
      }
    }
    for (std::size_t r = 0; r < orphans_by_rack.size(); ++r) {
      if (orphans_by_rack[r].empty()) continue;
      const topo::RackId mgr = managing_rack(static_cast<topo::RackId>(r));
      if (mgr == topo::kInvalidRack) continue;
      schedule(mgr, std::move(orphans_by_rack[r]));
    }
    if (message_passing) {
      DistributedMigrationProtocol protocol(
          deployment_, cost_model_, config_.sheriff, &worker_pool(), channel_.get(),
          config_.fault_plan != nullptr ? config_.fault_plan->options().max_protocol_retries
                                        : 0,
          hub_ != nullptr ? &hub_->trace() : nullptr);
      ProtocolResult outcome;
      {
        PhaseTimer decision_timer(profile_.manage_decision_ns);
        outcome = protocol.run(std::move(demands));
      }
      account_plan(outcome.plan);
      count_recoveries(outcome.plan);
      metrics.protocol_conflicts += outcome.conflicts;
      metrics.protocol_iterations = outcome.iterations;
      metrics.protocol_drops = outcome.drops;
      metrics.protocol_retries = outcome.retries;
    }
  } else {
    // Centralized baselines (kCentralized, kKMedian): the same per-rack
    // alert collection feeds one manager with the global view; host alerts
    // of every rack are gathered through PRIORITY's single-VM rule applied
    // per host, ToR/switch alerts per rack. A rack whose shim died
    // unreplaced reports nothing — monitoring is lost too.
    std::vector<wl::VmId> global_set;
    for (std::size_t s = 0; s < shims_.size(); ++s) {
      if (injector_ != nullptr && takeover_[s] == topo::kInvalidRack) continue;
      for (const Alert& alert : collected[s].alerts) {
        metrics.host_alerts += alert.source == AlertSource::kHost ? 1 : 0;
        metrics.tor_alerts += alert.source == AlertSource::kLocalTor ? 1 : 0;
        metrics.switch_alerts += alert.source == AlertSource::kOuterSwitch ? 1 : 0;
      }
      // The global manager migrates every VM whose own ALERT fired.
      for (std::size_t i = 0; i < collected[s].rack_vms.size(); ++i) {
        if (collected[s].vm_alert_values[i] > 0.0 &&
            !deployment_.vm(collected[s].rack_vms[i]).delay_sensitive) {
          global_set.push_back(collected[s].rack_vms[i]);
        }
      }
    }
    // Orphans are re-placed unconditionally (their host is gone, so even
    // delay-sensitive VMs must restart elsewhere). collect() skipped their
    // hosts, so no VM appears twice.
    global_set.insert(global_set.end(), orphans.begin(), orphans.end());
    MigrationPlan plan;
    if (config_.mode == ManagerMode::kKMedian) {
      // Sec. V-A: planner row upkeep + the k-median solve are the
      // manage_kmedian sub-phase; matching/scheduling is manage_schedule.
      {
        PhaseTimer timer(profile_.manage_kmedian_ns);
        // Row upkeep mutates the planner, so it only applies to an owned
        // one. A borrowed (substrate) planner is maskless by contract —
        // refresh() on it would be a no-op anyway.
        if (kmedian_planner_ != nullptr) kmedian_planner_->refresh();
      }
      const KMedianMigrationManager::Stats& stats = kmedian_manager_->stats();
      const std::uint64_t kmedian_before = stats.kmedian_ns;
      const std::uint64_t schedule_before = stats.schedule_ns;
      {
        PhaseTimer decision_timer(profile_.manage_decision_ns);
        plan = kmedian_manager_->migrate(std::move(global_set));
      }
      profile_.manage_kmedian_ns += stats.kmedian_ns - kmedian_before;
      profile_.manage_schedule_ns += stats.schedule_ns - schedule_before;
    } else {
      CentralizedManager manager(deployment_, cost_model_, config_.sheriff);
      if (injector_ != nullptr) manager.set_liveness(&injector_->liveness());
      PhaseTimer decision_timer(profile_.manage_decision_ns);
      plan = manager.migrate(std::move(global_set));
    }
    count_recoveries(plan);
    observe_plan(plan);
    metrics.migrations += plan.moves.size();
    metrics.migration_requests += plan.requests;
    metrics.migration_rejects += plan.rejects;
    metrics.migration_cost += plan.total_cost;
    metrics.search_space += plan.search_space;
    metrics.migration_seconds += plan.total_duration_seconds;
    metrics.migration_downtime_seconds += plan.total_downtime_seconds;
  }
  cost_model_.set_bandwidth_state(nullptr);
  manage_timer.reset();

  metrics.workload_stddev_after = deployment_.workload_stddev();
  if (hub_ != nullptr) publish_round(metrics, audited_moves);
  ++profile_.rounds;
  return metrics;
}

std::vector<ShimProposal> DistributedEngine::propose_shards(
    std::span<const ShimCollectResult> collected) {
  // Per-rack flow index: the indices of the flows owned by each rack's
  // VMs, ascending — each shim's switch-alert F-set scan becomes O(own
  // flows) instead of O(all flows). Built serially so the index order (and
  // therefore every F-set) is independent of the shard count.
  std::vector<std::vector<std::size_t>> rack_flows(topo_->rack_count());
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    rack_flows[topo_->node(deployment_.vm(flow_owner_[f]).host).rack].push_back(f);
  }
  std::vector<ShimProposal> proposals(shims_.size());
  const auto propose_shard = [&](std::size_t shard) {
    PhaseTimer timer(profile_.manage_shard_propose_ns[shard]);
    for (topo::RackId s : shard_plan_.racks_of(shard)) {
      if (managing_rack(s) == topo::kInvalidRack) continue;
      proposals[s] = shims_[s].propose(collected[s], deployment_, predicted_, flows_,
                                       flow_owner_, rack_flows[s]);
    }
  };
  // propose() is pure (no flow mutation, no trace emission, no tallies), so
  // the shards can run concurrently over the same round state.
  common::parallel_for(&worker_pool(), shard_plan_.shard_count(), propose_shard);
  return proposals;
}

void DistributedEngine::commit_proposals(
    std::span<ShimProposal> proposals, RoundMetrics& metrics,
    const std::function<void(topo::RackId, std::vector<wl::VmId>)>& schedule) {
  // Serial apply, totally ordered by shim id: the one place the sharded
  // sweep touches shared state, so the outcome is the same for every shard
  // count. Both claim kinds commit first-claimant-wins — each hot switch
  // is rerouted once per round, and each VM migrates at most once per
  // round (one shim can claim a tenant twice: the host-alert single-VM
  // rule and the ToR budget pass may pick the same VM). Losing claims are
  // resolved as shard conflicts instead of re-applied.
  std::vector<bool> switch_claimed(topo_->node_count(), false);
  std::vector<bool> vm_claimed(deployment_.vm_count(), false);
  for (std::size_t s = 0; s < proposals.size(); ++s) {
    const topo::RackId mgr = managing_rack(static_cast<topo::RackId>(s));
    if (mgr == topo::kInvalidRack) continue;
    ShimProposal& proposal = proposals[s];
    metrics.host_alerts += proposal.host_alerts;
    metrics.tor_alerts += proposal.tor_alerts;
    metrics.switch_alerts += proposal.switch_alerts;
    shard_stats_.reroute_claims += proposal.reroute_claims.size();
    for (topo::NodeId hot : proposal.reroute_claims) {
      if (switch_claimed[hot]) {
        ++metrics.shard_conflicts;
        ++shard_stats_.reroute_conflicts;
        continue;
      }
      switch_claimed[hot] = true;
      ++shard_stats_.reroute_commits;
      metrics.reroutes += shims_[s].apply_reroute(hot, rerouter_, flows_).rerouted;
    }
    shard_stats_.vm_claims += proposal.migration_set.size();
    std::vector<wl::VmId> migration_set;
    migration_set.reserve(proposal.migration_set.size());
    for (wl::VmId vm : proposal.migration_set) {
      if (vm_claimed[vm]) {
        ++metrics.shard_conflicts;
        ++shard_stats_.vm_conflicts;
        continue;
      }
      vm_claimed[vm] = true;
      ++shard_stats_.vm_commits;
      migration_set.push_back(vm);
    }
    if (migration_set.empty()) continue;
    ++shard_stats_.demands_by_rack[mgr];
    schedule(mgr, std::move(migration_set));
  }
  ++shard_stats_.sharded_rounds;
}

void DistributedEngine::publish_round(const RoundMetrics& metrics,
                                      std::span<const obs::AuditedMove> moves) {
  obs::MetricRegistry& registry = hub_->registry();
  registry.gauge("engine.rounds").set(static_cast<double>(round_));
  registry.counter("engine.migrations").add(metrics.migrations);
  registry.counter("engine.reroutes").add(metrics.reroutes);
  registry.counter("engine.host_alerts").add(metrics.host_alerts);
  registry.counter("engine.tor_alerts").add(metrics.tor_alerts);
  registry.counter("engine.switch_alerts").add(metrics.switch_alerts);
  registry.counter("engine.migration_requests").add(metrics.migration_requests);
  registry.counter("engine.migration_rejects").add(metrics.migration_rejects);
  registry.counter("engine.protocol_drops").add(metrics.protocol_drops);
  registry.counter("engine.protocol_retries").add(metrics.protocol_retries);
  registry.counter("engine.recovery_migrations").add(metrics.recovery_migrations);
  // Shard bookkeeping: every value here is shard-count invariant (the
  // propose/commit sweep produces identical results for any shard count),
  // so publishing it keeps checkpoints byte-comparable across shard counts.
  registry.counter("engine.shard_conflicts").add(metrics.shard_conflicts);
  registry.gauge("manage.sharded_rounds").set(static_cast<double>(shard_stats_.sharded_rounds));
  registry.gauge("manage.reroute_claims").set(static_cast<double>(shard_stats_.reroute_claims));
  registry.gauge("manage.reroute_commits").set(static_cast<double>(shard_stats_.reroute_commits));
  registry.gauge("manage.reroute_conflicts")
      .set(static_cast<double>(shard_stats_.reroute_conflicts));
  registry.gauge("engine.workload_stddev").set(metrics.workload_stddev_after);
  registry.gauge("engine.max_link_utilization").set(metrics.max_link_utilization);
  registry.gauge("engine.flow_satisfaction").set(metrics.flow_satisfaction);
  registry.gauge("engine.flow_fairness").set(metrics.flow_fairness);
  registry
      .histogram("engine.round_migration_cost", {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0})
      .observe(metrics.migration_cost);
  registry.gauge("trace.emitted").set(static_cast<double>(hub_->trace().total_emitted()));
  registry.gauge("trace.dropped").set(static_cast<double>(hub_->trace().total_dropped()));
  if (kmedian_manager_ != nullptr) {
    const KMedianMigrationManager::Stats& stats = kmedian_manager_->stats();
    registry.counter("kmedian.plans").add(stats.plans - published_kmedian_stats_.plans);
    registry.counter("kmedian.evaluations")
        .add(stats.evaluations - published_kmedian_stats_.evaluations);
    registry.counter("kmedian.cap_hits").add(stats.cap_hits - published_kmedian_stats_.cap_hits);
    registry.counter("kmedian.planner_rebuilds")
        .add(kmedian_planner_view_->rebuilds() - published_planner_rebuilds_);
    published_kmedian_stats_ = stats;
    published_planner_rebuilds_ = kmedian_planner_view_->rebuilds();
  }
  {
    // Per-round deltas of the decision-kernel counters. The pruning-
    // losslessness identity (evaluated_on + pruned_on == evaluated_off,
    // pruned_off == 0) is checked in tests over these published values.
    const mig::CostModelStats cost = cost_model_.stats();
    registry.counter("cost.evaluated").add(cost.evaluated - published_cost_stats_.evaluated);
    registry.counter("cost.pruned").add(cost.pruned - published_cost_stats_.pruned);
    registry.counter("cost.surface_builds")
        .add(cost.surface_builds - published_cost_stats_.surface_builds);
    published_cost_stats_ = cost;
  }
  solver_.publish_metrics(registry);
  router_.publish_metrics(registry);
  queues_.publish_metrics(registry);
  if (injector_ != nullptr) injector_->publish_metrics(registry);
  for (const ShimController& shim : shims_) shim.publish_metrics(registry);

  if (hub_->auditor() != nullptr) {
    obs::InvariantAuditor::RoundInputs inputs;
    inputs.round = static_cast<std::uint32_t>(metrics.round);
    inputs.deployment = &deployment_;
    inputs.moves = moves;
    hub_->auditor()->audit_management(inputs);
  }
}

std::vector<RoundMetrics> DistributedEngine::run(std::size_t rounds) {
  std::vector<RoundMetrics> out;
  out.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) out.push_back(run_round());
  return out;
}

// --- checkpoint/restore (DESIGN.md §10) -------------------------------------

namespace {
// Section schema versions. Bump a section's version whenever its payload
// layout changes; load_state rejects skew loudly via expect_section.
// META v3 dropped v2's fair-share-mode fingerprint bool: the from-scratch
// fair-share path it recorded no longer exists.
constexpr std::uint32_t kMetaVersion = 3;
constexpr std::uint32_t kDeploymentVersion = 1;
constexpr std::uint32_t kFlowVersion = 1;
constexpr std::uint32_t kFaultVersion = 1;
constexpr std::uint32_t kFairShareVersion = 2;
constexpr std::uint32_t kQueueVersion = 1;
constexpr std::uint32_t kPredictVersion = 1;
constexpr std::uint32_t kShimVersion = 1;
constexpr std::uint32_t kShardVersion = 1;
constexpr std::uint32_t kObsVersion = 1;

void put_holt_scalar(snapshot::Writer& writer, const HoltScalar& scalar) {
  const HoltScalar::State s = scalar.state();
  writer.put_f64(s.level);
  writer.put_f64(s.trend);
  writer.put_u64(s.observations);
}

/// load_state failure policy: every mismatch or corrupt payload throws
/// SnapshotError, matching the archive layer — callers (Checkpoint, the
/// bench resume probe) catch one exception type for "this file cannot be
/// loaded here".
void check_load(bool ok, const std::string& what) {
  if (!ok) throw snapshot::SnapshotError(what);
}

void get_holt_scalar(snapshot::Reader& reader, HoltScalar& scalar) {
  HoltScalar::State s;
  s.level = reader.get_f64();
  s.trend = reader.get_f64();
  s.observations = reader.get_u64();
  scalar.restore(s);
}
}  // namespace

void DistributedEngine::save_state(snapshot::Writer& writer) const {
  // META: run position + a structural fingerprint so a checkpoint can only
  // be loaded into an engine built over the same inputs.
  writer.begin_section("META", kMetaVersion);
  writer.put_u64(round_);
  writer.put_u64(topo_->node_count());
  writer.put_u64(topo_->link_count());
  writer.put_u64(topo_->rack_count());
  writer.put_u64(deployment_.vm_count());
  writer.put_u64(flows_.size());
  writer.put_u8(static_cast<std::uint8_t>(config_.mode));
  writer.put_u8(static_cast<std::uint8_t>(config_.protocol));
  writer.put_u8(static_cast<std::uint8_t>(config_.predictor));
  // sharded_manage is semantics-bearing (legacy interleaved sweep vs
  // two-phase commit), so it fingerprints; manage_shards does not — the
  // shard count never changes results, exactly like the pool size.
  writer.put_bool(config_.sharded_manage);
  writer.put_bool(injector_ != nullptr);
  writer.put_bool(channel_ != nullptr);
  writer.put_bool(kmedian_manager_ != nullptr);
  writer.put_bool(hub_ != nullptr);
  writer.put_bool(hub_ != nullptr && hub_->auditor() != nullptr);
  writer.end_section();

  writer.begin_section("DEPL", kDeploymentVersion);
  deployment_.save_state(writer);
  writer.end_section();

  // FLOW: the mutable half of the flow table. Ids, delay sensitivity, and
  // the owner/peer maps are constructor-derived from the dependency graph.
  writer.begin_section("FLOW", kFlowVersion);
  writer.put_u64(flows_.size());
  for (const net::Flow& flow : flows_) {
    writer.put_u32(flow.src_host);
    writer.put_u32(flow.dst_host);
    writer.put_f64(flow.demand_gbps);
    writer.put_u8(static_cast<std::uint8_t>(flow.dscp));
    writer.put_u32v(flow.path);
    writer.put_f64(flow.allocated_gbps);
    writer.put_f64(flow.rate_limit_gbps);
  }
  writer.end_section();

  // FALT: only the lossy channel's stream state travels in the archive —
  // the injector itself is reconstructed by replaying its (deterministic)
  // plan up to `round_` at load time.
  writer.begin_section("FALT", kFaultVersion);
  writer.put_bool(channel_ != nullptr);
  if (channel_ != nullptr) {
    const fault::LossyChannel::State s = channel_->state();
    writer.put_u64(s.rng.state);
    writer.put_u64(s.rng.inc);
    writer.put_bool(s.rng.has_cached_normal);
    writer.put_f64(s.rng.cached_normal);
    writer.put_u64(s.drops);
  }
  writer.end_section();

  writer.begin_section("FAIR", kFairShareVersion);
  solver_.save_state(writer);
  writer.end_section();

  writer.begin_section("QUEU", kQueueVersion);
  queues_.save_state(writer);
  rate_controller_.save_state(writer);
  writer.end_section();

  writer.begin_section("PRED", kPredictVersion);
  writer.put_u64(predictors_.size());
  for (const auto& predictor : predictors_) predictor->save_state(writer);
  writer.put_u64(predicted_.size());
  for (const wl::WorkloadProfile& profile : predicted_) {
    for (double v : profile.values) writer.put_f64(v);
  }
  writer.put_u64(tor_utilization_predictors_.size());
  for (const HoltScalar& s : tor_utilization_predictors_) put_holt_scalar(writer, s);
  for (const HoltScalar& s : tor_queue_predictors_) put_holt_scalar(writer, s);
  writer.end_section();

  writer.begin_section("SHIM", kShimVersion);
  writer.put_u64(shims_.size());
  for (const ShimController& shim : shims_) shim.save_state(writer);
  writer.end_section();

  // SHRD: shard-sweep bookkeeping. Only shard-count-invariant aggregates
  // travel (per-shard data would break checkpoint byte-parity across shard
  // counts); the shard plan itself is a pure function of
  // (rack_count, shard_count) and is reconstructed, never serialized.
  writer.begin_section("SHRD", kShardVersion);
  writer.put_u64(shard_stats_.sharded_rounds);
  writer.put_u64(shard_stats_.reroute_claims);
  writer.put_u64(shard_stats_.reroute_commits);
  writer.put_u64(shard_stats_.reroute_conflicts);
  writer.put_u64(shard_stats_.vm_claims);
  writer.put_u64(shard_stats_.vm_commits);
  writer.put_u64(shard_stats_.vm_conflicts);
  writer.put_u64v(shard_stats_.demands_by_rack);
  writer.end_section();

  // OBSR: registry contents, auditor tallies, trace rings. Saved last and
  // restored last, so anything load-time replay emits is overwritten.
  writer.begin_section("OBSR", kObsVersion);
  writer.put_bool(hub_ != nullptr);
  if (hub_ != nullptr) {
    const obs::MetricRegistry& registry = hub_->registry();
    std::size_t counters = 0;
    std::size_t gauges = 0;
    std::size_t histograms = 0;
    registry.for_each_counter([&](const std::string&, const obs::Counter&) { ++counters; });
    registry.for_each_gauge([&](const std::string&, const obs::Gauge&) { ++gauges; });
    registry.for_each_histogram([&](const std::string&, const obs::Histogram&) { ++histograms; });
    writer.put_u64(counters);
    registry.for_each_counter([&](const std::string& name, const obs::Counter& c) {
      writer.put_str(name);
      writer.put_u64(c.value());
    });
    writer.put_u64(gauges);
    registry.for_each_gauge([&](const std::string& name, const obs::Gauge& g) {
      writer.put_str(name);
      writer.put_f64(g.value());
    });
    writer.put_u64(histograms);
    registry.for_each_histogram([&](const std::string& name, const obs::Histogram& h) {
      writer.put_str(name);
      writer.put_f64v(h.bounds());
      writer.put_u64v(h.counts());
      writer.put_u64(h.total());
      writer.put_f64(h.sum());
    });

    const obs::EventTrace& trace = hub_->trace();
    writer.put_u64(trace.ring_count());
    for (std::size_t r = 0; r < trace.ring_count(); ++r) {
      const obs::EventTrace::RingView ring = trace.ring_view(r);
      writer.put_u64(ring.slots.size());
      for (const obs::TraceRecord& record : ring.slots) {
        writer.put_u64(record.seq);
        writer.put_u32(record.round);
        writer.put_u32(record.shim);
        writer.put_u8(static_cast<std::uint8_t>(record.type));
        writer.put_u32(record.a);
        writer.put_u32(record.b);
        writer.put_f64(record.value);
      }
      writer.put_u64(ring.head);
      writer.put_u64(ring.emitted);
      writer.put_u64(ring.dropped);
    }
    writer.put_u64(trace.next_seq());
    writer.put_u32(trace.round());

    writer.put_bool(hub_->auditor() != nullptr);
    if (hub_->auditor() != nullptr) hub_->auditor()->save_state(writer);
  }
  writer.end_section();
}

void DistributedEngine::load_state(snapshot::Reader& reader) {
  reader.expect_section("META", kMetaVersion);
  const std::uint64_t saved_round = reader.get_u64();
  check_load(reader.get_u64() == topo_->node_count() &&
                      reader.get_u64() == topo_->link_count() &&
                      reader.get_u64() == topo_->rack_count(),
                  "checkpoint was taken over a different topology");
  check_load(reader.get_u64() == deployment_.vm_count(),
                  "checkpoint was taken over a different VM population");
  check_load(reader.get_u64() == flows_.size(),
                  "checkpoint was taken over a different flow table");
  check_load(reader.get_u8() == static_cast<std::uint8_t>(config_.mode) &&
                      reader.get_u8() == static_cast<std::uint8_t>(config_.protocol) &&
                      reader.get_u8() == static_cast<std::uint8_t>(config_.predictor) &&
                      reader.get_bool() == config_.sharded_manage,
                  "checkpoint was taken under a different engine configuration");
  check_load(reader.get_bool() == (injector_ != nullptr) &&
                      reader.get_bool() == (channel_ != nullptr) &&
                      reader.get_bool() == (kmedian_manager_ != nullptr),
                  "checkpoint was taken under a different fault/manager setup");
  check_load(reader.get_bool() == (hub_ != nullptr) &&
                      reader.get_bool() == (hub_ != nullptr && hub_->auditor() != nullptr),
                  "checkpoint was taken under a different observability setup");
  reader.leave_section();
  round_ = saved_round;

  reader.expect_section("DEPL", kDeploymentVersion);
  deployment_.load_state(reader);
  reader.leave_section();

  reader.expect_section("FLOW", kFlowVersion);
  const std::uint64_t flow_count = reader.get_u64();
  check_load(flow_count == flows_.size(), "corrupt flow section");
  for (net::Flow& flow : flows_) {
    flow.src_host = reader.get_u32();
    flow.dst_host = reader.get_u32();
    flow.demand_gbps = reader.get_f64();
    flow.dscp = static_cast<net::DscpMark>(reader.get_u8());
    flow.path = reader.get_u32v();
    flow.allocated_gbps = reader.get_f64();
    flow.rate_limit_gbps = reader.get_f64();
  }
  reader.leave_section();

  reader.expect_section("FALT", kFaultVersion);
  const bool archived_channel = reader.get_bool();
  check_load(archived_channel == (channel_ != nullptr), "corrupt fault section");
  if (channel_ != nullptr) {
    fault::LossyChannel::State s;
    s.rng.state = reader.get_u64();
    s.rng.inc = reader.get_u64();
    s.rng.has_cached_normal = reader.get_bool();
    s.rng.cached_normal = reader.get_f64();
    s.drops = reader.get_u64();
    channel_->restore(s);
  }
  reader.leave_section();
  if (injector_ != nullptr) {
    // Replay the plan up to the saved round with the trace detached: the
    // LivenessMask (version counter included) and shim availability land
    // exactly where the saved run left them, without duplicate trace
    // events — the OBSR restore below carries the authoritative rings.
    injector_->set_trace(nullptr);
    for (std::size_t r = 0; r < saved_round; ++r) (void)injector_->advance(r);
    if (hub_ != nullptr) injector_->set_trace(&hub_->trace());
    router_.refresh_liveness();
    recompute_takeovers();
  }

  reader.expect_section("FAIR", kFairShareVersion);
  solver_.load_state(reader, injector_ != nullptr ? &injector_->liveness() : nullptr);
  reader.leave_section();

  reader.expect_section("QUEU", kQueueVersion);
  queues_.load_state(reader);
  rate_controller_.load_state(reader);
  reader.leave_section();

  reader.expect_section("PRED", kPredictVersion);
  check_load(reader.get_u64() == predictors_.size(), "corrupt predictor section");
  for (const auto& predictor : predictors_) predictor->load_state(reader);
  check_load(reader.get_u64() == predicted_.size(), "corrupt predictor section");
  for (wl::WorkloadProfile& profile : predicted_) {
    for (double& v : profile.values) v = reader.get_f64();
  }
  check_load(reader.get_u64() == tor_utilization_predictors_.size(),
                  "corrupt ToR predictor section");
  for (HoltScalar& s : tor_utilization_predictors_) get_holt_scalar(reader, s);
  for (HoltScalar& s : tor_queue_predictors_) get_holt_scalar(reader, s);
  reader.leave_section();

  reader.expect_section("SHIM", kShimVersion);
  check_load(reader.get_u64() == shims_.size(), "corrupt shim section");
  for (ShimController& shim : shims_) shim.load_state(reader);
  reader.leave_section();

  reader.expect_section("SHRD", kShardVersion);
  shard_stats_.sharded_rounds = reader.get_u64();
  shard_stats_.reroute_claims = reader.get_u64();
  shard_stats_.reroute_commits = reader.get_u64();
  shard_stats_.reroute_conflicts = reader.get_u64();
  shard_stats_.vm_claims = reader.get_u64();
  shard_stats_.vm_commits = reader.get_u64();
  shard_stats_.vm_conflicts = reader.get_u64();
  shard_stats_.demands_by_rack = reader.get_u64v();
  check_load(shard_stats_.demands_by_rack.size() == topo_->rack_count(),
             "corrupt shard section");
  reader.leave_section();

  reader.expect_section("OBSR", kObsVersion);
  const bool archived_hub = reader.get_bool();
  check_load(archived_hub == (hub_ != nullptr), "corrupt observability section");
  if (hub_ != nullptr) {
    obs::MetricRegistry& registry = hub_->registry();
    const std::uint64_t counters = reader.counted(16);
    for (std::uint64_t i = 0; i < counters; ++i) {
      const std::string name = reader.get_str();
      obs::Counter& c = registry.counter(name);
      c.reset();
      c.add(reader.get_u64());
    }
    const std::uint64_t gauges = reader.counted(16);
    for (std::uint64_t i = 0; i < gauges; ++i) {
      const std::string name = reader.get_str();
      registry.gauge(name).set(reader.get_f64());
    }
    const std::uint64_t histograms = reader.counted(16);
    for (std::uint64_t i = 0; i < histograms; ++i) {
      const std::string name = reader.get_str();
      std::vector<double> bounds = reader.get_f64v();
      std::vector<std::uint64_t> counts = reader.get_u64v();
      const std::uint64_t total = reader.get_u64();
      const double sum = reader.get_f64();
      obs::Histogram& h = registry.histogram(name, std::move(bounds));
      check_load(h.restore(std::move(counts), total, sum),
                      "checkpoint histogram '" + name + "' does not match this build's buckets");
    }

    obs::EventTrace& trace = hub_->trace();
    check_load(reader.get_u64() == trace.ring_count(), "corrupt trace section");
    for (std::size_t r = 0; r < trace.ring_count(); ++r) {
      const std::uint64_t slot_count = reader.counted(33);
      check_load(slot_count <= trace.capacity_per_shim(),
                      "checkpoint trace ring exceeds this build's capacity");
      std::vector<obs::TraceRecord> slots;
      slots.reserve(slot_count);
      for (std::uint64_t i = 0; i < slot_count; ++i) {
        obs::TraceRecord record;
        record.seq = reader.get_u64();
        record.round = reader.get_u32();
        record.shim = reader.get_u32();
        const std::uint8_t type = reader.get_u8();
        check_load(type < obs::kEventTypeCount, "corrupt trace record type");
        record.type = static_cast<obs::EventType>(type);
        record.a = reader.get_u32();
        record.b = reader.get_u32();
        record.value = reader.get_f64();
        slots.push_back(record);
      }
      const std::uint64_t head = reader.get_u64();
      const std::uint64_t emitted = reader.get_u64();
      const std::uint64_t dropped = reader.get_u64();
      trace.restore_ring(r, std::move(slots), static_cast<std::size_t>(head), emitted, dropped);
    }
    trace.set_next_seq(reader.get_u64());
    trace.set_round(reader.get_u32());

    const bool archived_auditor = reader.get_bool();
    check_load(archived_auditor == (hub_->auditor() != nullptr),
                    "corrupt observability section");
    if (hub_->auditor() != nullptr) hub_->auditor()->load_state(reader);
  }
  reader.leave_section();

  // Delta-published k-median counters: re-baseline against the fresh
  // planner/manager so the next publish adds only post-resume activity.
  // (The fresh planner's construction rebuild makes kmedian.planner_rebuilds
  // the one registry counter that may run +1 ahead after a resume.)
  if (kmedian_manager_ != nullptr) {
    published_kmedian_stats_ = kmedian_manager_->stats();
    published_planner_rebuilds_ = kmedian_planner_view_->rebuilds();
  }
  // Same re-baseline for the decision-kernel counters (the cost model's
  // counters are process-local, never serialized).
  published_cost_stats_ = cost_model_.stats();
}

}  // namespace sheriff::core
