#pragma once
// Sec. V-A: the reduction of (centralized) VMMIGRATION to k-median.
//
//   1. Build the rack graph T (vertices = racks, edge costs = wired
//      connection costs between rack ToRs).
//   2. Collapse it to a complete metric T' by all-pairs shortest paths
//      (the paper uses Floyd–Warshall; we expose that and an equivalent
//      per-ToR Dijkstra sweep that is much cheaper on large fabrics).
//   3. Treat the alerting source ToRs as clients, all ToRs as facilities,
//      and solve k-median with the Alg. 5 local search (ratio 3 + 2/p).
//
// The ToR rows of T' are computed once and shared across plan() calls; a
// planner bound to a LivenessMask recomputes them only when the mask's
// version counter moved (refresh()), instead of re-running O(racks) full
// Dijkstras per round.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/kmedian.hpp"
#include "topology/liveness.hpp"
#include "topology/topology.hpp"

namespace sheriff::common {
class ThreadPool;
}

namespace sheriff::mig {
class MigrationCostModel;
}

namespace sheriff::core {

struct KMedianPlan {
  std::vector<topo::RackId> destinations;  ///< the chosen m destination ToRs
  double connection_cost = 0.0;            ///< Σ_clients dist(client, nearest dest)
  std::size_t evaluations = 0;             ///< local-search solutions examined
  bool hit_evaluation_cap = false;         ///< stopped on the evaluation budget
};

struct KMedianPlannerOptions {
  /// The paper's original pipeline (rack multigraph + Floyd–Warshall);
  /// O(|V|^3), test/small-scale only. The default per-ToR Dijkstra sweep
  /// produces identical distances.
  bool use_floyd_warshall = false;
  /// Shards the per-ToR Dijkstra rows across the pool (each shard owns its
  /// rows, so the matrix is identical for any pool size). nullptr = serial.
  common::ThreadPool* pool = nullptr;
  /// When set, distances are computed over the masked graph (unusable links
  /// skipped), racks with a dead ToR are excluded from the facility set,
  /// and refresh() rebuilds the rows when the mask's version moves. The
  /// mask must outlive the planner.
  const topo::LivenessMask* liveness = nullptr;
  /// One source of truth for pristine ToR distances: when set (and no
  /// liveness mask is bound), the planner fills its matrix from the cost
  /// model's cached distance rows — same unmasked distance graph, same
  /// Dijkstra, identical values — instead of re-running its own sweep.
  /// The model must outlive the planner.
  const mig::MigrationCostModel* shared_rows = nullptr;
};

class KMedianPlanner {
 public:
  /// Precomputes the rack-level distance matrix of T'. `use_floyd_warshall`
  /// selects the paper's original pipeline (builds the rack multigraph and
  /// runs FW); the default Dijkstra sweep produces identical distances.
  explicit KMedianPlanner(const topo::Topology& topo, bool use_floyd_warshall = false);
  KMedianPlanner(const topo::Topology& topo, KMedianPlannerOptions options);

  /// d(T')(i, j) between two racks.
  [[nodiscard]] const graph::DistanceMatrix& rack_distances() const noexcept {
    return distances_;
  }

  /// Racks eligible as destinations (all racks, minus dead-ToR racks when a
  /// liveness mask is bound).
  [[nodiscard]] const std::vector<topo::RackId>& facility_racks() const noexcept {
    return facilities_;
  }

  /// Recomputes the shared ToR rows iff the bound liveness mask changed
  /// since the last build. Returns true when a rebuild happened. Planners
  /// without a mask never rebuild (the topology is immutable).
  bool refresh();

  /// Times the distance rows were (re)built, the initial build included.
  [[nodiscard]] std::size_t rebuilds() const noexcept { return rebuilds_; }

  /// How plan() searches.
  struct PlanOptions {
    std::size_t k = 1;                  ///< destination racks to open
    std::size_t p = 2;                  ///< Alg. 5 swap size
    std::size_t max_evaluations = 0;    ///< safety cap (0 = unlimited)
  };

  /// Chooses destination racks for the given alerting source racks with
  /// the delta-evaluated Alg. 5 solver (graph::fast_kmedian:
  /// first-improvement, identical medians to the reference scan).
  [[nodiscard]] KMedianPlan plan(const std::vector<topo::RackId>& source_racks,
                                 const PlanOptions& options) const;

  /// The same plan from the reference scan (graph::local_search_kmedian):
  /// the oracle of the Sec. VI-C ratio bench and the tests.
  [[nodiscard]] KMedianPlan plan_reference(const std::vector<topo::RackId>& source_racks,
                                           std::size_t k, std::size_t p) const;

  /// Exhaustive optimum for ratio experiments (small instances only).
  [[nodiscard]] KMedianPlan plan_exact(const std::vector<topo::RackId>& source_racks,
                                       std::size_t k) const;

 private:
  [[nodiscard]] graph::KMedianInstance make_instance(
      const std::vector<topo::RackId>& source_racks, std::size_t k) const;
  /// Unconditionally recomputes the ToR rows.
  void rebuild();

  const topo::Topology* topo_;
  KMedianPlannerOptions options_;
  graph::DistanceMatrix distances_;
  std::vector<topo::RackId> facilities_;
  std::uint64_t built_version_ = 0;
  std::size_t rebuilds_ = 0;
};

}  // namespace sheriff::core

#include "core/vm_migration.hpp"
#include "migration/cost_model.hpp"

namespace sheriff::core {

/// The full Sec. V-A centralized strategy: reduce VMMIGRATION to k-median
/// — pick `destination_racks` medians among all ToRs for the alerting
/// source ToRs with the Alg. 5 local search — then match the alerted VMs
/// onto the chosen racks' hosts by minimal weighted matching. Its search
/// space is the local-search evaluations plus the (much smaller) matching
/// over the chosen racks only, trading a bounded approximation factor for
/// a far smaller scan than the exhaustive global matching.
class KMedianMigrationManager {
 public:
  struct Options {
    std::size_t destination_racks = 4;  ///< k medians to open
    std::size_t local_search_p = 2;     ///< Alg. 5 swap size
    std::size_t max_evaluations = 0;    ///< k-median safety cap (0 = unlimited)
    /// When set, detached hosts (dead, or cut off behind a dead ToR) are
    /// excluded from the migration targets. Must outlive the manager.
    const topo::LivenessMask* liveness = nullptr;
  };

  /// Cumulative counters across migrate() calls, for the obs registry and
  /// the engine's manage_kmedian/manage_schedule sub-phase profile.
  struct Stats {
    std::size_t plans = 0;            ///< k-median plans solved
    std::size_t evaluations = 0;      ///< candidate evaluations across plans
    std::size_t cap_hits = 0;         ///< plans stopped by max_evaluations
    std::uint64_t kmedian_ns = 0;     ///< wall time in the k-median solve
    std::uint64_t schedule_ns = 0;    ///< wall time matching/scheduling the moves
  };

  /// The planner must be built over the same topology as the deployment.
  KMedianMigrationManager(wl::Deployment& deployment, mig::MigrationCostModel& cost_model,
                          const KMedianPlanner& planner);
  KMedianMigrationManager(wl::Deployment& deployment, mig::MigrationCostModel& cost_model,
                          const KMedianPlanner& planner, Options options);

  /// Migrates the alerted VMs into the k chosen destination racks. The
  /// returned plan's search_space includes the k-median evaluations.
  MigrationPlan migrate(std::vector<wl::VmId> alerted);

  /// The destination racks chosen by the most recent migrate() call.
  [[nodiscard]] const std::vector<topo::RackId>& last_destinations() const noexcept {
    return last_destinations_;
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  wl::Deployment* deployment_;
  mig::MigrationCostModel* cost_model_;
  const KMedianPlanner* planner_;
  Options options_;
  std::vector<topo::RackId> last_destinations_;
  Stats stats_;
};

}  // namespace sheriff::core
