#include "net/fair_share.hpp"

#include <algorithm>
#include <limits>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "obs/registry.hpp"
#include "obs/timing.hpp"
#include "snapshot/archive.hpp"

namespace sheriff::net {

namespace {
constexpr double kEps = 1e-12;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Dirty components below this many affected flows fill serially even with
/// a pool attached: the parallel_for dispatch costs more than the fill.
constexpr std::size_t kParallelFillMinFlows = 256;
}  // namespace

double FairShareResult::available_bandwidth(const topo::Topology& topo,
                                            topo::LinkId link) const {
  SHERIFF_REQUIRE(link < link_load_gbps.size(), "link id out of range for fair-share result");
  return std::max(0.0, topo.link(link).capacity_gbps - link_load_gbps[link]);
}

FairShareResult max_min_fair_share(const topo::Topology& topo, std::span<Flow> flows,
                                   const topo::LivenessMask* liveness) {
  if (liveness != nullptr && liveness->all_up()) liveness = nullptr;
  FairShareResult result;
  result.flow_rate.assign(flows.size(), 0.0);
  result.link_load_gbps.assign(topo.link_count(), 0.0);
  result.link_offered_gbps.assign(topo.link_count(), 0.0);
  result.link_utilization.assign(topo.link_count(), 0.0);

  // Resolve each flow's path into link ids once.
  std::vector<std::vector<topo::LinkId>> flow_links(flows.size());
  std::vector<std::vector<std::size_t>> link_flows(topo.link_count());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (!flows[f].routed() || flows[f].effective_demand() <= 0.0) continue;
    const auto& path = flows[f].path;
    bool path_live = true;
    for (std::size_t i = 0; path_live && i + 1 < path.size(); ++i) {
      const topo::LinkId l = topo.link_between(path[i], path[i + 1]);
      path_live = liveness == nullptr || liveness->link_usable(topo, l);
      flow_links[f].push_back(l);
    }
    if (!path_live) {
      flow_links[f].clear();
      continue;
    }
    for (topo::LinkId l : flow_links[f]) {
      link_flows[l].push_back(f);
      result.link_offered_gbps[l] += flows[f].effective_demand();
    }
  }

  std::vector<double> available(topo.link_count());
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    available[l] = topo.link(l).capacity_gbps;
  }
  std::vector<std::size_t> active_on_link(topo.link_count(), 0);
  std::vector<bool> active(flows.size(), false);
  std::size_t n_active = 0;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (!flow_links[f].empty()) {
      active[f] = true;
      ++n_active;
      for (topo::LinkId l : flow_links[f]) ++active_on_link[l];
    }
  }

  // Progressive filling: raise all active rates together until either some
  // link saturates or some flow reaches its demand, freeze, repeat.
  while (n_active > 0) {
    double increment = std::numeric_limits<double>::infinity();
    for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
      if (active_on_link[l] > 0) {
        increment = std::min(increment, available[l] / static_cast<double>(active_on_link[l]));
      }
    }
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (active[f]) {
        increment = std::min(increment, flows[f].effective_demand() - result.flow_rate[f]);
      }
    }
    increment = std::max(increment, 0.0);

    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (!active[f]) continue;
      result.flow_rate[f] += increment;
      for (topo::LinkId l : flow_links[f]) available[l] -= increment;
    }

    // Freeze demand-satisfied flows and flows crossing saturated links.
    std::size_t frozen = 0;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (!active[f]) continue;
      bool freeze = result.flow_rate[f] >= flows[f].effective_demand() - kEps;
      if (!freeze) {
        for (topo::LinkId l : flow_links[f]) {
          if (available[l] <= kEps) {
            freeze = true;
            break;
          }
        }
      }
      if (freeze) {
        active[f] = false;
        ++frozen;
        --n_active;
        for (topo::LinkId l : flow_links[f]) --active_on_link[l];
      }
    }
    SHERIFF_REQUIRE(frozen > 0, "progressive filling failed to make progress");
  }

  for (std::size_t f = 0; f < flows.size(); ++f) {
    flows[f].allocated_gbps = result.flow_rate[f];
    for (topo::LinkId l : flow_links[f]) result.link_load_gbps[l] += result.flow_rate[f];
  }
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    result.link_utilization[l] = result.link_load_gbps[l] / topo.link(l).capacity_gbps;
  }
  return result;
}

// --- FairShareSolver --------------------------------------------------------

FairShareSolver::FairShareSolver(const topo::Topology& topo) : topo_(&topo) {}

void FairShareSolver::invalidate() { force_rebuild_ = true; }

void FairShareSolver::reindex_flow(std::size_t f) {
  const std::uint32_t old_count = flow_link_count_[f];
  const auto& path = cached_path_[f];
  const std::uint32_t new_count =
      path.size() >= 2 ? static_cast<std::uint32_t>(path.size() - 1) : 0;
  std::uint32_t start = flow_link_start_[f];
  if (new_count > old_count) {
    start = static_cast<std::uint32_t>(flow_links_.size());
    flow_links_.resize(flow_links_.size() + new_count);
    flow_link_start_[f] = start;
  }
  for (std::uint32_t i = 0; i < new_count; ++i) {
    flow_links_[start + i] =
        static_cast<std::int32_t>(topo_->link_between(path[i], path[i + 1]));
  }
  flow_link_count_[f] = new_count;
  live_link_refs_ += new_count;
  live_link_refs_ -= old_count;
  reverse_stale_ = true;
  comps_stale_ = true;
}

void FairShareSolver::compact_incidence() {
  // Rewrite the pool densely in ascending flow order (canonical layout —
  // the same one load_state rebuilds, so compaction points never influence
  // anything observable).
  std::vector<std::int32_t> packed;
  packed.reserve(live_link_refs_);
  for (std::size_t f = 0; f < flow_link_start_.size(); ++f) {
    const std::uint32_t start = static_cast<std::uint32_t>(packed.size());
    const auto links = links_of(f);
    packed.insert(packed.end(), links.begin(), links.end());
    flow_link_start_[f] = start;
  }
  flow_links_ = std::move(packed);
}

void FairShareSolver::rebuild_reverse_csr() {
  const std::size_t link_count = topo_->link_count();
  link_flow_offset_.assign(link_count + 1, 0);
  const std::size_t n = flow_link_count_.size();
  for (std::size_t f = 0; f < n; ++f) {
    for (std::int32_t l : links_of(f)) ++link_flow_offset_[static_cast<std::size_t>(l) + 1];
  }
  for (std::size_t l = 0; l < link_count; ++l) {
    link_flow_offset_[l + 1] += link_flow_offset_[l];
  }
  link_flows_.resize(live_link_refs_);
  std::vector<std::uint32_t> cursor(link_flow_offset_.begin(), link_flow_offset_.end() - 1);
  for (std::size_t f = 0; f < n; ++f) {
    for (std::int32_t l : links_of(f)) {
      link_flows_[cursor[static_cast<std::size_t>(l)]++] = static_cast<std::uint32_t>(f);
    }
  }
  reverse_stale_ = false;
}

void FairShareSolver::rebuild_components() {
  const std::size_t n = flow_link_count_.size();
  const std::size_t link_count = topo_->link_count();
  flow_comp_.assign(n, kNoComp);
  link_comp_.assign(link_count, kNoComp);
  comp_count_ = 0;
  std::vector<std::uint32_t> flow_counts;
  std::vector<std::uint32_t> link_counts;
  comp_edge_count_.clear();
  // BFS from each unlabelled participating flow, in ascending flow order:
  // component ids are a canonical function of (incidence, participation).
  for (std::size_t f0 = 0; f0 < n; ++f0) {
    if (!participates_[f0] || flow_comp_[f0] != kNoComp) continue;
    const std::uint32_t c = comp_count_++;
    std::uint32_t flows_in = 0;
    std::uint32_t links_in = 0;
    std::uint32_t edges_in = 0;
    bfs_queue_.clear();
    bfs_queue_.push_back(static_cast<std::uint32_t>(f0));
    flow_comp_[f0] = c;
    for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
      const std::uint32_t g = bfs_queue_[head];
      ++flows_in;
      edges_in += flow_link_count_[g];
      for (std::int32_t sl : links_of(g)) {
        const auto l = static_cast<std::size_t>(sl);
        if (link_comp_[l] == c) continue;
        link_comp_[l] = c;
        ++links_in;
        for (std::uint32_t h = link_flow_offset_[l]; h < link_flow_offset_[l + 1]; ++h) {
          const std::uint32_t other = link_flows_[h];
          if (participates_[other] && flow_comp_[other] == kNoComp) {
            flow_comp_[other] = c;
            bfs_queue_.push_back(other);
          }
        }
      }
    }
    flow_counts.push_back(flows_in);
    link_counts.push_back(links_in);
    comp_edge_count_.push_back(edges_in);
  }
  // Links only non-participating flows cross got labelled too; strip them
  // back to kNoComp? No — a link labelled c carries at least one
  // participating flow of c by construction (labels spread only through
  // links_of(participating member)), so every labelled link is real.
  comp_flow_offset_.assign(comp_count_ + 1, 0);
  comp_link_offset_.assign(comp_count_ + 1, 0);
  for (std::uint32_t c = 0; c < comp_count_; ++c) {
    comp_flow_offset_[c + 1] = comp_flow_offset_[c] + flow_counts[c];
    comp_link_offset_[c + 1] = comp_link_offset_[c] + link_counts[c];
  }
  comp_flows_.resize(comp_flow_offset_[comp_count_]);
  comp_links_.resize(comp_link_offset_[comp_count_]);
  {
    std::vector<std::uint32_t> cursor(comp_flow_offset_.begin(), comp_flow_offset_.end() - 1);
    for (std::size_t f = 0; f < n; ++f) {
      if (flow_comp_[f] != kNoComp) comp_flows_[cursor[flow_comp_[f]]++] = static_cast<std::uint32_t>(f);
    }
  }
  {
    std::vector<std::uint32_t> cursor(comp_link_offset_.begin(), comp_link_offset_.end() - 1);
    for (std::size_t l = 0; l < link_count; ++l) {
      if (link_comp_[l] != kNoComp) comp_links_[cursor[link_comp_[l]]++] = static_cast<topo::LinkId>(l);
    }
  }
  comp_mark_.assign(comp_count_, 0);
  comps_stale_ = false;
}

void FairShareSolver::refresh_liveness(const topo::LivenessMask* liveness) {
  if (liveness == nullptr) {
    if (!had_liveness_) return;  // bitmap is already all-usable
    for (topo::LinkId l = 0; l < topo_->link_count(); ++l) {
      if (!link_usable_[l]) {
        link_usable_[l] = 1;
        changed_links_.push_back(l);
      }
    }
    had_liveness_ = false;
    last_mask_ = nullptr;
    return;
  }
  if (had_liveness_ && last_mask_ == liveness && liveness->version() == liveness_version_) {
    return;
  }
  for (topo::LinkId l = 0; l < topo_->link_count(); ++l) {
    const char usable = liveness->link_usable(*topo_, l) ? 1 : 0;
    if (usable != link_usable_[l]) {
      link_usable_[l] = usable;
      changed_links_.push_back(l);
    }
  }
  had_liveness_ = true;
  last_mask_ = liveness;
  liveness_version_ = liveness->version();
}

const FairShareResult& FairShareSolver::solve(std::span<Flow> flows,
                                              const topo::LivenessMask* liveness) {
  if (liveness != nullptr && liveness->all_up()) liveness = nullptr;
  obs::Stopwatch phase_watch;
  ++stats_.solves;
  const std::size_t n = flows.size();
  const std::size_t link_count = topo_->link_count();

  const bool full = force_rebuild_ || n != cached_demand_.size();
  if (full) {
    ++stats_.full_rebuilds;
    force_rebuild_ = false;
    cached_path_.assign(n, {});
    cached_demand_.assign(n, 0.0);
    participates_.assign(n, 0);
    flow_link_start_.assign(n, 0);
    flow_link_count_.assign(n, 0);
    flow_links_.clear();
    live_link_refs_ = 0;
    result_.flow_rate.assign(n, 0.0);
    result_.link_load_gbps.assign(link_count, 0.0);
    result_.link_offered_gbps.assign(link_count, 0.0);
    result_.link_utilization.assign(link_count, 0.0);
    flow_mark_.assign(n, 0);
    flow_frozen_.assign(n, 0);
    link_mark_.assign(link_count, 0);
    frozen_load_.assign(link_count, 0.0);
    link_level_.assign(link_count, 0.0);
    active_on_link_.assign(link_count, 0);
    link_usable_.assign(link_count, 1);
    had_liveness_ = false;
    last_mask_ = nullptr;
    comp_count_ = 0;
    reverse_stale_ = true;
    comps_stale_ = true;
    epoch_ = 0;
  }

  ++epoch_;
  dirty_flows_.clear();
  touched_links_.clear();
  changed_links_.clear();
  dirty_comps_.clear();
  orphan_links_.clear();

  const auto mark_flow = [&](std::uint32_t f) {
    if (flow_mark_[f] != epoch_) {
      flow_mark_[f] = epoch_;
      dirty_flows_.push_back(f);
    }
  };
  const auto touch_link = [&](topo::LinkId l) {
    if (link_mark_[l] != epoch_) {
      link_mark_[l] = epoch_;
      touched_links_.push_back(l);
    }
  };

  refresh_liveness(liveness);
  if (!full && !changed_links_.empty()) {
    // Flows crossing a flipped link re-check participation; the reverse
    // CSR still describes the pre-patch incidence here, which is exactly
    // the incidence those flows had when the links went down/up. (It can
    // only be stale right after load_state — rebuild before indexing it.)
    if (reverse_stale_) rebuild_reverse_csr();
    for (topo::LinkId l : changed_links_) {
      touch_link(l);
      for (std::uint32_t i = link_flow_offset_[l]; i < link_flow_offset_[l + 1]; ++i) {
        mark_flow(link_flows_[i]);
      }
    }
  }

  // --- dirty detection: demand, rate-limit, and path edits ------------------
  for (std::size_t f = 0; f < n; ++f) {
    const Flow& flow = flows[f];
    if (full) {
      cached_path_[f] = flow.path;
      flow_link_start_[f] = 0;
      flow_link_count_[f] = 0;
      reindex_flow(f);
      cached_demand_[f] = flow.effective_demand();
      mark_flow(static_cast<std::uint32_t>(f));
      continue;
    }
    const bool path_changed = flow.path.size() != cached_path_[f].size() ||
                              !std::equal(flow.path.begin(), flow.path.end(),
                                          cached_path_[f].begin());
    if (path_changed) {
      mark_flow(static_cast<std::uint32_t>(f));
      // The links the flow leaves lose its contribution: their components
      // must refill too (only if the flow was actually counted on them).
      if (participates_[f]) {
        for (std::int32_t l : links_of(f)) touch_link(static_cast<topo::LinkId>(l));
      }
      cached_path_[f] = flow.path;
      reindex_flow(f);
    }
    const double eff = flow.effective_demand();
    if (eff != cached_demand_[f]) {
      cached_demand_[f] = eff;
      mark_flow(static_cast<std::uint32_t>(f));
    }
  }
  stats_.dirty_flows += dirty_flows_.size();
  if (flow_links_.size() > 2 * live_link_refs_ + 1024) compact_incidence();

  // --- participation refresh (dirty flows only) -----------------------------
  for (const std::uint32_t f : dirty_flows_) {
    bool now = flows[f].routed() && cached_demand_[f] > 0.0;
    if (now && had_liveness_) {
      for (std::int32_t l : links_of(f)) {
        if (!link_usable_[static_cast<std::size_t>(l)]) {
          now = false;
          break;
        }
      }
    }
    if (static_cast<bool>(participates_[f]) != now) comps_stale_ = true;
    if (now || participates_[f]) {
      for (std::int32_t l : links_of(f)) touch_link(static_cast<topo::LinkId>(l));
    }
    participates_[f] = now ? 1 : 0;
  }

  if (reverse_stale_) rebuild_reverse_csr();
  if (comps_stale_) rebuild_components();

  // --- closure: a dirty flow or touched link dirties its whole component ----
  // (the transitive closure over shared links IS the connected component,
  // so this is the exact closure, not an over-approximation).
  const auto mark_comp = [&](std::uint32_t c) {
    if (comp_mark_[c] != epoch_) {
      comp_mark_[c] = epoch_;
      dirty_comps_.push_back(c);
    }
  };
  std::size_t affected = 0;
  for (const std::uint32_t f : dirty_flows_) {
    if (flow_comp_[f] != kNoComp) {
      mark_comp(flow_comp_[f]);
    } else {
      ++affected;  // dirty non-participating flow: reset serially below
    }
  }
  for (const topo::LinkId l : touched_links_) {
    if (link_comp_[l] != kNoComp) {
      mark_comp(link_comp_[l]);
    } else {
      orphan_links_.push_back(l);
    }
  }
  for (const std::uint32_t c : dirty_comps_) {
    affected += comp_flow_offset_[c + 1] - comp_flow_offset_[c];
  }
  stats_.affected_flows += affected;
  stats_.reused_flows += n - affected;
  timings_.build_ns += phase_watch.elapsed_ns();

  // --- fill: reset orphans serially, water-fill dirty components ------------
  phase_watch.restart();
  for (const std::uint32_t f : dirty_flows_) {
    if (flow_comp_[f] == kNoComp) result_.flow_rate[f] = 0.0;
  }
  for (const topo::LinkId l : orphan_links_) {
    result_.link_load_gbps[l] = 0.0;
    result_.link_offered_gbps[l] = 0.0;
    result_.link_utilization[l] = 0.0;
  }
  comp_sort_base_.resize(dirty_comps_.size());
  comp_heap_base_.resize(dirty_comps_.size());
  std::size_t sort_total = 0;
  std::size_t heap_total = 0;
  for (std::size_t di = 0; di < dirty_comps_.size(); ++di) {
    const std::uint32_t c = dirty_comps_[di];
    comp_sort_base_[di] = sort_total;
    comp_heap_base_[di] = heap_total;
    sort_total += comp_flow_offset_[c + 1] - comp_flow_offset_[c];
    heap_total += (comp_link_offset_[c + 1] - comp_link_offset_[c]) + comp_edge_count_[c];
  }
  fill_order_.resize(sort_total);
  heap_pool_.resize(heap_total);
  const std::size_t refilled = sort_total;
  common::parallel_for(refilled >= kParallelFillMinFlows ? pool_ : nullptr, dirty_comps_.size(),
                       [this](std::size_t di) { fill_component(di); });
  timings_.fill_ns += phase_watch.elapsed_ns();

  for (std::size_t f = 0; f < n; ++f) flows[f].allocated_gbps = result_.flow_rate[f];
  return result_;
}

void FairShareSolver::fill_component(std::size_t di) {
  const std::uint32_t c = dirty_comps_[di];
  const std::span<const std::uint32_t> comp_flows{
      comp_flows_.data() + comp_flow_offset_[c],
      static_cast<std::size_t>(comp_flow_offset_[c + 1] - comp_flow_offset_[c])};
  const std::span<const std::uint32_t> comp_links{
      comp_links_.data() + comp_link_offset_[c],
      static_cast<std::size_t>(comp_link_offset_[c + 1] - comp_link_offset_[c])};

  // Reset the component's links and count active flows per link. Only this
  // component's participating flows can contribute to these links, so a
  // from-zero re-accumulation is exact.
  for (const std::uint32_t l : comp_links) {
    frozen_load_[l] = 0.0;
    active_on_link_[l] = 0;
    result_.link_offered_gbps[l] = 0.0;
  }
  for (const std::uint32_t f : comp_flows) {
    result_.flow_rate[f] = 0.0;
    for (std::int32_t sl : links_of(f)) {
      const auto l = static_cast<std::size_t>(sl);
      ++active_on_link_[l];
      result_.link_offered_gbps[l] += cached_demand_[f];
    }
  }

  // Demand order: the component's flows sorted by (effective demand, flow
  // id) — the sequence of demand events the rising water level crosses.
  std::uint32_t* order = fill_order_.data() + comp_sort_base_[di];
  std::copy(comp_flows.begin(), comp_flows.end(), order);
  std::sort(order, order + comp_flows.size(), [this](std::uint32_t a, std::uint32_t b) {
    if (cached_demand_[a] != cached_demand_[b]) return cached_demand_[a] < cached_demand_[b];
    return a < b;
  });

  // Link-event min-heap with lazy invalidation: an entry is stale when the
  // link re-pushed at a newer level (link_level_ mismatch) or drained of
  // active flows. Capacity |links| + |edges|: one initial push per link,
  // one re-push per (frozen flow × its links).
  LinkEvent* heap = heap_pool_.data() + comp_heap_base_[di];
  std::size_t heap_len = 0;
  const auto heap_push = [&](double level, std::uint32_t link) {
    std::size_t i = heap_len++;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (heap[parent].level <= level) break;
      heap[i] = heap[parent];
      i = parent;
    }
    heap[i] = LinkEvent{level, link};
  };
  const auto heap_pop = [&] {
    const LinkEvent last = heap[--heap_len];
    std::size_t i = 0;
    for (;;) {
      const std::size_t left = 2 * i + 1;
      if (left >= heap_len) break;
      const std::size_t child =
          (left + 1 < heap_len && heap[left + 1].level < heap[left].level) ? left + 1 : left;
      if (heap[child].level >= last.level) break;
      heap[i] = heap[child];
      i = child;
    }
    if (heap_len > 0) heap[i] = last;
  };

  double water = 0.0;
  for (const std::uint32_t l : comp_links) {
    const double level =
        topo_->link(l).capacity_gbps / static_cast<double>(active_on_link_[l]);
    link_level_[l] = level;
    heap_push(level, l);
  }

  const auto freeze_flow = [&](std::uint32_t f, double rate) {
    flow_frozen_[f] = epoch_;
    result_.flow_rate[f] = rate;
    for (std::int32_t sl : links_of(f)) {
      const auto l = static_cast<std::size_t>(sl);
      frozen_load_[l] += rate;
      if (--active_on_link_[l] > 0) {
        double level = (topo_->link(static_cast<topo::LinkId>(l)).capacity_gbps -
                        frozen_load_[l]) /
                       static_cast<double>(active_on_link_[l]);
        if (level < water) level = water;  // mirrors the reference's max(inc, 0)
        link_level_[l] = level;
        heap_push(level, static_cast<std::uint32_t>(l));
      }
    }
  };

  std::size_t remaining = comp_flows.size();
  std::size_t si = 0;
  while (remaining > 0) {
    while (si < comp_flows.size() && flow_frozen_[order[si]] == epoch_) ++si;
    const double demand_event = si < comp_flows.size() ? cached_demand_[order[si]] : kInf;
    while (heap_len > 0 && (active_on_link_[heap[0].link] == 0 ||
                            heap[0].level != link_level_[heap[0].link])) {
      heap_pop();
    }
    const double link_event = heap_len > 0 ? heap[0].level : kInf;
    SHERIFF_REQUIRE(demand_event < kInf || link_event < kInf,
                    "water-filling failed to make progress");
    if (demand_event <= link_event) {
      // Demand events freeze first on a tie — either order yields the same
      // rate, the reference freezes both kinds in the same pass.
      const std::uint32_t f = order[si++];
      freeze_flow(f, demand_event);
      --remaining;
      water = demand_event;
    } else {
      const std::uint32_t l = heap[0].link;
      heap_pop();
      // Freeze every still-active flow crossing the saturated link at its
      // saturation level, in canonical (ascending flow id) order.
      for (std::uint32_t i = link_flow_offset_[l]; i < link_flow_offset_[l + 1]; ++i) {
        const std::uint32_t g = link_flows_[i];
        if (flow_comp_[g] == c && flow_frozen_[g] != epoch_) {
          freeze_flow(g, link_event);
          --remaining;
        }
      }
      water = link_event;
    }
  }

  // Final accumulation in canonical ascending-flow order: link loads are a
  // pure function of the component's current membership, never of the
  // order flows were frozen (or of any historical path edits).
  for (const std::uint32_t l : comp_links) result_.link_load_gbps[l] = 0.0;
  for (const std::uint32_t f : comp_flows) {
    for (std::int32_t sl : links_of(f)) {
      result_.link_load_gbps[static_cast<std::size_t>(sl)] += result_.flow_rate[f];
    }
  }
  for (const std::uint32_t l : comp_links) {
    result_.link_utilization[l] = result_.link_load_gbps[l] / topo_->link(l).capacity_gbps;
  }
}

std::size_t FairShareSolver::arena_bytes() const noexcept {
  // Logical sizes only (live element counts, not vector capacities): the
  // value must be a pure function of the solver's current state so the
  // gauge is identical across pool sizes and across a checkpoint resume.
  const std::size_t n = cached_demand_.size();
  const std::size_t links = link_usable_.size();
  std::size_t bytes = 0;
  bytes += live_link_refs_ * sizeof(std::int32_t);      // flow→link CSR pool
  bytes += live_link_refs_ * sizeof(std::uint32_t);     // link→flow reverse CSR
  bytes += n * (2 * sizeof(std::uint32_t));             // CSR start + count
  bytes += n * (sizeof(std::uint32_t) * 3);             // comp label, dirty/frozen marks
  bytes += n * (sizeof(double) + 2 * sizeof(char));     // demand + participation
  bytes += links * (sizeof(std::uint32_t) * 3 + 1);     // offsets, comp, mark, usable
  bytes += links * (2 * sizeof(double) + sizeof(std::uint32_t));  // fill SoA
  bytes += static_cast<std::size_t>(comp_count_) * (5 * sizeof(std::uint32_t));
  bytes += comp_flows_.size() * sizeof(std::uint32_t);
  bytes += comp_links_.size() * sizeof(std::uint32_t);
  return bytes;
}

void FairShareSolver::save_state(snapshot::Writer& writer) const {
  writer.put_u64(stats_.solves);
  writer.put_u64(stats_.full_rebuilds);
  writer.put_u64(stats_.dirty_flows);
  writer.put_u64(stats_.affected_flows);
  writer.put_u64(stats_.reused_flows);
  writer.put_bool(force_rebuild_);
  const std::size_t n = cached_demand_.size();
  writer.put_u64(n);
  for (std::size_t f = 0; f < n; ++f) {
    writer.put_u32v(cached_path_[f]);
    writer.put_f64(cached_demand_[f]);
    writer.put_u8(static_cast<std::uint8_t>(participates_[f]));
  }
  writer.put_u64(link_usable_.size());
  for (char usable : link_usable_) writer.put_u8(static_cast<std::uint8_t>(usable));
  writer.put_bool(had_liveness_);
  writer.put_u64(liveness_version_);
  writer.put_f64v(result_.flow_rate);
  writer.put_f64v(result_.link_load_gbps);
  writer.put_f64v(result_.link_offered_gbps);
  writer.put_f64v(result_.link_utilization);
}

void FairShareSolver::load_state(snapshot::Reader& reader, const topo::LivenessMask* mask) {
  stats_.solves = reader.get_u64();
  stats_.full_rebuilds = reader.get_u64();
  stats_.dirty_flows = reader.get_u64();
  stats_.affected_flows = reader.get_u64();
  stats_.reused_flows = reader.get_u64();
  force_rebuild_ = reader.get_bool();
  const std::uint64_t n = reader.get_u64();
  cached_path_.assign(n, {});
  cached_demand_.assign(n, 0.0);
  participates_.assign(n, 0);
  flow_link_start_.assign(n, 0);
  flow_link_count_.assign(n, 0);
  flow_links_.clear();
  live_link_refs_ = 0;
  for (std::uint64_t f = 0; f < n; ++f) {
    cached_path_[f] = reader.get_u32v();
    cached_demand_[f] = reader.get_f64();
    participates_[f] = static_cast<char>(reader.get_u8());
  }
  const std::uint64_t links = reader.get_u64();
  SHERIFF_REQUIRE(links == topo_->link_count(),
                  "checkpoint fair-share state does not match this topology");
  link_usable_.assign(links, 1);
  for (char& usable : link_usable_) usable = static_cast<char>(reader.get_u8());
  had_liveness_ = reader.get_bool();
  liveness_version_ = reader.get_u64();
  last_mask_ = had_liveness_ ? mask : nullptr;
  result_.flow_rate = reader.get_f64v();
  result_.link_load_gbps = reader.get_f64v();
  result_.link_offered_gbps = reader.get_f64v();
  result_.link_utilization = reader.get_f64v();
  // Rebuild the flow→link CSR from the serialized paths (dense, ascending
  // flow order — the canonical layout). The reverse CSR, component labels
  // and fill scratch resume cold: the next solve() rebuilds them, and
  // because every summation order is canonical the rebuilt structures
  // reproduce the uninterrupted run's outputs bit for bit.
  for (std::uint64_t f = 0; f < n; ++f) reindex_flow(f);
  reverse_stale_ = true;
  comps_stale_ = true;
  comp_count_ = 0;
  // Epoch marks restart at zero: marks are only compared for equality with
  // the current epoch, which solve() pre-increments, so no stale-mark hit
  // is possible.
  epoch_ = 0;
  flow_mark_.assign(n, 0);
  flow_frozen_.assign(n, 0);
  link_mark_.assign(links, 0);
  frozen_load_.assign(links, 0.0);
  link_level_.assign(links, 0.0);
  active_on_link_.assign(links, 0);
  dirty_flows_.clear();
  touched_links_.clear();
  changed_links_.clear();
  dirty_comps_.clear();
  orphan_links_.clear();
}

void FairShareSolver::publish_metrics(obs::MetricRegistry& registry) const {
  registry.gauge("fair_share.solves").set(static_cast<double>(stats_.solves));
  registry.gauge("fair_share.full_rebuilds").set(static_cast<double>(stats_.full_rebuilds));
  registry.gauge("fair_share.dirty_flows").set(static_cast<double>(stats_.dirty_flows));
  registry.gauge("fair_share.affected_flows").set(static_cast<double>(stats_.affected_flows));
  registry.gauge("fair_share.reused_flows").set(static_cast<double>(stats_.reused_flows));
  registry.gauge("fair_share.components").set(static_cast<double>(comp_count_));
  registry.gauge("fair_share.arena_bytes").set(static_cast<double>(arena_bytes()));
}

}  // namespace sheriff::net
