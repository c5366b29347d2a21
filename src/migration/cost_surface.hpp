#pragma once
// Per-round SoA snapshot of Eq. (1)'s per-link transmission state.
//
// The cost model evaluates δ·T(e) + η·P(e) for every link of every
// candidate path, where T(e) = m.capacity / B(e), P(e) = B(e)/C(e) and
// B(e) = min(max(available, reserve·C(e)), requested). Within one manage
// round the fair-share result — and therefore B(e) and P(e) — is fixed,
// yet the per-candidate evaluation recomputed them per (VM, destination)
// pair per path link. The surface snapshots B(e), P(e) and the B(e) > B_t
// usability bit once per round into flat arrays indexed by LinkId, using
// the *exact same floating-point expressions* the per-candidate kernel
// used, so the flat kernel is bit-identical to the per-link walk (kept as
// the oracle in the test-only sheriff_reference library).

#include <cstdint>
#include <limits>
#include <vector>

#include "net/fair_share.hpp"
#include "topology/topology.hpp"

namespace sheriff::mig {

class CostSurface {
 public:
  CostSurface() = default;
  explicit CostSurface(const topo::Topology& topo) : topo_(&topo) {}

  /// Snapshots the round's link state. `shares == nullptr` means idle
  /// links, mirroring the cost model's convention. Per link:
  ///   available = max(shares->available_bandwidth, reserve·C(e))  (or C(e) idle)
  ///   B(e) = min(available, requested);  usable iff B(e) > B_t;  P(e) = B(e)/C(e)
  void build(const net::FairShareResult* shares, double reserve_fraction,
             double request_gbps, double threshold_gbps);

  [[nodiscard]] bool usable(topo::LinkId l) const noexcept { return usable_[l] != 0; }
  [[nodiscard]] double bandwidth(topo::LinkId l) const noexcept { return b_[l]; }
  [[nodiscard]] double utilization(topo::LinkId l) const noexcept { return p_[l]; }

  /// Accumulates link l's transmission term δ·T(e) + η·P(e) into
  /// `transmission`; false when the link is below B_t (path infeasible).
  /// The expression matches the per-link Eq. (1) walk op for op.
  [[nodiscard]] bool step(topo::LinkId l, double vm_capacity, double delta, double eta,
                          double& transmission) const noexcept {
    if (usable_[l] == 0) return false;
    const double t = vm_capacity / b_[l];  // T(e)
    transmission += delta * t + eta * p_[l];
    return true;
  }

  /// True iff any link incident to h is usable. Every src→dst path starts
  /// (ends) on a link incident to src (dst), so a host with no usable
  /// incident link is provably unreachable for migration this round.
  [[nodiscard]] bool host_usable(topo::NodeId h) const noexcept { return host_usable_[h] != 0; }

  /// Cheapest single-link transmission term any path touching h can incur
  /// at h: min over usable incident links of δ·(vm_capacity/B(e)) + η·P(e),
  /// the identical FP expression step() adds. +inf when no link is usable.
  [[nodiscard]] double min_incident_term(topo::NodeId h, double vm_capacity, double delta,
                                         double eta) const noexcept {
    double best = std::numeric_limits<double>::infinity();
    for (const topo::LinkId l : topo_->links_of(h)) {
      if (usable_[l] == 0) continue;
      const double term = delta * (vm_capacity / b_[l]) + eta * p_[l];
      if (term < best) best = term;
    }
    return best;
  }

 private:
  const topo::Topology* topo_ = nullptr;
  std::vector<double> b_;              ///< B(e) per link
  std::vector<double> p_;              ///< P(e) = B(e)/C(e) per link
  std::vector<std::uint8_t> usable_;   ///< B(e) > B_t per link
  std::vector<std::uint8_t> host_usable_;  ///< any usable incident link, per node
};

}  // namespace sheriff::mig
