// fluid::RotorRateLb — the per-slice RotorLB rate allocator behind the
// fluid engine (docs/FLUID.md).
//
// Where the packet engine moves individual packets over per-slice circuit
// grants, the fluid model treats every (src rack, dst rack) flow group as
// a fluid draining at a shared per-flow rate, recomputed once per slice
// from the slice's circuit schedule:
//
//   1. NIC fair share — a rack's hosts_per_rack * link_rate egress
//      (ingress) is split evenly over every flow it sources (sinks),
//      clamped to link_rate (one flow never exceeds a single host NIC).
//   2. Direct circuits first — the group's per-flow rate is capped by the
//      slice's direct a<->b circuit capacity split over the group
//      (#non-reconfiguring, non-failed switches whose matching pairs a
//      with b, times link_rate * duty).
//   3. VLB over leftover — demand the direct circuits cannot carry may
//      ride two-hop Valiant paths over the fabric's spare circuit
//      capacity (relay pool = sum over racks of min(spare up, spare
//      down)), granted proportionally to each group's unmet demand and
//      clamped so no rack's uplink or downlink budget is exceeded. Every
//      VLB byte costs two circuit traversals — the 2x byte tax the
//      accounting exposes.
//
// All loops run in input-group / rack-index / switch-index order over
// plain doubles, so the allocation is bit-for-bit deterministic.
//
// Cost: each call resolves the slice's u-1 live matching rows once and
// reads circuits from them directly; per-rack budgets depend only on the
// slice and the failure set, so they are cached per cyclic slice and
// dropped by set_failures(). Scratch vectors are reused across calls.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/opera_topology.h"

namespace opera::fluid {

// One (src rack, dst rack) flow group; src == dst is an intra-rack group
// (NIC-limited, never touches circuits).
struct GroupDemand {
  std::int32_t src_rack = 0;
  std::int32_t dst_rack = 0;
  std::int64_t flows = 0;
};

// Per-flow deliver rate for one group, split by path type. per_flow ==
// direct_share + vlb_share for inter-rack groups; intra-rack groups carry
// everything in per_flow with both shares zero.
struct GroupRate {
  double per_flow = 0.0;      // bits/sec each flow in the group receives
  double direct_share = 0.0;  // part riding direct a<->b circuits
  double vlb_share = 0.0;     // part riding two-hop VLB (2x byte cost)
};

// Per-slice capacity accounting, exposed for the conservation property
// tests: used_up[r] / used_down[r] never exceed budget[r], and relay_used
// never exceeds relay_pool.
struct RateUsage {
  std::vector<double> budget;     // per-rack circuit capacity (either dir)
  std::vector<double> used_up;    // per-rack egress circuit usage
  std::vector<double> used_down;  // per-rack ingress circuit usage
  double relay_pool = 0.0;        // VLB relay capacity this slice
  double relay_used = 0.0;        // VLB deliver rate actually granted
};

class RotorRateLb {
 public:
  struct Params {
    double link_rate_bps = 10e9;
    // Usable fraction of a slice (guard-adjusted; match the packet
    // engine's OperaConfig::slice_bulk_budget duty factor).
    double duty = 1.0;
    int hosts_per_rack = 6;
    bool enable_vlb = true;
  };

  RotorRateLb(const topo::OperaTopology& topo, const Params& params);

  // Makes later allocate() calls honor `failures` (none until the first
  // call) and drops the cached per-slice budgets. Call again after every
  // change to the set: the allocator keeps its own per-(rack, switch)
  // liveness table, so `failures` need not outlive the call.
  void set_failures(const topo::FailureSet& failures);

  // Rates for `groups` (sorted by (src, dst), flows > 0) during cyclic
  // slice `slice`, under the failure set last given to set_failures().
  // The result is aligned with `groups` and valid until the next call;
  // `usage` (optional) receives the capacity accounting.
  const std::vector<GroupRate>& allocate(int slice,
                                         const std::vector<GroupDemand>& groups,
                                         RateUsage* usage = nullptr);

  [[nodiscard]] const Params& params() const { return params_; }

 private:
  // A circuit a<->b on switch `sw` carries traffic iff the switch and both
  // endpoint racks/uplinks are alive.
  [[nodiscard]] bool circuit_ok(int sw, std::int32_t a, std::int32_t b) const {
    const auto u = static_cast<std::size_t>(topo_.num_switches());
    const auto s = static_cast<std::size_t>(sw);
    return (dead_[static_cast<std::size_t>(a) * u + s] |
            dead_[static_cast<std::size_t>(b) * u + s]) == 0;
  }
  // Number of live a<->b circuits among the slice's live rows (0 when
  // a == b).
  [[nodiscard]] int direct_circuits(std::int32_t a, std::int32_t b) const;
  // Per-rack circuit budget of `slice` (rows_ resolved for it), cached.
  [[nodiscard]] const double* slice_budget(int slice, double circuit_rate);

  const topo::OperaTopology& topo_;
  Params params_;

  // Liveness: dead_[rack * u + sw] != 0 iff the rack, the switch or that
  // uplink has failed; any_failed_ is false iff every entry is 0, which
  // lets allocate() skip the per-circuit checks.
  std::vector<std::uint8_t> dead_;
  bool any_failed_ = false;

  // The current slice's live switches and their matching rows.
  std::vector<int> row_switch_;
  std::vector<const topo::Vertex*> rows_;

  // budget_cache_[slice * N + rack], valid where budget_cached_[slice].
  std::vector<double> budget_cache_;
  std::vector<std::uint8_t> budget_cached_;

  // allocate() scratch, reused across calls.
  std::vector<std::int64_t> out_flows_;
  std::vector<std::int64_t> in_flows_;
  std::vector<GroupRate> rates_;
  std::vector<double> used_up_;
  std::vector<double> used_down_;
  std::vector<double> headroom_;
  std::vector<double> vlb_out_want_;
  std::vector<double> vlb_in_want_;
  std::vector<double> scale_up_;
  std::vector<double> scale_down_;
};

}  // namespace opera::fluid
