#include "fluid/rotor_rate_lb.h"

#include <algorithm>
#include <cassert>

namespace opera::fluid {

RotorRateLb::RotorRateLb(const topo::OperaTopology& topo, const Params& params)
    : topo_(topo),
      params_(params),
      dead_(static_cast<std::size_t>(topo.num_racks()) *
                static_cast<std::size_t>(topo.num_switches()),
            0) {}

void RotorRateLb::set_failures(const topo::FailureSet& failures) {
  const auto n = static_cast<std::size_t>(topo_.num_racks());
  const auto u = static_cast<std::size_t>(topo_.num_switches());
  any_failed_ = false;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t sw = 0; sw < u; ++sw) {
      const bool dead = failures.rack_failed[r] || failures.switch_failed[sw] ||
                        failures.uplink_failed[r][sw];
      dead_[r * u + sw] = dead ? 1 : 0;
      any_failed_ = any_failed_ || dead;
    }
  }
  std::fill(budget_cached_.begin(), budget_cached_.end(), 0);
}

int RotorRateLb::direct_circuits(std::int32_t a, std::int32_t b) const {
  if (a == b) return 0;
  const auto sa = static_cast<std::size_t>(a);
  const auto vb = static_cast<topo::Vertex>(b);
  int count = 0;
  for (std::size_t j = 0; j < rows_.size(); ++j) {
    if (rows_[j][sa] != vb) continue;
    if (!any_failed_ || circuit_ok(row_switch_[j], a, b)) ++count;
  }
  return count;
}

const double* RotorRateLb::slice_budget(int slice, double circuit_rate) {
  const auto n = static_cast<std::size_t>(topo_.num_racks());
  if (budget_cached_.empty()) {
    const auto slices = static_cast<std::size_t>(topo_.num_slices());
    budget_cache_.assign(slices * n, 0.0);
    budget_cached_.assign(slices, 0);
  }
  double* budget = budget_cache_.data() + static_cast<std::size_t>(slice) * n;
  if (budget_cached_[static_cast<std::size_t>(slice)] != 0) return budget;
  // One circuit_rate per live, non-self-matched uplink, summed in switch
  // order. Matchings are involutions, so the same budget bounds both
  // egress and ingress.
  for (std::size_t r = 0; r < n; ++r) {
    const auto rack = static_cast<topo::Vertex>(r);
    double sum = 0.0;
    for (std::size_t j = 0; j < rows_.size(); ++j) {
      const topo::Vertex peer = rows_[j][r];
      if (peer == rack) continue;  // self-match carries no traffic
      if (!any_failed_ ||
          circuit_ok(row_switch_[j], static_cast<std::int32_t>(r),
                     static_cast<std::int32_t>(peer))) {
        sum += circuit_rate;
      }
    }
    budget[r] = sum;
  }
  budget_cached_[static_cast<std::size_t>(slice)] = 1;
  return budget;
}

const std::vector<GroupRate>& RotorRateLb::allocate(
    int slice, const std::vector<GroupDemand>& groups, RateUsage* usage) {
  const auto n = static_cast<std::size_t>(topo_.num_racks());
  const double circuit_rate = params_.link_rate_bps * params_.duty;
  const double host_cap = params_.hosts_per_rack * params_.link_rate_bps;

  // The slice's live switches and their matching rows, resolved once.
  const int down = topo_.reconfiguring_switch(slice);
  row_switch_.clear();
  rows_.clear();
  for (int sw = 0; sw < topo_.num_switches(); ++sw) {
    if (sw == down) continue;
    row_switch_.push_back(sw);
    rows_.push_back(topo_.circuit_row(sw, slice).data());
  }
  const double* budget = slice_budget(slice, circuit_rate);

  // NIC fair shares: every flow a rack sources (sinks) gets an even split
  // of its aggregate host capacity.
  out_flows_.assign(n, 0);
  in_flows_.assign(n, 0);
  for (const GroupDemand& g : groups) {
    out_flows_[static_cast<std::size_t>(g.src_rack)] += g.flows;
    in_flows_[static_cast<std::size_t>(g.dst_rack)] += g.flows;
  }

  rates_.assign(groups.size(), GroupRate{});
  used_up_.assign(n, 0.0);
  used_down_.assign(n, 0.0);
  // Unmet per-flow demand (NIC share minus direct share) per group, and
  // its per-rack aggregates — the VLB "want" sides.
  headroom_.assign(groups.size(), 0.0);
  vlb_out_want_.assign(n, 0.0);
  vlb_in_want_.assign(n, 0.0);
  double total_excess = 0.0;

  for (std::size_t i = 0; i < groups.size(); ++i) {
    const GroupDemand& g = groups[i];
    assert(g.flows > 0);
    const auto a = static_cast<std::size_t>(g.src_rack);
    const auto b = static_cast<std::size_t>(g.dst_rack);
    // One flow never exceeds a single host NIC, even when the rack
    // aggregate would allow it (out_flows < hosts_per_rack).
    const double nic_share = std::min(
        params_.link_rate_bps,
        std::min(host_cap / static_cast<double>(out_flows_[a]),
                 host_cap / static_cast<double>(in_flows_[b])));
    if (g.src_rack == g.dst_rack) {
      // Intra-rack: host -> ToR -> host, never on circuits.
      rates_[i].per_flow = nic_share;
      continue;
    }
    const double direct_cap =
        direct_circuits(g.src_rack, g.dst_rack) * circuit_rate;
    const double direct_per_flow = direct_cap / static_cast<double>(g.flows);
    const double base = std::min(nic_share, direct_per_flow);
    rates_[i].direct_share = base;
    rates_[i].per_flow = base;
    used_up_[a] += static_cast<double>(g.flows) * base;
    used_down_[b] += static_cast<double>(g.flows) * base;
    const double h = nic_share - base;
    if (h > 0.0) {
      headroom_[i] = h;
      const double want = static_cast<double>(g.flows) * h;
      vlb_out_want_[a] += want;
      vlb_in_want_[b] += want;
      total_excess += want;
    }
  }

  // VLB pass: the relay pool is the fabric's circuit capacity left over
  // after direct traffic. Every VLB deliver-unit consumes two pool units
  // — one at the sender/receiver edge, one at the relay (the paper's 2x
  // byte tax) — so grants fill unmet demand at pool/2, proportional to
  // each group's excess and clamped per rack so no budget is exceeded.
  double relay_pool = 0.0;
  double relay_used = 0.0;
  if (params_.enable_vlb && total_excess > 0.0) {
    for (std::size_t r = 0; r < n; ++r) {
      const double spare_up = std::max(0.0, budget[r] - used_up_[r]);
      const double spare_down = std::max(0.0, budget[r] - used_down_[r]);
      relay_pool += std::min(spare_up, spare_down);
    }
    const double fill = std::min(1.0, relay_pool / (2.0 * total_excess));
    if (fill > 0.0) {
      // Sender/receiver-side scale factors so the granted VLB rate fits
      // the racks' remaining circuit budgets.
      scale_up_.assign(n, 1.0);
      scale_down_.assign(n, 1.0);
      for (std::size_t r = 0; r < n; ++r) {
        const double want_up = vlb_out_want_[r] * fill;
        if (want_up > 0.0) {
          scale_up_[r] = std::min(
              1.0, std::max(0.0, budget[r] - used_up_[r]) / want_up);
        }
        const double want_down = vlb_in_want_[r] * fill;
        if (want_down > 0.0) {
          scale_down_[r] = std::min(
              1.0, std::max(0.0, budget[r] - used_down_[r]) / want_down);
        }
      }
      for (std::size_t i = 0; i < groups.size(); ++i) {
        if (headroom_[i] <= 0.0) continue;
        const GroupDemand& g = groups[i];
        const auto a = static_cast<std::size_t>(g.src_rack);
        const auto b = static_cast<std::size_t>(g.dst_rack);
        const double grant =
            headroom_[i] * fill * std::min(scale_up_[a], scale_down_[b]);
        rates_[i].vlb_share = grant;
        rates_[i].per_flow += grant;
        const double group_rate = static_cast<double>(g.flows) * grant;
        used_up_[a] += group_rate;
        used_down_[b] += group_rate;
        relay_used += group_rate;
      }
    }
  }

  if (usage != nullptr) {
    usage->budget.assign(budget, budget + n);
    usage->used_up = used_up_;
    usage->used_down = used_down_;
    usage->relay_pool = relay_pool;
    usage->relay_used = relay_used;
  }
  return rates_;
}

}  // namespace opera::fluid
