// fluid::RotorRateLb parity: the allocator reads each slice's matching
// rows once and caches per-slice budgets, which must not change a single
// bit of its output. The reference below is the straightforward
// per-switch form — one circuit_peer() lookup and one FailureSet check per
// (rack, switch) — kept here as the oracle. Both are compared with memcmp
// on every GroupRate and on the full RateUsage, over every cyclic slice,
// under random demand and random failure sets that change between calls
// (so a stale cached budget would show).
#include "fluid/rotor_rate_lb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "topo/opera_topology.h"

namespace opera::fluid {
namespace {

bool reference_circuit_ok(const topo::FailureSet& failures, int sw, std::int32_t a,
                          std::int32_t b) {
  const auto sa = static_cast<std::size_t>(a);
  const auto sb = static_cast<std::size_t>(b);
  const auto ssw = static_cast<std::size_t>(sw);
  if (failures.switch_failed[ssw]) return false;
  if (failures.rack_failed[sa] || failures.rack_failed[sb]) return false;
  if (failures.uplink_failed[sa][ssw] || failures.uplink_failed[sb][ssw]) {
    return false;
  }
  return true;
}

int reference_direct_circuits(const topo::OperaTopology& topo, int slice, std::int32_t a,
                              std::int32_t b, const topo::FailureSet& failures) {
  if (a == b) return 0;
  const int down = topo.reconfiguring_switch(slice);
  int count = 0;
  for (int sw = 0; sw < topo.num_switches(); ++sw) {
    if (sw == down) continue;
    if (topo.circuit_peer(sw, static_cast<topo::Vertex>(a), slice) !=
        static_cast<topo::Vertex>(b)) {
      continue;
    }
    if (reference_circuit_ok(failures, sw, a, b)) ++count;
  }
  return count;
}

std::vector<GroupRate> reference_allocate(const topo::OperaTopology& topo,
                                          const RotorRateLb::Params& params, int slice,
                                          const std::vector<GroupDemand>& groups,
                                          const topo::FailureSet& failures,
                                          RateUsage* usage) {
  const auto n = static_cast<std::size_t>(topo.num_racks());
  const double circuit_rate = params.link_rate_bps * params.duty;
  const double host_cap = params.hosts_per_rack * params.link_rate_bps;
  const int down = topo.reconfiguring_switch(slice);

  std::vector<double> budget(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const auto rack = static_cast<topo::Vertex>(r);
    for (int sw = 0; sw < topo.num_switches(); ++sw) {
      if (sw == down) continue;
      const topo::Vertex peer = topo.circuit_peer(sw, rack, slice);
      if (peer == rack) continue;
      if (reference_circuit_ok(failures, sw, static_cast<std::int32_t>(r),
                               static_cast<std::int32_t>(peer))) {
        budget[r] += circuit_rate;
      }
    }
  }

  std::vector<std::int64_t> out_flows(n, 0);
  std::vector<std::int64_t> in_flows(n, 0);
  for (const GroupDemand& g : groups) {
    out_flows[static_cast<std::size_t>(g.src_rack)] += g.flows;
    in_flows[static_cast<std::size_t>(g.dst_rack)] += g.flows;
  }

  std::vector<GroupRate> rates(groups.size());
  std::vector<double> used_up(n, 0.0);
  std::vector<double> used_down(n, 0.0);
  std::vector<double> headroom(groups.size(), 0.0);
  std::vector<double> vlb_out_want(n, 0.0);
  std::vector<double> vlb_in_want(n, 0.0);
  double total_excess = 0.0;

  for (std::size_t i = 0; i < groups.size(); ++i) {
    const GroupDemand& g = groups[i];
    assert(g.flows > 0);
    const auto a = static_cast<std::size_t>(g.src_rack);
    const auto b = static_cast<std::size_t>(g.dst_rack);
    const double nic_share = std::min(
        params.link_rate_bps,
        std::min(host_cap / static_cast<double>(out_flows[a]),
                 host_cap / static_cast<double>(in_flows[b])));
    if (g.src_rack == g.dst_rack) {
      rates[i].per_flow = nic_share;
      continue;
    }
    const double direct_cap =
        reference_direct_circuits(topo, slice, g.src_rack, g.dst_rack, failures) *
        circuit_rate;
    const double direct_per_flow = direct_cap / static_cast<double>(g.flows);
    const double base = std::min(nic_share, direct_per_flow);
    rates[i].direct_share = base;
    rates[i].per_flow = base;
    used_up[a] += static_cast<double>(g.flows) * base;
    used_down[b] += static_cast<double>(g.flows) * base;
    const double h = nic_share - base;
    if (h > 0.0) {
      headroom[i] = h;
      const double want = static_cast<double>(g.flows) * h;
      vlb_out_want[a] += want;
      vlb_in_want[b] += want;
      total_excess += want;
    }
  }

  double relay_pool = 0.0;
  double relay_used = 0.0;
  if (params.enable_vlb && total_excess > 0.0) {
    for (std::size_t r = 0; r < n; ++r) {
      const double spare_up = std::max(0.0, budget[r] - used_up[r]);
      const double spare_down = std::max(0.0, budget[r] - used_down[r]);
      relay_pool += std::min(spare_up, spare_down);
    }
    const double fill = std::min(1.0, relay_pool / (2.0 * total_excess));
    if (fill > 0.0) {
      std::vector<double> scale_up(n, 1.0);
      std::vector<double> scale_down(n, 1.0);
      for (std::size_t r = 0; r < n; ++r) {
        const double want_up = vlb_out_want[r] * fill;
        if (want_up > 0.0) {
          scale_up[r] = std::min(
              1.0, std::max(0.0, budget[r] - used_up[r]) / want_up);
        }
        const double want_down = vlb_in_want[r] * fill;
        if (want_down > 0.0) {
          scale_down[r] = std::min(
              1.0, std::max(0.0, budget[r] - used_down[r]) / want_down);
        }
      }
      for (std::size_t i = 0; i < groups.size(); ++i) {
        if (headroom[i] <= 0.0) continue;
        const GroupDemand& g = groups[i];
        const auto a = static_cast<std::size_t>(g.src_rack);
        const auto b = static_cast<std::size_t>(g.dst_rack);
        const double grant =
            headroom[i] * fill * std::min(scale_up[a], scale_down[b]);
        rates[i].vlb_share = grant;
        rates[i].per_flow += grant;
        const double group_rate = static_cast<double>(g.flows) * grant;
        used_up[a] += group_rate;
        used_down[b] += group_rate;
        relay_used += group_rate;
      }
    }
  }

  if (usage != nullptr) {
    usage->budget = std::move(budget);
    usage->used_up = std::move(used_up);
    usage->used_down = std::move(used_down);
    usage->relay_pool = relay_pool;
    usage->relay_used = relay_used;
  }
  return rates;
}

// Random sparse demand over `n` racks, sorted by (src, dst). Roughly one
// group in eight is intra-rack.
std::vector<GroupDemand> random_demand(int n, int max_groups, sim::Rng& rng) {
  std::map<std::pair<std::int32_t, std::int32_t>, std::int64_t> demand;
  const int pairs = 1 + static_cast<int>(rng.index(static_cast<std::size_t>(max_groups)));
  for (int p = 0; p < pairs; ++p) {
    const auto a = static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(n)));
    const auto b = rng.index(8) == 0
                       ? a
                       : static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(n)));
    demand[{a, b}] += rng.uniform_int(1, 40);
  }
  std::vector<GroupDemand> groups;
  groups.reserve(demand.size());
  for (const auto& [key, flows] : demand) {
    groups.push_back(GroupDemand{key.first, key.second, flows});
  }
  return groups;
}

// A random mix of failed switches, racks and uplinks (possibly none).
topo::FailureSet random_failures(int n, int u, sim::Rng& rng) {
  auto f = topo::FailureSet::none(n, u);
  if (rng.index(4) == 0) return f;
  if (rng.index(3) == 0) f.switch_failed[rng.index(static_cast<std::size_t>(u))] = true;
  const std::size_t racks = rng.index(3);
  for (std::size_t i = 0; i < racks; ++i) {
    f.rack_failed[rng.index(static_cast<std::size_t>(n))] = true;
  }
  const std::size_t uplinks = rng.index(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < uplinks; ++i) {
    f.uplink_failed[rng.index(static_cast<std::size_t>(n))]
                   [rng.index(static_cast<std::size_t>(u))] = true;
  }
  return f;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_parity(const topo::OperaTopology& topo, const RotorRateLb::Params& params,
                   RotorRateLb& lb, int slice, const std::vector<GroupDemand>& groups,
                   const topo::FailureSet& failures) {
  RateUsage want_usage;
  const auto want = reference_allocate(topo, params, slice, groups, failures, &want_usage);
  RateUsage got_usage;
  const auto& got = lb.allocate(slice, groups, &got_usage);
  ASSERT_TRUE(same_bits(got, want)) << "rates differ in slice " << slice;
  ASSERT_TRUE(same_bits(got_usage.budget, want_usage.budget)) << "slice " << slice;
  ASSERT_TRUE(same_bits(got_usage.used_up, want_usage.used_up)) << "slice " << slice;
  ASSERT_TRUE(same_bits(got_usage.used_down, want_usage.used_down)) << "slice " << slice;
  ASSERT_TRUE(same_bits(got_usage.relay_pool, want_usage.relay_pool)) << "slice " << slice;
  ASSERT_TRUE(same_bits(got_usage.relay_used, want_usage.relay_used)) << "slice " << slice;
}

void check_parity(topo::Vertex racks, int switches, int max_groups, std::uint64_t seed) {
  const topo::OperaTopology topo(topo::OperaParams{racks, switches, seed, 6});
  sim::Rng rng(seed * 31 + 5);
  for (const bool vlb : {true, false}) {
    const RotorRateLb::Params params{10e9, 0.9, 6, vlb};
    RotorRateLb lb(topo, params);
    auto failures = topo::FailureSet::none(racks, switches);
    for (int trial = 0; trial < 6; ++trial) {
      const auto groups = random_demand(racks, max_groups, rng);
      // Change the failure set halfway through the cycle, after the first
      // half's budgets are cached, then sweep the whole cycle again.
      const int change_at = topo.num_slices() / 2;
      for (int pass = 0; pass < 2; ++pass) {
        for (int slice = 0; slice < topo.num_slices(); ++slice) {
          if (pass == 0 && slice == change_at) {
            failures = random_failures(racks, switches, rng);
            lb.set_failures(failures);
          }
          expect_parity(topo, params, lb, slice, groups, failures);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(RotorRateLbParity, MatchesPerSwitchReference16x4) { check_parity(16, 4, 60, 3); }

TEST(RotorRateLbParity, MatchesPerSwitchReference108x6) { check_parity(108, 6, 400, 9); }

}  // namespace
}  // namespace opera::fluid
