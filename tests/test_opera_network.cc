#include "core/opera_network.h"

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace opera::core {
namespace {

OperaConfig small_config() {
  OperaConfig cfg;
  cfg.topology.num_racks = 16;
  cfg.topology.num_switches = 4;
  cfg.topology.hosts_per_rack = 4;
  cfg.topology.seed = 11;
  cfg.seed = 12;
  return cfg;
}

TEST(OperaNetwork, Builds) {
  const auto cfg = small_config();
  OperaNetwork net(cfg);
  EXPECT_EQ(net.num_hosts(), 64);
  EXPECT_EQ(net.num_racks(), 16);
  EXPECT_EQ(net.rack_of_host(0), 0);
  EXPECT_EQ(net.rack_of_host(63), 15);
}

TEST(OperaNetwork, LowLatencyFlowCompletesFast) {
  OperaNetwork net(small_config());
  // 15 KB inter-rack flow: low-latency class, expander path, should finish
  // in tens of microseconds, far less than a slice.
  const auto id = net.submit_flow(0, 60, 15'000, sim::Time::zero());
  net.run_until(sim::Time::ms(5));
  ASSERT_EQ(net.tracker().completed(), 1u);
  const auto& rec = net.tracker().completions().front();
  EXPECT_EQ(rec.flow.id, id);
  EXPECT_LT(rec.fct().to_us(), 100.0);
}

TEST(OperaNetwork, MinimumLatencyNearPropagation) {
  OperaNetwork net(small_config());
  // Single-packet flow: FCT ~ serialization (x hops) + propagation.
  net.submit_flow(0, 60, 1'000, sim::Time::zero());
  net.run_until(sim::Time::ms(2));
  ASSERT_EQ(net.tracker().completed(), 1u);
  const double fct_us = net.tracker().completions().front().fct().to_us();
  EXPECT_GT(fct_us, 1.0);   // at least a couple of link crossings
  EXPECT_LT(fct_us, 30.0);  // and nowhere near a slice time
}

TEST(OperaNetwork, BulkFlowUsesDirectCircuitsAndCompletes) {
  auto cfg = small_config();
  OperaNetwork net(cfg);
  // 20 MB >= threshold: bulk. Must wait for direct circuits, completing
  // within a few cycles (cycle = 16 slices x 99 us = 1.58 ms; 20 MB at
  // ~(u-1)/N of 10G per pair needs several cycles).
  net.submit_flow(0, 60, 20'000'000, sim::Time::zero());
  net.run_until(sim::Time::ms(80));
  ASSERT_EQ(net.tracker().completed(), 1u) << "bulk flow did not complete";
  const auto& rec = net.tracker().completions().front();
  EXPECT_EQ(rec.flow.tclass, net::TrafficClass::kBulk);
  // Sanity: finished in well under the run horizon but over a slice.
  EXPECT_GT(rec.fct().to_ms(), 0.099);
  EXPECT_LT(rec.fct().to_ms(), 80.0);
}

TEST(OperaNetwork, IntraRackFlowBypassesCircuits) {
  OperaNetwork net(small_config());
  // Hosts 0 and 1 share rack 0; even a "bulk"-sized flow goes over the ToR
  // low-latency path at line rate: 16 MB at 10 Gb/s ~ 13.4 ms.
  net.submit_flow(0, 1, 16'000'000, sim::Time::zero());
  net.run_until(sim::Time::ms(40));
  ASSERT_EQ(net.tracker().completed(), 1u);
  EXPECT_LT(net.tracker().completions().front().fct().to_ms(), 25.0);
}

TEST(OperaNetwork, ManyLowLatencyFlows) {
  OperaNetwork net(small_config());
  sim::Rng rng(99);
  int submitted = 0;
  for (int i = 0; i < 200; ++i) {
    const auto src = static_cast<std::int32_t>(rng.index(64));
    auto dst = static_cast<std::int32_t>(rng.index(64));
    if (dst == src) dst = (dst + 1) % 64;
    net.submit_flow(src, dst, 2'000 + static_cast<std::int64_t>(rng.index(50'000)),
                    sim::Time::us(static_cast<std::int64_t>(rng.index(1'000))));
    ++submitted;
  }
  net.run_until(sim::Time::ms(30));
  EXPECT_EQ(net.tracker().completed(), static_cast<std::size_t>(submitted));
}

TEST(OperaNetwork, MixedBulkAndLowLatency) {
  OperaNetwork net(small_config());
  net.submit_flow(0, 60, 20'000'000, sim::Time::zero());  // bulk
  for (int i = 0; i < 20; ++i) {
    net.submit_flow(1, 61, 10'000, sim::Time::us(100 * i));  // low-latency
  }
  net.run_until(sim::Time::ms(80));
  EXPECT_EQ(net.tracker().completed(), 21u);
  // Low-latency FCTs must remain small despite the bulk transfer.
  const auto ll = net.tracker().fct_us(0, 1'000'000);
  EXPECT_LT(ll.percentile(99), 200.0);
}

TEST(OperaNetwork, SliceClockMatchesSchedule) {
  OperaNetwork net(small_config());
  EXPECT_EQ(net.slice_at(sim::Time::zero()), 0);
  EXPECT_EQ(net.slice_at(sim::Time::us(99)), 1);
  EXPECT_EQ(net.slice_at(sim::Time::us(99) * 16), 0);  // wraps at cycle
  net.run_until(sim::Time::us(250));
  EXPECT_EQ(net.current_slice(), 2);
}

TEST(OperaNetwork, BulkSkewUsesVlb) {
  // Rack 0 -> rack 1 only (hot rack): direct capacity between one pair is
  // (u-1)/N of a link; VLB must carry most of the bytes for the flow to
  // finish quickly.
  auto cfg = small_config();
  OperaNetwork net(cfg);
  for (int h = 0; h < 4; ++h) {
    net.submit_flow(h, 4 + h, 30'000'000, sim::Time::zero(),
                    net::TrafficClass::kBulk);
  }
  net.run_until(sim::Time::ms(200));
  EXPECT_EQ(net.tracker().completed(), 4u);

  // With VLB disabled the same workload should be distinctly slower.
  auto cfg2 = small_config();
  cfg2.enable_vlb = false;
  OperaNetwork net2(cfg2);
  for (int h = 0; h < 4; ++h) {
    net2.submit_flow(h, 4 + h, 30'000'000, sim::Time::zero(),
                     net::TrafficClass::kBulk);
  }
  net2.run_until(sim::Time::ms(200));
  double vlb_worst = 0.0;
  for (const auto& rec : net.tracker().completions()) {
    vlb_worst = std::max(vlb_worst, rec.fct().to_ms());
  }
  double novlb_worst = 0.0;
  for (const auto& rec : net2.tracker().completions()) {
    novlb_worst = std::max(novlb_worst, rec.fct().to_ms());
  }
  if (net2.tracker().completed() < 4u) novlb_worst = 200.0;  // still running
  EXPECT_LT(vlb_worst, novlb_worst);
}


// uplink_to reads a per-slice row of usable peers, kept for the current
// and next slice and rebuilt on every failure change. The reference is the
// scan it replaced: every rotor, skipping the reconfiguring switch and
// failed switches or uplinks at either end, judged against the live
// failure set. Over a full cycle every slice is checked as current, as
// next, and as the drain window's routing slice.
int scanned_uplink_to(const OperaNetwork& net, int slice, std::int32_t rack,
                      std::int32_t peer_rack) {
  const topo::OperaTopology& topo = net.topology();
  const topo::FailureSet& failures = net.failures();
  const auto alive = [&](int sw, std::int32_t r) {
    return !failures.switch_failed[static_cast<std::size_t>(sw)] &&
           !failures.uplink_failed[static_cast<std::size_t>(r)][static_cast<std::size_t>(sw)];
  };
  const int down = topo.reconfiguring_switch(slice);
  for (int sw = 0; sw < topo.num_switches(); ++sw) {
    if (sw == down || !alive(sw, rack)) continue;
    if (topo.circuit_peer(sw, rack, slice) == peer_rack && alive(sw, peer_rack)) return sw;
  }
  return -1;
}

// Every (rack, peer) of `slice`, self-pairs included; returns mismatches.
int uplink_mismatches(const OperaNetwork& net, int slice) {
  int bad = 0;
  for (std::int32_t r = 0; r < net.num_racks(); ++r) {
    for (std::int32_t p = 0; p < net.num_racks(); ++p) {
      if (net.uplink_to(slice, r, p) != scanned_uplink_to(net, slice, r, p)) ++bad;
    }
  }
  return bad;
}

void check_uplink_rows(std::int32_t racks, int rotors, std::uint64_t seed) {
  OperaConfig cfg;
  cfg.topology.num_racks = racks;
  cfg.topology.num_switches = rotors;
  cfg.topology.hosts_per_rack = 2;
  cfg.topology.seed = seed;
  cfg.seed = seed + 1;
  OperaNetwork net(cfg);
  const int slices = net.topology().num_slices();
  const sim::Time d = cfg.slice.duration;
  sim::Rng rng(seed);
  std::vector<std::pair<std::int32_t, int>> failed_uplinks;
  int failed_switch = -1;
  int changes = 0;
  // One cycle and a bit, failures and recoveries sprinkled in; each
  // change is checked at once (the rows must follow failures_ without
  // waiting for the hello-protocol recompute).
  for (int abs = 0; abs < slices + 4; ++abs) {
    net.run_until(d * abs);
    const int cur = net.current_slice();
    ASSERT_EQ(cur, abs % slices);
    const int next = (cur + 1) % slices;
    ASSERT_EQ(uplink_mismatches(net, cur), 0) << "slice " << cur;
    ASSERT_EQ(uplink_mismatches(net, next), 0) << "next slice " << next;

    // Inside the drain window forwarding already routes by the next slice.
    net.run_until(d * abs + d - cfg.slice.drain_window / 2);
    ASSERT_EQ(net.routing_slice(), next);
    ASSERT_EQ(uplink_mismatches(net, net.routing_slice()), 0) << "drain " << next;

    const int pick = static_cast<int>(rng.uniform_int(0, 9));
    if (pick < 3) {
      const auto rack = static_cast<std::int32_t>(rng.uniform_int(0, racks - 1));
      const auto sw = static_cast<int>(rng.uniform_int(0, rotors - 1));
      net.inject_uplink_failure(rack, sw);
      failed_uplinks.emplace_back(rack, sw);
    } else if (pick < 5 && !failed_uplinks.empty()) {
      const std::size_t i = rng.index(failed_uplinks.size());
      net.recover_uplink(failed_uplinks[i].first, failed_uplinks[i].second);
      failed_uplinks.erase(failed_uplinks.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (pick == 5 && failed_switch < 0) {
      failed_switch = static_cast<int>(rng.uniform_int(0, rotors - 1));
      net.inject_switch_failure(failed_switch);
    } else if (pick == 6 && failed_switch >= 0) {
      net.recover_switch(failed_switch);
      failed_switch = -1;
    } else {
      --changes;
    }
    ++changes;
    ASSERT_EQ(uplink_mismatches(net, cur), 0) << "after change, slice " << cur;
    ASSERT_EQ(uplink_mismatches(net, next), 0) << "after change, slice " << next;
  }
  EXPECT_GT(changes, slices / 4);
}

TEST(OperaUplinkRows, MatchScanAcrossSlicesAndFailures16x4) { check_uplink_rows(16, 4, 5); }

TEST(OperaUplinkRows, MatchScanAcrossSlicesAndFailures108x6) { check_uplink_rows(108, 6, 9); }

}  // namespace
}  // namespace opera::core
