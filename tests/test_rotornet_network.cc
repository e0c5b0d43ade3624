#include "core/rotornet_network.h"

#include <gtest/gtest.h>

namespace opera::core {
namespace {

RotorNetConfig small_config(bool hybrid) {
  RotorNetConfig cfg;
  cfg.structure.num_racks = 16;
  cfg.structure.num_switches = hybrid ? 5 : 4;  // 4 rotors either way
  cfg.structure.hybrid = hybrid;
  cfg.structure.seed = 21;
  cfg.hosts_per_rack = 4;
  cfg.seed = 22;
  return cfg;
}

TEST(RotorNetNetwork, NonHybridBulkCompletes) {
  RotorNetNetwork net(small_config(false));
  net.submit_flow(0, 60, 5'000'000, sim::Time::zero());
  net.run_until(sim::Time::ms(60));
  ASSERT_EQ(net.tracker().completed(), 1u);
}

TEST(RotorNetNetwork, NonHybridShortFlowWaitsForCircuits) {
  // The all-optical RotorNet's key weakness (paper Fig. 7c): even a tiny
  // flow waits for a direct/VLB circuit, so FCT is on the slice/cycle
  // scale (hundreds of us), orders beyond Opera's expander path.
  RotorNetNetwork net(small_config(false));
  net.submit_flow(0, 60, 1'000, sim::Time::zero());
  net.run_until(sim::Time::ms(20));
  ASSERT_EQ(net.tracker().completed(), 1u);
  EXPECT_GT(net.tracker().completions()[0].fct().to_us(), 90.0);
}

TEST(RotorNetNetwork, HybridShortFlowFast) {
  RotorNetNetwork net(small_config(true));
  net.submit_flow(0, 60, 1'000, sim::Time::zero());
  net.run_until(sim::Time::ms(5));
  ASSERT_EQ(net.tracker().completed(), 1u);
  EXPECT_LT(net.tracker().completions()[0].fct().to_us(), 20.0);
}

TEST(RotorNetNetwork, HybridMixedTraffic) {
  RotorNetNetwork net(small_config(true));
  net.submit_flow(0, 60, 20'000'000, sim::Time::zero());  // bulk via rotors
  for (int i = 0; i < 10; ++i) {
    net.submit_flow(1, 61, 5'000, sim::Time::us(100 * i));  // NDP via core
  }
  net.run_until(sim::Time::ms(120));
  EXPECT_EQ(net.tracker().completed(), 11u);
  const auto small = net.tracker().fct_us(0, 1'000'000);
  EXPECT_LT(small.percentile(99), 100.0);
}

TEST(RotorNetNetwork, HybridBulkThresholdComesFromConfig) {
  RotorNetConfig cfg = small_config(true);
  cfg.bulk_threshold_bytes = 1'000'000;
  RotorNetNetwork net(cfg);
  const auto bulk = net.submit_flow(0, 60, 2'000'000, sim::Time::zero());
  const auto small = net.submit_flow(0, 60, 500'000, sim::Time::zero());
  EXPECT_EQ(net.tracker().find(bulk)->tclass, net::TrafficClass::kBulk);
  EXPECT_EQ(net.tracker().find(small)->tclass, net::TrafficClass::kLowLatency);
}

TEST(RotorNetNetwork, IntraRackIsImmediate) {
  RotorNetNetwork net(small_config(false));
  net.submit_flow(0, 1, 50'000, sim::Time::zero());
  net.run_until(sim::Time::ms(1));
  ASSERT_EQ(net.tracker().completed(), 1u);
  EXPECT_LT(net.tracker().completions()[0].fct().to_us(), 80.0);
}

TEST(RotorNetNetwork, UniformBulkLoadCompletes) {
  RotorNetNetwork net(small_config(false));
  // One 500 KB bulk flow from each rack to the next (ring pattern).
  for (int r = 0; r < 16; ++r) {
    net.submit_flow(r * 4, ((r + 1) % 16) * 4, 500'000, sim::Time::zero());
  }
  net.run_until(sim::Time::ms(60));
  EXPECT_EQ(net.tracker().completed(), 16u);
}

}  // namespace
}  // namespace opera::core
