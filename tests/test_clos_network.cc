#include "core/clos_network.h"

#include <gtest/gtest.h>

namespace opera::core {
namespace {

ClosNetConfig small_config() {
  ClosNetConfig cfg;
  cfg.structure.radix = 8;
  cfg.structure.oversubscription = 3;
  cfg.structure.num_pods = 4;  // 16 ToRs x 6 hosts = 96 hosts
  return cfg;
}

TEST(ClosNetwork, Builds) {
  ClosNetwork net(small_config());
  EXPECT_EQ(net.num_hosts(), 96);
  EXPECT_EQ(net.rack_of_host(0), 0);
  EXPECT_EQ(net.rack_of_host(95), 15);
}

TEST(ClosNetwork, IntraRackFlow) {
  ClosNetwork net(small_config());
  net.submit_flow(0, 1, 10'000, sim::Time::zero());
  net.run_until(sim::Time::ms(1));
  ASSERT_EQ(net.tracker().completed(), 1u);
  EXPECT_LT(net.tracker().completions()[0].fct().to_us(), 30.0);
}

TEST(ClosNetwork, IntraPodFlow) {
  ClosNetwork net(small_config());
  // Hosts 0 (rack 0) and 11 (rack 1): same pod, ToR-agg-ToR.
  net.submit_flow(0, 11, 10'000, sim::Time::zero());
  net.run_until(sim::Time::ms(1));
  ASSERT_EQ(net.tracker().completed(), 1u);
  EXPECT_LT(net.tracker().completions()[0].fct().to_us(), 40.0);
}

TEST(ClosNetwork, CrossPodFlow) {
  ClosNetwork net(small_config());
  // Host 0 (pod 0) to host 95 (pod 3): 4 switch hops.
  net.submit_flow(0, 95, 10'000, sim::Time::zero());
  net.run_until(sim::Time::ms(1));
  ASSERT_EQ(net.tracker().completed(), 1u);
  EXPECT_LT(net.tracker().completions()[0].fct().to_us(), 60.0);
}

TEST(ClosNetwork, ManyCrossPodFlowsAllComplete) {
  ClosNetwork net(small_config());
  sim::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const auto src = static_cast<std::int32_t>(rng.index(96));
    auto dst = static_cast<std::int32_t>(rng.index(96));
    if (dst == src) dst = (dst + 1) % 96;
    net.submit_flow(src, dst, 5'000 + static_cast<std::int64_t>(rng.index(40'000)),
                    sim::Time::us(static_cast<std::int64_t>(rng.index(500))));
  }
  net.run_until(sim::Time::ms(20));
  EXPECT_EQ(net.tracker().completed(), 100u);
}

TEST(ClosNetwork, PriorityProtectsShortFlows) {
  // A long bulk flow plus short flows on overlapping paths: short-flow
  // tail FCT stays low because of strict priority.
  ClosNetwork net(small_config());
  net.submit_flow(0, 95, 50'000'000, sim::Time::zero());  // bulk class
  for (int i = 0; i < 30; ++i) {
    net.submit_flow(1, 94, 5'000, sim::Time::us(50 * i));
  }
  net.run_until(sim::Time::ms(100));
  const auto small = net.tracker().fct_us(0, 1'000'000);
  ASSERT_EQ(small.count(), 30u);
  EXPECT_LT(small.percentile(99), 100.0);
}

TEST(ClosNetwork, OversubscriptionLimitsCrossPodBandwidth) {
  // 3:1 oversubscribed: a rack's 6 hosts all sending out of the pod share
  // 2 uplinks (radix 8, F=3 -> d=6, u=2).
  ClosNetConfig cfg = small_config();
  ClosNetwork net(cfg);
  // All 6 hosts of rack 0 send 1 MB to distinct cross-pod destinations.
  for (int h = 0; h < 6; ++h) {
    net.submit_flow(h, 48 + h * 6, 1'000'000, sim::Time::zero(),
                    net::TrafficClass::kLowLatency);
  }
  net.run_until(sim::Time::ms(50));
  ASSERT_EQ(net.tracker().completed(), 6u);
  // 6 MB over 2 uplinks at 10G = ~2.4 ms minimum; solo it would be 0.8 ms.
  double worst = 0.0;
  for (const auto& rec : net.tracker().completions()) {
    worst = std::max(worst, rec.fct().to_ms());
  }
  EXPECT_GT(worst, 2.0);
}

}  // namespace
}  // namespace opera::core
