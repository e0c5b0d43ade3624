#include "core/expander_network.h"

#include <gtest/gtest.h>

namespace opera::core {
namespace {

ExpanderNetConfig small_config() {
  ExpanderNetConfig cfg;
  cfg.structure.num_tors = 16;
  cfg.structure.uplinks = 5;
  cfg.structure.hosts_per_tor = 3;  // 48 hosts
  cfg.structure.seed = 9;
  return cfg;
}

TEST(ExpanderNetwork, Builds) {
  ExpanderNetwork net(small_config());
  EXPECT_EQ(net.num_hosts(), 48);
}

TEST(ExpanderNetwork, ShortFlowLowLatency) {
  ExpanderNetwork net(small_config());
  net.submit_flow(0, 47, 10'000, sim::Time::zero());
  net.run_until(sim::Time::ms(1));
  ASSERT_EQ(net.tracker().completed(), 1u);
  EXPECT_LT(net.tracker().completions()[0].fct().to_us(), 50.0);
}

TEST(ExpanderNetwork, AllPairsReachable) {
  ExpanderNetwork net(small_config());
  sim::Rng rng(4);
  for (int i = 0; i < 120; ++i) {
    const auto src = static_cast<std::int32_t>(rng.index(48));
    auto dst = static_cast<std::int32_t>(rng.index(48));
    if (dst == src) dst = (dst + 1) % 48;
    net.submit_flow(src, dst, 2'000 + static_cast<std::int64_t>(rng.index(20'000)),
                    sim::Time::us(static_cast<std::int64_t>(rng.index(400))));
  }
  net.run_until(sim::Time::ms(20));
  EXPECT_EQ(net.tracker().completed(), 120u);
}

TEST(ExpanderNetwork, MultiHopPathsDeliverBytes) {
  ExpanderNetwork net(small_config());
  std::int64_t delivered = 0;
  net.tracker().set_delivery_hook(
      [&](const transport::Flow&, std::int64_t b, sim::Time) { delivered += b; });
  net.submit_flow(0, 47, 500'000, sim::Time::zero());
  net.run_until(sim::Time::ms(5));
  EXPECT_EQ(delivered, 500'000);
}

TEST(ExpanderNetwork, BandwidthTaxVisibleOnAllToAll) {
  // All-to-all bulk-ish load: expander pays the multi-hop tax, so aggregate
  // completion takes longer than the single-flow baseline would suggest.
  // This is a smoke check that heavy load completes (tax effects are
  // quantified in the benches).
  ExpanderNetwork net(small_config());
  for (int s = 0; s < 16; ++s) {
    for (int t = 0; t < 16; ++t) {
      if (s == t) continue;
      net.submit_flow(s * 3, t * 3 + 1, 100'000, sim::Time::zero(),
                      net::TrafficClass::kLowLatency);
    }
  }
  net.run_until(sim::Time::ms(200));
  EXPECT_EQ(net.tracker().completed(), 240u);
}

}  // namespace
}  // namespace opera::core
