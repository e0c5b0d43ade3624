// ShardParityTest — the sharded-core contract: a run sharded over N rack
// domains is bit-identical to the 1-shard run, for threads ∈ {1, 2, 4}.
// Opera is exercised at the k=8 (16x4) and k=16 (24x8) test fabrics over a
// mixed workload (NDP low-latency mice plus RotorLB bulk elephants with
// VLB relaying) and including a mid-run failure-recovery scenario
// (uplink + rotor-switch failures with hello-protocol reconvergence). The
// folded Clos, the static expander and RotorNet (hybrid and all-optical)
// run the same workload at 16x4 scale.
//
// "Bit-identical" is checked on everything the experiment layer reads:
// the full completion stream (flow id, start, completion timestamp — in
// stream order, which the canonical lane merge makes deterministic), the
// executed event count, the multi-layer fingerprint, and (Opera) ToR
// trim/drop/forward-drop counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/fabric.h"
#include "core/opera_network.h"
#include "sim/checkpoint.h"
#include "sim/rng.h"

namespace opera {
namespace {

struct Completion {
  std::uint64_t id;
  std::int64_t start_ps;
  std::int64_t end_ps;
  bool operator==(const Completion&) const = default;
};

struct RunOutput {
  std::vector<Completion> completions;
  std::uint64_t trims = 0;
  std::uint64_t drops = 0;
  std::uint64_t forward_drops = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  bool operator==(const RunOutput&) const = default;
};

core::OperaConfig small_opera(topo::Vertex racks, int u, int hosts_per_rack) {
  core::OperaConfig cfg;
  cfg.topology.num_racks = racks;
  cfg.topology.num_switches = u;
  cfg.topology.hosts_per_rack = hosts_per_rack;
  cfg.topology.seed = 3;
  // Low threshold so 600 KB elephants ride the RotorLB bulk path (same
  // testbed convention as test_routing_parity.cc).
  cfg.bulk_threshold_bytes = 100'000;
  return cfg;
}

// Mix of low-latency mice and bulk elephants (>= the 100 KB thresholds the
// test configs set), spread over the first 800 us.
void submit_mixed_workload(core::Network& net) {
  sim::Rng wl(99);
  const auto hosts = static_cast<std::size_t>(net.num_hosts());
  for (int i = 0; i < 160; ++i) {
    const auto src = static_cast<std::int32_t>(wl.index(hosts));
    auto dst = static_cast<std::int32_t>(wl.index(hosts));
    while (dst == src) dst = static_cast<std::int32_t>(wl.index(hosts));
    // Mix of NDP mice and RotorLB elephants.
    const std::int64_t bytes = (i % 4 == 0) ? 600'000 : 20'000;
    net.submit_flow(src, dst, bytes, sim::Time::us(5 * i));
  }
}

// Completion stream, event count and fingerprint, read at a barrier.
RunOutput collect(const core::Network& net) {
  RunOutput out;
  for (const auto& rec : net.tracker().completions()) {
    out.completions.push_back(Completion{rec.flow.id, rec.flow.start.picoseconds(),
                                         rec.end.picoseconds()});
  }
  out.events = net.events_executed();
  sim::Fingerprint fp;
  net.fingerprint(fp);
  out.digest = fp.digest();
  return out;
}

RunOutput run_opera(const core::OperaConfig& base, int threads, bool inject_failures) {
  core::OperaConfig cfg = base;
  cfg.threads = threads;
  core::OperaNetwork net(cfg);
  EXPECT_EQ(net.num_shards(), std::min<int>(threads, net.num_racks()));

  submit_mixed_workload(net);
  if (inject_failures) {
    // Mid-run, at fixed simulated times, with traffic in flight; the
    // second failure lands after the first recovery's reconvergence.
    net.run_until(sim::Time::us(300));
    net.inject_uplink_failure(1, 0);
    net.run_until(sim::Time::ms(3));
    net.inject_switch_failure(2);
  }
  net.run_until(sim::Time::ms(40));

  RunOutput out = collect(net);
  const auto stats = net.tor_stats();
  out.trims = stats.trims;
  out.drops = stats.drops;
  out.forward_drops = stats.forward_drops;
  return out;
}

RunOutput run_fabric(const core::FabricConfig& base, int threads) {
  core::FabricConfig cfg = base;
  cfg.threads = threads;
  const auto net = core::NetworkFactory::build(cfg);
  EXPECT_EQ(net->num_shards(), std::min<int>(threads, net->num_racks()));
  submit_mixed_workload(*net);
  net->run_until(sim::Time::ms(40));
  return collect(*net);
}

template <typename Run>
void expect_parity_of(const Run& run, const std::string& label) {
  const RunOutput one = run(1);
  ASSERT_FALSE(one.completions.empty()) << label;
  for (const int threads : {2, 4}) {
    const RunOutput sharded = run(threads);
    ASSERT_EQ(one.completions.size(), sharded.completions.size())
        << label << " threads=" << threads;
    for (std::size_t i = 0; i < one.completions.size(); ++i) {
      ASSERT_EQ(one.completions[i], sharded.completions[i])
          << label << " threads=" << threads << ": completion " << i;
    }
    EXPECT_EQ(one.trims, sharded.trims) << label << " threads=" << threads;
    EXPECT_EQ(one.drops, sharded.drops) << label << " threads=" << threads;
    EXPECT_EQ(one.forward_drops, sharded.forward_drops)
        << label << " threads=" << threads;
    EXPECT_EQ(one.events, sharded.events) << label << " threads=" << threads;
    EXPECT_EQ(one.digest, sharded.digest) << label << " threads=" << threads;
  }
}

void expect_parity(const core::OperaConfig& cfg, bool inject_failures,
                   const std::string& label) {
  expect_parity_of(
      [&](int threads) { return run_opera(cfg, threads, inject_failures); }, label);
}

void expect_fabric_parity(const core::FabricConfig& cfg) {
  expect_parity_of([&](int threads) { return run_fabric(cfg, threads); },
                   cfg.describe());
}

core::FabricConfig small_fabric(core::FabricKind kind, bool hybrid = false) {
  auto cfg = core::FabricConfig::make(kind);
  cfg.rotornet.hybrid = hybrid;
  cfg.scale(16, 4);
  cfg.bulk_threshold_bytes = 100'000;
  return cfg;
}

TEST(ShardParityTest, K8MixedWorkloadBitIdentical) {
  expect_parity(small_opera(16, 4, 4), false, "opera k=8 16x4");
}

TEST(ShardParityTest, K16MixedWorkloadBitIdentical) {
  expect_parity(small_opera(24, 8, 8), false, "opera k=16 24x8");
}

TEST(ShardParityTest, K8FailureRecoveryBitIdentical) {
  expect_parity(small_opera(16, 4, 4), true, "opera k=8 +failures");
}

TEST(ShardParityTest, K16FailureRecoveryBitIdentical) {
  expect_parity(small_opera(24, 8, 8), true, "opera k=16 +failures");
}

TEST(ShardParityTest, ClosMixedWorkloadBitIdentical) {
  expect_fabric_parity(small_fabric(core::FabricKind::kFoldedClos));
}

TEST(ShardParityTest, ExpanderMixedWorkloadBitIdentical) {
  expect_fabric_parity(small_fabric(core::FabricKind::kExpander));
}

TEST(ShardParityTest, RotorNetMixedWorkloadBitIdentical) {
  expect_fabric_parity(small_fabric(core::FabricKind::kRotorNet));
}

TEST(ShardParityTest, RotorNetHybridMixedWorkloadBitIdentical) {
  expect_fabric_parity(small_fabric(core::FabricKind::kRotorNet, /*hybrid=*/true));
}

TEST(ShardParityTest, EnvThreadsKnobResolvesIntoShardCount) {
  core::OperaConfig cfg = small_opera(16, 4, 4);
  cfg.threads = 2;
  core::OperaNetwork net(cfg);
  EXPECT_EQ(net.num_shards(), 2);
  // More shards than racks clamps to rack granularity.
  cfg.threads = 64;
  core::OperaNetwork clamped(cfg);
  EXPECT_EQ(clamped.num_shards(), 16);
}

}  // namespace
}  // namespace opera
