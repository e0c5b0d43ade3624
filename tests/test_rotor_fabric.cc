// RotorFabric golden pins: Opera and RotorNet share one RotorLB controller
// (core/rotor_fabric.h) — one grant loop, one coordinator rng, one relay
// path. These runs pin the exact output of that controller (completion
// stream digest and executed event count, plus Opera's full checkpoint
// fingerprint) on five workloads that reach every branch of the grant
// loop: skewed bulk with and without VLB, an uplink failure and recovery
// that masks dead-end relays, and RotorNet with and without its hybrid
// packet core. Any change to grant order, budgets or rng draws moves a pin.
// The event count and the fingerprint also see which engine events exist
// (a port's serializer-done event is scheduled only while a packet waits),
// so a change there moves them while the tracker digests stay put.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/opera_network.h"
#include "core/rotornet_network.h"
#include "sim/checkpoint.h"

namespace opera::core {
namespace {

constexpr std::int64_t kBulk = 15'000'000;  // the default bulk threshold

struct Pin {
  std::uint64_t tracker_digest;
  std::uint64_t events;
  std::uint64_t fingerprint;  // Opera only; 0 for RotorNet
};

struct Observed {
  std::uint64_t tracker_digest = 0;
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t completed = 0;
};

Observed observe(const Network& net) {
  Observed out;
  sim::Fingerprint tracker_fp;
  net.tracker().fingerprint(tracker_fp);
  out.tracker_digest = tracker_fp.digest();
  out.events = net.events_executed();
  sim::Fingerprint fp;
  net.fingerprint(fp);
  out.fingerprint = fp.digest();
  out.completed = net.tracker().completed();
  return out;
}

void expect_pinned(const Observed& got, const Pin& pin, bool check_fingerprint) {
  EXPECT_EQ(got.tracker_digest, pin.tracker_digest)
      << std::hex << "tracker digest 0x" << got.tracker_digest;
  EXPECT_EQ(got.events, pin.events) << "events " << got.events;
  if (check_fingerprint) {
    EXPECT_EQ(got.fingerprint, pin.fingerprint)
        << std::hex << "fingerprint 0x" << got.fingerprint;
  }
}

OperaConfig opera_16x4() {
  OperaConfig cfg;
  cfg.topology.num_racks = 16;
  cfg.topology.num_switches = 4;
  cfg.topology.hosts_per_rack = 4;
  cfg.topology.seed = 3;
  cfg.seed = 7;
  return cfg;
}

// Skewed bulk: every host of racks 0 and 1 sends one 15 MB flow into rack
// 5 (direct circuits cannot carry it, so VLB relays through the other
// racks), plus a ring of 16 MB flows and a trickle of low-latency mice.
void submit_skewed(Network& net) {
  const std::int32_t d = net.num_hosts() / net.num_racks();
  for (std::int32_t i = 0; i < 2 * d; ++i) {
    net.submit_flow(i, 5 * d + i % d, kBulk, sim::Time::us(10 * i));
  }
  for (std::int32_t r = 2; r < net.num_racks(); r += 3) {
    const std::int32_t dst_rack = (r + 7) % net.num_racks();
    net.submit_flow(r * d + 1, dst_rack * d + 2, kBulk + 1'000'000, sim::Time::us(50));
  }
  for (int i = 0; i < 40; ++i) {
    const std::int32_t src = (7 * i + 3) % net.num_hosts();
    const std::int32_t dst = (src + 11 * d + 1) % net.num_hosts();
    net.submit_flow(src, dst, 30'000, sim::Time::us(37 * i));
  }
}

Observed run_opera(const OperaConfig& cfg, bool fail_and_recover) {
  OperaNetwork net(cfg);
  submit_skewed(net);
  if (fail_and_recover) {
    // The failure reconverges one cycle later (relay_reach_ masks relays
    // that lost their direct circuit), the recovery one cycle after that.
    net.run_until(sim::Time::ms(2));
    net.inject_uplink_failure(5, 1);
    net.run_until(sim::Time::ms(12));
    net.recover_uplink(5, 1);
  }
  net.run_until(sim::Time::ms(30));
  return observe(net);
}

RotorNetConfig rotornet_16x4(bool hybrid) {
  RotorNetConfig cfg;
  cfg.structure.num_racks = 16;
  cfg.structure.num_switches = hybrid ? 5 : 4;  // 4 rotors either way
  cfg.structure.hybrid = hybrid;
  cfg.structure.seed = 21;
  cfg.hosts_per_rack = 4;
  cfg.seed = 22;
  return cfg;
}

Observed run_rotornet(bool hybrid) {
  RotorNetNetwork net(rotornet_16x4(hybrid));
  submit_skewed(net);
  net.run_until(sim::Time::ms(30));
  return observe(net);
}

TEST(RotorFabricGolden, OperaSkewedBulkWithVlb) {
  const Observed got = run_opera(opera_16x4(), false);
  EXPECT_GT(got.completed, 0u);
  expect_pinned(got, {0x2c67e6a92da80fa0ULL, 954025, 0xe250cd8503c1588eULL}, true);
}

TEST(RotorFabricGolden, OperaSkewedBulkWithoutVlb) {
  OperaConfig cfg = opera_16x4();
  cfg.enable_vlb = false;
  const Observed got = run_opera(cfg, false);
  EXPECT_GT(got.completed, 0u);
  expect_pinned(got, {0x346f2cf4997be5d4ULL, 181809, 0xb26f696f9ec500c6ULL}, true);
}

TEST(RotorFabricGolden, OperaUplinkFailureAndRecovery) {
  const Observed got = run_opera(opera_16x4(), true);
  EXPECT_GT(got.completed, 0u);
  expect_pinned(got, {0x0d4a17eaebcae7adULL, 967099, 0x87d37a347f244f60ULL}, true);
}

TEST(RotorFabricGolden, RotorNet) {
  const Observed got = run_rotornet(false);
  EXPECT_GT(got.completed, 0u);
  expect_pinned(got, {0xab0bd9cba0add507ULL, 948612, 0}, false);
}

TEST(RotorFabricGolden, RotorNetHybridMixed) {
  const Observed got = run_rotornet(true);
  EXPECT_GT(got.completed, 0u);
  expect_pinned(got, {0xaab49aa049cd8153ULL, 957571, 0}, false);
}

}  // namespace
}  // namespace opera::core
