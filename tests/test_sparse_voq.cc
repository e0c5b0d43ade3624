// SparseVoq unit tests: lazy slot materialization, open-addressing lookups
// across rehashes, longest-first tie-breaking parity with the old dense
// scan, and the memory probe.
#include "transport/sparse_voq.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/host.h"
#include "sim/ring.h"
#include "sim/sharded.h"
#include "transport/rotorlb.h"

namespace opera::transport {
namespace {

TEST(SparseVoq, EmptyLookupsAreFreeAndZero) {
  SparseVoq<sim::Ring<int>> voq;
  EXPECT_EQ(voq.bytes(0), 0);
  EXPECT_EQ(voq.bytes(767), 0);
  EXPECT_EQ(voq.total_bytes(), 0);
  EXPECT_EQ(voq.active_slots(), 0u);
  EXPECT_EQ(voq.find(5), nullptr);
}

TEST(SparseVoq, SlotsMaterializeOnFirstTouchInOrder) {
  SparseVoq<sim::Ring<int>> voq;
  voq.queue(700).push_back(1);
  voq.add_bytes(700, 10);
  voq.queue(3).push_back(2);
  voq.add_bytes(3, 20);
  voq.queue(700).push_back(3);  // existing slot, no new materialization
  EXPECT_EQ(voq.active_slots(), 2u);
  std::vector<std::int32_t> order;
  for (const auto& s : voq) order.push_back(s.rack);
  EXPECT_EQ(order, (std::vector<std::int32_t>{700, 3}));
  EXPECT_EQ(voq.bytes(700), 10);
  EXPECT_EQ(voq.bytes(3), 20);
  EXPECT_EQ(voq.total_bytes(), 30);
}

TEST(SparseVoq, SurvivesRehashAtScale) {
  // k=32-scale rack ids: hundreds of destinations force several rehashes;
  // every queue must stay reachable and byte-exact.
  SparseVoq<sim::Ring<int>> voq;
  for (int r = 0; r < 768; r += 3) {
    voq.queue(r).push_back(r);
    voq.add_bytes(r, r + 1);
  }
  for (int r = 0; r < 768; ++r) {
    if (r % 3 == 0) {
      ASSERT_NE(voq.find(r), nullptr) << r;
      EXPECT_EQ(voq.bytes(r), r + 1);
      EXPECT_EQ(voq.find(r)->queue.front(), r);
    } else {
      EXPECT_EQ(voq.find(r), nullptr) << r;
    }
  }
  EXPECT_EQ(voq.active_slots(), 256u);
  EXPECT_GT(voq.memory_bytes(), 0u);
}

TEST(SparseVoq, DrainedSlotsKeepCapacity) {
  SparseVoq<sim::Ring<int>> voq;
  auto& q = voq.queue(5);
  for (int i = 0; i < 100; ++i) q.push_back(i);
  const std::size_t grown = voq.memory_bytes();
  while (!q.empty()) (void)q.pop_front();
  EXPECT_EQ(voq.memory_bytes(), grown);  // ring capacity retained
  EXPECT_EQ(voq.active_slots(), 1u);
}

// The agent-level behaviors (grant budgets, NACK re-fronting) are covered
// by test_rotorlb_agent.cc, which now runs on the sparse container. These
// two pin the properties the swap had to preserve exactly.

class AgentHarness {
 public:
  AgentHarness() {
    net::PortQueue::Config q;
    q.bulk_capacity_bytes = 100'000'000;
    a = std::make_unique<net::Host>(sim.shard(0), "a", 0, 0);
    b = std::make_unique<net::Host>(sim.shard(0), "b", 1, 1);
    a->add_port(10e9, sim::Time::ns(500), q);
    b->add_port(10e9, sim::Time::ns(500), q);
    a->uplink().connect(b.get(), 0);
    b->uplink().connect(a.get(), 0);
    agent = std::make_unique<RotorLbAgent>(*a, tracker);
  }

  void add_bulk(std::int64_t bytes, std::int32_t dst_rack) {
    Flow f;
    f.id = tracker.next_flow_id();
    f.src_host = 0;
    f.dst_host = 1;
    f.src_rack = 0;
    f.dst_rack = dst_rack;
    f.size_bytes = bytes;
    f.tclass = net::TrafficClass::kBulk;
    f.start = sim.now();
    tracker.register_flow(f);
    agent->add_flow(f);
  }

  sim::ShardedSimulator sim{1, sim::Time::zero()};
  FlowTracker tracker;
  std::unique_ptr<net::Host> a;
  std::unique_ptr<net::Host> b;
  std::unique_ptr<RotorLbAgent> agent;
};

TEST(SparseVoqAgent, VlbDrainsLongestFirstWithLowestRackTieBreak) {
  AgentHarness h;
  // Touch racks out of id order so the active list's first-touch order
  // differs from rack order — the tie-break must still pick the lowest id.
  h.add_bulk(50'000, 9);
  h.add_bulk(80'000, 7);
  h.add_bulk(80'000, 3);  // ties rack 7 byte-for-byte, lower id
  std::vector<std::int64_t> dst_budget(64, 1'000'000);
  // One full VLB drain through relay rack 20 takes everything; the
  // longest-first order is observable through dst_budget consumption
  // order only when budget-limited, so grant in small steps.
  const std::int64_t step = 30'000;
  (void)h.agent->grant_vlb(20, step, std::span<std::int64_t>(dst_budget));
  // First step must come from rack 3 (longest tie, lowest id).
  EXPECT_LT(dst_budget[3], 1'000'000);
  EXPECT_EQ(dst_budget[7], 1'000'000);
  EXPECT_EQ(dst_budget[9], 1'000'000);
  h.sim.run_until(sim::Time::ms(1));
}

TEST(SparseVoqAgent, MemoryProbeTracksActiveDestinations) {
  AgentHarness h;
  const std::size_t before = h.agent->memory_bytes();
  for (int r = 1; r <= 40; ++r) h.add_bulk(20'000, r);
  EXPECT_GT(h.agent->memory_bytes(), before);
  EXPECT_EQ(h.agent->queued_bytes(41), 0);
  h.sim.run_until(sim::Time::ms(1));
}

TEST(SparseVoqRelay, StoreTakeAndProbe) {
  RotorRelayBuffer relay;
  EXPECT_EQ(relay.memory_bytes(), 0u);  // nothing materialized up front
  for (int i = 0; i < 10; ++i) {
    auto pkt = net::make_packet();
    pkt->size_bytes = 1500;
    pkt->dst_rack = 500;
    pkt->vlb_relay = true;
    pkt->relay_rack = 2;
    relay.store(std::move(pkt));
  }
  EXPECT_EQ(relay.queued_bytes(500), 15'000);
  EXPECT_EQ(relay.total_bytes(), 15'000);
  EXPECT_GT(relay.memory_bytes(), 0u);
  auto out = relay.take(500, 4'500);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(relay.queued_bytes(500), 10'500);
  EXPECT_EQ(relay.take(499, 1'000'000).size(), 0u);
}

}  // namespace
}  // namespace opera::transport
