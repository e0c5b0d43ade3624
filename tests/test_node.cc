#include "net/node.h"

#include <gtest/gtest.h>

#include "net/host.h"
#include "net/switch.h"

namespace opera::net {
namespace {

PacketPtr data_packet(std::int32_t bytes, std::uint64_t flow = 1) {
  auto pkt = make_packet();
  pkt->type = PacketType::kData;
  pkt->tclass = TrafficClass::kLowLatency;
  pkt->size_bytes = bytes;
  pkt->flow_id = flow;
  return pkt;
}

// Runs everything pending: 1 ms past now is far longer than any test's
// traffic takes.
void drain(sim::ShardedSimulator& engine) {
  engine.run_until(engine.now() + sim::Time::ms(1));
}

// Test node that records arrivals.
class RecorderNode : public Node {
 public:
  explicit RecorderNode(sim::ShardContext& ctx) : Node(ctx, "recorder") {}
  void receive(PacketPtr pkt, int in_port) override {
    arrivals.emplace_back(sim().now(), std::move(pkt));
    in_ports.push_back(in_port);
  }
  std::vector<std::pair<sim::Time, PacketPtr>> arrivals;
  std::vector<int> in_ports;
};

TEST(OutPort, SerializationPlusPropagation) {
  sim::ShardedSimulator engine(1, sim::Time::zero());
  sim::ShardContext& ctx = engine.shard(0);
  RecorderNode src(ctx);
  RecorderNode dst(ctx);
  src.add_port(10e9, sim::Time::ns(500), PortQueue::Config{});
  src.port(0).connect(&dst, 3);
  src.port(0).send(data_packet(1500));
  drain(engine);
  ASSERT_EQ(dst.arrivals.size(), 1u);
  // 1500 B at 10 Gb/s = 1.2 us, + 500 ns propagation.
  EXPECT_DOUBLE_EQ(dst.arrivals[0].first.to_us(), 1.7);
  EXPECT_EQ(dst.in_ports[0], 3);
}

TEST(OutPort, BackToBackPacketsSerialize) {
  sim::ShardedSimulator engine(1, sim::Time::zero());
  sim::ShardContext& ctx = engine.shard(0);
  RecorderNode src(ctx);
  RecorderNode dst(ctx);
  src.add_port(10e9, sim::Time::zero(), PortQueue::Config{});
  src.port(0).connect(&dst, 0);
  src.port(0).send(data_packet(1500));
  src.port(0).send(data_packet(1500));
  drain(engine);
  ASSERT_EQ(dst.arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(dst.arrivals[0].first.to_us(), 1.2);
  EXPECT_DOUBLE_EQ(dst.arrivals[1].first.to_us(), 2.4);
}

TEST(OutPort, DisabledPortDropsSends) {
  sim::ShardedSimulator engine(1, sim::Time::zero());
  sim::ShardContext& ctx = engine.shard(0);
  RecorderNode src(ctx);
  RecorderNode dst(ctx);
  src.add_port(10e9, sim::Time::zero(), PortQueue::Config{});
  src.port(0).connect(&dst, 0);
  src.port(0).set_enabled(false);
  EXPECT_EQ(src.port(0).send(data_packet(1500)), EnqueueOutcome::kDropped);
  drain(engine);
  EXPECT_TRUE(dst.arrivals.empty());
}

TEST(OutPort, ReEnableDrainsQueue) {
  sim::ShardedSimulator engine(1, sim::Time::zero());
  sim::ShardContext& ctx = engine.shard(0);
  RecorderNode src(ctx);
  RecorderNode dst(ctx);
  src.add_port(10e9, sim::Time::zero(), PortQueue::Config{});
  src.port(0).connect(&dst, 0);
  src.port(0).send(data_packet(1500));
  src.port(0).set_enabled(false);  // in-flight packet still delivers
  src.port(0).send(data_packet(1500));
  engine.run_until(sim::Time::ms(1));
  EXPECT_EQ(dst.arrivals.size(), 1u);
  src.port(0).set_enabled(true);
  // The packet queued before enable... was dropped at send time; queue empty.
  engine.run_until(sim::Time::ms(2));
  EXPECT_EQ(dst.arrivals.size(), 1u);
}

TEST(OutPort, RetargetMidFlightDeliversToOriginalPeer) {
  sim::ShardedSimulator engine(1, sim::Time::zero());
  sim::ShardContext& ctx = engine.shard(0);
  RecorderNode src(ctx);
  RecorderNode a(ctx);
  RecorderNode b(ctx);
  src.add_port(10e9, sim::Time::us(10), PortQueue::Config{});
  src.port(0).connect(&a, 0);
  src.port(0).send(data_packet(1500));
  // Retarget while the packet is on the wire: bits go to the old peer.
  engine.run_until(sim::Time::us(2));
  src.port(0).connect(&b, 0);
  drain(engine);
  EXPECT_EQ(a.arrivals.size(), 1u);
  EXPECT_TRUE(b.arrivals.empty());
  // The next send goes to the new peer.
  src.port(0).send(data_packet(1500));
  drain(engine);
  EXPECT_EQ(b.arrivals.size(), 1u);
}

TEST(Switch, ForwardsByFunction) {
  sim::ShardedSimulator engine(1, sim::Time::zero());
  sim::ShardContext& ctx = engine.shard(0);
  Switch sw(ctx, "sw", 0);
  RecorderNode out0(ctx);
  RecorderNode out1(ctx);
  sw.add_port(10e9, sim::Time::zero(), PortQueue::Config{});
  sw.add_port(10e9, sim::Time::zero(), PortQueue::Config{});
  sw.port(0).connect(&out0, 0);
  sw.port(1).connect(&out1, 0);
  sw.set_forward([](Switch&, const Packet& pkt, int) {
    return pkt.flow_id == 1 ? 0 : 1;
  });
  sw.receive(data_packet(1500, 1), 0);
  sw.receive(data_packet(1500, 2), 0);
  drain(engine);
  EXPECT_EQ(out0.arrivals.size(), 1u);
  EXPECT_EQ(out1.arrivals.size(), 1u);
  // Hop counter incremented.
  EXPECT_EQ(out0.arrivals[0].second->hops, 1);
}

TEST(Switch, DropHookFires) {
  sim::ShardedSimulator engine(1, sim::Time::zero());
  sim::ShardContext& ctx = engine.shard(0);
  Switch sw(ctx, "sw", 0);
  int drops = 0;
  sw.set_forward([](Switch&, const Packet&, int) { return -1; });
  sw.set_drop_hook([&](Switch&, const Packet&) { ++drops; });
  sw.receive(data_packet(1500), 0);
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(sw.forward_drops(), 1u);
}

TEST(Switch, InterceptConsumes) {
  sim::ShardedSimulator engine(1, sim::Time::zero());
  sim::ShardContext& ctx = engine.shard(0);
  Switch sw(ctx, "sw", 0);
  PacketPtr captured;
  sw.set_intercept([&](Switch&, PacketPtr& pkt, int) {
    captured = std::move(pkt);
    return true;
  });
  sw.set_forward([](Switch&, const Packet&, int) {
    ADD_FAILURE() << "forward should not run after intercept";
    return -1;
  });
  sw.receive(data_packet(1500), 2);
  ASSERT_NE(captured, nullptr);
}

TEST(Host, DispatchesByFlowAndDefault) {
  sim::ShardedSimulator engine(1, sim::Time::zero());
  sim::ShardContext& ctx = engine.shard(0);
  Host host(ctx, "h", 0, 0);
  host.add_port(10e9, sim::Time::zero(), PortQueue::Config{});
  int flow_hits = 0;
  int default_hits = 0;
  host.register_flow(5, [&](PacketPtr) { ++flow_hits; });
  host.set_default_handler([&](Host&, PacketPtr) { ++default_hits; });
  host.receive(data_packet(1500, 5), 0);
  host.receive(data_packet(1500, 6), 0);
  EXPECT_EQ(flow_hits, 1);
  EXPECT_EQ(default_hits, 1);
  host.unregister_flow(5);
  host.receive(data_packet(1500, 5), 0);
  EXPECT_EQ(default_hits, 2);
}

TEST(Host, PacerSpacesControl) {
  sim::ShardedSimulator engine(1, sim::Time::zero());
  sim::ShardContext& ctx = engine.shard(0);
  Host host(ctx, "h", 0, 0);
  RecorderNode peer(ctx);
  host.add_port(10e9, sim::Time::zero(), PortQueue::Config{});
  host.uplink().connect(&peer, 0);
  for (int i = 0; i < 3; ++i) {
    auto pull = make_packet();
    pull->type = PacketType::kPull;
    pull->size_bytes = kHeaderBytes;
    host.pace_control(std::move(pull));
  }
  drain(engine);
  ASSERT_EQ(peer.arrivals.size(), 3u);
  // Spaced at >= MTU serialization time (1.2 us at 10 Gb/s).
  const double gap1 =
      peer.arrivals[1].first.to_us() - peer.arrivals[0].first.to_us();
  const double gap2 =
      peer.arrivals[2].first.to_us() - peer.arrivals[1].first.to_us();
  EXPECT_GE(gap1, 1.19);
  EXPECT_GE(gap2, 1.19);
}

}  // namespace
}  // namespace opera::net
