// NDP transport unit tests on a one-switch star network.
#include "transport/ndp.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/host.h"
#include "net/switch.h"
#include "sim/sharded.h"

namespace opera::transport {
namespace {

// Star fixture: `n` hosts around one switch; host i <-> switch port i.
class Star {
 public:
  explicit Star(int n, std::int64_t switch_ll_capacity = 12'000) {
    net::PortQueue::Config host_q;
    host_q.low_latency_capacity_bytes = 10'000'000;
    host_q.control_capacity_bytes = 1'000'000;
    host_q.trim_low_latency = false;
    net::PortQueue::Config sw_q;
    sw_q.low_latency_capacity_bytes = switch_ll_capacity;  // trims beyond
    sw_q.control_capacity_bytes = 1'000'000;

    sw = std::make_unique<net::Switch>(sim.shard(0), "sw", 0);
    for (int i = 0; i < n; ++i) {
      sw->add_port(10e9, sim::Time::ns(500), sw_q);
      // Two-step concat: `"h" + std::to_string(i)` trips GCC 12's
      // -Wrestrict false positive (GCC bug 105329) under -Werror.
      std::string host_name = "h";
      host_name += std::to_string(i);
      auto host = std::make_unique<net::Host>(sim.shard(0), std::move(host_name), i, 0);
      host->add_port(10e9, sim::Time::ns(500), host_q);
      host->uplink().connect(sw.get(), i);
      sw->port(i).connect(host.get(), 0);
      host->set_default_handler([this](net::Host& h, net::PacketPtr pkt) {
        // First data packet of an unknown flow: create its sink.
        if (pkt->type != net::PacketType::kData && pkt->type != net::PacketType::kHeader) {
          return;
        }
        const Flow* flow = tracker.find(pkt->flow_id);
        if (flow == nullptr) return;
        auto sink = std::make_unique<NdpSink>(h, *flow, tracker);
        NdpSink* raw = sink.get();
        sinks.push_back(std::move(sink));
        h.register_flow(flow->id, [raw](net::PacketPtr p) { raw->on_packet(std::move(p)); });
        raw->on_packet(std::move(pkt));
      });
      hosts.push_back(std::move(host));
    }
    sw->set_forward([](net::Switch&, const net::Packet& pkt, int) {
      return pkt.dst_host;
    });
  }

  std::uint64_t start_flow(int src, int dst, std::int64_t bytes,
                           const NdpConfig& cfg = {}) {
    Flow f;
    f.id = tracker.next_flow_id();
    f.src_host = src;
    f.dst_host = dst;
    f.size_bytes = bytes;
    f.start = sim.now();
    tracker.register_flow(f);
    auto source = std::make_unique<NdpSource>(*hosts[static_cast<std::size_t>(src)],
                                              f, tracker, cfg);
    source->start();
    sources.push_back(std::move(source));
    return f.id;
  }

  sim::ShardedSimulator sim{1, sim::Time::zero()};
  FlowTracker tracker;
  std::unique_ptr<net::Switch> sw;
  std::vector<std::unique_ptr<net::Host>> hosts;
  std::vector<std::unique_ptr<NdpSink>> sinks;
  std::vector<std::unique_ptr<NdpSource>> sources;
};

TEST(Ndp, SinglePacketFlow) {
  Star star(2);
  star.start_flow(0, 1, 500);
  star.sim.run_until(sim::Time::ms(1));
  ASSERT_EQ(star.tracker.completed(), 1u);
  // One hop through the switch: ~2 serializations + 2 propagations.
  EXPECT_LT(star.tracker.completions()[0].fct().to_us(), 5.0);
}

TEST(Ndp, MultiPacketFlowDeliversAllBytes) {
  Star star(2);
  std::int64_t delivered = 0;
  star.tracker.set_delivery_hook(
      [&](const Flow&, std::int64_t bytes, sim::Time) { delivered += bytes; });
  star.start_flow(0, 1, 100'000);
  star.sim.run_until(sim::Time::ms(2));
  ASSERT_EQ(star.tracker.completed(), 1u);
  EXPECT_EQ(delivered, 100'000);
}

TEST(Ndp, ThroughputNearLineRate) {
  Star star(2);
  // 1 MB at 10 Gb/s is 800 us minimum; NDP should be within ~15%.
  star.start_flow(0, 1, 1'000'000);
  star.sim.run_until(sim::Time::ms(5));
  ASSERT_EQ(star.tracker.completed(), 1u);
  EXPECT_LT(star.tracker.completions()[0].fct().to_us(), 920.0);
}

TEST(Ndp, IncastTrimsButCompletes) {
  // 8 senders to one receiver with shallow switch queues: trimming kicks
  // in; every flow still completes (no RTO-style stalls).
  Star star(9);
  for (int src = 1; src <= 8; ++src) star.start_flow(src, 0, 50'000);
  star.sim.run_until(sim::Time::ms(10));
  EXPECT_EQ(star.tracker.completed(), 8u);
  std::uint64_t trims = 0;
  for (int p = 0; p < star.sw->num_ports(); ++p) {
    trims += star.sw->port(p).queue().trims();
  }
  EXPECT_GT(trims, 0u) << "expected trimming under incast";
}

TEST(Ndp, SevereIncastStillLossRecoverable) {
  Star star(17, /*switch_ll_capacity=*/6'000);
  for (int src = 1; src <= 16; ++src) star.start_flow(src, 0, 30'000);
  star.sim.run_until(sim::Time::ms(20));
  EXPECT_EQ(star.tracker.completed(), 16u);
}

TEST(Ndp, FairishSharing) {
  // Two senders to one receiver: both finish within ~2.2x the solo time
  // of the pair's aggregate.
  Star star(3);
  star.start_flow(1, 0, 500'000);
  star.start_flow(2, 0, 500'000);
  star.sim.run_until(sim::Time::ms(5));
  ASSERT_EQ(star.tracker.completed(), 2u);
  for (const auto& rec : star.tracker.completions()) {
    EXPECT_LT(rec.fct().to_us(), 1'800.0);  // 1 MB total at 10G = 800 us min
  }
}

TEST(Ndp, CompleteFlagOnSource) {
  Star star(2);
  star.start_flow(0, 1, 10'000);
  star.sim.run_until(sim::Time::ms(2));
  EXPECT_TRUE(star.sources[0]->complete());
}

}  // namespace
}  // namespace opera::transport
