#include "net/node.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "net/host.h"
#include "net/switch.h"
#include "sim/rng.h"

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


// ---------------------------------------------------------------------------
// Differential test: OutPort and the Host pull pacer against the eager form
// they replace, which scheduled one "serializer done" (or "pacer free")
// event per packet and kept a busy flag. The eager copies below are the
// reference; the lazy implementations must produce the same arrivals at
// the same times under the same order keys, in any schedule.

// The eager OutPort: busy flag plus one serializer-done event per packet.
class EagerPort {
 public:
  EagerPort(sim::ShardContext& ctx, double rate_bps, sim::Time latency,
            const PortQueue::Config& config)
      : ctx_(ctx), rate_bps_(rate_bps), latency_(latency), queue_(config) {}

  void connect(Node* peer, int peer_in_port) {
    peer_ = peer;
    peer_in_port_ = peer_in_port;
  }
  EnqueueOutcome send(PacketPtr pkt) {
    if (!enabled_) return EnqueueOutcome::kDropped;
    const EnqueueOutcome outcome = queue_.enqueue(std::move(pkt));
    if (outcome != EnqueueOutcome::kDropped) pump();
    return outcome;
  }
  void set_enabled(bool enabled) {
    enabled_ = enabled;
    if (enabled_) pump();
  }
  void set_gray(double loss, sim::Time extra_latency, std::uint64_t salt) {
    gray_ = true;
    gray_threshold_ = loss >= 1.0 ? ~0ULL
                                  : static_cast<std::uint64_t>(
                                        loss * 18446744073709551616.0);
    gray_extra_latency_ = extra_latency;
    gray_salt_ = salt;
  }
  void clear_gray() {
    gray_ = false;
    gray_threshold_ = 0;
    gray_extra_latency_ = sim::Time::zero();
  }
  [[nodiscard]] PortQueue& queue() { return queue_; }
  [[nodiscard]] double rate_bps() const { return rate_bps_; }
  [[nodiscard]] std::int64_t gray_drops() const { return gray_drops_; }

 private:
  void pump() {
    if (busy_ || !enabled_ || queue_.empty()) return;
    PacketPtr pkt = queue_.dequeue();
    busy_ = true;
    const sim::Time serialization = sim::Time::transmission(pkt->size_bytes, rate_bps_);
    Node* peer = peer_;
    const int in_port = peer_in_port_;
    sim::Time arrival_delay = serialization + latency_;
    if (gray_) {
      const std::uint64_t attempt =
          static_cast<std::uint64_t>(gray_tested_++) * 0x9E3779B97F4A7C15ULL;
      const std::uint64_t h = sim::mix64(
          pkt->flow_id ^ (pkt->seq * 0x9E3779B97F4A7C15ULL) ^
          (static_cast<std::uint64_t>(pkt->type) << 56) ^ gray_salt_ ^
          sim::mix64(attempt));
      if (h < gray_threshold_) {
        ++gray_drops_;
        ctx_.schedule_in(serialization, [this] {
          busy_ = false;
          pump();
        });
        return;
      }
      arrival_delay += gray_extra_latency_;
    }
    ctx_.post(peer->ctx(), ctx_.now() + arrival_delay,
              [peer, in_port, pkt = std::move(pkt)]() mutable {
                peer->receive(std::move(pkt), in_port);
              });
    ctx_.schedule_in(serialization, [this] {
      busy_ = false;
      pump();
    });
  }

  sim::ShardContext& ctx_;
  double rate_bps_;
  sim::Time latency_;
  PortQueue queue_;
  Node* peer_ = nullptr;
  int peer_in_port_ = -1;
  bool busy_ = false;
  bool enabled_ = true;
  bool gray_ = false;
  std::uint64_t gray_threshold_ = 0;
  std::uint64_t gray_salt_ = 0;
  sim::Time gray_extra_latency_;
  std::int64_t gray_drops_ = 0;
  std::int64_t gray_tested_ = 0;
};

// The eager pull pacer of Host, over an EagerPort uplink.
class EagerPacer {
 public:
  EagerPacer(sim::ShardContext& ctx, EagerPort& uplink) : ctx_(ctx), uplink_(uplink) {}
  void pace_control(PacketPtr pkt) {
    queue_.push_back(std::move(pkt));
    kick();
  }

 private:
  void kick() {
    if (busy_ || queue_.empty()) return;
    busy_ = true;
    uplink_.send(queue_.pop_front());
    const sim::Time interval = sim::Time::transmission(kMtuBytes, uplink_.rate_bps());
    ctx_.sim().schedule_in(interval, [this] {
      busy_ = false;
      kick();
    });
  }

  sim::ShardContext& ctx_;
  EagerPort& uplink_;
  PacketRing queue_;
  bool busy_ = false;
};

// One arrival as seen by a receiving node. `key` stands in for the
// arrival event's order key: the first key it derives is a hash of it.
using ArrivalRecord = std::tuple<std::int64_t, std::uint64_t, std::uint64_t, std::uint64_t,
                                 std::int32_t, int, int>;

class Rig;

// Records every arrival; on shard 0 it may also send on (cascade), which
// puts sends under hashed keys at arbitrary grid instants.
class ProbeNode : public Node {
 public:
  ProbeNode(sim::ShardContext& ctx, Rig& rig, bool cascades)
      : Node(ctx, "probe"), rig_(rig), cascades_(cascades) {}
  void receive(PacketPtr pkt, int in_port) override;
  std::vector<ArrivalRecord> log;

 private:
  Rig& rig_;
  bool cascades_;
};

constexpr double kRate = 10e9;
// Every duration is a multiple of 0.12 us (150 B at 10 Gb/s), so sends,
// cascades, serializer ends and pacer slots keep landing on the same
// instants: the equal-time ties the lazy form must order like the eager.
constexpr sim::Time kGrid = sim::Time::ps(120'000);

PortQueue::Config tight_queue() {
  PortQueue::Config config;
  config.control_capacity_bytes = 1'200;
  config.low_latency_capacity_bytes = 4'500;
  config.bulk_capacity_bytes = 6'000;
  return config;
}

// The ports, pacer and probes of one side; actions address ports by index
// (the last port is the pacer's uplink).
class Rig {
 public:
  static constexpr int kPorts = 4;
  static constexpr int kProbes = 4;

  explicit Rig(int shards) : engine_(shards, kGrid) {
    for (int i = 0; i < kProbes; ++i) {
      const int shard = i % shards;
      probes_.push_back(
          std::make_unique<ProbeNode>(engine_.shard(shard), *this, shard == 0));
    }
  }
  virtual ~Rig() = default;

  virtual EnqueueOutcome send(int port, PacketPtr pkt) = 0;
  virtual void set_enabled(int port, bool enabled) = 0;
  virtual void set_gray(int port, double loss, sim::Time extra, std::uint64_t salt) = 0;
  virtual void clear_gray(int port) = 0;
  virtual void connect(int port, int probe) = 0;
  virtual void flush(int port) = 0;
  virtual void pace(PacketPtr pkt) = 0;
  [[nodiscard]] virtual std::int64_t gray_drops(int port) = 0;
  [[nodiscard]] virtual std::uint64_t trims(int port) = 0;

  sim::ShardedSimulator& engine() { return engine_; }
  ProbeNode& probe(int i) { return *probes_[static_cast<std::size_t>(i)]; }
  sim::ShardContext& home() { return engine_.shard(0); }
  // Send outcomes and flush counts, from shard 0 and the coordinator only.
  std::vector<int> outcomes;

 protected:
  sim::Time latency(int port) const { return kGrid * (port + 1); }

 private:
  sim::ShardedSimulator engine_;
  std::vector<std::unique_ptr<ProbeNode>> probes_;
};

void ProbeNode::receive(PacketPtr pkt, int in_port) {
  log.emplace_back(sim().now().picoseconds(), sim().derive_key(), pkt->flow_id, pkt->seq,
                   pkt->size_bytes, static_cast<int>(pkt->type), in_port);
  if (!cascades_ || pkt->hops >= 2) return;
  const std::uint64_t h = sim::mix64(pkt->flow_id * 31 + pkt->seq);
  if (h % 3 == 0) return;
  pkt->hops += 1;
  pkt->seq += 1000;
  const int port = static_cast<int>((h >> 8) % Rig::kPorts);
  rig_.outcomes.push_back(static_cast<int>(rig_.send(port, std::move(pkt))));
}

// The port operations of a rig whose ports are `Port`s.
template <typename Port>
class PortRig : public Rig {
 public:
  using Rig::Rig;
  EnqueueOutcome send(int port, PacketPtr pkt) override {
    return at(port).send(std::move(pkt));
  }
  void set_enabled(int port, bool enabled) override { at(port).set_enabled(enabled); }
  void set_gray(int port, double loss, sim::Time extra, std::uint64_t salt) override {
    at(port).set_gray(loss, extra, salt);
  }
  void clear_gray(int port) override { at(port).clear_gray(); }
  void connect(int port, int probe_index) override {
    at(port).connect(&probe(probe_index), port);
  }
  void flush(int port) override {
    at(port).queue().flush([this](const Packet& pkt) {
      outcomes.push_back(1000 + static_cast<int>(pkt.seq % 1000));
    });
  }
  std::int64_t gray_drops(int port) override { return at(port).gray_drops(); }
  std::uint64_t trims(int port) override { return at(port).queue().trims(); }

 protected:
  // Filled by the derived rig, which owns the ports; the last one is the
  // pacer's uplink.
  std::vector<Port*> ports_;

 private:
  Port& at(int port) { return *ports_[static_cast<std::size_t>(port)]; }
};

class LazyRig final : public PortRig<OutPort> {
 public:
  explicit LazyRig(int shards) : PortRig(shards), host_(home(), "host", 0, 0) {
    for (int i = 0; i + 1 < kPorts; ++i) {
      owned_.push_back(std::make_unique<OutPort>(home(), kRate, latency(i), tight_queue()));
      ports_.push_back(owned_.back().get());
    }
    host_.add_port(kRate, latency(kPorts - 1), tight_queue());
    ports_.push_back(&host_.uplink());
    for (int i = 0; i < kPorts; ++i) connect(i, i);
  }
  void pace(PacketPtr pkt) override { host_.pace_control(std::move(pkt)); }

 private:
  Host host_;
  std::vector<std::unique_ptr<OutPort>> owned_;
};

class EagerRig final : public PortRig<EagerPort> {
 public:
  explicit EagerRig(int shards) : PortRig(shards) {
    for (int i = 0; i < kPorts; ++i) {
      owned_.push_back(std::make_unique<EagerPort>(home(), kRate, latency(i), tight_queue()));
      ports_.push_back(owned_.back().get());
    }
    pacer_ = std::make_unique<EagerPacer>(home(), *owned_.back());
    for (int i = 0; i < kPorts; ++i) connect(i, i);
  }
  void pace(PacketPtr pkt) override { pacer_->pace_control(std::move(pkt)); }

 private:
  std::vector<std::unique_ptr<EagerPort>> owned_;
  std::unique_ptr<EagerPacer> pacer_;
};

// One scripted action; the same script drives both rigs.
struct Action {
  enum Kind { kBurst, kDisable, kEnable, kGray, kClearGray, kRetarget, kFlush, kPace };
  Kind kind;
  int port;
  int count;       // burst / pace size
  int probe;       // retarget target
  std::uint64_t salt;
  int size_steps;  // packet size in grid steps (150 B each)
};

struct Step {
  sim::Time at;
  bool global;          // run from a coordinator event
  sim::Time child_in;   // >= 0: run as a child scheduled this long before
  Action action;
};

void apply(Rig& rig, const Action& a, std::uint64_t tag) {
  switch (a.kind) {
    case Action::kBurst:
      for (int i = 0; i < a.count; ++i) {
        auto pkt = make_packet();
        pkt->flow_id = tag;
        pkt->seq = static_cast<std::uint64_t>(i);
        pkt->size_bytes = 150 * a.size_steps;
        pkt->tclass = (i % 3 == 2) ? TrafficClass::kBulk : TrafficClass::kLowLatency;
        pkt->type = (i % 4 == 3) ? PacketType::kAck : PacketType::kData;
        rig.outcomes.push_back(static_cast<int>(rig.send(a.port, std::move(pkt))));
      }
      break;
    case Action::kDisable: rig.set_enabled(a.port, false); break;
    case Action::kEnable: rig.set_enabled(a.port, true); break;
    case Action::kGray: rig.set_gray(a.port, 0.3, kGrid * 2, a.salt); break;
    case Action::kClearGray: rig.clear_gray(a.port); break;
    case Action::kRetarget: rig.connect(a.port, a.probe); break;
    case Action::kFlush: rig.flush(a.port); break;
    case Action::kPace:
      for (int i = 0; i < a.count; ++i) {
        auto pkt = make_packet();
        pkt->flow_id = tag;
        pkt->seq = static_cast<std::uint64_t>(i);
        pkt->type = PacketType::kPull;
        pkt->size_bytes = 150;
        rig.pace(std::move(pkt));
      }
      break;
  }
}

std::vector<Step> random_script(std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<Step> script;
  for (int i = 0; i < 240; ++i) {
    Step step;
    step.at = kGrid * rng.uniform_int(4, 400);
    step.global = rng.bernoulli(0.2);
    step.child_in = rng.bernoulli(0.4) ? kGrid * rng.uniform_int(0, 6) : sim::Time::ps(-1);
    Action& a = step.action;
    const int pick = static_cast<int>(rng.uniform_int(0, 99));
    a.kind = pick < 50   ? Action::kBurst
             : pick < 58 ? Action::kDisable
             : pick < 68 ? Action::kEnable
             : pick < 73 ? Action::kGray
             : pick < 77 ? Action::kClearGray
             : pick < 83 ? Action::kRetarget
             : pick < 87 ? Action::kFlush
                         : Action::kPace;
    a.port = static_cast<int>(rng.uniform_int(0, Rig::kPorts - 1));
    a.count = static_cast<int>(rng.uniform_int(1, 5));
    a.probe = static_cast<int>(rng.uniform_int(0, Rig::kProbes - 1));
    a.salt = rng.next_u64();
    a.size_steps = static_cast<int>(rng.uniform_int(1, 10));
    script.push_back(step);
  }
  return script;
}

void play(Rig& rig, const std::vector<Step>& script) {
  for (std::size_t i = 0; i < script.size(); ++i) {
    const Step& step = script[i];
    const std::uint64_t tag = 1 + i;
    const Action action = step.action;
    if (step.global) {
      rig.engine().global().schedule_at(step.at, [&rig, action, tag] {
        apply(rig, action, tag);
      });
    } else if (step.child_in >= sim::Time::zero()) {
      // A root event that schedules the action as its child: the action
      // then runs under a hashed key, which may sort either side of a
      // serializer's end key at the same instant.
      const sim::Time delay = step.child_in;
      rig.engine().seed(0, step.at - delay, [&rig, action, tag, delay] {
        rig.home().schedule_in(delay, [&rig, action, tag] { apply(rig, action, tag); });
      });
    } else {
      rig.engine().seed(0, step.at, [&rig, action, tag] { apply(rig, action, tag); });
    }
  }
  // Stop and resume on grid instants: the inclusive run_until horizon and
  // the next call's first events share an instant with serializer ends.
  for (int chunk = 1; chunk <= 8; ++chunk) rig.engine().run_until(kGrid * (60 * chunk));
}

TEST(OutPortDifferential, MatchesEagerSerializerAndPacer) {
  for (const int shards : {1, 2}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const auto script = random_script(seed);
      LazyRig lazy(shards);
      EagerRig eager(shards);
      play(lazy, script);
      play(eager, script);
      std::size_t arrivals = 0;
      for (int p = 0; p < Rig::kProbes; ++p) {
        ASSERT_EQ(lazy.probe(p).log, eager.probe(p).log)
            << "shards=" << shards << " seed=" << seed << " probe=" << p;
        arrivals += lazy.probe(p).log.size();
      }
      EXPECT_GT(arrivals, 50u) << "seed=" << seed;
      EXPECT_EQ(lazy.outcomes, eager.outcomes) << "shards=" << shards << " seed=" << seed;
      for (int p = 0; p < Rig::kPorts; ++p) {
        EXPECT_EQ(lazy.gray_drops(p), eager.gray_drops(p)) << "seed=" << seed;
        EXPECT_EQ(lazy.trims(p), eager.trims(p)) << "seed=" << seed;
      }
      EXPECT_LT(lazy.engine().events_executed(), eager.engine().events_executed());
    }
  }
}

}  // namespace
}  // namespace opera::net
