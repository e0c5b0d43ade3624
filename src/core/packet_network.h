// core::PacketNetwork — the packet-level substrate every fabric in this
// repo (Opera, folded Clos, static expander, RotorNet) is built on: the
// sharded event engine, the flow tracker with its per-shard lanes, hosts
// with their lazily created transport endpoints, and flow submission.
// Derived fabrics add only their own switches, wiring, forwarding,
// classification and (for the rotor fabrics) slice logic.
//
// Execution is always sharded (docs/ARCHITECTURE.md "Sharded execution"):
// racks are partitioned into `threads` domains, each with its own event
// queue, synchronized with conservative lookahead = the link propagation
// delay. Output is bit-identical for any shard count — the fabric's
// obligation is that shard-executed code touches only its own domain's
// state (posting cross-domain work through ShardContext::post) and picks
// paths with order-independent header hashes (ecmp_pick), never a shared
// rng stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/network.h"
#include "net/host.h"
#include "net/packet.h"
#include "net/queue.h"
#include "net/switch.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "transport/flow.h"
#include "transport/ndp.h"
#include "transport/rotorlb.h"

namespace opera::core {

// Order-independent per-packet ECMP pick among `n` equal-cost choices (what
// a real switch does: hash header fields). Depending only on intrinsic
// packet identity — never on a shared rng stream's draw order — is what
// keeps path selection, and therefore all output, bit-identical under any
// shard count. Distinct mixes per (node, salt) de-correlate hops along a
// path (Opera salts with the routing slice); seq spreads a flow's packets
// across equal-cost choices (NDP-style packet spraying).
[[nodiscard]] inline std::size_t ecmp_pick(const net::Packet& pkt, std::int32_t node,
                                           int salt, std::size_t n) {
  std::uint64_t h = sim::mix64(pkt.flow_id ^ (pkt.seq * 0x9E3779B97F4A7C15ULL) ^
                               (static_cast<std::uint64_t>(static_cast<std::uint8_t>(pkt.type))
                                << 56));
  h = sim::mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 32) ^
                 static_cast<std::uint32_t>(salt));
  return static_cast<std::size_t>(h % n);
}

// ecmp_pick salted with the packet's send time: the static fabrics' spray.
// A retransmitted sequence then takes a fresh path, as random spraying
// would give it, instead of retracing the path that trimmed it.
[[nodiscard]] inline std::size_t spray_pick(const net::Packet& pkt, std::int32_t node,
                                            std::size_t n) {
  return ecmp_pick(pkt, node, static_cast<int>(pkt.enqueued_at.picoseconds()), n);
}

class PacketNetwork : public Network {
 public:
  ~PacketNetwork() override;

  // Classifies the flow (the fabric's classify(), or `force`), registers
  // it, and seeds its start onto the source host's shard with a
  // submission-order key, so equal-time starts order identically under
  // any shard count. Returns the flow id.
  std::uint64_t submit_flow(std::int32_t src_host, std::int32_t dst_host,
                            std::int64_t size_bytes, sim::Time start,
                            std::optional<net::TrafficClass> force = std::nullopt) final;

  void run_until(sim::Time t) final { engine_.run_until(t); }

  // The coordinator simulator: its clock is the committed global time and
  // its queue holds barrier-aligned global events (slice boundaries,
  // failure injections, progress ticks). Packet events live on the
  // shard(s).
  [[nodiscard]] sim::Simulator& sim() final { return engine_.global(); }
  [[nodiscard]] const sim::Simulator& sim() const final { return engine_.global(); }
  [[nodiscard]] sim::ShardedSimulator& engine() { return engine_; }
  [[nodiscard]] std::uint64_t events_executed() const final {
    return engine_.events_executed();
  }
  // Resolved shard count (threads clamped to [1, num_racks]).
  [[nodiscard]] int num_shards() const final { return engine_.num_shards(); }
  [[nodiscard]] int shard_of_rack(std::int32_t rack) const {
    return static_cast<int>(static_cast<std::int64_t>(rack) * engine_.num_shards() /
                            num_racks_);
  }
  [[nodiscard]] transport::FlowTracker& tracker() final { return tracker_; }
  [[nodiscard]] const transport::FlowTracker& tracker() const final { return tracker_; }
  [[nodiscard]] std::int32_t num_hosts() const final {
    return static_cast<std::int32_t>(hosts_.size());
  }
  [[nodiscard]] std::int32_t num_racks() const final { return num_racks_; }
  [[nodiscard]] int hosts_per_rack() const { return hosts_per_rack_; }
  [[nodiscard]] std::int32_t rack_of_host(std::int32_t host) const final {
    return host / hosts_per_rack_;
  }
  [[nodiscard]] net::Host& host(std::int32_t id) {
    return *hosts_[static_cast<std::size_t>(id)];
  }

 protected:
  // How bulk-classified flows are carried: RotorLB (per-host agents fed by
  // slice grants — the rotor fabrics) or NDP in a lower priority band (the
  // static fabrics).
  enum class BulkTransport : std::uint8_t { kNdp, kRotorLb };

  // `threads`: requested shard count; 0 = $OPERA_TEST_THREADS when set,
  // else 1. Clamped to [1, num_racks], and to 1 when the links have no
  // propagation delay (no lookahead to shard on).
  PacketNetwork(std::int32_t num_racks, int hosts_per_rack, const LinkParams& link,
                const transport::NdpConfig& ndp, int threads, BulkTransport bulk);

  // Traffic class of `flow` (endpoints, racks and size already set) when
  // the caller forced none.
  [[nodiscard]] virtual net::TrafficClass classify(
      const transport::Flow& flow, std::optional<net::TrafficClass> force) const = 0;

  // A switch with `ports` identical link-rate ports, living on `shard`.
  [[nodiscard]] std::unique_ptr<net::Switch> make_switch(
      const std::string& name, std::int32_t id, int shard, int ports,
      const net::PortQueue::Config& queue);

  // Creates every host, rack-major: host i of rack r hangs off port i of
  // tors[r], lives on the rack's shard, and gets the shared default handler
  // (lazy sink creation; RotorLB NACKs to the host's agent). RotorLB
  // fabrics also get one agent per host.
  void build_hosts(const std::vector<std::unique_ptr<net::Switch>>& tors,
                   const net::PortQueue::Config& queue);

  // The sharded engine: rack-granularity domains, lookahead = the link
  // propagation delay (the minimum cross-shard event latency). Declared
  // before the nodes so node ShardContext references outlive them.
  sim::ShardedSimulator engine_;
  transport::FlowTracker tracker_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<transport::RotorLbAgent>> agents_;  // per host (RotorLB)

 private:
  [[nodiscard]] int shard_of_host(std::int32_t host) const {
    return shard_of_rack(rack_of_host(host));
  }
  void start_flow(int shard, const transport::Flow& flow);
  void on_unclaimed_packet(int shard, net::Host& host, net::PacketPtr pkt);

  LinkParams link_;
  std::int32_t num_racks_;
  int hosts_per_rack_;
  transport::NdpConfig ndp_;
  BulkTransport bulk_;
  // Transport endpoints, owned per shard: they are created during shard
  // phases (flow starts, first-packet sink creation), so each shard
  // appends to its own pool.
  struct EndpointPool {
    std::vector<std::unique_ptr<transport::NdpSource>> ndp_sources;
    std::vector<std::unique_ptr<transport::NdpSink>> ndp_sinks;
    std::vector<std::unique_ptr<transport::RotorLbSink>> bulk_sinks;
  };
  std::vector<EndpointPool> endpoints_;  // [shard]
};

}  // namespace opera::core
