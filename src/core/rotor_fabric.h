// core::RotorFabric — the RotorLB controller (paper §4.2.2, after RotorNet)
// shared by the two rotor fabrics, Opera and RotorNet: one ToR per rack
// (host downlinks, then one uplink per rotor switch), a relay buffer per
// ToR for once-relayed VLB traffic, the coordinator rng, and the per-slice
// grant loop — relay traffic first, then direct round-robin, then VLB.
//
// The fabrics differ only in when their rotors reconfigure (Opera's one at
// a time, staggered; RotorNet's all at once), which circuits may carry
// bulk in a slice, how low-latency traffic is routed, and how a dropped
// bulk packet's NACK reaches its source. The first stays in each fabric's
// slice logic; the rest are the hooks below. Hooks are virtual only where
// they run per slice or per drop; the per-packet forward closure is built
// from the final fabric type (install_tor_handlers), so it makes no
// virtual call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/packet_network.h"
#include "net/switch.h"
#include "sim/rng.h"
#include "topo/graph.h"
#include "transport/rotorlb.h"

namespace opera::core {

class RotorFabric : public PacketNetwork {
 public:
  [[nodiscard]] int current_slice() const { return current_slice_; }
  [[nodiscard]] net::Switch& tor(std::int32_t rack) {
    return *tors_[static_cast<std::size_t>(rack)];
  }

  // Structural memory of the sparse bulk VOQs (host agents + ToR relay
  // buffers) — the k=32 memory probe (see transport/sparse_voq.h).
  [[nodiscard]] std::size_t voq_memory_bytes() const;

 protected:
  // `seed` seeds the coordinator rng (bulk grant order).
  RotorFabric(std::int32_t num_racks, int hosts_per_rack, int num_rotors,
              const LinkParams& link, const transport::NdpConfig& ndp, int threads,
              std::uint64_t seed);

  // Rack `rack`'s peer through rotor `sw` in `slice` (== rack on a
  // self-match).
  [[nodiscard]] virtual topo::Vertex circuit_peer(int sw, topo::Vertex rack,
                                                  int slice) const = 0;
  // Whether the circuit `rack` -> `peer` through rotor `sw` may carry bulk
  // grants in `slice` (every non-self-match circuit, unless the fabric
  // knows better).
  [[nodiscard]] virtual bool circuit_usable(int /*slice*/, int /*sw*/,
                                            topo::Vertex /*rack*/,
                                            topo::Vertex /*peer*/) const {
    return true;
  }
  // Delivers a RotorLB NACK for bulk data packet `pkt`, dropped at `tor`,
  // to the source host's agent.
  virtual void send_nack(net::Switch& tor, const net::Packet& pkt) = 0;

  // Creates every ToR — host downlinks, one uplink per rotor, then
  // `extra_ports` — with its relay buffer, then the hosts.
  void build_tors(int extra_ports, const RotorQueues& queues);

  // Installs on every ToR: the relay intercept; forwarding, in which
  // packets for the ToR's own hosts go down, bulk data takes the current
  // slice's direct circuit (to its relay rack on a VLB first hop, §4.3's
  // bulk table), and everything else — low-latency data and all control —
  // goes where `low_latency(fabric, tor, pkt)` says; and NACK-on-drop for
  // bulk. `Fabric` is the final fabric type with a non-virtual
  // `uplink_to(slice, rack, peer)`, and `low_latency` a captureless
  // lambda, so the per-packet path makes no virtual call.
  template <typename Fabric, typename LowLatency>
  void install_tor_handlers(Fabric& fabric, LowLatency low_latency);

  // Uplink port index on a ToR for rotor switch `sw`.
  [[nodiscard]] int uplink_port(int sw) const { return hosts_per_rack() + sw; }

  // NACKs `pkt` back to its source if it is bulk data (RotorLB recovers
  // every in-network bulk loss this way).
  void nack_dropped(net::Switch& tor, const net::Packet& pkt) {
    if (pkt.type == net::PacketType::kData && pkt.tclass == net::TrafficClass::kBulk) {
      send_nack(tor, pkt);
    }
  }
  // Takes `tor`'s uplink to rotor `sw` down; whatever is queued on it is
  // lost (bulk gets NACKed).
  void take_uplink_down(net::Switch& tor, int sw);
  // Points `rack`'s uplink to rotor `sw` at `peer`'s port on that rotor,
  // or disables it on a self-match (peer == rack) or when `live` is false.
  void wire_uplink(topo::Vertex rack, int sw, topo::Vertex peer, bool live = true);
  // Every uplink onto its circuit in `slice`.
  void wire_all_uplinks(int slice);

  // RotorLB's grant loop for `slice`, over every usable circuit with each
  // rack's uplinks in a freshly shuffled order: (a) relayed traffic for
  // the peer, (b) hosts' direct traffic round-robin, (c) if `enable_vlb`,
  // two-hop VLB into what is left. Each uplink and each host may send
  // `uplink_budget` bytes; a rack may receive d times that.
  void allocate_bulk(int slice, std::int64_t uplink_budget, bool enable_vlb);

  int num_rotors_;
  sim::Rng rng_;  // coordinator-phase randomness only (bulk grant order)
  std::vector<std::unique_ptr<net::Switch>> tors_;
  std::vector<std::unique_ptr<transport::RotorRelayBuffer>> relays_;  // per ToR
  // relay_reach_[r][dst]: rack r still gets a direct circuit to dst in some
  // slice. VLB never relays through a rack that cannot deliver; all true
  // until a fabric recomputes it after a failure.
  std::vector<std::vector<bool>> relay_reach_;
  int current_slice_ = 0;
};

template <typename Fabric, typename LowLatency>
void RotorFabric::install_tor_handlers(Fabric& fabric, LowLatency low_latency) {
  for (auto& tor : tors_) {
    tor->set_intercept([this](net::Switch& swch, net::PacketPtr& pkt, int) {
      if (pkt->vlb_relay && pkt->relay_rack == swch.id() && pkt->dst_rack != swch.id()) {
        relays_[static_cast<std::size_t>(swch.id())]->store(std::move(pkt));
        return true;
      }
      return false;
    });
    tor->set_forward([&fabric, low_latency](net::Switch& swch, const net::Packet& pkt,
                                            int) -> int {
      const std::int32_t rack = swch.id();
      const int d = fabric.hosts_per_rack();
      if (pkt.tclass == net::TrafficClass::kLowLatency ||
          pkt.type != net::PacketType::kData) {
        if (pkt.dst_rack == rack) return pkt.dst_host - rack * d;
        return low_latency(fabric, swch, pkt);
      }
      const std::int32_t target = pkt.vlb_relay ? pkt.relay_rack : pkt.dst_rack;
      if (target == rack) return pkt.dst_host - rack * d;
      const int sw = fabric.uplink_to(fabric.current_slice(), rack, target);
      return sw < 0 ? -1 : fabric.uplink_port(sw);
    });
    tor->set_drop_hook(
        [this](net::Switch& swch, const net::Packet& pkt) { nack_dropped(swch, pkt); });
    // Bulk overflow on any ToR queue NACKs the source (RotorLB, §4.2.2).
    // Downlinks matter too: direct and VLB-relayed traffic can converge on
    // one receiving host within a slice.
    net::Switch* tor_ptr = tor.get();
    for (int p = 0; p < tor->num_ports(); ++p) {
      tor->port(p).queue().set_bulk_drop_handler(
          [this, tor_ptr](const net::Packet& pkt) { nack_dropped(*tor_ptr, pkt); });
    }
  }
}

}  // namespace opera::core
