#include "core/rotor_fabric.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <string>

namespace opera::core {

RotorFabric::RotorFabric(std::int32_t num_racks, int hosts_per_rack, int num_rotors,
                         const LinkParams& link, const transport::NdpConfig& ndp,
                         int threads, std::uint64_t seed)
    : PacketNetwork(num_racks, hosts_per_rack, link, ndp, threads,
                    BulkTransport::kRotorLb),
      num_rotors_(num_rotors),
      rng_(seed),
      relay_reach_(static_cast<std::size_t>(num_racks),
                   std::vector<bool>(static_cast<std::size_t>(num_racks), true)) {}

void RotorFabric::build_tors(int extra_ports, const RotorQueues& queues) {
  const int ports = hosts_per_rack() + num_rotors_ + extra_ports;
  for (std::int32_t r = 0; r < num_racks(); ++r) {
    tors_.push_back(
        make_switch("tor" + std::to_string(r), r, shard_of_rack(r), ports, queues.tor));
    relays_.push_back(std::make_unique<transport::RotorRelayBuffer>());
  }
  build_hosts(tors_, queues.host);
}

void RotorFabric::take_uplink_down(net::Switch& tor, int sw) {
  auto& port = tor.port(uplink_port(sw));
  port.queue().flush([this, &tor](const net::Packet& pkt) { nack_dropped(tor, pkt); });
  port.set_enabled(false);
}

void RotorFabric::wire_uplink(topo::Vertex rack, int sw, topo::Vertex peer, bool live) {
  auto& port = tors_[static_cast<std::size_t>(rack)]->port(uplink_port(sw));
  if (peer == rack || !live) {
    port.set_enabled(false);
  } else {
    port.connect(tors_[static_cast<std::size_t>(peer)].get(), uplink_port(sw));
    port.set_enabled(true);
  }
}

void RotorFabric::wire_all_uplinks(int slice) {
  for (topo::Vertex r = 0; r < num_racks(); ++r) {
    for (int sw = 0; sw < num_rotors_; ++sw) {
      wire_uplink(r, sw, circuit_peer(sw, r, slice));
    }
  }
}

void RotorFabric::allocate_bulk(int slice, std::int64_t uplink_budget, bool enable_vlb) {
  const int d = hosts_per_rack();
  std::vector<std::int64_t> host_budget(hosts_.size(), uplink_budget);
  // Receiver "accept" budgets (RotorLB): a destination rack can absorb at
  // most its downlink capacity per slice; grants beyond that would only be
  // dropped at its ToR.
  std::vector<std::int64_t> in_budget(tors_.size(),
                                      static_cast<std::int64_t>(d) * uplink_budget);
  // VLB injections are bounded separately: the true receive constraint is
  // enforced when the relay forwards (take() in phase a), so the injection
  // cap only limits relay-buffer growth toward any one destination.
  std::vector<std::int64_t> vlb_budget(in_budget);

  // Randomize uplink service order so no switch is systematically favored.
  // This is the coordinator's rng: it only ever draws at barrier-aligned
  // events, in global order, so the stream is shard-count-independent.
  std::vector<int> order(static_cast<std::size_t>(num_rotors_));
  std::iota(order.begin(), order.end(), 0);
  rng_.shuffle(std::span<int>{order});

  for (topo::Vertex r = 0; r < num_racks(); ++r) {
    const auto rack = static_cast<std::size_t>(r);
    for (const int sw : order) {
      const topo::Vertex peer = circuit_peer(sw, r, slice);
      if (peer == r || !circuit_usable(slice, sw, r, peer)) continue;
      std::int64_t budget = uplink_budget;
      auto& peer_in = in_budget[static_cast<std::size_t>(peer)];

      // (a) Once-relayed VLB traffic has priority (RotorLB).
      for (auto& pkt : relays_[rack]->take(peer, std::min(budget, peer_in))) {
        budget -= pkt->size_bytes;
        peer_in -= pkt->size_bytes;
        tors_[rack]->port(uplink_port(sw)).send(std::move(pkt));
      }

      // (b) Hosts' direct traffic, round-robin offset by slice for fairness.
      for (int i = 0; i < d && budget > 0 && peer_in > 0; ++i) {
        const std::size_t h = rack * static_cast<std::size_t>(d) +
                              static_cast<std::size_t>((i + slice) % d);
        const std::int64_t grant = std::min({budget, host_budget[h], peer_in});
        if (grant <= 0) continue;
        const std::int64_t sent = agents_[h]->grant_direct(peer, grant);
        budget -= sent;
        host_budget[h] -= sent;
        peer_in -= sent;
      }

      // (c) Two-hop VLB into leftover capacity (kicks in exactly when
      // demand is skewed: uniform loads consume the budget directly). The
      // relay leg is not receive-limited (it lands in the relay ToR's
      // buffer), but the final destinations are.
      if (!enable_vlb) continue;
      for (int i = 0; i < d && budget > 0; ++i) {
        const std::size_t h = rack * static_cast<std::size_t>(d) +
                              static_cast<std::size_t>((i + slice) % d);
        const std::int64_t grant = std::min(budget, host_budget[h]);
        if (grant <= 0) continue;
        const std::int64_t sent =
            agents_[h]->grant_vlb(peer, grant, std::span<std::int64_t>(vlb_budget),
                                  &relay_reach_[static_cast<std::size_t>(peer)]);
        budget -= sent;
        host_budget[h] -= sent;
      }
    }
  }
}

std::size_t RotorFabric::voq_memory_bytes() const {
  std::size_t bytes = 0;
  for (const auto& agent : agents_) bytes += agent->memory_bytes();
  for (const auto& relay : relays_) bytes += relay->memory_bytes();
  return bytes;
}

}  // namespace opera::core
