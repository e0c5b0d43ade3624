#include "core/rotornet_network.h"

#include <cstdio>
#include <numeric>

namespace opera::core {

RotorNetNetwork::RotorNetNetwork(const RotorNetConfig& config)
    : PacketNetwork(config.structure.num_racks, config.hosts_per_rack, config.link,
                    config.ndp, config.threads, BulkTransport::kRotorLb),
      config_(config),
      topo_(config.structure),
      rng_(config.seed) {
  build();
  engine_.global().schedule_at(sim::Time::zero(), [this] { on_slice_boundary(0); });
}

void RotorNetNetwork::build() {
  const int d = config_.hosts_per_rack;
  const int rotors = topo_.num_rotor_switches();
  const bool hybrid = config_.structure.hybrid;
  const auto n = config_.structure.num_racks;
  const auto tor_q = config_.tor_queue_config();
  const int ports = d + rotors + (hybrid ? 1 : 0);

  if (hybrid) {
    core_ = make_switch("core", 0, /*shard=*/0, n, tor_q);
    core_->set_forward([](net::Switch&, const net::Packet& pkt, int) {
      return pkt.dst_rack;
    });
  }

  for (topo::Vertex r = 0; r < n; ++r) {
    auto tor = make_switch("tor" + std::to_string(r), r, shard_of_rack(r), ports, tor_q);
    if (hybrid) {
      tor->port(core_port()).connect(core_.get(), r);
      core_->port(r).connect(tor.get(), -1);
    }
    relays_.push_back(std::make_unique<transport::RotorRelayBuffer>(n));
    tors_.push_back(std::move(tor));
  }
  build_hosts(tors_, config_.host_queue_config());

  for (auto& tor : tors_) {
    tor->set_intercept([this](net::Switch& swch, net::PacketPtr& pkt, int) {
      if (pkt->vlb_relay && pkt->relay_rack == swch.id() && pkt->dst_rack != swch.id()) {
        relays_[static_cast<std::size_t>(swch.id())]->store(std::move(pkt));
        return true;
      }
      return false;
    });
    tor->set_forward([this, d, hybrid](net::Switch& swch, const net::Packet& pkt,
                                       int) -> int {
      const std::int32_t rack = swch.id();
      const bool low_latency_path =
          pkt.tclass == net::TrafficClass::kLowLatency ||
          pkt.type != net::PacketType::kData;
      if (low_latency_path) {
        if (pkt.dst_rack == rack) return pkt.dst_host - rack * d;
        // Non-hybrid RotorNet has no packet-switched path: control still
        // needs to travel, so it rides the current circuits if one exists.
        if (hybrid) return core_port();
        const int sw = uplink_to(current_slice_, rack, pkt.dst_rack);
        return sw < 0 ? -1 : uplink_port(sw);
      }
      const std::int32_t target = pkt.vlb_relay ? pkt.relay_rack : pkt.dst_rack;
      if (target == rack) return pkt.dst_host - rack * d;
      const int sw = uplink_to(current_slice_, rack, target);
      return sw < 0 ? -1 : uplink_port(sw);
    });
    tor->set_drop_hook(
        [this](net::Switch& swch, const net::Packet& pkt) { nack_out_of_band(swch, pkt); });
    net::Switch* tor_ptr = tor.get();
    for (int p = 0; p < ports; ++p) {
      tor->port(p).queue().set_bulk_drop_handler(
          [this, tor_ptr](const net::Packet& pkt) { nack_out_of_band(*tor_ptr, pkt); });
    }
  }
}

void RotorNetNetwork::nack_out_of_band(net::Switch& tor, const net::Packet& pkt) {
  if (pkt.type != net::PacketType::kData || pkt.tclass != net::TrafficClass::kBulk) return;
  // RotorNet has no always-on in-band path (all rotors blink together), so
  // NACKs travel through the control plane: modeled as a notification that
  // reaches the source host's agent one link propagation later. The fixed
  // delay keeps it inside the lookahead, so it is identical at every shard
  // count.
  transport::RotorLbAgent* agent = agents_[static_cast<std::size_t>(pkt.src_host)].get();
  tor.ctx().post(agent->host().ctx(), tor.ctx().now() + config_.link.propagation,
                 [agent, flow_id = pkt.flow_id, seq = pkt.seq] {
                   agent->handle_nack(flow_id, seq);
                 });
}

int RotorNetNetwork::uplink_to(int slice, std::int32_t rack, std::int32_t peer) const {
  for (int sw = 0; sw < topo_.num_rotor_switches(); ++sw) {
    if (topo_.circuit_peer(sw, rack, slice) == peer) return sw;
  }
  return -1;
}

void RotorNetNetwork::on_slice_boundary(std::int64_t abs_slice) {
  current_slice_ = static_cast<int>(abs_slice % topo_.num_slices());
  const int slice = current_slice_;

  // All rotors retarget at once: every uplink goes dark for the
  // reconfiguration delay (this is RotorNet's fundamental difference from
  // Opera's staggered schedule, Fig. 3a vs 3b).
  for (auto& tor : tors_) {
    for (int sw = 0; sw < topo_.num_rotor_switches(); ++sw) {
      auto& port = tor->port(uplink_port(sw));
      port.queue().flush([this, &tor](const net::Packet& pkt) { nack_out_of_band(*tor, pkt); });
      port.set_enabled(false);
    }
  }
  // The rotors settle on the next matching after the reconfiguration delay
  // (a global event: it touches ports in every shard).
  engine_.global().schedule_in(config_.slice.reconfiguration, [this, slice] {
    const int d = config_.hosts_per_rack;
    for (std::size_t r = 0; r < tors_.size(); ++r) {
      for (int sw = 0; sw < topo_.num_rotor_switches(); ++sw) {
        const topo::Vertex peer =
            topo_.circuit_peer(sw, static_cast<topo::Vertex>(r), slice);
        auto& port = tors_[r]->port(uplink_port(sw));
        if (peer == static_cast<topo::Vertex>(r)) {
          port.set_enabled(false);
        } else {
          port.connect(tors_[static_cast<std::size_t>(peer)].get(), d + sw);
          port.set_enabled(true);
        }
      }
    }
    allocate_bulk(slice);
  });

  engine_.global().schedule_in(config_.slice.duration,
                               [this, abs_slice] { on_slice_boundary(abs_slice + 1); });
}

void RotorNetNetwork::allocate_bulk(int slice) {
  const int d = config_.hosts_per_rack;
  const std::int64_t uplink_budget = config_.slice_bulk_budget();
  std::vector<std::int64_t> host_budget(hosts_.size(), uplink_budget);
  std::vector<std::int64_t> in_budget(tors_.size(),
                                      static_cast<std::int64_t>(d) * uplink_budget);
  std::vector<std::int64_t> vlb_budget(in_budget);

  std::vector<int> order(static_cast<std::size_t>(topo_.num_rotor_switches()));
  std::iota(order.begin(), order.end(), 0);
  rng_.shuffle(std::span<int>{order});

  for (std::size_t r = 0; r < tors_.size(); ++r) {
    for (const int sw : order) {
      const topo::Vertex peer =
          topo_.circuit_peer(sw, static_cast<topo::Vertex>(r), slice);
      if (peer == static_cast<topo::Vertex>(r)) continue;
      std::int64_t budget = uplink_budget;
      net::Switch& tor = *tors_[r];
      auto& peer_in = in_budget[static_cast<std::size_t>(peer)];
      for (auto& pkt : relays_[r]->take(peer, std::min(budget, peer_in))) {
        budget -= pkt->size_bytes;
        peer_in -= pkt->size_bytes;
        tor.port(uplink_port(sw)).send(std::move(pkt));
      }
      for (int i = 0; i < d && budget > 0 && peer_in > 0; ++i) {
        const std::size_t h = r * static_cast<std::size_t>(d) +
                              static_cast<std::size_t>((i + slice) % d);
        const std::int64_t grant = std::min({budget, host_budget[h], peer_in});
        if (grant <= 0) continue;
        const std::int64_t sent = agents_[h]->grant_direct(peer, grant);
        budget -= sent;
        host_budget[h] -= sent;
        peer_in -= sent;
      }
      for (int i = 0; i < d && budget > 0; ++i) {
        const std::size_t h = r * static_cast<std::size_t>(d) +
                              static_cast<std::size_t>((i + slice) % d);
        const std::int64_t grant = std::min(budget, host_budget[h]);
        if (grant <= 0) continue;
        const std::int64_t sent =
            agents_[h]->grant_vlb(peer, grant, std::span<std::int64_t>(vlb_budget));
        budget -= sent;
        host_budget[h] -= sent;
      }
    }
  }
}

net::TrafficClass RotorNetNetwork::classify(const transport::Flow& flow,
                                            std::optional<net::TrafficClass> force) const {
  if (flow.src_rack == flow.dst_rack) return net::TrafficClass::kLowLatency;
  if (force.has_value()) return *force;
  // No packet-switched path: everything waits for circuits.
  if (!config_.structure.hybrid) return net::TrafficClass::kBulk;
  return flow.size_bytes >= config_.bulk_threshold_bytes ? net::TrafficClass::kBulk
                                                         : net::TrafficClass::kLowLatency;
}

std::string RotorNetNetwork::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "RotorNet%s (%d racks x %d hosts, %d switches)",
                config_.structure.hybrid ? " hybrid" : "", num_racks(),
                config_.hosts_per_rack, config_.structure.num_switches);
  return buf;
}

}  // namespace opera::core
