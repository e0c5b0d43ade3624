#include "core/rotornet_network.h"

#include <cstdio>

namespace opera::core {

RotorNetNetwork::RotorNetNetwork(const RotorNetConfig& config)
    : RotorFabric(config.structure.num_racks, config.hosts_per_rack,
                  config.structure.num_rotor_switches(), config.link, config.ndp,
                  config.threads, config.seed),
      config_(config),
      topo_(config.structure) {
  const bool hybrid = config_.structure.hybrid;
  const auto queues = rotor_queues(config_.slice_bulk_budget());
  const auto n = config_.structure.num_racks;
  if (hybrid) {
    core_ = make_switch("core", 0, /*shard=*/0, n, queues.tor);
    core_->set_forward([](net::Switch&, const net::Packet& pkt, int) {
      return pkt.dst_rack;
    });
  }
  build_tors(/*extra_ports=*/hybrid ? 1 : 0, queues);
  if (hybrid) {
    for (topo::Vertex r = 0; r < n; ++r) {
      tor(r).port(core_port()).connect(core_.get(), r);
      core_->port(r).connect(&tor(r), -1);
    }
  }
  // Low-latency data and control leave through the packet core when
  // hybrid. Non-hybrid RotorNet has no packet-switched path: control still
  // needs to travel, so it rides the current circuits if one exists.
  install_tor_handlers(*this, [](RotorNetNetwork& self, net::Switch& tor,
                                 const net::Packet& pkt) -> int {
    if (self.config_.structure.hybrid) return self.core_port();
    const int sw = self.uplink_to(self.current_slice_, tor.id(), pkt.dst_rack);
    return sw < 0 ? -1 : self.uplink_port(sw);
  });
  engine_.global().schedule_at(sim::Time::zero(), [this] { on_slice_boundary(0); });
}

void RotorNetNetwork::send_nack(net::Switch& tor, const net::Packet& pkt) {
  // All rotors blink together, so NACKs travel through the control plane:
  // modeled as a notification that reaches the source host's agent one
  // link propagation later. The fixed delay keeps it inside the lookahead,
  // so it is identical at every shard count.
  transport::RotorLbAgent* agent = agents_[static_cast<std::size_t>(pkt.src_host)].get();
  tor.ctx().post(agent->host().ctx(), tor.ctx().now() + config_.link.propagation,
                 [agent, flow_id = pkt.flow_id, seq = pkt.seq] {
                   agent->handle_nack(flow_id, seq);
                 });
}

int RotorNetNetwork::uplink_to(int slice, std::int32_t rack, std::int32_t peer) const {
  for (int sw = 0; sw < num_rotors_; ++sw) {
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
    for (int sw = 0; sw < num_rotors_; ++sw) take_uplink_down(*tor, sw);
  }
  // The rotors settle on the next matching after the reconfiguration delay
  // (a global event: it touches ports in every shard).
  engine_.global().schedule_in(config_.slice.reconfiguration, [this, slice] {
    wire_all_uplinks(slice);
    allocate_bulk(slice, config_.slice_bulk_budget(), /*enable_vlb=*/true);
  });

  engine_.global().schedule_in(config_.slice.duration,
                               [this, abs_slice] { on_slice_boundary(abs_slice + 1); });
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
