#include "core/expander_network.h"

#include <cstdio>

namespace opera::core {

ExpanderNetwork::ExpanderNetwork(const ExpanderNetConfig& config)
    : PacketNetwork(config.structure.num_tors, config.structure.hosts_per_tor, config.link,
                    config.ndp, config.threads, BulkTransport::kNdp),
      config_(config),
      expander_(config.structure) {
  build();
}

void ExpanderNetwork::build() {
  const auto& g = expander_.graph();
  const int d = config_.structure.hosts_per_tor;
  const auto sw_q = config_.switch_queue_config();

  routes_ = expander_.routes();
  uplink_of_.assign(static_cast<std::size_t>(g.num_vertices()),
                    std::vector<int>(static_cast<std::size_t>(g.num_vertices()), -1));

  for (topo::Vertex t = 0; t < g.num_vertices(); ++t) {
    tors_.push_back(
        make_switch("tor" + std::to_string(t), t, shard_of_rack(t), d + g.degree(t), sw_q));
  }
  build_hosts(tors_, config_.host_queue_config());
  // Inter-ToR wiring: ToR a's uplink j connects to its j-th neighbor.
  for (topo::Vertex a = 0; a < g.num_vertices(); ++a) {
    const auto& nbrs = g.neighbors(a);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      uplink_of_[static_cast<std::size_t>(a)][static_cast<std::size_t>(nbrs[j])] =
          d + static_cast<int>(j);
    }
  }
  for (topo::Vertex a = 0; a < g.num_vertices(); ++a) {
    const auto& nbrs = g.neighbors(a);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      const topo::Vertex b = nbrs[j];
      const int b_port = uplink_of_[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)];
      tors_[static_cast<std::size_t>(a)]->port(d + static_cast<int>(j))
          .connect(tors_[static_cast<std::size_t>(b)].get(), b_port);
    }
  }

  for (auto& tor : tors_) {
    tor->set_forward([this, d](net::Switch& swch, const net::Packet& pkt, int) -> int {
      const std::int32_t rack = swch.id();
      if (pkt.dst_rack == rack) return pkt.dst_host - rack * d;
      const auto nexts = routes_.next_hops(rack, pkt.dst_rack);
      if (nexts.empty()) return -1;
      const topo::Vertex next = nexts[spray_pick(pkt, rack, nexts.size())];
      return uplink_of_[static_cast<std::size_t>(rack)][static_cast<std::size_t>(next)];
    });
  }
}

net::TrafficClass ExpanderNetwork::classify(const transport::Flow& flow,
                                            std::optional<net::TrafficClass> force) const {
  const bool is_bulk = flow.size_bytes >= config_.bulk_threshold_bytes;
  return force.value_or((config_.priority_queueing && is_bulk)
                            ? net::TrafficClass::kBulk
                            : net::TrafficClass::kLowLatency);
}

std::string ExpanderNetwork::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "static expander (%d ToRs, u=%d, d=%d, %d hosts)",
                num_racks(), config_.structure.uplinks,
                config_.structure.hosts_per_tor, num_hosts());
  return buf;
}

}  // namespace opera::core
