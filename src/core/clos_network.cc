#include "core/clos_network.h"

#include <cstdio>

namespace opera::core {

ClosNetwork::ClosNetwork(const ClosNetConfig& config)
    : PacketNetwork(config.structure.num_tors(), config.structure.hosts_per_tor(),
                    config.link, config.ndp, config.threads, BulkTransport::kNdp),
      config_(config),
      clos_(config.structure) {
  build();
}

void ClosNetwork::build() {
  const int k = config_.structure.radix;
  const int d = config_.structure.hosts_per_tor();
  const int u = config_.structure.tor_uplinks();
  const int tors_per_pod = k / 2;
  const auto sw_q = config_.switch_queue_config();

  // Switch placement: ToRs on their rack's shard, aggs on their pod's
  // first rack's shard, cores round-robin. Any fixed rule is correct —
  // every link has the same propagation delay, which is the lookahead.
  for (topo::Vertex t = 0; t < clos_.num_tors(); ++t) {
    tors_.push_back(make_switch("tor" + std::to_string(t), t, shard_of_rack(t), d + u, sw_q));
  }
  for (topo::Vertex a = 0; a < clos_.num_aggs(); ++a) {
    const int pod = static_cast<int>(a) / u;
    aggs_.push_back(make_switch("agg" + std::to_string(a), a,
                                shard_of_rack(pod * tors_per_pod), k, sw_q));
  }
  for (topo::Vertex c = 0; c < clos_.num_cores(); ++c) {
    cores_.push_back(make_switch("core" + std::to_string(c), c, c % num_shards(),
                                 clos_.num_pods(), sw_q));
  }
  build_hosts(tors_, config_.host_queue_config());

  // ToR <-> agg: ToR t's uplink j pairs with agg (pod*u + j), whose down
  // port for t is t's index within the pod.
  for (topo::Vertex t = 0; t < clos_.num_tors(); ++t) {
    const int pod = clos_.pod_of_tor(t);
    const int idx_in_pod = static_cast<int>(t) - pod * tors_per_pod;
    for (int j = 0; j < u; ++j) {
      const auto agg = static_cast<std::size_t>(pod * u + j);
      tors_[static_cast<std::size_t>(t)]->port(d + j).connect(aggs_[agg].get(), idx_in_pod);
      aggs_[agg]->port(idx_in_pod).connect(tors_[static_cast<std::size_t>(t)].get(), d + j);
    }
  }
  // Agg <-> core: agg a (group g = a mod u) uplink i pairs with core
  // (g*k/2 + i), whose port for agg a is a's pod.
  for (topo::Vertex a = 0; a < clos_.num_aggs(); ++a) {
    const int pod = static_cast<int>(a) / u;
    const int group = static_cast<int>(a) % u;
    for (int i = 0; i < k / 2; ++i) {
      const auto core = static_cast<std::size_t>(group * (k / 2) + i);
      aggs_[static_cast<std::size_t>(a)]->port(k / 2 + i).connect(cores_[core].get(), pod);
      cores_[core]->port(pod).connect(aggs_[static_cast<std::size_t>(a)].get(), k / 2 + i);
    }
  }

  // Forwarding: standard up-down ECMP with per-packet spraying (NDP). Aggs
  // hash as their switch-graph vertex, so a packet's ToR and agg picks are
  // independent.
  for (auto& tor : tors_) {
    tor->set_forward([d, u](net::Switch& swch, const net::Packet& pkt, int) {
      if (pkt.dst_rack == swch.id()) return pkt.dst_host - swch.id() * d;
      return d + static_cast<int>(spray_pick(pkt, swch.id(), static_cast<std::size_t>(u)));
    });
  }
  for (auto& agg : aggs_) {
    agg->set_forward([this, k, u, tors_per_pod](net::Switch& swch, const net::Packet& pkt,
                                                int) {
      const int pod = swch.id() / u;
      const int dst_pod = pkt.dst_rack / tors_per_pod;
      if (dst_pod == pod) return pkt.dst_rack - pod * tors_per_pod;
      return k / 2 + static_cast<int>(spray_pick(pkt, clos_.agg_vertex(swch.id()),
                                                 static_cast<std::size_t>(k / 2)));
    });
  }
  for (auto& core : cores_) {
    core->set_forward([tors_per_pod](net::Switch&, const net::Packet& pkt, int) {
      return pkt.dst_rack / tors_per_pod;
    });
  }
}

net::TrafficClass ClosNetwork::classify(const transport::Flow& flow,
                                        std::optional<net::TrafficClass> force) const {
  const bool is_bulk = flow.size_bytes >= config_.bulk_threshold_bytes;
  return force.value_or((config_.priority_queueing && is_bulk)
                            ? net::TrafficClass::kBulk
                            : net::TrafficClass::kLowLatency);
}

std::string ClosNetwork::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%d:1 folded Clos (k=%d, %d pods, %d hosts)",
                config_.structure.oversubscription, config_.structure.radix,
                clos_.num_pods(), num_hosts());
  return buf;
}

}  // namespace opera::core
