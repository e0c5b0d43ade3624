#include "core/packet_network.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

namespace opera::core {

namespace {

// Resolved shard count: the requested count, else $OPERA_TEST_THREADS (the
// CI matrix leg that runs the whole suite sharded), else 1; always clamped
// to the rack count (a shard must own at least one rack-granularity
// domain).
int resolve_shards(int threads, sim::Time propagation, std::int32_t num_racks) {
  if (threads <= 0) {
    // getenv is mt-unsafe only against concurrent setenv; this runs at
    // fabric construction, before any shard worker exists.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char* env = std::getenv("OPERA_TEST_THREADS")) {
      threads = std::atoi(env);
    }
  }
  if (threads <= 0) threads = 1;
  // Sharding needs lookahead: a (hypothetical) zero-propagation fabric
  // has none, so it runs single-queue like the rack clamp would.
  if (!(propagation > sim::Time::zero())) threads = 1;
  return std::min<int>(threads, num_racks);
}

}  // namespace

PacketNetwork::PacketNetwork(std::int32_t num_racks, int hosts_per_rack,
                             const LinkParams& link, const transport::NdpConfig& ndp,
                             int threads, BulkTransport bulk)
    : engine_(resolve_shards(threads, link.propagation, num_racks), link.propagation),
      link_(link),
      num_racks_(num_racks),
      hosts_per_rack_(hosts_per_rack),
      ndp_(ndp),
      bulk_(bulk),
      endpoints_(static_cast<std::size_t>(engine_.num_shards())) {
  // Completions/deliveries are recorded on shard threads and merged in
  // canonical (time, flow id) order at every epoch barrier — the same
  // canonical stream for any shard count, so parity tests can compare the
  // records verbatim.
  tracker_.set_lanes(engine_.num_shards());
  engine_.set_barrier_hook([this] { tracker_.flush_lanes(); });
}

PacketNetwork::~PacketNetwork() = default;

std::unique_ptr<net::Switch> PacketNetwork::make_switch(const std::string& name,
                                                        std::int32_t id, int shard,
                                                        int ports,
                                                        const net::PortQueue::Config& queue) {
  auto sw = std::make_unique<net::Switch>(engine_.shard(shard), name, id);
  for (int p = 0; p < ports; ++p) sw->add_port(link_.rate_bps, link_.propagation, queue);
  return sw;
}

void PacketNetwork::build_hosts(const std::vector<std::unique_ptr<net::Switch>>& tors,
                                const net::PortQueue::Config& queue) {
  for (std::int32_t r = 0; r < num_racks_; ++r) {
    net::Switch& tor = *tors[static_cast<std::size_t>(r)];
    const int sh = shard_of_rack(r);
    for (int i = 0; i < hosts_per_rack_; ++i) {
      const auto id = static_cast<std::int32_t>(hosts_.size());
      auto host = std::make_unique<net::Host>(engine_.shard(sh), "host" + std::to_string(id),
                                              id, r);
      host->add_port(link_.rate_bps, link_.propagation, queue);
      host->uplink().connect(&tor, i);
      tor.port(i).connect(host.get(), 0);
      host->set_default_handler([this, sh](net::Host& h, net::PacketPtr pkt) {
        on_unclaimed_packet(sh, h, std::move(pkt));
      });
      if (bulk_ == BulkTransport::kRotorLb) {
        agents_.push_back(std::make_unique<transport::RotorLbAgent>(*host, tracker_));
      }
      hosts_.push_back(std::move(host));
    }
  }
}

void PacketNetwork::on_unclaimed_packet(int shard, net::Host& h, net::PacketPtr pkt) {
  const transport::Flow* flow = tracker_.find(pkt->flow_id);
  if (flow == nullptr) return;
  const bool rotorlb = bulk_ == BulkTransport::kRotorLb &&
                       flow->tclass == net::TrafficClass::kBulk;
  if (pkt->type == net::PacketType::kNack) {
    // RotorLB loss notification back at the source host.
    if (rotorlb && flow->src_host == h.id()) {
      agents_[static_cast<std::size_t>(h.id())]->handle_nack(flow->id, pkt->seq);
    }
    return;
  }
  if (pkt->type != net::PacketType::kData && pkt->type != net::PacketType::kHeader) {
    return;  // stray control for a finished flow
  }
  if (flow->dst_host != h.id()) return;
  // First packet of a flow at its destination: create the sink. This runs
  // on the destination host's shard, which appends to its own pool.
  EndpointPool& pool = endpoints_[static_cast<std::size_t>(shard)];
  if (rotorlb) {
    auto sink = std::make_unique<transport::RotorLbSink>(h, *flow, tracker_);
    auto* raw = sink.get();
    pool.bulk_sinks.push_back(std::move(sink));
    h.register_flow(flow->id, [raw](net::PacketPtr p) { raw->on_packet(std::move(p)); });
    raw->on_packet(std::move(pkt));
  } else {
    auto sink = std::make_unique<transport::NdpSink>(h, *flow, tracker_);
    auto* raw = sink.get();
    pool.ndp_sinks.push_back(std::move(sink));
    h.register_flow(flow->id, [raw](net::PacketPtr p) { raw->on_packet(std::move(p)); });
    raw->on_packet(std::move(pkt));
  }
}

std::uint64_t PacketNetwork::submit_flow(std::int32_t src_host, std::int32_t dst_host,
                                         std::int64_t size_bytes, sim::Time start,
                                         std::optional<net::TrafficClass> force) {
  assert(src_host != dst_host);
  transport::Flow flow;
  flow.id = tracker_.next_flow_id();
  flow.src_host = src_host;
  flow.dst_host = dst_host;
  flow.src_rack = rack_of_host(src_host);
  flow.dst_rack = rack_of_host(dst_host);
  flow.size_bytes = size_bytes;
  flow.start = start;
  flow.tclass = classify(flow, force);
  tracker_.register_flow(flow);

  const int sh = shard_of_host(flow.src_host);
  engine_.seed(sh, start, [this, sh, flow] { start_flow(sh, flow); });
  return flow.id;
}

void PacketNetwork::start_flow(int shard, const transport::Flow& flow) {
  if (bulk_ == BulkTransport::kRotorLb && flow.tclass == net::TrafficClass::kBulk) {
    agents_[static_cast<std::size_t>(flow.src_host)]->add_flow(flow);
    return;
  }
  auto source = std::make_unique<transport::NdpSource>(host(flow.src_host), flow, tracker_,
                                                       ndp_);
  source->start();
  endpoints_[static_cast<std::size_t>(shard)].ndp_sources.push_back(std::move(source));
}

}  // namespace opera::core
