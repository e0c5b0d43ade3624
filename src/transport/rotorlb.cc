#include "transport/rotorlb.h"

#include <algorithm>
#include <cassert>

namespace opera::transport {

std::int64_t RotorLbAgent::segment_wire_bytes(const Segment& seg) const {
  const Flow* flow = tracker_.find(seg.flow_id);
  assert(flow != nullptr);
  std::int64_t bytes = 0;
  // Full packets plus possibly one short tail packet.
  const std::uint64_t count = seg.end_seq - seg.next_seq;
  bytes += static_cast<std::int64_t>(count) * net::kMtuBytes;
  if (seg.end_seq == flow->total_packets()) {
    bytes -= net::kMtuBytes - flow->wire_bytes(seg.end_seq - 1);
  }
  return bytes;
}

void RotorLbAgent::add_flow(const Flow& flow) {
  assert(flow.tclass == net::TrafficClass::kBulk);
  Segment seg{flow.id, 0, flow.total_packets()};
  const std::int64_t bytes = segment_wire_bytes(seg);
  voq_.queue(flow.dst_rack).push_back(seg);
  voq_.add_bytes(flow.dst_rack, bytes);
}

std::int64_t RotorLbAgent::emit(const Flow& flow, Segment& seg, std::int32_t relay_rack) {
  auto pkt = net::make_packet();
  pkt->flow_id = flow.id;
  pkt->seq = seg.next_seq++;
  pkt->src_host = flow.src_host;
  pkt->dst_host = flow.dst_host;
  pkt->src_rack = flow.src_rack;
  pkt->dst_rack = flow.dst_rack;
  pkt->size_bytes = flow.wire_bytes(pkt->seq);
  pkt->tclass = net::TrafficClass::kBulk;
  pkt->type = net::PacketType::kData;
  pkt->enqueued_at = host_.sim().now();
  if (relay_rack >= 0 && relay_rack != flow.dst_rack) {
    pkt->vlb_relay = true;
    pkt->relay_rack = relay_rack;
  }
  const std::int64_t bytes = pkt->size_bytes;
  host_.uplink().send(std::move(pkt));
  return bytes;
}

std::int64_t RotorLbAgent::drain_voq(std::int32_t rack, std::int64_t budget_bytes,
                                     std::int32_t relay_rack) {
  auto* s = voq_.find(rack);
  if (s == nullptr) return 0;
  auto& q = s->queue;
  std::int64_t sent = 0;
  while (!q.empty() && sent < budget_bytes) {
    Segment& seg = q.front();
    const Flow* flow = tracker_.find(seg.flow_id);
    assert(flow != nullptr);
    while (seg.next_seq < seg.end_seq && sent < budget_bytes) {
      sent += emit(*flow, seg, relay_rack);
    }
    if (seg.next_seq == seg.end_seq) (void)q.pop_front();
  }
  voq_.add_bytes(rack, -sent);
  return sent;
}

std::int64_t RotorLbAgent::grant_direct(std::int32_t target_rack,
                                        std::int64_t budget_bytes) {
  return drain_voq(target_rack, budget_bytes, /*relay_rack=*/-1);
}

std::int64_t RotorLbAgent::grant_vlb(std::int32_t relay_rack, std::int64_t budget_bytes,
                                     std::span<std::int64_t> dst_budget,
                                     const std::vector<bool>* allowed_dst) {
  std::int64_t sent = 0;
  while (sent < budget_bytes) {
    // Longest VOQ first (skewed demand is exactly when VLB helps), among
    // destinations whose receivers still accept bytes this slice. The
    // active-list scan visits only materialized slots; ties go to the
    // lowest rack id, reproducing the dense array's left-to-right
    // strict-max scan exactly.
    std::int32_t best = -1;
    std::int64_t best_bytes = 0;
    for (const auto& s : voq_) {
      const auto r = static_cast<std::size_t>(s.rack);
      if (s.rack == relay_rack) continue;
      if (dst_budget[r] <= 0) continue;
      if (allowed_dst != nullptr && !(*allowed_dst)[r]) continue;
      if (s.bytes > best_bytes ||
          (s.bytes == best_bytes && best >= 0 && s.rack < best)) {
        best_bytes = s.bytes;
        best = s.rack;
      }
    }
    if (best < 0) break;
    const std::int64_t want = std::min(budget_bytes - sent,
                                       dst_budget[static_cast<std::size_t>(best)]);
    const std::int64_t drained = drain_voq(best, want, relay_rack);
    if (drained == 0) break;
    dst_budget[static_cast<std::size_t>(best)] -= drained;
    sent += drained;
  }
  return sent;
}

void RotorLbAgent::handle_nack(std::uint64_t flow_id, std::uint64_t seq) {
  const Flow* flow = tracker_.find(flow_id);
  if (flow == nullptr) return;
  Segment seg{flow_id, seq, seq + 1};
  const std::int64_t bytes = flow->wire_bytes(seq);
  voq_.queue(flow->dst_rack).push_front(seg);
  voq_.add_bytes(flow->dst_rack, bytes);
}

RotorLbSink::RotorLbSink(net::Host& host, const Flow& flow, FlowTracker& tracker)
    : host_(host), flow_(flow), tracker_(tracker) {
  seen_.assign(flow_.total_packets(), false);
  arm_stall_timer();
}

RotorLbSink::~RotorLbSink() { stall_timer_.cancel(); }

void RotorLbSink::on_packet(net::PacketPtr pkt) {
  if (pkt->type != net::PacketType::kData) return;
  if (seen_[pkt->seq]) return;
  seen_[pkt->seq] = true;
  ++received_;
  tracker_.on_delivered(flow_.id, pkt->size_bytes - net::kHeaderBytes,
                        host_.sim().now());
  if (complete() && !completed_reported_) {
    completed_reported_ = true;
    stall_timer_.cancel();
    tracker_.on_complete(flow_.id, host_.sim().now());
  }
}

void RotorLbSink::arm_stall_timer() {
  stall_timer_ = host_.sim().schedule_in(kStallCheckInterval,
                                         [this] { on_stall_check(); });
}

void RotorLbSink::on_stall_check() {
  if (complete()) return;
  if (received_ == received_at_last_check_) {
    // No progress for a full interval: NACK the first missing sequences so
    // the source re-enqueues them (covers lost in-band NACKs).
    int sent = 0;
    for (std::uint64_t seq = 0; seq < seen_.size() && sent < kMaxRerequests; ++seq) {
      if (seen_[seq]) continue;
      auto nack = net::make_packet();
      nack->flow_id = flow_.id;
      nack->seq = seq;
      nack->src_host = flow_.dst_host;
      nack->dst_host = flow_.src_host;
      nack->src_rack = flow_.dst_rack;
      nack->dst_rack = flow_.src_rack;
      nack->size_bytes = net::kHeaderBytes;
      nack->tclass = net::TrafficClass::kLowLatency;
      nack->type = net::PacketType::kNack;
      host_.uplink().send(std::move(nack));
      ++sent;
    }
  }
  received_at_last_check_ = received_;
  arm_stall_timer();
}

void RotorRelayBuffer::store(net::PacketPtr pkt) {
  pkt->vlb_relay = false;
  pkt->relay_rack = -1;
  const std::int32_t rack = pkt->dst_rack;
  voq_.add_bytes(rack, pkt->size_bytes);
  voq_.queue(rack).push_back(std::move(pkt));
}

std::vector<net::PacketPtr> RotorRelayBuffer::take(std::int32_t rack,
                                                   std::int64_t budget_bytes) {
  std::vector<net::PacketPtr> out;
  auto* s = voq_.find(rack);
  if (s == nullptr) return out;
  auto& q = s->queue;
  std::int64_t taken = 0;
  while (!q.empty() && taken + q.front()->size_bytes <= budget_bytes) {
    taken += q.front()->size_bytes;
    out.push_back(q.pop_front());
  }
  voq_.add_bytes(rack, -taken);
  return out;
}

}  // namespace opera::transport
