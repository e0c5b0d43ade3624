#include "core/opera_network.h"

#include <cassert>
#include <cstdio>
#include <limits>
#include <utility>

namespace opera::core {

OperaNetwork::OperaNetwork(const OperaConfig& config)
    : RotorFabric(config.topology.num_racks, config.topology.hosts_per_rack,
                  config.topology.num_switches, config.link, config.ndp, config.threads,
                  config.seed),
      config_(config),
      topo_(config.topology),
      failures_(topo::FailureSet::none(config.topology.num_racks,
                                       config.topology.num_switches)),
      skew_extra_(static_cast<std::size_t>(config.topology.num_switches),
                  sim::Time::zero()),
      skew_remaining_(static_cast<std::size_t>(config.topology.num_switches), 0) {
  build_tors(/*extra_ports=*/0, rotor_queues(config_.slice_bulk_budget()));
  // Low-latency data and all control: ECMP over the routing slice's
  // expander tables (§4.3).
  install_tor_handlers(*this, [](OperaNetwork& self, net::Switch& tor,
                                 const net::Packet& pkt) -> int {
    const std::int32_t rack = tor.id();
    // The deciding clock is the ToR's own shard clock — identical to the
    // global clock at this event's timestamp under any sharding.
    const int rslice = self.routing_slice(tor.sim().now());
    // peek() keeps the per-packet path free of cache bookkeeping; the
    // boundary prefetch guarantees residency in steady state, and the get()
    // fallback only fires on out-of-window reads.
    const topo::EcmpTable* table = self.slice_tables_.peek(rslice);
    if (table == nullptr) table = &self.slice_tables_.get(rslice);
    const auto nexts = table->next_hops(rack, pkt.dst_rack);
    if (nexts.empty()) return -1;
    const topo::Vertex next = nexts[ecmp_pick(pkt, rack, rslice, nexts.size())];
    const int sw = self.uplink_to(rslice, rack, next);
    return sw < 0 ? -1 : self.uplink_port(sw);
  });

  // Per-slice low-latency forwarding tables (paper §4.3: all routing state
  // is known at design time). Slices are independent, so tables build in
  // parallel. Eager mode precomputes all N up front — at k=24 scale (432
  // slices, ~840 MB) the auto window instead keeps a small set resident,
  // prefetched ahead of the rotation at each slice boundary.
  slice_tables_ = topo::SliceTableCache(
      topo_.num_slices(),
      {config_.slice_table_window, config_.slice_table_budget_bytes},
      [this](int s) {
        return topo_.slice_routes(
            s, route_around_failures_ ? &table_failures_ : nullptr);
      });
  slice_tables_.set_concurrent(engine_.num_shards() > 1);

  // Physical wiring of slice 0, then the slice clock. Slice rotation is a
  // *global* (barrier-aligned) event: it retargets circuits and allocates
  // bulk grants across every rack, so it runs single-threaded between
  // epochs, before any shard processes events of the same timestamp.
  wire_all_uplinks(0);
  refresh_uplink_rows();
  engine_.global().schedule_at(sim::Time::zero(), [this] { on_slice_boundary(0); });
}

OperaNetwork::~OperaNetwork() = default;

int OperaNetwork::slice_at(sim::Time t) const {
  const auto abs = t / config_.slice.duration;
  return static_cast<int>(abs % topo_.num_slices());
}

int OperaNetwork::routing_slice(sim::Time now) const {
  // In the tail of a slice, route low-latency traffic by the *next*
  // slice's tables: those exclude the uplink that reconfigures at the
  // boundary, so nothing is left queued on it when it flushes (§4.1's
  // epsilon rule). The next-slice tables are physically valid here: the
  // currently-reconfiguring switch settled onto its next matching at +r.
  const sim::Time into_slice = now % config_.slice.duration;
  if (config_.slice.duration - into_slice <= config_.slice.drain_window) {
    return (current_slice_ + 1) % topo_.num_slices();
  }
  return current_slice_;
}

int OperaNetwork::uplink_to(int slice, std::int32_t rack, std::int32_t peer_rack) const {
  const UplinkRow& row = uplink_rows_[0].slice == slice ? uplink_rows_[0] : uplink_rows_[1];
  assert(row.slice == slice);
  const std::int32_t* peers =
      row.peers.data() + static_cast<std::size_t>(rack) * static_cast<std::size_t>(num_rotors_);
  for (int sw = 0; sw < num_rotors_; ++sw) {
    if (peers[sw] == peer_rack) return sw;
  }
  return -1;
}

void OperaNetwork::build_uplink_row(int slice, UplinkRow& row) const {
  const auto u = static_cast<std::size_t>(num_rotors_);
  row.slice = slice;
  row.peers.resize(static_cast<std::size_t>(topo_.num_racks()) * u);
  for (int sw = 0; sw < num_rotors_; ++sw) {
    const topo::Matching& matching = topo_.circuit_row(sw, slice);
    for (topo::Vertex r = 0; r < topo_.num_racks(); ++r) {
      const topo::Vertex peer = matching[static_cast<std::size_t>(r)];
      row.peers[static_cast<std::size_t>(r) * u + static_cast<std::size_t>(sw)] =
          circuit_usable(slice, sw, r, peer) ? peer : -1;
    }
  }
}

void OperaNetwork::refresh_uplink_rows(bool failures_changed) {
  if (failures_changed) uplink_rows_[0].slice = uplink_rows_[1].slice = -1;
  const int next = (current_slice_ + 1) % topo_.num_slices();
  if (uplink_rows_[1].slice == current_slice_) std::swap(uplink_rows_[0], uplink_rows_[1]);
  if (uplink_rows_[0].slice != current_slice_) build_uplink_row(current_slice_, uplink_rows_[0]);
  if (uplink_rows_[1].slice != next) build_uplink_row(next, uplink_rows_[1]);
}

bool OperaNetwork::circuit_usable(int slice, int sw, topo::Vertex rack,
                                  topo::Vertex peer) const {
  return sw != topo_.reconfiguring_switch(slice) && uplink_alive(sw, rack) &&
         uplink_alive(sw, peer);
}

void OperaNetwork::send_nack(net::Switch& tor, const net::Packet& pkt) {
  tor.receive(net::make_control(pkt, net::PacketType::kNack), -1);
}

void OperaNetwork::on_slice_boundary(std::int64_t abs_slice) {
  abs_slice_ = abs_slice;
  current_slice_ = static_cast<int>(abs_slice % topo_.num_slices());
  refresh_uplink_rows();
  const int slice = current_slice_;
  const int sw_dn = topo_.reconfiguring_switch(slice);
  const int next_slice = (slice + 1) % topo_.num_slices();

  // Take the reconfiguring switch's circuits down; anything still queued on
  // those uplinks is lost (bulk gets NACKed back to the source host).
  for (auto& tor : tors_) take_uplink_down(*tor, sw_dn);

  // The rotor settles on its next matching after the reconfiguration delay
  // (a global event: it touches ports in every shard). A skewed rotor
  // (inject_slice_skew) settles late, leaving its uplinks dark while the
  // drain-window rule already routes next-slice traffic into them.
  sim::Time settle_delay = config_.slice.reconfiguration;
  if (skew_remaining_[static_cast<std::size_t>(sw_dn)] > 0) {
    --skew_remaining_[static_cast<std::size_t>(sw_dn)];
    settle_delay += skew_extra_[static_cast<std::size_t>(sw_dn)];
  }
  engine_.global().schedule_in(settle_delay, [this, sw_dn, next_slice] {
    if (failures_.switch_failed[static_cast<std::size_t>(sw_dn)]) return;
    for (topo::Vertex r = 0; r < topo_.num_racks(); ++r) {
      wire_uplink(r, sw_dn, topo_.circuit_peer(sw_dn, r, next_slice),
                  !failures_.uplink_failed[static_cast<std::size_t>(r)]
                                          [static_cast<std::size_t>(sw_dn)]);
    }
  });

  // Keep the table window ahead of the rotation: build what the next
  // window() slices need (in parallel — the shard workers are parked at
  // the barrier, so the prefetch sweep has the whole pool), evict what
  // fell behind. Eager mode has everything resident already.
  if (!slice_tables_.eager()) slice_tables_.prefetch(slice);

  allocate_bulk(slice, config_.slice_bulk_budget(), config_.enable_vlb);

  engine_.global().schedule_in(config_.slice.duration,
                               [this, abs_slice] { on_slice_boundary(abs_slice + 1); });
}

net::TrafficClass OperaNetwork::classify(const transport::Flow& flow,
                                         std::optional<net::TrafficClass> force) const {
  // Intra-rack bulk never needs a circuit; service it on the low-latency
  // path (one ToR hop).
  if (flow.src_rack == flow.dst_rack) return net::TrafficClass::kLowLatency;
  return force.value_or(flow.size_bytes >= config_.bulk_threshold_bytes
                            ? net::TrafficClass::kBulk
                            : net::TrafficClass::kLowLatency);
}

void OperaNetwork::inject_uplink_failure(std::int32_t rack, int rotor_switch) {
  failures_.uplink_failed[static_cast<std::size_t>(rack)]
                         [static_cast<std::size_t>(rotor_switch)] = true;
  refresh_uplink_rows(/*failures_changed=*/true);
  // Anything queued on the dead uplink is lost now; NACK bulk back to the
  // sources over the (still connected) expander.
  take_uplink_down(tor(rack), rotor_switch);
  // Hello-protocol dissemination: tables reconverge after one cycle (a
  // global event — recomputation touches every ToR's state).
  engine_.global().schedule_in(config_.cycle_time(), [this] { recompute_after_failure(); });
}

void OperaNetwork::inject_switch_failure(int rotor_switch) {
  failures_.switch_failed[static_cast<std::size_t>(rotor_switch)] = true;
  refresh_uplink_rows(/*failures_changed=*/true);
  for (auto& t : tors_) take_uplink_down(*t, rotor_switch);
  engine_.global().schedule_in(config_.cycle_time(), [this] { recompute_after_failure(); });
}

void OperaNetwork::rewire_switch_now(int rotor_switch) {
  const auto sw = static_cast<std::size_t>(rotor_switch);
  if (failures_.switch_failed[sw]) return;
  // The currently-reconfiguring switch's ports belong to its pending
  // settle event (which re-checks the failure bits we just cleared).
  if (rotor_switch == topo_.reconfiguring_switch(current_slice_)) return;
  for (topo::Vertex r = 0; r < topo_.num_racks(); ++r) {
    if (failures_.uplink_failed[static_cast<std::size_t>(r)][sw]) continue;
    const topo::Vertex peer = topo_.circuit_peer(rotor_switch, r, current_slice_);
    wire_uplink(r, rotor_switch, peer,
                !failures_.uplink_failed[static_cast<std::size_t>(peer)][sw]);
  }
}

void OperaNetwork::recover_uplink(std::int32_t rack, int rotor_switch) {
  failures_.uplink_failed[static_cast<std::size_t>(rack)]
                         [static_cast<std::size_t>(rotor_switch)] = false;
  refresh_uplink_rows(/*failures_changed=*/true);
  // Both endpoints of any circuit through (rack, rotor_switch) may come
  // back; re-wiring the whole switch is idempotent for untouched racks.
  rewire_switch_now(rotor_switch);
  engine_.global().schedule_in(config_.cycle_time(), [this] { recompute_after_failure(); });
}

void OperaNetwork::recover_switch(int rotor_switch) {
  failures_.switch_failed[static_cast<std::size_t>(rotor_switch)] = false;
  refresh_uplink_rows(/*failures_changed=*/true);
  rewire_switch_now(rotor_switch);
  engine_.global().schedule_in(config_.cycle_time(), [this] { recompute_after_failure(); });
}

void OperaNetwork::inject_gray_uplink(std::int32_t rack, int rotor_switch,
                                      double loss, sim::Time extra_latency) {
  // Per-port salt: distinct gray links must make independent drop
  // decisions for the same packet, or a retransmission crossing two gray
  // hops would be deterministically doomed.
  const std::uint64_t salt = sim::mix64(
      0x6F70657261677261ULL ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rack)) << 8) ^
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(rotor_switch)));
  tor(rack).port(uplink_port(rotor_switch)).set_gray(loss, extra_latency, salt);
}

void OperaNetwork::clear_gray_uplink(std::int32_t rack, int rotor_switch) {
  tor(rack).port(uplink_port(rotor_switch)).clear_gray();
}

void OperaNetwork::inject_slice_skew(int rotor_switch, sim::Time extra, int count) {
  assert(extra >= sim::Time::zero());
  assert(extra + config_.slice.reconfiguration < config_.slice.duration);
  skew_extra_[static_cast<std::size_t>(rotor_switch)] = extra;
  skew_remaining_[static_cast<std::size_t>(rotor_switch)] = count;
}

void OperaNetwork::recompute_after_failure() {
  // Only cached entries are touched: drop them all (their content predates
  // the failure), then rebuild the active window in parallel — the full
  // set when eager, the slices around the rotation otherwise; anything
  // else rebuilds on demand. Builds run against a snapshot of the failure
  // set taken now — the reconvergence instant — so a failure injected
  // *after* this point stays invisible to rebuilt tables until its own
  // recompute fires, exactly like the eager precompute behaved.
  route_around_failures_ = true;
  table_failures_ = failures_;
  slice_tables_.invalidate_all();
  slice_tables_.prefetch(current_slice_);
  // Recompute direct reachability, purge relay buffers of traffic whose
  // final direct circuit no longer exists (its matching lived on a failed
  // switch/uplink), and stop routing new VLB traffic through dead-end
  // relays. NACKs send stranded packets back to their sources.
  const topo::Vertex n = topo_.num_racks();
  for (topo::Vertex r = 0; r < n; ++r) {
    auto& reach = relay_reach_[static_cast<std::size_t>(r)];
    for (topo::Vertex dst = 0; dst < n; ++dst) {
      if (dst != r) reach[static_cast<std::size_t>(dst)] = false;
    }
  }
  UplinkRow row;
  for (int s = 0; s < topo_.num_slices(); ++s) {
    build_uplink_row(s, row);
    for (topo::Vertex r = 0; r < n; ++r) {
      for (int sw = 0; sw < num_rotors_; ++sw) {
        const std::int32_t peer =
            row.peers[static_cast<std::size_t>(r) * static_cast<std::size_t>(num_rotors_) +
                      static_cast<std::size_t>(sw)];
        if (peer >= 0 && peer != r) {
          relay_reach_[static_cast<std::size_t>(r)][static_cast<std::size_t>(peer)] = true;
        }
      }
    }
  }
  for (topo::Vertex r = 0; r < n; ++r) {
    auto& relay = *relays_[static_cast<std::size_t>(r)];
    for (topo::Vertex dst = 0; dst < n; ++dst) {
      if (dst == r || relay_reach_[static_cast<std::size_t>(r)][static_cast<std::size_t>(dst)] ||
          relay.queued_bytes(dst) == 0) {
        continue;
      }
      for (auto& pkt : relay.take(dst, std::numeric_limits<std::int64_t>::max())) {
        nack_dropped(tor(r), *pkt);
      }
    }
  }
}

OperaNetwork::TorStats OperaNetwork::tor_stats() const {
  TorStats stats;
  const int d = config_.topology.hosts_per_rack;
  const int u = config_.topology.num_switches;
  for (const auto& tor : tors_) {
    stats.forward_drops += tor->forward_drops();
    for (int p = 0; p < d + u; ++p) {
      stats.trims += tor->port(p).queue().trims();
      stats.drops += tor->port(p).queue().drops();
      stats.wire_drops += static_cast<std::uint64_t>(tor->port(p).gray_drops());
    }
  }
  return stats;
}

void OperaNetwork::fingerprint(sim::Fingerprint& fp) const {
  Network::fingerprint(fp);
  // Slice rotation state.
  fp.mix_u64(static_cast<std::uint64_t>(current_slice_));
  fp.mix_i64(abs_slice_);
  // Failure machinery: the live set, the table snapshot, and whether
  // routing avoids failures yet.
  fp.mix_bool(route_around_failures_);
  failures_.fingerprint(fp);
  table_failures_.fingerprint(fp);
  // Coordinator rng cursor (bulk grant order draws advance it).
  rng_.fingerprint(fp);
  // Per-ToR counters and queue state, in rack order; per-host NIC port in
  // host order. Both orders are partition-invariant.
  for (const auto& tor : tors_) tor->fingerprint(fp);
  for (const auto& host : hosts_) host->port(0).fingerprint(fp);
  // Rotor desync state.
  for (const sim::Time t : skew_extra_) fp.mix_time(t);
  for (const int n : skew_remaining_) fp.mix_u64(static_cast<std::uint64_t>(n));
}

bool OperaNetwork::degrade_memory() {
  const int window = slice_tables_.window();
  return slice_tables_.shrink_window(window / 2);
}

std::string OperaNetwork::describe() const {
  // Deliberately identical for any shard count: describe() lands in CSV
  // rows, and sharding must not change a byte of bench output (the
  // threads note carries the metadata instead).
  char buf[96];
  std::snprintf(buf, sizeof buf, "Opera (%d racks x %d hosts, %d rotors)",
                num_racks(), config_.topology.hosts_per_rack,
                config_.topology.num_switches);
  return buf;
}

}  // namespace opera::core
