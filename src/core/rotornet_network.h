// Packet-level RotorNet baseline (paper §5, Fig. 7c): rotor circuit
// switches that all reconfigure in unison, RotorLB for every flow. The
// hybrid variant donates one ToR uplink to an (idealized, non-blocking)
// packet-switched core that carries low-latency traffic with NDP — this
// favors the baseline, and is documented in DESIGN.md as a substitution.
// Each ToR lives on its rack's shard (the hybrid core on shard 0); slice
// boundaries and rotor settles are coordinator (global) events, as in
// Opera.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/packet_network.h"
#include "net/switch.h"
#include "sim/rng.h"
#include "topo/rotornet.h"
#include "transport/ndp.h"
#include "transport/rotorlb.h"

namespace opera::core {

struct RotorNetConfig {
  topo::RotorNetParams structure;  // defaults: 108 racks, 6 switches
  int hosts_per_rack = 6;
  LinkParams link;
  SliceParams slice;
  transport::NdpConfig ndp;
  // Hybrid only: flows at or above this size are bulk (RotorLB over the
  // rotors); smaller ones ride NDP through the packet core.
  std::int64_t bulk_threshold_bytes = 15'000'000;
  std::uint64_t seed = 42;
  int threads = 0;  // shard count; see PacketNetwork

  [[nodiscard]] net::PortQueue::Config tor_queue_config() const {
    net::PortQueue::Config q;
    q.low_latency_capacity_bytes = 24'000;
    q.control_capacity_bytes = 24'000;
    q.bulk_capacity_bytes = 2 * slice_bulk_budget();
    q.trim_low_latency = true;
    q.trim_bulk = false;
    return q;
  }
  [[nodiscard]] net::PortQueue::Config host_queue_config() const {
    net::PortQueue::Config q;
    q.low_latency_capacity_bytes = 4'000'000;
    q.control_capacity_bytes = 1'000'000;
    q.bulk_capacity_bytes = 4 * slice_bulk_budget();
    q.trim_low_latency = false;
    q.trim_bulk = false;
    return q;
  }
  // All rotors blink together: only (slice - reconfiguration - guard) is
  // usable per slice, unlike Opera's staggered design.
  [[nodiscard]] std::int64_t slice_bulk_budget() const {
    const sim::Time usable = slice.duration - slice.reconfiguration - slice.guard;
    return static_cast<std::int64_t>(usable.to_seconds() * link.rate_bps / 8.0);
  }
};

class RotorNetNetwork : public PacketNetwork {
 public:
  explicit RotorNetNetwork(const RotorNetConfig& config);

  [[nodiscard]] const RotorNetConfig& config() const { return config_; }
  [[nodiscard]] std::string describe() const override;

 private:
  // Non-hybrid: every flow is bulk (RotorLB). Hybrid: flows are NDP
  // low-latency through the packet core unless bulk-classified (>=
  // bulk_threshold_bytes) or forced. Intra-rack flows are always
  // low-latency (one ToR hop).
  [[nodiscard]] net::TrafficClass classify(
      const transport::Flow& flow, std::optional<net::TrafficClass> force) const override;
  void build();
  // Out-of-band RotorLB loss notification for a dropped bulk packet,
  // posted from `tor`'s domain into the source host's.
  void nack_out_of_band(net::Switch& tor, const net::Packet& pkt);
  void on_slice_boundary(std::int64_t abs_slice);
  void allocate_bulk(int slice);
  [[nodiscard]] int uplink_port(int sw) const { return config_.hosts_per_rack + sw; }
  [[nodiscard]] int core_port() const {
    return config_.hosts_per_rack + topo_.num_rotor_switches();
  }
  [[nodiscard]] int uplink_to(int slice, std::int32_t rack, std::int32_t peer) const;

  RotorNetConfig config_;
  topo::RotorNetTopology topo_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<net::Switch>> tors_;
  std::unique_ptr<net::Switch> core_;  // hybrid only: idealized big switch
  std::vector<std::unique_ptr<transport::RotorRelayBuffer>> relays_;
  int current_slice_ = 0;
};

}  // namespace opera::core
