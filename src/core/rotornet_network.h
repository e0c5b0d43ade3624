// Packet-level RotorNet baseline (paper §5, Fig. 7c): rotor circuit
// switches that all reconfigure in unison, RotorLB for every flow (the
// grant controller it shares with Opera, core::RotorFabric). The
// hybrid variant donates one ToR uplink to an (idealized, non-blocking)
// packet-switched core that carries low-latency traffic with NDP — this
// favors the baseline, and is listed under "Model substitutions" in
// docs/ARCHITECTURE.md.
// Each ToR lives on its rack's shard (the hybrid core on shard 0); slice
// boundaries and rotor settles are coordinator (global) events, as in
// Opera.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/rotor_fabric.h"
#include "net/switch.h"
#include "topo/rotornet.h"
#include "transport/ndp.h"

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

  // All rotors blink together: only (slice - reconfiguration - guard) is
  // usable per slice, unlike Opera's staggered design.
  [[nodiscard]] std::int64_t slice_bulk_budget() const {
    const sim::Time usable = slice.duration - slice.reconfiguration - slice.guard;
    return static_cast<std::int64_t>(usable.to_seconds() * link.rate_bps / 8.0);
  }
};

class RotorNetNetwork final : public RotorFabric {
 public:
  explicit RotorNetNetwork(const RotorNetConfig& config);

  [[nodiscard]] const RotorNetConfig& config() const { return config_; }
  [[nodiscard]] std::string describe() const override;

 private:
  friend class RotorFabric;  // its ToR forward closure calls uplink_to

  // The uplink (rotor switch index) whose circuit reaches `peer` from
  // `rack` in `slice`; -1 if none.
  [[nodiscard]] int uplink_to(int slice, std::int32_t rack, std::int32_t peer) const;

  // Non-hybrid: every flow is bulk (RotorLB). Hybrid: flows are NDP
  // low-latency through the packet core unless bulk-classified (>=
  // bulk_threshold_bytes) or forced. Intra-rack flows are always
  // low-latency (one ToR hop).
  [[nodiscard]] net::TrafficClass classify(
      const transport::Flow& flow, std::optional<net::TrafficClass> force) const override;
  [[nodiscard]] topo::Vertex circuit_peer(int sw, topo::Vertex rack,
                                          int slice) const override {
    return topo_.circuit_peer(sw, rack, slice);
  }
  // Out-of-band: RotorNet has no always-on in-band path.
  void send_nack(net::Switch& tor, const net::Packet& pkt) override;
  void on_slice_boundary(std::int64_t abs_slice);
  // The hybrid core's port on a ToR: right after the rotor uplinks.
  [[nodiscard]] int core_port() const { return uplink_port(num_rotors_); }

  RotorNetConfig config_;
  topo::RotorNetTopology topo_;
  std::unique_ptr<net::Switch> core_;  // hybrid only: idealized big switch
};

}  // namespace opera::core
