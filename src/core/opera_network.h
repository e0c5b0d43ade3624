// OperaNetwork — the packet-level Opera fabric (the paper's §3-§4 system):
// hosts with NDP sources/sinks and RotorLB agents, ToR switches with
// per-slice forwarding state, and rotor circuit switches realized as
// retargetable ToR-to-ToR links driven by the slice schedule.
//
// This is the library's primary public entry point:
//
//   core::OperaConfig cfg;                   // paper-scale defaults
//   cfg.topology.num_racks = 16; ...
//   core::OperaNetwork net(cfg);
//   net.submit_flow(src_host, dst_host, bytes, at);
//   net.run_until(sim::Time::ms(50));
//   net.tracker().fct_us(...);               // measurements
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/rotor_fabric.h"
#include "net/switch.h"
#include "topo/opera_topology.h"
#include "topo/slice_table_cache.h"

namespace opera::core {

class OperaNetwork final : public RotorFabric {
 public:
  explicit OperaNetwork(const OperaConfig& config);
  ~OperaNetwork() override;

  [[nodiscard]] const OperaConfig& config() const { return config_; }
  [[nodiscard]] const topo::OperaTopology& topology() const { return topo_; }
  [[nodiscard]] std::string describe() const override;

  // Slice index (within [0, num_slices)) active at time `t`.
  [[nodiscard]] int slice_at(sim::Time t) const;
  // Slice whose tables low-latency forwarding uses at time `now` (advances
  // to the next slice inside the end-of-slice drain window; see config.h).
  // Forwarding passes the deciding ToR's shard-local clock.
  [[nodiscard]] int routing_slice(sim::Time now) const;
  [[nodiscard]] int routing_slice() const { return routing_slice(engine_.now()); }

  // Aggregate drop/trim statistics across all ToR uplinks. `wire_drops`
  // counts packets lost to gray (lossy-not-dead) links.
  struct TorStats {
    std::uint64_t trims = 0;
    std::uint64_t drops = 0;
    std::uint64_t forward_drops = 0;
    std::uint64_t wire_drops = 0;
  };
  [[nodiscard]] TorStats tor_stats() const;

  // Runtime fault injection (paper §3.6.2): the failed component stops
  // carrying traffic immediately; every ToR learns of the failure and
  // recomputes its tables one full cycle later (the hello protocol
  // guarantees dissemination within at most two cycles — we model the
  // typical one). Until then, packets that would use the failed component
  // are dropped and recovered by the transports.
  //
  // All injection/recovery entry points mutate global fabric state and must
  // run in the coordinator phase — call them from sim() (global) events,
  // never from shard-local callbacks, or the threads=N contract breaks.
  void inject_uplink_failure(std::int32_t rack, int rotor_switch);
  void inject_switch_failure(int rotor_switch);
  [[nodiscard]] const topo::FailureSet& failures() const { return failures_; }

  // Recovery waves: the component rejoins with the matching it should
  // currently hold; ToRs fold it back into their tables one cycle later
  // (the same hello-protocol delay as failure dissemination).
  void recover_uplink(std::int32_t rack, int rotor_switch);
  void recover_switch(int rotor_switch);

  // Gray failure: the ToR's uplink transceiver on `rotor_switch` goes
  // lossy-not-dead — egress packets are dropped with probability `loss`
  // and survivors see `extra_latency` added one-way. The degradation
  // follows the port across slice retargets (it models the rack's optics,
  // not one circuit) and is invisible to routing: tables still use the
  // link, which is exactly why gray failures hurt (see docs/SCENARIOS.md).
  void inject_gray_uplink(std::int32_t rack, int rotor_switch, double loss,
                          sim::Time extra_latency);
  void clear_gray_uplink(std::int32_t rack, int rotor_switch);

  // Rotor desync: `rotor_switch`'s next `count` reconfigurations settle
  // `extra` late (on top of OperaConfig::slice.reconfiguration). While
  // late, next-slice tables already route into the still-dark uplinks —
  // the low-latency drain-window rule (§4.1) assumes punctual rotors, so
  // skew converts cleanly into measurable drops + FCT inflation. Requires
  // 0 <= extra, and extra + reconfiguration < slice duration.
  void inject_slice_skew(int rotor_switch, sim::Time extra, int count);

  // The per-slice low-latency table store (paper §4.3). Eager (all N
  // tables precomputed) or a sliding window around the current slice,
  // per OperaConfig::slice_table_window; see topo/slice_table_cache.h.
  [[nodiscard]] const topo::SliceTableCache& slice_tables() const {
    return slice_tables_;
  }

  // Checkpoint hook: base digest plus slice rotation state, failure sets,
  // the coordinator rng cursor, per-ToR/per-host-port counters and skew
  // state — everything partition-invariant. Per-shard endpoint pools and
  // shard clocks are deliberately excluded (partition-dependent).
  void fingerprint(sim::Fingerprint& fp) const override;

  // The usable uplink (rotor switch index) whose circuit reaches
  // `peer_rack` from `rack` in `slice`; -1 if none. Skips the
  // reconfiguring switch and failed switches/uplinks at either end
  // (circuit_usable). `slice` must be the current or the next slice, the
  // only ones forwarding asks for: it reads their cached rows.
  [[nodiscard]] int uplink_to(int slice, std::int32_t rack, std::int32_t peer_rack) const;

  // Memory-pressure degradation: halves the slice-table window (floor
  // topo::SliceTableCache::kMinWindow). Content-neutral — window size is
  // parity-tested to never change output (SliceWindowParity).
  bool degrade_memory() override;

 private:
  // By size against bulk_threshold_bytes unless forced (the paper's
  // application-based tagging, §3.4); intra-rack flows always take the
  // one-hop low-latency path.
  [[nodiscard]] net::TrafficClass classify(
      const transport::Flow& flow, std::optional<net::TrafficClass> force) const override;
  [[nodiscard]] topo::Vertex circuit_peer(int sw, topo::Vertex rack,
                                          int slice) const override {
    return topo_.circuit_peer(sw, rack, slice);
  }
  [[nodiscard]] bool circuit_usable(int slice, int sw, topo::Vertex rack,
                                    topo::Vertex peer) const override;
  // In-band: the NACK is a control packet that rides the expander back.
  void send_nack(net::Switch& tor, const net::Packet& pkt) override;
  // Neither rotor switch `sw` nor `rack`'s uplink to it has failed.
  [[nodiscard]] bool uplink_alive(int sw, topo::Vertex rack) const {
    return !failures_.switch_failed[static_cast<std::size_t>(sw)] &&
           !failures_.uplink_failed[static_cast<std::size_t>(rack)]
                                   [static_cast<std::size_t>(sw)];
  }
  void recompute_after_failure();

  // One slice's usable circuits, rack-major: peers[rack * u + sw] is the
  // rack `rack` reaches through rotor `sw`, or -1 where circuit_usable()
  // says no. The one definition of "usable" for forwarding and for the
  // reachability recompute.
  struct UplinkRow {
    int slice = -1;
    std::vector<std::int32_t> peers;
  };
  void build_uplink_row(int slice, UplinkRow& row) const;
  // Keeps uplink_rows_ on the current and next slice: at each boundary
  // the old next row becomes the current one and only the new next row is
  // built. After any change to failures_ call with `failures_changed`, which
  // rebuilds both.
  void refresh_uplink_rows(bool failures_changed = false);
  // Re-wires one rotor switch's ports to the matching active *now* (used
  // by recovery; skips racks whose own uplink is failed / self-matches /
  // the currently-reconfiguring switch, which its settle event owns).
  void rewire_switch_now(int rotor_switch);
  void on_slice_boundary(std::int64_t abs_slice);

  OperaConfig config_;
  topo::OperaTopology topo_;

  // Per-slice low-latency ECMP tables (paper §4.3): eager or windowed.
  topo::SliceTableCache slice_tables_;
  topo::FailureSet failures_;
  // The failure set tables are built against: a snapshot of failures_
  // taken at each hello-protocol reconvergence (recompute_after_failure),
  // NOT the live set — a freshly injected failure must not leak into
  // windowed rebuilds before the ToRs have "learned" of it, or windowed
  // and eager runs would diverge. Only consulted once
  // route_around_failures_ is set.
  topo::FailureSet table_failures_;
  bool route_around_failures_ = false;

  std::int64_t abs_slice_ = 0;
  // Rows for current_slice_ and the slice after it, in either order. Both
  // change only on the coordinator, so shard-side reads never race them.
  UplinkRow uplink_rows_[2];

  // Rotor desync state (inject_slice_skew): per-switch extra settle delay
  // and how many upcoming reconfigurations it still applies to.
  std::vector<sim::Time> skew_extra_;
  std::vector<int> skew_remaining_;
};

}  // namespace opera::core
