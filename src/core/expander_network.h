// Packet-level static-expander baseline (paper §5): ToR uplinks wired as a
// random u-regular graph, shortest-path ECMP with per-packet spraying
// (spray_pick), NDP transport for all traffic. Each ToR lives on its rack's
// shard.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/packet_network.h"
#include "net/switch.h"
#include "topo/expander.h"
#include "transport/ndp.h"

namespace opera::core {

struct ExpanderNetConfig {
  topo::ExpanderParams structure;  // defaults: 130 ToRs x u=7 x d=5 (650 hosts)
  LinkParams link;
  transport::NdpConfig ndp;
  std::int64_t bulk_threshold_bytes = 15'000'000;
  bool priority_queueing = true;
  int threads = 0;  // shard count; see PacketNetwork

  [[nodiscard]] net::PortQueue::Config switch_queue_config() const {
    net::PortQueue::Config q;
    q.low_latency_capacity_bytes = 12'000;
    q.control_capacity_bytes = 24'000;
    q.bulk_capacity_bytes = 36'000;
    q.trim_low_latency = true;
    q.trim_bulk = true;
    return q;
  }
  [[nodiscard]] net::PortQueue::Config host_queue_config() const {
    net::PortQueue::Config q;
    q.low_latency_capacity_bytes = 4'000'000;
    q.control_capacity_bytes = 1'000'000;
    q.bulk_capacity_bytes = 4'000'000;
    q.trim_low_latency = false;
    q.trim_bulk = false;
    return q;
  }
};

class ExpanderNetwork : public PacketNetwork {
 public:
  explicit ExpanderNetwork(const ExpanderNetConfig& config);

  [[nodiscard]] const topo::ExpanderTopology& structure() const { return expander_; }
  [[nodiscard]] std::string describe() const override;

 private:
  [[nodiscard]] net::TrafficClass classify(
      const transport::Flow& flow, std::optional<net::TrafficClass> force) const override;
  void build();

  ExpanderNetConfig config_;
  topo::ExpanderTopology expander_;
  topo::EcmpTable routes_;
  // uplink_of_[a] maps neighbor rack -> uplink port index on ToR a.
  std::vector<std::vector<int>> uplink_of_;
  std::vector<std::unique_ptr<net::Switch>> tors_;
};

}  // namespace opera::core
