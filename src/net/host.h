// End host: one NIC uplink to its ToR, per-flow packet dispatch, and a
// receiver-side control pacer (NDP pull pacing).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/node.h"
#include "net/packet.h"
#include "net/queue.h"

namespace opera::net {

class Host : public Node {
 public:
  using FlowHandler = std::function<void(PacketPtr)>;
  // Called for packets of flows with no registered handler (used to create
  // receiver endpoints lazily on first arrival).
  using DefaultHandler = std::function<void(Host&, PacketPtr)>;

  Host(sim::ShardContext& ctx, std::string name, std::int32_t id, std::int32_t rack)
      : Node(ctx, std::move(name)), id_(id), rack_(rack) {}

  [[nodiscard]] std::int32_t id() const { return id_; }
  [[nodiscard]] std::int32_t rack() const { return rack_; }

  // The single host->ToR port (port 0 by convention).
  [[nodiscard]] OutPort& uplink() { return port(0); }

  void register_flow(std::uint64_t flow_id, FlowHandler handler) {
    handlers_[flow_id] = std::move(handler);
  }
  void unregister_flow(std::uint64_t flow_id) { handlers_.erase(flow_id); }
  void set_default_handler(DefaultHandler handler) { default_handler_ = std::move(handler); }

  void receive(PacketPtr pkt, int in_port) override;

  // Sends a control packet through the receiver pacer: control packets are
  // emitted one per MTU serialization time, which is how NDP's pull pacing
  // clocks the sender at the receiver's link rate.
  void pace_control(PacketPtr pkt);

 private:
  void pacer_kick();

  std::int32_t id_;
  std::int32_t rack_;
  // Keyed lookup only — never iterated (dispatch is by the arriving
  // packet's flow id), so iteration order cannot affect delivery order.
  // opera-lint's unordered-iteration rule enforces this.
  std::unordered_map<std::uint64_t, FlowHandler> handlers_;
  DefaultHandler default_handler_;
  PacketRing pacer_queue_;
  bool pacer_busy_ = false;
};

}  // namespace opera::net
