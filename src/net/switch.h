// Packet switch with pluggable forwarding. Topologies install a forwarding
// function; the switch mechanically moves packets between ports and keeps
// drop statistics. This mirrors the paper's P4 ToR (§4.3): the forwarding
// table is consulted per packet based on class and the current network
// configuration.
#pragma once

#include <cstdint>
#include <functional>

#include "net/node.h"
#include "net/packet.h"

namespace opera::net {

class Switch : public Node {
 public:
  // Returns the output port for `pkt`, or -1 to drop.
  using ForwardFn = std::function<int(Switch&, const Packet&, int in_port)>;
  // Runs before forwarding; may consume the packet (move it out and return
  // true). Used by Opera ToRs to absorb VLB relay traffic into the rotor
  // relay buffer.
  using InterceptFn = std::function<bool(Switch&, PacketPtr& pkt, int in_port)>;
  // Invoked when the forwarding function has no route (e.g. a bulk packet
  // whose direct circuit just retargeted) — Opera ToRs NACK the source.
  using DropHook = std::function<void(Switch&, const Packet&)>;

  Switch(sim::ShardContext& ctx, std::string name, std::int32_t id)
      : Node(ctx, std::move(name)), id_(id) {}

  [[nodiscard]] std::int32_t id() const { return id_; }

  void set_forward(ForwardFn fn) { forward_ = std::move(fn); }
  void set_intercept(InterceptFn fn) { intercept_ = std::move(fn); }
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  void receive(PacketPtr pkt, int in_port) override {
    ++pkt->hops;
    if (intercept_ && intercept_(*this, pkt, in_port)) return;
    const int out = forward_ ? forward_(*this, *pkt, in_port) : -1;
    if (out < 0) {
      ++forward_drops_;
      if (drop_hook_) drop_hook_(*this, *pkt);
      return;
    }
    port(out).send(std::move(pkt));
  }

  [[nodiscard]] std::uint64_t forward_drops() const { return forward_drops_; }

  // Checkpoint hook: drop history plus every output port in index order
  // (ids, never pointers — the order must be partition-independent).
  void fingerprint(sim::Fingerprint& fp) const {
    fp.mix_i64(id_);
    fp.mix_u64(forward_drops_);
    for (int p = 0; p < num_ports(); ++p) port(p).fingerprint(fp);
  }

 private:
  std::int32_t id_;
  ForwardFn forward_;
  InterceptFn intercept_;
  DropHook drop_hook_;
  std::uint64_t forward_drops_ = 0;
};

}  // namespace opera::net
