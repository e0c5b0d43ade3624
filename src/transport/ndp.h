// NDP transport (Handley et al., SIGCOMM 2017), simplified but behaviorally
// faithful — the paper's low-latency transport (§4.2.1):
//   * zero-RTT start: the source blasts an initial window unpaced
//   * switches trim overflowing data packets to headers (see PortQueue)
//   * the receiver ACKs data, NACKs trimmed headers, and paces PULLs at
//     its link rate; the source sends exactly one packet per PULL,
//     retransmitting NACKed sequences first
//   * a conservative fallback timer recovers from lost control packets
#pragma once

#include <cstdint>
#include <vector>

#include "net/host.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "transport/flow.h"

namespace opera::transport {

// checkpoint:v1 fields=2
struct NdpConfig {
  int initial_window_packets = 10;  // ~1 BDP at 10 Gb/s / intra-DC RTT
  sim::Time fallback_rto = sim::Time::ms(1);
};

class NdpSource {
 public:
  // Registers itself as `flow.id`'s handler on `host`. The flow must
  // already be registered with `tracker`.
  NdpSource(net::Host& host, const Flow& flow, FlowTracker& tracker,
            const NdpConfig& config = {});
  ~NdpSource();

  NdpSource(const NdpSource&) = delete;
  NdpSource& operator=(const NdpSource&) = delete;

  // Sends the initial window.
  void start();

  [[nodiscard]] bool complete() const { return acked_ == flow_.total_packets(); }

 private:
  void on_packet(net::PacketPtr pkt);
  void send_seq(std::uint64_t seq);
  void send_next();
  void arm_timer();
  void on_timer();

  net::Host& host_;
  Flow flow_;
  FlowTracker& tracker_;
  NdpConfig config_;
  std::uint64_t next_new_ = 0;           // lowest never-sent sequence
  std::uint64_t acked_ = 0;              // count of distinct acked packets
  std::vector<bool> acked_seq_;
  std::vector<std::uint64_t> retransmit_;  // NACKed sequences (LIFO)
  sim::EventHandle timer_;
  bool done_ = false;
};

// Receiver endpoint; one per flow, usually created lazily by a host
// default handler (see core::PacketNetwork).
class NdpSink {
 public:
  NdpSink(net::Host& host, const Flow& flow, FlowTracker& tracker);
  ~NdpSink();

  NdpSink(const NdpSink&) = delete;
  NdpSink& operator=(const NdpSink&) = delete;

  void on_packet(net::PacketPtr pkt);

  [[nodiscard]] bool complete() const { return received_ == flow_.total_packets(); }

 private:
  net::Host& host_;
  Flow flow_;
  FlowTracker& tracker_;
  std::uint64_t received_ = 0;
  std::vector<bool> seen_;
  bool completed_reported_ = false;
};

}  // namespace opera::transport
