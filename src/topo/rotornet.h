// RotorNet baseline (paper §2.3, §5; Mellette et al., SIGCOMM 2017).
//
// Same rotor switches and matchings as Opera, but all switches reconfigure
// in unison: each slice instantiates u simultaneous matchings and the whole
// network blinks during reconfiguration. There is no multi-hop expander
// routing — traffic waits for a direct (or VLB two-hop) circuit, so a full
// cycle needs only N/u slices. The non-hybrid variant has no packet-
// switched core at all; the hybrid variant donates one of the u uplinks to
// a packet-switched network for low-latency traffic (+33% cost at u=6).
#pragma once

#include <cstdint>
#include <vector>

#include "topo/graph.h"
#include "topo/one_factorization.h"

namespace opera::topo {

// checkpoint:v1 fields=4
struct RotorNetParams {
  Vertex num_racks = 108;
  int num_switches = 6;     // rotor switches (hybrid: one fewer carries bulk)
  bool hybrid = false;      // donate uplink 0 to a packet-switched core
  std::uint64_t seed = 1;

  // Rotor switches actually carrying circuit traffic.
  [[nodiscard]] int num_rotor_switches() const { return num_switches - (hybrid ? 1 : 0); }
};

class RotorNetTopology {
 public:
  explicit RotorNetTopology(const RotorNetParams& params);

  [[nodiscard]] const RotorNetParams& params() const { return params_; }
  [[nodiscard]] int num_rotor_switches() const { return params_.num_rotor_switches(); }
  [[nodiscard]] int num_slices() const {
    return static_cast<int>(matchings_.size()) / num_rotor_switches();
  }

  // Matching implemented by rotor switch `sw` during `slice` (all switches
  // advance together).
  [[nodiscard]] std::size_t matching_index(int sw, int slice) const;
  [[nodiscard]] Vertex circuit_peer(int sw, Vertex rack, int slice) const;

  // Union of the u simultaneous matchings of `slice`.
  [[nodiscard]] Graph slice_graph(int slice) const;

  [[nodiscard]] const std::vector<Matching>& matchings() const { return matchings_; }

 private:
  RotorNetParams params_;
  std::vector<Matching> matchings_;
  std::vector<std::vector<std::size_t>> assignment_;
};

}  // namespace opera::topo
