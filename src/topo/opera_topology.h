// The Opera topology (paper §3): N racks whose u uplinks connect to u
// rotor circuit switches. The complete rack-to-rack graph (plus diagonal)
// is factored into N disjoint symmetric matchings; each rotor switch is
// assigned N/u of them and cycles through its set. Reconfigurations are
// offset so that exactly one switch is "down" at any instant (the paper's
// small-topology regime), giving a sequence of N topology slices per
// cycle. Every slice is the union of u-1 active matchings — an expander
// with high probability — and across a full cycle every rack pair is
// directly connected at least once.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/checkpoint.h"
#include "topo/graph.h"
#include "topo/one_factorization.h"

namespace opera::topo {

// checkpoint:v1 fields=4
struct OperaParams {
  Vertex num_racks = 108;     // N; determines slice count
  int num_switches = 6;       // u = number of rotor switches = ToR uplinks
  std::uint64_t seed = 1;     // randomization of the factorization
  // Hosts per rack (d = k/2 in the paper's 1:1-provisioned ToR).
  int hosts_per_rack = 6;

  [[nodiscard]] int tor_radix() const { return num_switches + hosts_per_rack; }
  [[nodiscard]] Vertex num_hosts() const {
    return num_racks * static_cast<Vertex>(hosts_per_rack);
  }
};

// Failed components for fault-tolerance analysis (paper §5.5, Fig. 11/18).
struct FailureSet {
  std::vector<bool> rack_failed;                  // size N
  std::vector<bool> switch_failed;                // size u
  std::vector<std::vector<bool>> uplink_failed;   // [rack][switch]

  static FailureSet none(Vertex num_racks, int num_switches);
  [[nodiscard]] bool any() const;

  // Checkpoint hook: the full membership, in index order.
  void fingerprint(sim::Fingerprint& fp) const {
    fp.mix_u64(rack_failed.size());
    for (const bool b : rack_failed) fp.mix_bool(b);
    fp.mix_u64(switch_failed.size());
    for (const bool b : switch_failed) fp.mix_bool(b);
    for (const auto& row : uplink_failed) {
      for (const bool b : row) fp.mix_bool(b);
    }
  }
};

// Where a topology build spends its time, for build-cost reports.
struct OperaBuildStats {
  int realizations = 0;                // factorizations drawn and tested
  FactorizationStats factorization;    // summed over realizations
  double factorization_s = 0.0;        // wall: factorization + switch deal
  double acceptance_s = 0.0;           // wall: per-slice acceptance test
};

class OperaTopology {
 public:
  // `stats`, when given, accumulates the build's work counters and phase
  // wall times.
  explicit OperaTopology(const OperaParams& params,
                         OperaBuildStats* stats = nullptr);

  // Slices the design-time acceptance test checks, ascending: every slice
  // up to 256 racks; beyond that, four per reconfiguring-switch phase
  // (spread over the cycle), so every phase is covered.
  [[nodiscard]] static std::vector<int> acceptance_slices(Vertex num_racks,
                                                          int num_switches);

  [[nodiscard]] const OperaParams& params() const { return params_; }
  [[nodiscard]] Vertex num_racks() const { return params_.num_racks; }
  [[nodiscard]] int num_switches() const { return params_.num_switches; }

  // One slice per matching: a full cycle has N slices.
  [[nodiscard]] int num_slices() const { return static_cast<int>(matchings_.size()); }

  // The rotor switch that is reconfiguring (down) during `slice`.
  [[nodiscard]] int reconfiguring_switch(int slice) const {
    return slice % params_.num_switches;
  }

  // Index into matchings() of the matching switch `sw` implements during
  // `slice`. A switch advances to its next matching when a reconfiguration
  // completes, i.e. in the slice after it was the reconfiguring switch;
  // during its reconfiguration slice this returns the outgoing matching
  // (the switch carries no traffic then either way).
  [[nodiscard]] std::size_t matching_index(int sw, int slice) const;

  // The rack that `rack`'s uplink to `sw` connects to during `slice`
  // (== rack when the matching self-matches it; callers must also check
  // reconfiguring_switch()).
  [[nodiscard]] Vertex circuit_peer(int sw, Vertex rack, int slice) const;

  // Union of the u-1 active matchings in `slice` (u matchings if
  // `include_reconfiguring` — used to model the instant after the switch
  // settles). Optional failures remove racks/switches/uplinks.
  [[nodiscard]] Graph slice_graph(int slice,
                                  const FailureSet* failures = nullptr,
                                  bool include_reconfiguring = false) const;

  // ECMP next-hop table over slice_graph(slice): the low-latency
  // forwarding state for that slice (paper §4.3's per-slice tables).
  [[nodiscard]] EcmpTable slice_routes(int slice,
                                       const FailureSet* failures = nullptr) const;

  // All matchings (N of them; matchings_[i] is an involution).
  [[nodiscard]] const std::vector<Matching>& matchings() const { return matchings_; }

  // Matching indices assigned to switch `sw`, in cycling order.
  [[nodiscard]] const std::vector<std::size_t>& switch_matchings(int sw) const {
    return assignment_[static_cast<std::size_t>(sw)];
  }

  // True iff every slice graph (under no failures) is connected — the
  // design-time acceptance test from §3.3.
  [[nodiscard]] bool all_slices_connected() const;

  // Slices (within one cycle) during which src and dst have a direct
  // circuit on a non-reconfiguring switch.
  [[nodiscard]] std::vector<int> direct_slices(Vertex src, Vertex dst) const;

 private:
  OperaParams params_;
  std::vector<Matching> matchings_;
  std::vector<std::vector<std::size_t>> assignment_;  // [switch] -> matching ids
};

}  // namespace opera::topo
