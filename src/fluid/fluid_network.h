// fluid::FluidNetwork — the flow-granularity Opera backend (docs/FLUID.md).
//
// A core::Network that never moves a packet: flows are grouped by
// (src rack, dst rack) and each group drains as a fluid at the per-flow
// rate fluid::RotorRateLb assigns it, recomputed at every slice boundary
// from the slice's circuit schedule and frozen in between. Each group
// keeps a virtual drain counter V (cumulative bytes a flow that has been
// in the group since V=0 would have delivered); a flow joining at V0 with
// size S completes exactly when V reaches V0 + S, so one counter plus a
// min-heap of completion thresholds tracks any number of flows in O(log)
// per flow. That is what makes million-flow, multi-second scenarios
// tractable where the packet engine would need ~10^10 packet events.
//
// Determinism: the integrator is single-threaded (the threads knob is
// accepted and ignored, so --threads={1,2,4} are trivially bit-identical)
// and every container it iterates is ordered. Completions discovered
// while advancing groups are buffered and reported in canonical
// (time, flow id) order at each slice boundary, so the FlowTracker
// stream, fingerprints, and checkpoint/replay behave exactly like the
// packet engine's.
//
// Admission: a flow submitted outside any dispatch does not get a start
// event of its own. submit_flow() records (start, order key, id) in an
// admission cursor, and the flow joins its group at its exact start time,
// in the order its start event would have run, just before the next
// operation that reads group state: the boundary tick's sweep, run_until's
// catch-up sweep, or a dispatched flow start. While the integrator is idle
// one wake-up event, carrying the earliest queued flow's own order key,
// starts that flow at its time (docs/FLUID.md, "Admission").
//
// Accuracy: rates are frozen within a slice (capacity freed by a
// completion redistributes at the next boundary), new groups wait for
// their first boundary, and failures take effect at the next boundary
// instead of riding the packet engine's hello-protocol delay. Each
// approximation is bounded by one slice (~99 us); the parity oracle
// (tests/test_fluid_parity.cc) measures the resulting FCT error against
// the packet engine on small fabrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/fabric.h"
#include "core/network.h"
#include "fluid/rotor_rate_lb.h"
#include "sim/simulator.h"
#include "topo/opera_topology.h"
#include "transport/flow.h"

namespace opera::fluid {

// Registers the fluid and hybrid engine builders with
// core::NetworkFactory (idempotent). exp::Experiment calls this on
// construction; direct factory users with engine != packet must call it
// themselves. Both engines require FabricKind::kOpera.
void register_fluid_engines();

class FluidNetwork : public core::Network {
 public:
  explicit FluidNetwork(const core::OperaConfig& config);

  // Registers the flow and queues its start; a start in the past is
  // clamped to the current time.
  std::uint64_t submit_flow(
      std::int32_t src_host, std::int32_t dst_host, std::int64_t size_bytes,
      sim::Time start,
      std::optional<net::TrafficClass> force = std::nullopt) override;

  // Runs to `t` and catches the fluid state up to the stop time, so the
  // tracker is exact at return (mid-run progress hooks may observe
  // completion counts up to one slice stale; see header comment).
  void run_until(sim::Time t) override;

  [[nodiscard]] sim::Simulator& sim() override { return sim_; }
  [[nodiscard]] const sim::Simulator& sim() const override { return sim_; }
  [[nodiscard]] transport::FlowTracker& tracker() override { return tracker_; }
  [[nodiscard]] const transport::FlowTracker& tracker() const override {
    return tracker_;
  }
  [[nodiscard]] std::int32_t num_hosts() const override {
    return static_cast<std::int32_t>(config_.topology.num_hosts());
  }
  [[nodiscard]] std::int32_t num_racks() const override {
    return static_cast<std::int32_t>(config_.topology.num_racks);
  }
  [[nodiscard]] std::int32_t rack_of_host(std::int32_t host) const override {
    return host / config_.topology.hosts_per_rack;
  }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] const core::OperaConfig& config() const { return config_; }
  [[nodiscard]] const topo::OperaTopology& topology() const { return topo_; }
  [[nodiscard]] const RotorRateLb& allocator() const { return allocator_; }

  // Runtime fault injection, mirroring core::OperaNetwork's API so the
  // scenario engine and the parity tests drive both engines identically.
  // The fluid approximation: capacity disappears/returns at the next
  // slice boundary (no hello-protocol dissemination delay).
  void inject_uplink_failure(std::int32_t rack, int rotor_switch);
  void recover_uplink(std::int32_t rack, int rotor_switch);
  void inject_switch_failure(int rotor_switch);
  void recover_switch(int rotor_switch);
  [[nodiscard]] const topo::FailureSet& failures() const { return failures_; }

  // Delivered-byte accounting by path type. vlb_bytes are bytes delivered
  // via two-hop VLB; they consumed 2x that in circuit capacity, so total
  // circuit traversal bytes = direct_bytes + 2 * vlb_bytes.
  struct FluidStats {
    double direct_bytes = 0.0;
    double vlb_bytes = 0.0;
    double intra_bytes = 0.0;
    [[nodiscard]] double circuit_bytes() const {
      return direct_bytes + 2.0 * vlb_bytes;
    }
  };
  [[nodiscard]] const FluidStats& fluid_stats() const { return stats_; }
  // Live flow groups (for tests and memory probes).
  [[nodiscard]] std::size_t active_groups() const { return groups_.size(); }
  // Submitted flows that have not joined their group yet.
  [[nodiscard]] std::size_t queued_admissions() const {
    return admissions_.size() - next_admission_;
  }

  // Checkpoint hook: base digest plus the full fluid rate state — every
  // group's drain counter, rates, and pending thresholds in key order,
  // the queued-admission count, the byte counters, and the failure set.
  void fingerprint(sim::Fingerprint& fp) const override;

 private:
  // One completion threshold on a group's virtual drain counter.
  struct FlowMark {
    double threshold = 0.0;  // V (bytes) at which the flow completes
    std::uint64_t id = 0;
  };
  struct Group {
    std::int32_t src_rack = 0;
    std::int32_t dst_rack = 0;
    std::int64_t live = 0;      // flows currently draining
    double drained = 0.0;       // V: per-flow cumulative bytes
    sim::Time updated;          // time `drained` is valid at
    GroupRate rate;             // frozen for the current slice
    std::vector<FlowMark> heap;  // min-heap by (threshold, id)
  };
  // A flow submitted outside any dispatch, waiting to join its group, with
  // the root order key its start event would have had. Root keys grow
  // with submission, so (start, key) order is (start, id) order.
  struct Admission {
    sim::Time start;  // clamped to the clock at submission
    std::uint64_t key = 0;
    std::uint64_t id = 0;
  };
  [[nodiscard]] static bool precedes(const Admission& a, const Admission& b) {
    return a.start < b.start || (a.start == b.start && a.key < b.key);
  }

  // Advances one group to `t` under its frozen rate, popping completion
  // thresholds into pending_ and accruing delivered-byte stats.
  void advance_group(Group& group, sim::Time t);
  // Splits `live * per_flow_bytes` delivered bytes into the stats
  // counters by the group's direct/VLB rate mix.
  void accrue(Group& group, double per_flow_bytes);
  // Advances every group to `t`, reports pending completions in
  // (time, id) order, drops empty groups, and recomputes rates.
  void sweep_to(sim::Time t, bool recompute_rates);
  void recompute_rates(int slice);
  // Adds flow `id` to its group at time `at` (<= now), capturing the
  // group's drain counter at that instant under its frozen rate.
  void join(std::uint64_t id, sim::Time at);
  // Joins every queued flow that starts at or before `t`, in cursor order.
  void admit_through(sim::Time t);
  // The earliest queued admission (sorts the cursor's tail if needed).
  [[nodiscard]] const Admission& next_admission();
  // (Re)schedules the idle integrator's wake-up for admission `a`.
  void schedule_wakeup(const Admission& a);
  void on_wakeup();
  // Start event of a flow submitted from inside a dispatch.
  void on_flow_start(std::uint64_t id);
  void on_tick();
  void arm_tick(sim::Time now);
  [[nodiscard]] sim::Time next_boundary(sim::Time t) const;
  [[nodiscard]] int slice_at(sim::Time t) const;

  core::OperaConfig config_;
  topo::OperaTopology topo_;
  RotorRateLb allocator_;
  sim::Simulator sim_;
  transport::FlowTracker tracker_;
  topo::FailureSet failures_;

  // Key = src_rack * num_racks + dst_rack; std::map so every sweep and
  // the fingerprint iterate in deterministic key order.
  std::map<std::int64_t, Group> groups_;
  struct PendingCompletion {
    sim::Time at;
    std::uint64_t id;
  };
  std::vector<PendingCompletion> pending_;
  std::vector<GroupDemand> scratch_demands_;  // recompute_rates scratch

  // The admission cursor. Entries from next_admission_ on are queued, in
  // (start, key) order once sorted.
  std::vector<Admission> admissions_;
  std::size_t next_admission_ = 0;
  bool admissions_sorted_ = true;
  // While the tick is disarmed: the event that starts wakeup_for_.
  sim::EventHandle wakeup_;
  Admission wakeup_for_;
  bool tick_armed_ = false;
  FluidStats stats_;
};

}  // namespace opera::fluid
