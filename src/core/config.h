// Shared configuration for the packet-level networks, defaulted to the
// paper's constants (§4-§5): 10 Gb/s links, 1500 B MTU, 500 ns inter-ToR
// propagation, 12 KB NDP data queues, ~100 us topology slices (epsilon =
// 90 us end-to-end budget + 10 us rotor reconfiguration), and a 15 MB
// bulk-flow threshold.
#pragma once

#include <cstdint>

#include "net/queue.h"
#include "sim/time.h"
#include "topo/opera_topology.h"
#include "topo/slice_table_cache.h"
#include "transport/ndp.h"

namespace opera::core {

// checkpoint:v1 fields=2
struct LinkParams {
  double rate_bps = 10e9;
  sim::Time propagation = sim::Time::ns(500);  // 100 m of fiber
};

// checkpoint:v1 fields=4
struct SliceParams {
  sim::Time duration = sim::Time::us(99);       // epsilon + r
  sim::Time reconfiguration = sim::Time::us(10);  // rotor retarget time
  sim::Time guard = sim::Time::us(1);           // de-synchronization margin
  // The paper's epsilon rule: packets are never routed through a circuit
  // with an impending reconfiguration. In the last `drain_window` of a
  // slice, low-latency forwarding switches to the next slice's tables so
  // queued packets drain off the about-to-reconfigure uplinks (sized to
  // the worst-case ToR queue drain time).
  sim::Time drain_window = sim::Time::us(30);
};

// Queue provisioning of a rotor fabric (paper §4.1-4.2) whose uplinks
// carry `slice_bulk_budget` bytes per slice: shallow low-latency ToR
// queues keep epsilon small; ToR bulk queues hold about two slices of
// circuit data. Bulk is never trimmed: RotorLB NACKs drops instead.
struct RotorQueues {
  net::PortQueue::Config tor;
  net::PortQueue::Config host;
};
[[nodiscard]] inline RotorQueues rotor_queues(std::int64_t slice_bulk_budget) {
  RotorQueues q;
  q.tor.low_latency_capacity_bytes = 24'000;  // 8 full packets + headers (§4.1)
  q.tor.control_capacity_bytes = 24'000;
  q.tor.bulk_capacity_bytes = 2 * slice_bulk_budget;
  q.tor.trim_low_latency = true;
  // Hosts buffer their own traffic; no in-NIC trimming.
  q.host.low_latency_capacity_bytes = 4'000'000;
  q.host.control_capacity_bytes = 1'000'000;
  q.host.bulk_capacity_bytes = 4 * slice_bulk_budget;
  q.host.trim_low_latency = false;
  return q;
}

// checkpoint:v1 fields=10
struct OperaConfig {
  topo::OperaParams topology;  // defaults: 108 racks x 6 hosts (648 hosts)
  LinkParams link;
  SliceParams slice;
  transport::NdpConfig ndp;
  // Flows at or above this size are bulk (wait for direct circuits); the
  // paper derives 15 MB from the ~10.7 ms cycle time (§4.1).
  std::int64_t bulk_threshold_bytes = 15'000'000;
  bool enable_vlb = true;  // RotorLB two-hop fallback for skewed demand
  std::uint64_t seed = 42;

  // Windowed slice-table cache (topo/slice_table_cache.h): number of
  // per-slice ECMP tables kept resident. 0 = auto — eager (all slices,
  // the historical behavior) while the full set fits the memory budget,
  // otherwise the largest window that does. At paper scale (N=108,
  // ~35 MB total) auto stays eager; at k=24 (N=432, ~840 MB) it windows.
  int slice_table_window = 0;
  std::size_t slice_table_budget_bytes = topo::SliceTableCache::kDefaultBudgetBytes;

  // Shard count for the sharded event loop (see core::PacketNetwork).
  // Output is bit-identical for any value. 0 = auto: $OPERA_TEST_THREADS
  // when set, else 1 (the classic single-queue loop).
  int threads = 0;

  // Bytes one uplink (or host link) can carry in the usable part of a
  // slice: guard-adjusted so a burst granted at a slice start drains
  // before the boundary.
  [[nodiscard]] std::int64_t slice_bulk_budget() const {
    const sim::Time usable = slice.duration - slice.guard;
    return static_cast<std::int64_t>(usable.to_seconds() * link.rate_bps / 8.0);
  }

  // Cycle time: one slice per matching (paper §4.1: 108 slices x ~99 us
  // = 10.7 ms).
  [[nodiscard]] sim::Time cycle_time() const {
    return slice.duration * topology.num_racks;
  }
};

}  // namespace opera::core
