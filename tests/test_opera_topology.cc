#include "topo/opera_topology.h"

#include <gtest/gtest.h>

#include <set>

#include "sim/checkpoint.h"

namespace opera::topo {
namespace {

OperaParams small_params() {
  OperaParams p;
  p.num_racks = 16;
  p.num_switches = 4;
  p.hosts_per_rack = 4;
  p.seed = 7;
  return p;
}

TEST(OperaTopology, SliceCountEqualsRackCount) {
  const OperaTopology topo(small_params());
  EXPECT_EQ(topo.num_slices(), 16);
  EXPECT_EQ(topo.matchings().size(), 16u);
}

TEST(OperaTopology, MatchingsDealtEvenly) {
  const OperaTopology topo(small_params());
  std::set<std::size_t> seen;
  for (int sw = 0; sw < 4; ++sw) {
    const auto& mine = topo.switch_matchings(sw);
    EXPECT_EQ(mine.size(), 4u);  // N/u = 16/4
    seen.insert(mine.begin(), mine.end());
  }
  EXPECT_EQ(seen.size(), 16u);  // partition of all matchings
}

TEST(OperaTopology, ReconfiguringSwitchRotates) {
  const OperaTopology topo(small_params());
  for (int s = 0; s < topo.num_slices(); ++s) {
    EXPECT_EQ(topo.reconfiguring_switch(s), s % 4);
  }
}

TEST(OperaTopology, MatchingAdvancesOnlyAtReconfiguration) {
  const OperaTopology topo(small_params());
  // Between consecutive slices, only the switch that spent slice s
  // reconfiguring comes up with a new matching in slice s+1.
  for (int s = 0; s + 1 < topo.num_slices(); ++s) {
    for (int sw = 0; sw < 4; ++sw) {
      const auto before = topo.matching_index(sw, s);
      const auto after = topo.matching_index(sw, s + 1);
      if (topo.reconfiguring_switch(s) == sw) {
        EXPECT_NE(before, after) << "slice " << s << " switch " << sw;
      } else {
        EXPECT_EQ(before, after) << "slice " << s << " switch " << sw;
      }
    }
  }
}

TEST(OperaTopology, SwitchCyclesThroughAllItsMatchings) {
  const OperaTopology topo(small_params());
  for (int sw = 0; sw < 4; ++sw) {
    std::set<std::size_t> seen;
    for (int s = 0; s < topo.num_slices(); ++s) {
      seen.insert(topo.matching_index(sw, s));
    }
    EXPECT_EQ(seen.size(), topo.switch_matchings(sw).size());
  }
}

TEST(OperaTopology, EverySliceConnected) {
  const OperaTopology topo(small_params());
  EXPECT_TRUE(topo.all_slices_connected());
}

TEST(OperaTopology, SliceGraphDegreeBound) {
  const OperaTopology topo(small_params());
  // Union of u-1 = 3 matchings: every rack has degree <= 3.
  for (int s = 0; s < topo.num_slices(); ++s) {
    const Graph g = topo.slice_graph(s);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_LE(g.degree(v), 3);
    }
  }
}

TEST(OperaTopology, AllRackPairsDirectlyConnectedOverCycle) {
  const OperaTopology topo(small_params());
  for (Vertex a = 0; a < 16; ++a) {
    for (Vertex b = 0; b < 16; ++b) {
      if (a == b) continue;
      EXPECT_FALSE(topo.direct_slices(a, b).empty())
          << "no direct circuit for " << a << "->" << b;
    }
  }
}

TEST(OperaTopology, CircuitPeerIsSymmetric) {
  const OperaTopology topo(small_params());
  for (int s = 0; s < topo.num_slices(); ++s) {
    for (int sw = 0; sw < 4; ++sw) {
      for (Vertex r = 0; r < 16; ++r) {
        const Vertex peer = topo.circuit_peer(sw, r, s);
        EXPECT_EQ(topo.circuit_peer(sw, peer, s), r);
      }
    }
  }
}

TEST(OperaTopology, SliceRoutesReachAllRacks) {
  const OperaTopology topo(small_params());
  const auto routes = topo.slice_routes(0);
  for (Vertex src = 0; src < 16; ++src) {
    for (Vertex dst = 0; dst < 16; ++dst) {
      if (src == dst) continue;
      EXPECT_FALSE(routes.next_hops(src, dst).empty());
    }
  }
}

TEST(OperaTopology, FailedSwitchRemovesItsCircuits) {
  const OperaTopology topo(small_params());
  auto failures = FailureSet::none(16, 4);
  // Fail a switch that is active in slice 0 (switch 0 is reconfiguring).
  failures.switch_failed[1] = true;
  const Graph with = topo.slice_graph(0);
  const Graph without = topo.slice_graph(0, &failures);
  EXPECT_LT(without.num_edges(), with.num_edges());
}

TEST(OperaTopology, FailedUplinkRemovesOneCircuit) {
  const OperaTopology topo(small_params());
  auto failures = FailureSet::none(16, 4);
  failures.uplink_failed[3][1] = true;  // rack 3's uplink to switch 1
  const Graph with = topo.slice_graph(0);
  const Graph without = topo.slice_graph(0, &failures);
  // Switch 1 is active in slice 0; rack 3 loses exactly one circuit unless
  // the matching self-matched it.
  const Vertex peer = topo.circuit_peer(1, 3, 0);
  if (peer != 3) {
    EXPECT_EQ(without.num_edges() + 1, with.num_edges());
    EXPECT_FALSE(without.has_edge(3, peer));
  }
}

TEST(OperaTopology, RejectsIndivisibleRackCount) {
  OperaParams p;
  p.num_racks = 10;
  p.num_switches = 4;  // 10 % 4 != 0
  EXPECT_THROW(OperaTopology topo(p), std::invalid_argument);
}

TEST(OperaTopology, PaperScale108Racks) {
  OperaParams p;
  p.num_racks = 108;
  p.num_switches = 6;
  p.hosts_per_rack = 6;
  p.seed = 1;
  const OperaTopology topo(p);
  EXPECT_EQ(topo.num_slices(), 108);
  EXPECT_EQ(topo.params().num_hosts(), 648);
  EXPECT_TRUE(topo.all_slices_connected());
  // Worst-case path length across sample slices should be ~5 (paper §4.1).
  for (const int s : {0, 17, 53, 107}) {
    const auto stats = all_pairs_path_stats(topo.slice_graph(s));
    EXPECT_EQ(stats.disconnected_pairs, 0u);
    EXPECT_LE(stats.worst, 6);
  }
}

// Digest of a realization: every matching, then each switch's cycling
// order of matching indices.
std::uint64_t topology_digest(const OperaTopology& topo) {
  sim::Fingerprint fp;
  for (const auto& m : topo.matchings()) {
    for (const Vertex w : m) fp.mix_i64(w);
  }
  for (int sw = 0; sw < topo.num_switches(); ++sw) {
    fp.mix_u64(topo.switch_matchings(sw).size());
    for (const std::size_t i : topo.switch_matchings(sw)) fp.mix_u64(i);
  }
  return fp.digest();
}

TEST(OperaTopology, GoldenRealizationsPinned) {
  // Recorded from the byte-map sampler: the paper testbed (108 racks, u=6,
  // seed 3) and the k=24 fabric (432 racks, u=12, seed 1) must keep their
  // exact matchings and per-switch assignment.
  struct Pin {
    Vertex racks;
    int switches;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Pin pins[] = {{108, 6, 3, 0xecf5f8aabcd01ba6ULL},
                      {432, 12, 1, 0xf7a182732db85ae9ULL}};
  for (const auto& pin : pins) {
    OperaParams p;
    p.num_racks = pin.racks;
    p.num_switches = pin.switches;
    p.seed = pin.seed;
    const OperaTopology topo(p);
    EXPECT_EQ(topology_digest(topo), pin.digest)
        << pin.racks << " racks seed " << pin.seed << std::hex << " got 0x"
        << topology_digest(topo);
  }
}

TEST(OperaTopology, AcceptanceSlicesCoverEverySwitchPhase) {
  // Small fabrics test every slice.
  const auto all = OperaTopology::acceptance_slices(108, 6);
  ASSERT_EQ(all.size(), 108u);
  for (int s = 0; s < 108; ++s) EXPECT_EQ(all[static_cast<std::size_t>(s)], s);
  // Large ones sample, but every reconfiguring-switch phase must appear:
  // a stride of N/(4u) would hit only 4 of 12 phases at k=24 and 4 of 16
  // at k=32.
  for (const auto& [racks, u] : {std::pair{432, 12}, std::pair{768, 16},
                                 std::pair{260, 10}, std::pair{264, 88}}) {
    const auto tested = OperaTopology::acceptance_slices(racks, u);
    std::set<int> phases;
    for (std::size_t i = 0; i < tested.size(); ++i) {
      ASSERT_GE(tested[i], 0);
      ASSERT_LT(tested[i], racks);
      if (i > 0) {
        EXPECT_LT(tested[i - 1], tested[i]) << "not ascending";
      }
      phases.insert(tested[i] % u);
    }
    EXPECT_EQ(phases.size(), static_cast<std::size_t>(u))
        << racks << " racks, u=" << u;
    EXPECT_LE(tested.size(), static_cast<std::size_t>(4 * u));
  }
}

TEST(OperaTopology, BuildStatsReportTheFactorization) {
  // The paper testbed at seed 3: realization 0 is accepted, and its
  // factorization wedges twice before succeeding.
  OperaParams p;
  p.num_racks = 108;
  p.num_switches = 6;
  p.seed = 3;
  OperaBuildStats stats;
  const OperaTopology topo(p, &stats);
  EXPECT_EQ(stats.realizations, 1);
  EXPECT_EQ(stats.factorization.restarts, 2);
  EXPECT_GT(stats.factorization.failed_draws, 0);
  EXPECT_LT(stats.factorization.failed_draws, stats.factorization.draws);
  EXPECT_GE(stats.factorization_s, 0.0);
  EXPECT_GE(stats.acceptance_s, 0.0);
  // Collecting stats does not change the realization.
  EXPECT_EQ(topology_digest(topo), topology_digest(OperaTopology(p)));
}

// Property sweep over sizes and seeds: all slices connected, full direct
// coverage across the cycle.
struct TopoParam {
  Vertex racks;
  int switches;
  std::uint64_t seed;
};

class OperaTopologySweep : public ::testing::TestWithParam<TopoParam> {};

TEST_P(OperaTopologySweep, SlicesConnectedAndCycleComplete) {
  const auto [racks, switches, seed] = GetParam();
  OperaParams p;
  p.num_racks = racks;
  p.num_switches = switches;
  p.seed = seed;
  const OperaTopology topo(p);
  EXPECT_TRUE(topo.all_slices_connected());
  // Direct coverage: rack 0 reaches every other rack directly in-cycle.
  for (Vertex b = 1; b < racks; ++b) {
    EXPECT_FALSE(topo.direct_slices(0, b).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OperaTopologySweep,
    ::testing::Values(TopoParam{8, 4, 1}, TopoParam{12, 4, 2},
                      TopoParam{16, 4, 3}, TopoParam{20, 5, 4},
                      TopoParam{24, 6, 5}, TopoParam{36, 6, 6},
                      TopoParam{54, 6, 7}, TopoParam{64, 8, 8}));

}  // namespace
}  // namespace opera::topo
