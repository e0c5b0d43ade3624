#include "fluid/throughput.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "sim/rng.h"
#include "topo/random_regular.h"

namespace opera::fluid {
namespace {

constexpr double kRate = 10e9;

// Cell (a, b) and column sum of b, read through row() the way a dense
// matrix would be.
double cell(const Demand& d, int a, int b) {
  const auto& row = d.row(a);
  const auto it = std::lower_bound(
      row.begin(), row.end(), b,
      [](const Demand::Entry& e, int col) { return e.col < col; });
  return (it != row.end() && it->col == b) ? it->value : 0.0;
}

double col_sum(const Demand& d, int b) {
  double sum = 0.0;
  for (int a = 0; a < d.num_racks(); ++a) sum += cell(d, a, b);
  return sum;
}

TEST(Demand, Workloads) {
  const auto a2a = Demand::all_to_all(10, 6, kRate);
  EXPECT_NEAR(a2a.row_sum(0), 6 * kRate, 1.0);
  EXPECT_NEAR(col_sum(a2a, 3), 6 * kRate, 1.0);

  const auto hot = Demand::hotrack(10, 6, kRate);
  EXPECT_NEAR(hot.total(), 6 * kRate, 1.0);
  ASSERT_EQ(hot.row(0).size(), 1u);
  EXPECT_EQ(hot.row(0)[0].col, 1);
  EXPECT_NEAR(hot.row(0)[0].value, 6 * kRate, 1.0);

  const auto perm = Demand::permutation(10, 6, kRate, 3);
  EXPECT_NEAR(perm.total(), 10 * 6 * kRate, 1.0);

  const auto sk = Demand::skew(10, 6, kRate, 0.2, 3);
  EXPECT_NEAR(sk.total(), 2 * 6 * kRate, 1.0);  // 2 active racks
}

TEST(Demand, SparseMemoryShape) {
  // The matrix is CSR-style: O(racks + nonzeros) entries, never the dense
  // O(racks^2) doubles. Pin the shape so a dense regression at k=24+
  // scales (432+ racks) shows up here before it shows up as RSS.
  const int n = 432;  // k=24 rack count
  const auto hot = Demand::hotrack(n, 12, kRate);
  EXPECT_EQ(hot.nnz(), 1u);
  // One row vector per rack plus a single entry, far under the dense
  // 432^2 doubles (~1.5 MB).
  EXPECT_LT(hot.memory_bytes(),
            static_cast<std::size_t>(n) * sizeof(std::vector<Demand::Entry>) +
                64 * sizeof(Demand::Entry) + sizeof(Demand));
  EXPECT_LT(hot.memory_bytes(), static_cast<std::size_t>(n) * n * sizeof(double) / 8);

  // Dense-ish demand still stores only its nonzeros.
  const auto a2a = Demand::all_to_all(64, 6, kRate);
  EXPECT_EQ(a2a.nnz(), static_cast<std::size_t>(64) * 63);
  EXPECT_GE(a2a.memory_bytes(), a2a.nnz() * sizeof(Demand::Entry));

  // Accumulating into an existing cell must not grow storage.
  Demand d(8);
  d.add(1, 2, kRate);
  d.add(1, 2, kRate);
  d.add(2, 2, kRate);  // diagonal ignored
  EXPECT_EQ(d.nnz(), 1u);
  ASSERT_EQ(d.row(1).size(), 1u);
  EXPECT_EQ(d.row(1)[0].col, 2);
  EXPECT_DOUBLE_EQ(d.row(1)[0].value, 2 * kRate);
  EXPECT_TRUE(d.row(2).empty());
  EXPECT_DOUBLE_EQ(d.total(), 2 * kRate);
}

TEST(ClosThroughput, UniformLoadMatchesOversubscription) {
  // All-to-all at full host load: 3:1 Clos delivers 1/3.
  const auto d = Demand::all_to_all(12, 6, kRate);
  EXPECT_NEAR(clos_throughput(d, 6, kRate, 3.0), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(clos_throughput(d, 6, kRate, 1.0), 1.0, 1e-9);
}

TEST(ClosThroughput, IndependentOfSkew) {
  // The paper: "throughput of the folded Clos topology is independent of
  // traffic pattern" — hotrack and permutation saturate the same uplinks.
  const auto hot = Demand::hotrack(12, 6, kRate);
  const auto perm = Demand::permutation(12, 6, kRate, 4);
  EXPECT_NEAR(clos_throughput(hot, 6, kRate, 3.0), 1.0 / 3.0, 1e-9);
  EXPECT_LE(clos_throughput(perm, 6, kRate, 3.0), 1.0 / 3.0 + 1e-9);
}

TEST(ExpanderThroughput, HotrackNearFull) {
  // One rack pair active: an expander routes over many disjoint paths, so
  // throughput approaches (and is capped by) the sending rack's uplinks.
  sim::Rng rng(5);
  const auto g = topo::random_regular_graph(32, 7, rng);
  const auto hot = Demand::hotrack(32, 5, kRate);
  const double theta = expander_throughput(hot, g, kRate);
  // 5 hosts at 10G = 50G demand; 7 uplinks = 70G: theta could reach 1.4
  // if perfectly spread, at least ~0.8 realistically.
  EXPECT_GT(theta, 0.8);
}

TEST(ExpanderThroughput, AllToAllPaysPathTax) {
  sim::Rng rng(6);
  const auto g = topo::random_regular_graph(32, 7, rng);
  const auto a2a = Demand::all_to_all(32, 5, kRate);
  const double theta = expander_throughput(a2a, g, kRate);
  // Average path length ~2.3: effective capacity u/(d*L) ~ 0.6.
  EXPECT_LT(theta, 0.9);
  EXPECT_GT(theta, 0.3);
}

TEST(RotorThroughput, AllToAllIsTaxFree) {
  // Uniform demand rides direct circuits: theta ~ active_uplinks/d.
  RotorModelParams p;
  p.num_racks = 16;
  p.uplinks = 4;
  p.active_fraction = 3.0 / 4.0;
  p.duty_cycle = 1.0;
  const auto a2a = Demand::all_to_all(16, 4, kRate);
  const double theta = rotor_throughput(a2a, p);
  // Direct-only bound: per-pair cap (3/16 link) vs demand (4/15 link per
  // pair) gives theta = 45/64 ~ 0.703; a little VLB on top -> ~0.73.
  EXPECT_NEAR(theta, 0.73, 0.03);
}

TEST(RotorThroughput, HotrackUsesVlb) {
  RotorModelParams p;
  p.num_racks = 16;
  p.uplinks = 4;
  p.active_fraction = 3.0 / 4.0;
  p.duty_cycle = 1.0;
  const auto hot = Demand::hotrack(16, 4, kRate);
  const double with_vlb = rotor_throughput(hot, p);
  p.enable_vlb = false;
  const double without = rotor_throughput(hot, p);
  // Direct-only: one pair gets 3/16 of a link over time.
  EXPECT_NEAR(without, 3.0 / 16.0 * 10e9 / (4 * kRate), 0.01);
  EXPECT_GT(with_vlb, 5.0 * without);  // VLB lifts it to ~uplink bound
  EXPECT_LE(with_vlb, 0.76);
}

TEST(RotorThroughput, VlbTaxHalvesPermutationThroughput) {
  // Rack-pair permutation demand (each rack sends all to one rack):
  // almost everything is VLBed at 2x cost -> theta ~ 1/2 * uplink ratio.
  RotorModelParams p;
  p.num_racks = 16;
  p.uplinks = 4;
  p.active_fraction = 3.0 / 4.0;
  p.duty_cycle = 1.0;
  Demand d(16);
  for (int r = 0; r < 16; ++r) d.add(r, (r + 1) % 16, 4 * kRate);
  const double theta = rotor_throughput(d, p);
  EXPECT_LT(theta, 0.55);
  EXPECT_GT(theta, 0.3);
}

TEST(RotorThroughput, ZeroDemand) {
  RotorModelParams p;
  p.num_racks = 8;
  p.uplinks = 4;
  EXPECT_DOUBLE_EQ(rotor_throughput(Demand(8), p), 0.0);
}

TEST(FluidModels, NoPositiveCellIsZero) {
  // An empty matrix and one whose only stored cell is zero offer no load:
  // every model reports theta = 0, not an unbounded scale factor.
  sim::Rng rng(5);
  const auto g = topo::random_regular_graph(32, 7, rng);
  Demand zero_cell(32);
  zero_cell.add(1, 2, 0.0);
  RotorModelParams p;
  p.num_racks = 32;
  p.uplinks = 4;
  for (const Demand& d : {Demand(32), zero_cell}) {
    EXPECT_EQ(expander_throughput(d, g, kRate), 0.0);
    EXPECT_EQ(expander_throughput(d, g, kRate, false), 0.0);
    EXPECT_EQ(rotor_throughput(d, p), 0.0);
    EXPECT_EQ(clos_throughput(d, 6, kRate, 3.0), 0.0);
  }
}

// Test-only copy of the dense models that the shared two-hop pass
// replaced: every feasibility step walks all rack pairs, reads each cell
// by binary search and each direct link through has_edge, and each model
// carries its own bisection. The sparse models must return the same theta
// bit for bit on any demand with a positive cell.
namespace dense {

bool graph_vlb_feasible(const Demand& demand, const topo::Graph& g,
                        double link_rate_bps, double theta) {
  const int n = demand.num_racks();
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  std::vector<double> in(static_cast<std::size_t>(n), 0.0);
  double total_excess = 0.0;
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      const double want = theta * cell(demand, a, b);
      if (want <= 0.0) continue;
      const double direct_cap =
          g.has_edge(static_cast<topo::Vertex>(a), static_cast<topo::Vertex>(b))
              ? link_rate_bps
              : 0.0;
      total_excess += std::max(0.0, want - direct_cap);
      out[static_cast<std::size_t>(a)] += want;
      in[static_cast<std::size_t>(b)] += want;
    }
  }
  double relay_capacity = 0.0;
  for (int r = 0; r < n; ++r) {
    const double budget = g.degree(static_cast<topo::Vertex>(r)) * link_rate_bps;
    const double spare_out = budget - out[static_cast<std::size_t>(r)];
    const double spare_in = budget - in[static_cast<std::size_t>(r)];
    if (spare_out < 0.0 || spare_in < 0.0) return false;
    relay_capacity += std::min(spare_out, spare_in);
  }
  return total_excess <= relay_capacity;
}

double graph_vlb_throughput(const Demand& demand, const topo::Graph& g,
                            double link_rate_bps) {
  double lo = 0.0;
  double hi = 1.0;
  while (graph_vlb_feasible(demand, g, link_rate_bps, hi) && hi < 1e6) hi *= 2.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (graph_vlb_feasible(demand, g, link_rate_bps, mid) ? lo : hi) = mid;
  }
  return lo;
}

double expander_throughput(const Demand& demand, const topo::Graph& g,
                           double link_rate_bps, bool enable_vlb) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<std::vector<double>> load(n);
  for (std::size_t v = 0; v < n; ++v) {
    load[v].assign(g.neighbors(static_cast<topo::Vertex>(v)).size(), 0.0);
  }
  std::vector<double> node_flow(n);
  std::vector<topo::Vertex> order(n);
  for (int b = 0; b < demand.num_racks(); ++b) {
    if (col_sum(demand, b) <= 0.0) continue;
    const auto dist = bfs_distances(g, static_cast<topo::Vertex>(b));
    std::fill(node_flow.begin(), node_flow.end(), 0.0);
    for (int a = 0; a < demand.num_racks(); ++a) {
      node_flow[static_cast<std::size_t>(a)] = cell(demand, a, b);
    }
    for (std::size_t v = 0; v < n; ++v) order[v] = static_cast<topo::Vertex>(v);
    std::sort(order.begin(), order.end(), [&](topo::Vertex x, topo::Vertex y) {
      return dist[static_cast<std::size_t>(x)] > dist[static_cast<std::size_t>(y)];
    });
    for (const topo::Vertex v : order) {
      const double f = node_flow[static_cast<std::size_t>(v)];
      if (f <= 0.0 || v == static_cast<topo::Vertex>(b)) continue;
      const auto& nbrs = g.neighbors(v);
      int closer = 0;
      for (const topo::Vertex w : nbrs) {
        if (dist[static_cast<std::size_t>(w)] == dist[static_cast<std::size_t>(v)] - 1) {
          ++closer;
        }
      }
      const double share = f / closer;
      for (std::size_t j = 0; j < nbrs.size(); ++j) {
        const topo::Vertex w = nbrs[j];
        if (dist[static_cast<std::size_t>(w)] == dist[static_cast<std::size_t>(v)] - 1) {
          load[static_cast<std::size_t>(v)][j] += share;
          node_flow[static_cast<std::size_t>(w)] += share;
        }
      }
    }
  }
  double max_load = 0.0;
  for (const auto& row : load) {
    for (const double l : row) max_load = std::max(max_load, l);
  }
  const double ecmp = max_load > 0.0 ? link_rate_bps / max_load : 0.0;
  if (!enable_vlb) return ecmp;
  return std::max(ecmp, graph_vlb_throughput(demand, g, link_rate_bps));
}

bool rotor_feasible(const Demand& demand, const RotorModelParams& p, double theta) {
  const int n = p.num_racks;
  const double active_uplinks = p.uplinks * p.active_fraction;
  const double pair_cap =
      active_uplinks / static_cast<double>(n) * p.link_rate_bps * p.duty_cycle;
  const double rack_budget = active_uplinks * p.link_rate_bps * p.duty_cycle;
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  std::vector<double> in(static_cast<std::size_t>(n), 0.0);
  double total_excess = 0.0;
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      const double want = theta * cell(demand, a, b);
      if (want <= 0.0) continue;
      const double direct = std::min(want, pair_cap);
      const double excess = want - direct;
      if (excess > 0.0 && !p.enable_vlb) return false;
      out[static_cast<std::size_t>(a)] += want;
      in[static_cast<std::size_t>(b)] += want;
      total_excess += excess;
    }
  }
  double relay_capacity = 0.0;
  for (int r = 0; r < n; ++r) {
    const double spare_out = rack_budget - out[static_cast<std::size_t>(r)];
    const double spare_in = rack_budget - in[static_cast<std::size_t>(r)];
    if (spare_out < 0.0 || spare_in < 0.0) return false;
    relay_capacity += std::min(spare_out, spare_in);
  }
  return total_excess <= relay_capacity;
}

double rotor_throughput(const Demand& demand, const RotorModelParams& params) {
  if (demand.total() <= 0.0) return 0.0;
  double lo = 0.0;
  double hi = 1.0;
  while (rotor_feasible(demand, params, hi) && hi < 1e6) hi *= 2.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (rotor_feasible(demand, params, mid) ? lo : hi) = mid;
  }
  return lo;
}

double clos_throughput(const Demand& demand, int hosts_per_rack, double host_rate_bps,
                       double oversubscription) {
  const double up_capacity = hosts_per_rack * host_rate_bps / oversubscription;
  double theta = std::numeric_limits<double>::infinity();
  for (int r = 0; r < demand.num_racks(); ++r) {
    const double out = demand.row_sum(r);
    const double in = col_sum(demand, r);
    if (out > 0.0) theta = std::min(theta, up_capacity / out);
    if (in > 0.0) theta = std::min(theta, up_capacity / in);
    if (out > 0.0) theta = std::min(theta, hosts_per_rack * host_rate_bps / out);
    if (in > 0.0) theta = std::min(theta, hosts_per_rack * host_rate_bps / in);
  }
  return std::isinf(theta) ? 0.0 : theta;
}

}  // namespace dense

void expect_same_bits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
      << what << ": got " << std::hexfloat << got << ", dense model " << want;
}

void expect_expander_parity(const Demand& d, const topo::Graph& g,
                            const std::string& what) {
  for (const bool vlb : {true, false}) {
    expect_same_bits(expander_throughput(d, g, kRate, vlb),
                     dense::expander_throughput(d, g, kRate, vlb),
                     what + (vlb ? " expander+vlb" : " expander"));
  }
}

void expect_rotor_parity(const Demand& d, RotorModelParams p, const std::string& what) {
  for (const bool vlb : {true, false}) {
    p.enable_vlb = vlb;
    expect_same_bits(rotor_throughput(d, p), dense::rotor_throughput(d, p),
                     what + (vlb ? " rotor+vlb" : " rotor"));
  }
}

void expect_clos_parity(const Demand& d, int hosts, double f, const std::string& what) {
  expect_same_bits(clos_throughput(d, hosts, kRate, f),
                   dense::clos_throughput(d, hosts, kRate, f), what + " clos");
}

Demand sweep_workload(int w, int racks, int hosts) {
  switch (w) {
    case 0: return Demand::hotrack(racks, hosts, kRate);
    case 1: return Demand::skew(racks, hosts, kRate, 0.2, 7);
    case 2: return Demand::permutation(racks, hosts, kRate, 7);
    default: return Demand::all_to_all(racks, hosts, kRate);
  }
}

// One cost-sweep point (exp/cost_sweep.cc): Opera-sized rotor and Clos,
// and the cost-equivalent expander at `alpha`. Returns false when the
// expander was left out: at some points the sweep asks
// random_regular_graph for an odd racks x uplinks product (129 x 7 at
// k=12, alpha=1.25), outside its "n*u even" contract, and a build with
// asserts on aborts there. Release builds, which print the figures, check
// every point.
bool expect_sweep_parity(int k, std::uint64_t seed, int w, double alpha) {
  using core::CostModel;
  const std::string what = "k=" + std::to_string(k) + " workload " +
                           std::to_string(w) + " alpha " + std::to_string(alpha);
  const auto hosts = CostModel::clos_hosts(k, 3.0);
  const int racks = static_cast<int>(CostModel::opera_racks(k));
  const int d = k / 2;
  const Demand opera_demand = sweep_workload(w, racks, d);
  RotorModelParams rp;
  rp.num_racks = racks;
  rp.uplinks = d;
  rp.active_fraction = static_cast<double>(d - 1) / d;
  expect_rotor_parity(opera_demand, rp, what);
  expect_clos_parity(opera_demand, d, CostModel::clos_oversubscription(alpha), what);

  const int u_e = CostModel::expander_uplinks(alpha, k);
  const int racks_e = static_cast<int>(hosts / (k - u_e));
#ifndef NDEBUG
  if (racks_e % 2 == 1 && u_e % 2 == 1) return false;
#endif
  sim::Rng rng(seed);
  const auto g = topo::random_regular_graph(racks_e, u_e, rng);
  expect_expander_parity(sweep_workload(w, racks_e, k - u_e), g, what);
  return true;
}

TEST(ThroughputParity, CostSweepK12) {
  int left_out = 0;
  for (int w = 0; w < 4; ++w) {
    for (const double alpha : {1.0, 1.25, 1.5, 1.75, 2.0}) {
      left_out += expect_sweep_parity(12, 19, w, alpha) ? 0 : 1;
    }
  }
  if (left_out > 0) {
    GTEST_SKIP() << left_out << " expander points need random_regular_graph with an odd "
                 << "racks x uplinks product, which asserts in this build";
  }
}

TEST(ThroughputParity, CostSweepK24) {
  // One cost point per skewed workload keeps the dense k=24 reference
  // (432-648 racks) inside the test budget; all three have an even
  // racks x uplinks product.
  EXPECT_TRUE(expect_sweep_parity(24, 17, 0, 1.0));
  EXPECT_TRUE(expect_sweep_parity(24, 17, 1, 1.5));
  EXPECT_TRUE(expect_sweep_parity(24, 17, 2, 2.0));
}

Demand random_sparse_demand(int n, double density, sim::Rng& rng) {
  Demand d(n);
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b || !rng.bernoulli(density)) continue;
      // Mix round multiples of a link with arbitrary values.
      d.add(a, b, rng.bernoulli(0.5) ? kRate * static_cast<double>(rng.uniform_int(1, 4))
                                     : kRate * 3.0 * rng.uniform());
    }
  }
  d.add(0, 1, kRate);  // at least one positive cell
  return d;
}

TEST(ThroughputParity, RandomSparseDemands) {
  sim::Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const std::string what = "trial " + std::to_string(trial);
    const int u = static_cast<int>(rng.uniform_int(3, 6));
    const int n = 2 * static_cast<int>(rng.uniform_int(6, 24));
    const Demand d = random_sparse_demand(n, 0.02 + 0.3 * rng.uniform(), rng);
    const auto g = topo::random_regular_graph(n, u, rng);
    expect_expander_parity(d, g, what);

    RotorModelParams p;
    p.num_racks = n;
    p.uplinks = u;
    p.active_fraction = rng.bernoulli(0.5) ? (u - 1.0) / u : 1.0;
    p.duty_cycle = 0.5 + 0.5 * rng.uniform();
    expect_rotor_parity(d, p, what);
    expect_clos_parity(d, u, 1.0 + 3.0 * rng.uniform(), what);
  }
}

TEST(ThroughputParity, UnevenDegreeGraph) {
  // Dropping edges from a regular graph gives racks different uplink
  // budgets; the racks that lose an edge also carry the skewed demand.
  const int n = 40;
  sim::Rng rng(31);
  const auto full = topo::random_regular_graph(n, 6, rng);
  topo::Graph g(n);
  std::vector<int> dropped(n, 0);
  for (topo::Vertex a = 0; a < n; ++a) {
    for (const topo::Vertex b : full.neighbors(a)) {
      if (b < a) continue;
      const bool drop = (a < 6 || b < 6) && dropped[static_cast<std::size_t>(a)] == 0 &&
                        dropped[static_cast<std::size_t>(b)] == 0;
      if (drop) {
        ++dropped[static_cast<std::size_t>(a)];
        ++dropped[static_cast<std::size_t>(b)];
      } else {
        g.add_edge(a, b);
      }
    }
  }
  ASSERT_LT(g.num_edges(), full.num_edges());
  const auto dist = topo::bfs_distances(g, 0);
  ASSERT_TRUE(
      std::none_of(dist.begin(), dist.end(), [](topo::Vertex x) { return x < 0; }));

  for (int w = 0; w < 4; ++w) {
    expect_expander_parity(sweep_workload(w, n, 4), g, "workload " + std::to_string(w));
  }
  for (int trial = 0; trial < 10; ++trial) {
    expect_expander_parity(random_sparse_demand(n, 0.1, rng), g,
                           "sparse trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace opera::fluid
