#include "fluid/throughput.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "sim/rng.h"

namespace opera::fluid {

void Demand::add(int a, int b, double bps) {
  if (a == b) return;
  auto& row = rows_[static_cast<std::size_t>(a)];
  const auto it = std::lower_bound(
      row.begin(), row.end(), b,
      [](const Entry& e, int col) { return e.col < col; });
  if (it != row.end() && it->col == b) {
    it->value += bps;
  } else {
    row.insert(it, Entry{static_cast<std::int32_t>(b), bps});
  }
}

double Demand::total() const {
  // Row-major, ascending-column: the dense accumulation order.
  double sum = 0.0;
  for (const auto& row : rows_) {
    for (const Entry& e : row) sum += e.value;
  }
  return sum;
}

double Demand::row_sum(int a) const {
  double sum = 0.0;
  for (const Entry& e : rows_[static_cast<std::size_t>(a)]) sum += e.value;
  return sum;
}

std::size_t Demand::nnz() const {
  std::size_t count = 0;
  for (const auto& row : rows_) count += row.size();
  return count;
}

std::size_t Demand::memory_bytes() const {
  std::size_t bytes = sizeof(Demand) + rows_.capacity() * sizeof(rows_[0]);
  for (const auto& row : rows_) bytes += row.capacity() * sizeof(Entry);
  return bytes;
}

Demand Demand::all_to_all(int num_racks, int hosts_per_rack, double host_rate_bps) {
  Demand d(num_racks);
  const double per_pair =
      hosts_per_rack * host_rate_bps / static_cast<double>(num_racks - 1);
  for (int a = 0; a < num_racks; ++a) {
    for (int b = 0; b < num_racks; ++b) {
      if (a != b) d.add(a, b, per_pair);
    }
  }
  return d;
}

Demand Demand::hotrack(int num_racks, int hosts_per_rack, double host_rate_bps) {
  assert(num_racks >= 2);
  Demand d(num_racks);
  d.add(0, 1, hosts_per_rack * host_rate_bps);
  return d;
}

Demand Demand::permutation(int num_racks, int hosts_per_rack, double host_rate_bps,
                           unsigned seed) {
  // Host-level permutation: each host sends at full rate to one host in a
  // random other rack.
  Demand d(num_racks);
  sim::Rng rng(seed);
  for (int a = 0; a < num_racks; ++a) {
    for (int h = 0; h < hosts_per_rack; ++h) {
      int b = static_cast<int>(rng.index(static_cast<std::size_t>(num_racks)));
      while (b == a) b = static_cast<int>(rng.index(static_cast<std::size_t>(num_racks)));
      d.add(a, b, host_rate_bps);
    }
  }
  return d;
}

Demand Demand::skew(int num_racks, int hosts_per_rack, double host_rate_bps,
                    double active_fraction, unsigned seed) {
  Demand d(num_racks);
  sim::Rng rng(seed);
  const auto active = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::llround(active_fraction * num_racks)));
  const auto racks =
      rng.sample_without_replacement(static_cast<std::size_t>(num_racks), active);
  const double per_pair =
      hosts_per_rack * host_rate_bps / static_cast<double>(active - 1);
  for (const std::size_t a : racks) {
    for (const std::size_t b : racks) {
      if (a != b) d.add(static_cast<int>(a), static_cast<int>(b), per_pair);
    }
  }
  return d;
}

namespace {

// The demand with rows and columns swapped: row b lists b's senders in
// ascending order, the order a column walk of the dense matrix adds them.
Demand transpose(const Demand& demand) {
  Demand t(demand.num_racks());
  for (int a = 0; a < demand.num_racks(); ++a) {
    for (const Demand::Entry& e : demand.row(a)) t.add(e.col, a, e.value);
  }
  return t;
}

// A rack pair with positive demand and its one-hop direct capacity.
struct Cell {
  std::int32_t src;
  std::int32_t dst;
  double demand;
  double direct_cap;
};

// Feasibility of theta*demand under one-hop direct plus two-hop VLB relay
// routing: excess over each pair's direct capacity must fit in the spare
// per-rack budgets, and every byte leaves its source and enters its
// destination once.
bool vlb_feasible(const std::vector<Cell>& cells, const std::vector<double>& budget,
                  bool enable_vlb, double theta) {
  std::vector<double> out(budget.size(), 0.0);
  std::vector<double> in(budget.size(), 0.0);
  double total_excess = 0.0;
  for (const Cell& c : cells) {
    const double want = theta * c.demand;
    const double excess = std::max(0.0, want - c.direct_cap);
    if (excess > 0.0 && !enable_vlb) return false;
    out[static_cast<std::size_t>(c.src)] += want;  // first hop always leaves src
    in[static_cast<std::size_t>(c.dst)] += want;   // last hop always enters dst
    total_excess += excess;
  }
  double relay_capacity = 0.0;
  for (std::size_t r = 0; r < budget.size(); ++r) {
    const double spare_out = budget[r] - out[r];
    const double spare_in = budget[r] - in[r];
    if (spare_out < 0.0 || spare_in < 0.0) return false;
    relay_capacity += std::min(spare_out, spare_in);
  }
  return total_excess <= relay_capacity;
}

// Bisects for the largest feasible theta, or 0 when no pair has positive
// demand. The cells are gathered once, in row-major order (the dense
// loop's order, so every sum keeps its bits), and each step is one pass
// over them and the racks.
template <typename DirectCap>
double vlb_throughput(const Demand& demand, DirectCap direct_cap,
                      const std::vector<double>& budget, bool enable_vlb) {
  std::vector<Cell> cells;
  for (int a = 0; a < demand.num_racks(); ++a) {
    for (const Demand::Entry& e : demand.row(a)) {
      if (e.value > 0.0) cells.push_back({a, e.col, e.value, direct_cap(a, e.col)});
    }
  }
  if (cells.empty()) return 0.0;
  double lo = 0.0;
  double hi = 1.0;
  // Grow hi until infeasible (bounded: rack budgets cap throughput).
  while (vlb_feasible(cells, budget, enable_vlb, hi) && hi < 1e6) hi *= 2.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (vlb_feasible(cells, budget, enable_vlb, mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace

double clos_throughput(const Demand& demand, int hosts_per_rack, double host_rate_bps,
                       double oversubscription) {
  const double up_capacity = hosts_per_rack * host_rate_bps / oversubscription;
  const Demand by_dst = transpose(demand);
  double theta = std::numeric_limits<double>::infinity();
  for (int r = 0; r < demand.num_racks(); ++r) {
    const double out = demand.row_sum(r);
    const double in = by_dst.row_sum(r);
    if (out > 0.0) theta = std::min(theta, up_capacity / out);
    if (in > 0.0) theta = std::min(theta, up_capacity / in);
    // Host links bound everything at 1.0x offered load by construction.
    if (out > 0.0) theta = std::min(theta, hosts_per_rack * host_rate_bps / out);
    if (in > 0.0) theta = std::min(theta, hosts_per_rack * host_rate_bps / in);
  }
  return std::isinf(theta) ? 0.0 : theta;
}

double expander_throughput(const Demand& demand, const topo::Graph& g,
                           double link_rate_bps, bool enable_vlb) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  assert(static_cast<int>(n) == demand.num_racks());
  // Directed edge loads under ECMP splitting; edges indexed by (src,
  // adjacency position).
  std::vector<std::vector<double>> load(n);
  for (std::size_t v = 0; v < n; ++v) {
    load[v].assign(g.neighbors(static_cast<topo::Vertex>(v)).size(), 0.0);
  }

  const Demand by_dst = transpose(demand);
  std::vector<double> node_flow(n);
  std::vector<topo::Vertex> order(n);
  for (int b = 0; b < demand.num_racks(); ++b) {
    if (by_dst.row_sum(b) <= 0.0) continue;
    const auto dist = bfs_distances(g, static_cast<topo::Vertex>(b));
    std::fill(node_flow.begin(), node_flow.end(), 0.0);
    for (const Demand::Entry& e : by_dst.row(b)) {
      node_flow[static_cast<std::size_t>(e.col)] = e.value;
    }
    // Drain nodes farthest-first so all upstream flow has arrived before a
    // node splits its aggregate over the shortest-path DAG.
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
      assert(closer > 0 && "demand between disconnected racks");
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
  std::vector<double> budget(n);
  for (std::size_t r = 0; r < n; ++r) {
    budget[r] = g.degree(static_cast<topo::Vertex>(r)) * link_rate_bps;
  }
  const auto direct_cap = [&](int a, int b) {
    return g.has_edge(static_cast<topo::Vertex>(a), static_cast<topo::Vertex>(b))
               ? link_rate_bps
               : 0.0;
  };
  return std::max(ecmp, vlb_throughput(demand, direct_cap, budget, true));
}

double rotor_throughput(const Demand& demand, const RotorModelParams& p) {
  assert(p.num_racks == demand.num_racks());
  const double active_uplinks = p.uplinks * p.active_fraction;
  const double pair_cap =
      active_uplinks / static_cast<double>(p.num_racks) * p.link_rate_bps * p.duty_cycle;
  const std::vector<double> budget(static_cast<std::size_t>(p.num_racks),
                                   active_uplinks * p.link_rate_bps * p.duty_cycle);
  return vlb_throughput(demand, [&](int, int) { return pair_cap; }, budget,
                        p.enable_vlb);
}

}  // namespace opera::fluid
