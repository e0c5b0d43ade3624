#include "topo/opera_topology.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/parallel.h"

namespace opera::topo {

FailureSet FailureSet::none(Vertex num_racks, int num_switches) {
  FailureSet f;
  f.rack_failed.assign(static_cast<std::size_t>(num_racks), false);
  f.switch_failed.assign(static_cast<std::size_t>(num_switches), false);
  f.uplink_failed.assign(static_cast<std::size_t>(num_racks),
                         std::vector<bool>(static_cast<std::size_t>(num_switches), false));
  return f;
}

bool FailureSet::any() const {
  for (const bool b : rack_failed) if (b) return true;
  for (const bool b : switch_failed) if (b) return true;
  for (const auto& row : uplink_failed) {
    for (const bool b : row) if (b) return true;
  }
  return false;
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::vector<int> OperaTopology::acceptance_slices(Vertex num_racks,
                                                  int num_switches) {
  // Testing a slice is an all-pairs BFS, O(N^2); past a few hundred racks
  // test a sample. Slice s has reconfiguring switch s % u, so slice c*u + p
  // is phase p of cycle c (N/u cycles of u slices).
  constexpr Vertex kExhaustiveRacks = 256;
  std::vector<int> out;
  if (num_racks <= kExhaustiveRacks) {
    for (int s = 0; s < num_racks; ++s) out.push_back(s);
    return out;
  }
  const int cycles = num_racks / num_switches;
  const int per_phase = std::min(cycles, 4);
  for (int j = 0; j < per_phase; ++j) {
    const int cycle = j * cycles / per_phase;
    for (int p = 0; p < num_switches; ++p) out.push_back(cycle * num_switches + p);
  }
  return out;
}

OperaTopology::OperaTopology(const OperaParams& params, OperaBuildStats* stats)
    : params_(params) {
  const Vertex n = params_.num_racks;
  const int u = params_.num_switches;
  if (n < 2 || u < 1) {
    throw std::invalid_argument("OperaTopology: need at least 2 racks and 1 switch");
  }
  if (n % u != 0) {
    throw std::invalid_argument(
        "OperaTopology: num_racks must be divisible by num_switches so each "
        "rotor switch gets an equal share of the N matchings");
  }
  // Design-time generate-and-test (paper §3.3): a random factorization is
  // an expander in every slice with high probability. We accept a
  // realization once every (sampled) slice is connected and the worst slice
  // diameter meets an expander-like bound; otherwise we draw another
  // realization, keeping the best seen as a fallback.
  constexpr int kMaxRealizations = 24;
  // A (u-1)-matching union behaves like a (u-1)-regular random graph
  // (sometimes (u-2) when the identity matching is active); its diameter
  // should be near log_{u-2}(N). Allow two hops of slack, floor of 5.
  const double base = std::max(2, u - 2);
  const int diameter_bound =
      std::max(5, static_cast<int>(std::ceil(std::log(static_cast<double>(n)) /
                                             std::log(base))) + 2);
  const std::vector<int> tested = acceptance_slices(n, u);

  OperaBuildStats local;
  OperaBuildStats& out = stats != nullptr ? *stats : local;
  std::vector<Matching> best_matchings;
  std::vector<std::vector<std::size_t>> best_assignment;
  int best_worst = std::numeric_limits<int>::max();

  for (int attempt = 0; attempt < kMaxRealizations; ++attempt) {
    const auto factor_start = std::chrono::steady_clock::now();
    ++out.realizations;
    sim::Rng rng(params_.seed + static_cast<std::uint64_t>(attempt) * 0x51ED2701);
    matchings_ = random_factorization(n, rng, {}, &out.factorization);
    assert(is_complete_factorization(matchings_));

    // Randomly deal the N matchings to the u switches, N/u each, then keep
    // the dealt order as each switch's cycling order (paper: "randomly
    // choose the order in which each switch cycles through its matchings").
    const auto deal = rng.permutation(matchings_.size());
    const std::size_t per_switch = matchings_.size() / static_cast<std::size_t>(u);
    assignment_.assign(static_cast<std::size_t>(u), {});
    for (std::size_t i = 0; i < deal.size(); ++i) {
      assignment_[i / per_switch].push_back(deal[i]);
    }
    out.factorization_s += seconds_since(factor_start);

    // Per-slice results land in their own slots; the reduction (all
    // connected, max of worst diameters) does not depend on their order.
    const auto accept_start = std::chrono::steady_clock::now();
    std::vector<PathStats> slice_stats(tested.size());
    sim::parallel_for(tested.size(), [&](std::size_t i) {
      slice_stats[i] = all_pairs_path_stats(slice_graph(tested[i]));
    });
    bool connected = true;
    int worst = 0;
    for (const PathStats& st : slice_stats) {
      if (st.disconnected_pairs > 0) connected = false;
      worst = std::max(worst, static_cast<int>(st.worst));
    }
    out.acceptance_s += seconds_since(accept_start);
    if (!connected) continue;
    if (worst <= diameter_bound) return;  // accepted
    if (worst < best_worst) {
      best_worst = worst;
      best_matchings = matchings_;
      best_assignment = assignment_;
    }
  }
  if (best_matchings.empty()) {
    throw std::runtime_error(
        "OperaTopology: no realization with fully-connected slices found; "
        "increase num_switches (u) relative to num_racks");
  }
  matchings_ = std::move(best_matchings);
  assignment_ = std::move(best_assignment);
}

std::size_t OperaTopology::matching_index(int sw, int slice) const {
  assert(sw >= 0 && sw < params_.num_switches);
  assert(slice >= 0 && slice < num_slices());
  const int u = params_.num_switches;
  // Switch sw reconfigures during slices {sw, sw+u, sw+2u, ...}. Its
  // matching advances when a reconfiguration completes, so by slice `slice`
  // it has advanced floor((slice - sw - 1)/u) + 1 times (0 if slice <= sw).
  const auto& mine = assignment_[static_cast<std::size_t>(sw)];
  int advances = 0;
  if (slice > sw) advances = (slice - sw - 1) / u + 1;
  return mine[static_cast<std::size_t>(advances) % mine.size()];
}

Vertex OperaTopology::circuit_peer(int sw, Vertex rack, int slice) const {
  const auto& m = matchings_[matching_index(sw, slice)];
  return m[static_cast<std::size_t>(rack)];
}

Graph OperaTopology::slice_graph(int slice, const FailureSet* failures,
                                 bool include_reconfiguring) const {
  const Vertex n = params_.num_racks;
  const int u = params_.num_switches;
  Graph g(n);
  const int down = reconfiguring_switch(slice);
  for (int sw = 0; sw < u; ++sw) {
    if (sw == down && !include_reconfiguring) continue;
    if (failures != nullptr && failures->switch_failed[static_cast<std::size_t>(sw)]) continue;
    const auto& m = matchings_[matching_index(sw, slice)];
    for (Vertex a = 0; a < n; ++a) {
      const Vertex b = m[static_cast<std::size_t>(a)];
      if (a >= b) continue;  // self-loops and double-visits
      if (failures != nullptr) {
        if (failures->rack_failed[static_cast<std::size_t>(a)] ||
            failures->rack_failed[static_cast<std::size_t>(b)] ||
            failures->uplink_failed[static_cast<std::size_t>(a)][static_cast<std::size_t>(sw)] ||
            failures->uplink_failed[static_cast<std::size_t>(b)][static_cast<std::size_t>(sw)]) {
          continue;
        }
      }
      g.add_edge(a, b);
    }
  }
  return g;
}

EcmpTable OperaTopology::slice_routes(int slice, const FailureSet* failures) const {
  return all_pairs_ecmp_next_hops(slice_graph(slice, failures));
}

bool OperaTopology::all_slices_connected() const {
  for (int s = 0; s < num_slices(); ++s) {
    if (!is_connected(slice_graph(s))) return false;
  }
  return true;
}

std::vector<int> OperaTopology::direct_slices(Vertex src, Vertex dst) const {
  std::vector<int> out;
  const int u = params_.num_switches;
  for (int s = 0; s < num_slices(); ++s) {
    const int down = reconfiguring_switch(s);
    for (int sw = 0; sw < u; ++sw) {
      if (sw == down) continue;
      if (circuit_peer(sw, src, s) == dst) {
        out.push_back(s);
        break;
      }
    }
  }
  return out;
}

}  // namespace opera::topo
