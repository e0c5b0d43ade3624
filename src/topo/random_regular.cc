#include "topo/random_regular.h"

#include <cassert>
#include <cstdio>
#include <stdexcept>

#include "topo/one_factorization.h"

namespace opera::topo {

namespace {

// One full restart-budgeted attempt on `rng`. Returns an empty (0-vertex)
// graph when the budget is exhausted — the caller decides whether to bump
// the seed or give up.
Graph random_regular_graph_once(Vertex n, Vertex u, sim::Rng& rng,
                                const RegularGraphBudget& budget) {
  // Build the graph as a union of u random pairwise-disjoint matchings —
  // the construction the paper cites for expanders ("the union of u random
  // matchings ... results in an expander graph with high probability").
  // Each matching comes from the greedy steal-repair sampler, which keeps
  // the acceptance rate near 1 even for dense graphs (large u).
  //
  // With odd n a single matching leaves one vertex out, so exact
  // u-regularity requires even n; for odd n the graph is u-regular except
  // for u vertices of degree u-1, matching what a rotor-style construction
  // yields physically.
  const auto sz = static_cast<std::size_t>(n);
  const bool odd = n % 2 == 1;

  for (int restart = 0; restart < budget.max_restarts; ++restart) {
    Graph g(n);
    RemainingGraph remaining(n);
    bool ok = true;
    for (Vertex layer = 0; layer < u && ok; ++layer) {
      ok = false;
      for (int retry = 0; retry < budget.matching_retries; ++retry) {
        Matching m;
        if (odd) {
          // Leave a random vertex out: sample a perfect matching on the
          // other n-1 (even) vertices of the compacted remainder, then map
          // back with the skipped vertex self-matched.
          const auto skip = static_cast<Vertex>(rng.index(sz));
          const Matching small =
              random_disjoint_matching(remaining.without_vertex(skip), rng);
          if (small.empty()) continue;
          const auto to_full = [skip](Vertex v) { return v < skip ? v : v + 1; };
          m.assign(sz, kNoVertex);
          m[static_cast<std::size_t>(skip)] = skip;
          for (Vertex a = 0; a + 1 < n; ++a) {
            m[static_cast<std::size_t>(to_full(a))] =
                to_full(small[static_cast<std::size_t>(a)]);
          }
        } else {
          m = random_disjoint_matching(remaining, rng);
        }
        if (m.empty()) continue;
        for (Vertex v = 0; v < n; ++v) {
          const Vertex w = m[static_cast<std::size_t>(v)];
          if (v < w) g.add_edge(v, w);
        }
        remaining.remove_matching(m);
        ok = true;
        break;
      }
    }
    if (ok && is_connected(g)) return g;
  }
  return Graph(0);
}

}  // namespace

Graph random_regular_graph(Vertex n, Vertex u, sim::Rng& rng,
                           const RegularGraphBudget& budget) {
  assert(u >= 1 && u < n);
  assert((static_cast<long long>(n) * u) % 2 == 0 &&
         "n*u must be even for a u-regular graph to exist");
  // Attempt 0 runs on the caller's rng: the success path is byte-identical
  // to the pre-budget behavior. Seed bumps run on independent streams
  // seeded off the caller's rng, each warned loudly for auditability.
  Graph g = random_regular_graph_once(n, u, rng, budget);
  if (g.num_vertices() > 0) return g;
  for (int bump = 0; bump < budget.seed_bumps; ++bump) {
    const std::uint64_t seed = rng.next_u64();
    std::fprintf(stderr,
                 "random_regular_graph: retry budget exhausted (n=%d, u=%d, "
                 "%d restarts x %d retries); bumping to seed %llu "
                 "(attempt %d/%d)\n",
                 static_cast<int>(n), static_cast<int>(u),
                 budget.max_restarts, budget.matching_retries,
                 static_cast<unsigned long long>(seed), bump + 1,
                 budget.seed_bumps);
    sim::Rng bumped(seed);
    g = random_regular_graph_once(n, u, bumped, budget);
    if (g.num_vertices() > 0) return g;
  }
  throw std::runtime_error(
      "random_regular_graph: exceeded retry budget after all seed bumps; "
      "parameters too tight (u close to n?)");
}

}  // namespace opera::topo
