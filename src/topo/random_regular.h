// Random u-regular graphs: the static-expander baseline (Jellyfish-style
// random interconnect of ToR uplinks, paper §2.3 and §5).
#pragma once

#include "sim/rng.h"
#include "topo/graph.h"

namespace opera::topo {

// Retry budgets for the randomized construction (same scheme as
// FactorizationBudget in one_factorization.h): `max_restarts` from-scratch
// attempts with `matching_retries` matching draws per layer; if the whole
// budget fails on the caller's rng stream, the generator bumps to a fresh
// seed drawn from that stream — warning loudly on stderr with the bumped
// seed — up to `seed_bumps` times before throwing. The success path
// without bumps is byte-identical to the historical behavior.
struct RegularGraphBudget {
  int max_restarts = 100;
  int matching_retries = 60;
  int seed_bumps = 8;
};

// Generates a connected simple u-regular graph on n vertices as the union
// of u pairwise-disjoint random matchings (random_disjoint_matching on the
// shrinking remainder of K_n), restarting on a wedged layer or a
// disconnected outcome. Odd n leaves one random vertex out of each
// matching, so up to u vertices end below degree u. Requires n*u even and
// u < n. With u >= 3 the result is an expander with high probability, so
// only a handful of restarts are ever needed.
[[nodiscard]] Graph random_regular_graph(Vertex n, Vertex u, sim::Rng& rng,
                                         const RegularGraphBudget& budget = {});

}  // namespace opera::topo
