// One-factorization of the complete graph (paper §3.3).
//
// Opera's topology starts by factoring the N x N all-ones matrix into N
// disjoint symmetric matchings — i.e., N involutive permutations whose
// union covers every (src, dst) pair, diagonal included. For even N this
// is the classic circle-method 1-factorization of K_N (N-1 perfect
// matchings) plus the identity matching (rack "connected" to itself — a
// slot that carries no traffic). For odd N each matching leaves exactly
// one rack unmatched.
//
// The paper randomizes the factorization; random_factorization() draws
// the matchings one at a time from the shrinking remainder of K_N, seeded
// deterministically. The paper also uses *graph lifting* to build large
// factorizations from small ones; `lift_double()` implements the doubling
// construction.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "topo/graph.h"

namespace opera::topo {

// A matching is an involutive permutation: match[v] == w means v<->w is a
// circuit in this matching; match[v] == v means v is unmatched (self-loop).
using Matching = std::vector<Vertex>;

// Returns true iff `m` is an involution on n vertices.
[[nodiscard]] bool is_valid_matching(const Matching& m);

// Returns true iff the matchings are pairwise disjoint (no rack pair
// appears in two matchings) and their union covers all of K_N plus the
// diagonal.
[[nodiscard]] bool is_complete_factorization(const std::vector<Matching>& ms);

// Deterministic circle-method factorization: exactly N matchings for any
// N >= 1. For even N: the identity matching plus N-1 perfect matchings.
// For odd N: N matchings, each leaving one vertex self-matched.
[[nodiscard]] std::vector<Matching> circle_factorization(Vertex n);

// Retry budgets for the randomized construction. The construction draws
// random matchings that can wedge (the tail remainder may have no perfect
// matching); restarts and per-round retries almost always recover. If the
// whole budget is exhausted on the caller's rng stream anyway — the stream
// can be pathological for a given n — the generator *bumps the seed*:
// it draws a fresh seed from the caller's rng, retries the full budget on
// an independent stream, and repeats up to `seed_bumps` times, warning
// loudly on stderr with the bumped seed each time. Only after every bump
// fails does it throw. The success path without bumps is byte-identical
// to the historical behavior (attempt 0 uses the caller's rng directly).
struct FactorizationBudget {
  int max_restarts = 200;     // from-scratch construction restarts
  int matching_retries = 30;  // per-round random matching draws
  int seed_bumps = 8;         // independent reseeded reruns of the above
};

// Work counters of random_factorization, accumulated (+=) across calls.
// failed_draws / draws is the share of sampler work thrown away.
struct FactorizationStats {
  int restarts = 0;      // from-scratch restarts after a wedged tail
  int draws = 0;         // random_disjoint_matching calls
  int failed_draws = 0;  // calls that returned no matching
};

// Random factorization (the paper's "randomly factor"). For even N: the
// identity matching plus N-1 perfect matchings drawn one after another by
// random_disjoint_matching, each from the edges no earlier matching used.
// A round that fails `matching_retries` draws wedges the construction —
// in practice near the end, when the remainder is a 2-regular graph with
// an odd cycle and so has no perfect matching — and the build restarts
// from scratch. Odd N factors N+1 and strips the dummy vertex. The
// matching order is shuffled last. `stats`, when given, accumulates the
// work counters.
[[nodiscard]] std::vector<Matching> random_factorization(
    Vertex n, sim::Rng& rng, const FactorizationBudget& budget = {},
    FactorizationStats* stats = nullptr);

// The edges a sequence of disjoint matchings may still use, as bit rows:
// bit w of row v is set iff v<->w is still available. Starts as K_n
// without the diagonal; callers clear each accepted matching. n rows of
// ceil(n/64) words (24 KB at n=432); bits past n stay clear.
class RemainingGraph {
 public:
  explicit RemainingGraph(Vertex n);

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] std::size_t words_per_row() const { return words_; }
  [[nodiscard]] const std::uint64_t* row(Vertex v) const {
    return bits_.data() + static_cast<std::size_t>(v) * words_;
  }
  [[nodiscard]] bool has_edge(Vertex v, Vertex w) const {
    const auto b = static_cast<std::size_t>(w);
    return ((row(v)[b / 64] >> (b % 64)) & 1U) != 0;
  }

  // Clears v<->w in both rows.
  void remove_edge(Vertex v, Vertex w);
  // Clears every v<->m[v] (self-matches touch only the clear diagonal).
  void remove_matching(const Matching& m);

  // The n-1 vertex remainder with `skip` deleted and the vertices above
  // it renumbered one down (the odd-n compaction of random_regular_graph).
  [[nodiscard]] RemainingGraph without_vertex(Vertex skip) const;

 private:
  Vertex n_;
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

// Draws one random perfect matching of `remaining` (even vertex count) by
// randomized greedy matching with steal-repair. Returns an empty vector on
// failure. This is the workhorse behind random_factorization and
// random_regular_graph; its candidate order and rng draws are part of the
// seeded output and are pinned by tests.
[[nodiscard]] Matching random_disjoint_matching(const RemainingGraph& remaining,
                                                sim::Rng& rng);

// Graph lifting: build a factorization of the all-ones 2N x 2N matrix from
// one of the N x N matrix. Within-copy pairs reuse the small factorization
// on both copies simultaneously; cross-copy pairs are covered by the N
// cyclic-shift matchings of K_{N,N}. Requires even N so the small perfect
// matchings stay perfect in the lift.
[[nodiscard]] std::vector<Matching> lift_double(const std::vector<Matching>& base);

// The (simple) graph formed by a union of matchings: edge v<->m[v] for
// every matched pair. Self-loops contribute nothing.
[[nodiscard]] Graph union_graph(const std::vector<Matching>& ms,
                                const std::vector<std::size_t>& which);

}  // namespace opera::topo
