#include "topo/one_factorization.h"

#include <bit>
#include <cassert>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace opera::topo {

bool is_valid_matching(const Matching& m) {
  const auto n = static_cast<Vertex>(m.size());
  for (Vertex v = 0; v < n; ++v) {
    const Vertex w = m[static_cast<std::size_t>(v)];
    if (w < 0 || w >= n) return false;
    if (m[static_cast<std::size_t>(w)] != v) return false;
  }
  return true;
}

bool is_complete_factorization(const std::vector<Matching>& ms) {
  if (ms.empty()) return false;
  const std::size_t n = ms.front().size();
  // covered[a*n + b] marks pair (a, b); the factorization must cover each
  // ordered pair exactly once (diagonal included, via self-matches).
  std::vector<bool> covered(n * n, false);
  for (const auto& m : ms) {
    if (m.size() != n || !is_valid_matching(m)) return false;
    for (std::size_t v = 0; v < n; ++v) {
      const auto w = static_cast<std::size_t>(m[v]);
      if (covered[v * n + w]) return false;  // overlap between matchings
      covered[v * n + w] = true;
    }
  }
  for (const bool c : covered) {
    if (!c) return false;  // some pair never connected
  }
  return true;
}

std::vector<Matching> circle_factorization(Vertex n) {
  assert(n >= 1);
  if (n % 2 == 1) {
    // Odd N: factor K_{N+1} and strip the dummy vertex N; the dummy's
    // partner becomes self-matched in that round.
    const auto big = circle_factorization(n + 1);
    std::vector<Matching> out;
    out.reserve(static_cast<std::size_t>(n));
    for (const auto& m : big) {
      // The identity matching of the even factorization would map the dummy
      // to itself and every real vertex to itself; dropping the dummy makes
      // it the all-self matching, which we keep (it covers the diagonal).
      Matching small(static_cast<std::size_t>(n));
      for (Vertex v = 0; v < n; ++v) {
        const Vertex w = m[static_cast<std::size_t>(v)];
        small[static_cast<std::size_t>(v)] = (w == n) ? v : w;
      }
      out.push_back(std::move(small));
    }
    // Dropping the dummy turns the identity round into the all-self
    // matching, which would cover the diagonal a second time (the dummy's
    // partner in every other round is already self-matched). Drop it,
    // leaving N matchings.
    std::vector<Matching> filtered;
    for (auto& m : out) {
      bool identity = true;
      for (Vertex v = 0; v < n; ++v) {
        if (m[static_cast<std::size_t>(v)] != v) { identity = false; break; }
      }
      if (!identity) filtered.push_back(std::move(m));
    }
    return filtered;
  }

  // Even N, circle method: fix vertex n-1 at the hub; rotate 0..n-2.
  // Round r (r = 0..n-2) matches hub<->r and (r - i) <-> (r + i) mod n-1.
  std::vector<Matching> out;
  out.reserve(static_cast<std::size_t>(n));
  // Identity matching first: covers the diagonal of the all-ones matrix.
  Matching ident(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) ident[static_cast<std::size_t>(v)] = v;
  out.push_back(std::move(ident));

  const Vertex m = n - 1;  // modulus for the rotating vertices
  for (Vertex r = 0; r < m; ++r) {
    Matching match(static_cast<std::size_t>(n));
    match[static_cast<std::size_t>(n - 1)] = r;
    match[static_cast<std::size_t>(r)] = n - 1;
    for (Vertex i = 1; i <= (m - 1) / 2; ++i) {
      const Vertex a = (r + i) % m;
      const Vertex b = (r - i % m + m) % m;
      match[static_cast<std::size_t>(a)] = b;
      match[static_cast<std::size_t>(b)] = a;
    }
    out.push_back(std::move(match));
  }
  return out;
}

RemainingGraph::RemainingGraph(Vertex n)
    : n_(n),
      words_((static_cast<std::size_t>(n) + 63) / 64),
      bits_(static_cast<std::size_t>(n) * words_, 0) {
  const auto sz = static_cast<std::size_t>(n);
  for (std::size_t v = 0; v < sz; ++v) {
    std::uint64_t* r = bits_.data() + v * words_;
    for (std::size_t i = 0; i < sz / 64; ++i) r[i] = ~std::uint64_t{0};
    if (sz % 64 != 0) r[sz / 64] = (std::uint64_t{1} << (sz % 64)) - 1;
    r[v / 64] &= ~(std::uint64_t{1} << (v % 64));  // no self-loops
  }
}

void RemainingGraph::remove_edge(Vertex v, Vertex w) {
  const auto a = static_cast<std::size_t>(v);
  const auto b = static_cast<std::size_t>(w);
  bits_[a * words_ + b / 64] &= ~(std::uint64_t{1} << (b % 64));
  bits_[b * words_ + a / 64] &= ~(std::uint64_t{1} << (a % 64));
}

void RemainingGraph::remove_matching(const Matching& m) {
  assert(m.size() == static_cast<std::size_t>(n_));
  for (Vertex v = 0; v < n_; ++v) remove_edge(v, m[static_cast<std::size_t>(v)]);
}

RemainingGraph RemainingGraph::without_vertex(Vertex skip) const {
  assert(skip >= 0 && skip < n_);
  RemainingGraph out(n_ - 1);
  const std::size_t sw = static_cast<std::size_t>(skip) / 64;
  const std::uint64_t low =
      (std::uint64_t{1} << (static_cast<std::size_t>(skip) % 64)) - 1;
  for (Vertex v = 0, j = 0; v < n_; ++v) {
    if (v == skip) continue;
    // Bit b of the new row is bit b (b < skip) or b+1 (b >= skip) of the
    // old one: words below `sw` copy, the rest shift down by one with the
    // next word's low bit carried in.
    const std::uint64_t* src = row(v);
    std::uint64_t* dst = out.bits_.data() + static_cast<std::size_t>(j++) * out.words_;
    for (std::size_t i = 0; i < out.words_; ++i) {
      const std::uint64_t carry = i + 1 < words_ ? src[i + 1] << 63 : 0;
      const std::uint64_t shifted = (src[i] >> 1) | carry;
      if (i < sw) dst[i] = src[i];
      else if (i == sw) dst[i] = (src[i] & low) | (shifted & ~low);
      else dst[i] = shifted;
    }
  }
  return out;
}

// Randomized greedy matching with a local repair step: pop a random
// unmatched vertex v and match it to a random unmatched compatible vertex
// from the pool; when there is none, steal a random compatible matched
// vertex w and release w's partner back into the pool. Returns an empty
// matching on failure (repair budget exhausted or v has no compatible
// vertex at all).
//
// The pool keeps stale and duplicate entries (a vertex matched as the
// partner stays in it; a released vertex is pushed again), and candidates
// are collected in pool order, duplicates included — the draws depend on
// both, so neither may be compacted away.
Matching random_disjoint_matching(const RemainingGraph& remaining, sim::Rng& rng) {
  const Vertex n = remaining.num_vertices();
  const auto sz = static_cast<std::size_t>(n);
  const std::size_t words = remaining.words_per_row();
  Matching match(sz, kNoVertex);
  std::vector<std::uint64_t> unmatched(words, ~std::uint64_t{0});
  if (sz % 64 != 0) unmatched[words - 1] = (std::uint64_t{1} << (sz % 64)) - 1;
  const auto set_matched = [&](Vertex v) {
    const auto b = static_cast<std::size_t>(v);
    unmatched[b / 64] &= ~(std::uint64_t{1} << (b % 64));
  };
  const auto set_unmatched = [&](Vertex v) {
    const auto b = static_cast<std::size_t>(v);
    unmatched[b / 64] |= std::uint64_t{1} << (b % 64);
  };

  std::vector<Vertex> pool(sz);
  std::iota(pool.begin(), pool.end(), Vertex{0});
  rng.shuffle(std::span<Vertex>{pool});

  // Every pop removes one entry and every repair pushes at most one, so
  // the pool (and any candidate list) never exceeds n entries.
  std::vector<Vertex> candidates(sz);
  std::vector<std::uint64_t> open_bits(words);  // row_v & unmatched
  std::int64_t repair_budget = 40LL * n;
  while (!pool.empty()) {
    // Pop a random unmatched vertex (entries may be stale after repairs).
    const std::size_t vi = rng.index(pool.size());
    const Vertex v = pool[vi];
    pool[vi] = pool.back();
    pool.pop_back();
    if (match[static_cast<std::size_t>(v)] != kNoVertex) continue;
    const std::uint64_t* row = remaining.row(v);

    // Preferred: a compatible unmatched partner, in pool order. Every
    // unmatched vertex but v is in the pool, so when row_v & unmatched is
    // empty the scan could find nothing: skip straight to repair. (v's own
    // bit is clear in row_v, so a stale copy of v never qualifies.)
    std::uint64_t any_open = 0;
    for (std::size_t i = 0; i < words; ++i) {
      open_bits[i] = row[i] & unmatched[i];
      any_open |= open_bits[i];
    }
    if (any_open != 0) {
      std::size_t k = 0;
      for (const Vertex w : pool) {
        const auto b = static_cast<std::size_t>(w);
        candidates[k] = w;
        k += (open_bits[b / 64] >> (b % 64)) & 1U;
      }
      if (k > 0) {
        const Vertex w = candidates[rng.index(k)];
        match[static_cast<std::size_t>(v)] = w;
        match[static_cast<std::size_t>(w)] = v;
        set_matched(v);
        set_matched(w);
        continue;
      }
    }

    // Repair: steal a compatible matched vertex w from its partner x,
    // candidates in ascending vertex order.
    std::size_t k = 0;
    for (std::size_t i = 0; i < words; ++i) {
      for (std::uint64_t bits = row[i] & ~unmatched[i]; bits != 0; bits &= bits - 1) {
        candidates[k++] = static_cast<Vertex>(
            i * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
    if (k == 0 || --repair_budget < 0) return {};  // failure
    const Vertex w = candidates[rng.index(k)];
    const Vertex x = match[static_cast<std::size_t>(w)];
    match[static_cast<std::size_t>(v)] = w;
    match[static_cast<std::size_t>(w)] = v;
    match[static_cast<std::size_t>(x)] = kNoVertex;
    set_matched(v);
    set_unmatched(x);
    pool.push_back(x);
  }
  return match;
}

namespace {

// Random factorization of the even complete graph: identity matching plus
// n-1 random perfect matchings drawn sequentially, each avoiding all
// previously used edges. Restarts from scratch when the tail of the
// construction wedges (e.g. the penultimate 2-regular remainder has an odd
// cycle). Returns empty when the restart budget is exhausted — the caller
// decides whether to bump the seed or give up.
std::vector<Matching> random_factorization_even_once(
    Vertex n, sim::Rng& rng, const FactorizationBudget& budget,
    FactorizationStats& stats) {
  const auto sz = static_cast<std::size_t>(n);
  for (int restart = 0; restart < budget.max_restarts; ++restart) {
    if (restart > 0) ++stats.restarts;
    RemainingGraph remaining(n);
    std::vector<Matching> out;
    Matching ident(sz);
    std::iota(ident.begin(), ident.end(), Vertex{0});
    out.push_back(std::move(ident));

    bool ok = true;
    for (Vertex round = 0; round + 1 < n && ok; ++round) {
      ok = false;
      for (int retry = 0; retry < budget.matching_retries; ++retry) {
        ++stats.draws;
        Matching m = random_disjoint_matching(remaining, rng);
        if (m.empty()) {
          ++stats.failed_draws;
          continue;
        }
        remaining.remove_matching(m);
        out.push_back(std::move(m));
        ok = true;
        break;
      }
    }
    if (ok) return out;
  }
  return {};
}

// Seed-bumping wrapper: attempt 0 runs on the caller's rng (the success
// path is byte-identical to the pre-budget behavior); every subsequent
// attempt reseeds an independent stream from a value drawn off the
// caller's rng, warning loudly so the changed randomization is auditable.
std::vector<Matching> random_factorization_even(
    Vertex n, sim::Rng& rng, const FactorizationBudget& budget,
    FactorizationStats& stats) {
  auto out = random_factorization_even_once(n, rng, budget, stats);
  if (!out.empty()) return out;
  for (int bump = 0; bump < budget.seed_bumps; ++bump) {
    const std::uint64_t seed = rng.next_u64();
    std::fprintf(stderr,
                 "random_factorization: restart budget exhausted (n=%d, "
                 "%d restarts x %d retries); bumping to seed %llu "
                 "(attempt %d/%d)\n",
                 static_cast<int>(n), budget.max_restarts,
                 budget.matching_retries,
                 static_cast<unsigned long long>(seed), bump + 1,
                 budget.seed_bumps);
    sim::Rng bumped(seed);
    out = random_factorization_even_once(n, bumped, budget, stats);
    if (!out.empty()) return out;
  }
  throw std::runtime_error(
      "random_factorization: restart budget exhausted after all seed bumps");
}

}  // namespace

std::vector<Matching> random_factorization(Vertex n, sim::Rng& rng,
                                           const FactorizationBudget& budget,
                                           FactorizationStats* stats) {
  FactorizationStats local;
  FactorizationStats& counters = stats != nullptr ? *stats : local;
  if (n % 2 == 1) {
    // Factor the even N+1 graph, then strip the dummy vertex: the dummy's
    // partner becomes self-matched, and the (now trivial) identity matching
    // is dropped, leaving exactly N matchings (see circle_factorization).
    const auto big = random_factorization_even(n + 1, rng, budget, counters);
    std::vector<Matching> out;
    for (const auto& m : big) {
      bool identity = true;
      Matching small(static_cast<std::size_t>(n));
      for (Vertex v = 0; v < n; ++v) {
        const Vertex w = m[static_cast<std::size_t>(v)];
        small[static_cast<std::size_t>(v)] = (w == n) ? v : w;
        if (small[static_cast<std::size_t>(v)] != v) identity = false;
      }
      if (!identity) out.push_back(std::move(small));
    }
    rng.shuffle(std::span<Matching>{out});
    return out;
  }
  auto ms = random_factorization_even(n, rng, budget, counters);
  rng.shuffle(std::span<Matching>{ms});
  return ms;
}

std::vector<Matching> lift_double(const std::vector<Matching>& base) {
  assert(!base.empty());
  const auto n = static_cast<Vertex>(base.front().size());
  assert(n % 2 == 0 && "lift_double requires an even base factorization");
  assert(is_complete_factorization(base));
  const auto big_n = static_cast<std::size_t>(2 * n);
  std::vector<Matching> out;
  out.reserve(big_n);

  // Within-copy matchings: apply each base matching to both copies.
  // (The base identity matching lifts to the identity of the big graph.)
  for (const auto& m : base) {
    Matching lifted(big_n);
    for (Vertex v = 0; v < n; ++v) {
      const Vertex w = m[static_cast<std::size_t>(v)];
      lifted[static_cast<std::size_t>(v)] = w;
      lifted[static_cast<std::size_t>(v + n)] = w + n;
    }
    out.push_back(std::move(lifted));
  }
  // Cross-copy matchings: N cyclic shifts of K_{N,N}. Shift s matches
  // vertex i in copy 0 with vertex (i + s) mod N in copy 1.
  for (Vertex s = 0; s < n; ++s) {
    Matching lifted(big_n);
    for (Vertex i = 0; i < n; ++i) {
      const Vertex j = (i + s) % n;
      lifted[static_cast<std::size_t>(i)] = j + n;
      lifted[static_cast<std::size_t>(j + n)] = i;
    }
    out.push_back(std::move(lifted));
  }
  return out;
}

Graph union_graph(const std::vector<Matching>& ms,
                  const std::vector<std::size_t>& which) {
  assert(!ms.empty());
  Graph g(static_cast<Vertex>(ms.front().size()));
  for (const std::size_t idx : which) {
    const auto& m = ms[idx];
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const Vertex w = m[static_cast<std::size_t>(v)];
      if (v < w) g.add_edge(v, w);
    }
  }
  return g;
}

}  // namespace opera::topo
