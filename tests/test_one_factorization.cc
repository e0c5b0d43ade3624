#include "topo/one_factorization.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/checkpoint.h"
#include "sim/rng.h"

namespace opera::topo {
namespace {

// Digest of random_factorization(n, Rng(seed)) plus the rng cursor after
// it: pins both the matchings and the exact number of draws the sampler
// made, failed draws and restarts included.
std::uint64_t factorization_digest(Vertex n, std::uint64_t seed) {
  sim::Rng rng(seed);
  const auto ms = random_factorization(n, rng);
  sim::Fingerprint fp;
  fp.mix_u64(ms.size());
  for (const auto& m : ms) {
    for (const Vertex w : m) fp.mix_i64(w);
  }
  rng.fingerprint(fp);
  return fp.digest();
}

TEST(OneFactorization, SmallEvenComplete) {
  for (const Vertex n : {2, 4, 6, 8}) {
    const auto ms = circle_factorization(n);
    EXPECT_EQ(ms.size(), static_cast<std::size_t>(n)) << "n=" << n;
    EXPECT_TRUE(is_complete_factorization(ms)) << "n=" << n;
  }
}

TEST(OneFactorization, OddNComplete) {
  for (const Vertex n : {3, 5, 7, 9, 27}) {
    const auto ms = circle_factorization(n);
    EXPECT_EQ(ms.size(), static_cast<std::size_t>(n)) << "n=" << n;
    EXPECT_TRUE(is_complete_factorization(ms)) << "n=" << n;
  }
}

TEST(OneFactorization, PaperScale108) {
  const auto ms = circle_factorization(108);
  EXPECT_EQ(ms.size(), 108u);
  EXPECT_TRUE(is_complete_factorization(ms));
}

TEST(OneFactorization, EvenMatchingsArePerfectExceptIdentity) {
  const auto ms = circle_factorization(10);
  int identity_count = 0;
  for (const auto& m : ms) {
    int self_matched = 0;
    for (Vertex v = 0; v < 10; ++v) {
      if (m[static_cast<std::size_t>(v)] == v) ++self_matched;
    }
    if (self_matched == 10) ++identity_count;
    else EXPECT_EQ(self_matched, 0);  // perfect matching
  }
  EXPECT_EQ(identity_count, 1);
}

TEST(OneFactorization, OddMatchingsHaveOneSelfMatch) {
  const auto ms = circle_factorization(9);
  for (const auto& m : ms) {
    int self_matched = 0;
    for (Vertex v = 0; v < 9; ++v) {
      if (m[static_cast<std::size_t>(v)] == v) ++self_matched;
    }
    EXPECT_EQ(self_matched, 1);
  }
}

TEST(OneFactorization, RandomFactorizationIsComplete) {
  sim::Rng rng(123);
  for (const Vertex n : {6, 16, 54}) {
    const auto ms = random_factorization(n, rng);
    EXPECT_EQ(ms.size(), static_cast<std::size_t>(n));
    EXPECT_TRUE(is_complete_factorization(ms)) << "n=" << n;
  }
}

TEST(OneFactorization, RandomSeedsGiveDifferentFactorizations) {
  sim::Rng rng1(1);
  sim::Rng rng2(2);
  const auto a = random_factorization(16, rng1);
  const auto b = random_factorization(16, rng2);
  EXPECT_NE(a, b);
}

TEST(OneFactorization, LiftDoubleProducesComplete) {
  const auto base = circle_factorization(8);
  const auto lifted = lift_double(base);
  EXPECT_EQ(lifted.size(), 16u);
  EXPECT_TRUE(is_complete_factorization(lifted));
}

TEST(OneFactorization, LiftTwiceReachesPaperScale) {
  // 27 is odd; use 54 = 2*27 via direct construction, then lift to 108 —
  // the paper's graph-lifting route to large factorizations.
  const auto base = circle_factorization(54);
  ASSERT_TRUE(is_complete_factorization(base));
  const auto lifted = lift_double(base);
  EXPECT_EQ(lifted.size(), 108u);
  EXPECT_TRUE(is_complete_factorization(lifted));
}

TEST(OneFactorization, UnionGraphOfAllMatchingsIsComplete) {
  const auto ms = circle_factorization(12);
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < ms.size(); ++i) all.push_back(i);
  const Graph g = union_graph(ms, all);
  EXPECT_EQ(g.num_edges(), 12u * 11u / 2u);
}

TEST(OneFactorization, ValidMatchingRejectsNonInvolution) {
  Matching m{1, 2, 0};  // a 3-cycle, not an involution
  EXPECT_FALSE(is_valid_matching(m));
  Matching ok{1, 0, 2};
  EXPECT_TRUE(is_valid_matching(ok));
}

TEST(OneFactorization, IncompleteFactorizationDetected) {
  auto ms = circle_factorization(6);
  ms.pop_back();  // drop one matching: coverage hole
  EXPECT_FALSE(is_complete_factorization(ms));
}

TEST(OneFactorization, SuccessPathIdenticalWithExplicitDefaultBudget) {
  // The budget parameter must not perturb the no-bump path: same seed,
  // default vs spelled-out default budget, byte-identical factorization.
  sim::Rng rng1(123);
  sim::Rng rng2(123);
  const auto a = random_factorization(16, rng1);
  const auto b = random_factorization(16, rng2, FactorizationBudget{});
  EXPECT_EQ(a, b);
}

TEST(OneFactorization, SeedBumpRecoversFromExhaustedBudget) {
  // Budget of one restart with one matching retry per round wedges on
  // attempt 0 for this seed (probed offline); the generator must then warn
  // on stderr with the bumped seed and still produce a complete
  // factorization instead of throwing.
  const FactorizationBudget tight{1, 1, 64};
  sim::Rng rng(4);
  testing::internal::CaptureStderr();
  const auto ms = random_factorization(54, rng, tight);
  const std::string warnings = testing::internal::GetCapturedStderr();
  EXPECT_NE(warnings.find("bumping to seed"), std::string::npos) << warnings;
  EXPECT_EQ(ms.size(), 54u);
  EXPECT_TRUE(is_complete_factorization(ms));
}

TEST(OneFactorization, ThrowsOnlyAfterAllSeedBumpsFail) {
  // max_restarts = 0 makes every attempt fail deterministically, so the
  // generator must burn exactly seed_bumps bumps (each warned) and then
  // throw — the pre-retry behavior of throwing on first exhaustion is gone.
  const FactorizationBudget hopeless{0, 1, 3};
  sim::Rng rng(7);
  testing::internal::CaptureStderr();
  EXPECT_THROW(random_factorization(16, rng, hopeless), std::runtime_error);
  const std::string warnings = testing::internal::GetCapturedStderr();
  std::size_t bumps = 0;
  for (std::size_t pos = warnings.find("bumping to seed");
       pos != std::string::npos;
       pos = warnings.find("bumping to seed", pos + 1)) {
    ++bumps;
  }
  EXPECT_EQ(bumps, 3u) << warnings;
}

TEST(OneFactorization, GoldenDigestsPinSamplerOutput) {
  // Recorded from the byte-map sampler; any change to the candidate order
  // or to the rng draws (inside failed draws and restarts too) moves these.
  // n=432 seed 1 is the k=24 build, which restarts a dozen times.
  struct Pin {
    Vertex n;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {15, 1, 0xa0601e00d9fa9736ULL},  {15, 2, 0x92d8541c8f64414aULL},
      {15, 3, 0xb87dff8272671f73ULL},  {16, 1, 0x100741c5989eea71ULL},
      {16, 2, 0x749da9b468edee3cULL},  {16, 3, 0xa4c713fb1ebf9736ULL},
      {108, 1, 0xc260a6f640790c02ULL}, {108, 2, 0x088508ec6787995bULL},
      {108, 3, 0x9d6dfa43f7df94b7ULL},
      {432, 1, 0x77c3ccc660a6f632ULL}, {432, 2, 0x55a99f63638c0f5fULL},
  };
  for (const auto& p : pins) {
    EXPECT_EQ(factorization_digest(p.n, p.seed), p.digest)
        << "n=" << p.n << " seed=" << p.seed << std::hex << " got 0x"
        << factorization_digest(p.n, p.seed);
  }
}

// The byte-map sampler random_disjoint_matching replaced, kept here as the
// parity oracle: `used` is a row-major n*n byte map of unavailable edges
// (diagonal included). The bit-row sampler must match it draw for draw.
Matching reference_disjoint_matching(Vertex n, const std::vector<std::uint8_t>& used,
                                     sim::Rng& rng) {
  const auto sz = static_cast<std::size_t>(n);
  Matching match(sz, kNoVertex);
  std::vector<Vertex> pool;
  for (Vertex v = 0; v < n; ++v) pool.push_back(v);
  rng.shuffle(std::span<Vertex>{pool});
  std::int64_t repair_budget = 40LL * n;
  std::vector<Vertex> candidates;
  while (!pool.empty()) {
    const std::size_t vi = rng.index(pool.size());
    const Vertex v = pool[vi];
    pool[vi] = pool.back();
    pool.pop_back();
    if (match[static_cast<std::size_t>(v)] != kNoVertex) continue;
    const std::uint8_t* v_used = used.data() + static_cast<std::size_t>(v) * sz;
    candidates.clear();
    for (const Vertex w : pool) {
      if (match[static_cast<std::size_t>(w)] == kNoVertex &&
          v_used[static_cast<std::size_t>(w)] == 0) {
        candidates.push_back(w);
      }
    }
    if (!candidates.empty()) {
      const Vertex w = candidates[rng.index(candidates.size())];
      match[static_cast<std::size_t>(v)] = w;
      match[static_cast<std::size_t>(w)] = v;
      continue;
    }
    for (Vertex w = 0; w < n; ++w) {
      if (match[static_cast<std::size_t>(w)] != kNoVertex &&
          v_used[static_cast<std::size_t>(w)] == 0) {
        candidates.push_back(w);
      }
    }
    if (candidates.empty() || --repair_budget < 0) return {};
    const Vertex w = candidates[rng.index(candidates.size())];
    const Vertex x = match[static_cast<std::size_t>(w)];
    match[static_cast<std::size_t>(v)] = w;
    match[static_cast<std::size_t>(w)] = v;
    match[static_cast<std::size_t>(x)] = kNoVertex;
    pool.push_back(x);
  }
  return match;
}

std::vector<std::uint8_t> used_map(const RemainingGraph& g) {
  const auto n = g.num_vertices();
  const auto sz = static_cast<std::size_t>(n);
  std::vector<std::uint8_t> used(sz * sz);
  for (Vertex v = 0; v < n; ++v) {
    for (Vertex w = 0; w < n; ++w) {
      used[static_cast<std::size_t>(v * n + w)] = g.has_edge(v, w) ? 0 : 1;
    }
  }
  return used;
}

// Remainder holding exactly the edges of disjoint cycles over a random
// vertex order: the tail a factorization wedges on. `lengths` must sum to
// n, each at least 3.
RemainingGraph cycles_remainder(Vertex n, const std::vector<Vertex>& lengths,
                                sim::Rng& rng) {
  std::vector<Vertex> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Vertex{0});
  rng.shuffle(std::span<Vertex>{order});
  std::vector<std::uint8_t> keep(order.size() * order.size(), 0);
  std::size_t at = 0;
  for (const Vertex len : lengths) {
    for (Vertex i = 0; i < len; ++i) {
      const auto a = static_cast<std::size_t>(order[at + static_cast<std::size_t>(i)]);
      const auto b = static_cast<std::size_t>(
          order[at + static_cast<std::size_t>((i + 1) % len)]);
      keep[a * order.size() + b] = keep[b * order.size() + a] = 1;
    }
    at += static_cast<std::size_t>(len);
  }
  RemainingGraph g(n);
  for (Vertex v = 0; v < n; ++v) {
    for (Vertex w = v + 1; w < n; ++w) {
      if (keep[static_cast<std::size_t>(v * n + w)] == 0) g.remove_edge(v, w);
    }
  }
  return g;
}

// Both samplers on the same remainder and seed: same matching (or both
// fail) and the same rng cursor afterwards.
void expect_sampler_parity(const RemainingGraph& g, std::uint64_t seed,
                           const std::string& what) {
  sim::Rng ref_rng(seed);
  sim::Rng rng(seed);
  const Matching ref =
      reference_disjoint_matching(g.num_vertices(), used_map(g), ref_rng);
  const Matching got = random_disjoint_matching(g, rng);
  EXPECT_EQ(got, ref) << what;
  sim::Fingerprint ref_fp;
  sim::Fingerprint fp;
  ref_rng.fingerprint(ref_fp);
  rng.fingerprint(fp);
  EXPECT_EQ(fp.digest(), ref_fp.digest()) << what << ": rng cursor diverged";
}

TEST(OneFactorization, SamplerMatchesByteMapReference) {
  sim::Rng setup(2024);
  int failures = 0;
  for (const Vertex n : {6, 64, 66, 108, 128, 130, 200}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const std::string tag = "n=" + std::to_string(n) + " seed=" + std::to_string(seed);
      // Mid-factorization: a random subset of circle-factorization rounds
      // already used.
      {
        RemainingGraph g(n);
        for (const auto& m : circle_factorization(n)) {
          if (setup.bernoulli(0.6)) g.remove_matching(m);
        }
        expect_sampler_parity(g, seed, tag + " partial-rounds");
      }
      // Arbitrary symmetric remainder, sparse to dense.
      for (const double p : {0.3, 0.8, 0.95}) {
        RemainingGraph g(n);
        for (Vertex v = 0; v < n; ++v) {
          for (Vertex w = v + 1; w < n; ++w) {
            if (setup.bernoulli(p)) g.remove_edge(v, w);
          }
        }
        expect_sampler_parity(g, seed, tag + " random p=" + std::to_string(p));
      }
      // Failed tail: a 2-regular remainder with odd cycles (no perfect
      // matching, so every draw burns its whole repair budget) and an
      // all-even one (which usually succeeds).
      const Vertex odd_first = n % 2 == 0 ? 3 : 4;
      const Vertex rest = n - odd_first - 3;
      if (rest >= 3) {
        const RemainingGraph wedged = cycles_remainder(n, {odd_first, 3, rest}, setup);
        sim::Rng probe(seed);
        if (random_disjoint_matching(wedged, probe).empty()) ++failures;
        expect_sampler_parity(wedged, seed, tag + " odd-cycles");
      }
      if (n % 4 == 2 && n > 6) {
        expect_sampler_parity(cycles_remainder(n, {4, n - 4}, setup), seed,
                              tag + " even-cycles");
      } else if (n % 4 == 0) {
        expect_sampler_parity(cycles_remainder(n, {n / 2, n / 2}, setup), seed,
                              tag + " even-cycles");
      }
    }
  }
  EXPECT_GT(failures, 0) << "no case exercised the failed-draw path";
}

TEST(OneFactorization, RemainingGraphWithoutVertexRenumbers) {
  sim::Rng rng(31);
  for (const Vertex n : {5, 64, 65, 129, 200}) {
    RemainingGraph g(n);
    for (Vertex v = 0; v < n; ++v) {
      for (Vertex w = v + 1; w < n; ++w) {
        if (rng.bernoulli(0.5)) g.remove_edge(v, w);
      }
    }
    for (const Vertex skip : {Vertex{0}, Vertex{63}, Vertex{64}, n / 2, n - 1}) {
      if (skip >= n) continue;
      const RemainingGraph small = g.without_vertex(skip);
      ASSERT_EQ(small.num_vertices(), n - 1);
      const auto full = [skip](Vertex v) { return v < skip ? v : v + 1; };
      for (Vertex a = 0; a + 1 < n; ++a) {
        for (Vertex b = 0; b + 1 < n; ++b) {
          ASSERT_EQ(small.has_edge(a, b), g.has_edge(full(a), full(b)))
              << "n=" << n << " skip=" << skip << " a=" << a << " b=" << b;
        }
        // Bits past the last vertex stay clear.
        const std::size_t words = small.words_per_row();
        const auto tail_bits = static_cast<std::size_t>(n - 1) % 64;
        if (tail_bits != 0) {
          EXPECT_EQ(small.row(a)[words - 1] >> tail_bits, 0U);
        }
      }
    }
  }
}

TEST(OneFactorization, StatsCountRestartsAndFailedDraws) {
  // n=108 seed 3 (the paper testbed's factorization) wedges twice: each
  // restart follows a round whose 30 draws all failed.
  FactorizationStats stats;
  sim::Rng rng(3);
  const auto ms = random_factorization(108, rng, {}, &stats);
  EXPECT_TRUE(is_complete_factorization(ms));
  EXPECT_EQ(stats.restarts, 2);
  EXPECT_EQ(stats.failed_draws, 2 * FactorizationBudget{}.matching_retries);
  // 107 successful rounds in the kept attempt, 105 in each wedged one.
  EXPECT_EQ(stats.draws, 107 + 2 * 105 + stats.failed_draws);
  // Collecting the counters does not perturb the draws.
  sim::Rng plain(3);
  EXPECT_EQ(random_factorization(108, plain), ms);
}

// Property sweep: completeness holds across a range of sizes.
class FactorizationSweep : public ::testing::TestWithParam<Vertex> {};

TEST_P(FactorizationSweep, CompleteAndValid) {
  const Vertex n = GetParam();
  sim::Rng rng(static_cast<std::uint64_t>(n) * 7919);
  const auto ms = random_factorization(n, rng);
  ASSERT_EQ(ms.size(), static_cast<std::size_t>(n));
  for (const auto& m : ms) EXPECT_TRUE(is_valid_matching(m));
  EXPECT_TRUE(is_complete_factorization(ms));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FactorizationSweep,
                         ::testing::Values(2, 3, 4, 5, 8, 12, 16, 21, 32, 48,
                                           64, 81, 100, 108, 128));

}  // namespace
}  // namespace opera::topo
