// Reference tests for the common/simd kernel layer: every kernel is
// checked against a plain implementation written here — the classic
// O(|a|·|b|) row DP for the Myers edit-distance kernels, naive loops for
// the term-vector merges and reductions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/simd/edit_distance.h"
#include "common/simd/term_merge.h"
#include "core/mapping_problem.h"
#include "heuristics/vector_heuristics.h"
#include "relational/database.h"
#include "workloads/synthetic.h"

namespace tupelo {
namespace {

// The classic single-row Levenshtein DP, byte at a time: the oracle the
// Myers kernels are checked against.
size_t EditDistanceDp(std::string_view a, std::string_view b) {
  // Keep the shorter string in the DP row.
  if (a.size() < b.size()) std::swap(a, b);
  if (b.empty()) return a.size();

  std::vector<size_t> row(b.size() + 1);
  std::iota(row.begin(), row.end(), size_t{0});

  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diagonal = row[0];  // row[j-1] of the previous row
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t up = row[j];
      size_t substitute = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({up + 1,          // delete from a
                         row[j - 1] + 1,  // insert into a
                         substitute});
      diagonal = up;
    }
  }
  return row[b.size()];
}

// Deterministic splitmix64 stream; no std::random_device, so failures
// reproduce from the seed in the test body.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return Mix64(state_);
  }
  // In [0, bound).
  size_t Below(size_t bound) { return bound == 0 ? 0 : Next() % bound; }

 private:
  uint64_t state_;
};

// Strings drawn from the alphabet TNF encodings actually contain:
// letters, digits, the '\x1f'/'\x1e' separators of the old triple keys,
// and the multi-byte UTF-8 "⊥" null marker.
std::string RandomTnfish(Rng& rng, size_t len) {
  static constexpr std::string_view kAtoms[] = {
      "a", "b", "z", "R", "7", "\x1f", "\x1e", "⊥", "é",
  };
  std::string s;
  s.reserve(len + 2);
  while (s.size() < len) {
    s += kAtoms[rng.Below(std::size(kAtoms))];
  }
  s.resize(len);
  return s;
}

std::vector<std::pair<std::string, std::string>> AdversarialPairs() {
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"", ""},
      {"", "abc"},
      {"abc", ""},
      {"abc", "abc"},
      {"kitten", "sitting"},
      {"\x1f\x1e", "\x1e\x1f"},
      {"a\x1f b\x1e c", "a\x1e b\x1f c"},
      {"⊥⊥⊥", "⊥x⊥"},
      {"ab⊥cd", "abcd"},
      // Exactly one word, and one-past-one-word (the one-word/two-word
      // boundary).
      {std::string(64, 'a'), std::string(64, 'b')},
      {std::string(65, 'a'), std::string(64, 'a') + "b"},
      // Shared prefix/suffix around a differing core (trimming path).
      {std::string(100, 'p') + "xyz" + std::string(100, 's'),
       std::string(100, 'p') + "xq" + std::string(100, 's')},
  };
  Rng rng(0x5eed5eed5eedULL);
  const size_t lengths[] = {1, 2, 7, 63, 64, 65, 127, 128, 200,
                            513, 1024, 4096};
  for (size_t la : lengths) {
    // Symmetric-ish pair plus a strongly asymmetric one (short pattern,
    // long text — the pattern-side-selection case).
    pairs.emplace_back(RandomTnfish(rng, la),
                       RandomTnfish(rng, la + rng.Below(5)));
    pairs.emplace_back(RandomTnfish(rng, rng.Below(32)),
                       RandomTnfish(rng, la));
  }
  return pairs;
}

TEST(SimdEditDistanceTest, MatchesDpOnAdversarialPairs) {
  for (const auto& [a, b] : AdversarialPairs()) {
    const size_t expected = EditDistanceDp(a, b);
    EXPECT_EQ(simd::EditDistance(a, b), expected)
        << "|a|=" << a.size() << " |b|=" << b.size();
    EXPECT_EQ(simd::EditDistance(b, a), expected)
        << "(swapped) |a|=" << a.size() << " |b|=" << b.size();
  }
}

// `s` after `edits` random single-character substitutions, insertions
// and deletions: a text close to the pattern, where the deltas run both
// ways, unlike a random text.
std::string Mutate(Rng& rng, std::string s, size_t edits) {
  static constexpr std::string_view kBytes = "abzR7\x1f\x1e";
  for (size_t e = 0; e < edits; ++e) {
    const size_t at = rng.Below(s.size() + 1);
    const char c = kBytes[rng.Below(kBytes.size())];
    switch (rng.Below(3)) {
      case 0:
        if (at < s.size()) s[at] = c;
        break;
      case 1:
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), c);
        break;
      default:
        if (at < s.size()) s.erase(at, 1);
        break;
    }
  }
  return s;
}

// PreparedPattern runs a kernel compiled for each word count from 1 to 6
// and the generic blocked kernel above that. Pattern lengths one below,
// at and one above each word boundary cover every width, each partial
// top block and the fallback, against texts from empty to longer than
// the pattern.
TEST(SimdEditDistanceTest, PreparedPatternMatchesDpAtEveryWidth) {
  Rng rng(0x3a11);
  for (size_t k = 1; k <= 9; ++k) {
    for (size_t m : {64 * k - 1, 64 * k, 64 * k + 1}) {
      const std::string pattern = RandomTnfish(rng, m);
      const simd::PreparedPattern prepared(pattern);
      std::vector<std::string> texts;
      for (size_t n : {size_t{0}, size_t{1}, m / 2, m, m + 70}) {
        texts.push_back(RandomTnfish(rng, n));
      }
      texts.push_back(pattern);
      texts.push_back(Mutate(rng, pattern, 1));
      texts.push_back(Mutate(rng, pattern, m / 8));
      texts.push_back(pattern.substr(1) + "⊥");
      for (const std::string& text : texts) {
        EXPECT_EQ(prepared.Distance(text), EditDistanceDp(pattern, text))
            << "m=" << m << " n=" << text.size();
      }
    }
  }
}

// The adversarial pairs, then random TNF-alphabet pairs up to 600 bytes:
// half unrelated, half a pattern and a few edits of it.
TEST(SimdEditDistanceTest, PreparedPatternMatchesDp) {
  std::vector<std::pair<std::string, std::string>> pairs = AdversarialPairs();
  Rng rng(0x7e57);
  for (int i = 0; i < 400; ++i) {
    std::string pattern = RandomTnfish(rng, 1 + rng.Below(600));
    std::string text = rng.Below(2) == 0
                           ? RandomTnfish(rng, rng.Below(600))
                           : Mutate(rng, pattern, rng.Below(40));
    pairs.emplace_back(std::move(pattern), std::move(text));
  }
  for (const auto& [a, b] : pairs) {
    simd::PreparedPattern prepared(a);
    EXPECT_EQ(prepared.Distance(b), EditDistanceDp(a, b))
        << "|a|=" << a.size() << " |b|=" << b.size();
  }
}

// HashBytes64 is a seeded function of the bytes and their length: lengths
// around the 32-byte block boundary and the zero-padded tail must still
// hash a trailing NUL apart, and the seed must change every hash.
TEST(SimdHashTest, SeedAndLengthChangeTheHash) {
  Rng rng(0xa5a5ULL ^ 0x9021);
  for (size_t len = 0; len <= 70; ++len) {
    const std::string input = RandomTnfish(rng, len);
    const uint64_t h = HashBytes64(input, 42);
    EXPECT_NE(HashBytes64(input, 43), h) << "len=" << len;
    EXPECT_NE(HashBytes64(input + '\0', 42), h) << "len=" << len;
  }
  EXPECT_NE(HashBytes64("abc", 1), HashBytes64("abc", 2));
  EXPECT_NE(HashBytes64("", 1), HashBytes64(std::string(1, '\0'), 1));
}

TEST(SimdTermMergeTest, KernelsMatchNaiveLoops) {
  Rng rng(77);
  // Sorted unique key arrays with partial overlap, integer counts.
  std::vector<uint64_t> xk, yk;
  std::vector<double> xc, yc;
  uint64_t key = 0;
  for (int i = 0; i < 300; ++i) {
    key += 1 + rng.Below(3);
    const bool in_x = rng.Below(3) != 0;
    const bool in_y = !in_x || rng.Below(2) != 0;
    if (in_x) {
      xk.push_back(key);
      xc.push_back(static_cast<double>(1 + rng.Below(9)));
    }
    if (in_y) {
      yk.push_back(key);
      yc.push_back(static_cast<double>(1 + rng.Below(9)));
    }
  }
  // Prefixes of x from empty to full, short spans and long ones.
  for (size_t nx : {size_t{0}, size_t{1}, size_t{2}, size_t{5}, size_t{31},
                    size_t{32}, size_t{33}, size_t{100}, xk.size()}) {
    double sum = 0.0;
    double sum_sq = 0.0;
    double dot = 0.0;
    double min_sum = 0.0;
    for (size_t i = 0; i < nx; ++i) {
      sum += xc[i];
      sum_sq += xc[i] * xc[i];
      for (size_t j = 0; j < yk.size(); ++j) {
        if (xk[i] == yk[j]) {
          dot += xc[i] * yc[j];
          min_sum += std::min(xc[i], yc[j]);
        }
      }
    }
    EXPECT_EQ(simd::CountSum(xc.data(), nx), sum) << "nx=" << nx;
    EXPECT_EQ(simd::CountSumSquares(xc.data(), nx), sum_sq) << "nx=" << nx;
    EXPECT_EQ(simd::DotMerge(xk.data(), xc.data(), nx, yk.data(), yc.data(),
                             yk.size()),
              dot)
        << "nx=" << nx;
    EXPECT_EQ(simd::MinSumMerge(xk.data(), xc.data(), nx, yk.data(),
                                yc.data(), yk.size()),
              min_sum)
        << "nx=" << nx;
  }
  for (uint64_t probe = 0; probe <= key + 1; ++probe) {
    size_t i = 0;
    while (i < xk.size() && xk[i] < probe) ++i;
    EXPECT_EQ(simd::LowerBoundKey(xk.data(), xk.size(), probe), i)
        << "probe=" << probe;
  }
}

// The batch estimator must return exactly what per-state EstimateCost
// returns, including for duplicate pointers within one batch.
TEST(EstimateBatchTest, MatchesSequentialEstimates) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(3);
  MappingProblem problem(
      pair.source, pair.target,
      std::make_unique<LevenshteinHeuristic>(pair.target, 32.0));

  const auto successors = problem.Expand(pair.source);
  ASSERT_GT(successors.size(), 1u);
  std::vector<const Database*> states;
  states.push_back(&pair.source);
  for (const auto& s : successors) states.push_back(&s.state);
  states.push_back(&pair.source);  // intra-batch duplicate

  std::vector<int> expected(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    expected[i] = problem.EstimateCost(*states[i]);
  }

  std::vector<int> batched(states.size());
  problem.EstimateCostBatch(std::span<const Database* const>(states),
                            std::span<int>(batched));
  EXPECT_EQ(batched, expected);

  // The batch path keeps no memo: a second batch evaluates every state
  // again and must return the same answers.
  std::vector<int> again(states.size());
  problem.EstimateCostBatch(std::span<const Database* const>(states),
                            std::span<int>(again));
  EXPECT_EQ(again, expected);
}

// TSan section: the kernels called from several threads at once, one
// shared PreparedPattern among them. The workers recompute known answers,
// so a race would also surface as a value mismatch.
TEST(SimdConcurrencyTest, ConcurrentKernelsAreRaceFree) {
  Rng seed_rng(11);
  const std::string a = RandomTnfish(seed_rng, 700);
  const std::string b = RandomTnfish(seed_rng, 650);
  const size_t expected_dist = EditDistanceDp(a, b);
  const uint64_t expected_hash = HashBytes64(a, 9);
  const simd::PreparedPattern prepared(a);

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        ASSERT_EQ(simd::EditDistance(a, b), expected_dist);
        ASSERT_EQ(prepared.Distance(b), expected_dist);
        ASSERT_EQ(HashBytes64(a, 9), expected_hash);
        (void)t;
      }
    });
  }
  for (std::thread& w : workers) w.join();
}

}  // namespace
}  // namespace tupelo
