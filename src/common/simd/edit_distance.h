#ifndef TUPELO_COMMON_SIMD_EDIT_DISTANCE_H_
#define TUPELO_COMMON_SIMD_EDIT_DISTANCE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tupelo::simd {

// Levenshtein distance: common prefix/suffix trimming followed by Myers
// bit-parallel DP — single-word when the shorter string fits 64
// characters, blocked (Hyyrö's algorithm, 64 pattern rows per word with
// ±1 carries between blocks) otherwise. tests/simd_test.cc checks it
// against the classic O(|a|·|b|) row DP.
size_t EditDistance(std::string_view a, std::string_view b);

// A pattern fixed across many distance calls — the shape of the
// Levenshtein heuristic, where the target TNF string never changes and
// every state string is compared against it. Precomputes the per-block
// match masks (Peq) once; Distance() then runs Myers directly, skipping
// the per-call table build. Patterns of up to 6 words (384 bytes, the
// longest TNF targets of the paper's workloads) run a kernel compiled for
// their exact word count, which keeps the vertical deltas in registers
// and allocates nothing; longer ones fall back to the blocked kernel
// EditDistance uses.
class PreparedPattern {
 public:
  explicit PreparedPattern(std::string pattern);

  const std::string& pattern() const { return pattern_; }

  size_t Distance(std::string_view text) const;

 private:
  std::string pattern_;
  size_t blocks_ = 0;
  // peq_[c * blocks_ + b]: match mask of pattern rows [64b, 64b+63] for
  // byte value c.
  std::vector<uint64_t> peq_;
};

}  // namespace tupelo::simd

#endif  // TUPELO_COMMON_SIMD_EDIT_DISTANCE_H_
