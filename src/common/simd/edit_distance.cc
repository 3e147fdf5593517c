#include "common/simd/edit_distance.h"

#include <algorithm>

namespace tupelo::simd {
namespace {

// One 64-row block of one Myers 1999 column, in its global-alignment
// form (Hyyrö's formulation): pattern rows live in the 64-bit vertical
// delta vectors pv/mv, one column per text character. `hp`/`hm` (each 0
// or 1, never both) carry the +1/-1 horizontal delta into the block's
// lowest row from the block below; for the bottom block that is the
// D[0][j] = j boundary, a +1 into row 0 of every column, which is what
// turns the approximate-match recurrence into plain edit distance.
// Returns the block's unshifted horizontal deltas: bit r of `ph` (`mh`)
// is set when row r's delta is +1 (-1). The two never share a bit, so
// callers read a score step or a carry out branch-free as
// ph_bit - mh_bit.
struct HDelta {
  uint64_t ph;
  uint64_t mh;
};
inline HDelta AdvanceBlock(uint64_t eq, uint64_t hp, uint64_t hm,
                           uint64_t& pv, uint64_t& mv) {
  const uint64_t xv = eq | mv;
  eq |= hm;
  const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
  const uint64_t ph = mv | ~(xh | pv);
  const uint64_t mh = pv & xh;
  const uint64_t ph_in = (ph << 1) | hp;
  const uint64_t mh_in = (mh << 1) | hm;
  pv = mh_in | ~(xv | ph_in);
  mv = ph_in & xv;
  return {ph, mh};
}

// Myers for a pattern of exactly W words (64(W-1) < m <= 64W): blocks
// run low to high per column, each handing its top row's delta up as
// the next block's carry. W is a compile-time constant, so the block
// loop unrolls and the deltas live in registers. The score is tracked
// at the true last row's bit, (m-1) % 64 of the top block; bits above
// it in a partial top block are garbage but harmless, since the
// addition and the shifts only carry upward and the top block's carry
// out is never used. peq[c * W + b] is the match mask of rows
// [64b, 64b+63] for byte c.
template <size_t W>
size_t MyersFixed(size_t m, const uint64_t* peq, std::string_view text) {
  uint64_t pv[W];
  uint64_t mv[W];
  std::fill(pv, pv + W, ~uint64_t{0});
  std::fill(mv, mv + W, uint64_t{0});
  size_t score = m;
  const uint64_t last = uint64_t{1} << ((m - 1) % 64);
  for (unsigned char c : text) {
    const uint64_t* eq_col = peq + static_cast<size_t>(c) * W;
    uint64_t hp = 1;
    uint64_t hm = 0;
#pragma GCC unroll 6
    for (size_t b = 0; b < W; ++b) {
      const HDelta h = AdvanceBlock(eq_col[b], hp, hm, pv[b], mv[b]);
      if (b == W - 1) {
        score += (h.ph & last) != 0;
        score -= (h.mh & last) != 0;
      }
      hp = h.ph >> 63;
      hm = h.mh >> 63;
    }
  }
  return score;
}

// The same recurrence for any block count, with the deltas kept in
// memory: the fallback for patterns longer than the widest MyersFixed
// and for the unprepared EditDistance.
size_t MyersBlocked(size_t m, size_t blocks, const uint64_t* peq,
                    std::string_view text) {
  std::vector<uint64_t> pv(blocks, ~uint64_t{0});
  std::vector<uint64_t> mv(blocks, 0);
  size_t score = m;
  const uint64_t last = uint64_t{1} << ((m - 1) % 64);
  for (unsigned char c : text) {
    const uint64_t* eq_col = peq + static_cast<size_t>(c) * blocks;
    uint64_t hp = 1;
    uint64_t hm = 0;
    for (size_t b = 0; b < blocks; ++b) {
      const HDelta h = AdvanceBlock(eq_col[b], hp, hm, pv[b], mv[b]);
      if (b == blocks - 1) {
        score += (h.ph & last) != 0;
        score -= (h.mh & last) != 0;
      }
      hp = h.ph >> 63;
      hm = h.mh >> 63;
    }
  }
  return score;
}

// Fills peq[c * blocks + b] (zeroed by the caller, 256 * blocks words)
// with the match mask of pattern rows [64b, 64b+63] for byte c.
void BuildPeq(std::string_view pattern, size_t blocks, uint64_t* peq) {
  for (size_t i = 0; i < pattern.size(); ++i) {
    peq[static_cast<size_t>(static_cast<unsigned char>(pattern[i])) * blocks +
        i / 64] |= uint64_t{1} << (i % 64);
  }
}

size_t CommonPrefix(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

size_t CommonSuffix(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[a.size() - 1 - i] == b[b.size() - 1 - i]) ++i;
  return i;
}

// Myers over already-trimmed strings. The shorter string is the pattern
// when it fits one word; otherwise whichever side minimizes work
// (ceil(|pattern|/64) blocks x |text| columns — rounding to whole words
// can favor either side).
size_t MyersDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return b.size();
  if (a.size() <= 64) {
    uint64_t peq[256] = {};
    BuildPeq(a, 1, peq);
    return MyersFixed<1>(a.size(), peq, b);
  }
  const size_t blocks_a = (a.size() + 63) / 64;
  const size_t blocks_b = (b.size() + 63) / 64;
  std::string_view pattern = blocks_b * a.size() <= blocks_a * b.size() ? b : a;
  std::string_view text = pattern.data() == b.data() ? a : b;
  const size_t blocks = (pattern.size() + 63) / 64;
  std::vector<uint64_t> peq(blocks * 256, 0);
  BuildPeq(pattern, blocks, peq.data());
  return MyersBlocked(pattern.size(), blocks, peq.data(), text);
}

}  // namespace

size_t EditDistance(std::string_view a, std::string_view b) {
  // Common prefix/suffix contribute no edits; trimming them shrinks the
  // DP without changing the distance.
  const size_t prefix = CommonPrefix(a, b);
  a.remove_prefix(prefix);
  b.remove_prefix(prefix);
  const size_t suffix = CommonSuffix(a, b);
  a.remove_suffix(suffix);
  b.remove_suffix(suffix);
  return MyersDistance(a, b);
}

PreparedPattern::PreparedPattern(std::string pattern)
    : pattern_(std::move(pattern)),
      blocks_((pattern_.size() + 63) / 64),
      peq_(blocks_ * 256, 0) {
  BuildPeq(pattern_, blocks_, peq_.data());
}

size_t PreparedPattern::Distance(std::string_view text) const {
  const size_t m = pattern_.size();
  if (m == 0) return text.size();
  if (text.empty()) return m;
  const uint64_t* peq = peq_.data();
  switch (blocks_) {
    case 1: return MyersFixed<1>(m, peq, text);
    case 2: return MyersFixed<2>(m, peq, text);
    case 3: return MyersFixed<3>(m, peq, text);
    case 4: return MyersFixed<4>(m, peq, text);
    case 5: return MyersFixed<5>(m, peq, text);
    case 6: return MyersFixed<6>(m, peq, text);
    default: return MyersBlocked(m, blocks_, peq, text);
  }
}

}  // namespace tupelo::simd
