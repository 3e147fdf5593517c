#ifndef TUPELO_HEURISTICS_SET_BASED_H_
#define TUPELO_HEURISTICS_SET_BASED_H_

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "heuristics/heuristic.h"

namespace tupelo {

// The target's distinct symbols, numbered once, with the TNF columns each
// sits in: relation names (πREL), attribute names (πATT) and non-null data
// values (πVALUE). A symbol gets one id even when it sits in several
// columns, so a column of one database and a column of another intersect
// exactly on ids.
//
// h1, h2 and h3 only ask which of the *target's* symbols a state holds,
// and in which column, so a state is summarized as one bitset per column
// over the target's ids (Symbols): symbols the target lacks cannot change
// any of the three counts. Immutable after construction, so concurrent
// readers need no lock.
class TargetSymbolIndex {
 public:
  enum Column { kRel = 0, kAtt = 1, kValue = 2 };

  // Which target symbols one database holds per column: bit i of column c
  // is set when symbol i occurs in that database's column c. Built by
  // Collect and read by MissingCount/MisplacedCount of the same index.
  class Symbols {
   private:
    friend class TargetSymbolIndex;
    Symbols() = default;
    explicit Symbols(size_t stride)
        : stride_(stride), words_(kColumns * stride) {}
    const uint64_t* column(Column c) const {
      return words_.data() + c * stride_;
    }
    uint64_t* mutable_column(Column c) { return words_.data() + c * stride_; }

    size_t stride_ = 0;
    std::vector<uint64_t> words_;
  };

  explicit TargetSymbolIndex(const Database& target);

  // The target's symbols in column `c`, in std::string order.
  const std::vector<std::string>& symbols(Column c) const {
    return symbols_[c];
  }

  // True when `symbol` sits in the target's column `c`.
  bool Contains(Column c, const std::string& symbol) const;

  // The target symbols `db` holds, one hash lookup per symbol occurrence.
  Symbols Collect(const Database& db) const;

  // True when some target attribute name is no attribute of `db`. Reads
  // only `db`'s attribute names.
  bool AnyAttributeMissing(const Database& db) const;

  // Σ_c |π_c(t) − π_c(x)|: three popcounts of t & ~x per word.
  int MissingCount(const Symbols& x) const;

  // Σ_{c≠d} |π_c(t) ∩ π_d(x)|: six popcounts of t & x per word.
  int MisplacedCount(const Symbols& x) const;

 private:
  static constexpr int kColumns = 3;

  // Sets the bit of `symbol` in `column` when the target has it.
  void Mark(const std::string& symbol, uint64_t* column) const;

  std::unordered_map<std::string, uint32_t> ids_;
  size_t stride_ = 0;  // 64-bit words per column
  Symbols target_;
  std::array<std::vector<std::string>, kColumns> symbols_;
};

// h0(x) = 0: the blind/brute-force baseline used for comparison in §5.
class BlindHeuristic : public Heuristic {
 public:
  int Estimate(const Database&) const override { return 0; }
  std::string_view name() const override { return "h0"; }
};

// h1(x): symbols of the target missing from x, per TNF column:
//   |πREL(t)−πREL(x)| + |πATT(t)−πATT(x)| + |πVALUE(t)−πVALUE(x)|.
class H1Heuristic : public Heuristic {
 public:
  explicit H1Heuristic(const Database& target) : index_(target) {}
  int Estimate(const Database& state) const override;
  std::string_view name() const override { return "h1"; }

 private:
  TargetSymbolIndex index_;
};

// h2(x): minimum promotions/demotions — symbols sitting in the wrong TNF
// column: the six pairwise intersections |πREL(t) ∩ πATT(x)| + ... .
class H2Heuristic : public Heuristic {
 public:
  explicit H2Heuristic(const Database& target) : index_(target) {}
  int Estimate(const Database& state) const override;
  std::string_view name() const override { return "h2"; }

 private:
  TargetSymbolIndex index_;
};

// Extension beyond the paper (§7 asks for a heuristic measuring "both
// content and structure"): like h1, but attributes and values are counted
// *jointly*. A target attribute that carries data is only credited when
// some state column of that name holds one of its target values — so a
// rename that creates the right column name with the wrong data (the trap
// that stalls h1 under IDA* on wide schemas) earns nothing.
//
//   hP(x) = |πREL(t) − πREL(x)|
//         + |π(ATT,VALUE)(t) − π(ATT,VALUE)(x)|   (non-null pairs)
//         + |πATT(t') − πATT(x)|                  (t' = value-less attrs)
class ColumnPairsHeuristic : public Heuristic {
 public:
  explicit ColumnPairsHeuristic(const Database& target);
  int Estimate(const Database& state) const override;
  std::string_view name() const override { return "pairs"; }

 private:
  std::set<std::string> target_rels_;
  // "att\x1fvalue" join keys for non-null target cells.
  std::set<std::string> target_pairs_;
  // Target attributes with no non-null values anywhere.
  std::set<std::string> target_bare_atts_;
};

// h3(x) = max(h1(x), h2(x)), from one Collect of x.
class H3Heuristic : public Heuristic {
 public:
  explicit H3Heuristic(const Database& target) : index_(target) {}
  int Estimate(const Database& state) const override;
  std::string_view name() const override { return "h3"; }

 private:
  TargetSymbolIndex index_;
};

}  // namespace tupelo

#endif  // TUPELO_HEURISTICS_SET_BASED_H_
