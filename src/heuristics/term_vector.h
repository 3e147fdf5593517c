#ifndef TUPELO_HEURISTICS_TERM_VECTOR_H_
#define TUPELO_HEURISTICS_TERM_VECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/database.h"

namespace tupelo {

// The "databases as term vectors" view of §3: a database in TNF with rows
// (k_i, r_i, a_i, v_i) becomes a vector counting occurrences of each
// (REL, ATT, VALUE) triple. The paper's vector ranges over all n³ triples
// of tokens; we store only the nonzero coordinates, which yields
// identical distances.
//
// Coordinates are identified by a 64-bit HashBytes64 chain over the
// triple (relation → attribute → value), not by the triple's string: a
// flat sorted (key, count) pair of arrays replaces the former
// std::map<std::string, double>, so distance computations become linear
// merges over contiguous memory (common/simd/term_merge.h) and building
// one stops allocating a key string per cell.
// Two distinct triples hashing to one key would merge their counts; at
// ~2^-64 per pair that is far below any practical vector size, and a
// collision only perturbs a heuristic estimate, never correctness.
class TermVector {
 public:
  TermVector() = default;

  static TermVector FromDatabase(const Database& db);

  // Number of nonzero coordinates.
  size_t nonzeros() const { return keys_.size(); }

  // L2 norm.
  double Norm() const;

  // Sorted unique coordinate keys and their parallel occurrence counts.
  const std::vector<uint64_t>& keys() const { return keys_; }
  const std::vector<double>& counts() const { return counts_; }

  // √Σ(x_i − y_i)².
  static double EuclideanDistance(const TermVector& x, const TermVector& y);

  // Distance between the L2-normalized vectors; zero vectors normalize to
  // zero (distance to a nonzero unit vector is then 1).
  static double NormalizedEuclideanDistance(const TermVector& x,
                                            const TermVector& y);

  // Σx_i·y_i / (|x||y|); 0 if either vector is zero.
  static double CosineSimilarity(const TermVector& x, const TermVector& y);

  // Multiset Jaccard: Σ min(x_i, y_i) / Σ max(x_i, y_i); 1 if both are
  // zero vectors.
  static double JaccardSimilarity(const TermVector& x, const TermVector& y);

 private:
  std::vector<uint64_t> keys_;
  std::vector<double> counts_;
  // Σc and Σc² cached at build time. Counts are integers, so these are
  // exact regardless of summation order — the property that lets the
  // identity-form distances below match the old per-coordinate merges
  // bit for bit.
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

// Per-thread counters for TNF string encoding. DatabaseToTnfString bumps
// them on every call; the search layer diffs them around heuristic work
// to expose encoding volume as state.tnf_bytes (same pattern as
// Database::ThreadCowStats).
struct TnfEncodeStats {
  uint64_t encodes = 0;
  uint64_t bytes = 0;
};
TnfEncodeStats& ThreadTnfEncodeStats();

// The "databases as strings" view of §3: for each TNF row, the string
// r ⊕ a ⊕ v; rows sorted lexicographically and concatenated. Nulls render
// as "⊥".
std::string DatabaseToTnfString(const Database& db);

}  // namespace tupelo

#endif  // TUPELO_HEURISTICS_TERM_VECTOR_H_
