#ifndef TUPELO_HEURISTICS_VECTOR_HEURISTICS_H_
#define TUPELO_HEURISTICS_VECTOR_HEURISTICS_H_

#include <string_view>

#include "common/simd/edit_distance.h"
#include "heuristics/heuristic.h"
#include "heuristics/term_vector.h"

namespace tupelo {

// hL(x) = round(k · L(string(x), string(t)) / max(|string(x)|, |string(t)|)):
// the normalized Levenshtein heuristic over the sorted-TNF-row string view
// of the databases. k ≥ 1 scales [0,1] to [0,k].
//
// The target string never changes, so its Myers match masks are
// precomputed once (simd::PreparedPattern). A state's string is encoded
// afresh on each call: MappingProblem already caches h per state
// fingerprint, so a repeated state rarely reaches this class.
class LevenshteinHeuristic : public Heuristic {
 public:
  LevenshteinHeuristic(const Database& target, double k);
  int Estimate(const Database& state) const override;
  std::string_view name() const override { return "levenshtein"; }

 private:
  simd::PreparedPattern target_pattern_;
  double k_;
};

// hE(x) = round(√Σ(x_i − t_i)²): plain Euclidean distance in term-vector
// space (no scaling constant in the paper).
class EuclideanHeuristic : public Heuristic {
 public:
  explicit EuclideanHeuristic(const Database& target);
  int Estimate(const Database& state) const override;
  std::string_view name() const override { return "euclid"; }

 private:
  TermVector target_;
};

// h|E|(x) = round(k · ‖x/|x| − t/|t|‖): Euclidean distance between the
// L2-normalized term vectors, scaled by k.
class NormalizedEuclideanHeuristic : public Heuristic {
 public:
  NormalizedEuclideanHeuristic(const Database& target, double k);
  int Estimate(const Database& state) const override;
  std::string_view name() const override { return "euclid_norm"; }

 private:
  TermVector target_;
  double k_;
};

// hJ(x) = round(k · (1 − J(x̄, t̄))) with multiset Jaccard J: an extension
// beyond the paper's seven heuristics. Unlike cosine it is sensitive to
// the *amount* of non-shared content, not just the angle — a candidate
// answer to §7's structure+content question, evaluated in
// bench/ablation_hybrid.
class JaccardHeuristic : public Heuristic {
 public:
  JaccardHeuristic(const Database& target, double k);
  int Estimate(const Database& state) const override;
  std::string_view name() const override { return "jaccard"; }

 private:
  TermVector target_;
  double k_;
};

// hcos(x) = round(k · (1 − cos(x̄, t̄))): cosine dissimilarity scaled by k.
class CosineHeuristic : public Heuristic {
 public:
  CosineHeuristic(const Database& target, double k);
  int Estimate(const Database& state) const override;
  std::string_view name() const override { return "cosine"; }

 private:
  TermVector target_;
  double k_;
};

}  // namespace tupelo

#endif  // TUPELO_HEURISTICS_VECTOR_HEURISTICS_H_
