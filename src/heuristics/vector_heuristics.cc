#include "heuristics/vector_heuristics.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace tupelo {
namespace {

int RoundToInt(double v) { return static_cast<int>(std::llround(v)); }

}  // namespace

LevenshteinHeuristic::LevenshteinHeuristic(const Database& target, double k)
    : target_pattern_(DatabaseToTnfString(target)), k_(k) {}

int LevenshteinHeuristic::Estimate(const Database& state) const {
  const std::string s = DatabaseToTnfString(state);
  size_t longest = std::max(s.size(), target_pattern_.pattern().size());
  if (longest == 0) return 0;
  double normalized = static_cast<double>(target_pattern_.Distance(s)) /
                      static_cast<double>(longest);
  return RoundToInt(k_ * normalized);
}

EuclideanHeuristic::EuclideanHeuristic(const Database& target)
    : target_(TermVector::FromDatabase(target)) {}

int EuclideanHeuristic::Estimate(const Database& state) const {
  TermVector x = TermVector::FromDatabase(state);
  return RoundToInt(TermVector::EuclideanDistance(x, target_));
}

NormalizedEuclideanHeuristic::NormalizedEuclideanHeuristic(
    const Database& target, double k)
    : target_(TermVector::FromDatabase(target)), k_(k) {}

int NormalizedEuclideanHeuristic::Estimate(const Database& state) const {
  TermVector x = TermVector::FromDatabase(state);
  // Normalized vectors differ by at most √2; rescale the [0, √2] range to
  // [0, 1] so k means the same as for the other scaled heuristics.
  double d = TermVector::NormalizedEuclideanDistance(x, target_) /
             std::sqrt(2.0);
  return RoundToInt(k_ * d);
}

JaccardHeuristic::JaccardHeuristic(const Database& target, double k)
    : target_(TermVector::FromDatabase(target)), k_(k) {}

int JaccardHeuristic::Estimate(const Database& state) const {
  TermVector x = TermVector::FromDatabase(state);
  double dissimilarity = 1.0 - TermVector::JaccardSimilarity(x, target_);
  return RoundToInt(k_ * dissimilarity);
}

CosineHeuristic::CosineHeuristic(const Database& target, double k)
    : target_(TermVector::FromDatabase(target)), k_(k) {}

int CosineHeuristic::Estimate(const Database& state) const {
  TermVector x = TermVector::FromDatabase(state);
  double dissimilarity = 1.0 - TermVector::CosineSimilarity(x, target_);
  return RoundToInt(k_ * dissimilarity);
}

}  // namespace tupelo
