#ifndef TUPELO_HEURISTICS_HEURISTIC_H_
#define TUPELO_HEURISTICS_HEURISTIC_H_

#include <string_view>

#include "relational/database.h"

namespace tupelo {

// A search heuristic h(x): an estimate of the number of transformation
// steps from database state `x` to a fixed target critical instance
// (§3 of the paper). Implementations are constructed around the target and
// must be deterministic and side-effect free; Estimate is called once per
// generated state, so precompute whatever the target allows.
class Heuristic {
 public:
  virtual ~Heuristic() = default;

  // Estimated distance (≥ 0) from `state` to the target.
  virtual int Estimate(const Database& state) const = 0;

  // Stable display name ("h1", "cosine", ...).
  virtual std::string_view name() const = 0;
};

}  // namespace tupelo

#endif  // TUPELO_HEURISTICS_HEURISTIC_H_
