#ifndef TUPELO_HEURISTICS_HEURISTIC_H_
#define TUPELO_HEURISTICS_HEURISTIC_H_

#include <span>
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

  // Estimate a batch of states at once: out[i] = Estimate(*states[i]).
  // The search layer funnels frontier expansions through this so
  // implementations can amortize per-call setup; the default is the
  // plain loop, and overrides must return exactly what Estimate would
  // (the scalar/batched parity tests pin this).
  virtual void EstimateBatch(std::span<const Database* const> states,
                             std::span<int> out) const {
    for (size_t i = 0; i < states.size(); ++i) out[i] = Estimate(*states[i]);
  }

  // Stable display name ("h1", "cosine", ...).
  virtual std::string_view name() const = 0;
};

}  // namespace tupelo

#endif  // TUPELO_HEURISTICS_HEURISTIC_H_
