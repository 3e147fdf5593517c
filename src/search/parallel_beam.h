#ifndef TUPELO_SEARCH_PARALLEL_BEAM_H_
#define TUPELO_SEARCH_PARALLEL_BEAM_H_

#include "common/thread_pool.h"
#include "search/beam.h"
#include "search/search_types.h"

namespace tupelo {

// Forwarding name for BeamSearch over a pool, kept for the benchmark
// harness (perfbench/src/discover.cc). New code calls BeamSearch directly.
template <typename P>
SearchOutcome<typename P::Action> ParallelBeamSearch(
    const P& problem, size_t beam_width, ThreadPool* pool,
    const SearchLimits& limits = SearchLimits()) {
  return BeamSearch(problem, beam_width, limits, {}, pool);
}

}  // namespace tupelo

#endif  // TUPELO_SEARCH_PARALLEL_BEAM_H_
