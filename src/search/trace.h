#ifndef TUPELO_SEARCH_TRACE_H_
#define TUPELO_SEARCH_TRACE_H_

#include <cstdint>

#include "obs/trace.h"

namespace tupelo {

// The single emission point for search-algorithm events: instants on the
// run's TraceSession (obs/trace.h), next to the spans the algorithms open
// with obs::TraceSpan. The session is nullable; a disabled run pays one
// null check per event.
//
//   visit      a state was examined; args f (f = g + h, or h for greedy
//              and beam) and g (depth)
//   goal       the goal test succeeded; arg g
//   iteration  IDA*: a new iteration began, value = the new f-bound and
//              depth = 0; beam: a new level began, value = the level's
//              best h and depth = level
//   beam.dropped  frontier candidates cut by the beam width at a level
class SearchTraceEmitter {
 public:
  explicit SearchTraceEmitter(obs::TraceSession* trace) : trace_(trace) {}

  void Visit(int depth, int64_t value) {
    if (trace_ != nullptr) {
      trace_->EmitInstant(obs::TraceCategory::kSearch, "visit", "f", value,
                          "g", depth);
    }
  }

  void Goal(int depth) {
    if (trace_ != nullptr) {
      trace_->EmitInstant(obs::TraceCategory::kSearch, "goal", "g", depth);
    }
  }

  void Iteration(int depth, int64_t value) {
    if (trace_ != nullptr) {
      trace_->EmitInstant(obs::TraceCategory::kSearch, "iteration", "value",
                          value, "depth", depth);
    }
  }

  void BeamDrop(int level, int64_t dropped) {
    if (trace_ != nullptr && dropped > 0) {
      trace_->EmitInstant(obs::TraceCategory::kSearch, "beam.dropped",
                          "dropped", dropped, "level", level);
    }
  }

 private:
  obs::TraceSession* trace_;
};

}  // namespace tupelo

#endif  // TUPELO_SEARCH_TRACE_H_
