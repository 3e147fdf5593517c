#ifndef TUPELO_SEARCH_INSTRUMENTATION_H_
#define TUPELO_SEARCH_INSTRUMENTATION_H_

#include <cstdint>

#include "obs/metrics.h"

namespace tupelo {

// Shared metric plumbing for the search algorithms. Constructed once per
// search from a nullable MetricRegistry; with a null registry every hook
// is a single branch on a cached bool, so uninstrumented searches pay no
// measurable overhead (the acceptance bar for this layer).
//
// Metric names (see docs/OBSERVABILITY.md for the full catalog):
//   search.states_examined   counter, mirrors SearchStats::states_examined
//   search.states_generated  counter, successors produced by Expand
//   search.expansions        counter, calls to Problem::Expand
//   search.duplicate_hits    counter, successors skipped by cycle/closed/
//                            best-g checks
//   search.iterations        counter, completed IDA* iterations
//   search.f_bound           histogram, the f-bound of each IDA* iteration
//   search.peak_memory_nodes max gauge, mirrors SearchStats peak memory
class SearchInstrumentation {
 public:
  explicit SearchInstrumentation(obs::MetricRegistry* registry) {
    if (registry == nullptr) return;
    enabled_ = true;
    examined_ = &registry->GetCounter("search.states_examined");
    generated_ = &registry->GetCounter("search.states_generated");
    expansions_ = &registry->GetCounter("search.expansions");
    duplicate_hits_ = &registry->GetCounter("search.duplicate_hits");
    iterations_ = &registry->GetCounter("search.iterations");
    f_bound_ = &registry->GetHistogram("search.f_bound",
                                       obs::ExponentialBounds(1, 2, 16));
    peak_memory_ = &registry->GetGauge("search.peak_memory_nodes");
  }

  bool enabled() const { return enabled_; }

  // A state was examined.
  void OnVisit() {
    if (enabled_) examined_->Increment();
  }

  // Problem::Expand returned `generated` successors.
  void OnExpand(size_t generated) {
    if (!enabled_) return;
    expansions_->Increment();
    generated_->Increment(generated);
  }

  // A successor was discarded by duplicate detection.
  void OnDuplicateHit() {
    if (enabled_) duplicate_hits_->Increment();
  }

  // An IDA* iteration began with the given f-bound.
  void OnIteration(int64_t f_bound) {
    if (!enabled_) return;
    iterations_->Increment();
    f_bound_->Observe(f_bound);
  }

  void OnPeakMemory(uint64_t nodes) {
    if (enabled_) peak_memory_->UpdateMax(static_cast<int64_t>(nodes));
  }

 private:
  bool enabled_ = false;
  obs::Counter* examined_ = nullptr;
  obs::Counter* generated_ = nullptr;
  obs::Counter* expansions_ = nullptr;
  obs::Counter* duplicate_hits_ = nullptr;
  obs::Counter* iterations_ = nullptr;
  obs::Histogram* f_bound_ = nullptr;
  obs::Gauge* peak_memory_ = nullptr;
};

}  // namespace tupelo

#endif  // TUPELO_SEARCH_INSTRUMENTATION_H_
