#ifndef TUPELO_SEARCH_LEDGER_H_
#define TUPELO_SEARCH_LEDGER_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/search_types.h"

namespace tupelo {

// The bookkeeping of one search call, shared by all five algorithms: the
// call's SearchOutcome, its BudgetGuard, the search.* instruments resolved
// from SearchContext::metrics and the search instants emitted on
// SearchContext::trace (each method names what it records;
// docs/OBSERVABILITY.md has the catalog). Each algorithm calls it at its
// own points, in its own order (budget check, snapshot offer, count,
// estimate, goal test); the paths to the states it examines stay with the
// algorithm. Only the search's calling thread touches it. With metrics and
// trace off, every record costs one null check.
template <typename State, typename Action>
class SearchLedger {
 public:
  SearchLedger(const SearchLimits& limits,
               const SearchContext<State, Action>& ctx)
      : guard_(limits, ctx.sink != nullptr),
        sink_(ctx.sink),
        trace_(ctx.trace) {
    obs::MetricRegistry* registry = ctx.metrics;
    if (registry == nullptr) return;
    examined_ = &registry->GetCounter("search.states_examined");
    generated_ = &registry->GetCounter("search.states_generated");
    expansions_ = &registry->GetCounter("search.expansions");
    duplicate_hits_ = &registry->GetCounter("search.duplicate_hits");
    iterations_ = &registry->GetCounter("search.iterations");
    f_bound_ = &registry->GetHistogram("search.f_bound",
                                       obs::ExponentialBounds(1, 2, 16));
    peak_memory_ = &registry->GetGauge("search.peak_memory_nodes");
  }

  SearchOutcome<Action>& outcome() { return out_; }
  uint64_t examined() const { return out_.stats.states_examined; }
  // A goal was reached or a stop recorded: the search should unwind.
  bool done() const { return out_.stop != StopReason::kExhausted; }
  SearchOutcome<Action> Release() { return std::move(out_); }

  // The budget check before examining a state at `depth` while the
  // algorithm's memory proxy reads `memory_nodes`. Records a trip as the
  // outcome's stop and returns true.
  bool Stopped(int64_t depth, uint64_t memory_nodes) {
    std::optional<StopReason> stop =
        guard_.Check(out_.stats.states_examined, depth, memory_nodes);
    if (!stop.has_value()) return false;
    out_.stop = *stop;
    return true;
  }

  // True when a sink is installed and wants a snapshot now. Beam asks at
  // each level barrier; the other algorithms ask through SnapshotDue.
  bool SnapshotWanted() {
    return sink_ != nullptr &&
           sink_->WantSnapshot(out_.stats.states_examined);
  }
  // SnapshotWanted, asked only when the last budget check hit the
  // amortized poll tick.
  bool SnapshotDue() { return guard_.checkpoint_due() && SnapshotWanted(); }

  // A snapshot carrying the common fields: progress and the anytime best
  // (outcome().best_path). The algorithm adds its resumable core and
  // hands the snapshot to Offer.
  SearchSeed<State, Action> Snapshot() const {
    SearchSeed<State, Action> snap;
    snap.states_examined = out_.stats.states_examined;
    snap.best_path = out_.best_path;
    snap.best_h = out_.best_h;
    return snap;
  }
  void Offer(SearchSeed<State, Action> snap) {
    sink_->OnSnapshot(std::move(snap));
  }

  // One state examined, the paper's measure: SearchStats::states_examined
  // and search.states_examined.
  void Count() {
    ++out_.stats.states_examined;
    if (examined_ != nullptr) examined_->Increment();
  }

  // The examined state's `visit` instant, args f (g + h, or h for greedy
  // and beam) and g (depth), and its heuristic distance `h`. Returns true
  // when h is a new anytime best; the caller then keeps its path to the
  // state as the best partial path.
  bool Visit(int64_t g, int64_t f, int64_t h) {
    if (trace_ != nullptr) {
      trace_->EmitInstant(obs::TraceCategory::kSearch, "visit", "f", f, "g",
                          g);
    }
    if (out_.best_h >= 0 && h >= out_.best_h) return false;
    out_.best_h = static_cast<int>(h);
    return true;
  }

  // The goal test passed for the state at `depth` reached by `path`: the
  // `goal` instant (arg g) and the solution.
  void Goal(int64_t depth, std::vector<Action> path) {
    if (trace_ != nullptr) {
      trace_->EmitInstant(obs::TraceCategory::kSearch, "goal", "g", depth);
    }
    out_.found = true;
    out_.stop = StopReason::kFound;
    out_.stats.solution_cost = static_cast<int>(path.size());
    out_.path = std::move(path);
    out_.best_path = out_.path;
    out_.best_h = 0;
  }

  // The algorithm's memory proxy read `nodes`: the peak in SearchStats and
  // the search.peak_memory_nodes max gauge.
  void Memory(uint64_t nodes) {
    out_.stats.peak_memory_nodes =
        std::max(out_.stats.peak_memory_nodes, nodes);
    if (peak_memory_ != nullptr) {
      peak_memory_->UpdateMax(static_cast<int64_t>(nodes));
    }
  }

  // Problem::Expand returned `generated` successors: search.expansions and
  // search.states_generated.
  void Expand(size_t generated) {
    out_.stats.states_generated += generated;
    if (expansions_ != nullptr) {
      expansions_->Increment();
      generated_->Increment(generated);
    }
  }

  // A successor was discarded by a cycle, closed-list or dedup check:
  // search.duplicate_hits.
  void Duplicate() {
    if (duplicate_hits_ != nullptr) duplicate_hits_->Increment();
  }

  // An IDA* iteration began with the given f-bound: search.iterations, the
  // search.f_bound histogram and an `iteration` instant (value = bound,
  // depth = 0).
  void Iteration(int64_t f_bound) {
    ++out_.stats.iterations;
    EmitIteration(0, f_bound);
    if (iterations_ != nullptr) {
      iterations_->Increment();
      f_bound_->Observe(f_bound);
    }
  }

  // A beam level began; `best_h` is the smallest h in its frontier. Only
  // the `iteration` instant (value = best_h, depth = level): levels count
  // into neither SearchStats::iterations nor search.iterations.
  void Level(int level, int64_t best_h) { EmitIteration(level, best_h); }

  // The beam width cut `dropped` candidates at `level`: a `beam.dropped`
  // instant.
  void BeamDrop(int level, int64_t dropped) {
    if (trace_ != nullptr && dropped > 0) {
      trace_->EmitInstant(obs::TraceCategory::kSearch, "beam.dropped",
                          "dropped", dropped, "level", level);
    }
  }

 private:
  void EmitIteration(int depth, int64_t value) {
    if (trace_ != nullptr) {
      trace_->EmitInstant(obs::TraceCategory::kSearch, "iteration", "value",
                          value, "depth", depth);
    }
  }

  SearchOutcome<Action> out_;
  BudgetGuard guard_;
  CheckpointSink<State, Action>* const sink_;
  obs::TraceSession* const trace_;
  obs::Counter* examined_ = nullptr;
  obs::Counter* generated_ = nullptr;
  obs::Counter* expansions_ = nullptr;
  obs::Counter* duplicate_hits_ = nullptr;
  obs::Counter* iterations_ = nullptr;
  obs::Histogram* f_bound_ = nullptr;
  obs::Gauge* peak_memory_ = nullptr;
};

}  // namespace tupelo

#endif  // TUPELO_SEARCH_LEDGER_H_
