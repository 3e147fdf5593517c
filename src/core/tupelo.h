#ifndef TUPELO_CORE_TUPELO_H_
#define TUPELO_CORE_TUPELO_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/mapping_problem.h"
#include "fira/expression.h"
#include "fira/function_registry.h"
#include "heuristics/heuristic_factory.h"
#include "relational/database.h"
#include "runtime/supervisor.h"
#include "search/search_types.h"

namespace tupelo {

// The most worker threads one Discover call may ask for
// (TupeloOptions::threads). Pools live until the process exits, so a
// larger request is refused rather than pinning its threads.
inline constexpr size_t kMaxThreads = 256;

// Anytime-progress sample reported while a checkpointing run searches.
// Delivered from inside the search thread at checkpoint boundaries (see
// TupeloOptions::on_progress); handlers must be fast and thread-safe with
// respect to their own state — the search blocks until they return.
struct DiscoverProgress {
  int rung_index = 0;
  uint64_t states_examined = 0;
  // Best partial mapping so far: the operator path reaching the
  // heuristically closest state, and that state's remaining heuristic
  // distance (-1 before anything was examined).
  const std::vector<Op>* best_path = nullptr;
  int best_h = -1;
};

// One rung of the graceful-degradation ladder: which algorithm to try and
// how much of the *remaining* deadline/state budget it may consume before
// Discover falls through to the next rung. The last rung always receives
// everything left, whatever its share says.
struct DegradationRung {
  SearchAlgorithm algorithm = SearchAlgorithm::kBeam;
  double budget_share = 1.0;  // clamped to (0, 1]
};

// The default ladder: a complete, optimal search first, then the cheap
// incomplete beam sweep as the degraded best-effort answer.
std::vector<DegradationRung> DefaultLadder();

// End-to-end configuration for one mapping-discovery run.
struct TupeloOptions {
  SearchAlgorithm algorithm = SearchAlgorithm::kRbfs;
  HeuristicKind heuristic = HeuristicKind::kH1;
  // Scaling constant for the scaled heuristics; ≤ 0 selects the paper's
  // per-algorithm default (heuristics/heuristic_factory.h).
  double scale_k = 0.0;
  // Resource budget shared by the whole Discover call. deadline_millis,
  // max_memory_nodes and cancel govern every rung; with a ladder the
  // deadline and state budgets are split across rungs by budget_share.
  SearchLimits limits;
  SuccessorConfig successors;
  // Frontier width for SearchAlgorithm::kBeam (ignored otherwise). Beam
  // search is incomplete: found=false does not prove no mapping exists.
  size_t beam_width = 8;
  // Graceful degradation: when non-empty, Discover runs these rungs in
  // order instead of `algorithm`, falling through whenever a rung stops on
  // a resource limit without finding a mapping (see DefaultLadder()).
  // Per-rung attempts are recorded in TupeloResult::rungs and the
  // governor.* metrics.
  std::vector<DegradationRung> ladder;
  // Worker threads for the parallel search runtime, at most kMaxThreads.
  // With threads > 1, beam rungs fan each level's Phase A out over the
  // process's pool of that many workers (same outcome as threads == 1;
  // see search/beam.h). The pool is created by the first call that asks
  // for that size and kept until the process exits, so concurrent calls
  // asking for the same `threads` share its workers. 0 is treated as 1.
  size_t threads = 1;
  // Run the peephole optimizer (fira/optimizer.h) on the discovered
  // expression; the raw search path is replaced by the simplified,
  // re-verified equivalent.
  bool simplify = false;
  // Durable checkpoint/resume (see docs/ROBUSTNESS.md, "Checkpoint &
  // resume contract"). With a non-empty checkpoint_path, the run writes
  // an atomic, checksummed snapshot of the ladder position, the remaining
  // budget, the best partial mapping, and the active rung's resumable
  // search core (core/checkpoint.h) roughly every
  // checkpoint_interval_states examined states.
  std::string checkpoint_path;
  uint64_t checkpoint_interval_states = 1024;
  // Load checkpoint_path before searching and restart at its rung +
  // frontier. A missing file is a fresh start; a corrupt file, a wrong
  // format version, or a checkpoint from a different workload is a typed
  // error. Requires checkpoint_path.
  bool resume = false;
  // Anytime-progress stream (requires checkpoint_path: progress samples
  // ride the checkpoint cadence, so every sample is also durable). Called
  // from the search thread right after each successful checkpoint write —
  // rung entries and every ~checkpoint_interval_states examined states —
  // with the best partial mapping so far. The serving layer uses this to
  // stream improving partial mappings to clients while a job runs.
  std::function<void(const DiscoverProgress&)> on_progress;
  // Test seam for crash simulation: when > 0, the run cancels itself
  // (StopReason::kCancelled) right after the Nth successful checkpoint
  // write — a deterministic process death at a checkpoint boundary.
  uint64_t checkpoint_kill_after = 0;
  // Self-healing supervision (runtime/supervisor.h). With
  // supervisor.enabled, the run starts a watchdog thread: each rung
  // heartbeats into it, a hung rung is preempted within
  // supervisor.stall_window_millis (StopReason::kStalled) and retried
  // with exponential backoff up to supervisor.max_rung_retries times
  // before the ladder advances, each retry limited to what is left of the
  // call's budget when it starts; memory pressure against
  // limits.max_memory_nodes degrades in stages (trim the problem's
  // caches, then halve the beam width, then preempt to the next rung)
  // instead of tripping a hard kMemory; and every rung runs with a
  // poison-state quarantine, so an exception escaping Expand/ApplyOp
  // quarantines the offending state instead of aborting the run.
  runtime::SupervisorConfig supervisor;
  // Optional metric registry (nullable; default off). When set, the run
  // populates search.*, heuristic.*, executor.*, phase.* and governor.*
  // instruments — see docs/OBSERVABILITY.md for the catalog. Must outlive
  // the call.
  obs::MetricRegistry* metrics = nullptr;
  // Optional trace session (nullable; default off; same convention as
  // metrics). When set, the run emits spans for the rung ladder, every
  // search iteration/level, successor generation, heuristic evaluation,
  // per-operator execution, beam Phase A tasks, verification, and checkpoint
  // writes — export with TraceSession::WriteChromeJson and open in
  // Perfetto. With metrics also set, trace.events_recorded/dropped
  // counters mirror the session's delta for this call. Must outlive the
  // call.
  obs::TraceSession* trace = nullptr;
  // Flight recorder (requires `trace`): when non-empty and the run ends
  // badly — a resource/cancel stop (including the checkpoint-kill seam),
  // a found-but-unverified mapping, or any traced fault-injection fire —
  // the session's retained last events are dumped here as Chrome
  // trace-event JSON (TraceSession::WriteChromeJson), capturing what the
  // run was doing when it died. tools/trace_report reads the dump.
  std::string flight_recorder_path;
};

// One attempted rung of a Discover call (a single rung for plain runs,
// one entry per ladder rung tried for degraded runs).
struct RungAttempt {
  SearchAlgorithm algorithm = SearchAlgorithm::kRbfs;
  StopReason stop = StopReason::kExhausted;
  uint64_t states_examined = 0;
  double millis = 0.0;
};

// The outcome of a discovery run.
struct TupeloResult {
  // A mapping was found within the budget.
  bool found = false;
  // Why discovery stopped. kFound when found; otherwise the final rung's
  // stop reason (kExhausted is conclusive, everything else means the
  // resource governor cut the run short).
  StopReason stop_reason = StopReason::kExhausted;
  // The discovered executable mapping expression (empty unless found).
  MappingExpression mapping;
  // Anytime result: the prefix expression reaching the heuristically
  // closest state any rung examined, and that state's remaining heuristic
  // distance (0 when found, -1 if nothing was examined). On a resource
  // stop this is the best-effort partial mapping.
  MappingExpression partial_mapping;
  int partial_h = -1;
  // True if re-executing `mapping` on the source instance produced a state
  // containing the target instance (sanity re-check of the search result).
  bool verified = false;
  // Why verification failed: the replay error, or an Internal status when
  // the replay succeeded but its result does not contain the target. OK
  // when verified (or when nothing was found to verify).
  Status verify_status;
  // Aggregate over all rungs (states/generated/iterations summed, peak
  // memory maxed; solution_cost from the successful rung).
  SearchStats stats;
  // Per-rung attempts, in execution order.
  std::vector<RungAttempt> rungs;
  // Checkpoint/resume bookkeeping: whether this run restarted from a
  // checkpoint, how many ladder rungs the resume skipped, and how many
  // checkpoint files the run wrote.
  bool resumed = false;
  int resume_rungs_skipped = 0;
  uint64_t checkpoint_writes = 0;
  // Supervision bookkeeping (all zero unless options.supervisor.enabled):
  // hung rungs the watchdog preempted, soft memory-relief interventions
  // (cache trims; width trims count here too), stall retries the ladder
  // granted, and poison states quarantined during the run. Mirrored into
  // the supervisor.* metrics.
  uint64_t stall_preemptions = 0;
  uint64_t memory_reliefs = 0;
  uint64_t rung_retries = 0;
  uint64_t states_quarantined = 0;
};

// TUPELO: example-driven discovery of data-mapping expressions.
//
// Usage:
//   Tupelo tupelo(source_instance, target_instance);
//   tupelo.set_registry(&registry);                    // if λ needed
//   tupelo.AddCorrespondence({"add", {"Cost", "AgentFee"}, "TotalCost"});
//   Result<TupeloResult> r = tupelo.Discover(options);
//
// Per the Rosetta Stone principle (§2.2), `source` and `target` must be
// critical instances illustrating the same information under both schemas.
class Tupelo {
 public:
  Tupelo(Database source, Database target)
      : source_(std::move(source)), target_(std::move(target)) {}

  // `registry` must outlive the Tupelo object; required iff
  // correspondences are supplied.
  void set_registry(const FunctionRegistry* registry) { registry_ = registry; }
  const FunctionRegistry* registry() const { return registry_; }

  void AddCorrespondence(SemanticCorrespondence c) {
    correspondences_.push_back(std::move(c));
  }
  const std::vector<SemanticCorrespondence>& correspondences() const {
    return correspondences_;
  }

  const Database& source() const { return source_; }
  const Database& target() const { return target_; }

  // Runs heuristic search for a mapping expression. Fails on configuration
  // errors (e.g. correspondences without a registry, or naming unknown
  // functions); an unsuccessful search is a successful call with
  // found=false.
  Result<TupeloResult> Discover(const TupeloOptions& options = {}) const;

 private:
  Database source_;
  Database target_;
  const FunctionRegistry* registry_ = nullptr;
  std::vector<SemanticCorrespondence> correspondences_;
};

// One-call convenience wrapper.
Result<TupeloResult> DiscoverMapping(
    const Database& source, const Database& target,
    const TupeloOptions& options = {},
    const FunctionRegistry* registry = nullptr,
    std::vector<SemanticCorrespondence> correspondences = {});

}  // namespace tupelo

#endif  // TUPELO_CORE_TUPELO_H_
