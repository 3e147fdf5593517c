#include "core/tupelo.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/text.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "fira/optimizer.h"
#include "search/beam.h"
#include "search/best_first.h"
#include "search/ida_star.h"
#include "search/rbfs.h"

namespace tupelo {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Replays a mapping on the source instance without letting an exception
// escape Discover: operator execution can throw under fault injection
// (fira/executor.h, Kind::kThrow/kBadAlloc), and verification runs
// outside the search layer's poison-state quarantine, so a throwing
// replay must degrade to a failed verification, not a crash.
Result<Database> SafeReplay(const MappingExpression& mapping,
                            const Database& source,
                            const FunctionRegistry* registry) {
  try {
    return mapping.Apply(source, registry);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("verification replay threw: ") +
                            e.what());
  } catch (...) {
    return Status::Internal("verification replay threw a non-standard "
                            "exception");
  }
}

// Splits `remaining` by `share` for a non-final rung; the last rung takes
// everything left. Never returns 0 for a positive remainder, so a rung
// always gets a sliver of budget rather than tripping instantly.
uint64_t RungSlice(uint64_t remaining, double share, bool last) {
  if (last || share >= 1.0) return remaining;
  if (share <= 0.0) share = 1.0;
  uint64_t slice = static_cast<uint64_t>(static_cast<double>(remaining) * share);
  return slice == 0 && remaining > 0 ? 1 : slice;
}

// The process's pool of `threads` workers, or nullptr for threads <= 1.
// Each size's pool is created under the mutex by the first call that asks
// for it and kept until the process exits, when the map's destructor joins
// its workers. Calls asking for the same size share the pool: a beam's
// Phase A tasks never wait on one another, so a call only queues behind
// another's tasks, and its outcome does not depend on the pool.
ThreadPool* SharedPool(size_t threads) {
  if (threads <= 1) return nullptr;
  static std::mutex mu;
  static std::map<size_t, std::unique_ptr<ThreadPool>> pools;
  std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<ThreadPool>& pool = pools[threads];
  if (pool == nullptr) pool = std::make_unique<ThreadPool>(threads);
  return pool.get();
}

// Dispatches one rung's algorithm. Beam rungs fan their levels out over
// the process's pool of `threads` workers when threads > 1. Each rung
// shows up on the trace as a "rung.<algo>" driver span (literal names: the
// session records only the name pointer).
SearchOutcome<Op> RunRung(SearchAlgorithm algorithm,
                          const MappingProblem& problem, size_t beam_width,
                          size_t threads, const SearchLimits& limits,
                          const SearchContext<Database, Op>& ctx) {
  obs::TraceSession* const trace = ctx.trace;
  switch (algorithm) {
    case SearchAlgorithm::kIda: {
      obs::TraceSpan span(trace, obs::TraceCategory::kDriver, "rung.ida");
      return IdaStarSearch(problem, limits, ctx);
    }
    case SearchAlgorithm::kRbfs: {
      obs::TraceSpan span(trace, obs::TraceCategory::kDriver, "rung.rbfs");
      return RbfsSearch(problem, limits, ctx);
    }
    case SearchAlgorithm::kAStar: {
      obs::TraceSpan span(trace, obs::TraceCategory::kDriver, "rung.astar");
      return BestFirstSearch(problem, BestFirstOrder::kAStar, limits, ctx);
    }
    case SearchAlgorithm::kGreedy: {
      obs::TraceSpan span(trace, obs::TraceCategory::kDriver, "rung.greedy");
      return BestFirstSearch(problem, BestFirstOrder::kGreedy, limits, ctx);
    }
    case SearchAlgorithm::kBeam: {
      obs::TraceSpan span(trace, obs::TraceCategory::kDriver, "rung.beam");
      return BeamSearch(problem, beam_width, limits, ctx,
                        SharedPool(threads));
    }
  }
  return {};
}

// What Discover settles before its first rung runs.
struct Plan {
  // The rung sequence: the ladder when configured, else one rung running
  // the configured algorithm on the full budget.
  std::vector<DegradationRung> ladder;
  // The call's budget, measured from `start`; a resumed run starts from
  // what its checkpoint had left.
  Clock::time_point start;
  uint64_t states_left = 0;
  int64_t deadline_millis = 0;  // 0 = no deadline
  // Where the run starts: rung `first_rung`, from `resume_seed` when
  // `resumed`.
  size_t first_rung = 0;
  bool resumed = false;
  SearchSeed<Database, Op> resume_seed;
};

// Writes DiscoveryCheckpoint files from the snapshots the active rung's
// search offers. One instance serves the whole Discover call; BeginAttempt
// repoints it at each attempt's position/budget context. When
// options.checkpoint_kill_after > 0, the sink cancels `kill_token` right
// after that many successful writes — the deterministic crash seam the
// fault campaign and the crash-equivalence tests kill runs with.
class FileCheckpointSink : public CheckpointSink<Database, Op> {
 public:
  FileCheckpointSink(const TupeloOptions& options, const Plan& plan,
                     Fp128 source_fp, Fp128 target_fp,
                     CancelToken* kill_token)
      : options_(options),
        plan_(plan),
        interval_(std::max<uint64_t>(1, options.checkpoint_interval_states)),
        source_fp_(source_fp),
        target_fp_(target_fp),
        kill_token_(kill_token) {}

  // Repoints the sink at the attempt about to run. `states_budget_left` is
  // the whole-run state budget before this attempt starts. With
  // `write_entry`, a rung-entry checkpoint is written immediately so a kill
  // between snapshots restarts at this rung, not an earlier one; resumed
  // rungs and retries pass false so the frontier snapshot already on disk
  // is not clobbered by an empty one.
  void BeginAttempt(int rung_index, SearchAlgorithm algorithm,
                    uint64_t states_budget_left, bool write_entry) {
    rung_index_ = rung_index;
    algorithm_ = std::string(SearchAlgorithmName(algorithm));
    states_budget_left_ = states_budget_left;
    next_due_ = interval_;
    if (write_entry) WriteSnapshot({});
  }

  bool WantSnapshot(uint64_t states_examined) override {
    return states_examined >= next_due_;
  }

  void OnSnapshot(SearchSeed<Database, Op> seed) override {
    next_due_ = seed.states_examined + interval_;
    WriteSnapshot(std::move(seed));
  }

  uint64_t writes() const { return writes_; }

 private:
  void WriteSnapshot(SearchSeed<Database, Op> seed) {
    obs::MetricRegistry* const metrics = options_.metrics;
    obs::TraceSession* const trace = options_.trace;
    obs::TraceSpan span(trace, obs::TraceCategory::kCheckpoint,
                        "checkpoint.write", "rung",
                        static_cast<int64_t>(rung_index_));
    DiscoveryCheckpoint cp;
    cp.source_fp = source_fp_;
    cp.target_fp = target_fp_;
    cp.algorithm = algorithm_;
    cp.rung_index = rung_index_;
    cp.ladder_size = static_cast<int>(plan_.ladder.size());
    cp.states_left = static_cast<int64_t>(
        states_budget_left_ > seed.states_examined
            ? states_budget_left_ - seed.states_examined
            : 0);
    if (plan_.deadline_millis > 0) {
      int64_t left = plan_.deadline_millis -
                     static_cast<int64_t>(MillisSince(plan_.start));
      cp.deadline_left_millis = left > 0 ? left : 0;
    }
    cp.seed = std::move(seed);

    std::string text = WriteCheckpoint(cp);
    // A failed write is deliberately non-fatal: checkpointing must never
    // take down the search it protects. The write counter only moves on
    // success, so the kill seam still fires at real checkpoint boundaries.
    // Failures are surfaced anyway — AtomicWriteFile now returns typed
    // errors for short writes and close failures (ENOSPC), and those land
    // on the checkpoint.write_failures counter and a trace instant so a
    // run silently losing its crash safety is visible post-mortem.
    Status wrote = AtomicWriteFile(options_.checkpoint_path, text);
    if (wrote.ok()) {
      ++writes_;
      span.SetEndArg("bytes", static_cast<int64_t>(text.size()));
      if (metrics != nullptr) {
        metrics->GetCounter("checkpoint.writes").Increment();
        metrics->GetCounter("checkpoint.bytes").Increment(text.size());
      }
      // Progress rides the checkpoint cadence: a sample is only reported
      // once it is durable, so a streamed partial mapping is always one a
      // crash-restarted run would also recover.
      if (options_.on_progress) {
        DiscoverProgress progress;
        progress.rung_index = rung_index_;
        progress.states_examined = cp.seed.states_examined;
        progress.best_path = &cp.seed.best_path;
        progress.best_h = cp.seed.best_h;
        options_.on_progress(progress);
      }
      if (options_.checkpoint_kill_after > 0 &&
          writes_ >= options_.checkpoint_kill_after) {
        kill_token_->Cancel();
      }
    } else {
      span.SetEndArg("failed", 1);
      if (metrics != nullptr) {
        metrics->GetCounter("checkpoint.write_failures").Increment();
      }
      if (trace != nullptr) {
        trace->EmitInstant(obs::TraceCategory::kCheckpoint,
                            "checkpoint.write_failed", "rung",
                            static_cast<int64_t>(rung_index_));
      }
    }
  }

  const TupeloOptions& options_;
  const Plan& plan_;
  const uint64_t interval_;
  const Fp128 source_fp_;
  const Fp128 target_fp_;
  CancelToken* const kill_token_;

  int rung_index_ = 0;
  std::string algorithm_;
  uint64_t states_budget_left_ = 0;
  uint64_t next_due_ = 0;
  uint64_t writes_ = 0;
};

// Plan step: rejects a malformed configuration, then fixes the rung
// sequence, the starting budget and, with options.resume, the resume point
// loaded from the checkpoint.
Result<Plan> PlanDiscover(const TupeloOptions& options, const Tupelo& tupelo) {
  const Database& source = tupelo.source();
  const Database& target = tupelo.target();
  const FunctionRegistry* registry = tupelo.registry();
  if (!tupelo.correspondences().empty() && registry == nullptr) {
    return Status::FailedPrecondition(
        "semantic correspondences supplied but no function registry set");
  }
  for (const SemanticCorrespondence& c : tupelo.correspondences()) {
    if (!registry->Has(c.function)) {
      return Status::NotFound("correspondence uses unregistered function '" +
                              c.function + "'");
    }
    TUPELO_ASSIGN_OR_RETURN(const ComplexFunction* fn,
                            registry->Lookup(c.function));
    if (fn->arity != c.inputs.size()) {
      return Status::InvalidArgument(
          "correspondence for '" + c.function + "' supplies " +
          std::to_string(c.inputs.size()) + " inputs; function expects " +
          std::to_string(fn->arity));
    }
    if (c.output.empty()) {
      return Status::InvalidArgument("correspondence for '" + c.function +
                                     "' has an empty output attribute");
    }
  }
  // A kind is known when its name parses back to it. Rungs only vary the
  // algorithm, so one check covers every rung's MakeHeuristic.
  if (ParseHeuristicKind(HeuristicKindName(options.heuristic)) !=
      options.heuristic) {
    return Status::InvalidArgument("unknown heuristic kind");
  }
  if (!options.flight_recorder_path.empty() && options.trace == nullptr) {
    return Status::InvalidArgument(
        "TupeloOptions::flight_recorder_path requires a trace session");
  }
  if (options.resume && options.checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "TupeloOptions::resume requires checkpoint_path");
  }
  if (options.threads > kMaxThreads) {
    return Status::InvalidArgument("TupeloOptions::threads must be at most " +
                                   std::to_string(kMaxThreads));
  }

  Plan plan;
  plan.ladder = options.ladder;
  if (plan.ladder.empty()) {
    plan.ladder.push_back(DegradationRung{options.algorithm, 1.0});
  }
  // A zero-width beam examines nothing and would report a conclusive
  // "exhausted".
  if (options.beam_width == 0 &&
      std::any_of(plan.ladder.begin(), plan.ladder.end(),
                  [](const DegradationRung& rung) {
                    return rung.algorithm == SearchAlgorithm::kBeam;
                  })) {
    return Status::InvalidArgument(
        "TupeloOptions::beam_width must be at least 1 for a beam rung");
  }
  plan.start = Clock::now();
  plan.states_left = options.limits.max_states;
  plan.deadline_millis = options.limits.deadline_millis;
  if (!options.resume) return plan;

  obs::TraceSpan resume_span(options.trace, obs::TraceCategory::kCheckpoint,
                             "resume.load");
  Result<DiscoveryCheckpoint> loaded =
      LoadCheckpointFile(options.checkpoint_path);
  if (!loaded.ok() && loaded.status().code() == StatusCode::kNotFound) {
    return plan;  // killed before the first write: a fresh start
  }
  if (!loaded.ok()) return loaded.status();
  DiscoveryCheckpoint& cp = *loaded;
  if (!(cp.source_fp == source.Fingerprint128()) ||
      !(cp.target_fp == target.Fingerprint128())) {
    return Status::FailedPrecondition(
        "checkpoint was written by a different workload");
  }
  if (cp.ladder_size != static_cast<int>(plan.ladder.size()) ||
      cp.rung_index >= static_cast<int>(plan.ladder.size()) ||
      cp.algorithm !=
          SearchAlgorithmName(plan.ladder[cp.rung_index].algorithm)) {
    return Status::FailedPrecondition(
        "checkpoint does not match this run's ladder");
  }
  plan.first_rung = static_cast<size_t>(cp.rung_index);
  plan.states_left =
      cp.states_left > 0 ? static_cast<uint64_t>(cp.states_left) : 0;
  if (plan.deadline_millis > 0) plan.deadline_millis = cp.deadline_left_millis;
  plan.resume_seed = std::move(cp.seed);
  for (auto& node : plan.resume_seed.open) {
    // Open-list states are not stored; replay them from their action
    // paths (operators are deterministic).
    TUPELO_ASSIGN_OR_RETURN(
        node.state, MappingExpression(node.path).Apply(source, registry));
  }
  plan.resumed = true;
  if (options.metrics != nullptr && plan.first_rung > 0) {
    options.metrics->GetCounter("checkpoint.resume.rungs_skipped")
        .Increment(plan.first_rung);
  }
  return plan;
}

// The governor.* counter a stop trips, or null for stops it does not count.
const char* GovernorTripCounter(StopReason stop) {
  switch (stop) {
    case StopReason::kDeadline:
      return "governor.deadline_trips";
    case StopReason::kCancelled:
      return "governor.cancellations";
    case StopReason::kMemory:
      return "governor.memory_trips";
    case StopReason::kStalled:
      return "governor.stall_trips";
    default:
      return nullptr;
  }
}

// Runs a plan's rungs in order and books every attempt into `result`. It
// owns what the attempts of one call share: the budget left, the
// checkpoint sink and supervision.
class LadderRun {
 public:
  LadderRun(const TupeloOptions& options, const Plan& plan,
            const Tupelo& tupelo, TupeloResult* result)
      : options_(options),
        plan_(plan),
        tupelo_(tupelo),
        result_(*result),
        metrics_(options.metrics),
        trace_(options.trace),
        states_left_(plan.states_left) {
    if (plan.resumed) {
      best_partial_ = plan.resume_seed.best_path;
      best_partial_h_ = plan.resume_seed.best_h;
    }
    if (!options.checkpoint_path.empty()) {
      // A crash between AtomicWriteFile's write and rename leaves
      // `<path>.tmp` behind. It is never valid input (loads read only the
      // final path), so sweep it before the first write of this run.
      RemoveStaleCheckpointTmp(options.checkpoint_path);
      kill_token_ = std::make_unique<CancelToken>(options.limits.cancel);
      sink_ = std::make_unique<FileCheckpointSink>(
          options, plan, tupelo.source().Fingerprint128(),
          tupelo.target().Fingerprint128(), kill_token_.get());
    }
    // Genuine cancellation comes from the kill seam (when checkpointing)
    // or the caller's token; a supervisor's preempt token is parented on
    // it so a caller cancel still lands instantly.
    cancel_ =
        kill_token_ != nullptr ? kill_token_.get() : options.limits.cancel;
    if (options.supervisor.enabled) {
      quarantine_ = std::make_unique<StateQuarantine>();
      supervisor_ = std::make_unique<runtime::Supervisor>(options.supervisor,
                                                          metrics_, trace_);
    }
    if (metrics_ != nullptr) {
      metrics_->GetGauge("runtime.threads")
          .Set(static_cast<int64_t>(std::max<size_t>(1, options.threads)));
    }
  }

  LadderRun(const LadderRun&) = delete;
  LadderRun& operator=(const LadderRun&) = delete;

  // Runs the rungs from plan.first_rung until one finds a mapping, the
  // caller cancels, the deadline expires, or the ladder ends. Returns the
  // found path (empty unless result.found).
  std::vector<Op> Run() {
    std::vector<Op> found_path;
    for (size_t i = plan_.first_rung; i < plan_.ladder.size(); ++i) {
      if (i > plan_.first_rung && metrics_ != nullptr) {
        metrics_->GetCounter("governor.fallback_activations").Increment();
      }
      std::optional<SearchOutcome<Op>> outcome = RunRungAttempts(i);
      if (!outcome.has_value()) {
        result_.stop_reason = StopReason::kDeadline;
        break;
      }
      result_.stop_reason = outcome->stop;
      if (outcome->found) {
        result_.found = true;
        result_.stats.solution_cost = outcome->stats.solution_cost;
        found_path = std::move(outcome->path);
        break;
      }
      // kExhausted on a complete algorithm is conclusive, but later rungs
      // are cheap and the sweep may have been cut by the per-rung slice on
      // a previous rung, so the ladder only stops early when the caller
      // cancelled (retrying cannot help) or this was the last rung.
      if (outcome->stop == StopReason::kCancelled) break;
      if (options_.limits.cancel != nullptr &&
          options_.limits.cancel->cancelled()) {
        result_.stop_reason = StopReason::kCancelled;
        break;
      }
    }
    Finish();
    return found_path;
  }

 private:
  struct Attempt {
    SearchOutcome<Op> outcome;
    double millis = 0.0;
  };

  // Runs rung `i` until an attempt ends without earning a retry: a
  // stall-preempted attempt is retried in place with exponential backoff
  // (transient faults such as a slow disk or an injected delay clear on
  // their own). Returns the last attempt's outcome, or nullopt when the
  // call's deadline expired before an attempt could start.
  std::optional<SearchOutcome<Op>> RunRungAttempts(size_t i) {
    const SearchAlgorithm algorithm = plan_.ladder[i].algorithm;
    // A beam attempt expands each state at most once, so an Expand cache
    // would only keep successor lists alive.
    SuccessorConfig successors = options_.successors;
    if (algorithm == SearchAlgorithm::kBeam) {
      successors.expand_cache_capacity = 0;
    }
    MappingProblem problem(
        tupelo_.source(), tupelo_.target(),
        MakeHeuristic(options_.heuristic, tupelo_.target(), algorithm,
                      options_.scale_k),
        tupelo_.registry(), tupelo_.correspondences(), successors);
    problem.set_metrics(metrics_);
    problem.set_trace(trace_);
    int64_t backoff_millis =
        std::max<int64_t>(1, options_.supervisor.retry_backoff_millis);
    for (int attempt = 0;; ++attempt) {
      std::optional<Attempt> ran = RunAttempt(i, problem, attempt == 0);
      if (!ran.has_value()) {
        // Record the skipped attempt as an immediate deadline trip so the
        // report shows it.
        result_.rungs.push_back(
            RungAttempt{algorithm, StopReason::kDeadline, 0, 0.0});
        if (metrics_ != nullptr) {
          metrics_->GetCounter("governor.deadline_trips").Increment();
        }
        return std::nullopt;
      }
      Record(algorithm, ran->outcome, ran->millis);
      if (supervisor_ == nullptr ||
          ran->outcome.stop != StopReason::kStalled ||
          attempt >= options_.supervisor.max_rung_retries ||
          (cancel_ != nullptr && cancel_->cancelled())) {
        return std::move(ran->outcome);
      }
      ++result_.rung_retries;
      if (metrics_ != nullptr) {
        metrics_->GetCounter("supervisor.rung_retries").Increment();
      }
      if (trace_ != nullptr) {
        trace_->EmitInstant(obs::TraceCategory::kFault,
                            "supervisor.rung_retry", "rung",
                            static_cast<int64_t>(i), "attempt",
                            static_cast<int64_t>(attempt + 1));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_millis));
      backoff_millis *= 2;
    }
  }

  // Run-attempt step: one attempt of rung `i`. Its state and deadline
  // limits are cut from what is left of the call's budget when it starts,
  // so a retry never outspends the call. Returns nullopt, without
  // searching, when the deadline has already expired.
  std::optional<Attempt> RunAttempt(size_t i, MappingProblem& problem,
                                    bool first_attempt) {
    const DegradationRung& rung = plan_.ladder[i];
    const bool last = i + 1 == plan_.ladder.size();
    SearchLimits limits = options_.limits;
    limits.max_states = RungSlice(states_left_, rung.budget_share, last);
    if (plan_.deadline_millis > 0) {
      int64_t remaining = plan_.deadline_millis -
                          static_cast<int64_t>(MillisSince(plan_.start));
      if (remaining <= 0) return std::nullopt;
      limits.deadline_millis = static_cast<int64_t>(RungSlice(
          static_cast<uint64_t>(remaining), rung.budget_share, last));
    }
    const SearchContext<Database, Op> ctx{
        metrics_, trace_,
        plan_.resumed && i == plan_.first_rung ? &plan_.resume_seed : nullptr,
        sink_.get()};
    if (sink_ != nullptr) {
      sink_->BeginAttempt(static_cast<int>(i), rung.algorithm, states_left_,
                          first_attempt && ctx.seed == nullptr);
      limits.cancel = cancel_;
    }

    std::optional<CancelToken> preempt;
    int64_t watch_id = -1;
    if (supervisor_ != nullptr) {
      limits.cancel = &preempt.emplace(cancel_);
      limits.heartbeat = &heartbeat_;
      limits.quarantine = quarantine_.get();
      limits.width_pressure = &width_pressure_;
      runtime::WatchSpec spec;
      spec.heartbeat = &heartbeat_;
      spec.preempt = &*preempt;
      spec.max_memory_nodes = limits.max_memory_nodes;
      spec.memory_relief = [&problem] { problem.TrimCaches(); };
      spec.width_pressure = &width_pressure_;
      spec.label = SearchAlgorithmName(rung.algorithm).data();
      watch_id = supervisor_->Watch(spec);
    }

    Clock::time_point attempt_start = Clock::now();
    Attempt ran{RunRung(rung.algorithm, problem, options_.beam_width,
                        options_.threads, limits, ctx),
                0.0};
    ran.millis = MillisSince(attempt_start);

    if (watch_id >= 0) {
      runtime::PreemptReason why = supervisor_->preemption(watch_id);
      supervisor_->Unwatch(watch_id);
      // The search observed its preempt token as a plain cancel; rewrite
      // the stop to what the supervisor actually diagnosed. A genuine
      // caller/kill cancel wins over any concurrent preemption.
      if (ran.outcome.stop == StopReason::kCancelled &&
          !(cancel_ != nullptr && cancel_->cancelled())) {
        if (why == runtime::PreemptReason::kStall) {
          ran.outcome.stop = StopReason::kStalled;
        } else if (why == runtime::PreemptReason::kMemory) {
          ran.outcome.stop = StopReason::kMemory;
        }
      }
    }
    return ran;
  }

  // Record step: books one finished attempt into its RungAttempt entry,
  // the governor.* counters, the call's summed stats and remaining budget,
  // and the best partial mapping so far.
  void Record(SearchAlgorithm algorithm, const SearchOutcome<Op>& outcome,
              double millis) {
    result_.rungs.push_back(RungAttempt{algorithm, outcome.stop,
                                        outcome.stats.states_examined,
                                        millis});
    if (metrics_ != nullptr) {
      metrics_->GetCounter("governor.rungs_attempted").Increment();
      metrics_
          ->GetCounter(std::string("governor.rung.") +
                       std::string(SearchAlgorithmName(algorithm)) + ".nanos")
          .Increment(static_cast<uint64_t>(millis * 1e6));
      if (const char* trip = GovernorTripCounter(outcome.stop)) {
        metrics_->GetCounter(trip).Increment();
      }
    }
    SearchStats& stats = result_.stats;
    stats.states_examined += outcome.stats.states_examined;
    stats.states_generated += outcome.stats.states_generated;
    stats.iterations += outcome.stats.iterations;
    stats.peak_memory_nodes =
        std::max(stats.peak_memory_nodes, outcome.stats.peak_memory_nodes);
    states_left_ -= std::min(states_left_, outcome.stats.states_examined);
    if (outcome.best_h >= 0 &&
        (best_partial_h_ < 0 || outcome.best_h < best_partial_h_)) {
      best_partial_h_ = outcome.best_h;
      best_partial_ = outcome.best_path;
    }
  }

  // Books what outlives the attempts: the anytime partial mapping, the
  // checkpoint writes, and the supervisor's interventions.
  void Finish() {
    result_.partial_mapping = MappingExpression(std::move(best_partial_));
    result_.partial_h = best_partial_h_;
    if (sink_ != nullptr) result_.checkpoint_writes = sink_->writes();
    if (supervisor_ != nullptr) {
      result_.stall_preemptions = supervisor_->stall_preemptions();
      result_.memory_reliefs =
          supervisor_->memory_reliefs() + supervisor_->width_trims();
      result_.states_quarantined = quarantine_->poisoned();
      if (metrics_ != nullptr && result_.states_quarantined > 0) {
        metrics_->GetCounter("supervisor.states_quarantined")
            .Increment(result_.states_quarantined);
      }
    }
  }

  const TupeloOptions& options_;
  const Plan& plan_;
  const Tupelo& tupelo_;
  TupeloResult& result_;
  obs::MetricRegistry* const metrics_;
  obs::TraceSession* const trace_;

  uint64_t states_left_;
  std::vector<Op> best_partial_;
  int best_partial_h_ = -1;

  std::unique_ptr<CancelToken> kill_token_;
  std::unique_ptr<FileCheckpointSink> sink_;
  CancelToken* cancel_ = nullptr;

  HeartbeatSlot heartbeat_;
  std::atomic<uint32_t> width_pressure_{0};
  std::unique_ptr<StateQuarantine> quarantine_;
  std::unique_ptr<runtime::Supervisor> supervisor_;
};

// Verify step: optionally simplifies the found mapping, then replays it on
// the source and checks that the result contains the target.
void Verify(const TupeloOptions& options, const Tupelo& tupelo,
            std::vector<Op> path, TupeloResult* result) {
  obs::MetricRegistry* const metrics = options.metrics;
  result->mapping = MappingExpression(std::move(path));
  if (options.simplify) {
    Clock::time_point simplify_start = Clock::now();
    obs::TraceSpan simplify_span(options.trace, obs::TraceCategory::kDriver,
                                 "simplify");
    result->mapping = Simplify(result->mapping);
    if (metrics != nullptr) {
      metrics->GetCounter("phase.simplify.nanos")
          .Increment(static_cast<uint64_t>(MillisSince(simplify_start) * 1e6));
    }
  }
  Clock::time_point verify_start = Clock::now();
  obs::TraceSpan verify_span(options.trace, obs::TraceCategory::kVerify,
                             "verify");
  Result<Database> replay =
      SafeReplay(result->mapping, tupelo.source(), tupelo.registry());
  if (!replay.ok()) {
    result->verify_status = replay.status();
  } else if (!replay->Contains(tupelo.target())) {
    result->verify_status = Status::Internal(
        "replayed mapping does not contain the target instance");
  }
  result->verified = result->verify_status.ok();
  verify_span.SetEndArg("ok", result->verified ? 1 : 0);
  if (metrics != nullptr) {
    metrics->GetCounter("phase.verify.nanos")
        .Increment(static_cast<uint64_t>(MillisSince(verify_start) * 1e6));
  }
}

// A trace session's counters when a Discover call starts. The session may
// be shared across several calls, so only this call's delta counts.
struct TraceMark {
  explicit TraceMark(const obs::TraceSession* trace)
      : recorded(trace != nullptr ? trace->events_recorded() : 0),
        dropped(trace != nullptr ? trace->events_dropped() : 0),
        faults(trace != nullptr ? trace->fault_count() : 0) {}
  uint64_t recorded;
  uint64_t dropped;
  uint64_t faults;
};

// Report step: closes the call's "discover" span, dumps the flight
// recorder when the run ended badly, and mirrors the call's trace event
// counts into the registry.
void ReportTrace(const TupeloOptions& options, const TraceMark& mark,
                 const TupeloResult& result) {
  obs::TraceSession* const trace = options.trace;
  if (trace == nullptr) return;
  trace->EmitEnd(obs::TraceCategory::kDriver, "discover", "found",
                 result.found ? 1 : 0, "rungs_run",
                 static_cast<int64_t>(result.rungs.size()));
  // A bad end is a resource/cancel stop (including the checkpoint-kill
  // seam), a mapping that failed verification, or a traced
  // fault-injection fire; the retained last events show what the run was
  // doing.
  if (!options.flight_recorder_path.empty()) {
    const bool bad_stop =
        !result.found && result.stop_reason != StopReason::kExhausted;
    const bool unverified = result.found && !result.verified;
    const bool faulted = trace->fault_count() > mark.faults;
    if (bad_stop || unverified || faulted) {
      trace->WriteChromeJson(options.flight_recorder_path);
    }
  }
  if (options.metrics != nullptr) {
    options.metrics->GetCounter("trace.events_recorded")
        .Increment(trace->events_recorded() - mark.recorded);
    options.metrics->GetCounter("trace.events_dropped")
        .Increment(trace->events_dropped() - mark.dropped);
  }
}

}  // namespace

std::vector<DegradationRung> DefaultLadder() {
  return {{SearchAlgorithm::kIda, 0.6}, {SearchAlgorithm::kBeam, 1.0}};
}

Result<TupeloResult> Tupelo::Discover(const TupeloOptions& options) const {
  const TraceMark mark(options.trace);
  TUPELO_ASSIGN_OR_RETURN(Plan plan, PlanDiscover(options, *this));
  // The whole-run span is emitted manually (not RAII) so ReportTrace can
  // close it before the flight-recorder dump.
  if (options.trace != nullptr) {
    options.trace->EmitBegin(obs::TraceCategory::kDriver, "discover", "rungs",
                             static_cast<int64_t>(plan.ladder.size()));
  }

  TupeloResult result;
  result.resumed = plan.resumed;
  result.resume_rungs_skipped =
      plan.resumed ? static_cast<int>(plan.first_rung) : 0;
  LadderRun ladder(options, plan, *this, &result);
  std::vector<Op> found_path = ladder.Run();
  if (options.metrics != nullptr) {
    options.metrics->GetCounter("phase.search.nanos")
        .Increment(static_cast<uint64_t>(MillisSince(plan.start) * 1e6));
  }

  if (result.found) {
    result.stop_reason = StopReason::kFound;
    Verify(options, *this, std::move(found_path), &result);
  }
  ReportTrace(options, mark, result);
  return result;
}

Result<TupeloResult> DiscoverMapping(
    const Database& source, const Database& target,
    const TupeloOptions& options, const FunctionRegistry* registry,
    std::vector<SemanticCorrespondence> correspondences) {
  Tupelo tupelo(source, target);
  tupelo.set_registry(registry);
  for (SemanticCorrespondence& c : correspondences) {
    tupelo.AddCorrespondence(std::move(c));
  }
  return tupelo.Discover(options);
}

}  // namespace tupelo
