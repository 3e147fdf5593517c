#include "core/tupelo.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "fira/optimizer.h"
#include "search/a_star.h"
#include "search/beam.h"
#include "search/greedy.h"
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

// Dispatches one rung's algorithm. Beam rungs fan their levels out over
// `pool` when it has more than one worker. `seed` (nullable) resumes the
// algorithm from a checkpointed core. Each rung shows up on the trace as
// a "rung.<algo>" driver span (literal names: the session records only
// the name pointer).
SearchOutcome<Op> RunRung(SearchAlgorithm algorithm,
                          const MappingProblem& problem, size_t beam_width,
                          ThreadPool* pool, const SearchLimits& limits,
                          obs::MetricRegistry* metrics,
                          const SearchSeed<Database, Op>* seed = nullptr,
                          obs::TraceSession* trace = nullptr) {
  const SearchContext<Database, Op> ctx{metrics, trace, seed};
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
      return AStarSearch(problem, limits, ctx);
    }
    case SearchAlgorithm::kGreedy: {
      obs::TraceSpan span(trace, obs::TraceCategory::kDriver, "rung.greedy");
      return GreedySearch(problem, limits, ctx);
    }
    case SearchAlgorithm::kBeam: {
      obs::TraceSpan span(trace, obs::TraceCategory::kDriver, "rung.beam");
      return BeamSearch(problem, beam_width, limits, ctx, pool);
    }
  }
  return {};
}

// Writes DiscoveryCheckpoint files from the snapshots the active rung's
// search offers. One instance serves the whole Discover call; BeginRung
// repoints it at each rung's position/budget context. When
// `kill_after` > 0, the sink cancels `kill_token` right after that many
// successful writes — the deterministic crash seam the fault campaign and
// the crash-equivalence tests kill runs with.
class FileCheckpointSink : public CheckpointSink<Database, Op> {
 public:
  FileCheckpointSink(std::string path, uint64_t interval_states,
                     Fp128 source_fp, Fp128 target_fp, int ladder_size,
                     int64_t deadline_total, Clock::time_point search_start,
                     obs::MetricRegistry* metrics, obs::TraceSession* trace,
                     CancelToken* kill_token, uint64_t kill_after,
                     const std::function<void(const DiscoverProgress&)>*
                         on_progress = nullptr)
      : path_(std::move(path)),
        interval_(interval_states == 0 ? 1 : interval_states),
        source_fp_(source_fp),
        target_fp_(target_fp),
        ladder_size_(ladder_size),
        deadline_total_(deadline_total),
        search_start_(search_start),
        metrics_(metrics),
        trace_(trace),
        kill_token_(kill_token),
        kill_after_(kill_after),
        on_progress_(on_progress) {}

  // Repoints the sink at the rung about to run. `states_budget_left` is
  // the whole-run state budget before this rung starts. Unless the rung is
  // being resumed from a frontier (whose checkpoint must not be clobbered
  // by an empty one), a rung-entry checkpoint is written immediately so a
  // kill between snapshots restarts at this rung, not an earlier one.
  void BeginRung(int rung_index, SearchAlgorithm algorithm,
                 uint64_t states_budget_left, bool resumed_rung) {
    rung_index_ = rung_index;
    algorithm_ = std::string(SearchAlgorithmName(algorithm));
    states_budget_left_ = states_budget_left;
    next_due_ = interval_;
    if (!resumed_rung) {
      SearchSeed<Database, Op> empty;
      WriteSnapshot(empty);
    }
  }

  bool WantSnapshot(uint64_t states_examined) override {
    return states_examined >= next_due_;
  }

  void OnSnapshot(SearchSeed<Database, Op> seed) override {
    WriteSnapshot(seed);
    next_due_ = seed.states_examined + interval_;
  }

  uint64_t writes() const { return writes_; }

 private:
  void WriteSnapshot(const SearchSeed<Database, Op>& seed) {
    obs::TraceSpan span(trace_, obs::TraceCategory::kCheckpoint,
                        "checkpoint.write", "rung",
                        static_cast<int64_t>(rung_index_));
    DiscoveryCheckpoint cp;
    cp.source_fp = source_fp_;
    cp.target_fp = target_fp_;
    cp.algorithm = algorithm_;
    cp.rung_index = rung_index_;
    cp.ladder_size = ladder_size_;
    cp.states_left = static_cast<int64_t>(
        states_budget_left_ > seed.states_examined
            ? states_budget_left_ - seed.states_examined
            : 0);
    if (deadline_total_ > 0) {
      int64_t left =
          deadline_total_ - static_cast<int64_t>(MillisSince(search_start_));
      cp.deadline_left_millis = left > 0 ? left : 0;
    }
    cp.states_examined = seed.states_examined;
    cp.best_path = seed.best_path;
    cp.best_h = seed.best_h;
    cp.ida_bound = seed.ida_bound;
    cp.beam_depth = seed.beam_depth;
    cp.frontier.reserve(seed.frontier.size());
    for (const auto& node : seed.frontier) {
      cp.frontier.push_back({node.state, node.path, node.h});
    }
    cp.open.reserve(seed.open.size());
    for (const auto& node : seed.open) {
      cp.open.push_back({node.path, node.key, node.seq});
    }
    cp.next_seq = seed.next_seq;
    cp.closed = seed.closed;

    std::string text = WriteCheckpoint(cp);
    // A failed write is deliberately non-fatal: checkpointing must never
    // take down the search it protects. The write counter only moves on
    // success, so the kill seam still fires at real checkpoint boundaries.
    // Failures are surfaced anyway — AtomicWriteFile now returns typed
    // errors for short writes and close failures (ENOSPC), and those land
    // on the checkpoint.write_failures counter and a trace instant so a
    // run silently losing its crash safety is visible post-mortem.
    Status wrote = AtomicWriteFile(path_, text);
    if (wrote.ok()) {
      ++writes_;
      span.SetEndArg("bytes", static_cast<int64_t>(text.size()));
      if (metrics_ != nullptr) {
        metrics_->GetCounter("checkpoint.writes").Increment();
        metrics_->GetCounter("checkpoint.bytes").Increment(text.size());
      }
      // Progress rides the checkpoint cadence: a sample is only reported
      // once it is durable, so a streamed partial mapping is always one a
      // crash-restarted run would also recover.
      if (on_progress_ != nullptr && *on_progress_) {
        DiscoverProgress progress;
        progress.rung_index = rung_index_;
        progress.states_examined = seed.states_examined;
        progress.best_path = &seed.best_path;
        progress.best_h = seed.best_h;
        (*on_progress_)(progress);
      }
      if (kill_after_ > 0 && writes_ >= kill_after_ &&
          kill_token_ != nullptr) {
        kill_token_->Cancel();
      }
    } else {
      span.SetEndArg("failed", 1);
      if (metrics_ != nullptr) {
        metrics_->GetCounter("checkpoint.write_failures").Increment();
      }
      if (trace_ != nullptr) {
        trace_->EmitInstant(obs::TraceCategory::kCheckpoint,
                            "checkpoint.write_failed", "rung",
                            static_cast<int64_t>(rung_index_));
      }
    }
  }

  const std::string path_;
  const uint64_t interval_;
  const Fp128 source_fp_;
  const Fp128 target_fp_;
  const int ladder_size_;
  const int64_t deadline_total_;
  const Clock::time_point search_start_;
  obs::MetricRegistry* const metrics_;
  obs::TraceSession* const trace_;
  CancelToken* const kill_token_;
  const uint64_t kill_after_;
  const std::function<void(const DiscoverProgress&)>* const on_progress_;

  int rung_index_ = 0;
  std::string algorithm_;
  uint64_t states_budget_left_ = 0;
  uint64_t next_due_ = 0;
  uint64_t writes_ = 0;
};

}  // namespace

std::vector<DegradationRung> DefaultLadder() {
  return {{SearchAlgorithm::kIda, 0.6}, {SearchAlgorithm::kBeam, 1.0}};
}

std::string RunReport::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "search=%.2fms (successors=%.2fms) verify=%.2fms "
                "simplify=%.2fms",
                search_millis, successor_millis, verify_millis,
                simplify_millis);
  return buf;
}

Result<TupeloResult> Tupelo::Discover(const TupeloOptions& options) const {
  if (!correspondences_.empty() && registry_ == nullptr) {
    return Status::FailedPrecondition(
        "semantic correspondences supplied but no function registry set");
  }
  for (const SemanticCorrespondence& c : correspondences_) {
    if (registry_ == nullptr || !registry_->Has(c.function)) {
      return Status::NotFound("correspondence uses unregistered function '" +
                              c.function + "'");
    }
    TUPELO_ASSIGN_OR_RETURN(const ComplexFunction* fn,
                            registry_->Lookup(c.function));
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

  // Validate the heuristic kind once up front (rungs only vary the
  // algorithm, which can never make MakeHeuristic fail).
  if (MakeHeuristic(options.heuristic, target_, options.algorithm,
                    options.scale_k) == nullptr) {
    return Status::InvalidArgument("unknown heuristic kind");
  }

  // The rung sequence: the ladder when configured, else one rung running
  // the configured algorithm on the full budget.
  std::vector<DegradationRung> ladder = options.ladder;
  if (ladder.empty()) {
    ladder.push_back(DegradationRung{options.algorithm, 1.0});
  }

  if (!options.flight_recorder_path.empty() && options.trace == nullptr) {
    return Status::InvalidArgument(
        "TupeloOptions::flight_recorder_path requires a trace session");
  }

  obs::MetricRegistry* metrics = options.metrics;
  obs::TraceSession* trace = options.trace;
  // Baselines for the trace.events_* metric mirror and the fault-fire
  // dump trigger: the session may be shared across several Discover
  // calls, so only this call's delta counts.
  const uint64_t trace_recorded_before =
      trace != nullptr ? trace->events_recorded() : 0;
  const uint64_t trace_dropped_before =
      trace != nullptr ? trace->events_dropped() : 0;
  const uint64_t trace_faults_before =
      trace != nullptr ? trace->fault_count() : 0;
  // The whole-run driver span is emitted manually (not RAII) so the
  // flight-recorder dump below can close it first; error returns leave an
  // open B, which export-time reconciliation closes at the last event.
  if (trace != nullptr) {
    trace->EmitBegin(obs::TraceCategory::kDriver, "discover", "rungs",
                     static_cast<int64_t>(ladder.size()));
  }
  TupeloResult result;
  SearchOutcome<Op> found_outcome;
  Clock::time_point search_start = Clock::now();
  int64_t deadline_total = options.limits.deadline_millis;
  uint64_t states_left = options.limits.max_states;
  // The heuristically closest state seen across rungs (anytime result).
  std::vector<Op> best_partial;
  int best_partial_h = -1;

  // Checkpoint/resume plumbing (sequential ladder only: the portfolio has
  // no single rung position to snapshot).
  const bool checkpointing = !options.checkpoint_path.empty();
  if ((checkpointing || options.resume) && options.portfolio &&
      ladder.size() > 1) {
    return Status::FailedPrecondition(
        "checkpoint/resume is not supported with the concurrent portfolio");
  }
  if (options.resume && !checkpointing) {
    return Status::InvalidArgument(
        "TupeloOptions::resume requires checkpoint_path");
  }

  size_t first_rung = 0;
  SearchSeed<Database, Op> resume_seed;
  bool have_resume_seed = false;
  if (options.resume) {
    obs::TraceSpan resume_span(trace, obs::TraceCategory::kCheckpoint,
                               "resume.load");
    Result<DiscoveryCheckpoint> loaded =
        LoadCheckpointFile(options.checkpoint_path);
    if (!loaded.ok() && loaded.status().code() == StatusCode::kNotFound) {
      // Killed before the first write: nothing to resume, fresh start.
    } else if (!loaded.ok()) {
      return loaded.status();
    } else {
      const DiscoveryCheckpoint& cp = *loaded;
      if (!(cp.source_fp == source_.Fingerprint128()) ||
          !(cp.target_fp == target_.Fingerprint128())) {
        return Status::FailedPrecondition(
            "checkpoint was written by a different workload");
      }
      if (cp.ladder_size != static_cast<int>(ladder.size()) ||
          cp.rung_index >= static_cast<int>(ladder.size()) ||
          cp.algorithm !=
              SearchAlgorithmName(ladder[cp.rung_index].algorithm)) {
        return Status::FailedPrecondition(
            "checkpoint does not match this run's ladder");
      }
      first_rung = static_cast<size_t>(cp.rung_index);
      states_left =
          cp.states_left > 0 ? static_cast<uint64_t>(cp.states_left) : 0;
      if (deadline_total > 0) deadline_total = cp.deadline_left_millis;
      best_partial = cp.best_path;
      best_partial_h = cp.best_h;
      resume_seed.states_examined = cp.states_examined;
      resume_seed.best_path = cp.best_path;
      resume_seed.best_h = cp.best_h;
      resume_seed.ida_bound = cp.ida_bound;
      resume_seed.beam_depth = cp.beam_depth;
      resume_seed.frontier.reserve(cp.frontier.size());
      for (const CheckpointFrontierEntry& e : cp.frontier) {
        resume_seed.frontier.push_back({e.state, e.path, e.h});
      }
      resume_seed.open.reserve(cp.open.size());
      for (const CheckpointOpenEntry& e : cp.open) {
        // Open-list states are not stored; replay them from their action
        // paths (operators are deterministic).
        TUPELO_ASSIGN_OR_RETURN(
            Database state,
            MappingExpression(e.path).Apply(source_, registry_));
        resume_seed.open.push_back({std::move(state), e.path, e.key, e.seq});
      }
      resume_seed.next_seq = cp.next_seq;
      resume_seed.closed = cp.closed;
      have_resume_seed = true;
      result.resumed = true;
      result.resume_rungs_skipped = static_cast<int>(first_rung);
      if (metrics != nullptr && first_rung > 0) {
        metrics->GetCounter("checkpoint.resume.rungs_skipped")
            .Increment(first_rung);
      }
    }
  }

  std::unique_ptr<CancelToken> kill_token;
  std::unique_ptr<FileCheckpointSink> sink;
  if (checkpointing) {
    // Hygiene: a crash between AtomicWriteFile's write and rename leaves
    // `<path>.tmp` behind. It is never valid input (loads read only the
    // final path), so sweep it before the first write of this run.
    RemoveStaleCheckpointTmp(options.checkpoint_path);
    kill_token = std::make_unique<CancelToken>(options.limits.cancel);
    sink = std::make_unique<FileCheckpointSink>(
        options.checkpoint_path, options.checkpoint_interval_states,
        source_.Fingerprint128(), target_.Fingerprint128(),
        static_cast<int>(ladder.size()), deadline_total, search_start,
        metrics, trace, kill_token.get(), options.checkpoint_kill_after,
        &options.on_progress);
  }

  // Self-healing supervision (sequential ladder only: portfolio rungs own
  // their budgets and cancel one another already). The heartbeat slot is
  // declared before the pool so it outlives the workers that stamp it —
  // a worker bumps `beats` after finishing a task, which can land just
  // after the search's own barrier has released.
  const bool supervised =
      options.supervisor.enabled && !(options.portfolio && ladder.size() > 1);
  HeartbeatSlot heartbeat;
  std::atomic<uint32_t> width_pressure{0};
  std::unique_ptr<StateQuarantine> quarantine;
  std::unique_ptr<runtime::Supervisor> supervisor;
  if (supervised) {
    quarantine =
        std::make_unique<StateQuarantine>(options.supervisor.quarantine_capacity);
    supervisor = std::make_unique<runtime::Supervisor>(options.supervisor,
                                                       metrics, trace);
  }

  // The parallel runtime: one pool per Discover call, joined before
  // return. Beam rungs fan their levels out over it. The task tracer is
  // declared before the pool so it outlives the workers that call it.
  obs::PoolTaskTracer pool_task_tracer(trace);
  size_t threads = std::max<size_t>(1, options.threads);
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = options.pool;
  if (pool != nullptr) {
    // Shared pool: beam rungs fan out over the caller's pool. Its trace
    // hook and task heartbeat belong to the owner — a per-call install
    // would race with sibling Discover calls sharing the same pool — so
    // supervised stall detection relies on the search thread's beats.
    threads = std::max<size_t>(1, pool->size());
  } else if (threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(threads);
    pool = owned_pool.get();
    if (trace != nullptr) pool->set_trace_hook(&pool_task_tracer);
    if (supervised) pool->set_task_heartbeat(&heartbeat.beats);
  }
  if (metrics != nullptr) {
    metrics->GetGauge("runtime.threads").Set(static_cast<int64_t>(threads));
  }

  if (options.portfolio && ladder.size() > 1) {
    // Concurrent portfolio: all rungs start at once, each on its own
    // thread with the full budget (there is no fallback order to ration).
    // The first rung whose mapping replays correctly claims the win and
    // cancels the rest through their parented tokens.
    //
    // Prewarm the shared instances' lazy fingerprint caches while still
    // single-threaded: rung problems and verification replays all read
    // source_/target_ concurrently.
    source_.Fingerprint128();
    target_.Fingerprint128();

    struct PortfolioRun {
      SearchOutcome<Op> outcome;
      double millis = 0.0;
      bool verified = false;
    };
    std::vector<std::unique_ptr<MappingProblem>> problems;
    std::vector<std::unique_ptr<CancelToken>> tokens;
    problems.reserve(ladder.size());
    tokens.reserve(ladder.size());
    for (size_t i = 0; i < ladder.size(); ++i) {
      problems.push_back(std::make_unique<MappingProblem>(
          source_, target_,
          MakeHeuristic(options.heuristic, target_, ladder[i].algorithm,
                        options.scale_k),
          registry_, correspondences_, options.successors));
      problems.back()->set_metrics(metrics);
      problems.back()->set_trace(trace);
      tokens.push_back(std::make_unique<CancelToken>(options.limits.cancel));
    }
    std::vector<PortfolioRun> runs(ladder.size());
    std::mutex winner_mu;
    int winner = -1;
    if (metrics != nullptr) {
      metrics->GetCounter("runtime.portfolio.rungs")
          .Increment(ladder.size());
    }

    {
      std::vector<std::thread> rung_threads;
      rung_threads.reserve(ladder.size());
      for (size_t i = 0; i < ladder.size(); ++i) {
        rung_threads.emplace_back([&, i] {
          SearchLimits rung_limits = options.limits;
          rung_limits.cancel = tokens[i].get();
          Clock::time_point rung_start = Clock::now();
          SearchOutcome<Op> outcome =
              RunRung(ladder[i].algorithm, *problems[i], options.beam_width,
                      pool, rung_limits, metrics, nullptr, trace);
          runs[i].millis = MillisSince(rung_start);
          if (outcome.found) {
            // Verify here, in the rung thread: an unverifiable mapping
            // must not cancel a rung that could still produce a correct
            // one.
            obs::TraceSpan verify_span(trace, obs::TraceCategory::kVerify,
                                       "verify");
            Result<Database> replay = SafeReplay(
                MappingExpression(outcome.path), source_, registry_);
            runs[i].verified = replay.ok() && replay->Contains(target_);
            verify_span.SetEndArg("ok", runs[i].verified ? 1 : 0);
          }
          runs[i].outcome = std::move(outcome);
          if (runs[i].verified) {
            std::lock_guard<std::mutex> lock(winner_mu);
            if (winner < 0) {
              winner = static_cast<int>(i);
              for (size_t j = 0; j < tokens.size(); ++j) {
                if (j != i) tokens[j]->Cancel();
              }
            }
          }
        });
      }
      for (std::thread& t : rung_threads) t.join();
    }

    // Record attempts in ladder order regardless of finish order, so
    // reports are stable run to run.
    for (size_t i = 0; i < ladder.size(); ++i) {
      const PortfolioRun& run = runs[i];
      result.rungs.push_back(RungAttempt{ladder[i].algorithm,
                                         run.outcome.stop,
                                         run.outcome.stats.states_examined,
                                         run.millis});
      if (metrics != nullptr) {
        metrics->GetCounter("governor.rungs_attempted").Increment();
        metrics
            ->GetCounter(
                std::string("governor.rung.") +
                std::string(SearchAlgorithmName(ladder[i].algorithm)) +
                ".nanos")
            .Increment(static_cast<uint64_t>(run.millis * 1e6));
        switch (run.outcome.stop) {
          case StopReason::kDeadline:
            metrics->GetCounter("governor.deadline_trips").Increment();
            break;
          case StopReason::kCancelled:
            metrics->GetCounter("governor.cancellations").Increment();
            break;
          case StopReason::kMemory:
            metrics->GetCounter("governor.memory_trips").Increment();
            break;
          default:
            break;
        }
      }
      result.stats.states_examined += run.outcome.stats.states_examined;
      result.stats.states_generated += run.outcome.stats.states_generated;
      result.stats.iterations += run.outcome.stats.iterations;
      result.stats.peak_memory_nodes =
          std::max(result.stats.peak_memory_nodes,
                   run.outcome.stats.peak_memory_nodes);
      if (run.outcome.best_h >= 0 &&
          (best_partial_h < 0 || run.outcome.best_h < best_partial_h)) {
        best_partial_h = run.outcome.best_h;
        best_partial = run.outcome.best_path;
      }
    }
    // A found-but-unverifiable mapping still surfaces (found=true with a
    // failing verify_status), matching the sequential ladder's behavior —
    // it just never cancels the other rungs.
    if (winner < 0) {
      for (size_t i = 0; i < runs.size(); ++i) {
        if (runs[i].outcome.found) {
          winner = static_cast<int>(i);
          break;
        }
      }
    }
    if (winner >= 0) {
      result.found = true;
      result.stats.solution_cost =
          runs[winner].outcome.stats.solution_cost;
      result.stop_reason = runs[winner].outcome.stop;
      found_outcome = std::move(runs[winner].outcome);
      if (metrics != nullptr) {
        metrics->GetCounter("runtime.portfolio.losers_cancelled")
            .Increment(ladder.size() - 1);
      }
    } else {
      result.stop_reason = runs.back().outcome.stop;
    }
  } else
  for (size_t i = first_rung; i < ladder.size(); ++i) {
    const bool last = i + 1 == ladder.size();
    if (i > first_rung && metrics != nullptr) {
      metrics->GetCounter("governor.fallback_activations").Increment();
    }

    SearchLimits rung_limits = options.limits;
    rung_limits.max_states = RungSlice(states_left, ladder[i].budget_share,
                                       last);
    if (deadline_total > 0) {
      int64_t remaining =
          deadline_total - static_cast<int64_t>(MillisSince(search_start));
      if (remaining <= 0) {
        // The overall deadline expired between rungs: record the skipped
        // rung as an immediate deadline trip so the report shows it.
        result.rungs.push_back(
            RungAttempt{ladder[i].algorithm, StopReason::kDeadline, 0, 0.0});
        result.stop_reason = StopReason::kDeadline;
        if (metrics != nullptr) {
          metrics->GetCounter("governor.deadline_trips").Increment();
        }
        break;
      }
      rung_limits.deadline_millis = static_cast<int64_t>(RungSlice(
          static_cast<uint64_t>(remaining), ladder[i].budget_share, last));
    }

    std::unique_ptr<Heuristic> heuristic =
        MakeHeuristic(options.heuristic, target_, ladder[i].algorithm,
                      options.scale_k);
    MappingProblem problem(source_, target_, std::move(heuristic), registry_,
                           correspondences_, options.successors);
    problem.set_metrics(metrics);
    problem.set_trace(trace);

    const bool resumed_rung = have_resume_seed && i == first_rung;
    if (sink != nullptr) {
      sink->BeginRung(static_cast<int>(i), ladder[i].algorithm, states_left,
                      resumed_rung);
      rung_limits.checkpoint_sink = sink.get();
      rung_limits.cancel = kill_token.get();
    }

    // Genuine cancellation for this rung comes from the kill seam (when
    // checkpointing) or the caller's token; the supervisor's preempt
    // token is parented on it so a caller cancel still lands instantly.
    CancelToken* const ladder_cancel =
        sink != nullptr ? kill_token.get() : options.limits.cancel;

    // A stall-preempted rung is retried in place with exponential backoff
    // (transient faults — a slow disk, an injected delay — clear on their
    // own); anything else runs the attempt loop exactly once.
    SearchOutcome<Op> outcome;
    int64_t backoff_millis =
        std::max<int64_t>(1, options.supervisor.retry_backoff_millis);
    for (int attempt = 0;; ++attempt) {
      SearchLimits attempt_limits = rung_limits;
      CancelToken rung_token(ladder_cancel);
      int64_t watch_id = -1;
      if (supervised) {
        attempt_limits.cancel = &rung_token;
        attempt_limits.heartbeat = &heartbeat;
        attempt_limits.quarantine = quarantine.get();
        attempt_limits.width_pressure = &width_pressure;
        runtime::WatchSpec spec;
        spec.heartbeat = &heartbeat;
        spec.preempt = &rung_token;
        spec.max_memory_nodes = attempt_limits.max_memory_nodes;
        spec.memory_relief = [&problem] { problem.TrimCaches(); };
        spec.width_pressure = &width_pressure;
        spec.label = SearchAlgorithmName(ladder[i].algorithm).data();
        watch_id = supervisor->Watch(spec);
      }

      Clock::time_point rung_start = Clock::now();
      outcome =
          RunRung(ladder[i].algorithm, problem, options.beam_width,
                  pool, attempt_limits, metrics,
                  resumed_rung ? &resume_seed : nullptr, trace);
      double rung_millis = MillisSince(rung_start);

      runtime::PreemptReason why = runtime::PreemptReason::kNone;
      if (watch_id >= 0) {
        why = supervisor->preemption(watch_id);
        supervisor->Unwatch(watch_id);
      }
      // The rung observed its preempt token as a plain cancel; rewrite
      // the stop to what the supervisor actually diagnosed. A genuine
      // caller/kill cancel wins over any concurrent preemption.
      if (outcome.stop == StopReason::kCancelled &&
          !(ladder_cancel != nullptr && ladder_cancel->cancelled())) {
        if (why == runtime::PreemptReason::kStall) {
          outcome.stop = StopReason::kStalled;
        } else if (why == runtime::PreemptReason::kMemory) {
          outcome.stop = StopReason::kMemory;
        }
      }

      result.rungs.push_back(RungAttempt{ladder[i].algorithm, outcome.stop,
                                         outcome.stats.states_examined,
                                         rung_millis});
      if (metrics != nullptr) {
        metrics->GetCounter("governor.rungs_attempted").Increment();
        metrics
            ->GetCounter(
                std::string("governor.rung.") +
                std::string(SearchAlgorithmName(ladder[i].algorithm)) +
                ".nanos")
            .Increment(static_cast<uint64_t>(rung_millis * 1e6));
        switch (outcome.stop) {
          case StopReason::kDeadline:
            metrics->GetCounter("governor.deadline_trips").Increment();
            break;
          case StopReason::kCancelled:
            metrics->GetCounter("governor.cancellations").Increment();
            break;
          case StopReason::kMemory:
            metrics->GetCounter("governor.memory_trips").Increment();
            break;
          case StopReason::kStalled:
            metrics->GetCounter("governor.stall_trips").Increment();
            break;
          default:
            break;
        }
      }

      result.stats.states_examined += outcome.stats.states_examined;
      result.stats.states_generated += outcome.stats.states_generated;
      result.stats.iterations += outcome.stats.iterations;
      result.stats.peak_memory_nodes = std::max(
          result.stats.peak_memory_nodes, outcome.stats.peak_memory_nodes);
      states_left -= std::min(states_left, outcome.stats.states_examined);
      if (outcome.best_h >= 0 &&
          (best_partial_h < 0 || outcome.best_h < best_partial_h)) {
        best_partial_h = outcome.best_h;
        best_partial = outcome.best_path;
      }

      if (supervised && outcome.stop == StopReason::kStalled &&
          attempt < options.supervisor.max_rung_retries &&
          !(ladder_cancel != nullptr && ladder_cancel->cancelled())) {
        ++result.rung_retries;
        if (metrics != nullptr) {
          metrics->GetCounter("supervisor.rung_retries").Increment();
        }
        if (trace != nullptr) {
          trace->EmitInstant(obs::TraceCategory::kFault,
                             "supervisor.rung_retry", "rung",
                             static_cast<int64_t>(i), "attempt",
                             static_cast<int64_t>(attempt + 1));
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoff_millis));
        backoff_millis *= 2;
        continue;
      }
      break;
    }
    result.stop_reason = outcome.stop;

    if (outcome.found) {
      result.found = true;
      result.stats.solution_cost = outcome.stats.solution_cost;
      found_outcome = std::move(outcome);
      break;
    }
    // kExhausted on a complete algorithm is conclusive, but later rungs
    // are cheap and the sweep may have been cut by the per-rung slice on
    // a previous rung, so the ladder only stops early when the caller
    // cancelled (retrying cannot help) or this was the last rung.
    if (outcome.stop == StopReason::kCancelled) break;
    if (options.limits.cancel != nullptr &&
        options.limits.cancel->cancelled()) {
      result.stop_reason = StopReason::kCancelled;
      break;
    }
  }
  result.report.search_millis = MillisSince(search_start);
  if (sink != nullptr) result.checkpoint_writes = sink->writes();

  if (supervised) {
    result.stall_preemptions = supervisor->stall_preemptions();
    result.memory_reliefs =
        supervisor->memory_reliefs() + supervisor->width_trims();
    result.states_quarantined = quarantine->poisoned();
    if (metrics != nullptr && result.states_quarantined > 0) {
      metrics->GetCounter("supervisor.states_quarantined")
          .Increment(result.states_quarantined);
    }
  }

  result.partial_mapping = MappingExpression(std::move(best_partial));
  result.partial_h = best_partial_h;
  if (result.found) {
    result.stop_reason = StopReason::kFound;
    result.mapping = MappingExpression(std::move(found_outcome.path));
    if (options.simplify) {
      Clock::time_point simplify_start = Clock::now();
      obs::TraceSpan simplify_span(trace, obs::TraceCategory::kDriver,
                                   "simplify");
      result.mapping = Simplify(result.mapping);
      result.report.simplify_millis = MillisSince(simplify_start);
    }
    Clock::time_point verify_start = Clock::now();
    obs::TraceSpan verify_span(trace, obs::TraceCategory::kVerify, "verify");
    Result<Database> replay = SafeReplay(result.mapping, source_, registry_);
    if (!replay.ok()) {
      result.verified = false;
      result.verify_status = replay.status();
    } else if (!replay->Contains(target_)) {
      result.verified = false;
      result.verify_status = Status::Internal(
          "replayed mapping does not contain the target instance");
    } else {
      result.verified = true;
    }
    verify_span.SetEndArg("ok", result.verified ? 1 : 0);
    result.report.verify_millis = MillisSince(verify_start);
  }

  if (options.metrics != nullptr) {
    // Successor time accumulated in phase.successors.nanos during search.
    result.report.successor_millis =
        static_cast<double>(
            options.metrics->CounterValue("phase.successors.nanos")) /
        1e6;
    // Mirror the driver-level phase timers into the registry so exported
    // reports carry the full breakdown.
    options.metrics->GetCounter("phase.search.nanos")
        .Increment(static_cast<uint64_t>(result.report.search_millis * 1e6));
    options.metrics->GetCounter("phase.verify.nanos")
        .Increment(static_cast<uint64_t>(result.report.verify_millis * 1e6));
    options.metrics->GetCounter("phase.simplify.nanos")
        .Increment(
            static_cast<uint64_t>(result.report.simplify_millis * 1e6));
  }

  if (trace != nullptr) {
    trace->EmitEnd(obs::TraceCategory::kDriver, "discover", "found",
                   result.found ? 1 : 0, "rungs_run",
                   static_cast<int64_t>(result.rungs.size()));
    // Flight recorder: when the run ended badly — a resource/cancel stop
    // (including the checkpoint-kill seam), a mapping that failed
    // verification, or a traced fault-injection fire — dump the retained
    // last events so a post-mortem can see what the run was doing.
    if (!options.flight_recorder_path.empty()) {
      const bool bad_stop =
          !result.found && result.stop_reason != StopReason::kExhausted;
      const bool unverified = result.found && !result.verified;
      const bool faulted = trace->fault_count() > trace_faults_before;
      if (bad_stop || unverified || faulted) {
        trace->DumpFlightRecord(options.flight_recorder_path);
      }
    }
    if (metrics != nullptr) {
      metrics->GetCounter("trace.events_recorded")
          .Increment(trace->events_recorded() - trace_recorded_before);
      metrics->GetCounter("trace.events_dropped")
          .Increment(trace->events_dropped() - trace_dropped_before);
    }
  }
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
