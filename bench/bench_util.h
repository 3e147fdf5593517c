#ifndef TUPELO_BENCH_BENCH_UTIL_H_
#define TUPELO_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/tupelo.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/database.h"

namespace tupelo::bench {

// One measured discovery run.
struct RunResult {
  bool found = false;
  bool cutoff = false;  // budget exhausted before success
  std::string stop_reason = "exhausted";  // StopReasonName of the outcome
  bool verified = false;       // replay re-check passed (found runs only)
  std::string verify_error;    // verify_status text when the re-check failed
  int64_t deadline_millis = 0;  // the run's wall-clock budget (0: none)
  uint64_t states = 0;  // states examined (the paper's measure)
  uint64_t states_generated = 0;
  uint64_t iterations = 0;
  uint64_t peak_memory_nodes = 0;
  int depth = -1;
  double millis = 0.0;
  bool resumed = false;           // run restarted from a checkpoint
  uint64_t checkpoint_writes = 0;  // checkpoint files written during the run
};

// Runs TUPELO once and measures it. With a non-null `metrics`, the run
// populates the registry (search.*, heuristic.*, executor.*, phase.*) for
// inclusion in a JSON run report.
RunResult Measure(const Database& source, const Database& target,
                  const TupeloOptions& options,
                  const FunctionRegistry* registry = nullptr,
                  const std::vector<SemanticCorrespondence>& corrs = {},
                  obs::MetricRegistry* metrics = nullptr);

// "123"; ">250000*" when the run hit the state budget; "<stop>@<states>"
// (e.g. "depth@97") when another resource limit stopped it; "fail" when
// the search ended without a mapping.
std::string FormatStates(const RunResult& r, uint64_t budget);

// Prints a row of cells padded to `width`.
void PrintRow(const std::vector<std::string>& cells, int width = 12);

// Parses "--budget=N" / "--quick" / "--json=path" style flags shared by
// the harnesses.
struct BenchArgs {
  uint64_t budget = 250000;
  bool quick = false;  // smaller sweeps for smoke runs
  uint64_t seed = 2006;
  std::string json_path;  // empty: no JSON report
  // Worker threads for the parallel runtime (TupeloOptions::threads);
  // recorded at the report root so before/after records are comparable.
  uint64_t threads = 1;
  // Optional algorithm override ("--algo=beam" runs a figure harness's
  // panels under beam instead of its default algorithm); unset when empty.
  std::string algo;
  // --trace=path: record a Chrome trace-event JSON of the whole harness
  // run (one TraceSession shared across every measured run; open the file
  // in Perfetto). Empty: tracing off.
  std::string trace_path;
  // --trace-buffer-kb=N: per-thread trace ring size (obs/trace.h).
  uint64_t trace_buffer_kb = 256;
  // --flight-recorder: also arm TupeloOptions::flight_recorder_path at
  // "<trace_path>.flight" so runs that end badly dump their last events
  // there, as Chrome JSON like the --trace= export (each dump replaces the
  // previous one). Requires --trace=.
  bool flight_recorder = false;
};
// `default_budget` applies when no --budget flag is given; figure
// harnesses pick defaults matched to their paper axis ranges.
BenchArgs ParseBenchArgs(int argc, char** argv,
                         uint64_t default_budget = 250000);

// The current git commit SHA, or "unknown" outside a work tree.
std::string GitSha();

// Trace wiring shared by the harnesses: owns the TraceSession named by
// --trace=, threads it into each measured run's options, annotates the
// per-run JSON with that run's event/drop deltas, and writes the Chrome
// trace-event export at the end. Every method is a cheap no-op when
// --trace= was not given, so harnesses call them unconditionally (same
// convention as BenchReport).
class BenchTrace {
 public:
  explicit BenchTrace(const BenchArgs& args);
  ~BenchTrace();

  BenchTrace(const BenchTrace&) = delete;
  BenchTrace& operator=(const BenchTrace&) = delete;

  bool enabled() const { return session_ != nullptr; }
  obs::TraceSession* session() { return session_.get(); }

  // Sets options.trace (and flight_recorder_path, under --flight-recorder)
  // for one measured run.
  void Apply(TupeloOptions& options);

  // Adds the schema-7 per-run fields — "trace_path", "trace_events",
  // "trace_dropped" (deltas since the previous AnnotateRun) — to a run
  // object built by BenchReport::MakeRun.
  void AnnotateRun(obs::JsonValue& run);

  // Writes the Chrome trace JSON to the --trace= path; false (with a
  // stderr note) on I/O failure. No-op (true) when disabled.
  bool Write() const;

 private:
  std::string path_;
  std::string flight_path_;
  std::unique_ptr<obs::TraceSession> session_;
  uint64_t last_recorded_ = 0;
  uint64_t last_dropped_ = 0;
};

// Accumulates a machine-readable run report and writes it to the --json
// path on Write(). Layout (schema_version 11):
//
//   {"schema_version":11, "harness":..., "git_sha":..., "seed":...,
//    "quick":..., "budget":..., "threads":...,
//    "panels":[{"name":..., "runs":[{...axis fields..., "found":...,
//               "cutoff":..., "stop_reason":..., "verified":...,
//               "verify_error":..., "deadline_millis":...,
//               "states_examined":..., "wall_millis":...,
//               "resumed":..., "checkpoint_writes":...,
//               "metrics":{...MetricRegistry::ToJson()...}}, ...]}]}
//
// Schema 3 additions: run metrics may carry the state-substrate counters
// (state.cow_copies, state.relations_shared, expand.cache_hits/misses/
// evictions), and micro_bench --json runs carry *_ns per-substrate
// timing fields (see check_bench_json.py).
//
// Schema 4 additions: a root "threads" field (the --threads worker count
// the harness ran with), and run metrics may carry the parallel-runtime
// instruments (runtime.threads, beam.parallel.levels/tasks).
//
// Schema 5 additions: per-run "resumed" and "checkpoint_writes" fields
// (checkpoint/resume bookkeeping), and run metrics may carry the
// checkpoint.* instruments (checkpoint.writes/bytes,
// checkpoint.resume.rungs_skipped).
//
// Schema 6 additions: traced runs (--trace=) carry per-run "trace_path"
// (the harness-level Chrome trace file), "trace_events" and
// "trace_dropped" (this run's recorded/dropped event deltas; see
// BenchTrace::AnnotateRun), and run metrics may carry the trace.*
// counters (trace.events_recorded/events_dropped).
//
// Schema 7 additions: run metrics may carry the supervision instruments
// and micro_bench runs the heartbeat_tick_ns/expand_supervised_ns
// timings.
//
// Schema 8 additions: micro_bench runs carry the kernel timings
// edit_short_ns/edit_long_ns/term_hash_ns/term_merge_ns/
// estimate_batch_ns, and run metrics may carry the state.tnf_* counters
// and heuristic.levenshtein.tnf_hits/tnf_misses.
//
// Schema 9 additions: the compiled executor (fira/compile.h). Runs may
// carry an "executor" field ("interpreter" or "compiled"); bench_apply
// runs carry "case"/"tuples"/"apply_ns" (plus "speedup" and the
// fused_ops/interpreted_ops/segments plan shape on compiled runs), and
// run metrics may carry the executor.fused.* counters.
//
// Schema 10 additions: the discovery service (serve_loadgen's "serve"
// harness and the serve.* counters).
//
// Schema 11 drops the root "simd_dispatch" field that schema 8 added:
// the kernels have one implementation, so there is no tier to record.
//
// All methods are no-ops when constructed with an empty json_path, so
// harnesses call them unconditionally.
class BenchReport {
 public:
  BenchReport(std::string harness, const BenchArgs& args);

  bool enabled() const { return enabled_; }

  // Starts a new panel; subsequent AddRun calls attach to it.
  void BeginPanel(const std::string& name);

  // The standard per-run fields from a RunResult; callers add axis fields
  // (e.g. "depth", "relations") and a "metrics" object on top.
  static obs::JsonValue MakeRun(const RunResult& r);

  void AddRun(obs::JsonValue run);

  // Writes the report file; returns false (with a stderr note) on I/O
  // failure. No-op (true) when disabled.
  bool Write() const;

 private:
  bool enabled_ = false;
  std::string path_;
  obs::JsonValue root_;
};

}  // namespace tupelo::bench

#endif  // TUPELO_BENCH_BENCH_UTIL_H_
