// tupelo_cli: discover a mapping between two database instances stored in
// .tdb files and print (or save) the executable mapping expression.
//
// Usage:
//   tupelo_cli <source.tdb> <target.tdb>
//       [--algo=ida|rbfs|astar|greedy|beam] [--heuristic=h0|h1|h2|h3|
//        levenshtein|euclid|euclid_norm|cosine|jaccard|pairs]
//       [--k=<scale>] [--max-states=N]
//       [--trace=file.json] [--trace-buffer-kb=N] [--flight-recorder]
//       [--checkpoint=file.tck] [--resume]
//       [--apply] [--simplify] [--check] [--conform]
//       [--save=mapping.tmap] [--name=<id>]
//       [--corr=function:in1+in2:out ...]
//   tupelo_cli --validate <mapping.tmap>
//
// Example .tdb input:
//   relation Staff (Name, Office) {
//     (Ada, B12)
//   }
//
// Exit codes (scriptable: each unsuccessful StopReason gets its own):
//    0  mapping found and verified
//    1  error (bad input file, I/O failure, Discover-level error)
//    2  usage
//    3  search space exhausted, no mapping exists
//    4  wall-clock deadline tripped
//    5  memory bound tripped
//    6  cancelled (SIGINT/SIGTERM, after a clean drain)
//    7  stalled (watchdog preempted a hung rung, retries spent)
//    8  state budget tripped
//    9  depth bound tripped
//   10  mapping found but failed replay verification
//
// SIGINT/SIGTERM cancel the root CancelToken: the running search stops
// at its next poll tick (its last --checkpoint snapshot already on
// disk), the trace and flight recorder flush, and the process exits 6.

#include <csignal>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "common/text.h"
#include "core/mapping_repository.h"
#include "core/postprocess.h"
#include "core/tupelo.h"
#include "fira/compile.h"
#include "fira/type_check.h"
#include "fira/builtin_functions.h"
#include "obs/trace.h"
#include "relational/io.h"

namespace {

// Root cancellation for the whole CLI run, flipped from the signal
// handler. CancelToken::Cancel is one relaxed atomic store, so it is
// async-signal-safe.
tupelo::CancelToken g_cancel;

void HandleSignal(int) { g_cancel.Cancel(); }

// The documented per-StopReason exit codes for an unsuccessful (or
// unverified) discovery.
int ExitCodeFor(const tupelo::TupeloResult& result) {
  if (result.found) return result.verified ? 0 : 10;
  switch (result.stop_reason) {
    case tupelo::StopReason::kDeadline:
      return 4;
    case tupelo::StopReason::kMemory:
      return 5;
    case tupelo::StopReason::kCancelled:
      return 6;
    case tupelo::StopReason::kStalled:
      return 7;
    case tupelo::StopReason::kStates:
      return 8;
    case tupelo::StopReason::kDepth:
      return 9;
    default:
      return 3;  // exhausted: the space holds no mapping
  }
}

// Parses a numeric flag's value into `out`: all of `text`, finite and
// non-negative, within T's range.
template <typename T>
bool ParseFlag(std::string_view text, T& out) {
  return tupelo::ParseNumber(text, out, T{0});
}

int Usage() {
  std::cerr
      << "usage: tupelo_cli <source.tdb> <target.tdb>\n"
         "  [--algo=ida|rbfs|astar|greedy|beam]\n"
         "  [--heuristic=h0|h1|h2|h3|levenshtein|euclid|euclid_norm|cosine|"
         "jaccard|pairs]\n"
         "  [--k=<scale>] [--max-states=N] [--max-depth=N] "
         "[--deadline-ms=N] [--no-prune]\n"
         "  [--beam-width=N]          frontier width for --algo=beam\n"
         "  [--threads=N]             worker threads, at most "
      << tupelo::kMaxThreads
      << " (beam levels expand in parallel)\n"
         "  [--trace=file.json]       record a Chrome trace-event export "
         "of the discovery run\n"
         "  [--trace-buffer-kb=N]     per-thread trace ring size "
         "(default 256)\n"
         "  [--flight-recorder]       with --trace: dump the last events "
         "to file.json.flight\n"
         "                            (Chrome JSON, like --trace) on a bad "
         "stop\n"
         "  [--checkpoint=file.tck]   periodically snapshot discovery "
         "progress (atomic, checksummed)\n"
         "  [--resume]                with --checkpoint: restart from the "
         "snapshot's rung + frontier\n"
         "  [--supervise]             self-healing watchdog: preempt hung "
         "rungs, stage memory\n"
         "                            degradation, quarantine poison "
         "states\n"
         "  [--stall-window-ms=N]     with --supervise: silence window "
         "before preemption (default 500)\n"
         "  [--supervisor-tick-ms=N]  with --supervise: watchdog sampling "
         "period (default 20)\n"
         "  [--rung-retries=N]        with --supervise: retries per "
         "stalled rung (default 1)\n"
         "  [--apply]                 execute the mapping (compiled "
         "executor) and print the result\n"
         "  [--simplify]              run the peephole optimizer on the "
         "result\n"
         "  [--check]                 statically type-check the result "
         "against the source schema\n"
         "  [--conform]               with --apply: project/filter the "
         "result to the target schema\n"
         "  [--corr=fn:in1+in2:out]   articulate a complex correspondence "
         "(repeatable)\n"
         "  [--save=file.tmap]        store the mapping with schemas and "
         "provenance\n"
         "  [--name=<id>]             name used when saving\n"
         "or: tupelo_cli --validate <mapping.tmap>   re-validate a stored "
         "mapping\n"
         "exit codes: 0 found+verified, 1 error, 2 usage, 3 exhausted,\n"
         "  4 deadline, 5 memory, 6 cancelled (SIGINT/SIGTERM), 7 stalled,\n"
         "  8 state budget, 9 depth bound, 10 found but unverified\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  tupelo::TupeloOptions options;
  options.algorithm = tupelo::SearchAlgorithm::kRbfs;
  options.heuristic = tupelo::HeuristicKind::kH1;
  bool apply = false;
  bool check = false;
  bool conform = false;
  bool validate = false;
  std::string save_path;
  std::string mapping_name = "mapping";
  std::string trace_path;
  uint64_t trace_buffer_kb = 256;
  bool flight_recorder = false;
  std::vector<tupelo::SemanticCorrespondence> correspondences;

  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      positional.emplace_back(arg);
      continue;
    }
    auto value_of = [&](std::string_view prefix) -> std::string {
      return std::string(arg.substr(prefix.size()));
    };
    if (arg.starts_with("--algo=")) {
      auto algo = tupelo::ParseSearchAlgorithm(value_of("--algo="));
      if (!algo.has_value()) return Usage();
      options.algorithm = *algo;
    } else if (arg.starts_with("--heuristic=")) {
      auto h = tupelo::ParseHeuristicKind(value_of("--heuristic="));
      if (!h.has_value()) return Usage();
      options.heuristic = *h;
    } else if (arg.starts_with("--k=")) {
      if (!ParseFlag(value_of("--k="), options.scale_k)) return Usage();
    } else if (arg.starts_with("--max-states=")) {
      if (!ParseFlag(value_of("--max-states="), options.limits.max_states)) {
        return Usage();
      }
    } else if (arg.starts_with("--deadline-ms=")) {
      if (!ParseFlag(value_of("--deadline-ms="),
                       options.limits.deadline_millis)) {
        return Usage();
      }
    } else if (arg.starts_with("--max-depth=")) {
      if (!ParseFlag(value_of("--max-depth="), options.limits.max_depth)) {
        return Usage();
      }
    } else if (arg.starts_with("--beam-width=")) {
      if (!ParseFlag(value_of("--beam-width="), options.beam_width)) {
        return Usage();
      }
    } else if (arg.starts_with("--threads=")) {
      if (!ParseFlag(value_of("--threads="), options.threads) ||
          options.threads > tupelo::kMaxThreads) {
        return Usage();
      }
    } else if (arg.starts_with("--trace=")) {
      trace_path = value_of("--trace=");
    } else if (arg.starts_with("--trace-buffer-kb=")) {
      if (!ParseFlag(value_of("--trace-buffer-kb="), trace_buffer_kb)) {
        return Usage();
      }
      if (trace_buffer_kb == 0) trace_buffer_kb = 256;
    } else if (arg == "--flight-recorder") {
      flight_recorder = true;
    } else if (arg.starts_with("--checkpoint=")) {
      options.checkpoint_path = value_of("--checkpoint=");
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--supervise") {
      options.supervisor.enabled = true;
    } else if (arg.starts_with("--stall-window-ms=")) {
      options.supervisor.enabled = true;
      if (!ParseFlag(value_of("--stall-window-ms="),
                       options.supervisor.stall_window_millis)) {
        return Usage();
      }
    } else if (arg.starts_with("--supervisor-tick-ms=")) {
      options.supervisor.enabled = true;
      if (!ParseFlag(value_of("--supervisor-tick-ms="),
                       options.supervisor.tick_millis)) {
        return Usage();
      }
    } else if (arg.starts_with("--rung-retries=")) {
      options.supervisor.enabled = true;
      if (!ParseFlag(value_of("--rung-retries="),
                       options.supervisor.max_rung_retries)) {
        return Usage();
      }
    } else if (arg == "--no-prune") {
      options.successors.prune = false;
    } else if (arg == "--apply") {
      apply = true;
    } else if (arg == "--simplify") {
      options.simplify = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--conform") {
      conform = true;
    } else if (arg == "--validate") {
      validate = true;
    } else if (arg.starts_with("--save=")) {
      save_path = value_of("--save=");
    } else if (arg.starts_with("--name=")) {
      mapping_name = value_of("--name=");
    } else if (arg.starts_with("--corr=")) {
      std::vector<std::string> parts = tupelo::Split(value_of("--corr="), ':');
      if (parts.size() != 3) return Usage();
      tupelo::SemanticCorrespondence c;
      c.function = parts[0];
      c.inputs = tupelo::Split(parts[1], '+');
      c.output = parts[2];
      correspondences.push_back(std::move(c));
    } else {
      return Usage();
    }
  }
  if (validate) {
    if (positional.size() != 1) return Usage();
    tupelo::Result<tupelo::StoredMapping> stored =
        tupelo::LoadMappingFile(positional[0]);
    if (!stored.ok()) {
      std::cerr << "error loading mapping: " << stored.status() << "\n";
      return 1;
    }
    tupelo::FunctionRegistry vreg;
    tupelo::Status vst = tupelo::RegisterBuiltinFunctions(&vreg);
    if (!vst.ok()) {
      std::cerr << vst << "\n";
      return 1;
    }
    tupelo::Result<bool> ok = tupelo::ValidateStoredMapping(*stored, &vreg);
    if (!ok.ok()) {
      std::cerr << "validation error: " << ok.status() << "\n";
      return 1;
    }
    std::cout << "mapping '" << stored->name << "': "
              << (*ok ? "valid" : "INVALID (target not reached)") << "\n";
    return *ok ? 0 : 1;
  }

  if (positional.size() != 2) return Usage();
  if (flight_recorder && trace_path.empty()) {
    std::cerr << "--flight-recorder requires --trace=\n";
    return Usage();
  }

  std::unique_ptr<tupelo::obs::TraceSession> trace;
  if (!trace_path.empty()) {
    trace = std::make_unique<tupelo::obs::TraceSession>(
        static_cast<size_t>(trace_buffer_kb));
    options.trace = trace.get();
    if (flight_recorder) {
      options.flight_recorder_path = trace_path + ".flight";
    }
  }

  tupelo::Result<tupelo::Database> source =
      tupelo::LoadTdbFile(positional[0]);
  if (!source.ok()) {
    std::cerr << "error loading source: " << source.status() << "\n";
    return 1;
  }
  tupelo::Result<tupelo::Database> target =
      tupelo::LoadTdbFile(positional[1]);
  if (!target.ok()) {
    std::cerr << "error loading target: " << target.status() << "\n";
    return 1;
  }

  tupelo::FunctionRegistry registry;
  tupelo::Status st = tupelo::RegisterBuiltinFunctions(&registry);
  if (!st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }

  tupelo::Tupelo system(*source, *target);
  system.set_registry(&registry);
  for (tupelo::SemanticCorrespondence& c : correspondences) {
    system.AddCorrespondence(std::move(c));
  }

  // Ctrl-C / SIGTERM cancel the search cooperatively: Discover returns
  // StopReason::kCancelled, the trace/flight-recorder flush below still
  // runs, and the process exits 6 instead of dying mid-write.
  options.limits.cancel = &g_cancel;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  tupelo::Result<tupelo::TupeloResult> result = system.Discover(options);
  if (trace != nullptr) {
    if (!trace->WriteChromeJson(trace_path)) return 1;
    std::cerr << "# trace written to " << trace_path << " ("
              << trace->events_recorded() << " events, "
              << trace->events_dropped() << " dropped)\n";
  }
  if (!result.ok()) {
    std::cerr << "error: " << result.status() << "\n";
    return 1;
  }
  if (options.supervisor.enabled &&
      (result->stall_preemptions > 0 || result->memory_reliefs > 0 ||
       result->rung_retries > 0 || result->states_quarantined > 0)) {
    std::cerr << "# supervisor: " << result->stall_preemptions
              << " stall preemption(s), " << result->rung_retries
              << " retry(ies), " << result->memory_reliefs
              << " memory relief(s), " << result->states_quarantined
              << " state(s) quarantined\n";
  }
  if (!result->found) {
    std::cerr << "no mapping found (stop reason: "
              << tupelo::StopReasonName(result->stop_reason) << ", "
              << result->stats.states_examined << " states examined)\n";
    return ExitCodeFor(*result);
  }

  std::cout << "# discovered with " << result->stats.states_examined
            << " states examined, depth " << result->stats.solution_cost
            << ", verified=" << (result->verified ? "yes" : "no") << "\n"
            << result->mapping.ToScript();

  if (!save_path.empty()) {
    tupelo::StoredMapping stored;
    stored.name = mapping_name;
    stored.expression = result->mapping;
    stored.source_instance = *source;
    stored.target_instance = *target;
    stored.correspondences = system.correspondences();
    stored.algorithm = std::string(
        tupelo::SearchAlgorithmName(options.algorithm));
    stored.heuristic = std::string(
        tupelo::HeuristicKindName(options.heuristic));
    stored.states_examined = result->stats.states_examined;
    tupelo::Status sst = tupelo::SaveMappingFile(stored, save_path);
    if (!sst.ok()) {
      std::cerr << "save failed: " << sst << "\n";
      return 1;
    }
    std::cout << "# saved to " << save_path << "\n";
  }

  if (check) {
    tupelo::Result<tupelo::DatabaseSchema> schema = tupelo::CheckExpression(
        result->mapping, tupelo::DatabaseSchema::Of(*source), &registry);
    if (!schema.ok()) {
      std::cerr << "type check failed: " << schema.status() << "\n";
      return 1;
    }
    std::cout << "# type check: ok\n";
  }

  if (apply) {
    tupelo::Result<tupelo::Database> mapped =
        tupelo::CompiledExecutor(result->mapping).Apply(*source, &registry);
    if (!mapped.ok()) {
      std::cerr << "execution error: " << mapped.status() << "\n";
      return 1;
    }
    if (conform) {
      tupelo::Result<tupelo::Database> trimmed =
          tupelo::ConformToSchema(*mapped, *target);
      if (!trimmed.ok()) {
        std::cerr << "conformance error: " << trimmed.status() << "\n";
        return 1;
      }
      mapped = std::move(trimmed);
    }
    std::cout << "\n# mapped source instance:\n" << tupelo::WriteTdb(*mapped);
  }
  return ExitCodeFor(*result);
}
