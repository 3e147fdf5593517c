#include "bench_util.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

namespace tupelo::bench {

RunResult Measure(const Database& source, const Database& target,
                  const TupeloOptions& options,
                  const FunctionRegistry* registry,
                  const std::vector<SemanticCorrespondence>& corrs,
                  obs::MetricRegistry* metrics) {
  Tupelo system(source, target);
  system.set_registry(registry);
  for (const SemanticCorrespondence& c : corrs) system.AddCorrespondence(c);

  TupeloOptions run_options = options;
  run_options.metrics = metrics;

  auto start = std::chrono::steady_clock::now();
  Result<TupeloResult> result = system.Discover(run_options);
  auto end = std::chrono::steady_clock::now();

  RunResult out;
  out.millis =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          end - start)
          .count();
  if (!result.ok()) {
    std::fprintf(stderr, "discovery configuration error: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  out.found = result->found;
  out.cutoff = IsResourceStop(result->stop_reason);
  out.stop_reason = std::string(StopReasonName(result->stop_reason));
  out.verified = result->verified;
  if (!result->verify_status.ok()) {
    out.verify_error = result->verify_status.ToString();
  }
  out.deadline_millis = run_options.limits.deadline_millis;
  out.states = result->stats.states_examined;
  out.states_generated = result->stats.states_generated;
  out.iterations = result->stats.iterations;
  out.peak_memory_nodes = result->stats.peak_memory_nodes;
  out.depth = result->stats.solution_cost;
  out.resumed = result->resumed;
  out.checkpoint_writes = result->checkpoint_writes;
  return out;
}

std::string FormatStates(const RunResult& r, uint64_t budget) {
  if (r.stop_reason == "states" || (!r.found && r.states >= budget)) {
    return ">" + std::to_string(budget) + "*";
  }
  if (r.cutoff) return r.stop_reason + "@" + std::to_string(r.states);
  if (!r.found) return "fail";
  return std::to_string(r.states);
}

void PrintRow(const std::vector<std::string>& cells, int width) {
  for (const std::string& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

BenchArgs ParseBenchArgs(int argc, char** argv,
                         uint64_t default_budget) {
  BenchArgs args;
  args.budget = default_budget;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--budget=", 0) == 0) {
      args.budget = std::strtoull(argv[i] + std::strlen("--budget="),
                                  nullptr, 10);
    } else if (arg.rfind("--seed=", 0) == 0) {
      args.seed =
          std::strtoull(argv[i] + std::strlen("--seed="), nullptr, 10);
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json_path = std::string(arg.substr(std::strlen("--json=")));
    } else if (arg.rfind("--threads=", 0) == 0) {
      args.threads = std::strtoull(argv[i] + std::strlen("--threads="),
                                   nullptr, 10);
      if (args.threads == 0) args.threads = 1;
    } else if (arg.rfind("--algo=", 0) == 0) {
      args.algo = std::string(arg.substr(std::strlen("--algo=")));
    } else if (arg.rfind("--trace-buffer-kb=", 0) == 0) {
      args.trace_buffer_kb = std::strtoull(
          argv[i] + std::strlen("--trace-buffer-kb="), nullptr, 10);
      if (args.trace_buffer_kb == 0) args.trace_buffer_kb = 256;
    } else if (arg.rfind("--trace=", 0) == 0) {
      args.trace_path = std::string(arg.substr(std::strlen("--trace=")));
    } else if (arg == "--flight-recorder") {
      args.flight_recorder = true;
    } else if (arg == "--quick") {
      args.quick = true;
    }
  }
  if (args.flight_recorder && args.trace_path.empty()) {
    std::fprintf(stderr, "--flight-recorder requires --trace=path\n");
    std::exit(2);
  }
  return args;
}

BenchTrace::BenchTrace(const BenchArgs& args) : path_(args.trace_path) {
  if (path_.empty()) return;
  session_ = std::make_unique<obs::TraceSession>(
      static_cast<size_t>(args.trace_buffer_kb));
  if (args.flight_recorder) flight_path_ = path_ + ".flight";
}

BenchTrace::~BenchTrace() = default;

void BenchTrace::Apply(TupeloOptions& options) {
  if (session_ == nullptr) return;
  options.trace = session_.get();
  options.flight_recorder_path = flight_path_;
}

void BenchTrace::AnnotateRun(obs::JsonValue& run) {
  if (session_ == nullptr) return;
  const uint64_t recorded = session_->events_recorded();
  const uint64_t dropped = session_->events_dropped();
  run["trace_path"] = path_;
  run["trace_events"] = recorded - last_recorded_;
  run["trace_dropped"] = dropped - last_dropped_;
  last_recorded_ = recorded;
  last_dropped_ = dropped;
}

bool BenchTrace::Write() const {
  if (session_ == nullptr) return true;
  return session_->WriteChromeJson(path_);
}

std::string GitSha() {
  FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {0};
  std::string sha;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    sha = buf;
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
      sha.pop_back();
    }
  }
  ::pclose(pipe);
  return sha.size() == 40 ? sha : "unknown";
}

BenchReport::BenchReport(std::string harness, const BenchArgs& args)
    : enabled_(!args.json_path.empty()), path_(args.json_path) {
  if (!enabled_) return;
  root_ = obs::JsonValue::Object();
  root_["schema_version"] = 11;
  root_["harness"] = std::move(harness);
  root_["git_sha"] = GitSha();
  root_["seed"] = args.seed;
  root_["quick"] = args.quick;
  root_["budget"] = args.budget;
  root_["threads"] = args.threads;
  root_["panels"] = obs::JsonValue::Array();
}

void BenchReport::BeginPanel(const std::string& name) {
  if (!enabled_) return;
  obs::JsonValue panel = obs::JsonValue::Object();
  panel["name"] = name;
  panel["runs"] = obs::JsonValue::Array();
  root_["panels"].Append(std::move(panel));
}

obs::JsonValue BenchReport::MakeRun(const RunResult& r) {
  obs::JsonValue run = obs::JsonValue::Object();
  run["found"] = r.found;
  run["cutoff"] = r.cutoff;
  run["stop_reason"] = r.stop_reason;
  run["verified"] = r.verified;
  run["verify_error"] = r.verify_error;
  run["deadline_millis"] = r.deadline_millis;
  run["states_examined"] = r.states;
  run["states_generated"] = r.states_generated;
  run["iterations"] = r.iterations;
  run["peak_memory_nodes"] = r.peak_memory_nodes;
  run["solution_cost"] = r.depth;
  run["wall_millis"] = r.millis;
  run["resumed"] = r.resumed;
  run["checkpoint_writes"] = r.checkpoint_writes;
  return run;
}

void BenchReport::AddRun(obs::JsonValue run) {
  if (!enabled_) return;
  obs::JsonValue& panels = root_["panels"];
  if (panels.size() == 0) BeginPanel("default");
  panels.elements().back()["runs"].Append(std::move(run));
}

bool BenchReport::Write() const {
  if (!enabled_) return true;
  FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write JSON report to %s\n", path_.c_str());
    return false;
  }
  std::string text = root_.Dump(2);
  text += "\n";
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::fprintf(stderr, "short write for JSON report %s\n", path_.c_str());
  }
  return ok;
}

}  // namespace tupelo::bench
