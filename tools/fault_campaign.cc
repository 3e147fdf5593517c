// fault_campaign: seeded robustness campaign over the fig5 --quick
// workload. Each trial draws a workload size, a search algorithm, and a
// fault scenario from a deterministic per-trial RNG, runs discovery, and
// asserts the robustness invariants of docs/ROBUSTNESS.md:
//
//   - clean status propagation: no trial may crash or surface an
//     unexpected error from Tupelo::Discover;
//   - checkpoint integrity: every checkpoint file left behind by a trial
//     must reload through LoadCheckpointFile (which validates every
//     embedded database);
//   - crash-equivalence: a run killed at a checkpoint boundary and
//     resumed must reproduce the uninterrupted baseline's mapping,
//     verification outcome, and stop reason.
//
// Trial families (cycled so every family gets coverage):
//   0  kill-and-resume crash-equivalence (no operator faults)
//   1  seeded-probabilistic operator faults ("*", p in [0.05, 0.35])
//   2  every-Nth operator faults ("*", n in [2, 9])
//   3  mixed: operator faults + kill at a checkpoint boundary + resume
//      with faults cleared (invariants only; faults perturb the explored
//      space, so equivalence with a clean baseline is not expected)
//
// Chaos families (the self-healing runtime of runtime/supervisor.h; all
// run with the supervisor enabled and add its invariants — a supervised
// trial must still end in a clean status, and a watchdog-recovered run
// must reproduce the clean baseline where equivalence is well-defined):
//   4  transient stall: a one-shot injected operator delay wedges the
//      rung far past the stall window; the watchdog preempts
//      (StopReason::kStalled), the retry runs fault-free and must match
//      the unfaulted baseline's mapping/verification exactly
//   5  poison states: operator faults that *throw* (runtime_error or
//      bad_alloc); the quarantine absorbs them and the run must end
//      cleanly (never crash, never a Discover-level error)
//   6  memory pressure: a tiny max_memory_nodes bound under supervision;
//      staged degradation (cache trims, width trims) and/or a clean
//      memory stop — never a crash
//   7  mixed chaos: throwing/delaying/status faults + a checkpoint-kill
//      + supervision, then a fault-free resume; invariants only (clean
//      statuses + checkpoint integrity)
//
// Service-level families (the discovery service of serve/job_manager.h;
// in-process JobManager trials — the full-process kill -9 variant runs
// in serve_loadgen and the serve_smoke ctest):
//   8  serve-crash: submit a batch of jobs (some unsatisfiable so they
//      run their whole deadline), preempt the manager mid-flight, then
//      recover a fresh manager on the same journal directory. Graceful
//      preemption and kill -9 share one recovery path (in-flight jobs
//      keep a `.job` with no `.done`), so this asserts the crash
//      contract: every accepted job reaches a terminal state after the
//      restart, none with a Discover-level error
//   9  serve-overload: a one-worker manager with a tiny admission queue
//      under a submit burst. Sheds must be typed (accepted=false with a
//      positive Retry-After hint), the queue must stay bounded, and
//      every accepted job must still reach a terminal state — never
//      accepted-then-dropped
//
// Usage:
//   fault_campaign [--trials=N] [--seed=S] [--quick] [--json=report.json]
//                  [--trial=N] [--list]
//
// --trial=N reruns exactly one trial (same seed derivation as the full
// campaign, so a violation reported as "trial 137" replays with
// --trial=137); --list prints the deterministic trial plan (family,
// workload size, algorithm per trial) without running anything.
//
// Every trial also records into a small per-trial TraceSession with the
// flight recorder armed: a trial that is killed, stops for a bad reason,
// or absorbs injected faults leaves a binary last-events dump
// (fault_campaign_<seed>_<trial>.flight), and the campaign immediately
// reloads each dump through ParseFlightRecord — an unparseable dump is
// itself a violation. With --json= the dumps stay next to the report,
// whose per-trial trace_path fields name them; without it they go to a
// fresh temp directory that is removed when the campaign ends.
//
// Exits non-zero if any invariant is violated; the --json report follows
// the schema-6 bench layout (scripts/check_bench_json.py) with one run
// per trial plus a "summary" panel.

#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "core/checkpoint.h"
#include "core/tupelo.h"
#include "fira/executor.h"
#include "obs/trace.h"
#include "relational/io.h"
#include "serve/job_manager.h"
#include "workloads/synthetic.h"

namespace tupelo {
namespace {

// Counter-keyed deterministic RNG: every draw is a pure function of
// (seed, counter), so a campaign replays bit-for-bit from its seed.
struct Rng {
  uint64_t seed = 0;
  uint64_t counter = 0;
  uint64_t Next() { return Mix64(seed ^ Mix64(++counter)); }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
};

// One Discover call, measured. Unlike bench::Measure this never exits:
// campaign trials must observe configuration errors as data.
struct TrialRun {
  bool ok = false;          // Discover returned a value (any outcome)
  std::string error;        // status text when !ok
  TupeloResult result;      // valid when ok
  bench::RunResult rr;      // measurement fields for the JSON report
};

TrialRun RunOnce(const SyntheticMatchingPair& pair,
                 const TupeloOptions& options) {
  Tupelo system(pair.source, pair.target);
  auto start = std::chrono::steady_clock::now();
  Result<TupeloResult> r = system.Discover(options);
  auto end = std::chrono::steady_clock::now();

  TrialRun out;
  out.rr.millis =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          end - start)
          .count();
  if (!r.ok()) {
    out.error = r.status().ToString();
    return out;
  }
  out.ok = true;
  out.result = *std::move(r);
  out.rr.found = out.result.found;
  out.rr.cutoff = IsResourceStop(out.result.stop_reason);
  out.rr.stop_reason = std::string(StopReasonName(out.result.stop_reason));
  out.rr.verified = out.result.verified;
  if (!out.result.verify_status.ok()) {
    out.rr.verify_error = out.result.verify_status.ToString();
  }
  out.rr.deadline_millis = options.limits.deadline_millis;
  out.rr.states = out.result.stats.states_examined;
  out.rr.states_generated = out.result.stats.states_generated;
  out.rr.iterations = out.result.stats.iterations;
  out.rr.peak_memory_nodes = out.result.stats.peak_memory_nodes;
  out.rr.depth = out.result.stats.solution_cost;
  out.rr.resumed = out.result.resumed;
  out.rr.checkpoint_writes = out.result.checkpoint_writes;
  return out;
}

struct Campaign {
  uint64_t trials = 160;
  uint64_t violations = 0;
  uint64_t kills = 0;
  uint64_t resumes = 0;
  uint64_t faults_injected = 0;
  uint64_t flight_dumps = 0;
  // Self-healing interventions observed across the chaos families.
  uint64_t stall_preemptions = 0;
  uint64_t memory_reliefs = 0;
  uint64_t rung_retries = 0;
  uint64_t states_quarantined = 0;

  void Violation(uint64_t trial, const std::string& what) {
    ++violations;
    std::fprintf(stderr, "VIOLATION trial %llu: %s\n",
                 static_cast<unsigned long long>(trial), what.c_str());
  }
};

constexpr SearchAlgorithm kAlgorithms[] = {
    SearchAlgorithm::kIda, SearchAlgorithm::kRbfs, SearchAlgorithm::kAStar,
    SearchAlgorithm::kGreedy, SearchAlgorithm::kBeam,
};

constexpr int kFamilies = 10;
constexpr const char* kFamilyNames[kFamilies] = {
    "kill-resume",     "probabilistic-faults", "every-nth-faults",
    "mixed-kill",      "stall",                "poison",
    "memory-pressure", "mixed-chaos",          "serve-crash",
    "serve-overload",
};

// Perturbs every tuple value (a1 → z1, ...) so no mapping exists: the
// served search burns its whole deadline, which is what puts jobs
// in-flight when the preemption lands.
std::string PerturbValues(const std::string& tdb) {
  std::string out;
  out.reserve(tdb.size());
  for (size_t i = 0; i < tdb.size(); ++i) {
    out.push_back(tdb[i] == 'a' && i + 1 < tdb.size() &&
                          std::isdigit(static_cast<unsigned char>(tdb[i + 1]))
                      ? 'z'
                      : tdb[i]);
  }
  return out;
}

// Removes one job's journal triple; RemoveServeJournal then drops the
// directory itself once every trial job is gone.
void RemoveJobJournal(const std::string& dir, const std::string& id) {
  std::remove((dir + "/" + id + ".job").c_str());
  std::remove((dir + "/" + id + ".tck").c_str());
  std::remove((dir + "/" + id + ".done").c_str());
}

// The supervision knobs the chaos families run under: a fast watchdog
// (5 ms ticks, 50 ms stall window) so injected 200+ ms delays are
// preempted promptly, with one backed-off retry.
runtime::SupervisorConfig ChaosSupervision() {
  runtime::SupervisorConfig config;
  config.enabled = true;
  config.tick_millis = 5;
  config.stall_window_millis = 50;
  config.max_rung_retries = 2;
  config.retry_backoff_millis = 5;
  return config;
}

}  // namespace
}  // namespace tupelo

int main(int argc, char** argv) {
  using namespace tupelo;

  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv, 10000);
  Campaign campaign;
  int64_t only_trial = -1;
  bool list_only = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--trials=", 0) == 0) {
      campaign.trials = std::strtoull(argv[i] + std::strlen("--trials="),
                                      nullptr, 10);
    } else if (arg.rfind("--trial=", 0) == 0) {
      only_trial = std::strtoll(argv[i] + std::strlen("--trial="),
                                nullptr, 10);
    } else if (arg == "--list") {
      list_only = true;
    }
  }
  if (only_trial >= 0 &&
      static_cast<uint64_t>(only_trial) >= campaign.trials) {
    campaign.trials = static_cast<uint64_t>(only_trial) + 1;
  }

  std::vector<size_t> sizes = args.quick ? std::vector<size_t>{2, 4}
                                         : std::vector<size_t>{2, 4, 8};
  std::vector<SyntheticMatchingPair> pairs;
  pairs.reserve(sizes.size());
  for (size_t n : sizes) pairs.push_back(MakeSyntheticMatchingPair(n));

  FaultInjector injector;
  SetFaultInjector(&injector);

  bench::BenchReport report("fault_campaign", args);
  report.BeginPanel("campaign");

  // Flight dumps land next to the campaign JSON; without --json= they go
  // to a fresh temp directory, removed once every dump is self-checked.
  std::string flight_dir;
  std::string temp_flight_dir;
  if (args.json_path.empty() && !list_only) {
    std::error_code ec;
    std::string dir_template =
        (std::filesystem::temp_directory_path(ec) / "fault_campaign_XXXXXX")
            .string();
    if (ec || ::mkdtemp(dir_template.data()) == nullptr) {
      std::fprintf(stderr, "fault_campaign: cannot create a temp directory\n");
      return 1;
    }
    temp_flight_dir = dir_template;
    flight_dir = temp_flight_dir + "/";
  } else if (size_t slash = args.json_path.rfind('/');
             slash != std::string::npos) {
    flight_dir = args.json_path.substr(0, slash + 1);
  }

  uint64_t trials_run = 0;
  for (uint64_t t = 0; t < campaign.trials; ++t) {
    Rng rng{args.seed + t * 0x9e3779b97f4a7c15ULL};
    const int family = static_cast<int>(t % kFamilies);
    const size_t which = rng.Below(pairs.size());
    const SyntheticMatchingPair& pair = pairs[which];
    const SearchAlgorithm algo = kAlgorithms[rng.Below(5)];

    if (list_only) {
      std::printf("trial %4llu: family %d (%s), n=%llu, algo=%s\n",
                  static_cast<unsigned long long>(t), family,
                  kFamilyNames[family],
                  static_cast<unsigned long long>(sizes[which]),
                  std::string(SearchAlgorithmName(algo)).c_str());
      continue;
    }
    if (only_trial >= 0 && t != static_cast<uint64_t>(only_trial)) continue;
    ++trials_run;

    TupeloOptions base;
    base.algorithm = algo;
    base.heuristic = HeuristicKind::kH1;
    base.limits.max_states = args.budget;

    const std::string ckpt_path =
        "fault_campaign_" + std::to_string(args.seed) + "_" +
        std::to_string(t) + ".tck";

    // Every trial records into its own small session with the flight
    // recorder armed: kills, bad stops, and injected faults leave a
    // last-events dump the campaign then self-checks.
    const std::string flight_path =
        flight_dir + "fault_campaign_" + std::to_string(args.seed) + "_" +
        std::to_string(t) + ".flight";
    std::remove(flight_path.c_str());
    obs::TraceSession trace(64);
    base.trace = &trace;
    base.flight_recorder_path = flight_path;

    injector.Disarm();
    TrialRun final_run;

    if (family == 0) {
      // Crash-equivalence: baseline, then kill at a checkpoint boundary,
      // then resume; the resumed run must match the baseline exactly.
      TrialRun baseline = RunOnce(pair, base);
      if (!baseline.ok) {
        campaign.Violation(t, "baseline error: " + baseline.error);
        continue;
      }
      TupeloOptions inter = base;
      inter.checkpoint_path = ckpt_path;
      inter.checkpoint_interval_states = 1 + rng.Below(32);
      inter.checkpoint_kill_after = 1 + rng.Below(3);
      TrialRun interrupted = RunOnce(pair, inter);
      if (!interrupted.ok) {
        campaign.Violation(t, "interrupted run error: " + interrupted.error);
        std::remove(ckpt_path.c_str());
        continue;
      }
      if (interrupted.result.stop_reason == StopReason::kCancelled) {
        ++campaign.kills;
        TupeloOptions res = inter;
        res.checkpoint_kill_after = 0;
        res.resume = true;
        final_run = RunOnce(pair, res);
        if (!final_run.ok) {
          campaign.Violation(t, "resume error: " + final_run.error);
          std::remove(ckpt_path.c_str());
          continue;
        }
        ++campaign.resumes;
      } else {
        // The search finished before the kill could take effect (tiny
        // workloads can reach the goal before a cancellation poll); the
        // completed run itself must match the baseline.
        final_run = std::move(interrupted);
      }
      if (final_run.result.found != baseline.result.found ||
          final_run.result.verified != baseline.result.verified ||
          final_run.result.stop_reason != baseline.result.stop_reason ||
          final_run.result.mapping.ToScript() !=
              baseline.result.mapping.ToScript()) {
        campaign.Violation(
            t, "crash-equivalence failure (" +
                   std::string(SearchAlgorithmName(algo)) + ", n=" +
                   std::to_string(sizes[which]) + "): baseline " +
                   std::string(StopReasonName(baseline.result.stop_reason)) +
                   " vs resumed " +
                   std::string(StopReasonName(final_run.result.stop_reason)));
      }
      std::remove(ckpt_path.c_str());
    } else if (family == 1 || family == 2) {
      // Operator faults only: discovery must degrade to a clean outcome
      // (found with possibly-failed verification, or a conclusive /
      // budget stop) — never crash, never a Discover-level error.
      Status fault = rng.Below(2) == 0
                         ? Status::Internal("campaign fault")
                         : Status::ResourceExhausted("campaign fault");
      if (family == 1) {
        injector.ArmProbabilistic("*", std::move(fault),
                                  0.05 + 0.3 * rng.Unit(), rng.Next());
      } else {
        injector.ArmEveryNth("*", std::move(fault), 2 + rng.Below(8));
      }
      final_run = RunOnce(pair, base);
      campaign.faults_injected += injector.injected();
      injector.Disarm();
      if (!final_run.ok) {
        campaign.Violation(t, "fault trial error: " + final_run.error);
        continue;
      }
      if (final_run.result.found && final_run.result.verified &&
          !final_run.result.verify_status.ok()) {
        campaign.Violation(t, "verified=true with a failed verify_status");
      }
    } else if (family == 3) {
      // Mixed: operator faults while checkpointing with a kill, then a
      // fault-free resume. Faults perturb the explored space, so only the
      // invariants are asserted: clean statuses and checkpoint integrity.
      Status fault = rng.Below(2) == 0
                         ? Status::Internal("campaign fault")
                         : Status::ResourceExhausted("campaign fault");
      if (rng.Below(2) == 0) {
        injector.ArmProbabilistic("*", std::move(fault),
                                  0.05 + 0.3 * rng.Unit(), rng.Next());
      } else {
        injector.ArmEveryNth("*", std::move(fault), 2 + rng.Below(8));
      }
      TupeloOptions inter = base;
      inter.checkpoint_path = ckpt_path;
      inter.checkpoint_interval_states = 1 + rng.Below(32);
      inter.checkpoint_kill_after = 1 + rng.Below(3);
      TrialRun interrupted = RunOnce(pair, inter);
      campaign.faults_injected += injector.injected();
      injector.Disarm();
      if (!interrupted.ok) {
        campaign.Violation(t, "faulted interrupted run error: " +
                                  interrupted.error);
        std::remove(ckpt_path.c_str());
        continue;
      }
      // Whatever the run left on disk must reload cleanly (checkpointing
      // always writes at least the rung-entry snapshot).
      Result<DiscoveryCheckpoint> reloaded = LoadCheckpointFile(ckpt_path);
      if (!reloaded.ok()) {
        campaign.Violation(t, "checkpoint integrity failure: " +
                                  reloaded.status().ToString());
        std::remove(ckpt_path.c_str());
        continue;
      }
      if (interrupted.result.stop_reason == StopReason::kCancelled) {
        ++campaign.kills;
        TupeloOptions res = inter;
        res.checkpoint_kill_after = 0;
        res.resume = true;
        final_run = RunOnce(pair, res);
        if (!final_run.ok) {
          campaign.Violation(t, "fault-free resume error: " +
                                    final_run.error);
          std::remove(ckpt_path.c_str());
          continue;
        }
        ++campaign.resumes;
      } else {
        final_run = std::move(interrupted);
      }
      std::remove(ckpt_path.c_str());
    } else if (family == 4) {
      // Transient stall: one injected operator delay (~4-7x the stall
      // window) wedges the rung; the watchdog must preempt it and the
      // fault-free retry must reproduce the clean baseline exactly.
      TrialRun baseline = RunOnce(pair, base);
      if (!baseline.ok) {
        campaign.Violation(t, "stall baseline error: " + baseline.error);
        continue;
      }
      TupeloOptions sup = base;
      sup.supervisor = ChaosSupervision();
      injector.ArmEveryNth("*", Status::Internal("chaos stall"),
                           2 + rng.Below(4));
      injector.SetKind(FaultInjector::Kind::kDelay,
                       static_cast<int64_t>(200 + rng.Below(150)));
      injector.SetMaxFires(1);
      final_run = RunOnce(pair, sup);
      campaign.faults_injected += injector.injected();
      injector.Disarm();
      if (!final_run.ok) {
        campaign.Violation(t, "stall trial error: " + final_run.error);
        continue;
      }
      campaign.stall_preemptions += final_run.result.stall_preemptions;
      campaign.rung_retries += final_run.result.rung_retries;
      if (final_run.result.found != baseline.result.found ||
          final_run.result.verified != baseline.result.verified ||
          final_run.result.mapping.ToScript() !=
              baseline.result.mapping.ToScript()) {
        campaign.Violation(
            t, "stall-recovery equivalence failure (" +
                   std::string(SearchAlgorithmName(algo)) + ", n=" +
                   std::to_string(sizes[which]) + "): baseline " +
                   std::string(StopReasonName(baseline.result.stop_reason)) +
                   " vs recovered " +
                   std::string(StopReasonName(final_run.result.stop_reason)));
      }
    } else if (family == 5) {
      // Poison states: throwing operator faults under supervision. The
      // quarantine must absorb every escaped exception; the run must end
      // in a clean status whatever the outcome.
      TupeloOptions sup = base;
      sup.supervisor = ChaosSupervision();
      Status fault = Status::Internal("chaos poison");
      if (rng.Below(2) == 0) {
        injector.ArmProbabilistic("*", std::move(fault),
                                  0.05 + 0.25 * rng.Unit(), rng.Next());
      } else {
        injector.ArmEveryNth("*", std::move(fault), 2 + rng.Below(8));
      }
      injector.SetKind(rng.Below(2) == 0 ? FaultInjector::Kind::kThrow
                                         : FaultInjector::Kind::kBadAlloc);
      final_run = RunOnce(pair, sup);
      campaign.faults_injected += injector.injected();
      injector.Disarm();
      if (!final_run.ok) {
        campaign.Violation(t, "poison trial error: " + final_run.error);
        continue;
      }
      campaign.states_quarantined += final_run.result.states_quarantined;
      if (final_run.result.found && final_run.result.verified &&
          !final_run.result.verify_status.ok()) {
        campaign.Violation(t, "verified=true with a failed verify_status");
      }
    } else if (family == 6) {
      // Memory pressure: a tiny node bound under supervision. Staged
      // degradation (cache trims, width trims) and/or a clean memory
      // stop are all acceptable; a crash or error status is not.
      TupeloOptions sup = base;
      sup.supervisor = ChaosSupervision();
      sup.supervisor.tick_millis = 2;
      sup.limits.max_memory_nodes = 24 + rng.Below(64);
      final_run = RunOnce(pair, sup);
      if (!final_run.ok) {
        campaign.Violation(t, "memory trial error: " + final_run.error);
        continue;
      }
      campaign.memory_reliefs += final_run.result.memory_reliefs;
      if (final_run.result.found && final_run.result.verified &&
          !final_run.result.verify_status.ok()) {
        campaign.Violation(t, "verified=true with a failed verify_status");
      }
    } else if (family == 7) {
      // Mixed chaos: a random fault kind (throwing, delaying, or status)
      // while checkpointing with a kill under supervision, then a
      // fault-free supervised resume. Invariants only: clean statuses
      // and checkpoint integrity.
      TupeloOptions sup = base;
      sup.supervisor = ChaosSupervision();
      Status fault = Status::Internal("chaos mixed");
      switch (rng.Below(3)) {
        case 0:
          injector.ArmProbabilistic("*", std::move(fault),
                                    0.05 + 0.2 * rng.Unit(), rng.Next());
          injector.SetKind(FaultInjector::Kind::kThrow);
          break;
        case 1:
          injector.ArmEveryNth("*", std::move(fault), 2 + rng.Below(6));
          break;
        default:
          injector.ArmEveryNth("*", std::move(fault), 2 + rng.Below(4));
          injector.SetKind(FaultInjector::Kind::kDelay,
                           static_cast<int64_t>(120 + rng.Below(120)));
          injector.SetMaxFires(1);
          break;
      }
      TupeloOptions inter = sup;
      inter.checkpoint_path = ckpt_path;
      inter.checkpoint_interval_states = 1 + rng.Below(32);
      inter.checkpoint_kill_after = 1 + rng.Below(3);
      TrialRun interrupted = RunOnce(pair, inter);
      campaign.faults_injected += injector.injected();
      injector.Disarm();
      if (!interrupted.ok) {
        campaign.Violation(t, "chaos interrupted run error: " +
                                  interrupted.error);
        std::remove(ckpt_path.c_str());
        continue;
      }
      campaign.stall_preemptions += interrupted.result.stall_preemptions;
      campaign.rung_retries += interrupted.result.rung_retries;
      campaign.states_quarantined += interrupted.result.states_quarantined;
      Result<DiscoveryCheckpoint> reloaded = LoadCheckpointFile(ckpt_path);
      if (!reloaded.ok()) {
        campaign.Violation(t, "checkpoint integrity failure: " +
                                  reloaded.status().ToString());
        std::remove(ckpt_path.c_str());
        continue;
      }
      if (interrupted.result.stop_reason == StopReason::kCancelled) {
        ++campaign.kills;
        TupeloOptions res = inter;
        res.checkpoint_kill_after = 0;
        res.resume = true;
        final_run = RunOnce(pair, res);
        if (!final_run.ok) {
          campaign.Violation(t, "chaos resume error: " + final_run.error);
          std::remove(ckpt_path.c_str());
          continue;
        }
        ++campaign.resumes;
      } else {
        final_run = std::move(interrupted);
      }
      std::remove(ckpt_path.c_str());
    }

    if (family == 8) {
      // serve-crash: preempt a live JobManager mid-flight, recover a
      // fresh one on the same journal, and require every accepted job to
      // reach a clean terminal state. Preemption leaves in-flight jobs
      // un-terminal on disk, which is exactly the kill -9 state.
      const std::string jdir = "fault_campaign_serve_" +
                               std::to_string(args.seed) + "_" +
                               std::to_string(t);
      serve::JobManagerConfig jc;
      jc.journal_dir = jdir;
      jc.workers = 2;
      jc.default_deadline_millis = 1000;
      jc.max_deadline_millis = 2000;
      jc.checkpoint_interval_states = 16;
      jc.trace = &trace;
      std::vector<std::string> ids;
      bool setup_ok = true;
      {
        serve::JobManager manager(jc);
        Status started = manager.Start();
        if (!started.ok()) {
          campaign.Violation(t, "serve start error: " + started.ToString());
          continue;
        }
        for (int j = 0; j < 4; ++j) {
          const SyntheticMatchingPair& p = pairs[rng.Below(pairs.size())];
          serve::JobSpec spec;
          spec.tenant = "trial-" + std::to_string(t);
          spec.source_tdb = WriteTdb(p.source);
          spec.target_tdb = WriteTdb(p.target);
          if (j % 2 == 1) {
            spec.target_tdb = PerturbValues(spec.target_tdb);
            spec.deadline_millis = 300 + static_cast<int64_t>(rng.Below(300));
          }
          Result<serve::SubmitOutcome> outcome = manager.Submit(std::move(spec));
          if (!outcome.ok() || !outcome->accepted) {
            campaign.Violation(t, "serve submit rejected: " +
                                      (outcome.ok()
                                           ? "shed with empty queue"
                                           : outcome.status().ToString()));
            setup_ok = false;
            break;
          }
          ids.push_back(outcome->job_id);
        }
        // Let the workers pick jobs up, then preempt mid-flight.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(20 + rng.Below(80)));
        manager.Shutdown();
        ++campaign.kills;
      }
      if (setup_ok) {
        serve::JobManager recovered(jc);
        Status restarted = recovered.Start();
        if (!restarted.ok()) {
          campaign.Violation(t,
                             "serve recovery error: " + restarted.ToString());
        } else {
          uint64_t states_total = 0;
          for (const std::string& id : ids) {
            Result<serve::JobStatus> status = recovered.WaitTerminal(id, 8000);
            if (!status.ok() ||
                status->state != serve::JobState::kDone) {
              campaign.Violation(
                  t, "serve job " + id + " lost across restart: " +
                         (status.ok() ? "still " +
                                            std::string(JobStateName(
                                                status->state))
                                      : status.status().ToString()));
              continue;
            }
            if (status->stop_reason == "error") {
              campaign.Violation(t, "serve job " + id + " errored: " +
                                        status->partial_script);
            }
            if (status->resumed) ++campaign.resumes;
            states_total += status->states_examined;
            final_run.rr.millis += status->total_millis;
          }
          final_run.ok = true;
          final_run.rr.states = states_total;
          final_run.rr.stop_reason = "exhausted";
          recovered.Shutdown();
        }
      }
      for (const std::string& id : ids) RemoveJobJournal(jdir, id);
      ::rmdir(jdir.c_str());
    }

    if (family == 9) {
      // serve-overload: a one-worker manager with a two-deep admission
      // queue under a burst of deadline-long jobs. Sheds must be typed
      // with a positive Retry-After; accepted jobs must all finish.
      const std::string jdir = "fault_campaign_serve_" +
                               std::to_string(args.seed) + "_" +
                               std::to_string(t);
      serve::JobManagerConfig jc;
      jc.journal_dir = jdir;
      jc.workers = 1;
      jc.queue_limit = 2;
      jc.default_deadline_millis = 200;
      jc.max_deadline_millis = 400;
      jc.checkpoint_interval_states = 64;
      jc.trace = &trace;
      serve::JobManager manager(jc);
      Status started = manager.Start();
      if (!started.ok()) {
        campaign.Violation(t, "serve start error: " + started.ToString());
        continue;
      }
      std::vector<std::string> ids;
      size_t sheds = 0;
      for (int j = 0; j < 6; ++j) {
        const SyntheticMatchingPair& p = pairs[rng.Below(pairs.size())];
        serve::JobSpec spec;
        spec.tenant = "trial-" + std::to_string(t);
        spec.source_tdb = WriteTdb(p.source);
        spec.target_tdb = PerturbValues(WriteTdb(p.target));
        spec.deadline_millis = 200;
        Result<serve::SubmitOutcome> outcome = manager.Submit(std::move(spec));
        if (!outcome.ok()) {
          campaign.Violation(t,
                             "serve submit error: " + outcome.status().ToString());
          continue;
        }
        if (outcome->queue_depth > jc.queue_limit) {
          campaign.Violation(
              t, "serve queue depth " + std::to_string(outcome->queue_depth) +
                     " exceeds limit " + std::to_string(jc.queue_limit));
        }
        if (outcome->accepted) {
          ids.push_back(outcome->job_id);
        } else {
          ++sheds;
          if (outcome->retry_after_millis <= 0) {
            campaign.Violation(t, "serve shed without a Retry-After hint");
          }
        }
      }
      uint64_t states_total = 0;
      for (const std::string& id : ids) {
        Result<serve::JobStatus> status = manager.WaitTerminal(id, 8000);
        if (!status.ok() || status->state != serve::JobState::kDone) {
          campaign.Violation(t, "serve accepted job " + id +
                                    " never reached a terminal state");
          continue;
        }
        states_total += status->states_examined;
        final_run.rr.millis += status->total_millis;
      }
      manager.Shutdown();
      campaign.faults_injected += sheds;
      final_run.ok = true;
      final_run.rr.states = states_total;
      final_run.rr.stop_reason = "exhausted";
      for (const std::string& id : ids) RemoveJobJournal(jdir, id);
      ::rmdir(jdir.c_str());
    }

    // Flight-recorder self-check: any dump this trial left behind must
    // reload cleanly through the binary parser — a corrupt dump is
    // itself a violation.
    bool dumped = false;
    if (std::FILE* f = std::fopen(flight_path.c_str(), "rb"); f != nullptr) {
      std::fclose(f);
      dumped = true;
      ++campaign.flight_dumps;
      Result<obs::FlightRecord> record = obs::LoadFlightRecord(flight_path);
      if (!record.ok()) {
        campaign.Violation(t, "flight-record dump unparseable: " +
                                  record.status().ToString());
      } else if (record->events.empty()) {
        campaign.Violation(t, "flight-record dump has no events");
      }
    }

    if (report.enabled() && final_run.ok) {
      obs::JsonValue run = bench::BenchReport::MakeRun(final_run.rr);
      run["trial"] = t;
      run["family"] = static_cast<uint64_t>(family);
      run["relations_n"] = static_cast<uint64_t>(sizes[which]);
      run["algorithm"] = std::string(SearchAlgorithmName(algo));
      run["trace_events"] = trace.events_recorded();
      run["trace_dropped"] = trace.events_dropped();
      run["stall_preemptions"] = final_run.result.stall_preemptions;
      run["memory_reliefs"] = final_run.result.memory_reliefs;
      run["rung_retries"] = final_run.result.rung_retries;
      run["states_quarantined"] = final_run.result.states_quarantined;
      if (dumped) run["trace_path"] = flight_path;
      report.AddRun(std::move(run));
    }
  }
  SetFaultInjector(nullptr);
  if (!temp_flight_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(temp_flight_dir, ec);
  }

  if (list_only) return 0;

  std::printf(
      "fault campaign: %llu trials, %llu kills, %llu resumes, "
      "%llu faults injected, %llu flight dumps, %llu stall preemptions, "
      "%llu rung retries, %llu memory reliefs, %llu states quarantined, "
      "%llu violations\n",
      static_cast<unsigned long long>(trials_run),
      static_cast<unsigned long long>(campaign.kills),
      static_cast<unsigned long long>(campaign.resumes),
      static_cast<unsigned long long>(campaign.faults_injected),
      static_cast<unsigned long long>(campaign.flight_dumps),
      static_cast<unsigned long long>(campaign.stall_preemptions),
      static_cast<unsigned long long>(campaign.rung_retries),
      static_cast<unsigned long long>(campaign.memory_reliefs),
      static_cast<unsigned long long>(campaign.states_quarantined),
      static_cast<unsigned long long>(campaign.violations));

  if (report.enabled()) {
    report.BeginPanel("summary");
    bench::RunResult summary;
    summary.found = false;
    summary.stop_reason = campaign.violations == 0 ? "exhausted" : "cancelled";
    obs::JsonValue run = bench::BenchReport::MakeRun(summary);
    run["trials"] = trials_run;
    run["kills"] = campaign.kills;
    run["resumes"] = campaign.resumes;
    run["faults_injected"] = campaign.faults_injected;
    run["flight_dumps"] = campaign.flight_dumps;
    run["stall_preemptions"] = campaign.stall_preemptions;
    run["memory_reliefs"] = campaign.memory_reliefs;
    run["rung_retries"] = campaign.rung_retries;
    run["states_quarantined"] = campaign.states_quarantined;
    run["violations"] = campaign.violations;
    report.AddRun(std::move(run));
    if (!report.Write()) return 1;
  }
  return campaign.violations == 0 ? 0 : 1;
}
