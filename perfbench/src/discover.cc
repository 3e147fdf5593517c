// discover_paper and discover_beam: the paper's mapping-discovery tasks
// as back-to-back Tupelo::Discover calls.
//
// Each workload has a fixed task list, built on the paper harnesses' BAMM
// population (seed 2006, as in fig7/fig8); --seed sets the order the
// tasks run in. The expected-outcome file pins every task's outcome.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/tupelo.h"
#include "fira/builtin_functions.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/ida_star.h"
#include "search/parallel_beam.h"
#include "search/rbfs.h"
#include "traced_problem.h"
#include "workloads.h"
#include "workloads/bamm.h"
#include "workloads/restructuring.h"
#include "workloads/semantic.h"
#include "workloads/synthetic.h"

namespace tupelo::perfbench {
namespace {

// Per-task state budgets of discover_paper, per family. Tasks that hit
// them stop with stop=states, which the expected file pins like any other
// outcome.
constexpr uint64_t kSyntheticBudget = 5000;
constexpr uint64_t kBammBudget = 2000;
constexpr uint64_t kSemanticBudget = 200;
constexpr uint64_t kFlightsBudget = 5000;
// Beam is bounded by its width and depth; the state budget only guards.
constexpr uint64_t kBeamBudget = 1000000;

// One task of a workload's universe. Pointers reference Universe storage.
struct TaskSpec {
  std::string id;
  const Database* source = nullptr;
  const Database* target = nullptr;
  const FunctionRegistry* registry = nullptr;
  const std::vector<SemanticCorrespondence>* corrs = nullptr;
  SearchAlgorithm algo = SearchAlgorithm::kIda;
  HeuristicKind heuristic = HeuristicKind::kH1;
  uint64_t budget = 0;
  int max_depth = 0;
};

constexpr size_t kBeamWidth = 8;
// Single-threaded passes move to the fastest CPU every this many tasks
// (about half a second of discover_paper).
constexpr size_t kRepinTasks = 256;
// Set-up calls timed before the first pass and after every pass.
constexpr int kSetupReps = 5;

struct WorkloadConfig {
  bool beam = false;
  size_t threads = 1;
};

WorkloadConfig ConfigFor(const std::string& workload) {
  WorkloadConfig c;
  if (workload == "discover_beam") {
    c.beam = true;
    c.threads = 4;
  }
  return c;
}

struct Universe {
  std::deque<SyntheticMatchingPair> synthetic;
  std::deque<BammWorkload> bamm;
  std::deque<SemanticWorkload> semantic;
  Database flights_wide, flights_flat, flights_split;
  FunctionRegistry builtins;
  std::vector<SemanticCorrespondence> flights_corrs;
  std::vector<SemanticCorrespondence> no_corrs;
  std::vector<TaskSpec> specs;
};

std::string Name(SearchAlgorithm a) {
  return std::string(SearchAlgorithmName(a));
}
std::string Name(HeuristicKind h) { return std::string(HeuristicKindName(h)); }

std::unique_ptr<Universe> BuildUniverse(const WorkloadConfig& config) {
  auto u = std::make_unique<Universe>();
  if (!RegisterBuiltinFunctions(&u->builtins).ok()) return nullptr;
  auto add = [&](TaskSpec spec) { u->specs.push_back(std::move(spec)); };

  for (BammDomain domain : AllBammDomains()) {
    u->bamm.push_back(MakeBammWorkload(domain, kBammPoolSeed));
  }

  if (!config.beam) {
    const std::vector<SearchAlgorithm> algos = {SearchAlgorithm::kIda,
                                                SearchAlgorithm::kRbfs};
    const std::vector<HeuristicKind> kinds = {
        HeuristicKind::kH1, HeuristicKind::kH3, HeuristicKind::kEuclideanNorm,
        HeuristicKind::kCosine, HeuristicKind::kLevenshtein};
    // Exp. 1: synthetic pairs, n = 4..8 (fig5/fig6 right and left panels).
    for (size_t n = 4; n <= 8; ++n) {
      u->synthetic.push_back(MakeSyntheticMatchingPair(n));
      const SyntheticMatchingPair& p = u->synthetic.back();
      for (SearchAlgorithm a : algos) {
        for (HeuristicKind h : kinds) {
          add({"syn/n=" + std::to_string(n) + "/" + Name(a) + "/" + Name(h),
               &p.source, &p.target, nullptr, &u->no_corrs, a, h,
               kSyntheticBudget, static_cast<int>(n) + 4});
        }
      }
    }
    // Exp. 2: every BAMM target of the pool.
    for (size_t d = 0; d < u->bamm.size(); ++d) {
      const BammWorkload& w = u->bamm[d];
      std::string dom(BammDomainName(w.domain));
      for (size_t i = 0; i < w.targets.size(); ++i) {
        for (SearchAlgorithm a : algos) {
          for (HeuristicKind h : kinds) {
            add({"bamm/" + dom + "/" + std::to_string(i) + "/" + Name(a) +
                     "/" + Name(h),
                 &w.source, &w.targets[i], nullptr, &u->no_corrs, a, h,
                 kBammBudget, 12});
          }
        }
      }
    }
    // Exp. 3: Inventory with 1..8 complex correspondences (fig9).
    for (size_t k = 1; k <= 8; ++k) {
      u->semantic.push_back(
          MakeSemanticWorkload(SemanticDomain::kInventory, k));
      const SemanticWorkload& w = u->semantic.back();
      for (SearchAlgorithm a : algos) {
        for (HeuristicKind h : kinds) {
          add({"sem/inventory/k=" + std::to_string(k) + "/" + Name(a) + "/" +
                   Name(h),
               &w.source, &w.target, &w.registry, &w.correspondences, a, h,
               kSemanticBudget, static_cast<int>(k) + 6});
        }
      }
    }
    // Fig. 1: the flights restructurings, at the two carriers and two
    // routes of the figure (fig1_restructuring's first row).
    RestructuringWorkload flights = MakeRestructuringWorkload(2, 2);
    u->flights_wide = std::move(flights.wide);
    u->flights_flat = std::move(flights.flat);
    u->flights_split = std::move(flights.split);
    u->flights_corrs = std::move(flights.flat_to_split);
    struct Direction {
      const char* name;
      const Database* source;
      const Database* target;
      bool lambda;
    };
    const Direction directions[] = {
        {"flat-wide", &u->flights_flat, &u->flights_wide, false},
        {"wide-flat", &u->flights_wide, &u->flights_flat, false},
        {"flat-split", &u->flights_flat, &u->flights_split, true}};
    for (const Direction& dir : directions) {
      for (SearchAlgorithm a : algos) {
        for (HeuristicKind h : kinds) {
          add({std::string("flights/") + dir.name + "/" + Name(a) + "/" +
                   Name(h),
               dir.source, dir.target, dir.lambda ? &u->builtins : nullptr,
               dir.lambda ? &u->flights_corrs : &u->no_corrs, a, h,
               kFlightsBudget, 12});
        }
      }
    }
    return u;
  }

  // discover_beam: synthetic n = 16..32 under the set-based heuristics,
  // BAMM targets under the vector/string ones.
  for (size_t n : {16, 24, 32}) {
    u->synthetic.push_back(MakeSyntheticMatchingPair(n));
    const SyntheticMatchingPair& p = u->synthetic.back();
    for (HeuristicKind h : {HeuristicKind::kH1, HeuristicKind::kH3}) {
      add({"beam/syn/n=" + std::to_string(n) + "/" + Name(h), &p.source,
           &p.target, nullptr, &u->no_corrs, SearchAlgorithm::kBeam, h,
           kBeamBudget, static_cast<int>(n) + 4});
    }
  }
  for (size_t d = 0; d < u->bamm.size(); ++d) {
    const BammWorkload& w = u->bamm[d];
    std::string dom(BammDomainName(w.domain));
    for (size_t i = 0; i < w.targets.size(); ++i) {
      for (HeuristicKind h :
           {HeuristicKind::kCosine, HeuristicKind::kLevenshtein}) {
        add({"beam/bamm/" + dom + "/" + std::to_string(i) + "/" + Name(h),
             &w.source, &w.targets[i], nullptr, &u->no_corrs,
             SearchAlgorithm::kBeam, h, kBeamBudget, 12});
      }
    }
  }
  return u;
}

// The pass's task list: the whole universe in seeded order. The task set
// is fixed so that runs with different seeds differ only in noise.
std::vector<const TaskSpec*> OrderTasks(const Universe& u, uint64_t seed) {
  std::vector<const TaskSpec*> tasks;
  for (const TaskSpec& s : u.specs) tasks.push_back(&s);
  SeededShuffle(tasks, Mix(seed));
  return tasks;
}

// A task's time: CPU time of the calling thread when the task runs on it
// alone, of the whole process when it fans out to a pool.
double TaskCpuMs(const WorkloadConfig& config) {
  return config.threads == 1 ? ThreadCpuMs() : ProcessCpuMs();
}

struct Task {
  const TaskSpec* spec = nullptr;
  std::unique_ptr<Tupelo> tupelo;
  TupeloOptions options;
};

Task MakeTask(const TaskSpec* spec, const WorkloadConfig& config) {
  Task t;
  t.spec = spec;
  t.tupelo = std::make_unique<Tupelo>(*spec->source, *spec->target);
  t.tupelo->set_registry(spec->registry);
  for (const SemanticCorrespondence& c : *spec->corrs) {
    t.tupelo->AddCorrespondence(c);
  }
  t.options.algorithm = spec->algo;
  t.options.heuristic = spec->heuristic;
  t.options.limits.max_states = spec->budget;
  t.options.limits.max_depth = spec->max_depth;
  t.options.threads = config.threads;
  t.options.beam_width = kBeamWidth;
  return t;
}

// A task's observable outcome: what the expected file pins, plus the
// mapping for path comparisons.
struct Outcome {
  bool ok = false;
  bool found = false;
  std::string stop;
  uint64_t states = 0;
  uint64_t generated = 0;
  int cost = -1;
  std::string script;
};

std::string OutcomeLine(const std::string& id, const Outcome& o) {
  return id + "\t" + (o.found ? "1" : "0") + "\t" + o.stop + "\t" +
         std::to_string(o.states) + "\t" + std::to_string(o.cost);
}

std::map<std::string, std::string> LoadExpected(const std::string& path) {
  std::map<std::string, std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines[line.substr(0, line.find('\t'))] = line;
  }
  return lines;
}

// Replays a found mapping on the source with the interpreter and checks
// that the result contains the target, independently of Discover's own
// verification.
bool ReplayContainsTarget(const TaskSpec& spec, const MappingExpression& m) {
  Result<Database> out = m.Apply(*spec.source, spec.registry);
  return out.ok() && out->Contains(*spec.target);
}

Outcome RunUntraced(const Task& task, const MappingExpression** mapping,
                    Result<TupeloResult>* keep) {
  *keep = task.tupelo->Discover(task.options);
  Outcome o;
  if (!keep->ok()) return o;
  const TupeloResult& r = **keep;
  o.ok = true;
  o.found = r.found;
  o.stop = std::string(StopReasonName(r.stop_reason));
  o.states = r.stats.states_examined;
  o.generated = r.stats.states_generated;
  o.cost = r.stats.solution_cost;
  *mapping = &r.mapping;
  return o;
}

// Per traced pass: wall attribution and counters summed over its tasks.
struct TracedPass {
  double task_ns = 0;      // Σ task wall, measured around each task
  double search_ns = 0;    // Σ search-call windows
  double overhead_ns = 0;  // Σ problem build, pool start/join, replay
  WindowShares shares;
  uint64_t states = 0;
  uint64_t generated = 0;
};

// Replicates Tupelo::Discover's single-rung path — MakeHeuristic, a
// MappingProblem with the default SuccessorConfig, a per-call pool when
// threads > 1, the public search template, and the verification replay —
// with the problem wrapped in TracedProblem.
Outcome RunTraced(const Task& task, const WorkloadConfig& config,
                  CallRecorder& rec, obs::MetricRegistry& registry,
                  int64_t task_id, TracedPass& pass) {
  const TaskSpec& spec = *task.spec;
  obs::TraceSession* trace = rec.trace();
  rec.BeginTask(task_id);
  const Clock::time_point outer = Clock::now();
  const int64_t t0 = rec.NowNs();
  Outcome o;
  int64_t s0 = 0, s1 = 0;
  {
    obs::TraceSpan task_span(trace, obs::TraceCategory::kDriver,
                             "perfbench.task", "task", task_id);
    MappingProblem problem(
        *spec.source, *spec.target,
        MakeHeuristic(spec.heuristic, *spec.target, spec.algo, 0.0),
        spec.registry, *spec.corrs, SuccessorConfig());
    problem.set_metrics(&registry);
    TracedProblem traced(problem, rec);
    std::unique_ptr<ThreadPool> pool;
    if (config.threads > 1) pool = std::make_unique<ThreadPool>(config.threads);
    SearchLimits limits;
    limits.max_states = spec.budget;
    limits.max_depth = spec.max_depth;

    SearchOutcome<Op> out;
    s0 = rec.NowNs();
    {
      obs::TraceSpan search_span(trace, obs::TraceCategory::kSearch,
                                 "perfbench.search", "task", task_id);
      switch (spec.algo) {
        case SearchAlgorithm::kIda:
          out = IdaStarSearch(traced, limits);
          break;
        case SearchAlgorithm::kRbfs:
          out = RbfsSearch(traced, limits);
          break;
        default:
          out = ParallelBeamSearch(traced, kBeamWidth, pool.get(),
                                   limits);
          break;
      }
    }
    s1 = rec.NowNs();
    o.ok = true;
    o.found = out.found;
    o.stop = std::string(StopReasonName(out.stop));
    o.states = out.stats.states_examined;
    o.generated = out.stats.states_generated;
    o.cost = out.stats.solution_cost;
    if (out.found) {
      obs::TraceSpan verify_span(trace, obs::TraceCategory::kVerify,
                                 "perfbench.verify", "task", task_id);
      MappingExpression mapping(std::move(out.path));
      if (!ReplayContainsTarget(spec, mapping)) o.ok = false;
      o.script = mapping.ToScript();
    }
    pool.reset();
  }
  const int64_t t1 = rec.NowNs();
  const double task_ns = MillisSince(outer) * 1e6;

  WindowShares w = AttributeWindow(rec.TakeAll(), s0, s1);
  pass.task_ns += task_ns;
  pass.search_ns += static_cast<double>(s1 - s0);
  pass.overhead_ns += static_cast<double>((s0 - t0) + (t1 - s1));
  for (size_t l = 0; l < kLayerCount; ++l) {
    pass.shares.layer_ns[l] += w.layer_ns[l];
    pass.shares.layer_busy_ns[l] += w.layer_busy_ns[l];
    pass.shares.layer_calls[l] += w.layer_calls[l];
  }
  pass.shares.search_self_ns += w.search_self_ns;
  pass.shares.worker_busy_ns += w.worker_busy_ns;
  pass.states += o.states;
  pass.generated += o.generated;
  return o;
}

// Σ of the registry's counters named <prefix>*<suffix>.
uint64_t SumCounters(const obs::JsonValue& counters, const std::string& prefix,
                     const std::string& suffix) {
  uint64_t total = 0;
  if (!counters.is_object()) return 0;
  for (const auto& [name, value] : counters.members()) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += value.as_uint();
    }
  }
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Per-layer numbers of one traced pass, in BENCHMARK.json's names.
std::map<std::string, double> LayerMetrics(const TracedPass& p,
                                           const obs::MetricRegistry& reg,
                                           const WorkloadConfig& config) {
  obs::JsonValue json = reg.ToJson();
  const obs::JsonValue* c = json.Find("counters");
  obs::JsonValue empty;
  const obs::JsonValue& counters = c != nullptr ? *c : empty;
  auto counter = [&](const char* name) {
    const obs::JsonValue* v = counters.Find(name);
    return v != nullptr ? static_cast<double>(v->as_uint()) : 0.0;
  };
  const WindowShares& s = p.shares;
  const size_t kE = static_cast<size_t>(Layer::kExpand);
  const size_t kH = static_cast<size_t>(Layer::kEstimate);
  const size_t kG = static_cast<size_t>(Layer::kGoal);
  const size_t kF = static_cast<size_t>(Layer::kFingerprint);

  // Nested layers get their parent's wall share in proportion to the
  // thread time the program's own counters attribute to them.
  const double exec_ns = static_cast<double>(
      SumCounters(counters, "executor.", ".nanos"));
  const double heur_ns = static_cast<double>(
      SumCounters(counters, "heuristic.", ".nanos"));
  const double fira_ns =
      s.layer_ns[kE] * std::min(1.0, Ratio(exec_ns, s.layer_busy_ns[kE]));
  const double heur_wall_ns =
      s.layer_ns[kH] * std::min(1.0, Ratio(heur_ns, s.layer_busy_ns[kH]));
  const double apply_ops = static_cast<double>(
      SumCounters(counters, "executor.", ".count"));
  const double apply_fail = static_cast<double>(
      SumCounters(counters, "executor.", ".failures"));
  const double evals = static_cast<double>(
      SumCounters(counters, "heuristic.", ".evals"));
  const double expand_hits = counter("expand.cache_hits");
  const double expand_misses = counter("expand.cache_misses");
  const double est_hits = counter("heuristic.cache_hits");

  std::map<std::string, double> m;
  m["search.self_ms"] = s.search_self_ns / 1e6;
  m["search.states_examined"] = static_cast<double>(p.states);
  m["search.states_generated"] = static_cast<double>(p.generated);
  m["search.generated_per_examined"] =
      Ratio(static_cast<double>(p.generated), static_cast<double>(p.states));
  m["core.expand_ms"] = (s.layer_ns[kE] - fira_ns) / 1e6;
  m["core.expand_calls"] = static_cast<double>(s.layer_calls[kE]);
  m["core.expand_us"] =
      Ratio(s.layer_busy_ns[kE] / 1e3, static_cast<double>(s.layer_calls[kE]));
  m["core.expand_cache_hit_ratio"] =
      Ratio(expand_hits, expand_hits + expand_misses);
  m["core.estimate_ms"] = (s.layer_ns[kH] - heur_wall_ns) / 1e6;
  m["core.estimate_calls"] = static_cast<double>(s.layer_calls[kH]);
  m["core.estimate_cache_hit_ratio"] = Ratio(est_hits, est_hits + evals);
  m["core.goal_ms"] = s.layer_ns[kG] / 1e6;
  m["core.fingerprint_ms"] = s.layer_ns[kF] / 1e6;
  m["core.discover_overhead_ms"] = p.overhead_ns / 1e6;
  m["fira.apply_ops"] = apply_ops;
  m["fira.apply_op_ms"] = fira_ns / 1e6;
  m["fira.apply_op_fail_ratio"] = Ratio(apply_fail, apply_ops);
  m["heuristics.evals"] = evals;
  m["heuristics.eval_ms"] = heur_wall_ns / 1e6;
  m["heuristics.eval_us"] = Ratio(heur_ns / 1e3, evals);
  m["relational.cow_copies_per_expand"] = Ratio(
      counter("state.cow_copies"), static_cast<double>(s.layer_calls[kE]));
  m["relational.tnf_kb_per_eval"] =
      Ratio(counter("state.tnf_bytes") / 1024.0, evals);
  m["common.pool_busy_frac"] =
      config.threads > 1
          ? Ratio(s.worker_busy_ns,
                  static_cast<double>(config.threads) * p.search_ns)
          : 0.0;
  // AttributeWindow gives every instant of the search window to exactly one
  // share, so this reads 1 by construction. It is reported, not checked: it
  // moves away from 1 only when a call runs outside its task's search
  // window.
  double self_sum = s.search_self_ns + p.overhead_ns;
  for (size_t l = 0; l < kLayerCount; ++l) self_sum += s.layer_ns[l];
  m["trace.closure_frac"] = Ratio(self_sum, p.task_ns);
  return m;
}

struct Setup {
  std::unique_ptr<Universe> universe;
  std::vector<Task> tasks;
};

bool BuildSetup(const WorkloadConfig& config, uint64_t seed, Setup* setup) {
  setup->universe = BuildUniverse(config);
  if (setup->universe == nullptr) return false;
  setup->tasks.clear();
  for (const TaskSpec* spec : OrderTasks(*setup->universe, seed)) {
    setup->tasks.push_back(MakeTask(spec, config));
  }
  return true;
}

}  // namespace

int WriteDiscoverExpected(const Args& args) {
  const WorkloadConfig config = ConfigFor(args.workload);
  std::unique_ptr<Universe> u = BuildUniverse(config);
  if (u == nullptr) return 1;
  std::ofstream out(args.expected_path);
  out << "# " << args.workload
      << " expected outcomes: id, found, stop, states_examined, cost\n";
  for (const TaskSpec& spec : u->specs) {
    Task task = MakeTask(&spec, config);
    const MappingExpression* mapping = nullptr;
    Result<TupeloResult> keep = Status::Internal("not run");
    Clock::time_point start = Clock::now();
    Outcome o = RunUntraced(task, &mapping, &keep);
    double ms = MillisSince(start);
    if (!o.ok) {
      std::fprintf(stderr, "perfbench: %s failed to run\n", spec.id.c_str());
      return 1;
    }
    out << OutcomeLine(spec.id, o) << "\n";
    std::fprintf(stderr, "%-48s %8.2f ms %s\n", spec.id.c_str(), ms,
                 OutcomeLine("", o).c_str());
  }
  return out.good() ? 0 : 1;
}

RunOutcome RunDiscoverWorkload(const Args& args) {
  RunOutcome result;
  const WorkloadConfig config = ConfigFor(args.workload);
  const std::map<std::string, std::string> expected =
      LoadExpected(args.expected_path);
  if (expected.empty()) {
    result.Fail("no expected outcomes at " + args.expected_path);
    return result;
  }

  // Set-up is timed once here and again after every pass, into a copy
  // that is thrown away, so that setup_s samples the whole run.
  // Every time below is scaled by the gauge (see SpeedGauge).
  SpeedGauge gauge;
  Setup setup;
  bool setup_ok = true;
  std::vector<double> setup_times;
  auto time_setup = [&](Setup* into) {
    TimeSetup(kSetupReps, SetupClock::kThreadCpu, &gauge, &setup_times, [&] {
      setup_ok = BuildSetup(config, args.seed, into) && setup_ok;
    });
  };
  time_setup(&setup);
  auto retime_setup = [&] {
    Setup discarded;
    time_setup(&discarded);
  };
  if (!setup_ok) {
    result.Fail("workload set-up");
    return result;
  }
  const std::vector<Task>& tasks = setup.tasks;

  std::unique_ptr<obs::TraceSession> session;
  if (args.trace) session = std::make_unique<obs::TraceSession>();
  CallRecorder recorder(session.get());

  // Pass 0 warms up and checks every task against the expected file; its
  // outcomes are the reference later passes and the traced passes must
  // reproduce exactly. Timings come from the passes after it.
  std::vector<Outcome> reference(tasks.size());
  OpTimes task_times(tasks.size());
  std::vector<double> pass_wall_s;
  std::vector<double> traced_wall_s;
  std::vector<std::map<std::string, double>> layer_passes;

  const Clock::time_point run_start = Clock::now();
  double last_pass_s = 0;
  for (int pass = 0;; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    const double elapsed = SecondsSince(run_start);
    const bool min_done = pass >= (args.trace ? 3 : 2);
    if (min_done && elapsed + last_pass_s > args.seconds) break;
    if (pass > 0) retime_setup();

    Clock::time_point pass_start = Clock::now();
    if (!traced) {
      std::vector<Outcome> outcomes(tasks.size());
      std::vector<Result<TupeloResult>> keep;
      keep.reserve(tasks.size());
      std::vector<const MappingExpression*> mappings(tasks.size(), nullptr);
      for (size_t i = 0; i < tasks.size(); ++i) {
        if (config.threads == 1 && i % kRepinTasks == 0) {
          PinToFastestCpu();
          gauge.Probe();
        }
        gauge.ProbeIfDue();
        keep.push_back(Status::Internal("not run"));
        const double cpu_start = TaskCpuMs(config);
        outcomes[i] = RunUntraced(tasks[i], &mappings[i], &keep.back());
        const double ms = TaskCpuMs(config) - cpu_start;
        if (pass > 0) task_times.Add(i, gauge.Scale(ms));
      }
      last_pass_s = SecondsSince(pass_start);
      if (pass > 0) pass_wall_s.push_back(last_pass_s);

      // Checks, untimed.
      for (size_t i = 0; i < tasks.size(); ++i) {
        ++result.attempted;
        const TaskSpec& spec = *tasks[i].spec;
        Outcome& o = outcomes[i];
        if (!o.ok) {
          result.Fail(spec.id + ": Discover returned an error");
          continue;
        }
        if (o.found) o.script = mappings[i]->ToScript();
        if (pass == 0) {
          auto it = expected.find(spec.id);
          if (it == expected.end() || it->second != OutcomeLine(spec.id, o)) {
            result.Fail(spec.id + ": outcome " + OutcomeLine(spec.id, o) +
                        " differs from expected " +
                        (it == expected.end() ? "(none)" : it->second));
            continue;
          }
          if (o.found && (!keep[i]->verified ||
                          !ReplayContainsTarget(spec, *mappings[i]))) {
            result.Fail(spec.id + ": found mapping does not replay");
            continue;
          }
          reference[i] = o;
        } else if (OutcomeLine("", o) != OutcomeLine("", reference[i]) ||
                   o.script != reference[i].script) {
          result.Fail(spec.id + ": outcome changed between passes");
        }
      }
      continue;
    }

    obs::MetricRegistry registry;
    TracedPass tp;
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (config.threads == 1 && i % kRepinTasks == 0) PinToFastestCpu();
      ++result.attempted;
      Outcome o = RunTraced(tasks[i], config, recorder, registry,
                            static_cast<int64_t>(i), tp);
      if (!o.ok || OutcomeLine("", o) != OutcomeLine("", reference[i]) ||
          o.script != reference[i].script) {
        result.Fail(tasks[i].spec->id +
                    ": traced run differs from untraced (" +
                    OutcomeLine("", o) + " vs " +
                    OutcomeLine("", reference[i]) + ")");
      }
    }
    last_pass_s = SecondsSince(pass_start);
    traced_wall_s.push_back(last_pass_s);
    layer_passes.push_back(LayerMetrics(tp, registry, config));
  }

  retime_setup();
  const double setup_s = Median(setup_times);
  const std::vector<double> latency = task_times.BestMs();
  const double wall_s = SumSeconds(latency);
  std::fprintf(stderr,
               "perfbench: %s seed=%llu tasks/pass=%zu passes=%zu "
               "latency samples=%zu failed_frac=%.4f reference_ms=%.4f\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), tasks.size(),
               pass_wall_s.size(), task_times.samples(),
               Ratio(static_cast<double>(result.failed),
                     static_cast<double>(result.attempted)),
               gauge.MedianMs());
  if (!args.trace) {
    result.Add("wall_s", wall_s, "s");
    result.Add("task_ms.p50", Percentile(latency, 0.50), "ms");
    result.Add("task_ms.p90", Percentile(latency, 0.90), "ms");
    result.Add("peak_rss_mb", SelfPeakRssMb(), "MB");
    result.Add("setup_s", setup_s, "s");
    return result;
  }

  // Traced run: per-layer medians over the traced passes.
  std::map<std::string, double> layers;
  for (const auto& [name, value] : layer_passes.front()) {
    std::vector<double> values;
    for (const auto& pass : layer_passes) values.push_back(pass.at(name));
    layers[name] = Median(values);
  }
  layers["trace.overhead_frac"] =
      Median(traced_wall_s) / Median(pass_wall_s) - 1.0;
  if (session != nullptr) {
    std::string path = args.out_dir + "/trace_" + args.workload + ".json";
    if (!session->WriteChromeJson(path)) result.Fail("trace export " + path);
  }
  for (const auto& [name, value] : layers) result.Add(name, value, "");
  return result;
}

}  // namespace tupelo::perfbench
