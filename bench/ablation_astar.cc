// Ablation: plain A* (the paper's abandoned first implementation) vs the
// linear-memory IDA*/RBFS. Reports states examined AND peak tracked
// memory (open+closed entries for A*, recursion depth for IDA*/RBFS),
// substantiating §2.3's remark that A*'s exponential memory made early
// TUPELO implementations ineffective.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/mapping_problem.h"
#include "heuristics/heuristic_factory.h"
#include "search/best_first.h"
#include "search/ida_star.h"
#include "search/rbfs.h"
#include "workloads/synthetic.h"

int main(int argc, char** argv) {
  using namespace tupelo;
  using namespace tupelo::bench;

  BenchArgs args = ParseBenchArgs(argc, argv, 250000);
  std::printf("# Ablation: A* baseline vs linear-memory IDA*/RBFS\n");
  std::printf("# synthetic schema matching, h1; budget=%llu\n\n",
              static_cast<unsigned long long>(args.budget));
  PrintRow({"n", "algo", "states", "peak_memory", "depth"}, 14);

  std::vector<size_t> sizes = {2, 4, 6, 8, 10, 12};
  if (args.quick) sizes = {2, 4, 8};

  BenchReport report("ablation_astar", args);
  BenchTrace trace(args);
  report.BeginPanel("memory_comparison");

  for (size_t n : sizes) {
    SyntheticMatchingPair pair = MakeSyntheticMatchingPair(n);
    for (SearchAlgorithm algo :
         {SearchAlgorithm::kAStar, SearchAlgorithm::kIda,
          SearchAlgorithm::kRbfs}) {
      MappingProblem problem(
          pair.source, pair.target,
          MakeHeuristic(HeuristicKind::kH1, pair.target, algo));
      obs::MetricRegistry registry;
      obs::MetricRegistry* metrics = report.enabled() ? &registry : nullptr;
      problem.set_metrics(metrics);
      problem.set_trace(trace.session());
      SearchLimits limits;
      limits.max_states = args.budget;
      limits.max_depth = static_cast<int>(n) + 4;

      auto start = std::chrono::steady_clock::now();
      SearchOutcome<Op> outcome;
      switch (algo) {
        case SearchAlgorithm::kAStar:
          outcome = BestFirstSearch(problem, BestFirstOrder::kAStar, limits,
                                    {metrics, trace.session()});
          break;
        case SearchAlgorithm::kIda:
          outcome = IdaStarSearch(problem, limits, {metrics, trace.session()});
          break;
        case SearchAlgorithm::kRbfs:
          outcome = RbfsSearch(problem, limits, {metrics, trace.session()});
          break;
        default:
          continue;  // memory comparison covers the three paper algorithms
      }
      double millis = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      if (report.enabled()) {
        RunResult r;
        r.found = outcome.found;
        r.cutoff = IsResourceStop(outcome.stop);
        r.stop_reason = std::string(StopReasonName(outcome.stop));
        r.states = outcome.stats.states_examined;
        r.states_generated = outcome.stats.states_generated;
        r.iterations = outcome.stats.iterations;
        r.peak_memory_nodes = outcome.stats.peak_memory_nodes;
        r.depth = outcome.stats.solution_cost;
        r.millis = millis;
        obs::JsonValue run = BenchReport::MakeRun(r);
        run["n"] = static_cast<uint64_t>(n);
        run["algo"] = std::string(SearchAlgorithmName(algo));
        run["metrics"] = registry.ToJson();
        trace.AnnotateRun(run);
        report.AddRun(std::move(run));
      }
      PrintRow({std::to_string(n),
                std::string(SearchAlgorithmName(algo)),
                outcome.found ? std::to_string(outcome.stats.states_examined)
                              : ">" + std::to_string(args.budget) + "*",
                std::to_string(outcome.stats.peak_memory_nodes),
                std::to_string(outcome.stats.solution_cost)},
               14);
    }
  }
  report.Write();
  trace.Write();
  std::printf(
      "\n# peak_memory: A* counts retained open+closed states; IDA*/RBFS "
      "count recursion depth.\n");
  return 0;
}
