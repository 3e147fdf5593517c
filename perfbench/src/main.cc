// perfbench: TUPELO's benchmark binary. One workload per process:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --expected FILE --bin-dir DIR --out-dir DIR
//   perfbench --workload discover_paper|discover_beam --write-expected
//             --expected FILE
//
// The last stdout line is the JSON result: with --trace 0 the end-to-end
// metrics, with --trace 1 the per-layer ones (see perfbench/README.md).
// Exits 1 when any operation failed its correctness check.

#include <malloc.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace tupelo::perfbench {
namespace {

struct CatalogEntry {
  const char* name;
  const char* unit;
};

const std::vector<CatalogEntry> kEndToEnd = {
    {"wall_s", "s"},           {"task_ms.p50", "ms"}, {"task_ms.p90", "ms"},
    {"peak_rss_mb", "MB"},     {"setup_s", "s"},
};

// Every per-layer metric is printed on every workload; a layer the
// workload does not exercise reads 0.
const std::vector<CatalogEntry> kPerLayer = {
    {"search.self_ms", "ms"},
    {"search.states_examined", "count"},
    {"search.states_generated", "count"},
    {"search.generated_per_examined", "ratio"},
    {"core.expand_ms", "ms"},
    {"core.expand_calls", "count"},
    {"core.expand_us", "us"},
    {"core.expand_cache_hit_ratio", "ratio"},
    {"core.estimate_ms", "ms"},
    {"core.estimate_calls", "count"},
    {"core.estimate_cache_hit_ratio", "ratio"},
    {"core.goal_ms", "ms"},
    {"core.fingerprint_ms", "ms"},
    {"core.discover_overhead_ms", "ms"},
    {"core.checkpoint_writes_per_job", "count"},
    {"core.checkpoint_kb_per_job", "kB"},
    {"fira.apply_ops", "count"},
    {"fira.apply_op_ms", "ms"},
    {"fira.apply_op_fail_ratio", "ratio"},
    {"fira.apply_mtuples_per_s", "Mtuples/s"},
    {"fira.compiled_ns_per_tuple", "ns"},
    {"fira.interp_ns_per_tuple", "ns"},
    {"fira.fused_op_share", "ratio"},
    {"heuristics.evals", "count"},
    {"heuristics.eval_ms", "ms"},
    {"heuristics.eval_us", "us"},
    {"relational.cow_copies_per_expand", "count"},
    {"relational.tnf_kb_per_eval", "kB"},
    {"common.pool_busy_frac", "ratio"},
    {"serve.job_ms.p99", "ms"},
    {"serve.jobs_per_s", "jobs/s"},
    {"serve.submit_ack_ms.p50", "ms"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.run_ms.p50", "ms"},
    {"serve.rpcs_per_job", "count"},
    {"serve.gen_lag_ms.max", "ms"},
    {"trace.closure_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

int Main(int argc, char** argv) {
  // Keep freed heap memory mapped in this process: repeated passes then
  // reuse the pages of the previous pass instead of faulting fresh ones in,
  // whose cost on a virtual machine drifts far more than the program's own
  // work. With glibc's defaults, apply_bulk's wall_s read 21% higher and
  // spread 0.49 instead of 0.21 across seeds (see perfbench/README.md).
  // The spawned tupelo_serve keeps glibc's defaults.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_MAX, 0);  // large blocks come from the heap too
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const bool discover =
      args.workload == "discover_paper" || args.workload == "discover_beam";
  if (args.write_expected) {
    return discover ? WriteDiscoverExpected(args) : 2;
  }

  RunOutcome outcome;
  if (discover) {
    outcome = RunDiscoverWorkload(args);
  } else if (args.workload == "apply_bulk") {
    outcome = RunApplyWorkload(args);
  } else if (args.workload == "serve_open") {
    outcome = RunServeWorkload(args);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (outcome.attempted == 0) outcome.Fail("no operation ran");

  std::map<std::string, double> measured;
  for (const Metric& m : outcome.metrics) measured[m.name] = m.value;
  RunOutcome printed = outcome;
  printed.metrics.clear();
  for (const CatalogEntry& e : args.trace ? kPerLayer : kEndToEnd) {
    auto it = measured.find(e.name);
    printed.Add(e.name, it != measured.end() ? it->second : 0.0, e.unit);
  }
  std::printf("%s\n", ResultJson(printed).c_str());
  std::fflush(stdout);
  return printed.correct && printed.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tupelo::perfbench

int main(int argc, char** argv) { return tupelo::perfbench::Main(argc, argv); }
