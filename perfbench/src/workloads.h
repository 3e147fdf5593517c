#ifndef TUPELO_PERFBENCH_WORKLOADS_H_
#define TUPELO_PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "common.h"

namespace tupelo::perfbench {

// The BAMM population of the paper harnesses (fig7/fig8 run seed 2006).
inline constexpr uint64_t kBammPoolSeed = 2006;

// discover_paper / discover_beam: repeated passes over a seeded task list
// of Tupelo::Discover calls; with args.trace, alternating untraced and
// adapter-traced passes (traced_problem.h).
RunOutcome RunDiscoverWorkload(const Args& args);

// Regenerates the expected-outcome file of a discovery workload: every
// task of the workload's universe, run once.
int WriteDiscoverExpected(const Args& args);

// apply_bulk: CompiledExecutor::Apply over 10^5–10^6-tuple instances,
// every output checked against the interpreter.
RunOutcome RunApplyWorkload(const Args& args);

// serve_open: a spawned tupelo_serve driven open-loop, then closed-loop.
RunOutcome RunServeWorkload(const Args& args);

}  // namespace tupelo::perfbench

#endif  // TUPELO_PERFBENCH_WORKLOADS_H_
