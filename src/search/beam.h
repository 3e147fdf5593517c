#ifndef TUPELO_SEARCH_BEAM_H_
#define TUPELO_SEARCH_BEAM_H_

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "search/instrumentation.h"
#include "search/search_types.h"
#include "search/trace.h"

namespace tupelo {

// Level-synchronous beam search: keep only the `beam_width` lowest-h
// states per depth level. Another of §7's "further search techniques" —
// the cheapest memory-bounded best-first variant, and deliberately
// *incomplete*: if every goal path leaves the beam, the search fails even
// though a mapping exists. Useful as a recall benchmark for heuristics
// (a heuristic whose beam-8 recall is high is trustworthy greedily).
//
// Each depth level runs in two phases:
//
//   Phase A (prepare): a frontier node's goal test, expansion, successor
//   fingerprints, and one batched heuristic estimate of the successors
//   whose fingerprint is not yet in `seen`. With a `pool` of more than one
//   worker, Phase A fans out across it before the merge, one task per
//   node. Workers write only their own Prepared slot and read the
//   problem's const surface (which MappingProblem makes thread-safe) and
//   `seen`, which nothing writes during the fan-out. Without such a pool,
//   Phase A runs inline for each node just before that node's merge.
//
//   Phase B (merge): on the calling thread, in frontier order — budget
//   guard, examined count, best-h update, goal test, then successor dedup
//   against `seen` in generation order.
//
// `seen` only grows, so a successor that is new at merge time was new when
// it was prepared and has its estimate. The dedup set, the budget guard
// and every stats update run in the same order with or without a pool, so
// the SearchOutcome is the same for every pool size (the only divergence
// channel is the expand transposition cache's LRU order, which can shift
// AuxMemoryNodes after an eviction; see docs/PERFORMANCE.md). Only the
// heuristic work differs: a pooled worker cannot see the successors that
// earlier nodes of its level add to `seen`, so it also estimates those. A
// worker that observes the CancelToken skips its node and the merge
// prepares it inline, so a cancellation race costs only parallelism.
//
// Tracing: each depth level opens with an `iteration` instant whose value
// is the smallest h in the frontier — the beam's analog of IDA*'s f-bound,
// and the easiest way to see a beam stall (the best h stops falling).
//
// Checkpointing: the level barrier is the beam's checkpoint boundary (the
// only point where its state is a compact frontier). When a sink is
// installed it is offered a snapshot — frontier, dedup set, level index —
// at the top of each level; a `ctx.seed` carrying a frontier resumes the
// level loop exactly where that snapshot was taken, with bit-identical
// continuation.
//
// Instruments (beyond search.*, pooled runs only): beam.parallel.levels
// counts level barriers, beam.parallel.tasks the node tasks fanned out.
template <typename P>
SearchOutcome<typename P::Action> BeamSearch(
    const P& problem, size_t beam_width,
    const SearchLimits& limits = SearchLimits(),
    const SearchContext<typename P::State, typename P::Action>& ctx = {},
    ThreadPool* pool = nullptr) {
  using Action = typename P::Action;
  using State = typename P::State;

  if (pool != nullptr && pool->size() <= 1) pool = nullptr;
  obs::TraceSession* trace = ctx.trace;
  SearchOutcome<Action> outcome;
  SearchInstrumentation instr(ctx.metrics);
  SearchTraceEmitter emit(trace);
  obs::TraceSpan search_span(
      trace, obs::TraceCategory::kSearch, "search.beam", "workers",
      static_cast<int64_t>(pool == nullptr ? 1 : pool->size()));
  if (beam_width == 0) return outcome;
  auto* sink = ResolveCheckpointSink<State, Action>(limits);

  obs::Counter* levels = nullptr;
  obs::Counter* tasks = nullptr;
  if (ctx.metrics != nullptr && pool != nullptr) {
    levels = &ctx.metrics->GetCounter("beam.parallel.levels");
    tasks = &ctx.metrics->GetCounter("beam.parallel.tasks");
  }

  struct Node {
    State state;
    std::vector<Action> path;
    int64_t h;
  };

  // Dedup on the full 128-bit identity: a 64-bit collision here would
  // silently drop a distinct reachable state from the (already
  // incomplete) beam.
  std::unordered_set<Fp128, Fp128Hash> seen;

  using SuccList = decltype(problem.Expand(problem.initial_state()));

  // Phase A's result for one frontier node, written by exactly one worker
  // task and read by the merge after the WaitGroup barrier (which provides
  // the happens-before edge), or prepared inline by the merge. `ready` is
  // false until then.
  struct Prepared {
    bool ready = false;
    bool is_goal = false;
    SuccList successors;
    std::vector<Fp128> keys;
    // h of each successor that was not in `seen` when prepared; the others
    // merge as duplicates and their entries are never read.
    std::vector<int> hs;
  };

  auto prepare = [&problem, &limits, &seen, trace](const Node& node,
                                                   Prepared& slot) {
    // Emitted on whichever thread runs it, so pooled Phase A work lands on
    // the worker's own track in the trace.
    obs::TraceSpan prep_span(trace, obs::TraceCategory::kSearch,
                             "beam.prepare");
    if (problem.IsGoal(node.state)) {
      slot.is_goal = true;
      slot.ready = true;
      return;
    }
    slot.successors = GuardedExpand(problem, node.state, limits.quarantine);
    const size_t n = slot.successors.size();
    slot.keys.reserve(n);
    std::vector<size_t> fresh;
    std::vector<const State*> fresh_states;
    fresh.reserve(n);
    fresh_states.reserve(n);
    for (size_t s = 0; s < n; ++s) {
      slot.keys.push_back(StateFingerprint(problem, slot.successors[s].state));
      if (seen.contains(slot.keys[s])) continue;
      fresh.push_back(s);
      fresh_states.push_back(&slot.successors[s].state);
    }
    // One batched heuristic round-trip per expansion (see EstimateCosts).
    const std::vector<int> hs = EstimateCosts(problem, fresh_states);
    slot.hs.assign(n, 0);
    for (size_t k = 0; k < fresh.size(); ++k) slot.hs[fresh[k]] = hs[k];
    slot.ready = true;
  };

  std::vector<Node> frontier;
  int start_depth = 0;
  if (ctx.seed != nullptr && !ctx.seed->frontier.empty()) {
    // Resume from a checkpointed level barrier. h is recomputed (the
    // heuristic is deterministic) rather than trusted from the seed.
    for (const auto& entry : ctx.seed->frontier) {
      frontier.push_back(
          Node{entry.state, entry.path, problem.EstimateCost(entry.state)});
    }
    seen.reserve(ctx.seed->closed.size());
    for (const auto& [fp, g] : ctx.seed->closed) seen.insert(fp);
    start_depth = ctx.seed->beam_depth;
  } else {
    const State& root = problem.initial_state();
    seen.insert(StateFingerprint(problem, root));
    frontier.push_back(Node{root, {}, problem.EstimateCost(root)});
  }

  BudgetGuard guard(limits);
  WaitGroup wg;

  for (int depth = start_depth; depth <= limits.max_depth; ++depth) {
    // The memory proxy is computed once per level, before any of the
    // level's expansions.
    uint64_t nodes = static_cast<uint64_t>(frontier.size() + seen.size()) +
                     AuxMemoryNodes(problem);
    outcome.stats.peak_memory_nodes =
        std::max(outcome.stats.peak_memory_nodes, nodes);
    instr.OnPeakMemory(nodes);
    if (sink != nullptr &&
        sink->WantSnapshot(outcome.stats.states_examined)) {
      SearchSeed<State, Action> snap;
      snap.states_examined = outcome.stats.states_examined;
      snap.best_path = outcome.best_path;
      snap.best_h = outcome.best_h;
      snap.beam_depth = depth;
      snap.frontier.reserve(frontier.size());
      for (const Node& node : frontier) {
        snap.frontier.push_back({node.state, node.path, node.h});
      }
      snap.closed.reserve(seen.size());
      for (const Fp128& fp : seen) snap.closed.emplace_back(fp, 0);
      sink->OnSnapshot(std::move(snap));
    }
    int64_t level_best_h = frontier.front().h;
    for (const Node& node : frontier) {
      level_best_h = std::min(level_best_h, node.h);
    }
    emit.Iteration(depth, level_best_h);
    if (levels != nullptr) levels->Increment();
    obs::TraceSpan level_span(trace, obs::TraceCategory::kSearch,
                              "beam.level", "level", depth, "best_h",
                              level_best_h);

    std::vector<Prepared> prepared(frontier.size());
    if (pool != nullptr) {
      // Phase A: fan the frontier out across the pool.
      obs::TraceSpan fan_span(trace, obs::TraceCategory::kSearch,
                              "beam.phase_a", "tasks",
                              static_cast<int64_t>(frontier.size()));
      wg.Add(frontier.size());
      for (size_t i = 0; i < frontier.size(); ++i) {
        pool->Submit([&frontier, &prepared, &prepare, &limits, &wg, i] {
          if (limits.cancel == nullptr || !limits.cancel->cancelled()) {
            // wg.Done() must run even if prepare throws (possible only
            // with no quarantine installed): a leaked Done would wedge
            // the barrier forever. The slot is reset so the merge phase
            // recomputes it inline — on the caller's thread, where the
            // exception propagates to the caller instead of a worker.
            try {
              prepare(frontier[i], prepared[i]);
            } catch (...) {
              prepared[i] = Prepared{};
            }
          }
          wg.Done();
        });
      }
      if (tasks != nullptr) tasks->Increment(frontier.size());
      wg.Wait();
    }

    // Phase B: sequential merge in frontier order.
    obs::TraceSpan merge_span(trace, obs::TraceCategory::kSearch,
                              "beam.phase_b");
    std::vector<Node> next_level;
    for (size_t i = 0; i < frontier.size(); ++i) {
      Node& node = frontier[i];
      // Depth is bounded by the level loop itself; pass 0 so the guard
      // only trips states/memory/deadline/cancel here.
      if (std::optional<StopReason> stop =
              guard.Check(outcome.stats.states_examined, 0, nodes)) {
        outcome.stop = *stop;
        return outcome;
      }
      ++outcome.stats.states_examined;
      instr.OnVisit(problem.StateKey(node.state));
      if (outcome.best_h < 0 || node.h < outcome.best_h) {
        outcome.best_h = static_cast<int>(node.h);
        outcome.best_path = node.path;
      }
      emit.Visit(depth, node.h);

      Prepared& prep = prepared[i];
      if (!prep.ready) prepare(node, prep);

      if (prep.is_goal) {
        emit.Goal(depth);
        outcome.found = true;
        outcome.stop = StopReason::kFound;
        outcome.stats.solution_cost = static_cast<int>(node.path.size());
        outcome.path = std::move(node.path);
        outcome.best_path = outcome.path;
        outcome.best_h = 0;
        return outcome;
      }

      outcome.stats.states_generated += prep.successors.size();
      instr.OnExpand(prep.successors.size());
      for (size_t s = 0; s < prep.successors.size(); ++s) {
        if (!seen.insert(prep.keys[s]).second) {
          instr.OnDuplicateHit();
          continue;
        }
        std::vector<Action> path = node.path;
        path.push_back(std::move(prep.successors[s].action));
        next_level.push_back(Node{std::move(prep.successors[s].state),
                                  std::move(path), prep.hs[s]});
      }
      prep = Prepared{};  // drop the duplicates now, not at the level's end
    }
    if (next_level.empty()) return outcome;  // beam ran dry

    // Keep the beam_width best by h (stable within ties). The supervisor
    // can narrow the effective width mid-run via width pressure (staged
    // memory degradation); pressure-free this is the configured width.
    const size_t level_width =
        EffectiveBeamWidth(beam_width, limits.width_pressure);
    if (next_level.size() > level_width) {
      emit.BeamDrop(depth,
                    static_cast<int64_t>(next_level.size() - level_width));
      std::stable_sort(next_level.begin(), next_level.end(),
                       [](const Node& a, const Node& b) { return a.h < b.h; });
      next_level.resize(level_width);
    }
    frontier = std::move(next_level);
  }
  outcome.stop = StopReason::kDepth;  // level loop ran out of depth budget
  return outcome;
}

}  // namespace tupelo

#endif  // TUPELO_SEARCH_BEAM_H_
