#ifndef TUPELO_SEARCH_IDA_STAR_H_
#define TUPELO_SEARCH_IDA_STAR_H_

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "search/instrumentation.h"
#include "search/search_types.h"
#include "search/trace.h"

namespace tupelo {

// Iterative Deepening A* (Korf 1985, as described in Nilsson 1998 / §2.3 of
// the paper): repeated depth-first probes bounded by f = g + h, raising the
// bound to the smallest exceeded f-value between iterations. Memory is
// linear in the search depth; states are re-examined across iterations and
// each re-visit counts toward stats.states_examined (the paper's measure).
//
// Cycle avoidance: successors whose full 128-bit identity already occurs
// on the current path are skipped (they can never shorten a unit-cost
// path). Keying on the 64-bit StateKey would let a collision alias two
// distinct path states and wrongly prune a reachable successor.
//
// Checkpointing: a snapshot carries only progress counters and the
// current f-bound — the DFS stack is not serialized. Resume restarts the
// probe at the checkpointed bound; because the DFS is deterministic, the
// resumed run finds the same goal the uninterrupted run would (it merely
// re-expands the prefix of the final iteration).
template <typename P>
SearchOutcome<typename P::Action> IdaStarSearch(
    const P& problem, const SearchLimits& limits = SearchLimits(),
    const SearchContext<typename P::State, typename P::Action>& ctx = {}) {
  using Action = typename P::Action;
  using State = typename P::State;

  SearchOutcome<Action> outcome;
  SearchInstrumentation instr(ctx.metrics);
  SearchTraceEmitter emit(ctx.trace);
  obs::TraceSpan search_span(ctx.trace, obs::TraceCategory::kSearch,
                             "search.ida");
  auto* sink = ResolveCheckpointSink<State, Action>(limits);

  struct Dfs {
    const P& problem;
    const SearchLimits& limits;
    SearchOutcome<Action>& out;
    SearchTraceEmitter& emit;
    SearchInstrumentation& instr;
    BudgetGuard& guard;
    CheckpointSink<State, Action>* sink;
    std::vector<Action> path_actions;
    std::unordered_set<Fp128, Fp128Hash> path_keys;
    int64_t next_bound = kSearchInfinity;
    StopReason abort_reason = StopReason::kExhausted;
    bool aborted = false;

    enum class Verdict { kFound, kNotFound };

    Verdict Visit(const State& state, int64_t g, int64_t bound) {
      uint64_t memory_nodes =
          static_cast<uint64_t>(g) + 1 + AuxMemoryNodes(problem);
      if (std::optional<StopReason> stop = guard.Check(
              out.stats.states_examined, g, memory_nodes)) {
        aborted = true;
        abort_reason = *stop;
        return Verdict::kNotFound;
      }
      if (sink != nullptr && guard.checkpoint_due() &&
          sink->WantSnapshot(out.stats.states_examined)) {
        SearchSeed<State, Action> snap;
        snap.states_examined = out.stats.states_examined;
        snap.best_path = out.best_path;
        snap.best_h = out.best_h;
        snap.ida_bound = bound;
        sink->OnSnapshot(std::move(snap));
      }
      ++out.stats.states_examined;
      out.stats.peak_memory_nodes =
          std::max(out.stats.peak_memory_nodes, memory_nodes);
      instr.OnVisit(problem.StateKey(state));
      instr.OnPeakMemory(memory_nodes);

      int64_t f = g + problem.EstimateCost(state);
      if (int h = static_cast<int>(f - g); out.best_h < 0 || h < out.best_h) {
        out.best_h = h;
        out.best_path = path_actions;
      }
      emit.Visit(static_cast<int>(g), f);
      if (f > bound) {
        next_bound = std::min(next_bound, f);
        return Verdict::kNotFound;
      }
      if (problem.IsGoal(state)) {
        emit.Goal(static_cast<int>(g));
        out.found = true;
        out.stop = StopReason::kFound;
        out.path = path_actions;
        out.best_path = path_actions;
        out.best_h = 0;
        out.stats.solution_cost = static_cast<int>(g);
        return Verdict::kFound;
      }
      auto successors = GuardedExpand(problem, state, limits.quarantine);
      out.stats.states_generated += successors.size();
      instr.OnExpand(successors.size());
      for (auto& succ : successors) {
        Fp128 key = StateFingerprint(problem, succ.state);
        if (path_keys.contains(key)) {
          instr.OnDuplicateHit();
          continue;
        }
        path_keys.insert(key);
        path_actions.push_back(succ.action);
        Verdict v = Visit(succ.state, g + 1, bound);
        path_actions.pop_back();
        path_keys.erase(key);
        if (v == Verdict::kFound || aborted) return v;
      }
      return Verdict::kNotFound;
    }
  };

  BudgetGuard guard(limits);
  Dfs dfs{problem, limits, outcome, emit,
          instr,   guard,  sink,    {},      {},
          kSearchInfinity, StopReason::kExhausted, false};

  const State& root = problem.initial_state();
  Fp128 root_key = StateFingerprint(problem, root);
  int64_t bound = problem.EstimateCost(root);
  if (ctx.seed != nullptr && ctx.seed->ida_bound >= 0) {
    // Resume: skip the iterations below the checkpointed bound. Bounds
    // only grow across iterations, so max() is the right merge.
    bound = std::max(bound, ctx.seed->ida_bound);
  }

  while (true) {
    emit.Iteration(0, bound);
    instr.OnIteration(bound);
    obs::TraceSpan iter_span(ctx.trace, obs::TraceCategory::kSearch,
                             "ida.iteration", "bound", bound);
    dfs.next_bound = kSearchInfinity;
    dfs.path_keys = {root_key};
    dfs.path_actions.clear();
    uint64_t states_before = outcome.stats.states_examined;
    typename Dfs::Verdict v = dfs.Visit(root, 0, bound);
    ++outcome.stats.iterations;
    iter_span.SetEndArg("states", static_cast<int64_t>(
                                      outcome.stats.states_examined -
                                      states_before));
    if (v == Dfs::Verdict::kFound) return outcome;
    if (dfs.aborted) {
      outcome.stop = dfs.abort_reason;
      return outcome;
    }
    if (dfs.next_bound >= kSearchInfinity) return outcome;  // space exhausted
    bound = dfs.next_bound;
  }
}

}  // namespace tupelo

#endif  // TUPELO_SEARCH_IDA_STAR_H_
