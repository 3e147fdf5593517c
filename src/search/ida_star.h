#ifndef TUPELO_SEARCH_IDA_STAR_H_
#define TUPELO_SEARCH_IDA_STAR_H_

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "search/ledger.h"
#include "search/search_types.h"

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

  SearchLedger ledger(limits, ctx);
  obs::TraceSpan search_span(ctx.trace, obs::TraceCategory::kSearch,
                             "search.ida");

  struct Dfs {
    const P& problem;
    const SearchLimits& limits;
    SearchLedger<State, Action>& ledger;
    std::vector<Action> path_actions;
    std::unordered_set<Fp128, Fp128Hash> path_keys;
    int64_t next_bound = kSearchInfinity;

    // Returns with ledger.done() once the goal is reached or the budget
    // trips.
    void Visit(const State& state, int64_t g, int64_t bound) {
      uint64_t memory_nodes =
          static_cast<uint64_t>(g) + 1 + AuxMemoryNodes(problem);
      if (ledger.Stopped(g, memory_nodes)) return;
      if (ledger.SnapshotDue()) {
        SearchSeed<State, Action> snap = ledger.Snapshot();
        snap.ida_bound = bound;
        ledger.Offer(std::move(snap));
      }
      ledger.Count();
      ledger.Memory(memory_nodes);

      int64_t f = g + problem.EstimateCost(state);
      if (ledger.Visit(g, f, f - g)) ledger.outcome().best_path = path_actions;
      if (f > bound) {
        next_bound = std::min(next_bound, f);
        return;
      }
      if (problem.IsGoal(state)) {
        ledger.Goal(g, path_actions);
        return;
      }
      auto successors = GuardedExpand(problem, state, limits.quarantine);
      ledger.Expand(successors.size());
      for (auto& succ : successors) {
        Fp128 key = StateFingerprint(problem, succ.state);
        if (path_keys.contains(key)) {
          ledger.Duplicate();
          continue;
        }
        path_keys.insert(key);
        path_actions.push_back(succ.action);
        Visit(succ.state, g + 1, bound);
        path_actions.pop_back();
        path_keys.erase(key);
        if (ledger.done()) return;
      }
    }
  };

  Dfs dfs{problem, limits, ledger, {}, {}, kSearchInfinity};

  const State& root = problem.initial_state();
  Fp128 root_key = StateFingerprint(problem, root);
  int64_t bound = problem.EstimateCost(root);
  if (ctx.seed != nullptr && ctx.seed->ida_bound >= 0) {
    // Resume: skip the iterations below the checkpointed bound. Bounds
    // only grow across iterations, so max() is the right merge.
    bound = std::max(bound, ctx.seed->ida_bound);
  }

  while (true) {
    ledger.Iteration(bound);
    obs::TraceSpan iter_span(ctx.trace, obs::TraceCategory::kSearch,
                             "ida.iteration", "bound", bound);
    dfs.next_bound = kSearchInfinity;
    dfs.path_keys = {root_key};
    dfs.path_actions.clear();
    uint64_t states_before = ledger.examined();
    dfs.Visit(root, 0, bound);
    iter_span.SetEndArg(
        "states", static_cast<int64_t>(ledger.examined() - states_before));
    // A goal, a budget trip, or an exhausted space ends the search.
    if (ledger.done() || dfs.next_bound >= kSearchInfinity) {
      return ledger.Release();
    }
    bound = dfs.next_bound;
  }
}

}  // namespace tupelo

#endif  // TUPELO_SEARCH_IDA_STAR_H_
