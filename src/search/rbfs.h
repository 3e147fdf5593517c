#ifndef TUPELO_SEARCH_RBFS_H_
#define TUPELO_SEARCH_RBFS_H_

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "search/instrumentation.h"
#include "search/search_types.h"
#include "search/trace.h"

namespace tupelo {

// Recursive Best-First Search (Korf 1993, as described in Nilsson 1998 /
// §2.3 of the paper): best-first exploration using memory linear in the
// search depth. Each recursion explores the lowest-f child under an
// f-limit given by the best alternative elsewhere in the tree, backing up
// the cheapest unexplored f-value on unwind. Re-descents re-examine states
// and each re-visit counts toward stats.states_examined.
//
// Children inherit the parent's backed-up value F(n) only when F(n)
// exceeds the parent's static f(n) — i.e. only when the subtree has been
// explored and backed up before (Korf's condition). Inheriting
// unconditionally would clamp all children of a node with an inflated
// heuristic to one tie value and degenerate into a blind plateau sweep.
//
// Checkpointing: RBFS has no compact resumable core (its state is the
// recursion stack's backed-up values), so snapshots carry progress
// counters and the best partial path only, and `ctx.seed` never seeds the
// search — resume restarts from the root. The algorithm is deterministic,
// so the restarted run reaches the same result as an uninterrupted one.
template <typename P>
SearchOutcome<typename P::Action> RbfsSearch(
    const P& problem, const SearchLimits& limits = SearchLimits(),
    const SearchContext<typename P::State, typename P::Action>& ctx = {}) {
  using Action = typename P::Action;
  using State = typename P::State;

  SearchOutcome<Action> outcome;
  SearchInstrumentation instr(ctx.metrics);
  SearchTraceEmitter emit(ctx.trace);
  obs::TraceSpan search_span(ctx.trace, obs::TraceCategory::kSearch,
                             "search.rbfs");
  CheckpointSink<State, Action>* const sink = ctx.sink;

  struct Child {
    Action action;
    State state;
    Fp128 key;  // full 128-bit identity for cycle detection
    int64_t static_f;  // g + h, fixed
    int64_t stored_f;  // backed-up value, monotonically raised
  };

  struct Rec {
    const P& problem;
    const SearchLimits& limits;
    SearchOutcome<Action>& out;
    SearchTraceEmitter& emit;
    SearchInstrumentation& instr;
    BudgetGuard& guard;
    CheckpointSink<State, Action>* sink;
    std::vector<Action> path_actions;
    std::unordered_set<Fp128, Fp128Hash> path_keys;
    StopReason abort_reason = StopReason::kExhausted;
    bool aborted = false;

    // Returns (found, backed-up f-value). `static_f` is g + h of `state`;
    // `stored_f` its current backed-up value (≥ static_f).
    std::pair<bool, int64_t> Visit(const State& state, int64_t g,
                                   int64_t static_f, int64_t stored_f,
                                   int64_t f_limit) {
      uint64_t memory_nodes =
          static_cast<uint64_t>(g) + 1 + AuxMemoryNodes(problem);
      if (std::optional<StopReason> stop = guard.Check(
              out.stats.states_examined, g, memory_nodes)) {
        aborted = true;
        abort_reason = *stop;
        return {false, kSearchInfinity};
      }
      if (sink != nullptr && guard.checkpoint_due() &&
          sink->WantSnapshot(out.stats.states_examined)) {
        SearchSeed<State, Action> snap;  // progress only; no resumable core
        snap.states_examined = out.stats.states_examined;
        snap.best_path = out.best_path;
        snap.best_h = out.best_h;
        sink->OnSnapshot(std::move(snap));
      }
      ++out.stats.states_examined;
      out.stats.peak_memory_nodes =
          std::max(out.stats.peak_memory_nodes, memory_nodes);
      instr.OnVisit();
      instr.OnPeakMemory(memory_nodes);
      if (int h = static_cast<int>(static_f - g);
          out.best_h < 0 || h < out.best_h) {
        out.best_h = h;
        out.best_path = path_actions;
      }
      emit.Visit(static_cast<int>(g), static_f);

      if (problem.IsGoal(state)) {
        emit.Goal(static_cast<int>(g));
        out.found = true;
        out.stop = StopReason::kFound;
        out.path = path_actions;
        out.best_path = path_actions;
        out.best_h = 0;
        out.stats.solution_cost = static_cast<int>(g);
        return {true, stored_f};
      }

      auto successors = GuardedExpand(problem, state, limits.quarantine);
      out.stats.states_generated += successors.size();
      instr.OnExpand(successors.size());
      std::vector<Child> children;
      children.reserve(successors.size());
      for (auto& succ : successors) {
        Fp128 key = StateFingerprint(problem, succ.state);
        if (path_keys.contains(key)) {
          instr.OnDuplicateHit();
          continue;
        }
        int64_t f = g + 1 + problem.EstimateCost(succ.state);
        // Korf's inheritance: when this node has been explored before
        // (its stored value exceeds its static value), its children's
        // costs are known to be at least the stored value.
        int64_t child_stored = stored_f > static_f ? std::max(f, stored_f) : f;
        children.push_back(Child{std::move(succ.action),
                                 std::move(succ.state), key, f,
                                 child_stored});
      }
      if (children.empty()) return {false, kSearchInfinity};

      while (true) {
        // Identify best and second-best children by stored f.
        size_t best = 0;
        for (size_t i = 1; i < children.size(); ++i) {
          if (children[i].stored_f < children[best].stored_f) best = i;
        }
        if (children[best].stored_f > f_limit ||
            children[best].stored_f >= kSearchInfinity) {
          return {false, children[best].stored_f};
        }
        int64_t alternative = kSearchInfinity;
        for (size_t i = 0; i < children.size(); ++i) {
          if (i != best) {
            alternative = std::min(alternative, children[i].stored_f);
          }
        }
        path_keys.insert(children[best].key);
        path_actions.push_back(children[best].action);
        auto [found, backed_up] =
            Visit(children[best].state, g + 1, children[best].static_f,
                  children[best].stored_f, std::min(f_limit, alternative));
        if (found) return {true, backed_up};
        path_actions.pop_back();
        path_keys.erase(children[best].key);
        if (aborted) return {false, kSearchInfinity};
        children[best].stored_f = backed_up;
      }
    }
  };

  BudgetGuard guard(limits, sink != nullptr);
  Rec rec{problem, limits, outcome, emit, instr, guard, sink,
          {},      {},     StopReason::kExhausted, false};
  const State& root = problem.initial_state();
  rec.path_keys.insert(StateFingerprint(problem, root));
  int64_t root_f = problem.EstimateCost(root);
  auto [found, backed_up] =
      rec.Visit(root, 0, root_f, root_f, kSearchInfinity);
  (void)found;
  (void)backed_up;
  if (rec.aborted) outcome.stop = rec.abort_reason;
  return outcome;
}

}  // namespace tupelo

#endif  // TUPELO_SEARCH_RBFS_H_
