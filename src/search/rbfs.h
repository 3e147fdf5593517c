#ifndef TUPELO_SEARCH_RBFS_H_
#define TUPELO_SEARCH_RBFS_H_

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "search/ledger.h"
#include "search/search_types.h"

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

  SearchLedger ledger(limits, ctx);
  obs::TraceSpan search_span(ctx.trace, obs::TraceCategory::kSearch,
                             "search.rbfs");

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
    SearchLedger<State, Action>& ledger;
    std::vector<Action> path_actions;
    std::unordered_set<Fp128, Fp128Hash> path_keys;

    // Returns the backed-up f-value. `static_f` is g + h of `state`;
    // `stored_f` its current backed-up value (≥ static_f). Returns with
    // ledger.done() once the goal is reached or the budget trips.
    int64_t Visit(const State& state, int64_t g, int64_t static_f,
                  int64_t stored_f, int64_t f_limit) {
      uint64_t memory_nodes =
          static_cast<uint64_t>(g) + 1 + AuxMemoryNodes(problem);
      if (ledger.Stopped(g, memory_nodes)) return kSearchInfinity;
      // Progress only; no resumable core.
      if (ledger.SnapshotDue()) ledger.Offer(ledger.Snapshot());
      ledger.Count();
      ledger.Memory(memory_nodes);
      if (ledger.Visit(g, static_f, static_f - g)) {
        ledger.outcome().best_path = path_actions;
      }

      if (problem.IsGoal(state)) {
        ledger.Goal(g, path_actions);
        return stored_f;
      }

      auto successors = GuardedExpand(problem, state, limits.quarantine);
      ledger.Expand(successors.size());
      std::vector<Child> children;
      children.reserve(successors.size());
      for (auto& succ : successors) {
        Fp128 key = StateFingerprint(problem, succ.state);
        if (path_keys.contains(key)) {
          ledger.Duplicate();
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
      if (children.empty()) return kSearchInfinity;

      while (true) {
        // Identify best and second-best children by stored f.
        size_t best = 0;
        for (size_t i = 1; i < children.size(); ++i) {
          if (children[i].stored_f < children[best].stored_f) best = i;
        }
        if (children[best].stored_f > f_limit ||
            children[best].stored_f >= kSearchInfinity) {
          return children[best].stored_f;
        }
        int64_t alternative = kSearchInfinity;
        for (size_t i = 0; i < children.size(); ++i) {
          if (i != best) {
            alternative = std::min(alternative, children[i].stored_f);
          }
        }
        path_keys.insert(children[best].key);
        path_actions.push_back(children[best].action);
        int64_t backed_up =
            Visit(children[best].state, g + 1, children[best].static_f,
                  children[best].stored_f, std::min(f_limit, alternative));
        path_actions.pop_back();
        path_keys.erase(children[best].key);
        if (ledger.done()) return kSearchInfinity;
        children[best].stored_f = backed_up;
      }
    }
  };

  Rec rec{problem, limits, ledger, {}, {}};
  const State& root = problem.initial_state();
  rec.path_keys.insert(StateFingerprint(problem, root));
  int64_t root_f = problem.EstimateCost(root);
  rec.Visit(root, 0, root_f, root_f, kSearchInfinity);
  return ledger.Release();
}

}  // namespace tupelo

#endif  // TUPELO_SEARCH_RBFS_H_
