#ifndef TUPELO_SEARCH_GREEDY_H_
#define TUPELO_SEARCH_GREEDY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "search/instrumentation.h"
#include "search/search_types.h"
#include "search/trace.h"

namespace tupelo {

// Greedy best-first search: expand the open node with the smallest h,
// ignoring path cost. One of the "further search techniques from the AI
// literature" the paper's future work (§7) points at: it trades the
// optimality pressure of f = g + h for raw goal-seeking speed, and is a
// useful comparison point for TUPELO's heuristics — a heuristic that only
// works under greedy search is too weak to order f-ties, and one that
// fails under greedy search is actively misleading.
//
// Memory grows with the states retained (like A*); duplicates are pruned
// via a closed set, so states are examined at most once.
//
// Checkpointing: like A*, a snapshot serializes the live open list (action
// paths plus original seq numbers) and the closed set; resume rebuilds the
// heap with h recomputed from the deterministic heuristic and the
// preserved seq keeping FIFO tiebreaks, so pop order matches the
// uninterrupted run exactly.
template <typename P>
SearchOutcome<typename P::Action> GreedySearch(
    const P& problem, const SearchLimits& limits = SearchLimits(),
    const SearchContext<typename P::State, typename P::Action>& ctx = {}) {
  using Action = typename P::Action;
  using State = typename P::State;

  SearchOutcome<Action> outcome;
  SearchInstrumentation instr(ctx.metrics);
  SearchTraceEmitter emit(ctx.trace);
  obs::TraceSpan search_span(ctx.trace, obs::TraceCategory::kSearch,
                             "search.greedy");
  auto* sink = ResolveCheckpointSink<State, Action>(limits);

  struct Node {
    State state;
    int64_t g;
    std::shared_ptr<const Node> parent;
    Action action_from_parent;  // undefined for the root
    // Actions leading to this node when it is a chain root restored from
    // a checkpoint (empty otherwise); reconstruct() prepends it.
    std::vector<Action> prefix;
  };
  using NodePtr = std::shared_ptr<const Node>;

  struct QueueEntry {
    int64_t h;
    uint64_t seq;
    NodePtr node;
  };
  struct Worse {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.h != b.h) return a.h > b.h;
      return a.seq > b.seq;  // FIFO tiebreak
    }
  };

  std::priority_queue<QueueEntry, std::vector<QueueEntry>, Worse> open;
  // Closed set keyed on the full 128-bit identity: a 64-bit collision
  // would silently discard a distinct reachable state.
  std::unordered_set<Fp128, Fp128Hash> seen;
  uint64_t seq = 0;

  auto reconstruct = [](const Node* n) {
    std::vector<Action> path;
    for (; n->parent != nullptr; n = n->parent.get()) {
      path.push_back(n->action_from_parent);
    }
    std::reverse(path.begin(), path.end());
    path.insert(path.begin(), n->prefix.begin(), n->prefix.end());
    return path;
  };

  if (ctx.seed != nullptr && !ctx.seed->open.empty()) {
    // Resume: rebuild the open list from checkpointed paths. Each entry
    // becomes its own chain root carrying its path as the prefix.
    seq = ctx.seed->next_seq;
    for (const auto& entry : ctx.seed->open) {
      int64_t g = static_cast<int64_t>(entry.path.size());
      NodePtr n(new Node{entry.state, g, nullptr, Action{}, entry.path});
      int64_t h = problem.EstimateCost(entry.state);
      open.push(QueueEntry{h, entry.seq, std::move(n)});
    }
    seen.reserve(ctx.seed->closed.size());
    for (const auto& [fp, g] : ctx.seed->closed) seen.insert(fp);
  } else {
    const State& root_state = problem.initial_state();
    NodePtr root(new Node{root_state, 0, nullptr, Action{}, {}});
    seen.insert(StateFingerprint(problem, root_state));
    open.push(QueueEntry{problem.EstimateCost(root_state), seq++, root});
  }

  BudgetGuard guard(limits);
  NodePtr best_node;  // anytime: lowest-h state examined so far

  while (!open.empty()) {
    uint64_t nodes = static_cast<uint64_t>(open.size() + seen.size()) +
                     AuxMemoryNodes(problem);
    outcome.stats.peak_memory_nodes =
        std::max(outcome.stats.peak_memory_nodes, nodes);
    instr.OnPeakMemory(nodes);
    if (sink != nullptr && guard.checkpoint_due() &&
        sink->WantSnapshot(outcome.stats.states_examined)) {
      SearchSeed<State, Action> snap;
      snap.states_examined = outcome.stats.states_examined;
      if (best_node != nullptr) snap.best_path = reconstruct(best_node.get());
      snap.best_h = outcome.best_h;
      auto copy = open;  // heap copy; drained below in pop order
      while (!copy.empty()) {
        const QueueEntry& e = copy.top();
        snap.open.push_back(
            {e.node->state, reconstruct(e.node.get()), e.h, e.seq});
        copy.pop();
      }
      snap.next_seq = seq;
      snap.closed.reserve(seen.size());
      for (const Fp128& fp : seen) snap.closed.emplace_back(fp, 0);
      sink->OnSnapshot(std::move(snap));
    }
    QueueEntry entry = open.top();
    open.pop();
    const NodePtr& node = entry.node;

    if (std::optional<StopReason> stop =
            guard.Check(outcome.stats.states_examined, node->g, nodes)) {
      outcome.stop = *stop;
      if (best_node != nullptr) outcome.best_path = reconstruct(best_node.get());
      return outcome;
    }
    ++outcome.stats.states_examined;
    instr.OnVisit(problem.StateKey(node->state));
    if (outcome.best_h < 0 || entry.h < outcome.best_h) {
      outcome.best_h = static_cast<int>(entry.h);
      best_node = node;
    }
    emit.Visit(static_cast<int>(node->g), entry.h);

    if (problem.IsGoal(node->state)) {
      emit.Goal(static_cast<int>(node->g));
      outcome.found = true;
      outcome.stop = StopReason::kFound;
      outcome.stats.solution_cost = static_cast<int>(node->g);
      outcome.path = reconstruct(node.get());
      outcome.best_path = outcome.path;
      outcome.best_h = 0;
      return outcome;
    }

    auto successors = GuardedExpand(problem, node->state, limits.quarantine);
    outcome.stats.states_generated += successors.size();
    instr.OnExpand(successors.size());
    for (auto& succ : successors) {
      Fp128 key = StateFingerprint(problem, succ.state);
      if (!seen.insert(key).second) {
        instr.OnDuplicateHit();
        continue;
      }
      int64_t h = problem.EstimateCost(succ.state);
      NodePtr child(new Node{std::move(succ.state), node->g + 1, node,
                             std::move(succ.action), {}});
      open.push(QueueEntry{h, seq++, std::move(child)});
    }
  }
  if (best_node != nullptr) outcome.best_path = reconstruct(best_node.get());
  return outcome;
}

}  // namespace tupelo

#endif  // TUPELO_SEARCH_GREEDY_H_
