#ifndef TUPELO_SEARCH_A_STAR_H_
#define TUPELO_SEARCH_A_STAR_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "search/instrumentation.h"
#include "search/search_types.h"
#include "search/trace.h"

namespace tupelo {

// Classic best-first A* with open/closed lists. Kept as the baseline the
// paper's early TUPELO implementation used and abandoned: its memory use is
// exponential in the search depth (tracked in stats.peak_memory_nodes),
// which is what the linear-memory IDA*/RBFS implementations fix.
//
// Checkpointing: a snapshot serializes the live open list (each entry's
// action path plus its original seq number) and the closed map. Resume
// rebuilds the heap from those paths — g is the path length, f is
// recomputed from the deterministic heuristic, and the preserved seq
// keeps FIFO tiebreaks — so pops continue in exactly the order the
// uninterrupted run would have used (the comparator is a total order).
template <typename P>
SearchOutcome<typename P::Action> AStarSearch(
    const P& problem, const SearchLimits& limits = SearchLimits(),
    const SearchContext<typename P::State, typename P::Action>& ctx = {}) {
  using Action = typename P::Action;
  using State = typename P::State;

  SearchOutcome<Action> outcome;
  SearchInstrumentation instr(ctx.metrics);
  SearchTraceEmitter emit(ctx.trace);
  obs::TraceSpan search_span(ctx.trace, obs::TraceCategory::kSearch,
                             "search.astar");
  CheckpointSink<State, Action>* const sink = ctx.sink;

  struct Node {
    State state;
    Fp128 key;  // full 128-bit identity; key.lo feeds the instruments
    int64_t g;
    // Parent chain for path reconstruction.
    std::shared_ptr<const Node> parent;
    Action action_from_parent;  // undefined for the root
    // Actions leading to this node when it is a chain root restored from
    // a checkpoint (empty otherwise); reconstruct() prepends it.
    std::vector<Action> prefix;
  };
  using NodePtr = std::shared_ptr<const Node>;

  struct QueueEntry {
    int64_t f;
    int64_t g;
    uint64_t seq;  // FIFO tiebreak for determinism
    NodePtr node;
  };
  struct Worse {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.f != b.f) return a.f > b.f;
      if (a.g != b.g) return a.g < b.g;  // prefer deeper (closer to goal)
      return a.seq > b.seq;
    }
  };

  std::priority_queue<QueueEntry, std::vector<QueueEntry>, Worse> open;
  // Best g seen per state, keyed on the full 128-bit identity: a 64-bit
  // collision would alias two distinct states' g-values and silently
  // prune one of them.
  std::unordered_map<Fp128, int64_t, Fp128Hash> best_g;
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
      Fp128 key = StateFingerprint(problem, entry.state);
      int64_t g = static_cast<int64_t>(entry.path.size());
      NodePtr n(new Node{entry.state, key, g, nullptr, Action{}, entry.path});
      int64_t f = g + problem.EstimateCost(entry.state);
      open.push(QueueEntry{f, g, entry.seq, std::move(n)});
    }
    best_g.reserve(ctx.seed->closed.size());
    for (const auto& [fp, g] : ctx.seed->closed) best_g[fp] = g;
  } else {
    const State& root_state = problem.initial_state();
    NodePtr root(new Node{root_state, StateFingerprint(problem, root_state), 0,
                          nullptr, Action{}, {}});
    best_g[root->key] = 0;
    open.push(QueueEntry{problem.EstimateCost(root_state), 0, seq++, root});
  }

  auto track_memory = [&] {
    uint64_t nodes = static_cast<uint64_t>(open.size() + best_g.size()) +
                     AuxMemoryNodes(problem);
    outcome.stats.peak_memory_nodes =
        std::max(outcome.stats.peak_memory_nodes, nodes);
    instr.OnPeakMemory(nodes);
    return nodes;
  };

  BudgetGuard guard(limits, sink != nullptr);
  NodePtr best_node;  // anytime: lowest-h state examined so far

  while (!open.empty()) {
    uint64_t memory_nodes = track_memory();
    if (sink != nullptr && guard.checkpoint_due() &&
        sink->WantSnapshot(outcome.stats.states_examined)) {
      SearchSeed<State, Action> snap;
      snap.states_examined = outcome.stats.states_examined;
      if (best_node != nullptr) snap.best_path = reconstruct(best_node.get());
      snap.best_h = outcome.best_h;
      auto copy = open;  // heap copy; drained below in pop order
      while (!copy.empty()) {
        const QueueEntry& e = copy.top();
        // Stale entries (superseded by a cheaper path) are never examined,
        // so dropping them keeps the snapshot compact without changing
        // the resumed run's behavior.
        auto bit = best_g.find(e.node->key);
        if (bit == best_g.end() || bit->second >= e.node->g) {
          snap.open.push_back(
              {e.node->state, reconstruct(e.node.get()), e.g, e.seq});
        }
        copy.pop();
      }
      snap.next_seq = seq;
      snap.closed.reserve(best_g.size());
      for (const auto& [fp, g] : best_g) snap.closed.emplace_back(fp, g);
      sink->OnSnapshot(std::move(snap));
    }
    QueueEntry entry = open.top();
    open.pop();
    const NodePtr& node = entry.node;
    // Skip stale entries superseded by a cheaper path.
    auto it = best_g.find(node->key);
    if (it != best_g.end() && it->second < node->g) continue;

    if (std::optional<StopReason> stop = guard.Check(
            outcome.stats.states_examined, node->g, memory_nodes)) {
      outcome.stop = *stop;
      if (best_node != nullptr) outcome.best_path = reconstruct(best_node.get());
      return outcome;
    }
    ++outcome.stats.states_examined;
    instr.OnVisit();
    int h = static_cast<int>(entry.f - node->g);
    if (outcome.best_h < 0 || h < outcome.best_h) {
      outcome.best_h = h;
      best_node = node;
    }
    emit.Visit(static_cast<int>(node->g), entry.f);

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
      int64_t g = node->g + 1;
      auto [git, inserted] = best_g.try_emplace(key, g);
      if (!inserted) {
        if (git->second <= g) {
          instr.OnDuplicateHit();
          continue;
        }
        git->second = g;
      }
      int64_t f = g + problem.EstimateCost(succ.state);
      NodePtr child(new Node{std::move(succ.state), key, g, node,
                             std::move(succ.action), {}});
      open.push(QueueEntry{f, g, seq++, std::move(child)});
    }
  }
  if (best_node != nullptr) outcome.best_path = reconstruct(best_node.get());
  return outcome;
}

}  // namespace tupelo

#endif  // TUPELO_SEARCH_A_STAR_H_
