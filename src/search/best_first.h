#ifndef TUPELO_SEARCH_BEST_FIRST_H_
#define TUPELO_SEARCH_BEST_FIRST_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "search/ledger.h"
#include "search/search_types.h"

namespace tupelo {

// The evaluation function that orders BestFirstSearch's open list.
enum class BestFirstOrder {
  // f = g + h, ties to the larger g (closer to a goal), then to insertion
  // order. A state that a smaller g reaches is reopened.
  kAStar,
  // f = h, ties to insertion order. A state keeps the first path that
  // reaches it.
  kGreedy,
};

// Best-first search with open/closed lists under one of two orders.
//
// A* is the baseline the paper's early TUPELO implementation used and
// abandoned: its memory use is exponential in the search depth (tracked in
// stats.peak_memory_nodes), which is what the linear-memory IDA*/RBFS
// implementations fix.
//
// Greedy best-first is one of the "further search techniques from the AI
// literature" the paper's future work (§7) points at: it trades the
// optimality pressure of f = g + h for raw goal-seeking speed, and is a
// useful comparison point for TUPELO's heuristics — a heuristic that only
// works under greedy search is too weak to order f-ties, and one that
// fails under greedy search is actively misleading.
//
// The closed map is keyed on the full 128-bit identity: a 64-bit
// collision would alias two distinct states and silently prune one of
// them. It holds the best g per state for A*, and 0 for greedy, whose
// closed list is membership only.
//
// Checkpointing: a snapshot serializes the live open list (each entry's
// action path, its key — g for A*, h for greedy — and its original seq
// number) and the closed map. Resume rebuilds the heap from those paths:
// g is the path length, f is recomputed from the deterministic heuristic,
// and the preserved seq keeps the tie order, so pops continue in exactly
// the order the uninterrupted run would have used (the comparator is a
// total order).
template <typename P>
SearchOutcome<typename P::Action> BestFirstSearch(
    const P& problem, BestFirstOrder order,
    const SearchLimits& limits = SearchLimits(),
    const SearchContext<typename P::State, typename P::Action>& ctx = {}) {
  using Action = typename P::Action;
  using State = typename P::State;
  const bool astar = order == BestFirstOrder::kAStar;

  SearchLedger ledger(limits, ctx);
  obs::TraceSpan search_span(ctx.trace, obs::TraceCategory::kSearch,
                             astar ? "search.astar" : "search.greedy");

  struct Node {
    State state;
    Fp128 key;  // full 128-bit identity
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
    int64_t f;  // g + h for A*, h for greedy
    int64_t g;
    uint64_t seq;  // insertion order, the last tiebreak
    NodePtr node;
  };
  struct Worse {
    bool astar;
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.f != b.f) return a.f > b.f;
      if (astar && a.g != b.g) return a.g < b.g;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<QueueEntry, std::vector<QueueEntry>, Worse> open(
      Worse{astar});
  std::unordered_map<Fp128, int64_t, Fp128Hash> closed;
  uint64_t seq = 0;

  auto evaluate = [&](const State& state, int64_t g) -> int64_t {
    return (astar ? g : 0) + problem.EstimateCost(state);
  };
  auto reconstruct = [](const Node* n) {
    std::vector<Action> path;
    for (; n->parent != nullptr; n = n->parent.get()) {
      path.push_back(n->action_from_parent);
    }
    std::reverse(path.begin(), path.end());
    path.insert(path.begin(), n->prefix.begin(), n->prefix.end());
    return path;
  };
  // A* skips an open entry that a cheaper path has superseded. Greedy's
  // closed g is 0, so this test would call every greedy entry stale.
  auto stale = [&](const Node& n) {
    if (!astar) return false;
    auto it = closed.find(n.key);
    return it != closed.end() && it->second < n.g;
  };

  if (ctx.seed != nullptr && !ctx.seed->open.empty()) {
    // Resume: rebuild the open list from checkpointed paths. Each entry
    // becomes its own chain root carrying its path as the prefix.
    seq = ctx.seed->next_seq;
    for (const auto& entry : ctx.seed->open) {
      Fp128 key = StateFingerprint(problem, entry.state);
      int64_t g = static_cast<int64_t>(entry.path.size());
      NodePtr n(new Node{entry.state, key, g, nullptr, Action{}, entry.path});
      open.push(QueueEntry{evaluate(entry.state, g), g, entry.seq,
                           std::move(n)});
    }
    closed.reserve(ctx.seed->closed.size());
    for (const auto& [fp, g] : ctx.seed->closed) closed[fp] = g;
  } else {
    const State& root_state = problem.initial_state();
    NodePtr root(new Node{root_state, StateFingerprint(problem, root_state), 0,
                          nullptr, Action{}, {}});
    closed[root->key] = 0;
    open.push(QueueEntry{evaluate(root_state, 0), 0, seq++, root});
  }

  NodePtr best_node;  // anytime: lowest-h state examined so far
  auto best_path = [&] {
    return best_node == nullptr ? std::vector<Action>{}
                                : reconstruct(best_node.get());
  };

  while (!open.empty()) {
    uint64_t memory_nodes =
        static_cast<uint64_t>(open.size() + closed.size()) +
        AuxMemoryNodes(problem);
    ledger.Memory(memory_nodes);
    if (ledger.SnapshotDue()) {
      SearchSeed<State, Action> snap = ledger.Snapshot();
      snap.best_path = best_path();
      auto copy = open;  // heap copy; drained below in pop order
      for (; !copy.empty(); copy.pop()) {
        const QueueEntry& e = copy.top();
        // Stale entries are never examined, so dropping them keeps the
        // snapshot compact without changing the resumed run's behavior.
        if (stale(*e.node)) continue;
        snap.open.push_back({e.node->state, reconstruct(e.node.get()),
                             astar ? e.g : e.f, e.seq});
      }
      snap.next_seq = seq;
      snap.closed.assign(closed.begin(), closed.end());
      ledger.Offer(std::move(snap));
    }
    QueueEntry entry = open.top();
    open.pop();
    const NodePtr& node = entry.node;
    if (stale(*node)) continue;

    if (ledger.Stopped(node->g, memory_nodes)) {
      ledger.outcome().best_path = best_path();
      return ledger.Release();
    }
    ledger.Count();
    if (ledger.Visit(node->g, entry.f, entry.f - (astar ? node->g : 0))) {
      best_node = node;
    }

    if (problem.IsGoal(node->state)) {
      ledger.Goal(node->g, reconstruct(node.get()));
      return ledger.Release();
    }

    auto successors = GuardedExpand(problem, node->state, limits.quarantine);
    ledger.Expand(successors.size());
    for (auto& succ : successors) {
      Fp128 key = StateFingerprint(problem, succ.state);
      int64_t g = node->g + 1;
      auto [it, inserted] = closed.try_emplace(key, astar ? g : 0);
      if (!inserted) {
        if (!astar || it->second <= g) {
          ledger.Duplicate();
          continue;
        }
        it->second = g;  // A* reopens the state on the cheaper path
      }
      int64_t f = evaluate(succ.state, g);
      NodePtr child(new Node{std::move(succ.state), key, g, node,
                             std::move(succ.action), {}});
      open.push(QueueEntry{f, g, seq++, std::move(child)});
    }
  }
  ledger.outcome().best_path = best_path();
  return ledger.Release();
}

}  // namespace tupelo

#endif  // TUPELO_SEARCH_BEST_FIRST_H_
