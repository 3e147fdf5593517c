#ifndef TUPELO_SEARCH_BEAM_H_
#define TUPELO_SEARCH_BEAM_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "search/ledger.h"
#include "search/search_types.h"

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
//   against `seen` in generation order. Fresh successors move into a flat
//   list with their parent's index; the width cut picks the best by
//   (h, generation index) with a partial sort, and only the kept ones get
//   a node and a copy of their parent's path.
//
// `seen` only grows, so a successor that is new at merge time was new when
// it was prepared and has its estimate. The dedup set, the budget guard
// and every stats update run in the same order with or without a pool, so
// the SearchOutcome is the same for every pool size (the only divergence
// channel is an expand transposition cache's LRU order, which can shift
// AuxMemoryNodes after an eviction; Tupelo::Discover runs its beam rungs
// with no such cache, see docs/PERFORMANCE.md). Only the heuristic work
// differs: a pooled worker cannot see the successors that earlier nodes
// of its level add to `seen`, so it also estimates those. A worker that
// observes the CancelToken skips its node and the merge prepares it
// inline, so a cancellation race costs only parallelism. A pooled task
// observes itself: `prepare` emits its `beam.prepare` span on the worker's
// track, and each task bumps `limits.heartbeat` once before it reports
// done, so a supervisor sees every worker's progress, not just the merge's
// budget polls.
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
  SearchLedger ledger(limits, ctx);
  obs::TraceSpan search_span(
      trace, obs::TraceCategory::kSearch, "search.beam", "workers",
      static_cast<int64_t>(pool == nullptr ? 1 : pool->size()));
  if (beam_width == 0) return ledger.Release();

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
  // A successor that passed dedup at merge time, before the width cut.
  struct Fresh {
    State state;
    Action action;
    size_t parent;  // index into the level's frontier
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

  WaitGroup wg;

  for (int depth = start_depth; depth <= limits.max_depth; ++depth) {
    // The memory proxy is computed once per level, before any of the
    // level's expansions.
    uint64_t nodes = static_cast<uint64_t>(frontier.size() + seen.size()) +
                     AuxMemoryNodes(problem);
    ledger.Memory(nodes);
    if (ledger.SnapshotWanted()) {
      SearchSeed<State, Action> snap = ledger.Snapshot();
      snap.beam_depth = depth;
      snap.frontier.reserve(frontier.size());
      for (const Node& node : frontier) {
        snap.frontier.push_back({node.state, node.path, node.h});
      }
      snap.closed.reserve(seen.size());
      for (const Fp128& fp : seen) snap.closed.emplace_back(fp, 0);
      ledger.Offer(std::move(snap));
    }
    int64_t level_best_h = frontier.front().h;
    for (const Node& node : frontier) {
      level_best_h = std::min(level_best_h, node.h);
    }
    ledger.Level(depth, level_best_h);
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
          // The task's own beat for the supervisor, stamped before Done:
          // once the barrier releases, no task touches the caller's slot.
          if (limits.heartbeat != nullptr) {
            limits.heartbeat->beats.fetch_add(1, std::memory_order_relaxed);
          }
          wg.Done();
        });
      }
      if (tasks != nullptr) tasks->Increment(frontier.size());
      wg.Wait();
    }

    // Phase B: sequential merge in frontier order. Fresh successors move
    // into a flat list in generation order; only the ones that make the
    // width cut get a Node (and a copy of their parent's path).
    obs::TraceSpan merge_span(trace, obs::TraceCategory::kSearch,
                              "beam.phase_b");
    std::vector<Fresh> fresh;
    for (size_t i = 0; i < frontier.size(); ++i) {
      Node& node = frontier[i];
      // Depth is bounded by the level loop itself; pass 0 so the guard
      // only trips states/memory/deadline/cancel here.
      if (ledger.Stopped(0, nodes)) return ledger.Release();
      ledger.Count();
      if (ledger.Visit(depth, node.h, node.h)) {
        ledger.outcome().best_path = node.path;
      }

      Prepared& prep = prepared[i];
      if (!prep.ready) prepare(node, prep);

      if (prep.is_goal) {
        ledger.Goal(depth, std::move(node.path));
        return ledger.Release();
      }

      ledger.Expand(prep.successors.size());
      for (size_t s = 0; s < prep.successors.size(); ++s) {
        if (!seen.insert(prep.keys[s]).second) {
          ledger.Duplicate();
          continue;
        }
        fresh.push_back(Fresh{std::move(prep.successors[s].state),
                              std::move(prep.successors[s].action), i,
                              prep.hs[s]});
      }
      prep = Prepared{};  // drop the duplicates now, not at the level's end
    }
    if (fresh.empty()) return ledger.Release();  // beam ran dry

    // Keep the level_width best by h, ties in generation order: the order
    // a stable sort by h gives. The supervisor can narrow the effective
    // width mid-run via width pressure (staged memory degradation);
    // pressure-free this is the configured width.
    const size_t level_width =
        EffectiveBeamWidth(beam_width, limits.width_pressure);
    std::vector<size_t> order(fresh.size());
    std::iota(order.begin(), order.end(), size_t{0});
    if (fresh.size() > level_width) {
      ledger.BeamDrop(depth, static_cast<int64_t>(fresh.size() - level_width));
      std::partial_sort(order.begin(), order.begin() + level_width,
                        order.end(), [&fresh](size_t a, size_t b) {
                          return std::tie(fresh[a].h, a) <
                                 std::tie(fresh[b].h, b);
                        });
      order.resize(level_width);
    }
    std::vector<Node> next_level;
    next_level.reserve(order.size());
    for (size_t k : order) {
      Fresh& f = fresh[k];
      const std::vector<Action>& parent_path = frontier[f.parent].path;
      std::vector<Action> path;
      path.reserve(parent_path.size() + 1);
      path.assign(parent_path.begin(), parent_path.end());
      path.push_back(std::move(f.action));
      next_level.push_back(Node{std::move(f.state), std::move(path), f.h});
    }
    frontier = std::move(next_level);
  }
  ledger.outcome().stop = StopReason::kDepth;  // levels ran out of depth
  return ledger.Release();
}

}  // namespace tupelo

#endif  // TUPELO_SEARCH_BEAM_H_
