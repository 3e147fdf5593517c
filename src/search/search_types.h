#ifndef TUPELO_SEARCH_SEARCH_TYPES_H_
#define TUPELO_SEARCH_SEARCH_TYPES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace tupelo {

namespace obs {
class MetricRegistry;
class TraceSession;
}  // namespace obs

// Generic state-space search (src/search) is written against a Problem
// "duck type" P providing:
//
//   using State  = ...;   // value type
//   using Action = ...;   // value type
//   struct SuccessorT { Action action; State state; };
//
//   const State& initial_state() const;
//   bool IsGoal(const State& s) const;
//   // Successors in a deterministic order. Unit step costs. Expand must
//   // be a pure function of the state: the successor set and its order
//   // depend on nothing else (no cache, thread or timing effects).
//   std::vector<SuccessorT> Expand(const State& s) const;
//   // Heuristic estimate h(s) ≥ 0 of the distance to a goal.
//   int EstimateCost(const State& s) const;
//   // Stable fingerprint for duplicate/cycle detection.
//   uint64_t StateKey(const State& s) const;
//
// Optionally, a problem may also provide
//
//   size_t AuxMemoryNodes() const;
//
// reporting states the *problem* retains (e.g. a transposition cache of
// Expand results). The algorithms add it to their own memory proxy, so
// problem-side caches count toward SearchLimits::max_memory_nodes.
//
// A problem may also provide the full 128-bit identity
//
//   Fp128 StateKey128(const State& s) const;
//
// which the algorithms' duplicate/cycle-detection sets key on when
// present (see StateFingerprint below). Problems with large reachable
// spaces should: a 64-bit key collides at the birthday bound (~2^32
// states), and a collision in a dedup set silently drops a distinct
// reachable state.
//
// A problem may also provide a batched heuristic
//
//   void EstimateCostBatch(std::span<const State* const> states,
//                          std::span<int> out) const;
//
// required to fill out[i] with exactly EstimateCost(*states[i]). The
// beam-family algorithms funnel whole frontier expansions through it
// (via EstimateCosts below) so the problem can dedup repeated states and
// amortize per-call setup; problems that omit it get the per-state loop.
//
// MappingProblem (src/core) is the real instance; tests use toy problems.

inline constexpr int64_t kSearchInfinity =
    std::numeric_limits<int64_t>::max() / 4;

// States retained by the problem itself (caches of Expand results and the
// like), to be folded into an algorithm's memory proxy. Zero for problems
// that do not declare AuxMemoryNodes(), which keeps the duck type small
// for toy problems.
template <typename Problem>
uint64_t AuxMemoryNodes(const Problem& problem) {
  if constexpr (requires { problem.AuxMemoryNodes(); }) {
    return static_cast<uint64_t>(problem.AuxMemoryNodes());
  } else {
    return 0;
  }
}

// The state identity the dedup/cycle sets key on: the problem's full
// 128-bit fingerprint when it provides one, else both lanes derived from
// the 64-bit StateKey (Mix64 keeps the lanes distinct so Fp128Hash still
// spreads well; a problem without StateKey128 keeps its original 64-bit
// collision behavior, which is fine for the toy spaces that omit it).
template <typename Problem, typename State>
Fp128 StateFingerprint(const Problem& problem, const State& state) {
  if constexpr (requires { problem.StateKey128(state); }) {
    return problem.StateKey128(state);
  } else {
    uint64_t key = problem.StateKey(state);
    return Fp128{key, Mix64(key)};
  }
}

// Batched heuristic evaluation: routes through the problem's
// EstimateCostBatch when it declares one, else the per-state loop. The
// values are identical either way (the batch contract requires it), so
// callers may switch freely between this and N EstimateCost calls
// without perturbing a search outcome.
template <typename Problem, typename State>
std::vector<int> EstimateCosts(const Problem& problem,
                               const std::vector<const State*>& states) {
  std::vector<int> out(states.size());
  if constexpr (requires {
                  problem.EstimateCostBatch(
                      std::span<const State* const>(states),
                      std::span<int>(out));
                }) {
    problem.EstimateCostBatch(std::span<const State* const>(states),
                              std::span<int>(out));
  } else {
    for (size_t i = 0; i < states.size(); ++i) {
      out[i] = problem.EstimateCost(*states[i]);
    }
  }
  return out;
}

// Why a search stopped. kFound and kExhausted are conclusive (goal reached
// / finite space swept without one); everything else is a resource trip,
// i.e. failure is inconclusive and the anytime fields of SearchOutcome
// carry the best progress made.
enum class StopReason {
  kFound,      // goal reached
  kExhausted,  // reachable space swept without reaching a goal
  kStates,     // SearchLimits::max_states tripped
  kDepth,      // SearchLimits::max_depth tripped
  kMemory,     // SearchLimits::max_memory_nodes tripped
  kDeadline,   // SearchLimits::deadline_millis tripped
  kCancelled,  // CancelToken fired
  kStalled,    // supervisor preempted a hung rung (no heartbeat progress)
};

// "found", "exhausted", "states", "depth", "memory", "deadline",
// "cancelled", "stalled" — stable names for reports and logs.
inline std::string_view StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kFound:
      return "found";
    case StopReason::kExhausted:
      return "exhausted";
    case StopReason::kStates:
      return "states";
    case StopReason::kDepth:
      return "depth";
    case StopReason::kMemory:
      return "memory";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kCancelled:
      return "cancelled";
    case StopReason::kStalled:
      return "stalled";
  }
  return "unknown";
}

// True for the inconclusive stops (a resource bound or caller intervention
// cut the search short).
inline bool IsResourceStop(StopReason reason) {
  return reason != StopReason::kFound && reason != StopReason::kExhausted;
}

// Cooperative cancellation flag. Cancel() may be called from any thread
// while a search is running; the search observes it at its next
// deadline/cancel poll (every SearchLimits::check_interval visits) and
// stops with StopReason::kCancelled. The token is reusable across
// searches via Reset().
//
// Tokens chain: a token with a parent reports cancelled when either it
// or the parent has fired. The concurrent portfolio runner hands each
// rung a private token parented on the caller's, so the winner can
// cancel the losers without consuming the caller's token, while a
// caller-side Cancel still stops every rung.
//
// The chain is held through shared, heap-allocated flag nodes: a child
// keeps its parent's node alive, so cancelled() stays safe (and keeps
// reporting the parent's last state) even after the parent CancelToken
// object itself has been destroyed. Cancel() is still one relaxed atomic
// store; cancelled() walks the (short) chain of relaxed loads.
class CancelToken {
 public:
  CancelToken() : node_(std::make_shared<Node>()) {}
  explicit CancelToken(const CancelToken* parent)
      : node_(std::make_shared<Node>()) {
    if (parent != nullptr) node_->parent = parent->node_;
  }

  void Cancel() { node_->flag.store(true, std::memory_order_relaxed); }
  // Resets this token's own flag only; an already-fired parent still
  // reports through.
  void Reset() { node_->flag.store(false, std::memory_order_relaxed); }
  bool cancelled() const {
    for (const Node* n = node_.get(); n != nullptr; n = n->parent.get()) {
      if (n->flag.load(std::memory_order_relaxed)) return true;
    }
    return false;
  }

 private:
  struct Node {
    std::atomic<bool> flag{false};
    std::shared_ptr<const Node> parent;  // keeps the ancestor chain alive
  };
  std::shared_ptr<Node> node_;
};

// Liveness/progress beacon for the watchdog supervisor
// (runtime/supervisor.h). A search stamps its slot from the BudgetGuard's
// amortized poll tick (and the thread pool bumps `beats` per task), all
// relaxed atomic stores — the hot path pays nothing it was not already
// paying for governance. The supervisor thread reads the slot
// periodically: `beats` unchanged and `states` flat across a stall window
// means the rung is hung (a wedged Expand, an injected delay, a deadlock)
// and it gets preempted. `memory_nodes` mirrors the algorithm's memory
// proxy so the supervisor can stage memory degradation before the hard
// limit trips.
struct HeartbeatSlot {
  std::atomic<uint64_t> beats{0};
  std::atomic<uint64_t> states{0};
  std::atomic<uint64_t> memory_nodes{0};

  void Beat(uint64_t states_examined, uint64_t memory) {
    beats.fetch_add(1, std::memory_order_relaxed);
    states.store(states_examined, std::memory_order_relaxed);
    memory_nodes.store(memory, std::memory_order_relaxed);
  }
};

// Bounded denylist of poison-state fingerprints: states whose Expand threw
// (a poisoned cache entry, an injected allocation failure, a buggy
// operator). A quarantined state is never re-expanded — GuardedExpand
// returns no successors for it, so the search routes around it and the
// run continues instead of dying. FIFO-bounded so a pathological workload
// cannot grow it without limit; `poisoned()` counts every quarantine
// event (admissions), which keeps the telemetry monotonic even after
// eviction.
class StateQuarantine {
 public:
  explicit StateQuarantine(size_t capacity = 1024)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  bool Contains(const Fp128& fp) const {
    std::lock_guard<std::mutex> lock(mu_);
    return set_.find(fp) != set_.end();
  }

  // Returns true if the fingerprint was newly quarantined.
  bool Add(const Fp128& fp) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!set_.insert(fp).second) return false;
    fifo_.push_back(fp);
    while (fifo_.size() > capacity_) {
      set_.erase(fifo_.front());
      fifo_.pop_front();
    }
    poisoned_ += 1;
    return true;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return set_.size();
  }
  uint64_t poisoned() const {
    std::lock_guard<std::mutex> lock(mu_);
    return poisoned_;
  }

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  std::unordered_set<Fp128, Fp128Hash> set_;
  std::deque<Fp128> fifo_;
  uint64_t poisoned_ = 0;
};

// The poison-state boundary every algorithm expands through. With no
// quarantine installed this is a plain Expand call — no try block, no
// fingerprint, zero overhead, and exceptions propagate exactly as before.
// With one installed: a quarantined state yields no successors, and an
// exception escaping Expand (ApplyOp included) quarantines the state's
// fingerprint and yields no successors — the search treats it as a dead
// end and keeps going.
template <typename Problem, typename State>
auto GuardedExpand(const Problem& problem, const State& state,
                   StateQuarantine* quarantine)
    -> decltype(problem.Expand(state)) {
  if (quarantine == nullptr) return problem.Expand(state);
  const Fp128 fp = StateFingerprint(problem, state);
  if (quarantine->Contains(fp)) return {};
  try {
    return problem.Expand(state);
  } catch (...) {
    quarantine->Add(fp);
    return {};
  }
}

// Type-erased base for CheckpointSink<State, Action> so SearchLimits can
// carry a sink without being templated. The algorithms downcast with
// ResolveCheckpointSink<State, Action>(); a sink instantiated for other
// state/action types simply resolves to null (no checkpointing) instead
// of misbehaving.
class CheckpointSinkBase {
 public:
  virtual ~CheckpointSinkBase() = default;
};

// A resumable snapshot of one search call, captured at an algorithm's
// checkpoint boundary and sufficient to continue the run after process
// death (see docs/ROBUSTNESS.md, "Checkpoint & resume contract"):
//
//   * IDA*: `ida_bound`, the current iteration's f-bound. Resuming
//     restarts iterative deepening at that bound; the completed shallower
//     iterations are not repeated.
//   * Beam: the whole frontier (states + paths + h) and the dedup set
//     (`closed` fingerprints) at a level barrier, plus `beam_depth`.
//     Resuming continues the level loop exactly where the snapshot was
//     taken.
//   * A* / greedy: the open list (paths, insertion sequence numbers) and
//     the closed/best-g map. States and f/h values are reconstructed
//     deterministically on resume, and preserved `seq` numbers keep the
//     FIFO tiebreaks — continuation is order-identical.
//   * RBFS: no per-algorithm seed (its backed-up-value recursion has no
//     compact frontier); resuming restarts the rung from the root, which
//     is result-equivalent because the search is deterministic.
//
// The common fields carry run progress for budget continuity and the
// anytime best partial path.
template <typename State, typename Action>
struct SearchSeed {
  // Progress at capture.
  uint64_t states_examined = 0;
  std::vector<Action> best_path;
  int best_h = -1;

  // IDA*: current iteration bound (-1 = none).
  int64_t ida_bound = -1;

  // Beam: frontier at a level barrier plus the level index.
  struct FrontierNode {
    State state;
    std::vector<Action> path;
    int64_t h = 0;
  };
  std::vector<FrontierNode> frontier;
  int beam_depth = 0;

  // A*/greedy: open list. `key` is informational (g for A*, h for greedy;
  // both are recomputed on resume); `seq` is the original insertion number
  // and must be preserved for identical tiebreaking.
  struct OpenNode {
    State state;
    std::vector<Action> path;
    int64_t key = 0;
    uint64_t seq = 0;
  };
  std::vector<OpenNode> open;
  uint64_t next_seq = 0;

  // Dedup/closed map: fingerprint -> best g (A*); g is 0 and ignored for
  // the membership-only sets of beam and greedy.
  std::vector<std::pair<Fp128, int64_t>> closed;
};

// Consumer of search snapshots, polled on the BudgetGuard's amortized
// tick (every SearchLimits::check_interval visits; beam polls at its
// level barriers, the only points where its state is a compact frontier).
// WantSnapshot is the cheap frequency gate — building a snapshot copies
// the frontier/open list, so algorithms only build one when it returns
// true. Implementations decide persistence (core/checkpoint.h's file
// sink) or anything else (tests count and cancel).
template <typename State, typename Action>
class CheckpointSink : public CheckpointSinkBase {
 public:
  virtual bool WantSnapshot(uint64_t states_examined) = 0;
  virtual void OnSnapshot(SearchSeed<State, Action> seed) = 0;
};

// Budget knobs. Searches stop (found=false, a resource StopReason) when a
// limit trips; zero-valued optional bounds are unlimited.
struct SearchLimits {
  // Upper bound on states examined (nodes visited, counting IDA/RBFS
  // re-visits, matching the paper's performance measure).
  uint64_t max_states = 10'000'000;
  // Upper bound on solution depth / recursion depth.
  int max_depth = 64;
  // Wall-clock budget for the search call, in milliseconds; 0 = unbounded.
  int64_t deadline_millis = 0;
  // Approximate bound on the algorithm's memory proxy (open+closed size
  // for A*/greedy, frontier+seen for beam, recursion depth for IDA*/RBFS
  // — the same quantity as SearchStats::peak_memory_nodes); 0 = unbounded.
  uint64_t max_memory_nodes = 0;
  // Cooperative cancellation (not owned, may be null). Flip from another
  // thread to stop a running search with StopReason::kCancelled.
  CancelToken* cancel = nullptr;
  // Deadline/cancel polls are amortized: the clock and the token are read
  // once every `check_interval` visits (the counting bounds above are
  // checked on every visit regardless).
  uint32_t check_interval = 16;
  // Checkpoint consumer (not owned, may be null). Polled on the amortized
  // tick above; must be a CheckpointSink<State, Action> instantiated for
  // the problem's state/action types or it resolves to null and is
  // ignored. See SearchSeed for what each algorithm captures.
  CheckpointSinkBase* checkpoint_sink = nullptr;
  // Liveness beacon for the watchdog supervisor (not owned, may be null).
  // Stamped on the amortized poll tick with the current states/memory
  // progress; see HeartbeatSlot.
  HeartbeatSlot* heartbeat = nullptr;
  // Poison-state denylist (not owned, may be null). When set, every
  // expansion goes through GuardedExpand: quarantined states produce no
  // successors and a throwing Expand quarantines instead of unwinding.
  StateQuarantine* quarantine = nullptr;
  // Supervisor-driven width pressure (not owned, may be null). Beam-family
  // algorithms halve their effective beam width once per pressure level
  // (never below 1) — the staged-degradation lever between cache trimming
  // and a hard memory stop.
  const std::atomic<uint32_t>* width_pressure = nullptr;
};

// The beam width after supervisor width pressure: halved once per
// pressure level, floored at 1. Pressure-free (the default) is the
// configured width untouched.
inline size_t EffectiveBeamWidth(size_t beam_width,
                                 const std::atomic<uint32_t>* pressure) {
  if (pressure == nullptr) return beam_width;
  const uint32_t level = pressure->load(std::memory_order_relaxed);
  if (level >= 63) return 1;
  const size_t width = beam_width >> level;
  return width == 0 ? 1 : width;
}

// The concrete sink for a problem's state/action types, or null when no
// sink is installed (or one of the wrong instantiation is). Resolved once
// per search call.
template <typename State, typename Action>
CheckpointSink<State, Action>* ResolveCheckpointSink(
    const SearchLimits& limits) {
  return dynamic_cast<CheckpointSink<State, Action>*>(limits.checkpoint_sink);
}

// Shared limit-tripping logic for the search algorithms: one object per
// search call, consulted once per visited state. Centralizes the
// states/depth/memory comparisons the five algorithms used to re-implement
// and owns the amortized deadline/cancel poll.
class BudgetGuard {
 public:
  explicit BudgetGuard(const SearchLimits& limits)
      : limits_(limits),
        poll_(limits.cancel != nullptr || limits.deadline_millis > 0 ||
              limits.checkpoint_sink != nullptr ||
              limits.heartbeat != nullptr) {
    if (limits_.deadline_millis > 0) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(limits_.deadline_millis);
    }
  }

  // Returns the reason to stop, or nullopt to keep searching. `depth` is
  // the g-value of the state about to be examined; `memory_nodes` the
  // algorithm's current memory proxy. The first call always polls
  // deadline/cancel, so an expired deadline or pre-cancelled token trips
  // immediately.
  std::optional<StopReason> Check(uint64_t states_examined, int64_t depth,
                                  uint64_t memory_nodes) {
    checkpoint_due_ = false;
    if (states_examined >= limits_.max_states) return StopReason::kStates;
    if (depth > limits_.max_depth) return StopReason::kDepth;
    if (limits_.max_memory_nodes > 0 &&
        memory_nodes > limits_.max_memory_nodes) {
      return StopReason::kMemory;
    }
    if (poll_ && ticks_left_-- == 0) {
      ticks_left_ = limits_.check_interval;
      checkpoint_due_ = limits_.checkpoint_sink != nullptr;
      if (limits_.heartbeat != nullptr) {
        limits_.heartbeat->Beat(states_examined, memory_nodes);
      }
      if (limits_.cancel != nullptr && limits_.cancel->cancelled()) {
        return StopReason::kCancelled;
      }
      if (limits_.deadline_millis > 0 &&
          std::chrono::steady_clock::now() >= deadline_) {
        return StopReason::kDeadline;
      }
    }
    return std::nullopt;
  }

  // True when the most recent Check hit the amortized tick and a
  // checkpoint sink is installed: the algorithm should offer the sink a
  // snapshot at its next coherent boundary (subject to WantSnapshot).
  bool checkpoint_due() const { return checkpoint_due_; }

 private:
  const SearchLimits& limits_;
  bool poll_;
  bool checkpoint_due_ = false;
  uint32_t ticks_left_ = 0;  // 0 so the very first Check polls
  std::chrono::steady_clock::time_point deadline_;
};

struct SearchStats {
  // Nodes visited, including redundant re-expansions across IDA iterations
  // and RBFS re-descents — the paper's "number of states examined".
  uint64_t states_examined = 0;
  // Successor states produced by Expand.
  uint64_t states_generated = 0;
  // IDA: completed depth-bound iterations; RBFS/A*: unused (0).
  int iterations = 0;
  // A*: peak open+closed entries; IDA/RBFS: peak recursion depth. A proxy
  // for memory footprint (the paper's motivation for dropping plain A*).
  uint64_t peak_memory_nodes = 0;
  // Length of the found path, or -1.
  int solution_cost = -1;
};

// The optional, nullable companions of one search call, shared by every
// algorithm's signature: `metrics` feeds the search.* instruments
// (search/instrumentation.h), `trace` receives spans and visit/goal/
// iteration instants (search/trace.h), and `seed` resumes the algorithm
// from a checkpointed core (see SearchSeed). A default-constructed context
// is a plain, unobserved search from the root.
template <typename State, typename Action>
struct SearchContext {
  obs::MetricRegistry* metrics = nullptr;
  obs::TraceSession* trace = nullptr;
  const SearchSeed<State, Action>* seed = nullptr;
};

template <typename Action>
struct SearchOutcome {
  bool found = false;
  // Why the search returned. kExhausted until something else happens, so
  // an empty-space search reports conclusively; IsResourceStop(stop) says
  // a SearchLimits bound (or cancellation) cut it short.
  StopReason stop = StopReason::kExhausted;
  std::vector<Action> path;
  // Anytime result: the path to the lowest-h state examined so far (the
  // goal path when found) and its remaining heuristic distance. best_h is
  // -1 until the first state is examined. On a resource stop this is the
  // best partial mapping the caller can act on.
  std::vector<Action> best_path;
  int best_h = -1;
  SearchStats stats;
};

}  // namespace tupelo

#endif  // TUPELO_SEARCH_SEARCH_TYPES_H_
