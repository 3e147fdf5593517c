#ifndef TUPELO_CORE_MAPPING_PROBLEM_H_
#define TUPELO_CORE_MAPPING_PROBLEM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "fira/executor.h"
#include "fira/function_registry.h"
#include "fira/operators.h"
#include "heuristics/heuristic.h"
#include "heuristics/set_based.h"
#include "heuristics/term_vector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/database.h"

namespace tupelo {

// A user-articulated complex semantic correspondence (§4): "function
// `function` applied to the source attributes `inputs` yields the target
// attribute `output`". TUPELO assumes these have been discovered/indicated
// up front (e.g. via a visual interface) and searches for where in the
// mapping expression to apply them.
struct SemanticCorrespondence {
  std::string function;
  std::vector<std::string> inputs;
  std::string output;

  friend bool operator==(const SemanticCorrespondence&,
                         const SemanticCorrespondence&) = default;
};

// Successor-generation switches. With `prune` on (the default), the
// "obviously inapplicable transformations" rules of §2.3 restrict operator
// parameters to those that could still contribute to reaching the target;
// with it off, operators are instantiated for every syntactically valid
// parameter choice drawn from the state and target symbols (the ablation
// baseline).
struct SuccessorConfig {
  bool prune = true;
  // Capacity (in states, LRU-evicted) of the transposition cache that
  // memoizes Expand results. IDA* re-visits every shallow state once per
  // iteration and RBFS re-descends abandoned branches, so the same states
  // are expanded many times over; the cache turns those re-expansions into
  // a lookup. 0 disables it. Cached successor states are reported via
  // AuxMemoryNodes() and count toward SearchLimits::max_memory_nodes.
  // Tupelo::Discover builds its beam rungs' problems with 0 whatever is
  // set here: a beam attempt expands each state at most once, so the
  // cache would never hit and only keep successor lists alive.
  size_t expand_cache_capacity = 256;
};

// A memo of heuristic estimates keyed by 128-bit state fingerprint: one
// open-addressing array of (key, h) slots with linear probing, its
// capacity a power of two that doubles at half load from 64 slots. Each
// slot has an occupancy flag, so every h round-trips, 0 included. Not
// thread-safe; MappingProblem guards each of its shards with a mutex.
class EstimateMemo {
 public:
  std::optional<int> Find(const Fp128& key) const {
    if (slots_ == nullptr) return std::nullopt;
    const Slot& slot = slots_[SlotOf(key)];
    if (!slot.used) return std::nullopt;
    return slot.h;
  }

  // Stores `h` under `key`; a key already present keeps its value.
  void Insert(const Fp128& key, int h);

  // Frees the array, so that a memory-relief trim returns its memory.
  void Release() {
    slots_.reset();
    mask_ = 0;
    size_ = 0;
  }

  size_t size() const { return size_; }

 private:
  struct Slot {
    Fp128 key;
    int h = 0;
    bool used = false;
  };
  static constexpr size_t kMinSlots = 64;

  // The slot holding `key`, or the empty slot where it would go.
  size_t SlotOf(const Fp128& key) const {
    size_t i = Fp128Hash{}(key) & mask_;
    while (slots_[i].used && !(slots_[i].key == key)) i = (i + 1) & mask_;
    return i;
  }

  std::unique_ptr<Slot[]> slots_;
  size_t mask_ = 0;  // capacity - 1 once allocated
  size_t size_ = 0;
};

// The TUPELO search problem (§2.3): states are database instances, actions
// are L operators, the initial state is the source critical instance, and
// a state is a goal when it contains the target critical instance.
// Satisfies the search Problem duck type of search/search_types.h.
//
// Thread safety: the const query surface (IsGoal/Expand/EstimateCost/
// EstimateCostBatch/StateKey/StateKey128/AuxMemoryNodes) may be called
// from several threads at once — BeamSearch fans Expand+EstimateCostBatch
// out across a pool. The heuristic itself is stateless; the estimate memo
// is sharded by key and the expand transposition cache sits under one
// mutex (successor generation happens outside it). The problem owns
// mutexes, so it is neither copyable nor movable.
class MappingProblem {
 public:
  using State = Database;
  using Action = Op;
  struct SuccessorT {
    Op action;
    Database state;
  };

  // `registry` may be null when `correspondences` is empty; it must outlive
  // the problem. `heuristic` must be built around `target`.
  MappingProblem(Database source, Database target,
                 std::unique_ptr<Heuristic> heuristic,
                 const FunctionRegistry* registry = nullptr,
                 std::vector<SemanticCorrespondence> correspondences = {},
                 SuccessorConfig config = SuccessorConfig());

  MappingProblem(const MappingProblem&) = delete;
  MappingProblem& operator=(const MappingProblem&) = delete;

  // Attaches a metric registry (nullable; default off). Resolves the
  // per-heuristic instruments heuristic.<name>.{evals,nanos} and
  // heuristic.cache_hits once, and threads the registry into ApplyOp so
  // the executor's per-operator instruments populate during search.
  // Successor-generation time accumulates in phase.successors.nanos.
  void set_metrics(obs::MetricRegistry* metrics);

  // Attaches a trace session (nullable; default off; same convention as
  // set_metrics). Expand emits one "expand" span per cache miss (with the
  // successor count on the end event), heuristic evaluation one
  // "heuristic" span per estimate-memo miss or per batch, and the session
  // threads into ApplyOp for per-operator spans. Must outlive the
  // problem's use.
  void set_trace(obs::TraceSession* trace) { trace_ = trace; }
  obs::TraceSession* trace() const { return trace_; }

  const Database& initial_state() const { return source_; }
  const Database& target() const { return target_; }

  bool IsGoal(const Database& state) const { return state.Contains(target_); }

  // Applies every candidate operator to `state`; failures and duplicate
  // resulting states are dropped. Deterministic order. Results are
  // memoized in a bounded LRU transposition cache keyed by the state's
  // 128-bit fingerprint (see SuccessorConfig::expand_cache_capacity).
  std::vector<SuccessorT> Expand(const Database& state) const;

  // Heuristic estimates are memoized by state fingerprint: IDA* re-visits
  // shallow states once per iteration and RBFS re-descends abandoned
  // branches, so the same states are estimated many times over a search.
  // The memo trades memory (bounded by distinct states visited) for the
  // dominant per-state cost of the string/vector heuristics. Keys are the
  // full 128-bit fingerprint: with a 64-bit key, two distinct states
  // colliding would silently serve one another's estimates.
  //
  // The memo is sharded by key so concurrent callers estimating
  // different states rarely contend; the heuristic runs outside the lock
  // (two threads may race to compute the same state's estimate — both get
  // the same value, and the second insert is a no-op).
  int EstimateCost(const Database& state) const {
    Fp128 key = state.Fingerprint128();
    EstimateShard& shard = estimate_shards_[ShardIndex(key)];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (std::optional<int> cached = shard.memo.Find(key)) {
        if (heuristic_cache_hits_ != nullptr) {
          heuristic_cache_hits_->Increment();
        }
        return *cached;
      }
    }
    int estimate;
    {
      obs::ScopedTimer timer(heuristic_nanos_);
      obs::TraceSpan span(trace_, obs::TraceCategory::kHeuristic,
                          "heuristic");
      const TnfEncodeStats tnf_before = ThreadTnfEncodeStats();
      estimate = heuristic_->Estimate(state);
      RecordTnfDelta(tnf_before);
      span.SetEndArg("h", estimate);
    }
    if (heuristic_evals_ != nullptr) heuristic_evals_->Increment();
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.memo.Insert(key, estimate);
    }
    return estimate;
  }

  // Batched EstimateCost: out[i] = EstimateCost(*states[i]), under one
  // timer and trace span for the whole batch. It neither reads nor fills
  // the estimate memo, and every state counts one eval. Callers pass
  // distinct states: the one caller, the beam, passes part of one Expand
  // result, which Expand dedups, and only successors not yet in its
  // dedup set, so a memo here would almost never hit and would only hold
  // memory. Values are the same as N sequential calls (the heuristic is
  // deterministic), so routing a frontier through here cannot change a
  // search outcome.
  void EstimateCostBatch(std::span<const Database* const> states,
                         std::span<int> out) const;

  uint64_t StateKey(const Database& state) const {
    return state.Fingerprint();
  }

  // Full 128-bit state identity; the search layer's dedup/cycle sets key
  // on this (via StateFingerprint) so a 64-bit collision cannot alias two
  // distinct database instances.
  Fp128 StateKey128(const Database& state) const {
    return state.Fingerprint128();
  }

  // States held by the problem's own caches, for the search layer's memory
  // proxy: cached Expand successors are full states and must count toward
  // SearchLimits::max_memory_nodes like open/closed-list nodes do.
  size_t AuxMemoryNodes() const {
    return expand_cache_states_.load(std::memory_order_relaxed);
  }

  // The candidate operators Expand would try on `state`, before execution
  // and duplicate-state filtering. Exposed for tests and ablations.
  std::vector<Op> CandidateOps(const Database& state) const;

  // Drops the Expand transposition cache and frees every estimate-memo
  // shard — the supervisor's soft memory-relief lever
  // (runtime/supervisor.h). Thread-safe; may run concurrently with a
  // search, which simply starts repopulating the caches. Counts into
  // expand.cache_trims when metrics are attached.
  void TrimCaches() const;

 private:
  struct ExpandCacheEntry {
    Fp128 key;
    std::vector<SuccessorT> successors;
  };
  using ExpandCacheList = std::list<ExpandCacheEntry>;

  // Estimate-memo shard count; a power of two so ShardIndex is a mask.
  // Eight shards keeps contention negligible for the thread counts that
  // share one problem (single digits).
  static constexpr size_t kEstimateShards = 8;
  struct EstimateShard {
    std::mutex mu;
    EstimateMemo memo;
  };
  static size_t ShardIndex(const Fp128& key) {
    return static_cast<size_t>(key.hi) & (kEstimateShards - 1);
  }

  // Folds the thread-local TNF encoding activity since `before` into the
  // state.tnf_* counters (no-op when metrics are off). Valid because the
  // heuristic runs on the calling thread.
  void RecordTnfDelta(const TnfEncodeStats& before) const {
    if (tnf_bytes_ == nullptr) return;
    const TnfEncodeStats after = ThreadTnfEncodeStats();
    tnf_bytes_->Increment(after.bytes - before.bytes);
    tnf_encodes_->Increment(after.encodes - before.encodes);
  }

  Database source_;
  Database target_;
  // The target's symbols for CandidateOps' §2.3 pruning tests.
  TargetSymbolIndex target_index_;
  std::unique_ptr<Heuristic> heuristic_;
  const FunctionRegistry* registry_;
  std::vector<SemanticCorrespondence> correspondences_;
  SuccessorConfig config_;
  mutable std::array<EstimateShard, kEstimateShards> estimate_shards_;

  // Transposition cache: most-recently-used at the front; index maps a
  // state fingerprint to its list node. expand_cache_states_ tracks the
  // total successor states stored (the unit of the memory proxy); it is
  // atomic so AuxMemoryNodes can be read without taking expand_mu_.
  // Lookups splice (mutate LRU order), so the whole structure sits under
  // one mutex; successor generation runs outside it.
  mutable std::mutex expand_mu_;
  mutable ExpandCacheList expand_cache_;
  mutable std::unordered_map<Fp128, ExpandCacheList::iterator, Fp128Hash>
      expand_cache_index_;
  mutable std::atomic<size_t> expand_cache_states_{0};

  // Observability (all null when metrics are off).
  obs::MetricRegistry* metrics_ = nullptr;
  obs::TraceSession* trace_ = nullptr;
  obs::Counter* heuristic_evals_ = nullptr;
  obs::Counter* heuristic_nanos_ = nullptr;
  obs::Counter* heuristic_cache_hits_ = nullptr;
  obs::Counter* successor_nanos_ = nullptr;
  obs::Counter* expand_cache_hits_ = nullptr;
  obs::Counter* expand_cache_misses_ = nullptr;
  obs::Counter* expand_cache_evictions_ = nullptr;
  obs::Counter* cow_copies_ = nullptr;
  obs::Counter* relations_shared_ = nullptr;
  obs::Counter* tnf_bytes_ = nullptr;
  obs::Counter* tnf_encodes_ = nullptr;
};

}  // namespace tupelo

#endif  // TUPELO_CORE_MAPPING_PROBLEM_H_
