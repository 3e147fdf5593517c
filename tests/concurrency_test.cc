// The parallel search runtime: ThreadPool/WaitGroup, thread-safe
// MappingProblem caches (estimate shards, expand LRU under concurrent
// expansion), per-thread COW attribution, CancelToken parenting, the
// beam's same-outcome contract with and without a pool (workers reading
// the dedup set concurrently), and threaded beam discovery. Under
// CMAKE_BUILD_TYPE=Tsan this suite doubles as the tsan_smoke race
// detector target.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/mapping_problem.h"
#include "core/tupelo.h"
#include "heuristics/heuristic_factory.h"
#include "obs/metrics.h"
#include "relational/database.h"
#include "search/beam.h"
#include "search/search_types.h"
#include "workloads/synthetic.h"

namespace tupelo {
namespace {

MappingProblem MakeProblem(const SyntheticMatchingPair& pair,
                           SuccessorConfig config = SuccessorConfig()) {
  return MappingProblem(
      pair.source, pair.target,
      MakeHeuristic(HeuristicKind::kH1, pair.target, SearchAlgorithm::kRbfs),
      nullptr, {}, config);
}

// ---------------------------------------------------------------------------
// ThreadPool / WaitGroup
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  WaitGroup wg;
  wg.Add(1000);
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count, &wg] {
      count.fetch_add(1, std::memory_order_relaxed);
      wg.Done();
    });
  }
  wg.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, WaitGroupIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  WaitGroup wg;
  for (int batch = 0; batch < 5; ++batch) {
    wg.Add(10);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count, &wg] {
        count.fetch_add(1, std::memory_order_relaxed);
        wg.Done();
      });
    }
    wg.Wait();
    EXPECT_EQ(count.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPoolTest, DestructorRunsPendingTasksBeforeJoining) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // dtor drains the queue, then joins
  EXPECT_EQ(count.load(), 50);
}

// ---------------------------------------------------------------------------
// CancelToken parenting
// ---------------------------------------------------------------------------

TEST(CancelTokenTest, ChildObservesParentCancellation) {
  CancelToken parent;
  CancelToken child(&parent);
  EXPECT_FALSE(child.cancelled());
  parent.Cancel();
  EXPECT_TRUE(child.cancelled());
}

TEST(CancelTokenTest, ChildCancellationDoesNotPropagateUp) {
  CancelToken parent;
  CancelToken child(&parent);
  child.Cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_FALSE(parent.cancelled());
}

// ---------------------------------------------------------------------------
// Concurrent MappingProblem access (the TSan targets)
// ---------------------------------------------------------------------------

TEST(ConcurrentProblemTest, TwoThreadsExpandingSameProblemAgree) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(3);
  MappingProblem problem = MakeProblem(pair);
  obs::MetricRegistry metrics;
  problem.set_metrics(&metrics);

  // The reference result, computed before any concurrency.
  auto expected = problem.Expand(pair.source);
  ASSERT_FALSE(expected.empty());

  std::atomic<bool> mismatch{false};
  auto worker = [&] {
    for (int i = 0; i < 50; ++i) {
      auto got = problem.Expand(pair.source);
      if (got.size() != expected.size()) {
        mismatch.store(true);
        return;
      }
      for (size_t s = 0; s < got.size(); ++s) {
        if (!(got[s].state.Fingerprint128() ==
              expected[s].state.Fingerprint128()) ||
            !(got[s].action == expected[s].action)) {
          mismatch.store(true);
          return;
        }
      }
    }
  };
  std::thread a(worker);
  std::thread b(worker);
  a.join();
  b.join();
  EXPECT_FALSE(mismatch.load());
  // Every Expand after the first was a cache hit, however the two threads
  // interleaved.
  EXPECT_EQ(metrics.GetCounter("expand.cache_hits").value() +
                metrics.GetCounter("expand.cache_misses").value(),
            101u);
  EXPECT_GE(metrics.GetCounter("expand.cache_hits").value(), 100u);
}

TEST(ConcurrentProblemTest, ConcurrentExpandWithEvictionStaysConsistent) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(3);
  SuccessorConfig config;
  config.expand_cache_capacity = 2;  // force constant LRU churn
  MappingProblem problem = MakeProblem(pair, config);

  auto seed = problem.Expand(pair.source);
  ASSERT_GE(seed.size(), 3u);
  // Each thread cycles through the same states; the capacity-2 cache
  // splices and evicts under both threads at once.
  std::vector<Database> states = {pair.source, seed[0].state, seed[1].state,
                                  seed[2].state};
  auto worker = [&] {
    for (int i = 0; i < 25; ++i) {
      for (const Database& s : states) (void)problem.Expand(s);
    }
  };
  std::thread a(worker);
  std::thread b(worker);
  a.join();
  b.join();

  // Whatever the interleaving, the accounting invariant holds: the states
  // reported by AuxMemoryNodes are exactly the cached successors, and the
  // cache never exceeds its capacity (2 entries).
  auto s0 = problem.Expand(pair.source);
  auto s1 = problem.Expand(seed[0].state);
  EXPECT_EQ(problem.AuxMemoryNodes(), s0.size() + s1.size());
}

TEST(ConcurrentProblemTest, ConcurrentEstimatesReturnIdenticalValues) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(4);
  MappingProblem problem = MakeProblem(pair);
  auto successors = problem.Expand(pair.source);
  ASSERT_FALSE(successors.empty());

  std::vector<int> expected;
  expected.reserve(successors.size());
  for (const auto& s : successors) {
    expected.push_back(problem.EstimateCost(s.state));
  }
  std::atomic<bool> mismatch{false};
  auto worker = [&] {
    for (int i = 0; i < 50; ++i) {
      for (size_t s = 0; s < successors.size(); ++s) {
        if (problem.EstimateCost(successors[s].state) != expected[s]) {
          mismatch.store(true);
          return;
        }
      }
    }
  };
  std::thread a(worker);
  std::thread b(worker);
  a.join();
  b.join();
  EXPECT_FALSE(mismatch.load());
}

// ---------------------------------------------------------------------------
// Expand LRU accounting after eviction
// ---------------------------------------------------------------------------

TEST(ExpandCacheAccountingTest, AuxNodesMatchCachedSuccessorsAfterEviction) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(3);
  SuccessorConfig config;
  config.expand_cache_capacity = 2;
  MappingProblem problem = MakeProblem(pair, config);
  obs::MetricRegistry metrics;
  problem.set_metrics(&metrics);

  auto s_root = problem.Expand(pair.source);
  ASSERT_GE(s_root.size(), 2u);
  auto s0 = problem.Expand(s_root[0].state);
  // Cache full: {root, s_root[0]}. A third distinct state evicts the LRU
  // entry (root).
  auto s1 = problem.Expand(s_root[1].state);
  EXPECT_EQ(metrics.GetCounter("expand.cache_evictions").value(), 1u);
  EXPECT_EQ(problem.AuxMemoryNodes(), s0.size() + s1.size());

  // Touch s_root[0] (now the LRU survivor) to refresh it, then expand the
  // root again: s_root[1]'s entry is the one evicted this time.
  (void)problem.Expand(s_root[0].state);
  (void)problem.Expand(pair.source);
  EXPECT_EQ(metrics.GetCounter("expand.cache_evictions").value(), 2u);
  EXPECT_EQ(problem.AuxMemoryNodes(), s0.size() + s_root.size());
}

// ---------------------------------------------------------------------------
// Per-thread COW attribution
// ---------------------------------------------------------------------------

TEST(CowAttributionTest, ThreadCowStatsCountOnlyThisThread) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(3);
  MappingProblem other_problem = MakeProblem(pair);

  // Heavy COW traffic on another thread must not show up in this thread's
  // counters (the process-global gauge does move).
  Database::CowStats main_before = Database::ThreadCowStats();
  std::thread worker([&] {
    Database::CowStats worker_before = Database::ThreadCowStats();
    (void)other_problem.Expand(pair.source);
    Database::CowStats worker_after = Database::ThreadCowStats();
    EXPECT_GT(worker_after.cow_copies, worker_before.cow_copies);
    EXPECT_GT(worker_after.relations_shared, worker_before.relations_shared);
  });
  worker.join();
  Database::CowStats main_after = Database::ThreadCowStats();
  EXPECT_EQ(main_after.cow_copies, main_before.cow_copies);
  EXPECT_EQ(main_after.relations_shared, main_before.relations_shared);
}

TEST(CowAttributionTest, ProblemMetricsAttributePerProblem) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(3);
  MappingProblem a = MakeProblem(pair);
  MappingProblem b = MakeProblem(pair);
  obs::MetricRegistry ma;
  obs::MetricRegistry mb;
  a.set_metrics(&ma);
  b.set_metrics(&mb);

  (void)a.Expand(pair.source);
  EXPECT_GT(ma.GetCounter("state.cow_copies").value(), 0u);
  // b did no work: its registry stays clean even though the same process
  // (and thread) ran a's expansions.
  EXPECT_EQ(mb.GetCounter("state.cow_copies").value(), 0u);
  EXPECT_EQ(mb.GetCounter("state.relations_shared").value(), 0u);
}

// ---------------------------------------------------------------------------
// Copy-on-write states across threads
// ---------------------------------------------------------------------------

// The synthetic source relation R(A1..A8) plus a relation S no worker
// touches, so that every worker's map clone still shares S.
Database SharedState() {
  Database db = MakeSyntheticMatchingPair(8).source;
  Result<Relation> s = Relation::Create("S", {"k", "v"});
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(s->AddRow({"k1", "v1"}).ok());
  EXPECT_TRUE(s->AddRow({"k2", "v2"}).ok());
  EXPECT_TRUE(db.AddRelation(std::move(s).value()).ok());
  return db;
}

// Task k's edit of R: a rename (which keeps sharing R's tuple body), a
// drop or an appended row (which clone it).
Status EditCopy(Database& db, int k) {
  TUPELO_ASSIGN_OR_RETURN(Relation * rel, db.GetMutableRelation("R"));
  switch (k % 3) {
    case 0:
      return rel->RenameAttribute("A1", "X" + std::to_string(k));
    case 1:
      return rel->DropAttribute("A2");
    default:
      return rel->AddRow(
          std::vector<std::string>(rel->arity(), "v" + std::to_string(k)));
  }
}

// Pool workers copy one shared state, fingerprint the copy, edit it and
// fingerprint it again, while the caller fingerprints further copies of
// the original. The map, the relations and the tuple bodies are shared
// by all of them and never written while shared; under TSan (tsan_smoke)
// this is the race check for copy-on-write states.
TEST(SharedStateTest, WorkersEditCopiesWhileCallerFingerprints) {
  constexpr int kTasks = 48;
  const Fp128 original_fp = SharedState().Fingerprint128();
  std::vector<Fp128> want(kTasks);
  for (int k = 0; k < kTasks; ++k) {
    Database reference = SharedState();
    ASSERT_TRUE(EditCopy(reference, k).ok());
    want[k] = reference.Fingerprint128();
  }

  const Database shared = SharedState();  // no fingerprint cached yet
  std::vector<Fp128> before(kTasks);
  std::vector<Fp128> after(kTasks);
  ThreadPool pool(4);
  WaitGroup wg;
  wg.Add(kTasks);
  for (int k = 0; k < kTasks; ++k) {
    pool.Submit([&, k] {
      Database copy = shared;
      before[k] = copy.Fingerprint128();
      if (EditCopy(copy, k).ok()) after[k] = copy.Fingerprint128();
      wg.Done();
    });
  }
  for (int i = 0; i < 200; ++i) {
    Database again = shared;
    EXPECT_EQ(again.Fingerprint128(), original_fp);
  }
  wg.Wait();

  for (int k = 0; k < kTasks; ++k) {
    EXPECT_EQ(before[k], original_fp) << k;
    EXPECT_EQ(after[k], want[k]) << k;
  }
  EXPECT_EQ(shared.CanonicalKey(), SharedState().CanonicalKey());
}

// ---------------------------------------------------------------------------
// Beam over a pool: bit-identical outcomes
// ---------------------------------------------------------------------------

// A number-line toy (copied shape from search_test.cc): unbounded space,
// perfect heuristic, thread-safe const surface.
struct NumberLineProblem {
  using State = int;
  using Action = int;
  struct SuccessorT {
    Action action;
    State state;
  };

  int goal = 0;

  const State& initial_state() const {
    static const int kStart = 0;
    return kStart;
  }
  bool IsGoal(const State& s) const { return s == goal; }
  std::vector<SuccessorT> Expand(const State& s) const {
    return {SuccessorT{-1, s - 1}, SuccessorT{+1, s + 1}};
  }
  int EstimateCost(const State& s) const { return std::abs(goal - s); }
  uint64_t StateKey(const State& s) const {
    return static_cast<uint64_t>(static_cast<int64_t>(s) + (1LL << 32));
  }
};

template <typename Outcome>
void ExpectIdenticalOutcomes(const Outcome& seq, const Outcome& par) {
  EXPECT_EQ(seq.found, par.found);
  EXPECT_EQ(seq.stop, par.stop);
  EXPECT_EQ(seq.path, par.path);
  EXPECT_EQ(seq.best_path, par.best_path);
  EXPECT_EQ(seq.best_h, par.best_h);
  EXPECT_EQ(seq.stats.states_examined, par.stats.states_examined);
  EXPECT_EQ(seq.stats.states_generated, par.stats.states_generated);
  EXPECT_EQ(seq.stats.iterations, par.stats.iterations);
  EXPECT_EQ(seq.stats.solution_cost, par.stats.solution_cost);
  EXPECT_EQ(seq.stats.peak_memory_nodes, par.stats.peak_memory_nodes);
}

TEST(ParallelBeamTest, BitIdenticalToSequentialOnToyProblem) {
  NumberLineProblem p;
  p.goal = 40;
  SearchLimits limits;
  limits.max_depth = 100;
  ThreadPool pool(4);

  auto seq = BeamSearch(p, 4, limits);
  auto par = BeamSearch(p, 4, limits, {}, &pool);
  ASSERT_TRUE(seq.found);
  ExpectIdenticalOutcomes(seq, par);
}

TEST(ParallelBeamTest, BitIdenticalWhenBudgetTrips) {
  NumberLineProblem p;
  p.goal = 100000;
  SearchLimits limits;
  limits.max_states = 60;
  limits.max_depth = 200000;
  ThreadPool pool(4);

  auto seq = BeamSearch(p, 8, limits);
  auto par = BeamSearch(p, 8, limits, {}, &pool);
  ASSERT_FALSE(seq.found);
  EXPECT_EQ(seq.stop, StopReason::kStates);
  ExpectIdenticalOutcomes(seq, par);
}

TEST(ParallelBeamTest, BitIdenticalOnMappingProblem) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(4);
  // Two independent problem instances so neither run warms the other's
  // caches (the problems are noncopyable and lock-holding).
  MappingProblem seq_problem = MakeProblem(pair);
  MappingProblem par_problem = MakeProblem(pair);
  SearchLimits limits;
  limits.max_depth = 12;
  ThreadPool pool(4);

  auto seq = BeamSearch(seq_problem, 8, limits);
  auto par = BeamSearch(par_problem, 8, limits, {}, &pool);
  ASSERT_TRUE(seq.found);
  ExpectIdenticalOutcomes(seq, par);
}

TEST(ParallelBeamTest, SingleWorkerPoolMatchesNoPool) {
  NumberLineProblem p;
  p.goal = 10;
  SearchLimits limits;
  limits.max_depth = 20;
  ThreadPool one(1);

  ExpectIdenticalOutcomes(BeamSearch(p, 4, limits),
                          BeamSearch(p, 4, limits, {}, &one));
}

TEST(ParallelBeamTest, PreCancelledTokenStopsWithoutVisits) {
  NumberLineProblem p;
  p.goal = 1000;
  CancelToken token;
  token.Cancel();
  SearchLimits limits;
  limits.max_depth = 2000;
  limits.cancel = &token;
  ThreadPool pool(4);

  auto out = BeamSearch(p, 4, limits, {}, &pool);
  EXPECT_FALSE(out.found);
  EXPECT_EQ(out.stop, StopReason::kCancelled);
  EXPECT_EQ(out.stats.states_examined, 0u);
}

TEST(ParallelBeamTest, RecordsParallelInstruments) {
  NumberLineProblem p;
  p.goal = 20;
  SearchLimits limits;
  limits.max_depth = 40;
  ThreadPool pool(4);
  obs::MetricRegistry metrics;

  auto out = BeamSearch(p, 4, limits, {&metrics}, &pool);
  ASSERT_TRUE(out.found);
  EXPECT_GE(metrics.GetCounter("beam.parallel.levels").value(), 1u);
  // At least one task per level, and one task per frontier node overall.
  EXPECT_GE(metrics.GetCounter("beam.parallel.tasks").value(),
            metrics.GetCounter("beam.parallel.levels").value());
}

// Each Phase A task bumps the heartbeat once before it reports done, so a
// supervisor watching a pooled beam gets a beat per task on top of the
// merge's budget polls (one per check_interval + 1 visits).
TEST(ParallelBeamTest, EveryPhaseATaskBeats) {
  NumberLineProblem p;
  p.goal = 20;
  SearchLimits limits;
  limits.max_depth = 40;
  HeartbeatSlot heartbeat;
  limits.heartbeat = &heartbeat;
  ThreadPool pool(4);
  obs::MetricRegistry metrics;

  auto out = BeamSearch(p, 4, limits, {&metrics}, &pool);
  ASSERT_TRUE(out.found);
  const uint64_t tasks = metrics.CounterValue("beam.parallel.tasks");
  ASSERT_GT(tasks, 0u);
  EXPECT_GE(heartbeat.beats.load(), tasks);
}

// The number line with a heuristic that counts its calls from any thread.
struct CountingNumberLineProblem : NumberLineProblem {
  mutable std::atomic<uint64_t> estimates{0};
  int EstimateCost(const State& s) const {
    estimates.fetch_add(1, std::memory_order_relaxed);
    return NumberLineProblem::EstimateCost(s);
  }
};

TEST(ParallelBeamTest, EstimatesOnlySuccessorsNewToTheDedupSet) {
  // The goal lies beyond the depth bound, so the search stops on kDepth
  // and every node Phase A prepares is also merged: the root plus each
  // merged successor that was not a duplicate is estimated exactly once.
  SearchLimits limits;
  limits.max_depth = 30;
  ThreadPool pool(4);
  for (ThreadPool* workers : {static_cast<ThreadPool*>(nullptr), &pool}) {
    CountingNumberLineProblem p;
    p.goal = 1000;
    obs::MetricRegistry metrics;
    auto out = BeamSearch(p, 4, limits, {&metrics}, workers);
    ASSERT_EQ(out.stop, StopReason::kDepth);
    const uint64_t duplicates = metrics.CounterValue("search.duplicate_hits");
    ASSERT_GT(duplicates, 0u);
    EXPECT_EQ(p.estimates.load(),
              1 + out.stats.states_generated - duplicates)
        << (workers == nullptr ? "no pool" : "4-worker pool");
  }
}

// ---------------------------------------------------------------------------
// Discover: threaded beam
// ---------------------------------------------------------------------------

TEST(DiscoverThreadsTest, ThreadedBeamDiscoveryMatchesSingleThreaded) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(4);
  Tupelo system(pair.source, pair.target);

  TupeloOptions base;
  base.algorithm = SearchAlgorithm::kBeam;
  base.heuristic = HeuristicKind::kH1;
  base.limits.max_depth = 12;

  TupeloOptions threaded = base;
  threaded.threads = 4;
  obs::MetricRegistry metrics;
  threaded.metrics = &metrics;

  Result<TupeloResult> seq = system.Discover(base);
  Result<TupeloResult> par = system.Discover(threaded);
  ASSERT_TRUE(seq.ok()) << seq.status();
  ASSERT_TRUE(par.ok()) << par.status();
  ASSERT_TRUE(seq->found);
  ASSERT_TRUE(par->found);
  EXPECT_TRUE(par->verified);
  EXPECT_EQ(seq->mapping.ToScript(), par->mapping.ToScript());
  EXPECT_EQ(seq->stats.states_examined, par->stats.states_examined);
  EXPECT_EQ(seq->stats.states_generated, par->stats.states_generated);
  EXPECT_EQ(seq->stats.solution_cost, par->stats.solution_cost);
  EXPECT_EQ(seq->stop_reason, par->stop_reason);

  const obs::Gauge* threads = metrics.FindGauge("runtime.threads");
  ASSERT_NE(threads, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(threads->value()), 4u);
  EXPECT_GE(metrics.GetCounter("beam.parallel.levels").value(), 1u);
}

}  // namespace
}  // namespace tupelo
