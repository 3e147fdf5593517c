#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/a_star.h"
#include "search/beam.h"
#include "search/greedy.h"
#include "search/ida_star.h"
#include "search/rbfs.h"
#include "search/search_types.h"

namespace tupelo {
namespace {

// A small explicit-graph problem for exercising the search algorithms
// independently of the mapping domain. Actions are the successor node ids.
struct GraphProblem {
  using State = int;
  using Action = int;
  struct SuccessorT {
    Action action;
    State state;
  };

  std::map<int, std::vector<int>> edges;
  std::map<int, int> h;  // defaults to 0
  int start = 0;
  int goal = 0;

  const State& initial_state() const { return start; }
  bool IsGoal(const State& s) const { return s == goal; }
  std::vector<SuccessorT> Expand(const State& s) const {
    std::vector<SuccessorT> out;
    auto it = edges.find(s);
    if (it == edges.end()) return out;
    for (int next : it->second) out.push_back(SuccessorT{next, next});
    return out;
  }
  int EstimateCost(const State& s) const {
    auto it = h.find(s);
    return it == h.end() ? 0 : it->second;
  }
  uint64_t StateKey(const State& s) const {
    return static_cast<uint64_t>(s) + 1;
  }
};

// A number-line problem: move ±1 from 0 toward `goal`; |goal − x| is an
// admissible, consistent heuristic. Unbounded state space exercises
// heuristic guidance (blind search would wander).
struct NumberLineProblem {
  using State = int;
  using Action = int;  // +1 or -1
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

// Parameterized over the four algorithms so every scenario runs on all.
enum class Algo { kIda, kRbfs, kAStar, kGreedy };

template <typename P>
SearchOutcome<typename P::Action> RunSearch(Algo algo, const P& problem,
                                      const SearchLimits& limits = {}) {
  switch (algo) {
    case Algo::kIda:
      return IdaStarSearch(problem, limits);
    case Algo::kRbfs:
      return RbfsSearch(problem, limits);
    case Algo::kAStar:
      return AStarSearch(problem, limits);
    case Algo::kGreedy:
      return GreedySearch(problem, limits);
  }
  return {};
}

class AllAlgorithms : public testing::TestWithParam<Algo> {};

INSTANTIATE_TEST_SUITE_P(Algos, AllAlgorithms,
                         testing::Values(Algo::kIda, Algo::kRbfs,
                                         Algo::kAStar, Algo::kGreedy),
                         [](const auto& info) {
                           switch (info.param) {
                             case Algo::kIda:
                               return "ida";
                             case Algo::kRbfs:
                               return "rbfs";
                             case Algo::kAStar:
                               return "astar";
                             case Algo::kGreedy:
                               return "greedy";
                           }
                           return "unknown";
                         });

TEST_P(AllAlgorithms, TrivialGoalAtStart) {
  GraphProblem p;
  p.start = p.goal = 7;
  auto out = RunSearch(GetParam(), p);
  EXPECT_TRUE(out.found);
  EXPECT_EQ(out.stats.solution_cost, 0);
  EXPECT_TRUE(out.path.empty());
  EXPECT_EQ(out.stats.states_examined, 1u);
}

TEST_P(AllAlgorithms, LinearChain) {
  GraphProblem p;
  p.edges = {{0, {1}}, {1, {2}}, {2, {3}}};
  p.start = 0;
  p.goal = 3;
  auto out = RunSearch(GetParam(), p);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.stats.solution_cost, 3);
  EXPECT_EQ(out.path, (std::vector<int>{1, 2, 3}));
}

TEST_P(AllAlgorithms, FindsShorterOfTwoBranches) {
  // 0 -> 1 -> 2 -> goal(5), and 0 -> 3 -> 5 (shorter).
  GraphProblem p;
  p.edges = {{0, {1, 3}}, {1, {2}}, {2, {5}}, {3, {5}}};
  p.goal = 5;
  // Admissible heuristic favoring nothing: h = 0.
  auto out = RunSearch(GetParam(), p);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.stats.solution_cost, 2);
  EXPECT_EQ(out.path, (std::vector<int>{3, 5}));
}

TEST_P(AllAlgorithms, UnreachableGoalExhaustsSpace) {
  GraphProblem p;
  p.edges = {{0, {1}}, {1, {0}}};  // cycle, goal 9 unreachable
  p.goal = 9;
  auto out = RunSearch(GetParam(), p);
  EXPECT_FALSE(out.found);
  EXPECT_EQ(out.stop, StopReason::kExhausted);
}

TEST_P(AllAlgorithms, CyclesDoNotTrapSearch) {
  GraphProblem p;
  p.edges = {{0, {1}}, {1, {0, 2}}, {2, {1, 3}}, {3, {}}};
  p.goal = 3;
  SearchLimits limits;
  limits.max_states = 1000;
  auto out = RunSearch(GetParam(), p, limits);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.stats.solution_cost, 3);
}

TEST_P(AllAlgorithms, StateBudgetAborts) {
  NumberLineProblem p;
  p.goal = 1000;  // needs 1000 steps
  SearchLimits limits;
  limits.max_states = 50;
  limits.max_depth = 2000;
  auto out = RunSearch(GetParam(), p, limits);
  EXPECT_FALSE(out.found);
  EXPECT_EQ(out.stop, StopReason::kStates);
  EXPECT_LE(out.stats.states_examined, 50u);
  // Anytime contract: the best partial path and its remaining heuristic
  // distance survive the trip. Any useful prefix moves toward the goal,
  // and a path of length L cannot end closer than 1000 − L.
  EXPECT_FALSE(out.best_path.empty());
  EXPECT_GT(out.best_h, 0);
  EXPECT_LT(out.best_h, 1000);
  EXPECT_GE(out.best_h + static_cast<int>(out.best_path.size()), 1000);
}

TEST_P(AllAlgorithms, DepthLimitAborts) {
  NumberLineProblem p;
  p.goal = 100;
  SearchLimits limits;
  limits.max_depth = 10;
  auto out = RunSearch(GetParam(), p, limits);
  EXPECT_FALSE(out.found);
  EXPECT_EQ(out.stop, StopReason::kDepth);
}

TEST_P(AllAlgorithms, GuidedNumberLineIsNearLinear) {
  NumberLineProblem p;
  p.goal = 200;
  SearchLimits limits;
  limits.max_depth = 500;
  auto out = RunSearch(GetParam(), p, limits);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.stats.solution_cost, 200);
  // With a perfect heuristic the search examines O(goal) states.
  EXPECT_LE(out.stats.states_examined, 1000u);
}

TEST_P(AllAlgorithms, AdmissibleHeuristicGivesOptimalCost) {
  // Diamond with a tempting long route: 0→1→2→3→4→9 vs 0→5→9.
  GraphProblem p;
  p.edges = {{0, {1, 5}}, {1, {2}}, {2, {3}}, {3, {4}}, {4, {9}}, {5, {9}}};
  p.goal = 9;
  p.h = {{0, 2}, {1, 2}, {2, 2}, {3, 2}, {4, 1}, {5, 1}, {9, 0}};
  auto out = RunSearch(GetParam(), p);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.stats.solution_cost, 2);
}

TEST_P(AllAlgorithms, MisleadingHeuristicStillSolves) {
  // Heuristic prefers the dead-end branch; search must recover.
  GraphProblem p;
  p.edges = {{0, {1, 2}}, {1, {3}}, {3, {}}, {2, {4}}, {4, {9}}};
  p.goal = 9;
  p.h = {{1, 0}, {3, 0}, {2, 5}, {4, 5}, {9, 0}, {0, 0}};
  auto out = RunSearch(GetParam(), p);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.path, (std::vector<int>{2, 4, 9}));
}

TEST_P(AllAlgorithms, StatsAreCounted) {
  GraphProblem p;
  p.edges = {{0, {1, 2}}, {1, {3}}, {2, {3}}, {3, {4}}};
  p.goal = 4;
  auto out = RunSearch(GetParam(), p);
  ASSERT_TRUE(out.found);
  EXPECT_GE(out.stats.states_examined, 3u);
  EXPECT_GE(out.stats.states_generated, 2u);
  EXPECT_GE(out.stats.peak_memory_nodes, 1u);
}

// ---------------------------------------------------------------------------
// 128-bit state identity
// ---------------------------------------------------------------------------

// Regression problem for the 64-bit dedup-collision bug: every state
// reports the SAME 64-bit StateKey, but StateKey128 separates them in the
// high lane. A dedup/cycle set keyed on the 64-bit value aliases all
// states to one — A*/greedy/beam drop every successor as a "duplicate"
// and IDA*/RBFS prune every successor as a "cycle", so the goal two steps
// down a linear chain is unreachable. Keying on the full Fp128 (via
// StateFingerprint) finds it.
struct CollidingLowBitsProblem {
  using State = int;
  using Action = int;
  struct SuccessorT {
    Action action;
    State state;
  };

  const State& initial_state() const {
    static const int kStart = 0;
    return kStart;
  }
  bool IsGoal(const State& s) const { return s == 2; }
  std::vector<SuccessorT> Expand(const State& s) const {
    if (s >= 2) return {};
    return {SuccessorT{s + 1, s + 1}};  // 0 -> 1 -> 2
  }
  int EstimateCost(const State& s) const { return 2 - s; }
  uint64_t StateKey(const State&) const { return 7; }  // total collision
  Fp128 StateKey128(const State& s) const {
    return Fp128{7, static_cast<uint64_t>(s) + 1};
  }
};

TEST_P(AllAlgorithms, DistinctStatesSharingLow64BitsAreNotDeduped) {
  CollidingLowBitsProblem p;
  // Sanity: the two chain states really share the low 64 bits and only
  // differ in the high lane StateFingerprint exposes.
  Fp128 a = StateFingerprint(p, 1);
  Fp128 b = StateFingerprint(p, 2);
  ASSERT_EQ(a.lo, b.lo);
  ASSERT_FALSE(a == b);

  auto out = RunSearch(GetParam(), p);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.stats.solution_cost, 2);
  EXPECT_EQ(out.path, (std::vector<int>{1, 2}));
}

TEST(BeamTest, DistinctStatesSharingLow64BitsAreNotDeduped) {
  CollidingLowBitsProblem p;
  auto out = BeamSearch(p, 4);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.stats.solution_cost, 2);
  EXPECT_EQ(out.path, (std::vector<int>{1, 2}));
}

// ---------------------------------------------------------------------------
// Algorithm-specific behavior
// ---------------------------------------------------------------------------

TEST(IdaStarTest, IterationsGrowWithMisleadingHeuristic) {
  // h = 0 everywhere: IDA* raises the bound once per depth level.
  GraphProblem p;
  p.edges = {{0, {1}}, {1, {2}}, {2, {3}}, {3, {4}}};
  p.goal = 4;
  auto out = IdaStarSearch(p);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.stats.iterations, 5);  // bounds 0..4
  // Re-examinations across iterations are counted.
  EXPECT_GT(out.stats.states_examined, 5u);
}

TEST(IdaStarTest, PerfectHeuristicSingleIteration) {
  GraphProblem p;
  p.edges = {{0, {1}}, {1, {2}}};
  p.goal = 2;
  p.h = {{0, 2}, {1, 1}, {2, 0}};
  auto out = IdaStarSearch(p);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.stats.iterations, 1);
  EXPECT_EQ(out.stats.states_examined, 3u);
}

TEST(RbfsTest, BacktracksOnBackedUpValues) {
  // RBFS must abandon the initially-best branch when its backed-up value
  // exceeds the alternative.
  GraphProblem p;
  p.edges = {{0, {1, 2}}, {1, {3}}, {3, {5}}, {2, {4}}, {4, {9}}, {5, {}}};
  p.goal = 9;
  p.h = {{1, 1}, {2, 2}, {3, 3}, {5, 9}, {4, 1}, {9, 0}};
  auto out = RbfsSearch(p);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.path, (std::vector<int>{2, 4, 9}));
}

TEST(RbfsTest, LinearMemoryOnDeepProblem) {
  NumberLineProblem p;
  p.goal = 300;
  SearchLimits limits;
  limits.max_depth = 400;
  auto out = RbfsSearch(p, limits);
  ASSERT_TRUE(out.found);
  // Peak tracked memory is the recursion depth, not the state count.
  EXPECT_LE(out.stats.peak_memory_nodes, 301u);
}

TEST(AStarTest, TracksOpenClosedMemory) {
  NumberLineProblem p;
  p.goal = 50;
  SearchLimits limits;
  limits.max_depth = 200;
  auto out = AStarSearch(p, limits);
  ASSERT_TRUE(out.found);
  // A* keeps every generated state: memory exceeds the solution depth.
  EXPECT_GT(out.stats.peak_memory_nodes, 50u);
}

TEST(AStarTest, ReopensWhenShorterPathFound) {
  // 0→1 (h huge) and 0→2→1: with inconsistent h, the cheaper g must win.
  GraphProblem p;
  p.edges = {{0, {2, 1}}, {2, {1}}, {1, {9}}};
  p.goal = 9;
  p.h = {{0, 0}, {1, 0}, {2, 0}, {9, 0}};
  auto out = AStarSearch(p);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.stats.solution_cost, 2);  // 0→1→9
}

TEST(BeamTest, FindsGoalWithGoodHeuristic) {
  NumberLineProblem p;
  p.goal = 50;
  SearchLimits limits;
  limits.max_depth = 100;
  auto out = BeamSearch(p, 4, limits);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.stats.solution_cost, 50);
  // Beam examines at most width × depth states.
  EXPECT_LE(out.stats.states_examined, 4u * 51u);
}

TEST(BeamTest, IsIncompleteWhenGoalLeavesBeam) {
  // Two branches; the heuristic prefers the dead end and width 1 commits
  // to it: the goal is missed even though it exists.
  GraphProblem p;
  p.edges = {{0, {1, 2}}, {1, {3}}, {3, {}}, {2, {9}}};
  p.goal = 9;
  p.h = {{1, 0}, {3, 0}, {2, 5}, {9, 0}};
  auto narrow = BeamSearch(p, 1);
  EXPECT_FALSE(narrow.found);
  // A wider beam keeps the alternative alive.
  auto wide = BeamSearch(p, 2);
  EXPECT_TRUE(wide.found);
}

TEST(BeamTest, ZeroWidthFindsNothing) {
  GraphProblem p;
  p.goal = 0;
  auto out = BeamSearch(p, 0);
  EXPECT_FALSE(out.found);
}

TEST(BeamTest, BudgetAborts) {
  NumberLineProblem p;
  p.goal = 1000;
  SearchLimits limits;
  limits.max_states = 20;
  limits.max_depth = 2000;
  auto out = BeamSearch(p, 8, limits);
  EXPECT_FALSE(out.found);
  EXPECT_TRUE(IsResourceStop(out.stop));
}

TEST(BeamTest, GoalAtRoot) {
  GraphProblem p;
  p.start = p.goal = 3;
  auto out = BeamSearch(p, 2);
  EXPECT_TRUE(out.found);
  EXPECT_EQ(out.stats.solution_cost, 0);
}

// ---------------------------------------------------------------------------
// Resource governance: deadlines, cancellation, memory bounds, anytime
// results (see docs/ROBUSTNESS.md)
// ---------------------------------------------------------------------------

// An infinite problem whose Expand sleeps, so wall-clock limits trip long
// before any counting limit can.
struct SlowProblem {
  using State = int;
  using Action = int;
  struct SuccessorT {
    Action action;
    State state;
  };

  std::chrono::microseconds delay{200};

  const State& initial_state() const {
    static const int kStart = 0;
    return kStart;
  }
  bool IsGoal(const State&) const { return false; }
  std::vector<SuccessorT> Expand(const State& s) const {
    std::this_thread::sleep_for(delay);
    return {SuccessorT{-1, s - 1}, SuccessorT{+1, s + 1}};
  }
  int EstimateCost(const State& s) const { return std::abs(1'000'000 - s); }
  uint64_t StateKey(const State& s) const {
    return static_cast<uint64_t>(static_cast<int64_t>(s) + (1LL << 32));
  }
};

TEST_P(AllAlgorithms, FoundSetsStopAndAnytimeFields) {
  GraphProblem p;
  p.edges = {{0, {1}}, {1, {2}}, {2, {3}}};
  p.start = 0;
  p.goal = 3;
  auto out = RunSearch(GetParam(), p);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.stop, StopReason::kFound);
  EXPECT_EQ(out.best_path, out.path);
  EXPECT_EQ(out.best_h, 0);
}

TEST_P(AllAlgorithms, DeadlineAborts) {
  SlowProblem p;
  SearchLimits limits;
  limits.max_states = 20000;  // backstop if the deadline never fires
  limits.max_depth = 1'000'000;
  limits.deadline_millis = 30;
  limits.check_interval = 1;
  auto start = std::chrono::steady_clock::now();
  auto out = RunSearch(GetParam(), p, limits);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_FALSE(out.found);
  EXPECT_EQ(out.stop, StopReason::kDeadline);
  // Generous CI-safe bound: orders of magnitude below the states backstop,
  // proving the wall clock (not a counter) stopped the search.
  EXPECT_LT(elapsed.count(), 3000);
}

TEST_P(AllAlgorithms, MemoryLimitAborts) {
  NumberLineProblem p;
  p.goal = 1000;
  SearchLimits limits;
  limits.max_depth = 2000;
  limits.max_memory_nodes = 50;
  auto out = RunSearch(GetParam(), p, limits);
  EXPECT_FALSE(out.found);
  EXPECT_EQ(out.stop, StopReason::kMemory);
  EXPECT_FALSE(out.best_path.empty());
  EXPECT_GT(out.best_h, 0);
}

TEST_P(AllAlgorithms, PreCancelledTokenTripsBeforeAnyVisit) {
  NumberLineProblem p;
  p.goal = 1000;
  CancelToken token;
  token.Cancel();
  SearchLimits limits;
  limits.max_depth = 2000;
  limits.cancel = &token;
  auto out = RunSearch(GetParam(), p, limits);
  EXPECT_FALSE(out.found);
  EXPECT_EQ(out.stop, StopReason::kCancelled);
  EXPECT_EQ(out.stats.states_examined, 0u);
  // Reset makes the token reusable.
  token.Reset();
  EXPECT_FALSE(token.cancelled());
}

TEST_P(AllAlgorithms, ConcurrentCancelStopsRunningSearch) {
  SlowProblem p;
  CancelToken token;
  SearchLimits limits;
  limits.max_states = 20000;  // backstop if cancellation never lands
  limits.max_depth = 1'000'000;
  limits.cancel = &token;
  limits.check_interval = 1;
  SearchOutcome<int> out;
  Algo algo = GetParam();
  std::thread worker(
      [&] { out = RunSearch(algo, p, limits); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  token.Cancel();
  worker.join();
  EXPECT_FALSE(out.found);
  EXPECT_EQ(out.stop, StopReason::kCancelled);
  EXPECT_LT(out.stats.states_examined, 20000u);
}

TEST(BeamTest, StopReasonsAcrossLimits) {
  NumberLineProblem p;
  p.goal = 1000;

  SearchLimits states;
  states.max_states = 20;
  states.max_depth = 2000;
  EXPECT_EQ(BeamSearch(p, 8, states).stop, StopReason::kStates);

  SearchLimits depth;
  depth.max_depth = 10;
  EXPECT_EQ(BeamSearch(p, 8, depth).stop, StopReason::kDepth);

  SearchLimits memory;
  memory.max_depth = 2000;
  memory.max_memory_nodes = 30;
  EXPECT_EQ(BeamSearch(p, 8, memory).stop, StopReason::kMemory);

  CancelToken token;
  token.Cancel();
  SearchLimits cancel;
  cancel.max_depth = 2000;
  cancel.cancel = &token;
  EXPECT_EQ(BeamSearch(p, 8, cancel).stop, StopReason::kCancelled);
}

TEST(BeamTest, AnytimeBestPathSurvivesStatesTrip) {
  NumberLineProblem p;
  p.goal = 1000;
  SearchLimits limits;
  limits.max_states = 40;
  limits.max_depth = 2000;
  auto out = BeamSearch(p, 4, limits);
  ASSERT_FALSE(out.found);
  EXPECT_FALSE(out.best_path.empty());
  EXPECT_GT(out.best_h, 0);
  EXPECT_LT(out.best_h, 1000);
}

TEST(BeamTest, RanDryIsExhaustedNotResourceStop) {
  GraphProblem p;
  p.edges = {{0, {1}}, {1, {}}};
  p.goal = 9;
  auto out = BeamSearch(p, 4, SearchLimits());
  EXPECT_FALSE(out.found);
  EXPECT_EQ(out.stop, StopReason::kExhausted);
}

TEST(BudgetGuardTest, CountingLimitsCheckedEveryCall) {
  SearchLimits limits;
  limits.max_states = 10;
  BudgetGuard guard(limits);
  EXPECT_EQ(guard.Check(9, 0, 0), std::nullopt);
  EXPECT_EQ(guard.Check(10, 0, 0), StopReason::kStates);
}

TEST(BudgetGuardTest, CancelPollIsAmortized) {
  CancelToken token;
  SearchLimits limits;
  limits.cancel = &token;
  limits.check_interval = 4;
  BudgetGuard guard(limits);
  // First call always polls (token not yet cancelled).
  EXPECT_EQ(guard.Check(0, 0, 0), std::nullopt);
  token.Cancel();
  // The next poll happens check_interval+1 calls later; the intermediate
  // calls must not observe the token.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(guard.Check(0, 0, 0), std::nullopt) << i;
  }
  EXPECT_EQ(guard.Check(0, 0, 0), StopReason::kCancelled);
}

TEST(BudgetGuardTest, NoPollingCostWithoutDeadlineOrToken) {
  // With neither a deadline nor a token, Check never reads the clock and
  // never trips a poll-based reason, however many calls happen.
  SearchLimits limits;
  BudgetGuard guard(limits);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(guard.Check(0, 0, 0), std::nullopt);
  }
}

TEST(StopReasonTest, NamesAndClassification) {
  EXPECT_EQ(StopReasonName(StopReason::kFound), "found");
  EXPECT_EQ(StopReasonName(StopReason::kExhausted), "exhausted");
  EXPECT_EQ(StopReasonName(StopReason::kStates), "states");
  EXPECT_EQ(StopReasonName(StopReason::kDepth), "depth");
  EXPECT_EQ(StopReasonName(StopReason::kMemory), "memory");
  EXPECT_EQ(StopReasonName(StopReason::kDeadline), "deadline");
  EXPECT_EQ(StopReasonName(StopReason::kCancelled), "cancelled");
  EXPECT_FALSE(IsResourceStop(StopReason::kFound));
  EXPECT_FALSE(IsResourceStop(StopReason::kExhausted));
  for (StopReason r : {StopReason::kStates, StopReason::kDepth,
                       StopReason::kMemory, StopReason::kDeadline,
                       StopReason::kCancelled}) {
    EXPECT_TRUE(IsResourceStop(r)) << StopReasonName(r);
  }
}

// ---------------------------------------------------------------------------
// Tracing: the visit/goal/iteration instants on a TraceSession
// ---------------------------------------------------------------------------

// The named instants of one traced search, in emission order (a search
// emits from one thread, and Collect() keeps each thread's order).
std::vector<obs::TraceExportEvent> Instants(const obs::TraceSession& session,
                                            const std::string& name) {
  std::vector<obs::TraceExportEvent> out;
  for (obs::TraceExportEvent& e : session.Collect()) {
    if (e.phase == obs::TracePhase::kInstant && e.name == name) {
      out.push_back(std::move(e));
    }
  }
  return out;
}

int64_t Arg(const obs::TraceExportEvent& e, const std::string& key) {
  for (const auto& [k, v] : e.args) {
    if (k == key) return v;
  }
  ADD_FAILURE() << e.name << " has no arg " << key;
  return -1;
}

TEST(TraceTest, IdaRecordsNonDecreasingBounds) {
  GraphProblem p;
  p.edges = {{0, {1}}, {1, {2}}, {2, {3}}, {3, {4}}};
  p.goal = 4;
  obs::TraceSession session;
  auto out = IdaStarSearch(p, SearchLimits(), {nullptr, &session});
  ASSERT_TRUE(out.found);
  const std::vector<obs::TraceExportEvent> iterations =
      Instants(session, "iteration");
  int64_t last_bound = -1;
  for (const obs::TraceExportEvent& e : iterations) {
    EXPECT_GT(Arg(e, "value"), last_bound);
    last_bound = Arg(e, "value");
  }
  EXPECT_EQ(iterations.size(), static_cast<size_t>(out.stats.iterations));
  EXPECT_EQ(Instants(session, "visit").size(), out.stats.states_examined);

  // The run is one search.ida span, and its last instant is the one goal.
  const std::vector<obs::TraceExportEvent> all = session.Collect();
  EXPECT_TRUE(std::any_of(all.begin(), all.end(), [](const auto& e) {
    return e.name == "search.ida" && e.phase == obs::TracePhase::kBegin;
  }));
  auto last_instant = std::find_if(all.rbegin(), all.rend(), [](const auto& e) {
    return e.phase == obs::TracePhase::kInstant;
  });
  ASSERT_NE(last_instant, all.rend());
  EXPECT_EQ(last_instant->name, "goal");
  const std::vector<obs::TraceExportEvent> goals = Instants(session, "goal");
  ASSERT_EQ(goals.size(), 1u);
  EXPECT_EQ(Arg(goals[0], "g"), out.stats.solution_cost);
}

TEST(TraceTest, VisitCountsMatchStatsAcrossAlgorithms) {
  GraphProblem p;
  p.edges = {{0, {1, 2}}, {1, {3}}, {2, {3}}, {3, {4}}};
  p.goal = 4;
  for (int which = 0; which < 5; ++which) {
    obs::TraceSession session;
    const SearchContext<int, int> ctx{nullptr, &session};
    SearchOutcome<int> out;
    switch (which) {
      case 0:
        out = IdaStarSearch(p, SearchLimits(), ctx);
        break;
      case 1:
        out = RbfsSearch(p, SearchLimits(), ctx);
        break;
      case 2:
        out = AStarSearch(p, SearchLimits(), ctx);
        break;
      case 3:
        out = GreedySearch(p, SearchLimits(), ctx);
        break;
      case 4:
        out = BeamSearch(p, 4, SearchLimits(), ctx);
        break;
    }
    ASSERT_TRUE(out.found) << which;
    const std::vector<obs::TraceExportEvent> visits =
        Instants(session, "visit");
    for (const obs::TraceExportEvent& e : visits) {
      EXPECT_LE(Arg(e, "g"), out.stats.solution_cost + 8) << which;
    }
    EXPECT_EQ(visits.size(), out.stats.states_examined) << which;
    EXPECT_EQ(Instants(session, "goal").size(), 1u) << which;
  }
}

TEST(TraceTest, BeamRecordsLevelEvents) {
  NumberLineProblem p;
  p.goal = 10;
  SearchLimits limits;
  limits.max_depth = 20;
  obs::TraceSession session;
  auto out = BeamSearch(p, 4, limits, {nullptr, &session});
  ASSERT_TRUE(out.found);
  int64_t last_level = -1;
  const std::vector<obs::TraceExportEvent> levels =
      Instants(session, "iteration");
  for (const obs::TraceExportEvent& e : levels) {
    EXPECT_EQ(Arg(e, "depth"), last_level + 1);  // consecutive levels
    last_level = Arg(e, "depth");
  }
  EXPECT_GE(levels.size(), 1u);
  EXPECT_EQ(Instants(session, "visit").size(), out.stats.states_examined);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

// The shared toy problem for metric-consistency checks: a diamond with a
// back edge to the start, so duplicate detection fires on every algorithm
// (path-cycle checks in IDA*/RBFS, closed/best-g checks in A*/greedy).
GraphProblem MetricsProblem() {
  GraphProblem p;
  p.edges = {{0, {1, 2}}, {1, {0, 3}}, {2, {3}}, {3, {4}}};
  p.goal = 4;
  return p;
}

TEST(SearchMetricsTest, CountersMatchStatsAcrossAlgorithms) {
  GraphProblem p = MetricsProblem();
  for (Algo algo : {Algo::kIda, Algo::kRbfs, Algo::kAStar, Algo::kGreedy}) {
    obs::MetricRegistry registry;
    SearchOutcome<int> out;
    switch (algo) {
      case Algo::kIda:
        out = IdaStarSearch(p, SearchLimits(), {&registry});
        break;
      case Algo::kRbfs:
        out = RbfsSearch(p, SearchLimits(), {&registry});
        break;
      case Algo::kAStar:
        out = AStarSearch(p, SearchLimits(), {&registry});
        break;
      case Algo::kGreedy:
        out = GreedySearch(p, SearchLimits(), {&registry});
        break;
    }
    int which = static_cast<int>(algo);
    ASSERT_TRUE(out.found) << which;
    EXPECT_EQ(registry.CounterValue("search.states_examined"),
              out.stats.states_examined)
        << which;
    EXPECT_EQ(registry.CounterValue("search.states_generated"),
              out.stats.states_generated)
        << which;
    EXPECT_GE(registry.CounterValue("search.expansions"), 1u) << which;
    const obs::Gauge* peak = registry.FindGauge("search.peak_memory_nodes");
    ASSERT_NE(peak, nullptr) << which;
    EXPECT_EQ(static_cast<uint64_t>(peak->value()),
              out.stats.peak_memory_nodes)
        << which;
    // The diamond generates node 3 twice: duplicate detection must fire.
    EXPECT_GE(registry.CounterValue("search.duplicate_hits"), 1u) << which;
  }
}

TEST(SearchMetricsTest, RegistryDoesNotChangeTheOutcome) {
  GraphProblem p = MetricsProblem();
  obs::MetricRegistry registry;
  auto plain = IdaStarSearch(p);
  auto metered = IdaStarSearch(p, SearchLimits(), {&registry});
  EXPECT_EQ(plain.found, metered.found);
  EXPECT_EQ(plain.path, metered.path);
  EXPECT_EQ(plain.stats.states_examined, metered.stats.states_examined);
  EXPECT_EQ(plain.stats.iterations, metered.stats.iterations);
}

TEST(SearchMetricsTest, IdaIterationCounterAndFBoundHistogram) {
  // h = 0: one iteration per depth level, bounds 0..4.
  GraphProblem p;
  p.edges = {{0, {1}}, {1, {2}}, {2, {3}}, {3, {4}}};
  p.goal = 4;
  obs::MetricRegistry registry;
  auto out = IdaStarSearch(p, SearchLimits(), {&registry});
  ASSERT_TRUE(out.found);
  EXPECT_EQ(registry.CounterValue("search.iterations"),
            static_cast<uint64_t>(out.stats.iterations));
  const obs::Histogram* f_bound = registry.FindHistogram("search.f_bound");
  ASSERT_NE(f_bound, nullptr);
  EXPECT_EQ(f_bound->count(), static_cast<uint64_t>(out.stats.iterations));
  // Re-visits of shallow states across iterations count as re-expansions.
  EXPECT_GT(registry.CounterValue("search.re_expansions"), 0u);
}

TEST(SearchMetricsTest, SingleIterationHasNoReExpansions) {
  GraphProblem p;
  p.edges = {{0, {1}}, {1, {2}}};
  p.goal = 2;
  p.h = {{0, 2}, {1, 1}, {2, 0}};  // perfect heuristic: one iteration
  obs::MetricRegistry registry;
  auto out = IdaStarSearch(p, SearchLimits(), {&registry});
  ASSERT_TRUE(out.found);
  EXPECT_EQ(registry.CounterValue("search.re_expansions"), 0u);
}

TEST(AStarTest, DeterministicTieBreaking) {
  GraphProblem p;
  p.edges = {{0, {1, 2}}, {1, {9}}, {2, {9}}};
  p.goal = 9;
  auto out1 = AStarSearch(p);
  auto out2 = AStarSearch(p);
  ASSERT_TRUE(out1.found);
  EXPECT_EQ(out1.path, out2.path);
}

}  // namespace
}  // namespace tupelo
