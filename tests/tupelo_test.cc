#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <string>
#include <thread>

#include "core/tupelo.h"
#include "fira/builtin_functions.h"
#include "obs/metrics.h"
#include "relational/io.h"
#include "workloads/flights.h"

namespace tupelo {
namespace {

Database Tdb(const char* text) {
  Result<Database> db = ParseTdb(text);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

TupeloResult MustDiscover(const Tupelo& system, const TupeloOptions& options) {
  Result<TupeloResult> r = system.Discover(options);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

// Threads of this process: /proc/self/task holds one entry per thread.
size_t ThreadCount() {
  size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

TEST(TupeloTest, IdentityMappingIsEmpty) {
  Database db = Tdb("relation R (A) { (1) }");
  Tupelo system(db, db);
  TupeloResult r = MustDiscover(system, {});
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.mapping.empty());
  EXPECT_EQ(r.stats.solution_cost, 0);
  EXPECT_TRUE(r.verified);
}

TEST(TupeloTest, SimpleRenameDiscovery) {
  Database source = Tdb("relation R (A) { (1) }");
  Database target = Tdb("relation R (B) { (1) }");
  Tupelo system(source, target);
  TupeloResult r = MustDiscover(system, {});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.stats.solution_cost, 1);
  EXPECT_EQ(r.mapping.steps()[0], Op(RenameAttrOp{"R", "A", "B"}));
  EXPECT_TRUE(r.verified);
}

TEST(TupeloTest, DiscoversAcrossAllAlgorithms) {
  Database source = Tdb("relation S (A, B) { (1, 2) }");
  Database target = Tdb("relation T (X, B) { (1, 2) }");
  for (SearchAlgorithm algo : {SearchAlgorithm::kIda, SearchAlgorithm::kRbfs,
                               SearchAlgorithm::kAStar,
                               SearchAlgorithm::kGreedy,
                               SearchAlgorithm::kBeam}) {
    Tupelo system(source, target);
    TupeloOptions options;
    options.algorithm = algo;
    TupeloResult r = MustDiscover(system, options);
    ASSERT_TRUE(r.found) << SearchAlgorithmName(algo);
    EXPECT_EQ(r.stats.solution_cost, 2) << SearchAlgorithmName(algo);
    EXPECT_TRUE(r.verified) << SearchAlgorithmName(algo);
  }
}

// A beam attempt expands each state at most once, so its rung runs with
// no Expand cache; IDA* re-expands shallow states and keeps one.
TEST(TupeloTest, BeamRungsKeepNoExpandCache) {
  Tupelo system(Tdb("relation S (A, B) { (1, 2) }"),
                Tdb("relation T (X, B) { (1, 2) }"));
  auto misses = [&system](SearchAlgorithm algo) {
    obs::MetricRegistry metrics;
    TupeloOptions options;
    options.algorithm = algo;
    options.metrics = &metrics;
    TupeloResult r = MustDiscover(system, options);
    EXPECT_TRUE(r.found) << SearchAlgorithmName(algo);
    EXPECT_GT(r.stats.states_examined, 1u) << SearchAlgorithmName(algo);
    return metrics.CounterValue("expand.cache_misses");
  };
  EXPECT_EQ(misses(SearchAlgorithm::kBeam), 0u);
  EXPECT_GT(misses(SearchAlgorithm::kIda), 0u);
}

TEST(TupeloTest, DiscoversAcrossAllHeuristics) {
  Database source = Tdb("relation R (A, B) { (x, y) }");
  Database target = Tdb("relation R (A2, B) { (x, y) }");
  for (HeuristicKind kind : AllHeuristicKinds()) {
    Tupelo system(source, target);
    TupeloOptions options;
    options.heuristic = kind;
    options.limits.max_states = 100000;
    TupeloResult r = MustDiscover(system, options);
    EXPECT_TRUE(r.found) << HeuristicKindName(kind);
    EXPECT_TRUE(r.verified) << HeuristicKindName(kind);
  }
}

TEST(TupeloTest, FlightsBToADataMetadataRestructuring) {
  Tupelo system(MakeFlightsB(), MakeFlightsA());
  TupeloOptions options;
  options.algorithm = SearchAlgorithm::kRbfs;
  options.heuristic = HeuristicKind::kH1;
  options.limits.max_states = 200000;
  TupeloResult r = MustDiscover(system, options);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.verified);
  // The minimal expression needs 6 operators (Example 2); search may find
  // an equivalent one of the same depth.
  EXPECT_EQ(r.stats.solution_cost, 6);
}

TEST(TupeloTest, FlightsBToCWithComplexFunction) {
  FunctionRegistry registry;
  ASSERT_TRUE(RegisterBuiltinFunctions(&registry).ok());
  Tupelo system(MakeFlightsB(), MakeFlightsC());
  system.set_registry(&registry);
  for (const SemanticCorrespondence& c : FlightsBToCCorrespondences()) {
    system.AddCorrespondence(c);
  }
  TupeloOptions options;
  options.limits.max_states = 200000;
  TupeloResult r = MustDiscover(system, options);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.verified);
  // Must contain a λ step.
  bool has_lambda = false;
  for (const Op& op : r.mapping.steps()) {
    if (OpName(op) == "apply") has_lambda = true;
  }
  EXPECT_TRUE(has_lambda);
}

TEST(TupeloTest, UnreachableTargetReportsNotFound) {
  // Target value never appears in the source and no function provides it.
  Database source = Tdb("relation R (A) { (1) }");
  Database target = Tdb("relation R (A) { (2) }");
  Tupelo system(source, target);
  TupeloOptions options;
  options.limits.max_states = 5000;
  TupeloResult r = MustDiscover(system, options);
  EXPECT_FALSE(r.found);
}

TEST(TupeloTest, BudgetExhaustionFlagged) {
  Database source = Tdb("relation R (A1, A2, A3, A4) { (a, b, c, d) }");
  Database target = Tdb("relation R (B1, B2, B3, B4) { (a, b, c, d) }");
  Tupelo system(source, target);
  TupeloOptions options;
  options.heuristic = HeuristicKind::kH0;
  options.limits.max_states = 10;  // far too small
  TupeloResult r = MustDiscover(system, options);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(IsResourceStop(r.stop_reason));
}

TEST(TupeloTest, CorrespondenceWithoutRegistryIsConfigError) {
  Tupelo system(MakeFlightsB(), MakeFlightsC());
  system.AddCorrespondence({"add", {"Cost", "AgentFee"}, "TotalCost"});
  Result<TupeloResult> r = system.Discover({});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TupeloTest, UnknownFunctionIsConfigError) {
  FunctionRegistry registry;
  Tupelo system(MakeFlightsB(), MakeFlightsC());
  system.set_registry(&registry);
  system.AddCorrespondence({"mystery", {"Cost"}, "Out"});
  EXPECT_EQ(system.Discover({}).status().code(), StatusCode::kNotFound);
}

TEST(TupeloTest, ArityMismatchIsConfigError) {
  FunctionRegistry registry;
  ASSERT_TRUE(RegisterBuiltinFunctions(&registry).ok());
  Tupelo system(MakeFlightsB(), MakeFlightsC());
  system.set_registry(&registry);
  system.AddCorrespondence({"add", {"Cost"}, "Out"});
  EXPECT_EQ(system.Discover({}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TupeloTest, EmptyOutputIsConfigError) {
  FunctionRegistry registry;
  ASSERT_TRUE(RegisterBuiltinFunctions(&registry).ok());
  Tupelo system(MakeFlightsB(), MakeFlightsC());
  system.set_registry(&registry);
  system.AddCorrespondence({"add", {"Cost", "AgentFee"}, ""});
  EXPECT_EQ(system.Discover({}).status().code(),
            StatusCode::kInvalidArgument);
}

// A zero-width beam examines nothing; reporting that as "exhausted" would
// claim no mapping exists. Both a plain beam run and a ladder with a beam
// rung are configuration errors.
TEST(TupeloTest, ZeroBeamWidthIsConfigError) {
  Tupelo system(Tdb("relation S (A, B) { (1, 2) }"),
                Tdb("relation T (X, B) { (1, 2) }"));
  TupeloOptions plain;
  plain.algorithm = SearchAlgorithm::kBeam;
  plain.beam_width = 0;
  EXPECT_EQ(system.Discover(plain).status().code(),
            StatusCode::kInvalidArgument);
  TupeloOptions ladder;
  ladder.ladder = DefaultLadder();
  ladder.beam_width = 0;
  EXPECT_EQ(system.Discover(ladder).status().code(),
            StatusCode::kInvalidArgument);
}

// Pools live until the process exits, so a thread count above
// kMaxThreads is refused before any pool exists, for a plain beam run and
// a ladder with a beam rung.
TEST(TupeloTest, TooManyThreadsIsConfigError) {
  Tupelo system(Tdb("relation S (A, B) { (1, 2) }"),
                Tdb("relation T (X, B) { (1, 2) }"));
  const size_t threads_before = ThreadCount();
  TupeloOptions plain;
  plain.algorithm = SearchAlgorithm::kBeam;
  plain.threads = kMaxThreads + 1;
  EXPECT_EQ(system.Discover(plain).status().code(),
            StatusCode::kInvalidArgument);
  TupeloOptions ladder;
  ladder.ladder = DefaultLadder();
  ladder.threads = kMaxThreads + 1;
  EXPECT_EQ(system.Discover(ladder).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ThreadCount(), threads_before);
}

// A beam rung with threads = N runs over the process's pool of N workers:
// the first call creates it and keeps it, and a second call adds no
// thread. No other test in this binary asks for 3 threads.
TEST(TupeloTest, BeamRungsReuseTheProcessPool) {
  Tupelo system(Tdb("relation S (A, B) { (1, 2) }"),
                Tdb("relation T (X, B) { (1, 2) }"));
  TupeloOptions options;
  options.algorithm = SearchAlgorithm::kBeam;
  options.threads = 3;
  // A sanitizer runtime may start a helper thread at the process's first
  // thread creation (TSan does); start one first so that it does not count.
  std::thread([] {}).join();
  const size_t before = ThreadCount();
  TupeloResult first = MustDiscover(system, options);
  ASSERT_TRUE(first.found);
  EXPECT_EQ(ThreadCount(), before + 3);
  TupeloResult second = MustDiscover(system, options);
  ASSERT_TRUE(second.found);
  EXPECT_EQ(ThreadCount(), before + 3);
  EXPECT_EQ(first.mapping.ToScript(), second.mapping.ToScript());
}

TEST(TupeloTest, UnknownHeuristicKindIsConfigError) {
  Tupelo system(Tdb("relation S (A, B) { (1, 2) }"),
                Tdb("relation T (X, B) { (1, 2) }"));
  TupeloOptions options;
  options.heuristic = static_cast<HeuristicKind>(99);
  EXPECT_EQ(system.Discover(options).status().code(),
            StatusCode::kInvalidArgument);
  options.ladder = DefaultLadder();
  EXPECT_EQ(system.Discover(options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TupeloTest, ScaleOverrideRespected) {
  // A tiny k collapses the cosine heuristic to near-blindness but must
  // still find the mapping.
  Database source = Tdb("relation R (A) { (1) }");
  Database target = Tdb("relation R (B) { (1) }");
  Tupelo system(source, target);
  TupeloOptions options;
  options.heuristic = HeuristicKind::kCosine;
  options.scale_k = 1.0;
  TupeloResult r = MustDiscover(system, options);
  EXPECT_TRUE(r.found);
}

TEST(TupeloTest, DiscoverMappingConvenienceWrapper) {
  Database source = Tdb("relation R (A) { (1) }");
  Database target = Tdb("relation R (B) { (1) }");
  Result<TupeloResult> r = DiscoverMapping(source, target);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->found);
}

TEST(TupeloTest, StatsPopulated) {
  Database source = Tdb("relation R (A, B) { (1, 2) }");
  Database target = Tdb("relation R (X, Y) { (1, 2) }");
  Tupelo system(source, target);
  TupeloResult r = MustDiscover(system, {});
  ASSERT_TRUE(r.found);
  EXPECT_GE(r.stats.states_examined, 3u);
  EXPECT_GE(r.stats.states_generated, 2u);
  EXPECT_EQ(r.stats.solution_cost, 2);
}

TEST(TupeloTest, GreedySolutionMayBeSuboptimalButVerifies) {
  Database source = Tdb("relation R (A, B) { (x, y) }");
  Database target = Tdb("relation R (C, D) { (x, y) }");
  TupeloOptions options;
  options.algorithm = SearchAlgorithm::kGreedy;
  Result<TupeloResult> r = DiscoverMapping(source, target, options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->found);
  EXPECT_GE(r->stats.solution_cost, 2);  // optimal is 2; greedy may exceed
  EXPECT_TRUE(r->verified);
}

TEST(TupeloTest, SimplifyOptionShortensDetours) {
  // Force a detour-prone discovery and verify simplify keeps correctness.
  Database source = Tdb("relation R (A, B) { (x, y) }");
  Database target = Tdb("relation R (B, C) { (x, y) }");  // chain A->B->C
  TupeloOptions options;
  options.simplify = true;
  options.limits.max_states = 500000;
  Result<TupeloResult> r = DiscoverMapping(source, target, options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->found);
  EXPECT_TRUE(r->verified);  // verification runs on the simplified form
}

TEST(TupeloTest, AlwaysFailingFunctionMakesTargetUnreachable) {
  // Failure injection: a registered function that errors on every input
  // yields null λ outputs, so the target values never materialize and the
  // search must terminate with found=false rather than crash.
  FunctionRegistry registry;
  ComplexFunction broken;
  broken.name = "broken";
  broken.arity = 1;
  broken.impl = [](const std::vector<std::string>&) -> Result<std::string> {
    return Status::Internal("always fails");
  };
  ASSERT_TRUE(registry.Register(std::move(broken)).ok());

  Database source = Tdb("relation R (A) { (1) }");
  Database target = Tdb("relation R (A, Out) { (1, 2) }");
  Tupelo system(source, target);
  system.set_registry(&registry);
  system.AddCorrespondence({"broken", {"A"}, "Out"});
  TupeloOptions options;
  options.limits.max_states = 5000;
  Result<TupeloResult> r = system.Discover(options);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->found);
}

TEST(TupeloTest, MultiRelationSourceAndTarget) {
  Database source = Tdb(
      "relation Emp (Name) { (ada) }\n"
      "relation Dept (Id) { (d1) }");
  Database target = Tdb(
      "relation Employees (Name) { (ada) }\n"
      "relation Departments (Id) { (d1) }");
  Tupelo system(source, target);
  TupeloOptions options;
  options.limits.max_states = 100000;
  TupeloResult r = MustDiscover(system, options);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.stats.solution_cost, 2);
  EXPECT_TRUE(r.verified);
}

}  // namespace
}  // namespace tupelo
