// Resource governance end-to-end: deadlines, cancellation, the
// graceful-degradation ladder, anytime partial results, and the
// fault-injection seam (docs/ROBUSTNESS.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/tupelo.h"
#include "fira/executor.h"
#include "fira/operators.h"
#include "obs/metrics.h"
#include "relational/io.h"

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

// A synthetic instance that is intractable within tens of milliseconds: ten
// attributes to rename (≫10! orderings interleaved with the other
// operators) plus a target value 'zz' no operator can materialize, so the
// search can never terminate with found=true.
Tupelo IntractableInstance() {
  Database source = Tdb(
      "relation R (A0, A1, A2, A3, A4, A5, A6, A7, A8, A9) "
      "{ (v0, v1, v2, v3, v4, v5, v6, v7, v8, v9) }");
  Database target = Tdb(
      "relation R (B0, B1, B2, B3, B4, B5, B6, B7, B8, B9, Z) "
      "{ (v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, zz) }");
  return Tupelo(std::move(source), std::move(target));
}

// Installs/uninstalls the process-wide fault injector for a test scope.
struct ScopedInjector {
  explicit ScopedInjector(FaultInjector* injector) {
    SetFaultInjector(injector);
  }
  ~ScopedInjector() { SetFaultInjector(nullptr); }
};

// ---------------------------------------------------------------------------
// Deadline + ladder (the PR's acceptance scenario)
// ---------------------------------------------------------------------------

TEST(GovernanceTest, DeadlineOnIntractableInstanceDegradesGracefully) {
  Tupelo system = IntractableInstance();
  obs::MetricRegistry metrics;
  TupeloOptions options;
  options.limits.deadline_millis = 50;
  // The beam rung examines at most 1 + 8 * max_depth states (513 at the
  // default depth of 64), which a fast build finishes inside its share of
  // the deadline; without a depth limit only the clock can stop it.
  options.limits.max_depth = 1 << 20;
  options.ladder = DefaultLadder();
  options.metrics = &metrics;

  auto start = std::chrono::steady_clock::now();
  TupeloResult r = MustDiscover(system, options);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.stop_reason, StopReason::kDeadline);
  // The state budget (10M) would take minutes: only the wall clock can have
  // stopped this run. The bound is loose for CI noise; typical overshoot is
  // one check_interval of expansions past 50ms.
  EXPECT_LT(elapsed.count(), 1000);

  // Both rungs of the default ladder were attempted, in order.
  ASSERT_EQ(r.rungs.size(), 2u);
  EXPECT_EQ(r.rungs[0].algorithm, SearchAlgorithm::kIda);
  EXPECT_EQ(r.rungs[1].algorithm, SearchAlgorithm::kBeam);
  EXPECT_EQ(r.rungs[0].stop, StopReason::kDeadline);
  EXPECT_EQ(r.rungs[1].stop, StopReason::kDeadline);

  // Anytime result: a non-empty partial mapping with some heuristic
  // distance still to go.
  EXPECT_FALSE(r.partial_mapping.empty());
  EXPECT_GT(r.partial_h, 0);

  EXPECT_GE(metrics.CounterValue("governor.deadline_trips"), 1u);
  EXPECT_EQ(metrics.CounterValue("governor.fallback_activations"), 1u);
  EXPECT_GE(metrics.CounterValue("governor.rungs_attempted"), 1u);
  EXPECT_GT(metrics.CounterValue("governor.rung.ida.nanos") +
                metrics.CounterValue("governor.rung.beam.nanos"),
            0u);
}

TEST(GovernanceTest, LadderRecoversAfterStarvedFirstRung) {
  // Rung 1 gets a one-state sliver and must trip; the beam rung inherits
  // the remaining budget and finds the mapping.
  Database source = Tdb("relation R (A, B) { (x, y) }");
  Database target = Tdb("relation R (C, D) { (x, y) }");
  Tupelo system(source, target);
  obs::MetricRegistry metrics;
  TupeloOptions options;
  options.limits.max_states = 100000;
  options.ladder = {{SearchAlgorithm::kIda, 1e-9}, {SearchAlgorithm::kBeam, 1.0}};
  options.metrics = &metrics;

  TupeloResult r = MustDiscover(system, options);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.stop_reason, StopReason::kFound);
  EXPECT_TRUE(r.verified);
  EXPECT_TRUE(r.verify_status.ok());
  ASSERT_EQ(r.rungs.size(), 2u);
  EXPECT_EQ(r.rungs[0].stop, StopReason::kStates);
  EXPECT_EQ(r.rungs[0].states_examined, 1u);
  EXPECT_EQ(r.rungs[1].stop, StopReason::kFound);
  EXPECT_EQ(metrics.CounterValue("governor.fallback_activations"), 1u);
  // Aggregate stats cover both rungs.
  EXPECT_GE(r.stats.states_examined, 1u + r.rungs[1].states_examined);
}

TEST(GovernanceTest, PlainRunRecordsSingleRung) {
  Database db = Tdb("relation R (A) { (1) }");
  Tupelo system(db, db);
  TupeloResult r = MustDiscover(system, {});
  ASSERT_TRUE(r.found);
  ASSERT_EQ(r.rungs.size(), 1u);
  EXPECT_EQ(r.rungs[0].stop, StopReason::kFound);
  EXPECT_EQ(r.stop_reason, StopReason::kFound);
}

TEST(GovernanceTest, DefaultLadderShape) {
  std::vector<DegradationRung> ladder = DefaultLadder();
  ASSERT_EQ(ladder.size(), 2u);
  EXPECT_EQ(ladder[0].algorithm, SearchAlgorithm::kIda);
  EXPECT_EQ(ladder[1].algorithm, SearchAlgorithm::kBeam);
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(GovernanceTest, PreCancelledTokenStopsTheLadderImmediately) {
  Tupelo system = IntractableInstance();
  obs::MetricRegistry metrics;
  CancelToken token;
  token.Cancel();
  TupeloOptions options;
  options.limits.cancel = &token;
  options.ladder = DefaultLadder();
  options.metrics = &metrics;

  TupeloResult r = MustDiscover(system, options);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.stop_reason, StopReason::kCancelled);
  // Cancellation is terminal: no fallback rung is attempted.
  ASSERT_EQ(r.rungs.size(), 1u);
  EXPECT_EQ(r.rungs[0].stop, StopReason::kCancelled);
  EXPECT_EQ(metrics.CounterValue("governor.cancellations"), 1u);
  EXPECT_EQ(metrics.CounterValue("governor.fallback_activations"), 0u);
}

TEST(GovernanceTest, ConcurrentCancelStopsRunningDiscover) {
  Tupelo system = IntractableInstance();
  CancelToken token;
  TupeloOptions options;
  options.limits.cancel = &token;
  options.limits.check_interval = 1;
  options.ladder = DefaultLadder();

  Result<TupeloResult> r = Status::Internal("not run");
  std::thread worker([&] { r = system.Discover(options); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  token.Cancel();
  worker.join();

  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->found);
  EXPECT_EQ(r->stop_reason, StopReason::kCancelled);
}

// ---------------------------------------------------------------------------
// Fault injection through search, verification, and the ladder
// ---------------------------------------------------------------------------

TEST(GovernanceTest, InjectedVerifyFailureSurfacesAsVerifyStatus) {
  Database source = Tdb("relation R (A) { (1) }");
  Database target = Tdb("relation R (B) { (1) }");
  Tupelo system(source, target);

  FaultInjector injector;
  ScopedInjector installed(&injector);

  // Pass 1: count operator applications without failing any.
  injector.Arm("*", Status::Internal("unreachable"),
               std::numeric_limits<uint64_t>::max());
  TupeloResult clean = MustDiscover(system, {});
  ASSERT_TRUE(clean.found);
  EXPECT_TRUE(clean.verified);
  uint64_t total = injector.consults();
  ASSERT_GE(total, clean.mapping.steps().size());

  // Pass 2: the search is deterministic, so skipping everything except the
  // final replay applications makes verification (and only verification)
  // fail. The search result must survive with the replay error surfaced.
  injector.Arm("*", Status::Internal("injected verify fault"),
               total - clean.mapping.steps().size());
  TupeloResult faulted = MustDiscover(system, {});
  EXPECT_EQ(injector.injected(), 1u);
  ASSERT_TRUE(faulted.found);
  EXPECT_EQ(faulted.stop_reason, StopReason::kFound);
  EXPECT_FALSE(faulted.verified);
  ASSERT_FALSE(faulted.verify_status.ok());
  EXPECT_NE(faulted.verify_status.ToString().find("injected verify fault"),
            std::string::npos);
}

TEST(GovernanceTest, AllOperatorsFailingExhaustsCleanly) {
  // Every ApplyOp fails: states have no successors, so every algorithm
  // sweeps the (empty) space and reports a conclusive exhausted stop — no
  // crash, no resource trip.
  Database source = Tdb("relation R (A) { (1) }");
  Database target = Tdb("relation R (B) { (1) }");
  Tupelo system(source, target);

  FaultInjector injector;
  ScopedInjector installed(&injector);
  injector.Arm("*", Status::Internal("operator offline"));

  TupeloOptions options;
  options.ladder = DefaultLadder();
  TupeloResult r = MustDiscover(system, options);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.stop_reason, StopReason::kExhausted);
  EXPECT_GT(injector.injected(), 0u);
  ASSERT_EQ(r.rungs.size(), 2u);  // exhausted rungs still fall through
}

TEST(GovernanceTest, FaultInjectorMatchesNameAndSkips) {
  Database db = Tdb("relation R (A) { (1) }");
  Op rename = RenameAttrOp{"R", "A", "B"};

  FaultInjector injector;
  ScopedInjector installed(&injector);

  // Name mismatch: never consulted as a match, never fails.
  injector.Arm("promote", Status::Internal("wrong op"));
  EXPECT_TRUE(ApplyOp(rename, db).ok());
  EXPECT_EQ(injector.consults(), 0u);

  // Matching name with skip=1: first application passes, second fails.
  injector.Arm("rename_att", Status::Internal("injected"), 1);
  EXPECT_TRUE(ApplyOp(rename, db).ok());
  Result<Database> failed = ApplyOp(rename, db);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_EQ(injector.consults(), 2u);
  EXPECT_EQ(injector.injected(), 1u);

  // Disarmed: everything passes again.
  injector.Disarm();
  EXPECT_TRUE(ApplyOp(rename, db).ok());
}

TEST(GovernanceTest, InjectedFailureCountsInExecutorMetrics) {
  Database db = Tdb("relation R (A) { (1) }");
  Op rename = RenameAttrOp{"R", "A", "B"};

  FaultInjector injector;
  ScopedInjector installed(&injector);
  injector.Arm("*", Status::Internal("injected"));

  obs::MetricRegistry metrics;
  EXPECT_FALSE(ApplyOp(rename, db, nullptr, &metrics).ok());
  EXPECT_EQ(metrics.CounterValue("executor.rename_att.count"), 1u);
  EXPECT_EQ(metrics.CounterValue("executor.rename_att.failures"), 1u);
}

// ---------------------------------------------------------------------------
// Fault-injector firing modes (campaign building blocks)
// ---------------------------------------------------------------------------

TEST(GovernanceTest, ProbabilisticInjectionRespectsEndpoints) {
  Database db = Tdb("relation R (A) { (1) }");
  Op rename = RenameAttrOp{"R", "A", "B"};

  FaultInjector injector;
  ScopedInjector installed(&injector);

  // p = 1: every matching application fails.
  injector.ArmProbabilistic("*", Status::Internal("injected"), 1.0, 42);
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(ApplyOp(rename, db).ok());
  EXPECT_EQ(injector.injected(), 8u);

  // p = 0: consulted but never fires.
  injector.ArmProbabilistic("*", Status::Internal("injected"), 0.0, 42);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ApplyOp(rename, db).ok());
  EXPECT_EQ(injector.consults(), 8u);
  EXPECT_EQ(injector.injected(), 0u);
}

TEST(GovernanceTest, ProbabilisticInjectionIsSeedDeterministic) {
  Database db = Tdb("relation R (A) { (1) }");
  Op rename = RenameAttrOp{"R", "A", "B"};

  FaultInjector injector;
  ScopedInjector installed(&injector);

  auto pattern = [&](uint64_t seed) {
    injector.ArmProbabilistic("*", Status::Internal("injected"), 0.5, seed);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(!ApplyOp(rename, db).ok());
    return fired;
  };
  std::vector<bool> first = pattern(7);
  std::vector<bool> second = pattern(7);
  EXPECT_EQ(first, second);  // same seed ⇒ bit-identical campaign replay
  // At p = 0.5 over 64 draws, both outcomes must occur.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST(GovernanceTest, EveryNthInjectionFiresOnSchedule) {
  Database db = Tdb("relation R (A) { (1) }");
  Op rename = RenameAttrOp{"R", "A", "B"};

  FaultInjector injector;
  ScopedInjector installed(&injector);
  injector.ArmEveryNth("*", Status::ResourceExhausted("injected"), 3);

  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(!ApplyOp(rename, db).ok());
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true,
                                      false, false, true}));
  EXPECT_EQ(injector.injected(), 2u);

  // n = 0 is consulted but can never fire.
  injector.ArmEveryNth("*", Status::Internal("injected"), 0);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ApplyOp(rename, db).ok());
  EXPECT_EQ(injector.injected(), 0u);
}

// ---------------------------------------------------------------------------
// Verification status on clean runs
// ---------------------------------------------------------------------------

TEST(GovernanceTest, CleanRunHasOkVerifyStatus) {
  Database source = Tdb("relation R (A) { (1) }");
  Database target = Tdb("relation R (B) { (1) }");
  Tupelo system(source, target);
  TupeloResult r = MustDiscover(system, {});
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.verified);
  EXPECT_TRUE(r.verify_status.ok());
}

TEST(GovernanceTest, NotFoundRunLeavesVerifyStatusOk) {
  Database source = Tdb("relation R (A) { (1) }");
  Database target = Tdb("relation R (A) { (2) }");
  Tupelo system(source, target);
  TupeloOptions options;
  options.limits.max_states = 2000;
  TupeloResult r = MustDiscover(system, options);
  EXPECT_FALSE(r.found);
  EXPECT_FALSE(r.verified);
  EXPECT_TRUE(r.verify_status.ok());  // nothing to verify is not an error
}

// ---------------------------------------------------------------------------
// BudgetGuard / CancelToken edge cases
// ---------------------------------------------------------------------------

TEST(GovernanceTest, GuardTripsDeadlineAlreadyElapsedAtConstruction) {
  // A 1 ms deadline that has expired before the first Check: the guard's
  // first call always polls, so the very first state trips kDeadline
  // instead of the search running a full check_interval blind.
  SearchLimits limits;
  limits.deadline_millis = 1;
  BudgetGuard guard(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::optional<StopReason> stop = guard.Check(0, 0, 0);
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(*stop, StopReason::kDeadline);
}

TEST(GovernanceTest, GuardTripsPreCancelledTokenOnFirstCheck) {
  SearchLimits limits;
  CancelToken token;
  token.Cancel();
  limits.cancel = &token;
  BudgetGuard guard(limits);
  std::optional<StopReason> stop = guard.Check(0, 0, 0);
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(*stop, StopReason::kCancelled);
}

TEST(GovernanceTest, GuardWithZeroStateBudgetTripsImmediately) {
  SearchLimits limits;
  limits.max_states = 0;
  BudgetGuard guard(limits);
  std::optional<StopReason> stop = guard.Check(0, 0, 0);
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(*stop, StopReason::kStates);
}

TEST(GovernanceTest, ChildTokenSurvivesDestroyedCancelledParent) {
  // A child must keep reporting a cancellation it inherited even after
  // the parent object is gone: the shared cancellation nodes stay alive
  // through the child's chain.
  auto parent = std::make_unique<CancelToken>();
  CancelToken child(parent.get());
  parent->Cancel();
  EXPECT_TRUE(child.cancelled());
  parent.reset();
  EXPECT_TRUE(child.cancelled());
}

TEST(GovernanceTest, ChildTokenSurvivesDestroyedUncancelledParent) {
  auto parent = std::make_unique<CancelToken>();
  CancelToken child(parent.get());
  parent.reset();
  EXPECT_FALSE(child.cancelled());
  child.Cancel();
  EXPECT_TRUE(child.cancelled());
}

TEST(GovernanceTest, DoubleCancelIsIdempotent) {
  CancelToken token;
  token.Cancel();
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Reset();
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
}

TEST(GovernanceTest, CopiedTokenSharesCancellationState) {
  CancelToken token;
  CancelToken copy = token;
  token.Cancel();
  EXPECT_TRUE(copy.cancelled());
}

TEST(GovernanceTest, ChildDoesNotPropagateCancelUpToParent) {
  CancelToken parent;
  CancelToken child(&parent);
  child.Cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_FALSE(parent.cancelled());
}

}  // namespace
}  // namespace tupelo
