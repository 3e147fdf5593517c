// The self-healing runtime (runtime/supervisor.h): watchdog stall
// preemption, staged memory degradation, the poison-state quarantine,
// and the supervised Discover ladder end-to-end (docs/ROBUSTNESS.md,
// "Supervision contract").
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/tupelo.h"
#include "fira/executor.h"
#include "obs/metrics.h"
#include "relational/io.h"
#include "runtime/supervisor.h"
#include "search/search_types.h"

namespace tupelo {
namespace {

using runtime::PreemptReason;
using runtime::Supervisor;
using runtime::SupervisorConfig;
using runtime::WatchSpec;

Database Tdb(const char* text) {
  Result<Database> db = ParseTdb(text);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

// Spin-waits (with a generous ceiling) until `done` returns true. The
// watchdog runs on wall-clock ticks, so tests wait on observable effects
// rather than sleeping fixed amounts.
template <typename Done>
bool WaitFor(Done done, int64_t ceiling_millis = 5000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(ceiling_millis);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

SupervisorConfig FastConfig() {
  SupervisorConfig config;
  config.enabled = true;
  config.tick_millis = 2;
  config.stall_window_millis = 30;
  config.max_rung_retries = 1;
  config.retry_backoff_millis = 2;
  return config;
}

// Installs/uninstalls the process-wide fault injector for a test scope.
struct ScopedInjector {
  explicit ScopedInjector(FaultInjector* injector) {
    SetFaultInjector(injector);
  }
  ~ScopedInjector() { SetFaultInjector(nullptr); }
};

// ---------------------------------------------------------------------------
// Supervisor unit behavior (no search attached)
// ---------------------------------------------------------------------------

TEST(SupervisorTest, SilentHeartbeatIsPreemptedWithinStallWindow) {
  Supervisor supervisor(FastConfig());
  HeartbeatSlot slot;  // never beats
  CancelToken preempt;
  WatchSpec spec;
  spec.heartbeat = &slot;
  spec.preempt = &preempt;
  int64_t id = supervisor.Watch(spec);
  ASSERT_GE(id, 0);

  EXPECT_TRUE(WaitFor([&] { return preempt.cancelled(); }));
  EXPECT_EQ(supervisor.preemption(id), PreemptReason::kStall);
  supervisor.Unwatch(id);
  EXPECT_EQ(supervisor.stall_preemptions(), 1u);
}

TEST(SupervisorTest, BeatingHeartbeatIsNeverPreempted) {
  Supervisor supervisor(FastConfig());
  HeartbeatSlot slot;
  CancelToken preempt;
  WatchSpec spec;
  spec.heartbeat = &slot;
  spec.preempt = &preempt;
  int64_t id = supervisor.Watch(spec);
  ASSERT_GE(id, 0);

  // Beat for ~5 stall windows; the watch must stay healthy throughout.
  auto end = std::chrono::steady_clock::now() +
             std::chrono::milliseconds(150);
  uint64_t states = 0;
  while (std::chrono::steady_clock::now() < end) {
    slot.Beat(++states, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_FALSE(preempt.cancelled());
  EXPECT_EQ(supervisor.preemption(id), PreemptReason::kNone);
  supervisor.Unwatch(id);
  EXPECT_EQ(supervisor.stall_preemptions(), 0u);
}

TEST(SupervisorTest, MemoryPressureStagesReliefThenTrimThenPreempt) {
  SupervisorConfig config = FastConfig();
  config.stall_window_millis = 60000;  // isolate the memory ladder
  Supervisor supervisor(config);

  HeartbeatSlot slot;
  CancelToken preempt;
  std::atomic<uint32_t> pressure{0};
  std::atomic<int> reliefs{0};
  WatchSpec spec;
  spec.heartbeat = &slot;
  spec.preempt = &preempt;
  spec.max_memory_nodes = 100;
  spec.memory_relief = [&reliefs] { ++reliefs; };
  spec.width_pressure = &pressure;
  int64_t id = supervisor.Watch(spec);
  ASSERT_GE(id, 0);

  uint64_t states = 0;
  // Below the soft watermark: no intervention.
  slot.Beat(++states, 50);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(reliefs.load(), 0);

  // Soft watermark (70%): the relief callback runs, once.
  slot.Beat(++states, 75);
  EXPECT_TRUE(WaitFor([&] { return reliefs.load() == 1; }));
  EXPECT_EQ(pressure.load(), 0u);

  // Trim watermark (85%): width pressure rises.
  slot.Beat(++states, 90);
  EXPECT_TRUE(WaitFor([&] { return pressure.load() == 1; }));
  EXPECT_FALSE(preempt.cancelled());

  // Hard watermark (95%): the rung is preempted.
  slot.Beat(++states, 99);
  EXPECT_TRUE(WaitFor([&] { return preempt.cancelled(); }));
  EXPECT_EQ(supervisor.preemption(id), PreemptReason::kMemory);
  supervisor.Unwatch(id);

  EXPECT_EQ(supervisor.memory_reliefs(), 1u);
  EXPECT_EQ(supervisor.width_trims(), 1u);
  EXPECT_EQ(supervisor.memory_preemptions(), 1u);
  EXPECT_EQ(reliefs.load(), 1);  // stages fire at most once per watch
}

TEST(SupervisorTest, InvalidWatchSpecIsRejected) {
  Supervisor supervisor(FastConfig());
  EXPECT_EQ(supervisor.Watch(WatchSpec{}), -1);
  HeartbeatSlot slot;
  WatchSpec no_token;
  no_token.heartbeat = &slot;
  EXPECT_EQ(supervisor.Watch(no_token), -1);
}

TEST(SupervisorTest, UnwatchedIdReportsNoPreemption) {
  Supervisor supervisor(FastConfig());
  EXPECT_EQ(supervisor.preemption(42), PreemptReason::kNone);
}

// ---------------------------------------------------------------------------
// EffectiveBeamWidth / StateQuarantine / GuardedExpand units
// ---------------------------------------------------------------------------

TEST(SupervisorTest, EffectiveBeamWidthHalvesUnderPressure) {
  std::atomic<uint32_t> pressure{0};
  EXPECT_EQ(EffectiveBeamWidth(8, &pressure), 8u);
  pressure.store(1);
  EXPECT_EQ(EffectiveBeamWidth(8, &pressure), 4u);
  pressure.store(2);
  EXPECT_EQ(EffectiveBeamWidth(8, &pressure), 2u);
  pressure.store(5);
  EXPECT_EQ(EffectiveBeamWidth(8, &pressure), 1u);  // floor, never 0
  pressure.store(200);
  EXPECT_EQ(EffectiveBeamWidth(8, &pressure), 1u);
  EXPECT_EQ(EffectiveBeamWidth(8, nullptr), 8u);
}

TEST(SupervisorTest, QuarantineBoundsItsDenylist) {
  StateQuarantine quarantine(2);
  Fp128 a{1, 1}, b{2, 2}, c{3, 3};
  EXPECT_TRUE(quarantine.Add(a));
  EXPECT_FALSE(quarantine.Add(a));  // already quarantined
  EXPECT_TRUE(quarantine.Add(b));
  EXPECT_TRUE(quarantine.Add(c));  // evicts a (FIFO)
  EXPECT_EQ(quarantine.size(), 2u);
  EXPECT_FALSE(quarantine.Contains(a));
  EXPECT_TRUE(quarantine.Contains(b));
  EXPECT_TRUE(quarantine.Contains(c));
  EXPECT_EQ(quarantine.poisoned(), 3u);
}

// A minimal Problem duck type whose Expand throws on one poison state.
struct ThrowingProblem {
  struct SuccessorT {
    int action;
    int state;
  };
  int poison = 7;
  mutable int expands = 0;

  std::vector<SuccessorT> Expand(const int& state) const {
    ++expands;
    if (state == poison) throw std::runtime_error("poison");
    return {{1, state + 1}};
  }
  uint64_t StateKey(const int& state) const {
    return static_cast<uint64_t>(state);
  }
  Fp128 StateKey128(const int& state) const {
    return Fp128{static_cast<uint64_t>(state),
                 static_cast<uint64_t>(state) + 99};
  }
};

TEST(SupervisorTest, GuardedExpandQuarantinesThrowingState) {
  ThrowingProblem problem;
  StateQuarantine quarantine(16);

  // Healthy states pass through untouched.
  auto healthy = GuardedExpand(problem, 3, &quarantine);
  ASSERT_EQ(healthy.size(), 1u);
  EXPECT_EQ(healthy[0].state, 4);

  // The poison state's exception is absorbed and the state quarantined.
  auto poisoned = GuardedExpand(problem, 7, &quarantine);
  EXPECT_TRUE(poisoned.empty());
  EXPECT_EQ(quarantine.poisoned(), 1u);

  // A quarantined state is never re-expanded.
  int before = problem.expands;
  auto again = GuardedExpand(problem, 7, &quarantine);
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(problem.expands, before);

  // Null quarantine degrades to a plain Expand call.
  auto plain = GuardedExpand(problem, 5, nullptr);
  ASSERT_EQ(plain.size(), 1u);
}

// ---------------------------------------------------------------------------
// Supervised Discover end-to-end
// ---------------------------------------------------------------------------

// The PR's deterministic acceptance scenario: a one-shot injected
// operator delay (~10x the stall window) wedges the first attempt; the
// watchdog preempts it within the window (kStalled, not kDeadline), the
// ladder grants one backed-off retry, and the retried rung — now
// fault-free, the injector's one shot spent — returns the verified
// mapping.
TEST(SupervisorTest, HungRungIsPreemptedRetriedAndRecovers) {
  // Two renames deep: the earliest goal visit is the third, and with
  // check_interval = 1 the guard polls on visits 1, 3, 5... — so the
  // preemption is observed before the goal test can win the race.
  Database source = Tdb("relation R (A, B) { (1, x) (2, y) }");
  Database target = Tdb("relation R (C, D) { (1, x) (2, y) }");
  Tupelo system(source, target);

  FaultInjector injector;
  ScopedInjector scoped(&injector);
  injector.ArmEveryNth("*", Status::Internal("wedged"), 2);
  injector.SetKind(FaultInjector::Kind::kDelay, 400);
  injector.SetMaxFires(1);

  TupeloOptions options;
  options.supervisor.enabled = true;
  options.supervisor.tick_millis = 5;
  options.supervisor.stall_window_millis = 40;
  options.supervisor.max_rung_retries = 1;
  options.supervisor.retry_backoff_millis = 5;
  // Poll the cancel token densely: the workload is tiny, so with the
  // default amortization (every 16 visits) the goal is reached before
  // the next poll and the preemption would go unobserved.
  options.limits.check_interval = 1;
  obs::MetricRegistry metrics;
  options.metrics = &metrics;

  Result<TupeloResult> r = system.Discover(options);
  ASSERT_TRUE(r.ok()) << r.status();

  EXPECT_TRUE(r->found);
  EXPECT_TRUE(r->verified);
  EXPECT_EQ(r->stop_reason, StopReason::kFound);
  EXPECT_EQ(r->stall_preemptions, 1u);
  EXPECT_EQ(r->rung_retries, 1u);
  // Two attempts of the same (single) rung: the stalled one, then the
  // clean retry.
  ASSERT_EQ(r->rungs.size(), 2u);
  EXPECT_EQ(r->rungs[0].stop, StopReason::kStalled);
  EXPECT_EQ(r->rungs[1].stop, StopReason::kFound);
  EXPECT_EQ(metrics.CounterValue("supervisor.stall_preemptions"), 1u);
  EXPECT_EQ(metrics.CounterValue("supervisor.rung_retries"), 1u);
}

// Retries exhausted: with max_rung_retries = 0 a stalled single-rung run
// surfaces kStalled as the final stop reason — and still carries the
// anytime partial mapping contract (partial_h set when anything was
// examined).
TEST(SupervisorTest, ExhaustedRetriesSurfaceStalledStop) {
  Database source = Tdb(
      "relation R (A0, A1, A2, A3, A4, A5) { (a, b, c, d, e, f) }");
  Database target = Tdb(
      "relation R (B0, B1, B2, B3, B4, B5, Z) { (a, b, c, d, e, f, zz) }");
  Tupelo system(source, target);

  FaultInjector injector;
  ScopedInjector scoped(&injector);
  // Every 40th operator execution wedges for 300 ms, indefinitely: every
  // attempt stalls eventually.
  injector.ArmEveryNth("*", Status::Internal("wedged"), 40);
  injector.SetKind(FaultInjector::Kind::kDelay, 300);

  TupeloOptions options;
  options.supervisor.enabled = true;
  options.supervisor.tick_millis = 5;
  options.supervisor.stall_window_millis = 40;
  options.supervisor.max_rung_retries = 0;
  options.limits.max_states = 200000;

  Result<TupeloResult> r = system.Discover(options);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->found);
  EXPECT_EQ(r->stop_reason, StopReason::kStalled);
  EXPECT_TRUE(IsResourceStop(r->stop_reason));  // kStalled is one too
  EXPECT_EQ(r->rung_retries, 0u);
  EXPECT_GE(r->stall_preemptions, 1u);
  EXPECT_GE(r->partial_h, 0);  // anytime contract survives preemption
}

// A stall retry draws from what is left of the call's budget, not from a
// fresh copy of it. No operator produces the target's constant column,
// so every attempt runs until its state budget trips, and the counts are
// deterministic whenever the one injected delay wedges the first attempt.
TEST(SupervisorTest, StallRetryStaysInsideTheCallBudget) {
  Database source = Tdb(
      "relation R (A0, A1, A2, A3, A4, A5) { (a, b, c, d, e, f) }");
  Database target = Tdb(
      "relation R (B0, B1, B2, B3, B4, B5, Z) { (a, b, c, d, e, f, zz) }");
  Tupelo system(source, target);

  FaultInjector injector;
  ScopedInjector scoped(&injector);
  injector.ArmEveryNth("*", Status::Internal("wedged"), 3000);
  injector.SetKind(FaultInjector::Kind::kDelay, 300);
  injector.SetMaxFires(1);

  TupeloOptions options;
  options.algorithm = SearchAlgorithm::kIda;
  options.supervisor.enabled = true;
  options.supervisor.tick_millis = 5;
  options.supervisor.stall_window_millis = 40;
  options.supervisor.max_rung_retries = 1;
  options.supervisor.retry_backoff_millis = 5;
  options.limits.max_states = 20000;

  Result<TupeloResult> r = system.Discover(options);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->found);
  ASSERT_EQ(r->rungs.size(), 2u);
  EXPECT_EQ(r->rungs[0].stop, StopReason::kStalled);
  EXPECT_LE(r->stats.states_examined, options.limits.max_states);
  EXPECT_LE(r->rungs[1].states_examined,
            options.limits.max_states - r->rungs[0].states_examined);
}

// Poison states end-to-end: throwing operator faults under supervision
// must quarantine and finish cleanly, never crash.
TEST(SupervisorTest, ThrowingFaultsAreQuarantinedEndToEnd) {
  Database source = Tdb("relation R (A, B) { (1, x) (2, y) }");
  Database target = Tdb("relation R (C, B) { (1, x) (2, y) }");
  Tupelo system(source, target);

  FaultInjector injector;
  ScopedInjector scoped(&injector);
  injector.ArmEveryNth("*", Status::Internal("poison"), 3);
  injector.SetKind(FaultInjector::Kind::kThrow);

  TupeloOptions options;
  options.supervisor.enabled = true;
  options.limits.max_states = 50000;
  obs::MetricRegistry metrics;
  options.metrics = &metrics;

  Result<TupeloResult> r = system.Discover(options);
  ASSERT_TRUE(r.ok()) << r.status();
  // Whatever the outcome, it is clean: found+verified, or a conclusive /
  // budget stop. (With every 3rd operator throwing, whole expansions
  // vanish into the quarantine, so found is not guaranteed.)
  if (r->found && r->verified) {
    EXPECT_TRUE(r->verify_status.ok());
  }
  EXPECT_GT(r->states_quarantined, 0u);
  EXPECT_EQ(metrics.CounterValue("supervisor.states_quarantined"),
            r->states_quarantined);
}

// bad_alloc is absorbed the same way a runtime_error is.
TEST(SupervisorTest, BadAllocFaultsAreQuarantinedEndToEnd) {
  Database source = Tdb("relation R (A, B) { (1, x) }");
  Database target = Tdb("relation R (C, B) { (1, x) }");
  Tupelo system(source, target);

  FaultInjector injector;
  ScopedInjector scoped(&injector);
  injector.ArmEveryNth("*", Status::Internal("oom"), 4);
  injector.SetKind(FaultInjector::Kind::kBadAlloc);

  TupeloOptions options;
  options.supervisor.enabled = true;
  options.limits.max_states = 50000;

  Result<TupeloResult> r = system.Discover(options);
  ASSERT_TRUE(r.ok()) << r.status();
  if (r->found && r->verified) {
    EXPECT_TRUE(r->verify_status.ok());
  }
}

// Supervision off is the status quo: no watchdog, no retries, results
// bit-identical to an unsupervised run.
TEST(SupervisorTest, DisabledSupervisorChangesNothing) {
  Database source = Tdb("relation R (A, B) { (1, x) (2, y) }");
  Database target = Tdb("relation R (C, B) { (1, x) (2, y) }");
  Tupelo system(source, target);

  TupeloOptions plain;
  Result<TupeloResult> a = system.Discover(plain);
  ASSERT_TRUE(a.ok());

  TupeloOptions off;
  off.supervisor.enabled = false;
  off.supervisor.stall_window_millis = 1;  // would be lethal if active
  Result<TupeloResult> b = system.Discover(off);
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(a->found, b->found);
  EXPECT_EQ(a->verified, b->verified);
  EXPECT_EQ(a->mapping.ToScript(), b->mapping.ToScript());
  EXPECT_EQ(b->stall_preemptions, 0u);
  EXPECT_EQ(b->rung_retries, 0u);
  EXPECT_EQ(b->states_quarantined, 0u);
}

// A healthy supervised run on a tractable pair: same mapping as the
// unsupervised run, zero interventions.
TEST(SupervisorTest, HealthySupervisedRunMatchesUnsupervised) {
  Database source = Tdb("relation R (A, B) { (1, x) (2, y) }");
  Database target = Tdb("relation R (C, B) { (1, x) (2, y) }");
  Tupelo system(source, target);

  TupeloOptions plain;
  Result<TupeloResult> a = system.Discover(plain);
  ASSERT_TRUE(a.ok());

  TupeloOptions sup;
  sup.supervisor.enabled = true;
  Result<TupeloResult> b = system.Discover(sup);
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(a->found, b->found);
  EXPECT_EQ(a->mapping.ToScript(), b->mapping.ToScript());
  EXPECT_EQ(b->stall_preemptions, 0u);
  EXPECT_EQ(b->memory_reliefs, 0u);
  EXPECT_EQ(b->states_quarantined, 0u);
}

// Supervised beam under a parallel pool: each Phase A task's heartbeat
// keeps the watchdog fed and the result stays bit-identical to the
// sequential beam (the parallel-beam determinism contract).
TEST(SupervisorTest, SupervisedParallelBeamMatchesSequential) {
  Database source = Tdb("relation R (A, B) { (1, x) (2, y) }");
  Database target = Tdb("relation R (C, B) { (1, x) (2, y) }");
  Tupelo system(source, target);

  TupeloOptions seq;
  seq.algorithm = SearchAlgorithm::kBeam;
  seq.beam_width = 8;
  seq.supervisor.enabled = true;
  Result<TupeloResult> a = system.Discover(seq);
  ASSERT_TRUE(a.ok());

  TupeloOptions par = seq;
  par.threads = 4;
  Result<TupeloResult> b = system.Discover(par);
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(a->found, b->found);
  EXPECT_EQ(a->mapping.ToScript(), b->mapping.ToScript());
  EXPECT_EQ(a->stats.states_examined, b->stats.states_examined);
}

}  // namespace
}  // namespace tupelo
