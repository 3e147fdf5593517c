// The structured-tracing subsystem (obs/trace.h): per-thread ring
// buffers (wraparound retention, dropped-event accounting), concurrent
// emission from pool workers, B/E pairing in the Chrome JSON export, the
// ParseChromeTrace round trip, and the spans Tupelo::Discover emits
// across the driver, search and executor layers, beam workers included —
// with the flight-recorder dump triggers.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <latch>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/thread_pool.h"
#include "core/tupelo.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/io.h"
#include "workloads/synthetic.h"

namespace tupelo {
namespace {

using obs::TraceCategory;
using obs::TraceExportEvent;
using obs::TracePhase;
using obs::TraceSession;
using obs::TraceSpan;

// Named after this process too, so that two trace_test processes (two
// ctest runs, or a repeat loop beside a full suite) never share a file.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "trace_test_" + std::to_string(getpid()) +
         "_" + name;
}

Database Tdb(const char* text) {
  Result<Database> db = ParseTdb(text);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

// Reads a WriteChromeJson export or flight dump back through the reader.
Result<std::vector<TraceExportEvent>> LoadTrace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return obs::ParseChromeTrace(text);
}

// ---------------------------------------------------------------------------
// Ring buffer semantics
// ---------------------------------------------------------------------------

TEST(TraceRingTest, RecordsEventsWithArgs) {
  TraceSession session;
  session.EmitInstant(TraceCategory::kSearch, "tick", "n", 7, "m", -3);
  std::vector<TraceExportEvent> events = session.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "tick");
  EXPECT_EQ(events[0].phase, TracePhase::kInstant);
  EXPECT_EQ(events[0].cat, TraceCategory::kSearch);
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].first, "n");
  EXPECT_EQ(events[0].args[0].second, 7);
  EXPECT_EQ(events[0].args[1].first, "m");
  EXPECT_EQ(events[0].args[1].second, -3);
  EXPECT_EQ(session.events_recorded(), 1u);
  EXPECT_EQ(session.events_dropped(), 0u);
}

TEST(TraceRingTest, WraparoundKeepsLastEventsAndCountsDropped) {
  // buffer_kb=1 rounds up to the 64-record minimum ring.
  TraceSession session(1);
  const uint64_t cap = session.ring_capacity();
  ASSERT_GE(cap, 64u);
  const uint64_t total = cap + 100;
  for (uint64_t i = 0; i < total; ++i) {
    session.EmitInstant(TraceCategory::kSearch, "tick", "i",
                        static_cast<int64_t>(i));
  }
  EXPECT_EQ(session.events_recorded(), total);
  EXPECT_EQ(session.events_dropped(), total - cap);

  // The retained window is exactly the *last* cap events, in order.
  std::vector<TraceExportEvent> events = session.Collect();
  ASSERT_EQ(events.size(), cap);
  for (uint64_t i = 0; i < cap; ++i) {
    ASSERT_EQ(events[i].args.size(), 1u);
    EXPECT_EQ(events[i].args[0].second,
              static_cast<int64_t>(total - cap + i));
  }
}

TEST(TraceRingTest, SpanRaiiEmitsMatchedBeginEnd) {
  TraceSession session;
  {
    TraceSpan span(&session, TraceCategory::kExpand, "expand");
    span.SetEndArg("successors", 5);
  }
  std::vector<TraceExportEvent> events = session.Collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, TracePhase::kBegin);
  EXPECT_EQ(events[1].phase, TracePhase::kEnd);
  EXPECT_EQ(events[1].name, "expand");
  ASSERT_EQ(events[1].args.size(), 1u);
  EXPECT_EQ(events[1].args[0].first, "successors");
  EXPECT_EQ(events[1].args[0].second, 5);
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
}

TEST(TraceRingTest, NullSessionSpanIsANoOp) {
  TraceSpan span(nullptr, TraceCategory::kSearch, "nothing");
  span.SetEndArg("x", 1);  // must not crash
}

TEST(TraceRingTest, OrphanedEndFromWraparoundIsReconciled) {
  TraceSession session(1);
  const uint64_t cap = session.ring_capacity();
  // One outer span whose B gets overwritten by the instants flooding the
  // ring, leaving an orphan E: reconciliation must drop it, and the
  // still-open inner B must be closed.
  session.EmitBegin(TraceCategory::kSearch, "outer");
  for (uint64_t i = 0; i < cap + 8; ++i) {
    session.EmitInstant(TraceCategory::kSearch, "tick");
  }
  session.EmitEnd(TraceCategory::kSearch, "outer");
  session.EmitBegin(TraceCategory::kSearch, "unclosed");
  std::vector<TraceExportEvent> events = session.Collect();
  int begins = 0, ends = 0;
  std::map<std::string, int> open;
  for (const TraceExportEvent& e : events) {
    if (e.phase == TracePhase::kBegin) {
      ++begins;
      ++open[e.name];
    } else if (e.phase == TracePhase::kEnd) {
      ++ends;
      --open[e.name];
    }
  }
  EXPECT_EQ(begins, ends);
  for (const auto& [name, count] : open) {
    EXPECT_EQ(count, 0) << name;
  }
}

TEST(TraceRingTest, FaultInstantsBumpFaultCount) {
  TraceSession session;
  EXPECT_EQ(session.fault_count(), 0u);
  session.EmitInstant(TraceCategory::kFault, "fault.injected");
  session.EmitInstant(TraceCategory::kSearch, "tick");
  EXPECT_EQ(session.fault_count(), 1u);
}

// ---------------------------------------------------------------------------
// Concurrent emission
// ---------------------------------------------------------------------------

TEST(TraceConcurrencyTest, PoolWorkersGetDistinctTracks) {
  TraceSession session;
  ThreadPool pool(4);

  // A start barrier forces all four workers to hold a task at once, so
  // exactly four distinct worker tracks must appear.
  std::atomic<int> started{0};
  WaitGroup wg;
  wg.Add(4);
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&] {
      started.fetch_add(1, std::memory_order_relaxed);
      while (started.load(std::memory_order_relaxed) < 4) {
      }
      session.EmitInstant(TraceCategory::kSearch, "worker.tick");
      wg.Done();
    });
  }
  wg.Wait();

  EXPECT_EQ(session.thread_count(), 4u);
  std::set<uint32_t> tids;
  for (const TraceExportEvent& e : session.Collect()) {
    if (e.name == "worker.tick") tids.insert(e.tid);
  }
  EXPECT_EQ(tids.size(), 4u);
}

// Two tasks that each wait for the other can only finish on two
// different workers, so the spans they emit, as the beam's Phase A tasks
// emit theirs, must lie on two tracks.
TEST(TraceConcurrencyTest, TasksThatMeetRunOnTwoWorkerTracks) {
  TraceSession session;
  ThreadPool pool(4);
  std::latch meet(2);
  WaitGroup wg;
  wg.Add(2);
  for (int i = 0; i < 2; ++i) {
    pool.Submit([&] {
      {
        TraceSpan span(&session, TraceCategory::kSearch, "task");
        meet.arrive_and_wait();
      }
      wg.Done();
    });
  }
  wg.Wait();

  std::set<uint32_t> tids;
  for (const TraceExportEvent& e : session.Collect()) {
    if (e.name == "task") tids.insert(e.tid);
  }
  EXPECT_EQ(tids.size(), 2u);
}

TEST(TraceConcurrencyTest, ManyThreadsEmittingLosesNothing) {
  TraceSession session;
  constexpr int kTasks = 400;
  {
    ThreadPool pool(4);
    WaitGroup wg;
    wg.Add(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&session, &wg, i] {
        TraceSpan span(&session, TraceCategory::kSearch, "task", "i", i);
        wg.Done();
      });
    }
    wg.Wait();
  }
  // 400 B/E pairs, no instants; default ring is large enough to hold
  // every per-thread share.
  EXPECT_EQ(session.events_recorded(), 2u * kTasks);
  EXPECT_EQ(session.events_dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Chrome JSON export
// ---------------------------------------------------------------------------

TEST(TraceExportTest, ChromeJsonHasMetadataAndBalancedPairs) {
  TraceSession session;
  {
    TraceSpan outer(&session, TraceCategory::kDriver, "outer");
    TraceSpan inner(&session, TraceCategory::kSearch, "inner", "k", 9);
    session.EmitInstant(TraceCategory::kSearch, "mark");
  }
  obs::JsonValue json = session.ToChromeJson();
  const obs::JsonValue* events = json.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->size(), 0u);

  bool saw_process_name = false;
  bool saw_thread_name = false;
  std::map<int64_t, std::vector<std::string>> stacks;  // tid -> open names
  std::map<int64_t, double> last_ts;
  for (const obs::JsonValue& e : events->elements()) {
    const std::string& ph = e.Find("ph")->as_string();
    const std::string& name = e.Find("name")->as_string();
    if (ph == "M") {
      if (name == "process_name") saw_process_name = true;
      if (name == "thread_name") saw_thread_name = true;
      continue;
    }
    const int64_t tid = e.Find("tid")->as_int();
    const double ts = e.Find("ts")->as_double();
    EXPECT_GE(ts, last_ts[tid]) << "per-thread ts must be non-decreasing";
    last_ts[tid] = ts;
    if (ph == "B") {
      stacks[tid].push_back(name);
    } else if (ph == "E") {
      ASSERT_FALSE(stacks[tid].empty());
      EXPECT_EQ(stacks[tid].back(), name);
      stacks[tid].pop_back();
    } else {
      EXPECT_EQ(ph, "i");
      EXPECT_EQ(e.Find("s")->as_string(), "t");
    }
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_thread_name);
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
}

TEST(TraceExportTest, WriteChromeJsonRoundTripsThroughParser) {
  TraceSession session;
  session.EmitInstant(TraceCategory::kSearch, "tick", "x", 42);
  std::string path = TempPath("trace_export.json");
  ASSERT_TRUE(session.WriteChromeJson(path));
  Result<std::vector<TraceExportEvent>> events = LoadTrace(path);
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ((*events)[0].name, "tick");
  ASSERT_EQ((*events)[0].args.size(), 1u);
  EXPECT_EQ((*events)[0].args[0].second, 42);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// ParseChromeTrace, the reader of exports and flight dumps
// ---------------------------------------------------------------------------

TEST(FlightRecordTest, ParseChromeTraceReadsBackCollect) {
  // 3,000 events: enough nanosecond timestamps that reading ts with a
  // truncating cast instead of rounding gets some of them 1 ns short.
  TraceSession session;
  for (int64_t i = 0; i < 1000; ++i) {
    TraceSpan span(&session, TraceCategory::kExecutor, "op.promote", "rel", i);
    session.EmitInstant(TraceCategory::kFault, "fault.injected", "n", -i,
                        "m", i * 7);
    span.SetEndArg("rows", i % 5);
  }
  std::vector<TraceExportEvent> direct = session.Collect();
  ASSERT_EQ(direct.size(), 3000u);
  Result<std::vector<TraceExportEvent>> parsed =
      obs::ParseChromeTrace(session.ToChromeJson().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    const TraceExportEvent& e = (*parsed)[i];
    EXPECT_EQ(e.ts_ns, direct[i].ts_ns) << "event " << i;
    EXPECT_EQ(e.tid, direct[i].tid) << "event " << i;
    EXPECT_EQ(e.phase, direct[i].phase) << "event " << i;
    EXPECT_EQ(e.cat, direct[i].cat) << "event " << i;
    EXPECT_EQ(e.name, direct[i].name) << "event " << i;
    EXPECT_EQ(e.args, direct[i].args) << "event " << i;
  }
}

TEST(FlightRecordTest, RejectsCorruptInput) {
  EXPECT_FALSE(obs::ParseChromeTrace("").ok());
  EXPECT_FALSE(obs::ParseChromeTrace("NOPE").ok());
  TraceSession session;
  session.EmitInstant(TraceCategory::kSearch, "tick");
  std::string text = session.ToChromeJson().Dump();
  // A cut anywhere that breaks the document yields a typed error, never
  // a crash.
  for (size_t cut : {size_t{1}, text.size() / 2, text.size() - 1}) {
    Result<std::vector<TraceExportEvent>> r =
        obs::ParseChromeTrace(std::string_view(text).substr(0, cut));
    ASSERT_FALSE(r.ok()) << "cut=" << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// Discover integration
// ---------------------------------------------------------------------------

TEST(DiscoverTraceTest, EmitsSpansAcrossEveryLayer) {
  Database source = Tdb("relation S (A, B) { (1, 2) }");
  Database target = Tdb("relation T (X, B) { (1, 2) }");
  Tupelo system(source, target);
  TraceSession session;
  obs::MetricRegistry metrics;
  TupeloOptions options;
  options.trace = &session;
  options.metrics = &metrics;
  Result<TupeloResult> r = system.Discover(options);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->found);

  std::set<std::string> names;
  bool saw_op = false;
  for (const TraceExportEvent& e : session.Collect()) {
    names.insert(e.name);
    if (e.name.rfind("op.", 0) == 0) saw_op = true;
  }
  EXPECT_TRUE(names.count("discover"));
  EXPECT_TRUE(names.count("rung.rbfs"));
  EXPECT_TRUE(names.count("search.rbfs"));
  EXPECT_TRUE(names.count("expand"));
  EXPECT_TRUE(names.count("heuristic"));
  EXPECT_TRUE(names.count("verify"));
  EXPECT_TRUE(saw_op);

  // The metric mirror carries this call's delta.
  EXPECT_EQ(metrics.CounterValue("trace.events_recorded"),
            session.events_recorded());
  EXPECT_EQ(metrics.CounterValue("trace.events_dropped"),
            session.events_dropped());
}

// With a pool, every frontier node is prepared by a pool task, so no
// beam.prepare span may sit on the calling thread's track. How many
// workers share the tasks is up to the scheduler; that several can is
// TasksThatMeetRunOnTwoWorkerTracks above.
TEST(DiscoverTraceTest, ParallelBeamPreparesOnWorkerTracks) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(6);
  Tupelo system(pair.source, pair.target);
  TraceSession session;
  TupeloOptions options;
  options.algorithm = SearchAlgorithm::kBeam;
  options.beam_width = 8;
  options.threads = 4;
  options.trace = &session;
  Result<TupeloResult> r = system.Discover(options);
  ASSERT_TRUE(r.ok()) << r.status();

  const std::vector<TraceExportEvent> events = session.Collect();
  std::optional<uint32_t> caller_tid;
  for (const TraceExportEvent& e : events) {
    if (e.name == "discover") caller_tid = e.tid;
  }
  ASSERT_TRUE(caller_tid.has_value());
  int prepares = 0;
  for (const TraceExportEvent& e : events) {
    if (e.name != "beam.prepare") continue;
    ++prepares;
    EXPECT_NE(e.tid, *caller_tid) << "beam.prepare ran on the caller";
  }
  EXPECT_GT(prepares, 0);
}

TEST(DiscoverTraceTest, FlightRecorderDumpsOnResourceStop) {
  Database source = Tdb("relation S (A, B) { (1, 2) }");
  Database target = Tdb("relation T (X, B) { (1, 2) }");
  Tupelo system(source, target);
  TraceSession session;
  std::string path = TempPath("trace_fr_stop.json");
  std::remove(path.c_str());
  TupeloOptions options;
  options.trace = &session;
  options.flight_recorder_path = path;
  options.limits.max_states = 1;  // guaranteed resource stop
  Result<TupeloResult> r = system.Discover(options);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_FALSE(r->found);
  ASSERT_TRUE(IsResourceStop(r->stop_reason));
  ASSERT_TRUE(FileExists(path));
  Result<std::vector<TraceExportEvent>> events = LoadTrace(path);
  ASSERT_TRUE(events.ok()) << events.status();
  EXPECT_FALSE(events->empty());
  std::remove(path.c_str());
}

TEST(DiscoverTraceTest, FlightRecorderStaysQuietOnSuccess) {
  Database source = Tdb("relation R (A) { (1) }");
  Database target = Tdb("relation R (B) { (1) }");
  Tupelo system(source, target);
  TraceSession session;
  std::string path = TempPath("trace_fr_ok.json");
  std::remove(path.c_str());
  TupeloOptions options;
  options.trace = &session;
  options.flight_recorder_path = path;
  Result<TupeloResult> r = system.Discover(options);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->found);
  EXPECT_TRUE(r->verified);
  EXPECT_FALSE(FileExists(path));
}

TEST(DiscoverTraceTest, FlightRecorderDumpsOnCheckpointKill) {
  Database source = Tdb("relation S (A, B, C) { (1, 2, 3) }");
  Database target = Tdb("relation T (X, Y, C) { (1, 2, 3) }");
  Tupelo system(source, target);
  TraceSession session;
  std::string cp_path = TempPath("trace_fr_kill.cp");
  std::string fr_path = TempPath("trace_fr_kill.json");
  std::remove(fr_path.c_str());
  TupeloOptions options;
  options.trace = &session;
  options.flight_recorder_path = fr_path;
  options.checkpoint_path = cp_path;
  options.checkpoint_interval_states = 1;
  options.checkpoint_kill_after = 1;
  Result<TupeloResult> r = system.Discover(options);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->stop_reason, StopReason::kCancelled);
  ASSERT_TRUE(FileExists(fr_path));
  Result<std::vector<TraceExportEvent>> events = LoadTrace(fr_path);
  ASSERT_TRUE(events.ok()) << events.status();
  // The dump must capture checkpoint activity from the killed run.
  bool saw_checkpoint = false;
  for (const TraceExportEvent& e : *events) {
    if (e.name == "checkpoint.write") saw_checkpoint = true;
  }
  EXPECT_TRUE(saw_checkpoint);
  std::remove(fr_path.c_str());
  std::remove(cp_path.c_str());
}

TEST(DiscoverTraceTest, FlightRecorderPathRequiresTraceSession) {
  Database db = Tdb("relation R (A) { (1) }");
  Tupelo system(db, db);
  TupeloOptions options;
  options.flight_recorder_path = TempPath("never_written.json");
  Result<TupeloResult> r = system.Discover(options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tupelo
