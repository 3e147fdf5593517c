// The structured-tracing subsystem (obs/trace.h): per-thread ring
// buffers (wraparound retention, dropped-event accounting), concurrent
// emission from pool workers, B/E pairing in the Chrome JSON export, the
// binary flight-record round trip, and the spans Tupelo::Discover emits
// across the driver, search, executor, and pool layers — including the
// flight-recorder dump triggers.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

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

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
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
  obs::PoolTaskTracer hook(&session);
  pool.set_trace_hook(&hook);

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
  int pool_spans = 0;
  for (const TraceExportEvent& e : session.Collect()) {
    if (e.name == "worker.tick") tids.insert(e.tid);
    if (e.name == "pool.task" && e.phase == TracePhase::kBegin) ++pool_spans;
  }
  EXPECT_EQ(tids.size(), 4u);
  EXPECT_EQ(pool_spans, 4);
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
        TraceSpan span(&session, TraceCategory::kPool, "task", "i", i);
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
  { TraceSpan span(&session, TraceCategory::kSearch, "s"); }
  std::string path = TempPath("trace_export.json");
  ASSERT_TRUE(session.WriteChromeJson(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  Result<obs::JsonValue> parsed = obs::JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_NE(parsed->Find("traceEvents"), nullptr);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Binary flight record
// ---------------------------------------------------------------------------

TEST(FlightRecordTest, SerializeParseRoundTrip) {
  TraceSession session;
  {
    TraceSpan span(&session, TraceCategory::kExecutor, "op.promote", "rel", 2);
    session.EmitInstant(TraceCategory::kFault, "fault.injected", "n", 1);
  }
  std::string bytes = session.SerializeFlightRecord();
  Result<obs::FlightRecord> record = obs::ParseFlightRecord(bytes);
  ASSERT_TRUE(record.ok()) << record.status();
  std::vector<TraceExportEvent> direct = session.Collect();
  ASSERT_EQ(record->events.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(record->events[i].name, direct[i].name);
    EXPECT_EQ(record->events[i].ts_ns, direct[i].ts_ns);
    EXPECT_EQ(record->events[i].tid, direct[i].tid);
    EXPECT_EQ(record->events[i].phase, direct[i].phase);
    EXPECT_EQ(record->events[i].cat, direct[i].cat);
    ASSERT_EQ(record->events[i].args.size(), direct[i].args.size());
    for (size_t j = 0; j < direct[i].args.size(); ++j) {
      EXPECT_EQ(record->events[i].args[j], direct[i].args[j]);
    }
  }
  EXPECT_EQ(record->thread_count, 1u);
}

TEST(FlightRecordTest, RejectsCorruptInput) {
  EXPECT_FALSE(obs::ParseFlightRecord("").ok());
  EXPECT_FALSE(obs::ParseFlightRecord("NOPE").ok());
  TraceSession session;
  session.EmitInstant(TraceCategory::kSearch, "tick");
  std::string bytes = session.SerializeFlightRecord();
  // Truncation anywhere must yield a typed error, never a crash.
  for (size_t cut : {size_t{1}, bytes.size() / 2, bytes.size() - 1}) {
    Result<obs::FlightRecord> r =
        obs::ParseFlightRecord(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
  }
}

TEST(FlightRecordTest, DumpAndLoadFile) {
  TraceSession session;
  session.EmitInstant(TraceCategory::kSearch, "tick", "x", 42);
  std::string path = TempPath("trace_flight.bin");
  ASSERT_TRUE(session.DumpFlightRecord(path));
  Result<obs::FlightRecord> record = obs::LoadFlightRecord(path);
  ASSERT_TRUE(record.ok()) << record.status();
  ASSERT_EQ(record->events.size(), 1u);
  EXPECT_EQ(record->events[0].name, "tick");
  std::remove(path.c_str());
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

TEST(DiscoverTraceTest, ParallelBeamProducesDistinctWorkerTracks) {
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

  std::set<uint32_t> worker_tids;
  for (const TraceExportEvent& e : session.Collect()) {
    if (e.name == "pool.task" || e.name == "beam.prepare") {
      worker_tids.insert(e.tid);
    }
  }
  EXPECT_GE(worker_tids.size(), 2u)
      << "parallel beam tasks should land on several worker tracks";
}

TEST(DiscoverTraceTest, FlightRecorderDumpsOnResourceStop) {
  Database source = Tdb("relation S (A, B) { (1, 2) }");
  Database target = Tdb("relation T (X, B) { (1, 2) }");
  Tupelo system(source, target);
  TraceSession session;
  std::string path = TempPath("trace_fr_stop.bin");
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
  Result<obs::FlightRecord> record = obs::LoadFlightRecord(path);
  ASSERT_TRUE(record.ok()) << record.status();
  EXPECT_FALSE(record->events.empty());
  std::remove(path.c_str());
}

TEST(DiscoverTraceTest, FlightRecorderStaysQuietOnSuccess) {
  Database source = Tdb("relation R (A) { (1) }");
  Database target = Tdb("relation R (B) { (1) }");
  Tupelo system(source, target);
  TraceSession session;
  std::string path = TempPath("trace_fr_ok.bin");
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
  std::string fr_path = TempPath("trace_fr_kill.bin");
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
  Result<obs::FlightRecord> record = obs::LoadFlightRecord(fr_path);
  ASSERT_TRUE(record.ok()) << record.status();
  // The dump must capture checkpoint activity from the killed run.
  bool saw_checkpoint = false;
  for (const TraceExportEvent& e : record->events) {
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
  options.flight_recorder_path = TempPath("never_written.bin");
  Result<TupeloResult> r = system.Discover(options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tupelo
