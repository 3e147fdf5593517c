#ifndef TUPELO_OBS_TRACE_H_
#define TUPELO_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "obs/json_writer.h"

namespace tupelo::obs {

// Structured tracing for the discovery pipeline: the span-level companion
// to MetricRegistry (metrics.h). Where the registry answers "how many",
// a TraceSession answers "where did the wall clock go" — which rung,
// which beam level, which operator chain, which worker thread sat idle.
//
// Model: instrumented code emits *spans* (begin/end pairs bracketing a
// scope, usually via the TraceSpan RAII helper) and *instants* (point
// events) into the session. Every event carries a steady-clock nanosecond
// timestamp relative to session start, the emitting thread's track id, a
// category, a name, and up to two small integer key/value payload args.
//
// The hot path is allocation-free and lock-free: each thread owns a
// bounded ring buffer of fixed-size records (registered once per thread
// under the session mutex, cached in a thread-local slot afterwards), and
// an emit is one timestamp read plus one store into the ring. When a ring
// wraps, the oldest events are overwritten and counted as dropped — the
// session always holds the *last* N events per thread, which is exactly
// the flight-recorder contract (capture what the run was doing when it
// died). Event names, categories, and arg keys must be string literals
// (or otherwise outlive the session): only the pointer is recorded.
//
// Instrumented code takes a nullable TraceSession* (same convention as
// MetricRegistry*): resolve once, guard each emit with a null check, and
// a disabled run pays one predictable branch per event.
//
// Exports:
//  - ToChromeJson()/WriteChromeJson(): Chrome trace-event JSON ("JSON
//    Object Format" with a traceEvents list) loadable in Perfetto and
//    chrome://tracing. B/E pairs are reconciled per thread before export
//    (ring overwrite can orphan an E whose B was evicted; orphans are
//    discarded, still-open spans are closed at the last timestamp), so
//    the exported stream always has matched pairs. The flight-recorder
//    trigger paths write the same export as their dump.
//  - ParseChromeTrace(): the one reader of that export, used by
//    tools/trace_report, the fault-campaign dump self-check and the tests.

enum class TraceCategory : uint8_t {
  kSearch,      // algorithm iterations/levels, state visits, goals
  kExpand,      // MappingProblem::Expand successor generation
  kHeuristic,   // heuristic evaluation (cache misses only)
  kExecutor,    // fira::Executor::ApplyOp per-operator work
  kDriver,      // Tupelo::Discover rung ladder, simplify
  kVerify,      // mapping verification replay
  kCheckpoint,  // checkpoint writes / resume loads
  kFault,       // fault-injection fires (flight-recorder trigger)
};

std::string_view TraceCategoryName(TraceCategory cat);

enum class TracePhase : uint8_t {
  kBegin,    // Chrome "B"
  kEnd,      // Chrome "E"
  kInstant,  // Chrome "i"
};

// One event as read back out of a session (or parsed from a Chrome
// trace): strings materialized, args expanded. The in-ring record is a
// private fixed-size POD; this is the export/analysis form.
struct TraceExportEvent {
  uint64_t ts_ns = 0;  // nanoseconds since session start
  uint32_t tid = 0;    // session-local thread track id (dense from 0)
  TracePhase phase = TracePhase::kInstant;
  TraceCategory cat = TraceCategory::kSearch;
  std::string name;
  // Up to two key/value payload args, in emission order.
  std::vector<std::pair<std::string, int64_t>> args;
};

class TraceSession {
 public:
  // Each thread that emits gets its own ring of `buffer_kb` kibibytes
  // (rounded down to a power-of-two record count, minimum 64 records).
  explicit TraceSession(size_t buffer_kb = 256);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  void EmitBegin(TraceCategory cat, const char* name,
                 const char* k1 = nullptr, int64_t v1 = 0,
                 const char* k2 = nullptr, int64_t v2 = 0) {
    Emit(TracePhase::kBegin, cat, name, k1, v1, k2, v2);
  }
  void EmitEnd(TraceCategory cat, const char* name,
               const char* k1 = nullptr, int64_t v1 = 0,
               const char* k2 = nullptr, int64_t v2 = 0) {
    Emit(TracePhase::kEnd, cat, name, k1, v1, k2, v2);
  }
  void EmitInstant(TraceCategory cat, const char* name,
                   const char* k1 = nullptr, int64_t v1 = 0,
                   const char* k2 = nullptr, int64_t v2 = 0) {
    if (cat == TraceCategory::kFault) {
      faults_.fetch_add(1, std::memory_order_relaxed);
    }
    Emit(TracePhase::kInstant, cat, name, k1, v1, k2, v2);
  }

  // Total events ever emitted / overwritten by ring wraparound. Reading
  // while other threads emit gives a per-thread-consistent snapshot.
  uint64_t events_recorded() const;
  uint64_t events_dropped() const;
  // kFault instants emitted (fault-injection fires) — a flight-recorder
  // trigger condition.
  uint64_t fault_count() const {
    return faults_.load(std::memory_order_relaxed);
  }
  // Threads that have emitted at least one event.
  size_t thread_count() const;
  // Capacity of one per-thread ring, in records.
  size_t ring_capacity() const { return capacity_; }

  // The retained (last-N, B/E-reconciled) events of every thread, merged
  // and sorted by timestamp. Callers must be quiescent: no concurrent
  // emits on other threads (post-join/-Wait reads are fine).
  std::vector<TraceExportEvent> Collect() const;

  // Chrome trace-event JSON: {"traceEvents":[...], "displayTimeUnit":..}
  // with per-thread name metadata. ts is microseconds (Chrome convention).
  JsonValue ToChromeJson() const;
  // Writes ToChromeJson() to `path` atomically (AtomicWriteFile); false
  // (with a stderr note) on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Record {
    uint64_t ts_ns;
    const char* name;
    const char* k1;
    const char* k2;
    int64_t v1;
    int64_t v2;
    TraceCategory cat;
    TracePhase phase;
  };
  struct ThreadBuffer {
    uint32_t tid = 0;
    size_t mask = 0;  // capacity - 1
    std::unique_ptr<Record[]> ring;
    // Total events emitted by this thread; the ring holds the last
    // min(head, capacity) of them. Single writer; release store pairs
    // with the acquire load in Collect().
    std::atomic<uint64_t> head{0};
  };

  void Emit(TracePhase phase, TraceCategory cat, const char* name,
            const char* k1, int64_t v1, const char* k2, int64_t v2);
  ThreadBuffer* RegisterThisThread();
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  const uint64_t id_;  // process-unique; keys the thread-local cache
  size_t capacity_;    // records per thread ring (power of two)
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> faults_{0};
  mutable std::mutex mu_;
  std::map<std::thread::id, ThreadBuffer*> by_thread_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// RAII span: emits B at construction, E at destruction. The end arg (set
// any time before destruction) rides on the E event — use for results
// only known at scope exit (successor counts, states examined). All
// operations are no-ops when constructed with a null session.
class TraceSpan {
 public:
  TraceSpan(TraceSession* session, TraceCategory cat, const char* name,
            const char* k1 = nullptr, int64_t v1 = 0,
            const char* k2 = nullptr, int64_t v2 = 0)
      : session_(session), cat_(cat), name_(name) {
    if (session_ != nullptr) session_->EmitBegin(cat, name, k1, v1, k2, v2);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (session_ != nullptr) {
      session_->EmitEnd(cat_, name_, end_key_, end_value_);
    }
  }

  void SetEndArg(const char* key, int64_t value) {
    end_key_ = key;
    end_value_ = value;
  }

 private:
  TraceSession* session_;
  TraceCategory cat_;
  const char* name_;
  const char* end_key_ = nullptr;
  int64_t end_value_ = 0;
};

// Reads the events of a Chrome trace-event JSON document: a
// WriteChromeJson export, a flight-recorder dump, or a foreign Chrome
// trace carrying the usual ph/ts/tid/name fields. Metadata ("M") and
// phases other than B/E/i are skipped. ts is rounded to the nearest
// nanosecond, so an export reads back exactly as Collect() returned it.
// Text that is not such a document is a typed error.
Result<std::vector<TraceExportEvent>> ParseChromeTrace(std::string_view text);

}  // namespace tupelo::obs

#endif  // TUPELO_OBS_TRACE_H_
