#ifndef TUPELO_RUNTIME_SUPERVISOR_H_
#define TUPELO_RUNTIME_SUPERVISOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/search_types.h"

namespace tupelo::runtime {

// The self-healing supervision layer: one watchdog thread that watches
// the liveness and memory pressure of running search rungs and intervenes
// mid-flight instead of letting a run die at deadline expiry.
//
// How it connects to the search runtime:
//
//  * Liveness. Every supervised rung gets a HeartbeatSlot
//    (search/search_types.h). The search stamps it from the BudgetGuard's
//    amortized poll tick, and each pooled beam task bumps its `beats`
//    once — both relaxed atomic writes the hot path was effectively
//    already paying. The watchdog samples the slot every `tick_millis`;
//    if neither `beats` nor `states` has moved for `stall_window_millis`
//    the rung is declared hung (a wedged Expand, an injected delay, a
//    deadlock) and its preempt CancelToken is cancelled. The rung
//    returns kCancelled promptly; the driver (core/tupelo.cc) reads the
//    sticky PreemptReason, rewrites the stop to kStalled, and either
//    retries the rung with exponential backoff (transient faults) or
//    advances the degradation ladder.
//
//  * Memory. When a watch declares `max_memory_nodes`, the watchdog
//    stages degradation against watermark fractions of that bound
//    instead of letting the BudgetGuard trip a hard kMemory:
//      soft  (kMemorySoftFraction)   -> run the watch's `memory_relief`
//                                       callback (shrink the Expand LRU
//                                       and estimate caches);
//      trim  (kMemoryTrimFraction)   -> raise `width_pressure`, halving
//                                       the effective beam width;
//      hard  (kMemoryHardFraction)   -> preempt the rung (PreemptReason
//                                       kMemory; the driver degrades to
//                                       the next rung).
//    Stages only move forward within one watch; each transition fires at
//    most once per attempt.
//
// Every intervention increments a supervisor.* counter and emits a
// kFault trace instant, so an armed flight recorder dumps the run's last
// events around the intervention (docs/OBSERVABILITY.md).
//
// Watch/Unwatch are cheap and mutex-guarded; the watchdog holds the same
// mutex during a tick. Preemption state is sticky until Unwatch, so the
// driver can interrogate why a rung stopped after it returns.

// Memory watermarks, as fractions of a watch's max_memory_nodes.
inline constexpr double kMemorySoftFraction = 0.70;
inline constexpr double kMemoryTrimFraction = 0.85;
inline constexpr double kMemoryHardFraction = 0.95;

// Knobs for Tupelo::Discover's supervised mode (TupeloOptions::supervisor)
// and for standalone Supervisor users. Defaults favour interactive runs:
// a 500 ms stall window preempts a hung rung within about half a second.
struct SupervisorConfig {
  // Master switch for TupeloOptions; a constructed Supervisor is always
  // active regardless (callers gate construction on this).
  bool enabled = false;
  // Watchdog sampling period.
  int64_t tick_millis = 20;
  // No heartbeat/progress for this long => the rung is hung.
  int64_t stall_window_millis = 500;
  // Stall-preempted rungs are retried this many times before the ladder
  // advances; the pause before retry i doubles each time.
  int max_rung_retries = 1;
  int64_t retry_backoff_millis = 20;
};

// Why the supervisor cancelled a watch's preempt token (kNone: it did
// not).
enum class PreemptReason { kNone, kStall, kMemory };

// One supervised activity. `heartbeat` and `preempt` are required and
// must outlive the watch (Watch .. Unwatch). `memory_relief` may be
// called from the watchdog thread concurrently with the search and must
// be thread-safe (MappingProblem::TrimCaches is).
struct WatchSpec {
  const HeartbeatSlot* heartbeat = nullptr;
  CancelToken* preempt = nullptr;
  uint64_t max_memory_nodes = 0;  // 0 = no memory staging for this watch
  std::function<void()> memory_relief;
  std::atomic<uint32_t>* width_pressure = nullptr;
  const char* label = "";  // string literal; lands in trace instants
};

class Supervisor {
 public:
  explicit Supervisor(const SupervisorConfig& config,
                      obs::MetricRegistry* metrics = nullptr,
                      obs::TraceSession* trace = nullptr);
  ~Supervisor();  // stops and joins the watchdog thread

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  // Registers an activity; returns its watch id. Invalid specs (missing
  // heartbeat or preempt token) return -1 and are ignored.
  int64_t Watch(WatchSpec spec);

  // Deregisters; the id's sticky preemption state is discarded.
  void Unwatch(int64_t id);

  // Sticky: why this watch was preempted (kNone while healthy). Valid
  // from Watch until Unwatch.
  PreemptReason preemption(int64_t id) const;

  // Lifetime totals across all watches.
  uint64_t stall_preemptions() const {
    return stall_preemptions_.load(std::memory_order_relaxed);
  }
  uint64_t memory_reliefs() const {
    return memory_reliefs_.load(std::memory_order_relaxed);
  }
  uint64_t width_trims() const {
    return width_trims_.load(std::memory_order_relaxed);
  }
  uint64_t memory_preemptions() const {
    return memory_preemptions_.load(std::memory_order_relaxed);
  }

  const SupervisorConfig& config() const { return config_; }

 private:
  struct Watched {
    int64_t id = 0;
    WatchSpec spec;
    uint64_t last_beats = 0;
    uint64_t last_states = 0;
    std::chrono::steady_clock::time_point last_progress;
    PreemptReason preempted = PreemptReason::kNone;
    int memory_stage = 0;  // 0 none, 1 relieved, 2 width-trimmed, 3 hard
  };

  void Loop();
  void TickLocked(std::chrono::steady_clock::time_point now);

  const SupervisorConfig config_;
  obs::MetricRegistry* metrics_;
  obs::TraceSession* trace_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
  int64_t next_id_ = 1;
  std::vector<Watched> watches_;

  std::atomic<uint64_t> stall_preemptions_{0};
  std::atomic<uint64_t> memory_reliefs_{0};
  std::atomic<uint64_t> width_trims_{0};
  std::atomic<uint64_t> memory_preemptions_{0};

  std::thread watchdog_;  // last member: started after everything above
};

}  // namespace tupelo::runtime

#endif  // TUPELO_RUNTIME_SUPERVISOR_H_
