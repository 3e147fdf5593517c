#include "runtime/supervisor.h"

#include <algorithm>
#include <utility>

namespace tupelo::runtime {

namespace {

// Watermark in nodes for a fraction of the bound.
uint64_t Watermark(uint64_t max_nodes, double fraction) {
  return static_cast<uint64_t>(static_cast<double>(max_nodes) * fraction);
}

}  // namespace

Supervisor::Supervisor(const SupervisorConfig& config,
                       obs::MetricRegistry* metrics, obs::TraceSession* trace)
    : config_(config), metrics_(metrics), trace_(trace) {
  watchdog_ = std::thread([this] { Loop(); });
}

Supervisor::~Supervisor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  watchdog_.join();
}

int64_t Supervisor::Watch(WatchSpec spec) {
  if (spec.heartbeat == nullptr || spec.preempt == nullptr) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  Watched w;
  w.id = next_id_++;
  w.last_beats = spec.heartbeat->beats.load(std::memory_order_relaxed);
  w.last_states = spec.heartbeat->states.load(std::memory_order_relaxed);
  w.last_progress = std::chrono::steady_clock::now();
  w.spec = std::move(spec);
  watches_.push_back(std::move(w));
  if (metrics_ != nullptr) metrics_->GetCounter("supervisor.watches").Increment();
  return watches_.back().id;
}

void Supervisor::Unwatch(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  watches_.erase(std::remove_if(watches_.begin(), watches_.end(),
                                [id](const Watched& w) { return w.id == id; }),
                 watches_.end());
}

PreemptReason Supervisor::preemption(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Watched& w : watches_) {
    if (w.id == id) return w.preempted;
  }
  return PreemptReason::kNone;
}

void Supervisor::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto tick = std::chrono::milliseconds(
      config_.tick_millis > 0 ? config_.tick_millis : 1);
  while (!shutdown_) {
    cv_.wait_for(lock, tick);
    if (shutdown_) return;
    if (metrics_ != nullptr) {
      metrics_->GetCounter("supervisor.ticks").Increment();
    }
    TickLocked(std::chrono::steady_clock::now());
  }
}

void Supervisor::TickLocked(std::chrono::steady_clock::time_point now) {
  const auto window = std::chrono::milliseconds(config_.stall_window_millis);
  for (Watched& w : watches_) {
    if (w.preempted != PreemptReason::kNone) continue;  // already handled
    const HeartbeatSlot* hb = w.spec.heartbeat;
    const uint64_t beats = hb->beats.load(std::memory_order_relaxed);
    const uint64_t states = hb->states.load(std::memory_order_relaxed);
    const uint64_t memory = hb->memory_nodes.load(std::memory_order_relaxed);

    // Memory staging first: a rung thrashing against its memory bound is
    // often still "alive" by the beat counter, and relief may be all it
    // needs to avoid stalling later.
    if (w.spec.max_memory_nodes > 0) {
      const uint64_t soft =
          Watermark(w.spec.max_memory_nodes, kMemorySoftFraction);
      const uint64_t trim =
          Watermark(w.spec.max_memory_nodes, kMemoryTrimFraction);
      const uint64_t hard =
          Watermark(w.spec.max_memory_nodes, kMemoryHardFraction);
      if (w.memory_stage < 1 && soft > 0 && memory >= soft) {
        w.memory_stage = 1;
        if (w.spec.memory_relief) w.spec.memory_relief();
        memory_reliefs_.fetch_add(1, std::memory_order_relaxed);
        if (metrics_ != nullptr) {
          metrics_->GetCounter("supervisor.memory_reliefs").Increment();
        }
        if (trace_ != nullptr) {
          trace_->EmitInstant(obs::TraceCategory::kFault,
                              "supervisor.memory_relief", "nodes",
                              static_cast<int64_t>(memory));
        }
      }
      if (w.memory_stage < 2 && trim > 0 && memory >= trim) {
        w.memory_stage = 2;
        if (w.spec.width_pressure != nullptr) {
          w.spec.width_pressure->fetch_add(1, std::memory_order_relaxed);
        }
        width_trims_.fetch_add(1, std::memory_order_relaxed);
        if (metrics_ != nullptr) {
          metrics_->GetCounter("supervisor.width_trims").Increment();
        }
        if (trace_ != nullptr) {
          trace_->EmitInstant(obs::TraceCategory::kFault,
                              "supervisor.width_trim", "nodes",
                              static_cast<int64_t>(memory));
        }
      }
      if (w.memory_stage < 3 && hard > 0 && memory >= hard) {
        w.memory_stage = 3;
        w.preempted = PreemptReason::kMemory;
        w.spec.preempt->Cancel();
        memory_preemptions_.fetch_add(1, std::memory_order_relaxed);
        if (metrics_ != nullptr) {
          metrics_->GetCounter("supervisor.memory_preemptions").Increment();
        }
        if (trace_ != nullptr) {
          trace_->EmitInstant(obs::TraceCategory::kFault,
                              "supervisor.memory_preempt", "nodes",
                              static_cast<int64_t>(memory));
        }
        continue;
      }
    }

    // Liveness: any movement of the beat or progress counters resets the
    // stall clock; silence past the window preempts the rung.
    if (beats != w.last_beats || states != w.last_states) {
      w.last_beats = beats;
      w.last_states = states;
      w.last_progress = now;
      continue;
    }
    if (now - w.last_progress >= window) {
      w.preempted = PreemptReason::kStall;
      w.spec.preempt->Cancel();
      stall_preemptions_.fetch_add(1, std::memory_order_relaxed);
      if (metrics_ != nullptr) {
        metrics_->GetCounter("supervisor.stall_preemptions").Increment();
      }
      if (trace_ != nullptr) {
        trace_->EmitInstant(obs::TraceCategory::kFault, "supervisor.stall",
                            "beats", static_cast<int64_t>(beats), "states",
                            static_cast<int64_t>(states));
      }
    }
  }
}

}  // namespace tupelo::runtime
