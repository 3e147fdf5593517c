#ifndef TUPELO_PERFBENCH_TRACED_PROBLEM_H_
#define TUPELO_PERFBENCH_TRACED_PROBLEM_H_

// The traced run's measuring seam: a forwarding adapter around a
// MappingProblem that satisfies the search duck type
// (search/search_types.h) and times every call the search makes into the
// problem, per thread, from outside src/.
//
// Each timed call becomes one Interval in the calling thread's log and one
// span in the obs::TraceSession (category, name, and the task id as an
// argument; the enclosing span on the same thread is its parent).
// AuxMemoryNodes is forwarded untimed: it is one atomic load, and timing
// it would cost tens of times the call itself.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/mapping_problem.h"
#include "obs/trace.h"
#include "common.h"

namespace tupelo::perfbench {

enum class Layer : uint8_t { kExpand, kEstimate, kGoal, kFingerprint };
inline constexpr size_t kLayerCount = 4;

struct Interval {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Layer layer = Layer::kExpand;
  bool caller_thread = false;  // the thread that called the search
};

// Owns the per-thread interval logs of one traced pass. Threads register
// lazily on their first call; TakeAll() (called only while no search is
// running) hands back every interval and starts a fresh generation, so
// pool threads of finished tasks do not pin old logs.
class CallRecorder {
 public:
  explicit CallRecorder(obs::TraceSession* trace)
      : id_(next_id_.fetch_add(1) + 1), trace_(trace), epoch_(Clock::now()) {}

  obs::TraceSession* trace() const { return trace_; }
  int64_t task() const { return task_.load(std::memory_order_relaxed); }
  void BeginTask(int64_t task_id) {
    task_.store(task_id, std::memory_order_relaxed);
    caller_ = std::this_thread::get_id();
  }

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  void Record(int64_t start_ns, int64_t end_ns, Layer layer) {
    Log().push_back(Interval{start_ns, end_ns, layer,
                             std::this_thread::get_id() == caller_});
  }

  std::vector<Interval> TakeAll() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Interval> all;
    for (const auto& log : logs_) {
      all.insert(all.end(), log->begin(), log->end());
    }
    logs_.clear();
    generation_.fetch_add(1, std::memory_order_relaxed);
    return all;
  }

 private:
  std::vector<Interval>& Log() {
    struct Cache {
      uint64_t recorder = 0;
      uint64_t generation = 0;
      std::vector<Interval>* log = nullptr;
    };
    thread_local Cache cache;
    const uint64_t gen = generation_.load(std::memory_order_relaxed);
    if (cache.recorder != id_ || cache.generation != gen ||
        cache.log == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      logs_.push_back(std::make_unique<std::vector<Interval>>());
      cache = Cache{id_, gen, logs_.back().get()};
    }
    return *cache.log;
  }

  static inline std::atomic<uint64_t> next_id_{0};
  const uint64_t id_;
  obs::TraceSession* const trace_;
  const Clock::time_point epoch_;
  std::atomic<int64_t> task_{0};
  std::atomic<uint64_t> generation_{0};
  std::thread::id caller_;
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Interval>>> logs_;
};

// Times one forwarded call: an Interval in the recorder plus a B/E span
// pair in the trace session.
class CallScope {
 public:
  CallScope(CallRecorder& rec, Layer layer, obs::TraceCategory cat,
            const char* name)
      : rec_(rec), layer_(layer), cat_(cat), name_(name) {
    if (rec_.trace() != nullptr) {
      rec_.trace()->EmitBegin(cat_, name_, "task", rec_.task());
    }
    start_ = rec_.NowNs();
  }
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;
  ~CallScope() {
    rec_.Record(start_, rec_.NowNs(), layer_);
    if (rec_.trace() != nullptr) {
      rec_.trace()->EmitEnd(cat_, name_, "task", rec_.task());
    }
  }

 private:
  CallRecorder& rec_;
  Layer layer_;
  obs::TraceCategory cat_;
  const char* name_;
  int64_t start_ = 0;
};

class TracedProblem {
 public:
  using State = MappingProblem::State;
  using Action = MappingProblem::Action;
  using SuccessorT = MappingProblem::SuccessorT;

  TracedProblem(const MappingProblem& inner, CallRecorder& rec)
      : inner_(inner), rec_(rec) {}

  const State& initial_state() const { return inner_.initial_state(); }

  bool IsGoal(const State& s) const {
    CallScope scope(rec_, Layer::kGoal, obs::TraceCategory::kSearch,
                    "core.is_goal");
    return inner_.IsGoal(s);
  }

  std::vector<SuccessorT> Expand(const State& s) const {
    CallScope scope(rec_, Layer::kExpand, obs::TraceCategory::kExpand,
                    "core.expand");
    return inner_.Expand(s);
  }

  int EstimateCost(const State& s) const {
    CallScope scope(rec_, Layer::kEstimate, obs::TraceCategory::kHeuristic,
                    "core.estimate");
    return inner_.EstimateCost(s);
  }

  void EstimateCostBatch(std::span<const State* const> states,
                         std::span<int> out) const {
    CallScope scope(rec_, Layer::kEstimate, obs::TraceCategory::kHeuristic,
                    "core.estimate_batch");
    inner_.EstimateCostBatch(states, out);
  }

  uint64_t StateKey(const State& s) const {
    CallScope scope(rec_, Layer::kFingerprint, obs::TraceCategory::kSearch,
                    "core.state_key");
    return inner_.StateKey(s);
  }

  Fp128 StateKey128(const State& s) const {
    CallScope scope(rec_, Layer::kFingerprint, obs::TraceCategory::kSearch,
                    "core.state_key128");
    return inner_.StateKey128(s);
  }

  size_t AuxMemoryNodes() const { return inner_.AuxMemoryNodes(); }

 private:
  const MappingProblem& inner_;
  CallRecorder& rec_;
};

// Wall-clock attribution of one search window [begin_ns, end_ns]: every
// instant goes to the layers of the calls running at that instant, split
// evenly between concurrent calls, and instants with no call running go
// to the search layer itself. The shares therefore add up to the window.
struct WindowShares {
  double layer_ns[kLayerCount] = {0, 0, 0, 0};
  double search_self_ns = 0;
  // Summed call durations per layer (thread time, not wall share).
  double layer_busy_ns[kLayerCount] = {0, 0, 0, 0};
  uint64_t layer_calls[kLayerCount] = {0, 0, 0, 0};
  double worker_busy_ns = 0;  // call time on threads other than the caller
};

WindowShares AttributeWindow(const std::vector<Interval>& intervals,
                             int64_t begin_ns, int64_t end_ns);

}  // namespace tupelo::perfbench

#endif  // TUPELO_PERFBENCH_TRACED_PROBLEM_H_
