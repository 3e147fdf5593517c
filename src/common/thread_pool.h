#ifndef TUPELO_COMMON_THREAD_POOL_H_
#define TUPELO_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tupelo {

// A small work-sharing thread pool for the parallel search runtime.
//
// Design constraints (deliberately narrower than a general executor):
//  - No detached threads, ever: workers are joined in the destructor, so a
//    ThreadPool on the stack cannot outlive the state its tasks touch.
//  - Tasks are fire-and-forget closures; completion is tracked by the
//    caller with a WaitGroup (below), which keeps the queue free of
//    futures/promises and their allocation cost.
//  - Submit never blocks and never runs the task inline; a pool of size 0
//    is invalid (callers run sequentially instead of constructing one).
//
// Per-task execution observer, called on the worker thread immediately
// around each task. The common layer cannot depend on obs/, so this is an
// abstract seam; obs::PoolTaskTracer (obs/trace.h) is the implementation
// that turns every pool task into a trace span on its worker's track.
// Implementations must be thread-safe (all workers call concurrently)
// and must not throw.
class TaskTraceHook {
 public:
  virtual ~TaskTraceHook() = default;
  virtual void OnTaskBegin() = 0;
  virtual void OnTaskEnd() = 0;
};

// Tasks should communicate failure through Status/StopReason, not
// exceptions. As a last-resort backstop the worker loop still catches
// anything a task throws — a poison task must not take the worker (and
// the process) down — counts it in task_exceptions(), and keeps serving
// the queue. The task's own work is lost; orderly failure handling
// belongs at the task boundary (see GuardedExpand in search_types.h).
class ThreadPool {
 public:
  // Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();  // drains nothing: pending tasks still run, then joins

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  // Enqueues `task` for execution on some worker. Thread-safe.
  void Submit(std::function<void()> task);

  // Installs (or clears, with nullptr) the per-task observer. The hook
  // must outlive the pool or be cleared first. Not synchronized against
  // in-flight tasks: install before submitting work that must be
  // observed, clear only when the pool is quiescent.
  void set_trace_hook(TaskTraceHook* hook) {
    trace_hook_.store(hook, std::memory_order_release);
  }

  // Installs (or clears) a liveness counter bumped once per completed
  // task — the thread-pool leg of the supervisor heartbeat (the search
  // leg stamps from BudgetGuard poll points). Same lifetime rules as the
  // trace hook: install while quiescent, the counter must outlive the
  // tasks it observes.
  void set_task_heartbeat(std::atomic<uint64_t>* beats) {
    task_heartbeat_.store(beats, std::memory_order_release);
  }

  // Tasks that threw and were absorbed by the worker-loop backstop.
  uint64_t task_exceptions() const {
    return task_exceptions_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::atomic<TaskTraceHook*> trace_hook_{nullptr};
  std::atomic<std::atomic<uint64_t>*> task_heartbeat_{nullptr};
  std::atomic<uint64_t> task_exceptions_{0};
  std::vector<std::thread> workers_;
};

// Counts outstanding tasks so a caller can block until a batch completes:
//
//   WaitGroup wg;
//   wg.Add(items.size());
//   for (auto& item : items)
//     pool.Submit([&, &item] { Process(item); wg.Done(); });
//   wg.Wait();
//
// BeamSearch's level barrier over a pool is exactly this shape.
// Add may be called again after Wait returns (the group is reusable).
class WaitGroup {
 public:
  void Add(size_t n = 1);
  void Done();
  // Blocks until the count returns to zero. Spurious-wakeup safe.
  void Wait();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t outstanding_ = 0;
};

}  // namespace tupelo

#endif  // TUPELO_COMMON_THREAD_POOL_H_
