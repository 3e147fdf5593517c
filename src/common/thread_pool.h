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
//    Tupelo::Discover's process-wide pools sit in a function-local static
//    and are joined at exit.
//  - Tasks are fire-and-forget closures; completion is tracked by the
//    caller with a WaitGroup (below), which keeps the queue free of
//    futures/promises and their allocation cost.
//  - Submit never blocks and never runs the task inline; a pool of size 0
//    is invalid (callers run sequentially instead of constructing one).
//  - The pool only runs tasks. A task that wants a trace span or a
//    heartbeat emits it itself (BeamSearch's Phase A tasks do both), so
//    nothing about one caller is installed on a pool that others share.
//  - A task never waits on another task, so callers sharing one pool
//    cannot deadlock each other; they only queue behind each other.
//
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
