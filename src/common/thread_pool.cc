#include "common/thread_pool.h"

#include <utility>

namespace tupelo {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      // Drain the queue even under shutdown: a submitted task may hold a
      // WaitGroup::Done the caller is blocked on.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      // Last-resort poison backstop: a throwing task loses its own work
      // but must not kill the worker thread (and with it the process).
      task_exceptions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void WaitGroup::Add(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  outstanding_ += n;
}

void WaitGroup::Done() {
  // The notify must happen under the lock: the waiter is free to destroy
  // the WaitGroup as soon as Wait returns, and Wait can only return after
  // this mutex is released — a notify after unlock would touch a possibly
  // dead condition variable.
  std::lock_guard<std::mutex> lock(mu_);
  outstanding_ -= 1;
  if (outstanding_ == 0) cv_.notify_all();
}

void WaitGroup::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return outstanding_ == 0; });
}

}  // namespace tupelo
