// Fixed-size worker pool for CPU-bound orchestration work.
//
// The batch mapping front-end (ResourceOrchestrator::map_batch) fans
// independent embedding problems out to a small pool and joins before the
// sequential commit phase. Deliberately minimal: FIFO queue, no futures, no
// task priorities; callers that need results write them into pre-sized
// slots and call wait_idle().
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace unify::util {

class ThreadPool {
 public:
  /// Spawns `workers` threads (at least one).
  explicit ThreadPool(std::size_t workers) {
    const std::size_t count = workers == 0 ? 1 : workers;
    threads_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      threads_.emplace_back([this] { run(); });
    }
  }

  /// Drains nothing: queued tasks that never ran are dropped, running tasks
  /// are joined. Call wait_idle() first when completion matters.
  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not submit to the same pool recursively
  /// while the caller blocks in wait_idle() on a single-thread pool.
  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(task));
    }
    wake_.notify_one();
  }

  /// Blocks until the queue is empty and every worker is idle.
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  }

  [[nodiscard]] std::size_t size() const noexcept { return threads_.size(); }

  /// Uncapped worker count: `requested`, or the hardware concurrency when
  /// `requested` is 0; never zero. This is the call for sizing a pool that
  /// outlives any one batch (OrchestrationPool, process_pool()).
  [[nodiscard]] static std::size_t hardware_workers(std::size_t requested) {
    const std::size_t workers = requested != 0
                                    ? requested
                                    : std::thread::hardware_concurrency();
    return workers == 0 ? 1 : workers;
  }

  /// Worker count for one batch of `jobs` tasks: hardware_workers(requested)
  /// capped by `jobs` so small batches don't spawn idle threads, with a
  /// floor of one worker. `jobs == 0` therefore yields one worker; use
  /// hardware_workers() for a process-wide pool size.
  [[nodiscard]] static std::size_t clamp_workers(std::size_t requested,
                                                 std::size_t jobs) {
    return std::min(hardware_workers(requested),
                    std::max<std::size_t>(jobs, 1));
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      std::function<void()> task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
      lock.unlock();
      task();
      lock.lock();
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

}  // namespace unify::util
