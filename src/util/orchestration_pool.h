// Shared, lazily started worker pool for CPU-bound orchestration work.
//
// PR 1 gave ResourceOrchestrator::map_batch a private ThreadPool per call:
// correct, but every batch paid thread spawn/join, and two batch clients
// (the RO and the batch-aware service layer above it) would each grow their
// own pool. OrchestrationPool fixes both: one pool, owned at process scope
// (process_pool()), started lazily on the first parallel batch and shared
// by every client. Because several clients may run batches concurrently,
// the pool joins per *batch*, not per queue: run_all() blocks until its own
// tasks finished, regardless of what other clients have in flight
// (ThreadPool::wait_idle would over-wait or never return under a steady
// concurrent load).
//
// The calling thread participates as a runner, so a batch always makes
// progress even when every pool worker is busy with someone else's batch —
// which also makes nested run_all() calls (service layer batch -> RO batch)
// deadlock-free.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "util/thread_pool.h"

namespace unify::util {

class OrchestrationPool {
 public:
  /// `workers` = 0 sizes the pool to the hardware concurrency
  /// (ThreadPool::hardware_workers, never capped by a job count). Threads are
  /// not spawned until the first run_all() that needs them.
  explicit OrchestrationPool(std::size_t workers = 0);

  OrchestrationPool(const OrchestrationPool&) = delete;
  OrchestrationPool& operator=(const OrchestrationPool&) = delete;

  /// The process-scoped shared instance injected (by default) into every
  /// ResourceOrchestrator and ServiceLayer. Constructed on first use,
  /// never destroyed before exit.
  [[nodiscard]] static OrchestrationPool& process_pool();

  /// Runs every task and blocks until all of them completed. Safe to call
  /// from several threads concurrently; each call waits only for its own
  /// tasks. `max_parallel` caps the number of tasks of THIS batch in
  /// flight at once (0 = pool size); 1 runs the batch inline on the
  /// calling thread without touching the pool. Returns the number of
  /// runners actually used (1 when run inline).
  std::size_t run_all(std::vector<std::function<void()>> tasks,
                      std::size_t max_parallel = 0);

  /// Configured worker count (threads may not be spawned yet).
  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }
  /// True once the lazy thread spawn happened.
  [[nodiscard]] bool started() const;

  // -- telemetry ----------------------------------------------------------
  /// Batches executed through run_all() (including inline ones).
  [[nodiscard]] std::uint64_t batches() const noexcept {
    return batches_.load(std::memory_order_relaxed);
  }
  /// Individual tasks executed.
  [[nodiscard]] std::uint64_t tasks_run() const noexcept {
    return tasks_.load(std::memory_order_relaxed);
  }
  /// OrchestrationPool instances ever constructed in this process. Tests
  /// assert this stays at 1 across arbitrarily many batches when everyone
  /// uses process_pool().
  [[nodiscard]] static std::uint64_t constructed() noexcept;

 private:
  /// Per-run_all join state, shared between the caller and its runners.
  /// The caller joins on `completed == tasks.size()`, never on runner
  /// exits: a queued runner lambda that was never scheduled (all pool
  /// threads busy, possibly with THIS caller's own nested batch) must not
  /// be able to block the join — it claims no tasks when it finally runs.
  struct Batch {
    std::vector<std::function<void()>> tasks;
    std::atomic<std::size_t> next{0};       ///< next unclaimed task index
    std::atomic<std::size_t> completed{0};  ///< tasks finished executing
    std::mutex done_mutex;
    std::condition_variable done;
  };

  void ensure_started();
  static void run_batch_tasks(Batch& batch);

  std::size_t workers_;
  mutable std::mutex start_mutex_;
  std::unique_ptr<ThreadPool> pool_;  ///< created lazily under start_mutex_
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> tasks_{0};
};

}  // namespace unify::util
