#include "util/orchestration_pool.h"

namespace unify::util {

namespace {
std::atomic<std::uint64_t> g_constructed{0};
}  // namespace

OrchestrationPool::OrchestrationPool(std::size_t workers)
    : workers_(ThreadPool::hardware_workers(workers)) {
  g_constructed.fetch_add(1, std::memory_order_relaxed);
}

OrchestrationPool& OrchestrationPool::process_pool() {
  static OrchestrationPool pool;
  return pool;
}

std::uint64_t OrchestrationPool::constructed() noexcept {
  return g_constructed.load(std::memory_order_relaxed);
}

bool OrchestrationPool::started() const {
  std::lock_guard<std::mutex> lock(start_mutex_);
  return pool_ != nullptr;
}

void OrchestrationPool::ensure_started() {
  std::lock_guard<std::mutex> lock(start_mutex_);
  if (pool_ == nullptr) {
    // The calling thread of every batch acts as one runner, so the pool
    // itself only ever needs workers_ - 1 threads to reach full width.
    pool_ = std::make_unique<ThreadPool>(workers_ > 1 ? workers_ - 1 : 1);
  }
}

void OrchestrationPool::run_batch_tasks(Batch& batch) {
  const std::size_t n = batch.tasks.size();
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    batch.tasks[i]();
    if (batch.completed.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      // Lock before notifying: the caller checks the predicate under
      // done_mutex, so this cannot race past its wait registration.
      std::lock_guard<std::mutex> lock(batch.done_mutex);
      batch.done.notify_all();
    }
  }
}

std::size_t OrchestrationPool::run_all(std::vector<std::function<void()>> tasks,
                                       std::size_t max_parallel) {
  const std::size_t n = tasks.size();
  if (n == 0) return 0;
  batches_.fetch_add(1, std::memory_order_relaxed);
  tasks_.fetch_add(n, std::memory_order_relaxed);

  std::size_t runners = workers_;
  if (max_parallel != 0 && max_parallel < runners) runners = max_parallel;
  if (runners > n) runners = n;
  if (runners <= 1) {
    for (auto& task : tasks) task();
    return 1;
  }

  ensure_started();
  auto batch = std::make_shared<Batch>();
  batch->tasks = std::move(tasks);
  // Extra runners are best-effort helpers: each drains unclaimed tasks
  // when (if ever) a pool thread picks it up. The shared_ptr keeps the
  // batch alive for helpers that fire after the caller already returned;
  // they find every task claimed and exit without touching the join.
  for (std::size_t r = 0; r + 1 < runners; ++r) {
    pool_->submit([batch] { run_batch_tasks(*batch); });
  }
  run_batch_tasks(*batch);  // the caller is a runner too
  std::unique_lock<std::mutex> lock(batch->done_mutex);
  batch->done.wait(lock, [&] {
    return batch->completed.load(std::memory_order_acquire) == n;
  });
  return runners;
}

}  // namespace unify::util
