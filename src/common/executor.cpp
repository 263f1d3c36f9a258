#include "common/executor.h"

#include "common/thread_name.h"

namespace mca {
namespace {

std::uint64_t micros_between(std::chrono::steady_clock::time_point from,
                             std::chrono::steady_clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from).count());
}

}  // namespace

Executor::Executor(Options options) : options_(std::move(options)) {
  if (options_.max_blocking == 0) options_.max_blocking = 1;
}

Executor::~Executor() { shutdown(); }

void Executor::enqueue_locked(std::function<void()> task) {
  queue_.push_back(Task{std::move(task), std::chrono::steady_clock::now()});
  high_water_ = std::max(high_water_, queue_.size());
  submitted_.fetch_add(1, std::memory_order_relaxed);
  // Queue-aware growth: spawn unless enough idle workers remain to cover
  // every pending task. `idle_` still counts a worker that was notified for
  // an earlier queued task but has not woken yet, so spawning on
  // `idle_ == 0` alone loses wakeups — two rapid submits can both see the
  // same lone idle worker, and the second task then strands in the queue
  // behind a worker that blocks inside the first (e.g. an RPC handler
  // waiting on a lock that only the stranded task would release).
  if (queue_.size() > idle_ && threads_.size() < options_.max_blocking) {
    std::string name = options_.name_prefix + "-b" + std::to_string(threads_.size());
    threads_.emplace_back([this, name = std::move(name)] { worker_loop(name); });
    threads_spawned_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Executor::submit_blocking(std::function<void()> task) {
  {
    const std::scoped_lock lock(mutex_);
    if (stopping_) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // At the cap with every worker busy the task queues; submit_blocking
    // callers (async spawns) tolerate the wait.
    enqueue_locked(std::move(task));
  }
  wake_.notify_one();
  return true;
}

bool Executor::try_submit_blocking(std::function<void()> task) {
  {
    const std::scoped_lock lock(mutex_);
    if (stopping_ || (threads_.size() >= options_.max_blocking && idle_ <= queue_.size())) {
      // No worker could pick this up without an existing one finishing
      // first — a caller that then blocks waiting on the task would risk
      // deadlock, so refuse and let it run the task inline. `idle_` must
      // strictly exceed the pending queue: up to queue-size idle workers
      // are already claimed by earlier tasks (notified, not yet woken).
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    enqueue_locked(std::move(task));
  }
  wake_.notify_one();
  return true;
}

void Executor::worker_loop(const std::string& name) {
  set_current_thread_name(name);
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      ++idle_;
      wake_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      --idle_;
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const auto start = std::chrono::steady_clock::now();
    task_wait_micros_.fetch_add(micros_between(task.enqueued, start),
                                std::memory_order_relaxed);
    task.fn();
    task_run_micros_.fetch_add(micros_between(start, std::chrono::steady_clock::now()),
                               std::memory_order_relaxed);
    executed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Executor::shutdown() {
  const std::scoped_lock guard(shutdown_mutex_);
  std::vector<std::thread> joiners;
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
    joiners = std::move(threads_);
    threads_.clear();
  }
  wake_.notify_all();
  for (std::thread& t : joiners) {
    if (t.joinable()) t.join();
  }
}

Executor::Stats Executor::stats() const {
  Stats s;
  {
    const std::scoped_lock lock(mutex_);
    s.blocking_threads = threads_.size();
    s.blocking_idle = idle_;
    s.blocking_queued = queue_.size();
    s.blocking_high_water = high_water_;
  }
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.threads_spawned = threads_spawned_.load(std::memory_order_relaxed);
  s.task_wait_micros = task_wait_micros_.load(std::memory_order_relaxed);
  s.task_run_micros = task_run_micros_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mca
