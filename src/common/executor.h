// Executor: the shared worker pool at the bottom of the runtime spine.
//
// The paper's control structures (serializing, glued, independent actions)
// assume actions can be spawned and terminated cheaply and concurrently.
// Buying every unit of concurrency with a fresh OS thread — one per async
// independent action, one per recovery pass — caps throughput at the
// thread creation rate. The Executor owns the threads once and the rest of
// the runtime submits tasks.
//
// Its tasks may block indefinitely — on locks, on network round trips, on
// joining other tasks (async independent actions, RPC handlers, recovery
// passes, make constituents). Workers are created on demand (only when no
// idle worker exists), linger for reuse, and are capped at `max_blocking`;
// at the cap `submit_blocking` queues and `try_submit_blocking` refuses so
// callers that could deadlock waiting (nested fan-outs) run inline instead.
//
// Workers are lazily started: constructing an Executor (every Runtime owns
// one) costs nothing until the first submission. Every counter the queue
// and workers touch is exposed via stats() so the pool doubles as the
// runtime's observability substrate: queue depth, high-water mark, task
// queue-wait and run latency, and — the invariant the benches enforce —
// total threads ever spawned, which must stay flat on the commit and
// async-spawn hot paths once the pool is warm.
//
// Shutdown (destructor or explicit) is deterministic: stop intake, drain
// the queue (queued tasks still run — an async independent action
// submitted before teardown completes, so its join() observes a real
// outcome), then join every worker. Idempotent.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mca {

class Executor {
 public:
  struct Options {
    // Thread cap (threads are created on demand and reused).
    std::size_t max_blocking = 256;
    // Thread-name prefix: workers are "<prefix>-bN".
    std::string name_prefix = "mca-exec";
  };

  struct Stats {
    std::size_t blocking_threads = 0;     // threads alive
    std::size_t blocking_idle = 0;        // threads waiting for work
    std::size_t blocking_queued = 0;      // queue depth now
    std::size_t blocking_high_water = 0;  // max queue depth ever seen
    std::uint64_t submitted = 0;          // accepted tasks
    std::uint64_t executed = 0;
    std::uint64_t rejected = 0;           // refused submit calls
    std::uint64_t threads_spawned = 0;    // total threads ever created
    std::uint64_t task_wait_micros = 0;   // total time tasks sat queued
    std::uint64_t task_run_micros = 0;    // total time tasks spent running
  };

  Executor() : Executor(Options{}) {}
  explicit Executor(Options options);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Queues at the thread cap. False only when shutting down.
  bool submit_blocking(std::function<void()> task);

  // Without queueing: false when every worker is busy and the cap is
  // reached (run inline to preserve liveness), or when shutting down.
  bool try_submit_blocking(std::function<void()> task);

  // Stops intake, drains the queue, joins all workers. Idempotent; called
  // by the destructor.
  void shutdown();

  [[nodiscard]] Stats stats() const;

 private:
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop(const std::string& name);
  // Queues `task` and, unless enough idle workers remain for every queued
  // task, spawns one below the cap. Caller holds mutex_.
  void enqueue_locked(std::function<void()> task);

  Options options_;
  std::mutex shutdown_mutex_;  // serialises concurrent shutdown() calls
  mutable std::mutex mutex_;   // guards queue_ through stopping_, and threads_
  std::condition_variable wake_;
  std::deque<Task> queue_;
  std::size_t idle_ = 0;
  std::size_t high_water_ = 0;
  bool stopping_ = false;

  // Aggregate counters (lock-free so workers never contend on stats).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> threads_spawned_{0};
  std::atomic<std::uint64_t> task_wait_micros_{0};
  std::atomic<std::uint64_t> task_run_micros_{0};

  // Declared last: the workers use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace mca
