// Executor: the shared worker pool at the bottom of the runtime spine.
//
// The paper's control structures (serializing, glued, independent actions)
// assume actions can be spawned and terminated cheaply and concurrently.
// Buying every unit of concurrency with a fresh OS thread — one per shadow
// batch, one per async independent action — caps throughput at the thread
// creation rate. The Executor owns the threads once and the rest of the
// runtime submits tasks:
//
//   * The *normal lane* is a fixed-size pool over a bounded queue for tasks
//     that run to completion without blocking on other tasks (shadow-batch
//     store writes, fan-out helpers). `try_submit` refuses (returns false)
//     when the queue is full or the executor is shutting down — callers run
//     the task inline, which makes the caller's own thread the overload
//     fallback and pool exhaustion degrade gracefully instead of
//     deadlocking.
//
//   * The *blocking lane* is for tasks that may block indefinitely — on
//     locks, on network round trips, on joining other tasks (async
//     independent actions, recovery passes, make constituents). Workers are
//     created on demand (only when no idle blocking worker exists), linger
//     for reuse, and are capped at `max_blocking`; at the cap
//     `submit_blocking` queues and `try_submit_blocking` refuses so callers
//     that could deadlock waiting (nested fan-outs) run inline instead.
//
// Workers are lazily started: constructing an Executor (every Runtime owns
// one) costs nothing until the first submission. Every counter the queues
// and workers touch is exposed via stats() so the pool doubles as the
// runtime's observability substrate: queue depth, high-water mark, task
// queue-wait and run latency, and — the invariant the benches enforce —
// total threads ever spawned, which must stay flat on the commit and
// async-spawn hot paths once the pool is warm.
//
// Shutdown (destructor or explicit) is deterministic: stop intake, drain
// both queues (queued tasks still run — an async independent action
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
    // Normal-lane pool size.
    std::size_t workers = 4;
    // Normal-lane queue bound; try_submit fails past it.
    std::size_t max_queue = 4096;
    // Blocking-lane thread cap (threads are created on demand and reused).
    std::size_t max_blocking = 256;
    // Thread-name prefix: workers are "<prefix>-N", blocking "<prefix>-bN".
    std::string name_prefix = "mca-exec";
  };

  struct Stats {
    std::size_t workers = 0;           // normal-lane threads alive
    std::size_t blocking_threads = 0;  // blocking-lane threads alive
    std::size_t idle = 0;              // normal-lane threads waiting for work
    std::size_t blocking_idle = 0;
    std::size_t queued = 0;            // normal queue depth now
    std::size_t blocking_queued = 0;
    std::size_t queue_high_water = 0;  // max normal queue depth ever seen
    std::size_t blocking_high_water = 0;
    std::uint64_t submitted = 0;  // accepted tasks, both lanes
    std::uint64_t executed = 0;
    std::uint64_t rejected = 0;            // refused try_submit*/submit calls
    std::uint64_t threads_spawned = 0;     // total threads ever created
    std::uint64_t task_wait_micros = 0;    // total time tasks sat queued
    std::uint64_t task_run_micros = 0;     // total time tasks spent running
  };

  Executor() : Executor(Options{}) {}
  explicit Executor(Options options);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Normal lane. False when the queue is at max_queue or the executor is
  // shutting down; the caller should run the task inline.
  bool try_submit(std::function<void()> task);

  // Blocking lane, queueing at the thread cap. False only when shutting
  // down.
  bool submit_blocking(std::function<void()> task);

  // Blocking lane without queueing: false when every blocking worker is
  // busy and the cap is reached (run inline to preserve liveness), or when
  // shutting down.
  bool try_submit_blocking(std::function<void()> task);

  // Stops intake, drains both queues, joins all workers. Idempotent; called
  // by the destructor.
  void shutdown();

  [[nodiscard]] Stats stats() const;

 private:
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  // One lane: a queue + the workers serving it.
  struct Lane {
    mutable std::mutex mutex;
    std::condition_variable wake;
    std::deque<Task> queue;
    std::vector<std::thread> threads;
    std::size_t idle = 0;
    std::size_t high_water = 0;
    bool stopping = false;
  };

  void worker_loop(Lane& lane, const std::string& name);
  bool enqueue(Lane& lane, std::function<void()> task);
  void spawn_locked(Lane& lane, bool blocking);
  void shutdown_lane(Lane& lane);

  Options options_;
  std::mutex shutdown_mutex_;  // serialises concurrent shutdown() calls
  Lane normal_;
  Lane blocking_;

  // Aggregate counters (lock-free so workers never contend on stats).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> threads_spawned_{0};
  std::atomic<std::uint64_t> task_wait_micros_{0};
  std::atomic<std::uint64_t> task_run_micros_{0};
};

}  // namespace mca
