// TimerService: one min-heap timer thread shared by every periodic or
// deferred job of a runtime.
//
// Before this existed, RPC retransmission, the in-doubt recovery daemon,
// the sim network and the fault injector each owned a private timer/daemon
// thread with its own mutex + condvar + "constructed last, joined first"
// convention. The TimerService replaces the per-subsystem timer threads
// with one thread draining a min-heap of entries:
//
//   schedule_at / schedule_after   one-shot
//   schedule_every                 periodic (fixed delay, re-armed after
//                                  each run completes)
//   cancel(id)                     the entry will not fire again
//   reschedule(id, delay)          move the next fire (also re-arms a
//                                  one-shot that has not fired yet)
//   fire_now(id)                   pull the next fire forward to now
//
// Entries are identified by a monotonically increasing TimerId; cancelled
// or moved entries are dropped lazily from the heap via a per-entry
// generation counter, so every mutation is O(log n) push work with no heap
// surgery.
//
// Owner groups: schedule with an `owner` tag and `cancel_owner(tag)`
// removes every pending entry of that owner AND quiesces — it blocks until
// an in-flight callback of that owner returns, and refuses re-schedules
// under that tag for the duration. That gives subsystem destructors (an
// RpcEndpoint, a DistNode) a one-call "my callbacks will never run again"
// barrier against the shared thread.
//
// Callbacks run on the timer thread and must be short and non-blocking —
// hand real work to an Executor. The thread is lazily started on the first
// schedule and named "mca-timer". stats() exposes the pending count and
// fire slop (lateness between an entry's due time and its actual fire) so
// a clogged timer thread is observable.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace mca {

class TimerService {
 public:
  using TimerId = std::uint64_t;
  using Clock = std::chrono::steady_clock;

  // 0 is never a live id; schedule calls return it when refused (shutdown
  // or owner being cancelled), and cancel/reschedule/fire_now ignore it.
  static constexpr TimerId kInvalid = 0;

  struct Stats {
    std::size_t pending = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t fire_slop_micros_total = 0;
    std::uint64_t fire_slop_micros_max = 0;
  };

  explicit TimerService(std::string thread_name = "mca-timer");
  ~TimerService();

  TimerService(const TimerService&) = delete;
  TimerService& operator=(const TimerService&) = delete;

  TimerId schedule_at(Clock::time_point due, std::function<void()> fn,
                      const void* owner = nullptr);
  TimerId schedule_after(std::chrono::milliseconds delay, std::function<void()> fn,
                         const void* owner = nullptr);
  // First fire after `period`, then re-armed `period` after each run.
  TimerId schedule_every(std::chrono::milliseconds period, std::function<void()> fn,
                         const void* owner = nullptr);

  // True when the entry existed and will not fire again. A callback
  // currently executing is not interrupted (cancel from within a callback
  // is fine and stops a periodic entry's future fires).
  bool cancel(TimerId id);

  // Moves the entry's next fire to now + delay; true when the entry exists.
  bool reschedule(TimerId id, std::chrono::milliseconds delay);

  // Pulls the entry's next fire forward to now.
  bool fire_now(TimerId id);

  // Removes every pending entry scheduled with `owner`, blocks until any
  // in-flight callback of that owner returns, and rejects schedules under
  // `owner` until it returns. The destructor barrier for subsystems that
  // share this service. Must not be called from a timer callback.
  void cancel_owner(const void* owner);

  // Stops the timer thread; pending entries are dropped, not run.
  void shutdown();

  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::function<void()> fn;
    const void* owner = nullptr;
    std::chrono::milliseconds period{0};  // 0 = one-shot
    std::uint64_t generation = 0;
    Clock::time_point due{};
  };

  struct HeapItem {
    Clock::time_point due;
    TimerId id = 0;
    std::uint64_t generation = 0;
    bool operator>(const HeapItem& other) const { return due > other.due; }
  };

  TimerId schedule(Clock::time_point due, std::function<void()> fn, const void* owner,
                   std::chrono::milliseconds period);
  void ensure_thread_locked();
  void timer_loop();

  std::string thread_name_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable quiesced_;  // signalled when a callback finishes
  std::unordered_map<TimerId, Entry> entries_;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap_;
  std::unordered_set<const void*> cancelling_owners_;
  const void* firing_owner_ = nullptr;  // owner of the callback running now
  TimerId next_id_ = 1;
  bool stopping_ = false;
  std::thread thread_;

  std::uint64_t scheduled_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t slop_total_micros_ = 0;
  std::uint64_t slop_max_micros_ = 0;
};

}  // namespace mca
