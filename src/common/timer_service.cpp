#include "common/timer_service.h"

#include "common/thread_name.h"

namespace mca {

TimerService::TimerService(std::string thread_name) : thread_name_(std::move(thread_name)) {}

TimerService::~TimerService() { shutdown(); }

void TimerService::ensure_thread_locked() {
  if (!thread_.joinable()) {
    thread_ = std::thread([this] { timer_loop(); });
  }
}

TimerService::TimerId TimerService::schedule(Clock::time_point due, std::function<void()> fn,
                                             const void* owner,
                                             std::chrono::milliseconds period) {
  TimerId id = kInvalid;
  bool earliest = false;
  {
    const std::scoped_lock lock(mutex_);
    if (stopping_ || (owner != nullptr && cancelling_owners_.contains(owner))) {
      return kInvalid;
    }
    id = next_id_++;
    Entry entry;
    entry.fn = std::move(fn);
    entry.owner = owner;
    entry.period = period;
    entry.due = due;
    heap_.push(HeapItem{due, id, entry.generation});
    entries_.emplace(id, std::move(entry));
    ++scheduled_;
    ensure_thread_locked();
    earliest = heap_.top().id == id;
  }
  // The timer thread sleeps until the heap's top; a later entry does not
  // move that wake-up, so only a new top is worth waking it for.
  if (earliest) wake_.notify_all();
  return id;
}

TimerService::TimerId TimerService::schedule_at(Clock::time_point due,
                                                std::function<void()> fn, const void* owner) {
  return schedule(due, std::move(fn), owner, std::chrono::milliseconds(0));
}

TimerService::TimerId TimerService::schedule_after(std::chrono::milliseconds delay,
                                                   std::function<void()> fn,
                                                   const void* owner) {
  return schedule_at(Clock::now() + delay, std::move(fn), owner);
}

TimerService::TimerId TimerService::schedule_every(std::chrono::milliseconds period,
                                                   std::function<void()> fn,
                                                   const void* owner) {
  return schedule(Clock::now() + period, std::move(fn), owner, period);
}

bool TimerService::cancel(TimerId id) {
  if (id == kInvalid) return false;
  const std::scoped_lock lock(mutex_);
  // Stale heap items are dropped lazily when popped.
  if (entries_.erase(id) == 0) return false;
  ++cancelled_;
  return true;
}

bool TimerService::reschedule(TimerId id, std::chrono::milliseconds delay) {
  if (id == kInvalid) return false;
  {
    const std::scoped_lock lock(mutex_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return false;
    Entry& e = it->second;
    ++e.generation;  // supersede the entry's pending heap item
    e.due = Clock::now() + delay;
    heap_.push(HeapItem{e.due, id, e.generation});
  }
  wake_.notify_all();
  return true;
}

bool TimerService::fire_now(TimerId id) { return reschedule(id, std::chrono::milliseconds(0)); }

void TimerService::cancel_owner(const void* owner) {
  if (owner == nullptr) return;
  std::unique_lock lock(mutex_);
  cancelling_owners_.insert(owner);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.owner == owner) {
      it = entries_.erase(it);
      ++cancelled_;
    } else {
      ++it;
    }
  }
  // Quiesce: an in-flight callback of this owner may be running (and may
  // try to re-schedule, which the cancelling set refuses); wait it out so
  // the caller can destroy the owner's state.
  quiesced_.wait(lock, [&] { return firing_owner_ != owner; });
  cancelling_owners_.erase(owner);
}

void TimerService::timer_loop() {
  set_current_thread_name(thread_name_);
  std::unique_lock lock(mutex_);
  while (!stopping_) {
    if (heap_.empty()) {
      wake_.wait(lock);
      continue;
    }
    const HeapItem top = heap_.top();
    auto it = entries_.find(top.id);
    if (it == entries_.end() || it->second.generation != top.generation) {
      heap_.pop();  // cancelled or superseded by a reschedule
      continue;
    }
    const auto now = Clock::now();
    if (now < top.due) {
      wake_.wait_until(lock, top.due);
      continue;
    }
    heap_.pop();
    Entry& entry = it->second;
    auto fn = entry.fn;  // copy: a periodic entry keeps its callable
    const void* owner = entry.owner;
    const std::uint64_t fired_generation = entry.generation;
    const bool periodic = entry.period.count() > 0;
    const std::chrono::milliseconds period = entry.period;
    ++fired_;
    const auto slop = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - top.due).count());
    slop_total_micros_ += slop;
    slop_max_micros_ = std::max(slop_max_micros_, slop);
    if (!periodic) entries_.erase(it);
    firing_owner_ = owner;
    lock.unlock();
    fn();
    lock.lock();
    firing_owner_ = nullptr;
    quiesced_.notify_all();
    if (periodic) {
      // Re-arm `period` after the run completed — unless the run (or a
      // racing cancel/reschedule) touched the entry, in which case its own
      // schedule stands.
      auto again = entries_.find(top.id);
      if (again != entries_.end() && again->second.generation == fired_generation) {
        Entry& e = again->second;
        ++e.generation;
        e.due = Clock::now() + period;
        heap_.push(HeapItem{e.due, top.id, e.generation});
      }
    }
  }
}

void TimerService::shutdown() {
  std::thread joiner;
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
    joiner = std::move(thread_);
  }
  wake_.notify_all();
  if (joiner.joinable()) joiner.join();
  const std::scoped_lock lock(mutex_);
  entries_.clear();
  while (!heap_.empty()) heap_.pop();
}

TimerService::Stats TimerService::stats() const {
  const std::scoped_lock lock(mutex_);
  Stats s;
  s.pending = entries_.size();
  s.scheduled = scheduled_;
  s.fired = fired_;
  s.cancelled = cancelled_;
  s.fire_slop_micros_total = slop_total_micros_;
  s.fire_slop_micros_max = slop_max_micros_;
  return s;
}

}  // namespace mca
