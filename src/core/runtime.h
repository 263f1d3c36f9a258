// Runtime: the per-node bundle of services the action kernel needs.
//
// One Runtime corresponds to one node of the paper's system model: a lock
// manager, an ancestry registry (so a server can reason about remote
// callers' action hierarchies), the node's one object store (§2: stable or
// volatile), which holds every persistent object of this runtime and the
// commit protocol's records, and the runtime spine — an Executor (the
// node's worker pool: async independent actions, recovery passes, make
// fan-out) plus a TimerService (the node's one timer thread: RPC
// retransmission, periodic recovery ticks). The distributed layer gives
// each simulated node its own Runtime; single-process programs just make
// one. Both spine services start their threads lazily, so a Runtime that
// never goes parallel costs no threads.
//
// Shutdown order (the destructor, via reverse member order) is the one
// documented sequence every subsystem relies on:
//   1. timers_ stops first — no callback can submit new work;
//   2. executor_ drains its queue and joins — queued tasks still run and
//      may use the lock manager / store below;
//   3. store, lock manager, trace, ancestry go last.
#pragma once

#include <atomic>
#include <memory>

#include "common/event_trace.h"
#include "common/executor.h"
#include "common/timer_service.h"
#include "lock/lock_manager.h"
#include "storage/memory_store.h"

namespace mca {

// Aggregate action statistics for one runtime (node): populated by the
// action kernel, read by benchmarks, health checks and tests.
struct ActionStats {
  std::uint64_t begun = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t prepare_failures = 0;  // commits turned into aborts

  [[nodiscard]] std::uint64_t active() const { return begun - committed - aborted; }
};

class Runtime {
 public:
  // Uses an internal stable MemoryStore as the default object store.
  Runtime();

  // Uses `store` (not owned) as the default object store.
  explicit Runtime(ObjectStore& store);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] LockManager& lock_manager() { return lock_manager_; }
  [[nodiscard]] PathAncestry& ancestry() { return ancestry_; }
  [[nodiscard]] ObjectStore& default_store() { return *store_; }

  // The runtime spine: shared worker pool and timer thread (see header
  // comment for the shutdown contract).
  [[nodiscard]] Executor& executor() { return executor_; }
  [[nodiscard]] TimerService& timers() { return timers_; }

  // Event tracing (disabled by default; see common/event_trace.h).
  [[nodiscard]] EventTrace& trace() { return trace_; }

  [[nodiscard]] ActionStats action_stats() const {
    return ActionStats{begun_.load(), committed_.load(), aborted_.load(),
                       prepare_failures_.load()};
  }

  // Kernel hooks (called by AtomicAction).
  void note_begun() { begun_.fetch_add(1, std::memory_order_relaxed); }
  void note_committed() { committed_.fetch_add(1, std::memory_order_relaxed); }
  void note_aborted() { aborted_.fetch_add(1, std::memory_order_relaxed); }
  void note_prepare_failure() { prepare_failures_.fetch_add(1, std::memory_order_relaxed); }

 private:
  PathAncestry ancestry_;
  EventTrace trace_;
  LockManager lock_manager_;
  std::unique_ptr<MemoryStore> owned_store_;
  ObjectStore* store_;
  // Spine members are declared last ON PURPOSE: destruction runs timers_
  // then executor_ before anything they might reference dies.
  Executor executor_;
  TimerService timers_;
  std::atomic<std::uint64_t> begun_{0};
  std::atomic<std::uint64_t> committed_{0};
  std::atomic<std::uint64_t> aborted_{0};
  std::atomic<std::uint64_t> prepare_failures_{0};
};

inline Runtime::Runtime()
    : lock_manager_(ancestry_),
      owned_store_(std::make_unique<MemoryStore>(StorageClass::Stable)),
      store_(owned_store_.get()) {
  lock_manager_.set_trace(&trace_);
}

inline Runtime::Runtime(ObjectStore& store) : lock_manager_(ancestry_), store_(&store) {
  lock_manager_.set_trace(&trace_);
}

}  // namespace mca
