// Runtime spine tests: the shared Executor and TimerService, and the
// subsystems refactored onto them. Labelled `tsan` — most of these tests
// exist to race submission against shutdown, cancellation against firing,
// and teardown against join, which is exactly what the sanitizer watches.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <chrono>
#include <filesystem>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "common/timer_service.h"
#include "core/structures/independent_action.h"
#include "objects/recoverable_int.h"
#include "sim/crash_points.h"
#include "storage/wal_store.h"

namespace mca {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

TEST(Executor, RunsSubmittedTasks) {
  Executor ex;
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ex.submit_blocking([&] { ran.fetch_add(1); }));
  }
  ex.shutdown();
  EXPECT_EQ(ran.load(), 100);
  const auto stats = ex.stats();
  EXPECT_EQ(stats.submitted, 100u);
  EXPECT_EQ(stats.executed, 100u);
}

TEST(Executor, LazyConstructionSpawnsNoThreads) {
  Executor ex;
  EXPECT_EQ(ex.stats().threads_spawned, 0u);
}

TEST(Executor, BlockingLaneReusesIdleThreads) {
  Executor ex;
  // Strictly sequential blocking tasks: the lane must reuse its first
  // thread, not grow one per task — the no-spawn-on-hot-path invariant.
  for (int i = 0; i < 50; ++i) {
    std::atomic<bool> done{false};
    ASSERT_TRUE(ex.submit_blocking([&] { done.store(true); }));
    // Wait for the worker to park again, not just for the task: `done` is
    // set inside the task, before the worker rejoins the idle set, and a
    // submit in between finds no idle worker and spawns one. (The idle
    // count alone is not enough either: it still reads 1 before the worker
    // has taken the task just submitted.)
    while (!done.load() || ex.stats().blocking_idle != 1) std::this_thread::sleep_for(100us);
  }
  EXPECT_EQ(ex.stats().threads_spawned, 1u);
}

// The shape RpcEndpoint runs its request handlers on: a small cap. Work
// past the cap queues and shutdown drains it.
TEST(Executor, CappedBlockingLaneRunsSubmittedWork) {
  Executor::Options o;
  o.max_blocking = 4;
  Executor ex(o);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ex.submit_blocking([&] { ran.fetch_add(1); }));
  }
  ex.shutdown();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_LE(ex.stats().threads_spawned, 4u);
  EXPECT_FALSE(ex.submit_blocking([] {}));
}

// The same shape refuses work once shut down, even with no task ever run.
TEST(Executor, CappedBlockingLaneRefusesAfterShutdown) {
  Executor::Options o;
  o.max_blocking = 1;
  Executor ex(o);
  ex.shutdown();
  EXPECT_FALSE(ex.submit_blocking([] {}));
  EXPECT_EQ(ex.stats().rejected, 1u);
  EXPECT_EQ(ex.stats().threads_spawned, 0u);
}

TEST(Executor, TrySubmitBlockingRefusesAtCapWithNoIdleWorker) {
  Executor::Options o;
  o.max_blocking = 1;
  Executor ex(o);
  std::atomic<bool> release{false};
  std::atomic<bool> started{false};
  ASSERT_TRUE(ex.submit_blocking([&] {
    started.store(true);
    while (!release.load()) std::this_thread::sleep_for(1ms);
  }));
  while (!started.load()) std::this_thread::sleep_for(1ms);
  // The one blocking worker is busy and the cap is reached: a caller that
  // would wait on this task could deadlock, so the lane must refuse.
  EXPECT_FALSE(ex.try_submit_blocking([] {}));
  release.store(true);
  ex.shutdown();
}

TEST(Executor, SubmitVsShutdownRace) {
  // Hammer submit_blocking from several threads while the main thread
  // shuts the executor down. Every accepted task must run; refusals must be
  // clean. The cap keeps each round's pool small.
  Executor::Options o;
  o.max_blocking = 4;
  for (int round = 0; round < 20; ++round) {
    Executor ex(o);
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> ran{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&] {
        while (!stop.load()) {
          if (ex.submit_blocking([&] { ran.fetch_add(1); })) accepted.fetch_add(1);
        }
      });
    }
    std::this_thread::sleep_for(1ms);
    ex.shutdown();  // must drain: accepted == ran afterwards
    stop.store(true);
    for (auto& t : submitters) t.join();
    EXPECT_EQ(accepted.load(), ran.load()) << "round " << round;
  }
}

TEST(Executor, ShutdownIsIdempotentAndConcurrent) {
  Executor ex;
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) (void)ex.submit_blocking([&] { ran.fetch_add(1); });
  std::vector<std::thread> closers;
  for (int t = 0; t < 4; ++t) closers.emplace_back([&] { ex.shutdown(); });
  for (auto& t : closers) t.join();
  ex.shutdown();
  EXPECT_EQ(ran.load(), 32);
  EXPECT_FALSE(ex.submit_blocking([] {}));  // stopped
  EXPECT_FALSE(ex.try_submit_blocking([] {}));
}

TEST(Executor, StatsTrackLatencyAndHighWater) {
  Executor::Options o;
  o.max_blocking = 1;
  Executor ex(o);
  std::atomic<bool> release{false};
  ASSERT_TRUE(ex.submit_blocking([&] {
    while (!release.load()) std::this_thread::sleep_for(1ms);
  }));
  ASSERT_TRUE(ex.submit_blocking([] { std::this_thread::sleep_for(2ms); }));
  release.store(true);
  ex.shutdown();
  const auto stats = ex.stats();
  EXPECT_GE(stats.blocking_high_water, 1u);
  EXPECT_GT(stats.task_run_micros, 0u);
}

// ---------------------------------------------------------------------------
// TimerService
// ---------------------------------------------------------------------------

TEST(TimerService, OneShotFires) {
  TimerService timers;
  std::atomic<bool> fired{false};
  ASSERT_NE(timers.schedule_after(1ms, [&] { fired.store(true); }), TimerService::kInvalid);
  for (int i = 0; i < 2000 && !fired.load(); ++i) std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(fired.load());
  EXPECT_EQ(timers.stats().fired, 1u);
}

TEST(TimerService, CancelPreventsFire) {
  TimerService timers;
  std::atomic<bool> fired{false};
  const auto id = timers.schedule_after(50ms, [&] { fired.store(true); });
  EXPECT_TRUE(timers.cancel(id));
  EXPECT_FALSE(timers.cancel(id));  // already gone
  std::this_thread::sleep_for(80ms);
  EXPECT_FALSE(fired.load());
}

TEST(TimerService, CancelRacingFireIsClean) {
  // Schedule at ~now and cancel immediately from another thread, many
  // times over. Either side may win; the loser must lose cleanly (no
  // double fire, no crash, no fire-after-successful-cancel).
  TimerService timers;
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> fires{0};
    const auto id = timers.schedule_after(0ms, [&] { fires.fetch_add(1); });
    std::thread canceller([&] { (void)timers.cancel(id); });
    canceller.join();
    // Quiesce: wait until the service has nothing pending.
    while (timers.stats().pending > 0) std::this_thread::sleep_for(100us);
    std::this_thread::sleep_for(200us);
    EXPECT_LE(fires.load(), 1) << "round " << round;
  }
}

TEST(TimerService, PeriodicFiresRepeatedlyAndStopsOnCancel) {
  TimerService timers;
  std::atomic<int> fires{0};
  const auto id = timers.schedule_every(1ms, [&] { fires.fetch_add(1); });
  for (int i = 0; i < 5000 && fires.load() < 5; ++i) std::this_thread::sleep_for(1ms);
  EXPECT_GE(fires.load(), 5);
  EXPECT_TRUE(timers.cancel(id));
  const int at_cancel = fires.load();
  std::this_thread::sleep_for(20ms);
  EXPECT_LE(fires.load(), at_cancel + 1);  // at most one in-flight callback
}

TEST(TimerService, PeriodicSurvivesRescheduleStorm) {
  // A periodic entry keeps firing while other threads yank its schedule
  // around with reschedule()/fire_now() — the pattern kick_recovery() and
  // set_recovery_options() inflict on the recovery daemon's entry.
  TimerService timers;
  std::atomic<int> fires{0};
  const auto id = timers.schedule_every(2ms, [&] { fires.fetch_add(1); });
  std::atomic<bool> stop{false};
  std::vector<std::thread> stormers;
  for (int t = 0; t < 3; ++t) {
    stormers.emplace_back([&] {
      while (!stop.load()) {
        (void)timers.fire_now(id);
        (void)timers.reschedule(id, 1ms);
        std::this_thread::sleep_for(500us);
      }
    });
  }
  for (int i = 0; i < 5000 && fires.load() < 20; ++i) std::this_thread::sleep_for(1ms);
  stop.store(true);
  for (auto& t : stormers) t.join();
  EXPECT_GE(fires.load(), 20);
  // Still periodic after the storm: it must fire again on its own.
  const int now = fires.load();
  for (int i = 0; i < 5000 && fires.load() == now; ++i) std::this_thread::sleep_for(1ms);
  EXPECT_GT(fires.load(), now);
  EXPECT_TRUE(timers.cancel(id));
}

TEST(TimerService, CancelOwnerQuiescesInFlightCallback) {
  TimerService timers;
  const int owner_tag = 0;
  std::atomic<bool> in_callback{false};
  std::atomic<bool> callback_done{false};
  std::atomic<int> fires_after_cancel{0};
  (void)timers.schedule_after(
      1ms,
      [&] {
        in_callback.store(true);
        std::this_thread::sleep_for(10ms);
        callback_done.store(true);
      },
      &owner_tag);
  while (!in_callback.load()) std::this_thread::sleep_for(100us);
  // cancel_owner must block until the sleeping callback returns and must
  // refuse re-schedules under the same tag while cancelling.
  timers.cancel_owner(&owner_tag);
  EXPECT_TRUE(callback_done.load());
  (void)timers.schedule_after(1ms, [&] { fires_after_cancel.fetch_add(1); }, &owner_tag);
  // (Scheduling after cancel_owner returned is allowed again — the ban is
  // only for the duration of the call. This entry may fire; what must never
  // happen is a fire of an entry cancel_owner removed.)
  std::this_thread::sleep_for(5ms);
  timers.shutdown();
}

TEST(TimerService, ShutdownDropsPendingEntries) {
  TimerService timers;
  std::atomic<bool> fired{false};
  (void)timers.schedule_after(50ms, [&] { fired.store(true); });
  timers.shutdown();
  std::this_thread::sleep_for(60ms);
  EXPECT_FALSE(fired.load());
  EXPECT_EQ(timers.schedule_after(1ms, [] {}), TimerService::kInvalid);
}

// ---------------------------------------------------------------------------
// The spine under the action kernel
// ---------------------------------------------------------------------------

TEST(RuntimeSpine, AsyncIndependentActionsRideTheExecutor) {
  Runtime rt;
  RecoverableInt counter(rt, 0);
  // Prewarm the blocking lane past the bursts' worst-case concurrency by
  // parking more tasks than a burst submits; with idle workers guaranteed,
  // the spawn hot path must create zero threads — deterministically, not
  // just usually.
  {
    constexpr int kPark = 20;
    // The tasks share ownership of the latches: a released worker may
    // still be inside release->wait() when this scope ends.
    auto parked = std::make_shared<std::latch>(kPark);
    auto release = std::make_shared<std::latch>(1);
    for (int i = 0; i < kPark; ++i) {
      ASSERT_TRUE(rt.executor().submit_blocking([parked, release] {
        parked->count_down();
        release->wait();
      }));
    }
    parked->wait();
    release->count_down();
    // The released workers must be back on the idle list before the burst
    // starts, or the first spawn can legitimately grow the lane.
    while (rt.executor().stats().blocking_idle < kPark) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const auto warm = rt.executor().stats().threads_spawned;
  EXPECT_GE(warm, 20u);
  std::vector<IndependentAction::Async> handles;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 16; ++i) {
      handles.push_back(IndependentAction::spawn(rt, [&] { counter.add(1); }));
    }
    for (auto& h : handles) EXPECT_EQ(h.join(), Outcome::Committed);
    handles.clear();
    // Let the round's workers reach the idle list again before asserting
    // (and before the next round submits — a worker between finishing its
    // task and re-idling doesn't count as available).
    while (rt.executor().stats().blocking_idle < 20u) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(rt.executor().stats().threads_spawned, warm) << "round " << round;
  }
  EXPECT_GT(rt.executor().stats().submitted, 0u);

  AtomicAction reader(rt);
  reader.begin();
  EXPECT_EQ(counter.value(), 32);
  EXPECT_EQ(reader.commit(), Outcome::Committed);
}

TEST(RuntimeSpine, AsyncJoinAfterRuntimeTeardownSeesRealOutcome) {
  // The executor drains at Runtime destruction, so a handle that outlives
  // the Runtime still observes the action's true outcome.
  std::atomic<bool> body_ran{false};
  std::vector<IndependentAction::Async> handles;
  // The counter must outlive ~Runtime: the executor drains inside it, and a
  // still-running body may touch the counter right up to that drain.
  std::optional<RecoverableInt> counter;
  {
    Runtime rt;
    counter.emplace(rt, 0);
    for (int i = 0; i < 4; ++i) {
      handles.push_back(IndependentAction::spawn(rt, [&] {
        counter->add(1);
        body_ran.store(true);
      }));
    }
  }  // ~Runtime: timers stop, executor drains, stores die last
  EXPECT_TRUE(body_ran.load());
  for (auto& h : handles) EXPECT_EQ(h.join(), Outcome::Committed);
}

TEST(RuntimeSpine, ParallelPrepareKillTunnelsOutOfCommit) {
  // A two-object prepare on a WalStore: an armed store-level crash point
  // must surface as CrashPointHit out of commit() on the calling thread —
  // tunnelling through the WAL's committer and every catch(std::exception)
  // on the way — exactly as the crash-sweep checker relies on.
  const auto dir = std::filesystem::temp_directory_path() / ("mca_exec_kill_" + Uid().to_string());
  {
    WalStore store(dir);
    Runtime rt(store);
    RecoverableInt in_a(rt, 0);
    RecoverableInt in_b(rt, 0);

    crash_points::reset();
    crash_points::arm("store.wal.append.mid_record");
    AtomicAction action(rt);
    action.begin();
    in_a.set(7);
    in_b.set(9);
    bool tunnelled = false;
    try {
      (void)action.commit();
    } catch (const CrashPointHit& hit) {
      tunnelled = true;
      EXPECT_EQ(hit.point(), "store.wal.append.mid_record");
    } catch (...) {
      FAIL() << "kill surfaced as something other than CrashPointHit";
    }
    EXPECT_TRUE(tunnelled);
    crash_points::reset();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mca
