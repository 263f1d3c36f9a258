// A10 (§5.5): the runtime spine — pooled dispatch on the shared executor.
//
// Every parallel step of the runtime (asynchronous independent actions,
// RPC handlers, recovery passes, make fan-out) rides an executor instead of
// a fresh std::thread. This bench records what pooled dispatch costs and
// proves the property that matters: once warm, the hot paths (pooled commit
// dispatch, async independent-action spawn) create ZERO new OS threads —
// verified against the executor's own threads_spawned counter under a
// 64-way concurrent commit + async load.
//
// Three measurements, emitted as BENCH_executor.json:
//   1. commit dispatch latency at 1/4/16 concurrent committers, each commit
//      a two-object transaction in the runtime's store, submitted to the
//      runtime executor's warm pool;
//   2. asynchronous independent-action throughput through
//      IndependentAction::spawn;
//   3. the steady-state check: warm-up rounds until the executor stops
//      growing, then a measured 64-way round that must spawn no threads.
//
// The one gate is exact (exit non-zero on a miss, so CI catches a
// regression of the spine): zero hot-path spawns. The latencies and the
// throughput are recorded, not gated.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/runtime.h"
#include "core/structures/independent_action.h"
#include "objects/recoverable_int.h"

namespace mca {
namespace {

// One committer's private pair of objects, so every commit prepares a
// two-shadow batch and no two committers contend on locks.
struct TwoObjectBench {
  explicit TwoObjectBench(int committers) {
    for (int i = 0; i < committers; ++i) {
      a.push_back(std::make_unique<RecoverableInt>(rt, 0));
      b.push_back(std::make_unique<RecoverableInt>(rt, 0));
    }
  }

  void commit_once(int committer) {
    AtomicAction act(rt);
    act.begin();
    a[static_cast<std::size_t>(committer)]->add(1);
    b[static_cast<std::size_t>(committer)]->add(1);
    if (act.commit() != Outcome::Committed) {
      std::fprintf(stderr, "executor bench: commit failed\n");
      std::exit(2);
    }
  }

  Runtime rt;
  std::vector<std::unique_ptr<RecoverableInt>> a;
  std::vector<std::unique_ptr<RecoverableInt>> b;
};

// Median per-commit dispatch+completion latency in microseconds across
// `committers` concurrent committer threads, each performing `iters`
// commits submitted to the runtime executor and awaited.
double median_dispatch_us(TwoObjectBench& bench, int committers, int iters) {
  std::vector<std::vector<double>> samples(static_cast<std::size_t>(committers));
  constexpr int kWarmup = 2;
  std::latch start(committers);
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < committers; ++c) {
      threads.emplace_back([&, c] {
        start.arrive_and_wait();
        for (int i = 0; i < iters + kWarmup; ++i) {
          const auto t0 = std::chrono::steady_clock::now();
          std::latch done(1);
          const bool queued = bench.rt.executor().submit_blocking([&] {
            bench.commit_once(c);
            done.count_down();
          });
          if (!queued) {  // only during shutdown; never expected here
            bench.commit_once(c);
            done.count_down();
          }
          done.wait();
          const auto t1 = std::chrono::steady_clock::now();
          if (i >= kWarmup) {
            samples[static_cast<std::size_t>(c)].push_back(
                std::chrono::duration<double, std::micro>(t1 - t0).count());
          }
        }
      });
    }
  }
  std::vector<double> all;
  for (const auto& v : samples) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  return all[all.size() / 2];
}

// Actions per second for a burst of `actions` asynchronous independent
// actions (IndependentAction::spawn rides the executor).
double async_actions_per_sec(Runtime& rt, int actions) {
  std::atomic<int> ran{0};
  const auto body = [&ran] { ran.fetch_add(1, std::memory_order_relaxed); };
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<IndependentAction::Async> handles;
  handles.reserve(static_cast<std::size_t>(actions));
  for (int i = 0; i < actions; ++i) handles.push_back(IndependentAction::spawn(rt, body));
  for (auto& h : handles) (void)h.join();
  const auto t1 = std::chrono::steady_clock::now();
  if (ran.load() != actions) {
    std::fprintf(stderr, "executor bench: async actions lost (%d of %d ran)\n", ran.load(),
                 actions);
    std::exit(2);
  }
  return actions / std::chrono::duration<double>(t1 - t0).count();
}

// Current OS thread count of this process (Linux): /proc/self/stat field 20
// via /proc/self/status "Threads:". Best effort — 0 when unreadable.
std::size_t os_thread_count() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t threads = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "Threads: %zu", &threads) == 1) break;
  }
  std::fclose(f);
  return threads;
}

// One round of the 64-way mixed load: every committer performs `iters`
// pooled commits and spawns an async independent action every fourth one.
void mixed_load_round(TwoObjectBench& bench, int committers, int iters) {
  std::latch start(committers);
  std::vector<std::jthread> threads;
  for (int c = 0; c < committers; ++c) {
    threads.emplace_back([&, c] {
      start.arrive_and_wait();
      for (int i = 0; i < iters; ++i) {
        std::latch done(1);
        if (bench.rt.executor().submit_blocking([&] {
              bench.commit_once(c);
              done.count_down();
            })) {
          done.wait();
        } else {
          bench.commit_once(c);
        }
        if (i % 4 == 0) {
          auto h = IndependentAction::spawn(bench.rt, [] {});
          (void)h.join();
        }
      }
    });
  }
}

int run(bool smoke, const std::string& out_path) {
  const std::vector<int> committer_counts{1, 4, 16};
  const int iters = smoke ? 20 : 200;

  std::printf("=== A10 / §5.5 — runtime spine: pooled dispatch (%s) ===\n",
              smoke ? "smoke" : "full");
  std::printf("%-12s %14s\n", "committers", "pooled us");

  bench::Json points = bench::Json::array();
  for (const int c : committer_counts) {
    TwoObjectBench bench(c);
    const double pooled_us = median_dispatch_us(bench, c, iters);
    std::printf("%-12d %14.1f\n", c, pooled_us);
    points.push(bench::Json::object().set("committers", c).set("pooled_commit_us", pooled_us));
  }

  // Async independent-action throughput through the pooled spawn.
  const int async_actions = smoke ? 256 : 4096;
  Runtime async_rt;
  (void)async_actions_per_sec(async_rt, async_actions);  // warm the pool
  const double pooled_aps = async_actions_per_sec(async_rt, async_actions);
  std::printf("async independent actions: %.0f/s\n", pooled_aps);

  // Steady-state thread flatness under the 64-way mixed load: warm up until
  // the executor stops growing, then demand a round that spawns nothing.
  const int flat_committers = 64;
  const int flat_iters = smoke ? 8 : 32;
  TwoObjectBench flat(flat_committers);
  // Deterministic prewarm: park enough tasks to force the pool past the
  // load's worst-case concurrency (64 commits + 64 async joins), so the
  // measured round can never legitimately need a new thread.
  {
    const int park = 2 * flat_committers + 16;
    // Shared ownership: a released worker may still be inside
    // release->wait() when this scope ends.
    auto parked = std::make_shared<std::latch>(park);
    auto release = std::make_shared<std::latch>(1);
    for (int i = 0; i < park; ++i) {
      (void)flat.rt.executor().submit_blocking([parked, release] {
        parked->count_down();
        release->wait();
      });
    }
    parked->wait();
    release->count_down();
    // Wait for the released workers to reach the idle list so the load
    // never races a worker that is still finishing its park task.
    while (flat.rt.executor().stats().blocking_idle < static_cast<std::size_t>(park)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::uint64_t before = 0;
  int warmup_rounds = 0;
  for (; warmup_rounds < 8; ++warmup_rounds) {
    before = flat.rt.executor().stats().threads_spawned;
    mixed_load_round(flat, flat_committers, flat_iters);
    if (flat.rt.executor().stats().threads_spawned == before) break;
  }
  before = flat.rt.executor().stats().threads_spawned;
  mixed_load_round(flat, flat_committers, flat_iters);
  const Executor::Stats steady = flat.rt.executor().stats();
  const std::uint64_t hot_spawned = steady.threads_spawned - before;
  const std::size_t os_threads = os_thread_count();
  std::printf(
      "steady state: %zu pool threads after %d warm-up rounds, "
      "%llu threads spawned during measured 64-way round, %zu OS threads\n",
      steady.blocking_threads, warmup_rounds, static_cast<unsigned long long>(hot_spawned),
      os_threads);

  const bool pass = hot_spawned == 0;

  bench::Json result = bench::Json::object();
  result.set("bench", "executor")
      .set("experiment", "A10")
      .set("mode", smoke ? "smoke" : "full")
      .set("iterations_per_point", iters)
      .set("commit_dispatch", std::move(points))
      .set("async_actions", async_actions)
      .set("async_pooled_actions_per_sec", pooled_aps)
      .set("steady_state",
           bench::Json::object()
               .set("committers", flat_committers)
               .set("warmup_rounds", warmup_rounds)
               .set("hot_path_threads_spawned", static_cast<std::size_t>(hot_spawned))
               .set("pool_blocking_threads", steady.blocking_threads)
               .set("total_threads_spawned", static_cast<std::size_t>(steady.threads_spawned))
               .set("os_threads", os_threads))
      .set("pass", pass);
  result.write_file(out_path);

  std::printf("hot-path spawns: %llu — %s\n", static_cast<unsigned long long>(hot_spawned),
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace mca

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_executor.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }
  return mca::run(smoke, out_path);
}
