// The commutative fast path's payoff (perf issue, DESIGN.md §5.9 /
// EXPERIMENTS.md A13), measured and gated.
//
// Two sections:
//
//   * committed increments/sec — 8 concurrent client actions, each looping
//     { begin; add(1) to a shared counter on each of 3 DistNodes; commit }.
//     Two legs over the identical workload shape:
//       fast       CommutativeCounter, one-phase delta commit (the product);
//       classical  RecoverableInt behind write locks + 2PC (the baseline
//                  every other subsystem pays).
//     The acceptance gate: fast >= 5x classical (>= 3x in smoke, where the
//     short window is noisy).
//
//   * delta WAL bytes/increment — a WalStore-backed counter commits enough
//     single-site increments to cross three compaction cycles; measured
//     directory growth per increment (chain records + amortised compaction
//     bases + removes) against the bytes one full ObjectState append of the
//     same counter costs. The gate: <= 25% — the O(delta) claim, on disk.
//
// Emits BENCH_commutative.json and exits non-zero on a missed gate so CI
// catches a regression of either the fast path or the delta encoding.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "dist/remote.h"
#include "objects/commutative_counter.h"
#include "objects/recoverable_int.h"
#include "sim/network.h"
#include "storage/wal_store.h"

namespace mca {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr int kServers = 3;
constexpr int kWorkers = 8;

NetworkConfig fast_config() {
  NetworkConfig c;
  c.min_delay = std::chrono::microseconds(10);
  c.max_delay = std::chrono::microseconds(200);
  return c;
}

struct TempDir {
  fs::path path;
  explicit TempDir(fs::path p) : path(std::move(p)) {
    std::error_code ec;
    fs::remove_all(path, ec);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::uint64_t dir_bytes(const fs::path& p) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(p)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// --- section 1: committed increments/sec, two legs --------------------------

// One leg: 3 server nodes hosting one shared object each, 8 client nodes
// driving one worker thread each. Every committed action adds 1 to all
// three objects; throughput is committed increments (3 per action) over the
// measured window. `commutative` picks the hosted type, and with it the
// commit path: one-phase deltas or classical 2PC.
double increments_per_second(bool commutative, std::chrono::milliseconds window) {
  Network net(fast_config());
  std::vector<std::unique_ptr<DistNode>> servers;
  std::vector<std::unique_ptr<CommutativeCounter>> counters;
  std::vector<std::unique_ptr<RecoverableInt>> ints;
  for (int i = 0; i < kServers; ++i) {
    servers.push_back(std::make_unique<DistNode>(net, static_cast<NodeId>(1 + i)));
    if (commutative) {
      counters.push_back(std::make_unique<CommutativeCounter>(servers.back()->runtime(), 0));
      servers.back()->host(*counters.back());
    } else {
      ints.push_back(std::make_unique<RecoverableInt>(servers.back()->runtime(), 0));
      servers.back()->host(*ints.back());
    }
  }
  std::vector<std::unique_ptr<DistNode>> clients;
  for (int i = 0; i < kWorkers; ++i) {
    clients.push_back(std::make_unique<DistNode>(net, static_cast<NodeId>(11 + i)));
    clients.back()->set_invoke_timeout(10'000ms);
  }

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> committed_actions{0};
  auto worker = [&](int w) {
    DistNode& client = *clients[static_cast<std::size_t>(w)];
    // The classical leg locks the servers in a fixed order, so contention
    // serializes instead of deadlocking.
    auto run_one = [&]() -> bool {
      AtomicAction act(client.runtime());
      act.begin();
      try {
        for (int s = 0; s < kServers; ++s) {
          const NodeId target = servers[static_cast<std::size_t>(s)]->id();
          if (commutative) {
            RemoteCounter r(client, target, counters[static_cast<std::size_t>(s)]->uid());
            r.add(1);
          } else {
            RemoteInt r(client, target, ints[static_cast<std::size_t>(s)]->uid());
            r.add(1);
          }
        }
        return act.commit() == Outcome::Committed;
      } catch (const std::exception&) {
        // Lock timeout / remote error under contention: abort and retry.
        act.abort();
        return false;
      }
    };
    // Warm up (activates objects, registers dispatchers) outside the window.
    (void)run_one();
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (!stop.load(std::memory_order_acquire)) {
      if (run_one()) committed_actions.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) threads.emplace_back(worker, w);
  std::this_thread::sleep_for(100ms);  // let every warmup commit land
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(window);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();

  // Sanity: every committed action put exactly one increment on every
  // counter (warmups included). A mismatch means lost or double-applied
  // deltas — fail loudly rather than report a throughput of garbage.
  for (int s = 0; s < kServers; ++s) {
    AtomicAction check(servers[static_cast<std::size_t>(s)]->runtime());
    check.begin();
    const std::int64_t v = commutative
                               ? counters[static_cast<std::size_t>(s)]->committed_value()
                               : ints[static_cast<std::size_t>(s)]->value();
    check.commit();
    if (v < static_cast<std::int64_t>(committed_actions.load())) {
      std::fprintf(stderr, "lost increments: counter %d has %lld < %llu committed\n", s,
                   static_cast<long long>(v),
                   static_cast<unsigned long long>(committed_actions.load()));
      std::abort();
    }
  }
  return static_cast<double>(committed_actions.load()) * kServers / secs;
}

// --- section 2: delta WAL bytes per increment -------------------------------

struct DeltaBytes {
  double delta_bytes_per_increment = 0;
  double full_append_bytes = 0;
};

DeltaBytes wal_bytes_per_increment() {
  TempDir dir(fs::temp_directory_path() / "mca_bench_commutative_wal");
  DeltaBytes out;
  WalStore::Options opts;
  opts.sync = false;  // byte counts are what's measured; skip the fsyncs
  WalStore store(dir.path / "wal", opts);
  Runtime rt(store);
  CommutativeCounter counter(rt, 0);

  // Three full compaction cycles: chain records, the epoch-bumped bases and
  // the chain removals all land inside the window, so the per-increment
  // figure is the honest steady state, not just the append.
  constexpr int kIncrements = static_cast<int>(StateManager::kDeltaCompactEvery) * 3;
  const std::uint64_t before = dir_bytes(dir.path);
  for (int i = 0; i < kIncrements; ++i) {
    AtomicAction act(rt);
    act.begin();
    counter.add(1);
    if (act.commit() != Outcome::Committed) std::abort();
  }
  const std::uint64_t after_deltas = dir_bytes(dir.path);
  out.delta_bytes_per_increment =
      static_cast<double>(after_deltas - before) / kIncrements;

  // What the snapshot path would append per increment: a full ObjectState
  // of the same counter (framed base: epoch + recent-action dedup window +
  // value), measured as actual WAL growth.
  constexpr int kFullAppends = 8;
  for (int i = 0; i < kFullAppends; ++i) store.write(counter.make_object_state());
  out.full_append_bytes =
      static_cast<double>(dir_bytes(dir.path) - after_deltas) / kFullAppends;
  return out;
}

}  // namespace

int run(bool smoke, const char* out_path) {
  const auto window = smoke ? 1'500ms : 4'000ms;
  const double speedup_gate = smoke ? 3.0 : 5.0;
  constexpr double kBytesGate = 0.25;

  std::printf("bench_commutative (%s mode): %d workers x %d nodes\n",
              smoke ? "smoke" : "full", kWorkers, kServers);

  const double fast = increments_per_second(/*commutative=*/true, window);
  const double classical = increments_per_second(/*commutative=*/false, window);

  const double speedup = classical > 0 ? fast / classical : 0.0;
  const bool speedup_pass = speedup >= speedup_gate;
  std::printf("committed increments/sec: fast %.0f, classical %.0f\n", fast, classical);
  std::printf("fast/classical %.2fx (gate %.1fx) — %s\n", speedup, speedup_gate,
              speedup_pass ? "PASS" : "FAIL");

  const DeltaBytes bytes = wal_bytes_per_increment();
  const double ratio =
      bytes.full_append_bytes > 0 ? bytes.delta_bytes_per_increment / bytes.full_append_bytes
                                  : 1.0;
  const bool bytes_pass = ratio <= kBytesGate;
  std::printf("delta WAL bytes/increment %.1f vs full ObjectState append %.1f "
              "(%.1f%%, gate %.0f%%) — %s\n",
              bytes.delta_bytes_per_increment, bytes.full_append_bytes, ratio * 100,
              kBytesGate * 100, bytes_pass ? "PASS" : "FAIL");

  const bool pass = speedup_pass && bytes_pass;
  bench::Json result = bench::Json::object();
  result.set("bench", "commutative")
      .set("mode", smoke ? "smoke" : "full")
      .set("workers", static_cast<std::size_t>(kWorkers))
      .set("nodes", static_cast<std::size_t>(kServers))
      .set("fast_increments_per_s", fast)
      .set("classical_increments_per_s", classical)
      .set("speedup_vs_classical", speedup)
      .set("speedup_gate", speedup_gate)
      .set("speedup_pass", speedup_pass)
      .set("delta_bytes_per_increment", bytes.delta_bytes_per_increment)
      .set("full_state_append_bytes", bytes.full_append_bytes)
      .set("bytes_ratio", ratio)
      .set("bytes_gate", kBytesGate)
      .set("bytes_pass", bytes_pass)
      .set("pass", pass);
  result.write_file(out_path);
  return pass ? 0 : 1;
}

}  // namespace mca

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_commutative.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }
  return mca::run(smoke, out_path);
}
