// Recovery convergence (§2, failure resilience): how long a stranded
// prepared participant keeps its locks after the partition to its
// coordinator heals, and what the in-doubt recovery daemon's per-action
// backoff buys while the coordinator is unreachable.
//
// Scenario (same shape as tests/test_partitions.cpp): a client action
// updates a remote object, the participant prepares and the coordinator
// logs commit, then the link is cut before phase two — the mirror sits
// in doubt holding the object's write lock. The measurements:
//
//   * BM_HealToResolution — wall time from heal (+ health reset + daemon
//     kick) to in_doubt == 0 and all locks released, by daemon period;
//   * the shape report — attempts and datagrams burned during a fixed
//     partitioned window, exponential per-action backoff vs a
//     fixed-interval daemon (backoff capped at one period).
// Both nodes run on WalStore in a fresh temp directory, so the measured
// resolution path includes the real durable-log writes a production
// participant would pay (marker drop, shadow promotion), not MemoryStore
// costs.
#include "bench_common.h"

#include <filesystem>
#include <thread>

#include "dist/remote.h"
#include "storage/wal_store.h"
#include "sim/network.h"

namespace mca {
namespace {

using namespace std::chrono_literals;
namespace fs = std::filesystem;

// Created before (destroyed after) the stores that live inside it.
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

NetworkConfig fast_config() {
  NetworkConfig c;
  c.min_delay = std::chrono::microseconds(10);
  c.max_delay = std::chrono::microseconds(200);
  return c;
}

template <typename Pred>
bool wait_until(Pred&& pred, std::chrono::milliseconds deadline) {
  const auto end = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < end) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

std::vector<Colour> permanent_colours(AtomicAction& a) {
  std::vector<Colour> out;
  for (const auto& d : a.dispositions()) {
    if (d.heir.is_nil()) out.push_back(d.colour);
  }
  return out;
}

// One stranded-prepared cycle; returns heal → fully-resolved wall time.
std::chrono::duration<double> stranded_cycle(Network& net, DistNode& client, DistNode& server,
                                             RemoteInt& remote,
                                             std::chrono::milliseconds dwell) {
  AtomicAction a(client.runtime());
  a.begin();
  remote.set(99);
  if (!server.participants().prepare(a.uid(), permanent_colours(a), client.id())) {
    std::abort();
  }
  CoordinatorLogParticipant::write_record(client.runtime(), a.uid(), {});  // Sealed

  const auto unreachable_before = server.recovery_stats().coordinator_unreachable;
  net.partition(client.id(), server.id());
  // Let the daemon fail at least once so suspicion and backoff are armed —
  // the realistic starting point for a heal.
  wait_until([&] { return server.recovery_stats().coordinator_unreachable > unreachable_before; },
             5'000ms);
  std::this_thread::sleep_for(dwell);

  net.heal_all();
  const auto healed_at = std::chrono::steady_clock::now();
  server.rpc().reset_peer_health(client.id());
  server.kick_recovery();
  wait_until(
      [&] {
        return server.in_doubt_count() == 0 &&
               server.runtime().lock_manager().locked_object_count() == 0;
      },
      10'000ms);
  const auto resolved_at = std::chrono::steady_clock::now();
  a.abort();  // client-side cleanup; the server resolved long ago
  return resolved_at - healed_at;
}

void BM_HealToResolution(benchmark::State& state) {
  const auto period = std::chrono::milliseconds(state.range(0));
  TempDir dir(fs::temp_directory_path() / ("mca_bench_recovery_" + Uid().to_string()));
  Network net(fast_config());
  WalStore client_store(dir.path / "client");
  WalStore server_store(dir.path / "server");
  DistNode client(net, 1, &client_store);
  DistNode server(net, 2, &server_store);
  server.set_recovery_options(
      DistNode::RecoveryOptions{period, /*call_timeout=*/200ms, /*backoff_max=*/4 * period});
  RecoverableInt obj(server.runtime(), 0);
  server.host(obj);
  RemoteInt remote(client, server.id(), obj.uid());

  for (auto _ : state) {
    const auto elapsed = stranded_cycle(net, client, server, remote, /*dwell=*/0ms);
    state.SetIterationTime(elapsed.count());
  }
}
BENCHMARK(BM_HealToResolution)
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

void recovery_backoff_report() {
  bench::report_header(
      "recovery daemon — partition dwell cost, backoff vs fixed interval",
      "an in-doubt participant converges within ~one daemon period of the heal, and "
      "per-action exponential backoff spends far fewer attempts/datagrams while the "
      "coordinator stays unreachable");
  constexpr auto kDwell = 2'000ms;
  struct Row {
    const char* label;
    std::chrono::milliseconds backoff_max;
    std::uint64_t attempts;
    std::uint64_t sent;
    double converge_ms;
  } rows[] = {
      {"fixed interval (backoff_max = period)", 50ms, 0, 0, 0.0},
      {"exponential backoff (cap 800 ms)", 800ms, 0, 0, 0.0},
  };
  for (auto& row : rows) {
    TempDir dir(fs::temp_directory_path() / ("mca_bench_backoff_" + Uid().to_string()));
    Network net(fast_config());
    WalStore client_store(dir.path / "client");
    WalStore server_store(dir.path / "server");
    DistNode client(net, 1, &client_store);
    DistNode server(net, 2, &server_store);
    server.set_recovery_options(
        DistNode::RecoveryOptions{/*period=*/50ms, /*call_timeout=*/200ms, row.backoff_max});
    RecoverableInt obj(server.runtime(), 0);
    server.host(obj);
    RemoteInt remote(client, server.id(), obj.uid());

    const auto attempts_before = server.recovery_stats().attempts;
    const auto sent_before = net.stats().sent;
    const auto elapsed = stranded_cycle(net, client, server, remote, kDwell);
    row.attempts = server.recovery_stats().attempts - attempts_before;
    row.sent = net.stats().sent - sent_before;
    row.converge_ms = elapsed.count() * 1e3;
  }
  std::printf("partitioned dwell %lld ms, daemon period 50 ms, one in-doubt action:\n",
              static_cast<long long>(kDwell.count()));
  for (const auto& row : rows) {
    std::printf("  %-38s %4llu attempts, %5llu datagrams, heal->resolved %.1f ms\n", row.label,
                static_cast<unsigned long long>(row.attempts),
                static_cast<unsigned long long>(row.sent), row.converge_ms);
  }
}

}  // namespace mca

int main(int argc, char** argv) {
  mca::recovery_backoff_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
