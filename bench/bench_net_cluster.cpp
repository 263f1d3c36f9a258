// Cluster macro-bench: what a real multi-process deployment commits per
// second, and at what latency.
//
// The workload is the repo's canonical unit of work at deployment scale:
// three mcad daemons (separate OS processes, WAL stores, loopback UDP), a
// driver endpoint, and M concurrent workers each running sequential
// three-leg transfers through ctl.apply — every transaction is a full 2PC
// across all three processes, every byte over real sockets. Workers use
// disjoint keys so the bench measures the transport + commit spine, not
// lock contention.
//
// Emitted as BENCH_net.json, schema_version 3:
//
//   * cluster throughput — committed transactions/sec, whole deployment;
//   * commit latency — p50/p99 wall time of one end-to-end transaction;
//   * the batch-rx win — the largest recvmmsg batch a daemon's reactor
//     drained in one syscall (1 means batching never engaged).
//
// The gate is exact: every transaction commits. clusterbench/ is the
// measured cluster benchmark; this one rides bench-smoke (default tier-1
// suite) as a cross-process liveness check; where the sandbox cannot bind
// loopback UDP it reports "skipped": true and exits 0.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/mcad/daemon.h"
#include "bench_json.h"
#include "net/cluster.h"

namespace mca {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;
using mca::apps::TransferLeg;

struct RunResult {
  double committed_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::size_t committed = 0;
  std::size_t attempted = 0;
  std::uint64_t rx_batch_max = 0;   // largest reactor recvmmsg batch, any daemon
  std::uint64_t tx_batch_max = 0;   // largest sendmmsg batch, any daemon
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t i = std::min(sorted.size() - 1,
                                 static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return sorted[i];
}

RunResult run_cluster(int workers, int tx_per_worker, const std::filesystem::path& root) {
  net::ClusterConfig config;
  config.root = root;
  std::filesystem::remove_all(config.root);
  net::ClusterNodeConfig n1, n2, n3;
  n1.id = 1;
  n2.id = 2;
  n3.id = 3;
  for (int w = 0; w < workers; ++w) {
    n1.ints[100 + static_cast<std::uint32_t>(w)] = 1'000'000;
    n2.ints[200 + static_cast<std::uint32_t>(w)] = 1'000'000;
    n3.ints[300 + static_cast<std::uint32_t>(w)] = 1'000'000;
  }
  config.nodes = {n1, n2, n3};
  net::Cluster cluster(std::move(config));

  std::mutex mutex;
  std::vector<double> latencies_us;
  std::size_t committed = 0;
  latencies_us.reserve(static_cast<std::size_t>(workers) * tx_per_worker);

  // Warmup (uncounted): absorbs daemon spawn, first-WAL-write and route
  // discovery costs, so the measured window does not pay them.
  constexpr int kWarmupTx = 5;

  const auto run_worker = [&](int w, int tx, bool measured) {
    const NodeId coordinator = static_cast<NodeId>(1 + w % 3);
    const auto key = [w](std::uint32_t base) { return base + static_cast<std::uint32_t>(w); };
    std::vector<double> local_lat;
    std::size_t local_ok = 0;
    local_lat.reserve(tx);
    for (int i = 0; i < tx; ++i) {
      const std::vector<TransferLeg> legs = {{.node = 1, .key = key(100), .delta = -2},
                                             {.node = 2, .key = key(200), .delta = 1},
                                             {.node = 3, .key = key(300), .delta = 1}};
      const auto t0 = Clock::now();
      const net::ApplyResult r = cluster.apply(coordinator, legs, 20'000ms);
      const auto us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      if (r.rpc_ok && r.committed) {
        ++local_ok;
        local_lat.push_back(us);
      }
    }
    if (!measured) return;
    const std::lock_guard lock(mutex);
    committed += local_ok;
    latencies_us.insert(latencies_us.end(), local_lat.begin(), local_lat.end());
  };

  const auto fan_out = [&](int tx, bool measured) {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] { run_worker(w, tx, measured); });
    }
    for (auto& t : threads) t.join();
  };

  fan_out(kWarmupTx, /*measured=*/false);
  const auto start = Clock::now();
  fan_out(tx_per_worker, /*measured=*/true);
  const double wall_s = std::chrono::duration<double>(Clock::now() - start).count();

  RunResult out;
  out.attempted = static_cast<std::size_t>(workers) * tx_per_worker;
  out.committed = committed;
  out.committed_per_sec = wall_s > 0 ? static_cast<double>(committed) / wall_s : 0;
  std::sort(latencies_us.begin(), latencies_us.end());
  out.p50_us = percentile(latencies_us, 0.50);
  out.p99_us = percentile(latencies_us, 0.99);
  for (const NodeId n : {1u, 2u, 3u}) {
    if (const auto s = cluster.stats(n)) {
      out.rx_batch_max = std::max(out.rx_batch_max, s->at("reactor.rx_batch_max"));
      out.tx_batch_max = std::max(out.tx_batch_max, s->at("tx_batch_max"));
    }
  }
  cluster.shutdown_all();
  return out;
}

bench::Json to_json(const RunResult& r) {
  return bench::Json::object()
      .set("committed_per_sec", r.committed_per_sec)
      .set("p50_commit_us", r.p50_us)
      .set("p99_commit_us", r.p99_us)
      .set("committed", r.committed)
      .set("attempted", r.attempted)
      .set("rx_batch_max", static_cast<std::size_t>(r.rx_batch_max))
      .set("tx_batch_max", static_cast<std::size_t>(r.tx_batch_max));
}

int run(bool smoke, const char* out_path) {
  std::printf("bench_net_cluster (%s mode)\n", smoke ? "smoke" : "full");

  bench::Json result = bench::Json::object();
  result.set("bench", "net_cluster")
      .set("schema_version", 3)
      .set("mode", smoke ? "smoke" : "full");

  if (!net::loopback_udp_available()) {
    std::printf("loopback UDP unavailable — skipping (not a failure)\n");
    result.set("skipped", true).set("pass", true);
    result.write_file(out_path);
    return 0;
  }
  result.set("skipped", false);

  const int workers = smoke ? 4 : 8;
  const int tx_per_worker = smoke ? 50 : 250;
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "mca_bench_net_cluster";

  const RunResult run = run_cluster(workers, tx_per_worker, root);
  std::printf("cluster: %.0f commits/s, p50 %.0f us, p99 %.0f us (%zu/%zu), "
              "rx batch max %llu\n",
              run.committed_per_sec, run.p50_us, run.p99_us, run.committed, run.attempted,
              static_cast<unsigned long long>(run.rx_batch_max));

  const bool pass = run.committed == run.attempted;
  std::printf("every transaction committed — %s\n", pass ? "PASS" : "FAIL");

  result.set("workers", workers)
      .set("tx_per_worker", tx_per_worker)
      .set("cluster", to_json(run))
      .set("all_committed", pass)
      .set("pass", pass);
  result.write_file(out_path);
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace mca

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_net.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }
  return mca::run(smoke, out_path);
}
