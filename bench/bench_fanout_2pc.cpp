// A9 (§2): 2PC termination fan-out.
//
// Measures end-to-end commit latency of one distributed action updating N
// remote participants. The termination path fans every exchange out at once
// (async RPC prepares and commits, concurrent shadow prepare), so the cost
// stays ~2 round trips whatever N is: the in-flight exchanges overlap inside
// the simulated network's delivery queue. That the kernel starts every
// exchange before it awaits any is checked exactly by
// ParallelTermination.EveryExchangeStartsBeforeAnyIsAwaited; this bench
// records the latency-vs-participants curve in BENCH_2pc.json. --smoke runs
// far fewer iterations and is wired into ctest under the bench-smoke label.
// Exits non-zero if any commit fails.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_json.h"
#include "dist/remote.h"
#include "objects/recoverable_int.h"
#include "sim/network.h"

namespace mca {
namespace {

// Delays chosen large relative to per-message CPU cost so the overlap win
// is visible on a single-core host: the simulated network assigns delivery
// times at send, so concurrent in-flight messages genuinely overlap.
NetworkConfig fanout_config() {
  NetworkConfig c;
  c.min_delay = std::chrono::microseconds(300);
  c.max_delay = std::chrono::microseconds(600);
  return c;
}

struct Cluster {
  explicit Cluster(int servers) : net(fanout_config()), client(net, 1) {
    for (int i = 0; i < servers; ++i) {
      nodes.push_back(std::make_unique<DistNode>(net, static_cast<NodeId>(2 + i)));
      objects.push_back(std::make_unique<RecoverableInt>(nodes.back()->runtime(), 0));
      nodes.back()->host(*objects.back());
      proxies.emplace_back(client, nodes.back()->id(), objects.back()->uid());
    }
  }

  Network net;
  DistNode client;
  std::vector<std::unique_ptr<DistNode>> nodes;
  std::vector<std::unique_ptr<RecoverableInt>> objects;
  std::vector<RemoteInt> proxies;
};

// Median commit latency in milliseconds over `iters` measured commits
// (plus two warmup commits that are discarded).
double median_commit_ms(int participants, int iters) {
  Cluster cluster(participants);
  std::vector<double> samples;
  constexpr int kWarmup = 2;
  for (int i = 0; i < iters + kWarmup; ++i) {
    AtomicAction a(cluster.client.runtime());
    a.begin();
    for (auto& proxy : cluster.proxies) proxy.add(1);
    const auto t0 = std::chrono::steady_clock::now();
    if (a.commit() != Outcome::Committed) {
      std::fprintf(stderr, "fanout bench: commit failed (participants=%d)\n", participants);
      std::exit(2);
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (i >= kWarmup) {
      samples.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

int run(bool smoke) {
  const std::vector<int> participant_counts = smoke ? std::vector<int>{1, 4}
                                                    : std::vector<int>{1, 2, 4, 8};
  const int iters = smoke ? 6 : 25;

  std::printf("=== A9 / §2 — 2PC termination fan-out (%s) ===\n", smoke ? "smoke" : "full");
  std::printf("%-14s %14s\n", "participants", "commit ms");

  bench::Json points = bench::Json::array();
  for (const int n : participant_counts) {
    const double commit_ms = median_commit_ms(n, iters);
    std::printf("%-14d %14.3f\n", n, commit_ms);
    points.push(bench::Json::object().set("participants", n).set("commit_ms", commit_ms));
  }

  bench::Json result = bench::Json::object();
  result.set("bench", "fanout_2pc")
      .set("experiment", "A9")
      .set("mode", smoke ? "smoke" : "full")
      .set("network_min_delay_us", 300)
      .set("network_max_delay_us", 600)
      .set("iterations_per_point", iters)
      .set("points", std::move(points));
  result.write_file("BENCH_2pc.json");
  return 0;
}

}  // namespace
}  // namespace mca

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return mca::run(smoke);
}
