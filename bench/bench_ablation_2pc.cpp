// A3 (§2): the distributed commit protocol.
//
// Measures end-to-end distributed action latency (one remote update + 2PC)
// as the number of participant nodes grows and as message loss rises, and
// verifies that loss never breaks atomicity — committed means every node's
// store has the new state.
#include "bench_common.h"

#include "bench_json.h"
#include "dist/remote.h"
#include "sim/network.h"

namespace mca {
namespace {

NetworkConfig bench_config(double loss) {
  NetworkConfig c;
  c.loss_probability = loss;
  c.min_delay = std::chrono::microseconds(20);
  c.max_delay = std::chrono::microseconds(100);
  return c;
}

struct Cluster {
  explicit Cluster(int servers, double loss = 0.0) : net(bench_config(loss)), client(net, 1) {
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

void BM_DistributedCommitByParticipants(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  Cluster cluster(servers);
  for (auto _ : state) {
    AtomicAction a(cluster.client.runtime());
    a.begin();
    for (auto& proxy : cluster.proxies) proxy.add(1);
    if (a.commit() != Outcome::Committed) state.SkipWithError("commit failed");
  }
  state.SetItemsProcessed(state.iterations() * servers);
}
BENCHMARK(BM_DistributedCommitByParticipants)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_DistributedCommitByLossRate(benchmark::State& state) {
  const double loss = static_cast<double>(state.range(0)) / 100.0;
  Cluster cluster(2, loss);
  for (auto _ : state) {
    AtomicAction a(cluster.client.runtime());
    a.begin();
    for (auto& proxy : cluster.proxies) proxy.add(1);
    if (a.commit() != Outcome::Committed) state.SkipWithError("commit failed");
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_DistributedCommitByLossRate)
    ->Arg(0)
    ->Arg(10)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_LocalCommitBaseline(benchmark::State& state) {
  // The same update against a local object: the network-free floor.
  Runtime rt;
  RecoverableInt obj(rt, 0);
  for (auto _ : state) {
    AtomicAction a(rt);
    a.begin();
    obj.add(1);
    a.commit();
  }
}
BENCHMARK(BM_LocalCommitBaseline)->Unit(benchmark::kMillisecond);

}  // namespace

void tpc_atomicity_report() {
  bench::report_header(
      "A3 / §2 — distributed two-phase commit",
      "either all objects updated within the action have their new states recorded on "
      "stable storage, or none do — under message loss too");
  constexpr int kTransfers = 30;
  Cluster cluster(3, /*loss=*/0.2);
  int committed = 0;
  for (int i = 0; i < kTransfers; ++i) {
    AtomicAction a(cluster.client.runtime());
    a.begin();
    try {
      for (auto& proxy : cluster.proxies) proxy.add(1);
    } catch (const std::exception&) {
      a.abort();
      continue;
    }
    if (a.commit() == Outcome::Committed) ++committed;
  }
  // Atomicity check: every node's stable value equals the committed count.
  bool atomic = true;
  for (std::size_t i = 0; i < cluster.nodes.size(); ++i) {
    auto stored = cluster.nodes[i]->runtime().default_store().read(cluster.objects[i]->uid());
    const std::int64_t value = [&]() -> std::int64_t {
      if (!stored) return 0;
      ByteBuffer b = stored->state();
      return b.unpack_i64();
    }();
    if (value != committed) atomic = false;
  }
  const auto stats = cluster.net.stats();
  std::printf("%d/%d actions committed under 20%% loss; stable state identical on all 3 "
              "nodes: %s\n",
              committed, kTransfers, atomic ? "OK" : "VIOLATION");
  std::printf("network: %llu msgs sent, %llu lost and masked by retransmission\n",
              static_cast<unsigned long long>(stats.sent),
              static_cast<unsigned long long>(stats.lost));

  bench::Json::object()
      .set("bench", "ablation_2pc")
      .set("experiment", "A3")
      .set("loss_probability", 0.2)
      .set("transfers", kTransfers)
      .set("committed", committed)
      .set("atomic", atomic)
      .set("messages_sent", static_cast<std::size_t>(stats.sent))
      .set("messages_lost", static_cast<std::size_t>(stats.lost))
      .write_file("BENCH_2pc_ablation.json");
}

}  // namespace mca

int main(int argc, char** argv) {
  mca::tpc_atomicity_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
