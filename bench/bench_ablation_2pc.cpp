// A3 (§2): the distributed commit protocol.
//
// Measures end-to-end distributed action latency (one remote update on each
// of two participants + 2PC) as message loss rises, against a local commit.
// The latency over participant count is bench_fanout_2pc's curve; that loss
// never breaks atomicity is Chaos.LossyTransfersCommitOnEveryNodeOrNone's
// check (tests/test_chaos.cpp).
#include "bench_common.h"

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
  Cluster(int servers, double loss) : net(bench_config(loss)), client(net, 1) {
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
}  // namespace mca

BENCHMARK_MAIN();
