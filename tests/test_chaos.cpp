// Chaos test: distributed transfers while a scripted fault schedule
// repeatedly crashes and restarts a participant node, and while the network
// loses a fifth of all datagrams.
//
// Invariant under any interleaving of crashes: every transfer is atomic —
// after the dust settles, the stable states on the two nodes sum to the
// initial total, and equal the client's tally of committed transfers.
// Under loss: once no node is in doubt, every node's stable state counts
// exactly the committed transfers.
//
// Every node runs on a WalStore in a fresh temp directory: each simulated
// kill therefore exercises the group-committed log's replay path, not just
// the protocol state machine over an in-memory store.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "dist/remote.h"
#include "objects/recoverable_int.h"
#include "sim/fault_injector.h"
#include "storage/wal_store.h"
#include "sim/network.h"

namespace mca {
namespace {

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

NetworkConfig chaos_config() {
  NetworkConfig c;
  c.loss_probability = 0.05;
  c.duplication_probability = 0.05;
  c.min_delay = std::chrono::microseconds(20);
  c.max_delay = std::chrono::microseconds(300);
  return c;
}

std::int64_t stable_value(DistNode& node, const Uid& uid) {
  auto state = node.runtime().default_store().read(uid);
  if (!state) return 0;
  ByteBuffer b = state->state();
  return b.unpack_i64();
}

TEST(Chaos, TransfersStayAtomicAcrossCrashes) {
  TempDir dir(fs::temp_directory_path() / ("mca_chaos_transfers_" + Uid().to_string()));
  Network net(chaos_config());
  WalStore client_store(dir.path / "client");
  WalStore stable_store(dir.path / "stable");
  WalStore flaky_store(dir.path / "flaky");
  DistNode client(net, 1, &client_store);
  DistNode stable_branch(net, 2, &stable_store);
  DistNode flaky_branch(net, 3, &flaky_store);

  constexpr std::int64_t kInitial = 10'000;
  RecoverableInt account_a(stable_branch.runtime(), kInitial);
  RecoverableInt account_b(flaky_branch.runtime(), kInitial);
  stable_branch.host(account_a);
  flaky_branch.host(account_b);
  RemoteInt remote_a(client, 2, account_a.uid());
  RemoteInt remote_b(client, 3, account_b.uid());
  client.set_invoke_timeout(std::chrono::milliseconds(700));

  // Crash the flaky branch every 300 ms for 150 ms, 4 times, while
  // transfers run.
  FaultSchedule faults = FaultSchedule::periodic(
      flaky_branch, std::chrono::milliseconds(300), std::chrono::milliseconds(150), 4);
  faults.start();

  std::int64_t committed_delta = 0;
  int committed = 0;
  int aborted = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(1'700);
  while (std::chrono::steady_clock::now() < deadline) {
    AtomicAction transfer(client.runtime());
    transfer.begin();
    const std::int64_t amount = 10;
    try {
      remote_a.add(-amount);
      remote_b.add(amount);
    } catch (const std::exception&) {
      transfer.abort();
      ++aborted;
      continue;
    }
    if (transfer.commit() == Outcome::Committed) {
      committed_delta += amount;
      ++committed;
    } else {
      ++aborted;
    }
  }
  faults.finish();
  ASSERT_GE(faults.crashes_executed(), 1);

  if (aborted == 0) {
    // Whether a transfer straddles a crash window is probabilistic (the
    // faster the transfers, the narrower the window), so the chaos loop can
    // finish with every transfer committed. Force the abort fate once so the
    // run always exercises both paths: with the flaky branch down and the
    // fault schedule finished, the second add must time out.
    flaky_branch.crash();
    AtomicAction transfer(client.runtime());
    transfer.begin();
    const std::int64_t amount = 10;
    try {
      remote_a.add(-amount);
      remote_b.add(amount);
      if (transfer.commit() == Outcome::Committed) {
        committed_delta += amount;
        ++committed;
      } else {
        ++aborted;
      }
    } catch (const std::exception&) {
      transfer.abort();
      ++aborted;
    }
    flaky_branch.restart();
  }

  // Let recovery settle, then check atomicity of the stable states.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  flaky_branch.restart();  // idempotent; re-runs recovery

  const std::int64_t stable_a = committed > 0 ? stable_value(stable_branch, account_a.uid())
                                              : kInitial;
  const std::int64_t stable_b = committed > 0 ? stable_value(flaky_branch, account_b.uid())
                                              : kInitial;
  EXPECT_EQ(stable_a + stable_b, 2 * kInitial) << "money created or destroyed";
  EXPECT_EQ(stable_a, kInitial - committed_delta);
  EXPECT_EQ(stable_b, kInitial + committed_delta);
  // The run must have exercised both fates.
  EXPECT_GT(committed, 0);
  EXPECT_GT(aborted, 0);
}

// Paper §2: "either all objects updated within the action have their new
// states recorded on stable storage, or none do", with message loss. The
// coordinator sends each participant one phase-two call; a prepared
// participant that call never reaches finishes through its own recovery
// pass, so the stable states are read only once no node is in doubt.
TEST(Chaos, LossyTransfersCommitOnEveryNodeOrNone) {
  TempDir dir(fs::temp_directory_path() / ("mca_chaos_loss_" + Uid().to_string()));
  NetworkConfig config;
  config.loss_probability = 0.2;
  config.min_delay = std::chrono::microseconds(20);
  config.max_delay = std::chrono::microseconds(100);
  Network net(config);
  WalStore client_store(dir.path / "client");
  DistNode client(net, 1, &client_store);
  std::vector<std::unique_ptr<WalStore>> stores;
  std::vector<std::unique_ptr<DistNode>> servers;
  std::vector<std::unique_ptr<RecoverableInt>> objects;
  std::vector<RemoteInt> proxies;
  for (NodeId id = 2; id <= 4; ++id) {
    stores.push_back(std::make_unique<WalStore>(dir.path / ("server" + std::to_string(id))));
    servers.push_back(std::make_unique<DistNode>(net, id, stores.back().get()));
    objects.push_back(std::make_unique<RecoverableInt>(servers.back()->runtime(), 0));
    servers.back()->host(*objects.back());
    proxies.emplace_back(client, id, objects.back()->uid());
  }

  constexpr int kTransfers = 30;
  int committed = 0;
  for (int i = 0; i < kTransfers; ++i) {
    AtomicAction a(client.runtime());
    a.begin();
    try {
      for (RemoteInt& proxy : proxies) proxy.add(1);
    } catch (const std::exception&) {
      a.abort();
      continue;
    }
    if (a.commit() == Outcome::Committed) ++committed;
  }
  EXPECT_GT(committed, 0);

  const auto in_doubt = [&] {
    std::size_t n = client.in_doubt_count();
    for (const auto& server : servers) n += server->in_doubt_count();
    return n;
  };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (in_doubt() != 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(in_doubt(), 0u) << "prepared participants never learned the outcome";
  for (std::size_t i = 0; i < servers.size(); ++i) {
    EXPECT_EQ(stable_value(*servers[i], objects[i]->uid()), committed)
        << "node " << servers[i]->id() << " of " << committed << " committed transfers";
  }
}

TEST(Chaos, RepeatedCrashesOfBothServersNeverWedgeTheClient) {
  TempDir dir(fs::temp_directory_path() / ("mca_chaos_wedge_" + Uid().to_string()));
  Network net(chaos_config());
  WalStore client_store(dir.path / "client");
  WalStore s1_store(dir.path / "s1");
  WalStore s2_store(dir.path / "s2");
  DistNode client(net, 1, &client_store);
  DistNode s1(net, 2, &s1_store);
  DistNode s2(net, 3, &s2_store);
  RecoverableInt x(s1.runtime(), 0);
  RecoverableInt y(s2.runtime(), 0);
  s1.host(x);
  s2.host(y);
  RemoteInt rx(client, 2, x.uid());
  RemoteInt ry(client, 3, y.uid());
  client.set_invoke_timeout(std::chrono::milliseconds(400));

  FaultSchedule f1 = FaultSchedule::periodic(s1, std::chrono::milliseconds(200),
                                             std::chrono::milliseconds(100), 3);
  FaultSchedule f2 = FaultSchedule::periodic(s2, std::chrono::milliseconds(350),
                                             std::chrono::milliseconds(100), 2);
  f1.start();
  f2.start();
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    AtomicAction a(client.runtime());
    a.begin();
    try {
      rx.add(1);
      ry.add(1);
    } catch (const std::exception&) {
      a.abort();
      continue;
    }
    if (a.commit() == Outcome::Committed) ++completed;
  }
  f1.finish();
  f2.finish();

  // Whatever committed is identical on both nodes (each add is mirrored).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  s1.restart();
  s2.restart();
  EXPECT_EQ(stable_value(s1, x.uid()), stable_value(s2, y.uid()));
  EXPECT_EQ(stable_value(s1, x.uid()), completed);
}

}  // namespace
}  // namespace mca
