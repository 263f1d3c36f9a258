// Additional distributed-layer coverage: the full proxy family, file-store
// backed nodes (durable across a process-level restart, not just a crash
// flag), concurrent multi-client workloads, and mixed local+remote actions.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "dist/remote.h"
#include "objects/recoverable_int.h"
#include "objects/recoverable_log.h"
#include "objects/recoverable_map.h"
#include "objects/recoverable_set.h"
#include "storage/wal_store.h"
#include "sim/network.h"

namespace mca {
namespace {

NetworkConfig fast_config() {
  NetworkConfig c;
  c.min_delay = std::chrono::microseconds(10);
  c.max_delay = std::chrono::microseconds(200);
  return c;
}

class DistExtraTest : public ::testing::Test {
 protected:
  DistExtraTest() : net_(fast_config()), client_(net_, 1), server_(net_, 2) {}

  Network net_;
  DistNode client_;
  DistNode server_;
};

TEST_F(DistExtraTest, RemoteSetFullApi) {
  RecoverableSet set(server_.runtime());
  server_.host(set);
  RemoteSet remote(client_, 2, set.uid());
  AtomicAction a(client_.runtime());
  a.begin();
  EXPECT_TRUE(remote.insert("x"));
  EXPECT_FALSE(remote.insert("x"));
  EXPECT_TRUE(remote.insert("y"));
  EXPECT_TRUE(remote.contains("x"));
  EXPECT_EQ(remote.size(), 2u);
  EXPECT_EQ(remote.elements(), (std::vector<std::string>{"x", "y"}));
  EXPECT_TRUE(remote.erase("x"));
  EXPECT_FALSE(remote.erase("x"));
  a.commit();
  AtomicAction b(client_.runtime());
  b.begin();
  EXPECT_EQ(remote.size(), 1u);
  b.commit();
}

TEST_F(DistExtraTest, RemoteLogFullApi) {
  RecoverableLog log(server_.runtime());
  server_.host(log);
  RemoteLog remote(client_, 2, log.uid());
  AtomicAction a(client_.runtime());
  a.begin();
  remote.append("one");
  remote.append("two");
  EXPECT_EQ(remote.size(), 2u);
  EXPECT_EQ(remote.entries(), (std::vector<std::string>{"one", "two"}));
  a.commit();
}

TEST_F(DistExtraTest, RemoteMapKeysAndSize) {
  RecoverableMap map(server_.runtime());
  server_.host(map);
  RemoteMap remote(client_, 2, map.uid());
  AtomicAction a(client_.runtime());
  a.begin();
  remote.insert("b", "2");
  remote.insert("a", "1");
  EXPECT_EQ(remote.keys(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(remote.size(), 2u);
  a.commit();
}

TEST_F(DistExtraTest, MixedLocalAndRemoteUpdatesAreAtomic) {
  // One action updates a local object (client runtime) and a remote one;
  // both commit, and an aborted sibling touches neither.
  RecoverableInt local(client_.runtime(), 0);
  RecoverableInt remote_obj(server_.runtime(), 0);
  server_.host(remote_obj);
  RemoteInt remote(client_, 2, remote_obj.uid());
  {
    AtomicAction a(client_.runtime());
    a.begin();
    local.add(1);
    remote.add(1);
    EXPECT_EQ(a.commit(), Outcome::Committed);
  }
  {
    AtomicAction a(client_.runtime());
    a.begin();
    local.add(100);
    remote.add(100);
    a.abort();
  }
  AtomicAction check(client_.runtime());
  check.begin();
  EXPECT_EQ(local.value(), 1);
  EXPECT_EQ(remote.value(), 1);
  check.commit();
}

TEST_F(DistExtraTest, ManyClientsIncrementConcurrently) {
  RecoverableInt counter(server_.runtime(), 0);
  server_.host(counter);
  constexpr int kClients = 4;
  constexpr int kIncrements = 10;
  std::vector<std::unique_ptr<DistNode>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<DistNode>(net_, static_cast<NodeId>(10 + i)));
  }
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&clients, &counter, i] {
        RemoteInt remote(*clients[static_cast<std::size_t>(i)],
                         2, counter.uid());
        for (int j = 0; j < kIncrements; ++j) {
          AtomicAction a(clients[static_cast<std::size_t>(i)]->runtime());
          a.begin();
          remote.add(1);
          ASSERT_EQ(a.commit(), Outcome::Committed);
        }
      });
    }
  }
  AtomicAction check(server_.runtime());
  check.begin();
  EXPECT_EQ(counter.value(), kClients * kIncrements);
  check.commit();
}

TEST(DistWalStore, StateSurvivesNodeTeardownAndReconstruction) {
  // A node backed by a WalStore loses its process state entirely (we
  // destroy the DistNode) and is rebuilt over the same directory: committed
  // remote updates must still be there.
  const auto dir =
      std::filesystem::temp_directory_path() / ("mca_dist_wal_" + Uid().to_string());
  Network net(fast_config());
  DistNode client(net, 1);
  Uid object_uid;
  {
    WalStore store(dir);
    DistNode server(net, 2, &store);
    RecoverableInt account(server.runtime(), 100);
    object_uid = account.uid();
    server.host(account);
    RemoteInt remote(client, 2, object_uid);
    AtomicAction a(client.runtime());
    a.begin();
    remote.add(23);
    ASSERT_EQ(a.commit(), Outcome::Committed);
  }  // server torn down completely

  {
    WalStore store(dir);
    DistNode server(net, 2, &store);
    RecoverableInt account(server.runtime(), object_uid);  // rebind by uid
    server.host(account);
    RemoteInt remote(client, 2, object_uid);
    AtomicAction a(client.runtime());
    a.begin();
    EXPECT_EQ(remote.value(), 123);
    a.commit();
  }
  std::filesystem::remove_all(dir);
}

TEST_F(DistExtraTest, ReadOnlyRemoteActionLeavesNoResidue) {
  RecoverableInt obj(server_.runtime(), 5);
  server_.host(obj);
  RemoteInt remote(client_, 2, obj.uid());
  {
    AtomicAction a(client_.runtime());
    a.begin();
    EXPECT_EQ(remote.value(), 5);
    EXPECT_EQ(a.commit(), Outcome::Committed);
  }
  EXPECT_EQ(server_.runtime().lock_manager().locked_object_count(), 0u);
  EXPECT_EQ(server_.participants().mirror_count(), 0u);
  EXPECT_TRUE(server_.runtime().default_store().shadow_uids().empty());
  // Reads alone never create stable state.
  EXPECT_FALSE(server_.runtime().default_store().read(obj.uid()).has_value());
}

TEST_F(DistExtraTest, AbortedRemoteActionLeavesNoResidue) {
  RecoverableInt obj(server_.runtime(), 5);
  server_.host(obj);
  RemoteInt remote(client_, 2, obj.uid());
  {
    AtomicAction a(client_.runtime());
    a.begin();
    remote.set(99);
    a.abort();
  }
  // Give the abort RPC a moment to land.
  for (int i = 0; i < 100 && server_.participants().mirror_count() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_.participants().mirror_count(), 0u);
  EXPECT_EQ(server_.runtime().lock_manager().locked_object_count(), 0u);
}

TEST_F(DistExtraTest, OrphanShadowsDiscardedAtRecovery) {
  // A crash between prepare's shadow writes and its marker write leaves
  // shadows with no marker; restart must presume abort and discard them.
  RecoverableInt obj(server_.runtime(), 1);
  server_.host(obj);
  server_.runtime().default_store().write_shadow(
      ObjectState(obj.uid(), "RecoverableInt", [] {
        ByteBuffer b;
        b.pack_i64(999);
        return b;
      }()));
  ASSERT_EQ(server_.runtime().default_store().shadow_uids().size(), 1u);
  server_.crash();
  server_.restart();
  EXPECT_TRUE(server_.runtime().default_store().shadow_uids().empty());
  EXPECT_FALSE(server_.runtime().default_store().read(obj.uid()).has_value());
}

TEST_F(DistExtraTest, MarkedShadowsSurviveRecoverySweep) {
  // Shadows referenced by a surviving in-doubt marker must NOT be swept;
  // they stay until the coordinator is reachable.
  RecoverableInt obj(server_.runtime(), 1);
  server_.host(obj);
  RemoteInt remote(client_, 2, obj.uid());
  AtomicAction a(client_.runtime());
  a.begin();
  remote.set(50);
  std::vector<Colour> permanent;
  for (const auto& d : a.dispositions()) {
    if (d.heir.is_nil()) permanent.push_back(d.colour);
  }
  // Prepared with an unreachable coordinator id: recovery stays in doubt.
  ASSERT_TRUE(server_.participants().prepare(a.uid(), permanent, /*coordinator=*/77));
  server_.crash();
  server_.restart();
  EXPECT_EQ(server_.runtime().default_store().shadow_uids().size(), 1u);
  a.abort();
}

TEST_F(DistExtraTest, ActionStatsCountBothSides) {
  RecoverableInt obj(server_.runtime(), 0);
  server_.host(obj);
  RemoteInt remote(client_, 2, obj.uid());
  const auto client_before = client_.runtime().action_stats();
  const auto server_before = server_.runtime().action_stats();
  {
    AtomicAction a(client_.runtime());
    a.begin();
    remote.add(1);
    a.commit();
  }
  const auto client_after = client_.runtime().action_stats();
  const auto server_after = server_.runtime().action_stats();
  EXPECT_EQ(client_after.begun, client_before.begun + 1);
  EXPECT_EQ(client_after.committed, client_before.committed + 1);
  // The server ran a mirror action for the client's action.
  EXPECT_GE(server_after.begun, server_before.begun + 1);
  EXPECT_GE(server_after.committed, server_before.committed + 1);
  EXPECT_EQ(client_after.active(), 0u);
}

}  // namespace
}  // namespace mca
