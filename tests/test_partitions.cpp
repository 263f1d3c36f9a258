// Chaos suite: network partitions and corruption storms against the
// distributed commit protocol and the background in-doubt recovery daemon.
//
// Scenarios from the failure-resilience issue:
//   * coordinator partitioned away at prepare → the action aborts;
//   * phase two partitioned away after a successful prepare (live mirror
//     holding locks) → the daemon resolves the action once the partition
//     heals, both for a commit and for a presumed-abort decision;
//   * participant restarted while the coordinator is partitioned → the
//     marker stays in doubt across the restart and resolves within one
//     daemon period of the heal being signalled;
//   * corruption storms → the wire checksum turns corruption into loss, so
//     committed counters equal observed state and no garbage is applied.
//
// All waits are bounded polls on observable state (in_doubt_count, recovery
// stats, lock counts), never fixed sleeps.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "dist/remote.h"
#include "objects/recoverable_int.h"
#include "sim/network.h"

namespace mca {
namespace {

using namespace std::chrono_literals;

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
    std::this_thread::sleep_for(5ms);
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

class PartitionTest : public ::testing::Test {
 protected:
  PartitionTest() : net_(fast_config()), client_(net_, 1), server_(net_, 2) {
    // Tight daemon so resolution deadlines stay small.
    server_.set_recovery_options(
        DistNode::RecoveryOptions{/*period=*/50ms, /*call_timeout=*/200ms,
                                  /*backoff_max=*/200ms});
  }

  // Models the application noticing the repaired link: forget the
  // suspicion built up during the partition and re-resolve now.
  void signal_heal() {
    server_.rpc().reset_peer_health(client_.id());
    server_.kick_recovery();
  }

  Network net_;
  DistNode client_;
  DistNode server_;
};

TEST_F(PartitionTest, CoordinatorPartitionedAtPrepareAborts) {
  RecoverableInt obj(server_.runtime(), 7);
  server_.host(obj);
  RemoteInt remote(client_, server_.id(), obj.uid());

  AtomicAction a(client_.runtime());
  a.begin();
  remote.set(99);
  net_.partition(client_.id(), server_.id());
  // Prepare cannot cross the cut: the coordinator times out and aborts.
  EXPECT_EQ(a.commit(), Outcome::Aborted);
  // The server never prepared, so nothing is in doubt and nothing was made
  // permanent.
  EXPECT_EQ(server_.in_doubt_count(), 0u);
  EXPECT_FALSE(server_.runtime().default_store().read(obj.uid()).has_value());
  net_.heal_all();
}

TEST_F(PartitionTest, Phase2PartitionedDaemonCommitsAndReleasesLocks) {
  RecoverableInt obj(server_.runtime(), 1);
  server_.host(obj);
  RemoteInt remote(client_, server_.id(), obj.uid());

  AtomicAction a(client_.runtime());
  a.begin();
  remote.set(99);  // the server-side mirror now holds the write lock

  // Phase one by hand so the link can be cut between the phases.
  ASSERT_TRUE(server_.participants().prepare(a.uid(), permanent_colours(a), client_.id()));
  EXPECT_EQ(server_.in_doubt_count(), 1u);
  EXPECT_GT(server_.runtime().lock_manager().locked_object_count(), 0u);

  // The coordinator decides commit (a Sealed record, the default Record),
  // but phase two never arrives: the link is cut.
  CoordinatorLogParticipant::write_record(client_.runtime(), a.uid(), {});
  net_.partition(client_.id(), server_.id());

  // The daemon keeps trying across the partition and gets nowhere.
  EXPECT_TRUE(wait_until(
      [&] { return server_.recovery_stats().coordinator_unreachable > 0; }, 2'000ms));
  EXPECT_EQ(server_.in_doubt_count(), 1u);

  // Heal mid-recovery: the next attempt reaches the coordinator, learns
  // "committed", promotes the shadow and releases the stranded locks.
  net_.heal_all();
  signal_heal();
  EXPECT_TRUE(wait_until([&] { return server_.in_doubt_count() == 0; }, 2'000ms));
  EXPECT_EQ(server_.runtime().lock_manager().locked_object_count(), 0u);
  auto state = server_.runtime().default_store().read(obj.uid());
  ASSERT_TRUE(state.has_value());
  ByteBuffer b = state->state();
  EXPECT_EQ(b.unpack_i64(), 99);
  EXPECT_GE(server_.recovery_stats().resolved_committed, 1u);

  // The client-side action object is still open; finishing it is a no-op at
  // the server (the mirror and marker are long resolved).
  a.abort();
}

TEST_F(PartitionTest, Phase2PartitionedDaemonPresumesAbortAndReleasesLocks) {
  RecoverableInt obj(server_.runtime(), 1);
  server_.host(obj);
  RemoteInt remote(client_, server_.id(), obj.uid());

  AtomicAction a(client_.runtime());
  a.begin();
  remote.set(99);
  ASSERT_TRUE(server_.participants().prepare(a.uid(), permanent_colours(a), client_.id()));
  EXPECT_GT(server_.runtime().lock_manager().locked_object_count(), 0u);

  // Cut the link, then finish the coordinator side without a commit record:
  // its abort messages cannot cross the cut, so the prepared mirror survives
  // with its locks — exactly the stranded-participant case.
  net_.partition(client_.id(), server_.id());
  a.abort();
  EXPECT_EQ(server_.in_doubt_count(), 1u);

  // After the heal the daemon consults the coordinator: the action is
  // finished with no commit record → presumed abort, locks released,
  // nothing made permanent.
  net_.heal_all();
  signal_heal();
  EXPECT_TRUE(wait_until([&] { return server_.in_doubt_count() == 0; }, 2'000ms));
  EXPECT_EQ(server_.runtime().lock_manager().locked_object_count(), 0u);
  EXPECT_FALSE(server_.runtime().default_store().read(obj.uid()).has_value());
  EXPECT_TRUE(server_.runtime().default_store().shadow_uids().empty());
  EXPECT_GE(server_.recovery_stats().resolved_aborted, 1u);
}

TEST_F(PartitionTest, RestartWhileCoordinatorPartitionedResolvesAfterHeal) {
  // Regression for the recovery daemon: a participant restarted while its
  // coordinator is unreachable must keep the action in doubt (not presume
  // abort, not lose the marker) and resolve within one daemon period of the
  // heal being signalled.
  RecoverableInt obj(server_.runtime(), 1);
  server_.host(obj);
  RemoteInt remote(client_, server_.id(), obj.uid());

  AtomicAction a(client_.runtime());
  a.begin();
  remote.set(99);
  ASSERT_TRUE(server_.participants().prepare(a.uid(), permanent_colours(a), client_.id()));
  CoordinatorLogParticipant::write_record(client_.runtime(), a.uid(), {});  // Sealed

  net_.partition(client_.id(), server_.id());
  server_.crash();
  server_.restart();  // restart-time pass cannot reach the coordinator
  EXPECT_EQ(server_.in_doubt_count(), 1u);
  EXPECT_EQ(server_.runtime().lock_manager().locked_object_count(), 0u);

  // The daemon retries across the partition (and gives up cheaply each time).
  EXPECT_TRUE(wait_until(
      [&] { return server_.recovery_stats().coordinator_unreachable > 0; }, 2'000ms));

  net_.heal_all();
  const auto healed_at = std::chrono::steady_clock::now();
  signal_heal();
  EXPECT_TRUE(wait_until([&] { return server_.in_doubt_count() == 0; }, 2'000ms));
  const auto convergence = std::chrono::steady_clock::now() - healed_at;
  // One kicked daemon pass plus one short RPC — far below ten periods even
  // on a loaded CI box.
  EXPECT_LT(convergence, 10 * server_.recovery_options().period);

  auto state = server_.runtime().default_store().read(obj.uid());
  ASSERT_TRUE(state.has_value());
  ByteBuffer b = state->state();
  EXPECT_EQ(b.unpack_i64(), 99);
  a.abort();
}

TEST_F(PartitionTest, SplitIsolatesClientAndHealRestoresService) {
  DistNode server2(net_, 3);
  RecoverableInt x(server_.runtime(), 0);
  RecoverableInt y(server2.runtime(), 0);
  server_.host(x);
  server2.host(y);
  RemoteInt rx(client_, server_.id(), x.uid());
  RemoteInt ry(client_, server2.id(), y.uid());
  client_.set_invoke_timeout(300ms);

  net_.split({client_.id()}, {server_.id(), server2.id()});
  {
    AtomicAction a(client_.runtime());
    a.begin();
    EXPECT_THROW(rx.set(5), NodeUnreachable);
    net_.heal_all();
    a.abort();
  }
  // Intra-group traffic was never affected and the heal restores everything.
  AtomicAction b(client_.runtime());
  b.begin();
  rx.set(5);
  ry.set(6);
  EXPECT_EQ(b.commit(), Outcome::Committed);
  AtomicAction check(client_.runtime());
  check.begin();
  EXPECT_EQ(rx.value(), 5);
  EXPECT_EQ(ry.value(), 6);
  check.commit();
}

TEST(CorruptionChaos, TransactionsStayAtomicUnderCorruptionStorm) {
  NetworkConfig c = fast_config();
  c.corruption_probability = 0.25;
  c.seed = 20260807;
  Network net(c);
  DistNode client(net, 1);
  DistNode server(net, 2);
  RecoverableInt counter(server.runtime(), 0);
  server.host(counter);
  RemoteInt remote(client, server.id(), counter.uid());

  int committed = 0;
  for (int i = 0; i < 10; ++i) {
    AtomicAction a(client.runtime());
    a.begin();
    try {
      remote.add(1);
      if (a.commit() == Outcome::Committed) ++committed;
    } catch (const std::exception&) {
      a.abort();
    }
  }
  // Retransmission masks the corruption: most actions get through, and the
  // permanent state agrees exactly with the commit count — a corrupted
  // message is never applied, only dropped.
  EXPECT_GE(committed, 7);
  AtomicAction check(client.runtime());
  check.begin();
  EXPECT_EQ(remote.value(), committed);
  check.commit();
  const auto stats = net.stats();
  EXPECT_GT(stats.corrupted, 0u);
  EXPECT_GT(stats.corrupt_dropped, 0u);
}

}  // namespace
}  // namespace mca
