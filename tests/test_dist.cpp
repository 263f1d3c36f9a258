// Integration tests of the distributed layer: remote object invocation
// inside actions, distributed two-phase commit, per-colour behaviour across
// nodes, crashes and recovery.
#include <gtest/gtest.h>

#include <thread>

#include "core/structures/independent_action.h"
#include "dist/remote.h"
#include "objects/recoverable_int.h"
#include "objects/recoverable_map.h"
#include "sim/network.h"

namespace mca {
namespace {

NetworkConfig fast_config() {
  NetworkConfig c;
  c.min_delay = std::chrono::microseconds(10);
  c.max_delay = std::chrono::microseconds(200);
  return c;
}

class DistTest : public ::testing::Test {
 protected:
  DistTest() : net_(fast_config()), client_(net_, 1), server_(net_, 2) {}

  Network net_;
  DistNode client_;
  DistNode server_;
};

TEST_F(DistTest, RemoteWriteCommits) {
  RecoverableInt account(server_.runtime(), 100);
  server_.host(account);
  RemoteInt remote(client_, server_.id(), account.uid());

  AtomicAction a(client_.runtime());
  a.begin();
  remote.add(50);
  EXPECT_EQ(remote.value(), 150);
  EXPECT_EQ(a.commit(), Outcome::Committed);

  // Permanent at the server.
  auto state = server_.runtime().default_store().read(account.uid());
  ASSERT_TRUE(state.has_value());
  ByteBuffer b = state->state();
  EXPECT_EQ(b.unpack_i64(), 150);
}

TEST_F(DistTest, RemoteWriteAbortRollsBack) {
  RecoverableInt account(server_.runtime(), 100);
  server_.host(account);
  RemoteInt remote(client_, server_.id(), account.uid());

  {
    AtomicAction a(client_.runtime());
    a.begin();
    remote.add(50);
    EXPECT_EQ(remote.value(), 150);
    a.abort();
  }
  AtomicAction check(client_.runtime());
  check.begin();
  EXPECT_EQ(remote.value(), 100);
  check.commit();
  EXPECT_FALSE(server_.runtime().default_store().read(account.uid()).has_value());
}

TEST_F(DistTest, AtomicAcrossTwoNodes) {
  // One action updates objects on two different server nodes; both must
  // commit (distributed 2PC with two participants).
  DistNode server2(net_, 3);
  RecoverableInt x(server_.runtime(), 0);
  RecoverableInt y(server2.runtime(), 0);
  server_.host(x);
  server2.host(y);
  RemoteInt rx(client_, server_.id(), x.uid());
  RemoteInt ry(client_, server2.id(), y.uid());

  AtomicAction transfer(client_.runtime());
  transfer.begin();
  rx.add(-10);
  ry.add(10);
  EXPECT_EQ(transfer.commit(), Outcome::Committed);

  AtomicAction check(client_.runtime());
  check.begin();
  EXPECT_EQ(rx.value(), -10);
  EXPECT_EQ(ry.value(), 10);
  check.commit();
}

TEST_F(DistTest, NestedRemoteActionInheritsThenTopCommits) {
  RecoverableInt obj(server_.runtime(), 0);
  server_.host(obj);
  RemoteInt remote(client_, server_.id(), obj.uid());

  AtomicAction top(client_.runtime());
  top.begin();
  {
    AtomicAction child(client_.runtime());
    child.begin();
    remote.set(7);
    child.commit();
  }
  // Not yet stable: the child's records were inherited by top's mirror.
  EXPECT_FALSE(server_.runtime().default_store().read(obj.uid()).has_value());
  EXPECT_TRUE(server_.participants().has_mirror(top.uid()));
  top.commit();
  ASSERT_TRUE(server_.runtime().default_store().read(obj.uid()).has_value());
}

TEST_F(DistTest, NestedRemoteActionUndoneByParentAbort) {
  RecoverableInt obj(server_.runtime(), 3);
  server_.host(obj);
  RemoteInt remote(client_, server_.id(), obj.uid());

  {
    AtomicAction top(client_.runtime());
    top.begin();
    {
      AtomicAction child(client_.runtime());
      child.begin();
      remote.set(9);
      child.commit();
    }
    top.abort();
  }
  AtomicAction check(client_.runtime());
  check.begin();
  EXPECT_EQ(remote.value(), 3);
  check.commit();
}

TEST_F(DistTest, RemoteLockConflictSerializesClients) {
  RecoverableInt obj(server_.runtime(), 0);
  server_.host(obj);
  DistNode client2(net_, 4);
  RemoteInt r1(client_, server_.id(), obj.uid());
  RemoteInt r2(client2, server_.id(), obj.uid());

  AtomicAction a(client_.runtime(), nullptr, {});
  a.begin(AtomicAction::ContextPolicy::Detached);
  {
    ActionContext::push(a);
    r1.add(1);
    ActionContext::pop(a);
  }

  std::atomic<bool> second_done{false};
  std::jthread other([&] {
    AtomicAction b(client2.runtime());
    b.begin();
    r2.add(1);  // blocks at the server until a commits
    second_done = true;
    b.commit();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(second_done.load());
  a.commit();
  other.join();
  EXPECT_TRUE(second_done.load());

  AtomicAction check(client_.runtime());
  check.begin();
  EXPECT_EQ(r1.value(), 2);
  check.commit();
}

TEST_F(DistTest, IndependentActionOnRemoteObjects) {
  // §4(ii) name-server pattern: independent update of a remote map from
  // within an application action whose abort must not undo it.
  RecoverableMap names(server_.runtime());
  server_.host(names);
  RemoteMap remote(client_, server_.id(), names.uid());

  {
    AtomicAction app(client_.runtime());
    app.begin();
    EXPECT_EQ(IndependentAction::run(client_.runtime(),
                                     [&] { remote.insert("obj-a", "node-7"); }),
              Outcome::Committed);
    app.abort();
  }
  AtomicAction check(client_.runtime());
  check.begin();
  EXPECT_EQ(remote.lookup("obj-a"), "node-7");
  check.commit();
}

TEST_F(DistTest, CommitWorksUnderMessageLossAndDuplication) {
  // Separate lossy network for this test.
  NetworkConfig c = fast_config();
  c.loss_probability = 0.25;
  c.duplication_probability = 0.25;
  Network lossy(c);
  DistNode client(lossy, 10);
  DistNode server(lossy, 11);
  RecoverableInt obj(server.runtime(), 0);
  server.host(obj);
  RemoteInt remote(client, server.id(), obj.uid());

  for (int i = 0; i < 5; ++i) {
    AtomicAction a(client.runtime());
    a.begin();
    remote.add(1);
    EXPECT_EQ(a.commit(), Outcome::Committed);
  }
  AtomicAction check(client.runtime());
  check.begin();
  EXPECT_EQ(remote.value(), 5);
  check.commit();
}

TEST_F(DistTest, ServerCrashBeforeCommitAbortsAction) {
  RecoverableInt obj(server_.runtime(), 42);
  server_.host(obj);
  RemoteInt remote(client_, server_.id(), obj.uid());

  AtomicAction a(client_.runtime());
  a.begin();
  remote.set(99);
  server_.crash();
  // Prepare cannot reach the server: the action must abort.
  EXPECT_EQ(a.commit(), Outcome::Aborted);

  server_.restart();
  AtomicAction check(client_.runtime());
  check.begin();
  EXPECT_EQ(remote.value(), 42);
  check.commit();
}

TEST_F(DistTest, ServerCrashLosesUncommittedStateOnRestart) {
  RecoverableInt obj(server_.runtime(), 1);
  server_.host(obj);
  RemoteInt remote(client_, server_.id(), obj.uid());

  {
    AtomicAction a(client_.runtime());
    a.begin();
    remote.set(2);
    a.commit();
  }
  {
    AtomicAction b(client_.runtime());
    b.begin();
    remote.set(3);  // uncommitted when the crash hits
    server_.crash();
    EXPECT_EQ(b.commit(), Outcome::Aborted);
  }
  server_.restart();
  AtomicAction check(client_.runtime());
  check.begin();
  EXPECT_EQ(remote.value(), 2);  // last committed state, reloaded from store
  check.commit();
}

TEST_F(DistTest, InDoubtParticipantResolvesCommitViaCoordinatorLog) {
  // Crash the server after prepare but before the commit message lands;
  // recovery must consult the coordinator and promote the shadow.
  RecoverableInt obj(server_.runtime(), 5);
  server_.host(obj);
  RemoteInt remote(client_, server_.id(), obj.uid());

  AtomicAction a(client_.runtime());
  a.begin();
  remote.set(50);

  // Drive prepare by hand so we can crash between the phases.
  std::vector<Colour> permanent;
  for (const auto& d : a.dispositions()) {
    if (d.heir.is_nil()) permanent.push_back(d.colour);
  }
  ASSERT_TRUE(server_.participants().prepare(a.uid(), permanent, client_.id()));
  // Simulate the coordinator reaching its decision (a Sealed record, the
  // default Record).
  CoordinatorLogParticipant::write_record(client_.runtime(), a.uid(), {});
  server_.crash();
  server_.restart();  // recovery asks client_ for tx.status -> committed

  auto state = server_.runtime().default_store().read(obj.uid());
  ASSERT_TRUE(state.has_value());
  ByteBuffer b = state->state();
  EXPECT_EQ(b.unpack_i64(), 50);

  // The client-side action still believes it is running; finish it. Its
  // commit will find no mirror (fresh server state) and the participant
  // falls back to marker-driven resolution, which is a no-op by now.
  a.abort();
}

TEST_F(DistTest, InDoubtParticipantPresumesAbortWithoutCoordinatorLog) {
  RecoverableInt obj(server_.runtime(), 5);
  server_.host(obj);
  RemoteInt remote(client_, server_.id(), obj.uid());

  AtomicAction a(client_.runtime());
  a.begin();
  remote.set(50);
  std::vector<Colour> permanent;
  for (const auto& d : a.dispositions()) {
    if (d.heir.is_nil()) permanent.push_back(d.colour);
  }
  ASSERT_TRUE(server_.participants().prepare(a.uid(), permanent, client_.id()));
  // The coordinator action is still live (no decision yet): crash + restart
  // must keep the shadow in doubt, NOT presume abort — the coordinator could
  // still decide commit.
  server_.crash();
  server_.restart();
  EXPECT_EQ(server_.in_doubt_count(), 1u);

  // Once the coordinator finishes without a commit record, presumed abort
  // applies: the abort message itself resolves the marker synchronously.
  a.abort();
  EXPECT_EQ(server_.in_doubt_count(), 0u);
  EXPECT_FALSE(server_.runtime().default_store().read(obj.uid()).has_value());
  EXPECT_TRUE(server_.runtime().default_store().shadow_uids().empty());
}

TEST_F(DistTest, InvokeOutsideActionThrows) {
  RecoverableInt obj(server_.runtime(), 0);
  server_.host(obj);
  RemoteInt remote(client_, server_.id(), obj.uid());
  EXPECT_THROW((void)remote.value(), std::logic_error);
}

TEST_F(DistTest, InvokeUnknownObjectIsRemoteError) {
  AtomicAction a(client_.runtime());
  a.begin();
  RemoteInt ghost(client_, server_.id(), Uid());
  EXPECT_THROW((void)ghost.value(), RemoteError);
  a.abort();
}

TEST_F(DistTest, UnreachableNodeThrowsNodeUnreachable) {
  client_.set_invoke_timeout(std::chrono::milliseconds(200));
  AtomicAction a(client_.runtime());
  a.begin();
  RemoteInt ghost(client_, 77, Uid());  // no node 77 exists
  EXPECT_THROW((void)ghost.value(), NodeUnreachable);
  a.abort();
}

}  // namespace
}  // namespace mca
