// The coordination-free commutative commit, end to end (DESIGN.md §5.9).
//
// A top-level action whose write set is entirely commutative deltas skips
// the prepare/vote round: the coordinator logs one Delta record (the redo
// batches, per node), fans a single `tx.delta` out to every armed
// participant, and retires the record once every batch is acked. This suite
// covers the distributed behaviour the unit tests can't:
//
//   * the one-phase commit across three WalStore-backed nodes — values
//     land, no prepared markers, no base ObjectState (chain records only),
//     no surviving coordinator-log record;
//   * the single-site skip: a purely local delta action writes no Delta
//     record at all (the chain append is the atomic event);
//   * idempotence: a retransmitted batch dedups against the chain;
//   * the mixed-action fallback: one classical write anywhere demotes the
//     whole action to 2PC, atomically, each participant's tally folding at
//     its commit and its batch riding its prepared marker, which a
//     participant killed in phase two redoes it from;
//   * the three delta crash windows (`tpc.delta.pre_apply`,
//     `tpc.delta.post_apply_pre_ack`, `store.delta.mid_append`), sweep
//     style: kill, restart, reconcile, converge;
//   * a coordinator killed mid-fan-out: its Delta record is the redo
//     source on restart.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "call_counter.h"
#include "dist/remote.h"
#include "objects/commutative_counter.h"
#include "objects/recoverable_int.h"
#include "sim/crash_points.h"
#include "storage/wal_store.h"
#include "sim/network.h"

namespace mca {
namespace {

using namespace std::chrono_literals;
namespace fs = std::filesystem;

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

constexpr std::int64_t kInitial = 100;
constexpr std::int64_t kDelta = 5;

// Coordinator node 1 with a local counter, participants 2 and 3 hosting one
// counter each, every node on its own WalStore.
struct DeltaCluster {
  TempDir dir;
  Network net;
  WalStore c_store, p1_store, p2_store;
  DistNode c, p1, p2;
  CommutativeCounter local, a, b;

  explicit DeltaCluster(const std::string& tag)
      : dir(fs::temp_directory_path() / ("mca_commutative_" + tag + "_" + Uid().to_string())),
        net(fast_config()),
        c_store(dir.path / "c"),
        p1_store(dir.path / "p1"),
        p2_store(dir.path / "p2"),
        c(net, 1, &c_store),
        p1(net, 2, &p1_store),
        p2(net, 3, &p2_store),
        local(c.runtime(), kInitial),
        a(p1.runtime(), kInitial),
        b(p2.runtime(), kInitial) {
    for (DistNode* n : nodes()) {
      n->set_recovery_options(DistNode::RecoveryOptions{/*period=*/50ms,
                                                        /*call_timeout=*/200ms,
                                                        /*backoff_max=*/200ms});
      n->set_tpc_call_timeout(300ms);
      n->set_invoke_timeout(2'000ms);
    }
    c.host(local);
    p1.host(a);
    p2.host(b);
  }

  std::vector<DistNode*> nodes() { return {&c, &p1, &p2}; }

  void signal_heal_all() {
    for (DistNode* x : nodes()) {
      for (DistNode* y : nodes()) {
        if (x != y) x->rpc().reset_peer_health(y->id());
      }
      x->kick_recovery();
    }
  }

  // Committed value of `counter`, read under a fresh action on its runtime.
  static std::int64_t committed(Runtime& rt, CommutativeCounter& counter) {
    AtomicAction check(rt);
    check.begin();
    const std::int64_t v = counter.committed_value();
    check.commit();
    return v;
  }
};

// ---------------------------------------------------------------------------
// The one-phase commit
// ---------------------------------------------------------------------------

TEST(CommutativeCommit, FastPathCommitsAcrossThreeNodes) {
  DeltaCluster cl("threenode");
  Uid action;
  {
    AtomicAction act(cl.c.runtime());
    act.begin();
    action = act.uid();
    cl.local.add(kDelta);
    RemoteCounter ra(cl.c, cl.p1.id(), cl.a.uid());
    RemoteCounter rb(cl.c, cl.p2.id(), cl.b.uid());
    ra.add(kDelta);
    rb.add(kDelta);
    ASSERT_EQ(act.commit(), Outcome::Committed);
  }

  EXPECT_EQ(DeltaCluster::committed(cl.c.runtime(), cl.local), kInitial + kDelta);
  EXPECT_EQ(DeltaCluster::committed(cl.p1.runtime(), cl.a), kInitial + kDelta);
  EXPECT_EQ(DeltaCluster::committed(cl.p2.runtime(), cl.b), kInitial + kDelta);

  // One-phase means one-phase: no prepared markers were ever written, the
  // counters persisted as O(delta) chain records — no base ObjectState —
  // and the coordinator's Delta record retired with the last ack.
  EXPECT_EQ(cl.p1.in_doubt_count(), 0u);
  EXPECT_EQ(cl.p2.in_doubt_count(), 0u);
  EXPECT_FALSE(cl.p1.runtime().default_store().read(cl.a.uid()).has_value());
  EXPECT_FALSE(cl.p2.runtime().default_store().read(cl.b.uid()).has_value());
  EXPECT_EQ(cl.a.delta_chain_length(), 1u);
  EXPECT_EQ(cl.b.delta_chain_length(), 1u);
  EXPECT_FALSE(
      CoordinatorLogParticipant::read_record(cl.c.runtime(), action).has_value());
  EXPECT_TRUE(wait_until([&] { return cl.p1.participants().mirror_count() == 0; }, 2'000ms));
  EXPECT_TRUE(wait_until([&] { return cl.p2.participants().mirror_count() == 0; }, 2'000ms));

  // Durability: both participants reboot from their stores alone.
  cl.p1.crash();
  cl.p1.restart();
  cl.signal_heal_all();
  EXPECT_EQ(DeltaCluster::committed(cl.p1.runtime(), cl.a), kInitial + kDelta);
}

TEST(CommutativeCommit, SingleSiteFastPathSkipsTheDeltaRecord) {
  // A purely local, single-object delta action: the chain append IS the
  // atomic event, so no coordinator-log record is ever written.
  Runtime rt;
  CommutativeCounter counter(rt, kInitial);
  Uid action;
  {
    AtomicAction act(rt);
    act.begin();
    action = act.uid();
    counter.add(kDelta);
    ASSERT_EQ(act.commit(), Outcome::Committed);
  }
  EXPECT_EQ(counter.delta_chain_length(), 1u);
  EXPECT_TRUE(CoordinatorLogParticipant::logged_actions(rt).empty());
  EXPECT_FALSE(CoordinatorLogParticipant::read_record(rt, action).has_value());
}

TEST(CommutativeCommit, RetransmittedBatchDedupsAgainstTheChain) {
  DeltaCluster cl("retransmit");
  Uid action;
  {
    AtomicAction act(cl.c.runtime());
    act.begin();
    action = act.uid();
    RemoteCounter ra(cl.c, cl.p1.id(), cl.a.uid());
    ra.add(kDelta);
    ASSERT_EQ(act.commit(), Outcome::Committed);
  }
  ASSERT_EQ(DeltaCluster::committed(cl.p1.runtime(), cl.a), kInitial + kDelta);
  ASSERT_EQ(cl.a.delta_chain_length(), 1u);

  // A lost ack makes the coordinator re-ship the same batch (the mirror is
  // long retired, so this exercises the resolver path). Wire format: one
  // add op, [u8 op=1][i64 delta].
  ByteBuffer ops;
  ops.pack_u8(1);
  ops.pack_i64(kDelta);
  const auto bytes = ops.bytes();
  std::vector<wire::DeltaEntry> batch{
      {cl.a.uid(), std::vector<std::byte>(bytes.begin(), bytes.end())}};
  cl.p1.participants().commit_delta(action, batch);
  cl.p1.participants().commit_delta(action, batch);

  EXPECT_EQ(DeltaCluster::committed(cl.p1.runtime(), cl.a), kInitial + kDelta);
  EXPECT_EQ(cl.a.delta_chain_length(), 1u);
}

// ---------------------------------------------------------------------------
// The mixed-action fallback
// ---------------------------------------------------------------------------

TEST(CommutativeCommit, MixedActionFallsBackToClassicalAtomically) {
  // One classical write anywhere demotes the whole action: the counter's
  // tally folds at the participant's commit instead of a tx.delta, and both
  // updates land (or neither — the aborted sibling proves the other half).
  DeltaCluster cl("mixed");
  RecoverableInt ledger(cl.p2.runtime(), 0);
  cl.p2.host(ledger);

  Uid action;
  {
    AtomicAction act(cl.c.runtime());
    act.begin();
    action = act.uid();
    RemoteCounter ra(cl.c, cl.p1.id(), cl.a.uid());
    RemoteInt rl(cl.c, cl.p2.id(), ledger.uid());
    ra.add(kDelta);
    rl.add(1);  // snapshot write: undo record on the p2 mirror
    ASSERT_EQ(act.commit(), Outcome::Committed);
  }
  EXPECT_EQ(DeltaCluster::committed(cl.p1.runtime(), cl.a), kInitial + kDelta);
  {
    AtomicAction check(cl.p2.runtime());
    check.begin();
    EXPECT_EQ(ledger.value(), 1);
    check.commit();
  }
  // Classical decision record, not a fast-path Delta one.
  EXPECT_TRUE(CoordinatorLogParticipant::committed(cl.c.runtime(), action));

  // The aborted sibling: compensation discards the tally, the undo record
  // rolls the int back, nothing changes.
  {
    AtomicAction act(cl.c.runtime());
    act.begin();
    RemoteCounter ra(cl.c, cl.p1.id(), cl.a.uid());
    RemoteInt rl(cl.c, cl.p2.id(), ledger.uid());
    ra.add(1'000);
    rl.add(1'000);
    act.abort();
  }
  EXPECT_TRUE(wait_until([&] { return cl.p1.participants().mirror_count() == 0; }, 2'000ms));
  EXPECT_EQ(DeltaCluster::committed(cl.p1.runtime(), cl.a), kInitial + kDelta);
  {
    AtomicAction check(cl.p2.runtime());
    check.begin();
    EXPECT_EQ(ledger.value(), 1);
    check.commit();
  }
}

TEST(CommutativeCommit, MixedActionOnOneNodeStaysAtomic) {
  // Both objects on the same participant: the invoke reply framing marks
  // the action classical (kind 2) the moment the int's undo record exists,
  // and the counter's tally folds exactly once at the participant's commit.
  DeltaCluster cl("mixedone");
  RecoverableInt ledger(cl.p1.runtime(), 0);
  cl.p1.host(ledger);
  {
    AtomicAction act(cl.c.runtime());
    act.begin();
    RemoteCounter ra(cl.c, cl.p1.id(), cl.a.uid());
    RemoteInt rl(cl.c, cl.p1.id(), ledger.uid());
    ra.add(kDelta);
    rl.add(1);
    ra.add(kDelta);  // delta after the demotion, same tally
    ASSERT_EQ(act.commit(), Outcome::Committed);
  }
  EXPECT_EQ(DeltaCluster::committed(cl.p1.runtime(), cl.a), kInitial + 2 * kDelta);
  {
    AtomicAction check(cl.p1.runtime());
    check.begin();
    EXPECT_EQ(ledger.value(), 1);
    check.commit();
  }
  EXPECT_EQ(cl.a.pending_actions(), 0u);
}

// ---------------------------------------------------------------------------
// The delta crash windows, sweep style
// ---------------------------------------------------------------------------

// A two-node cluster (coordinator + one participant) makes every window
// deterministic: with no local tallies on the coordinator, the armed point
// can only fire inside the participant's tx.delta handler. The nodes talk
// through a CallCounter, so a case can count the coordinator's calls.
struct TwoNodeCluster {
  TempDir dir;
  Network net;
  CallCounter wire;
  WalStore c_store, p1_store;
  DistNode c, p1;
  CommutativeCounter a;

  explicit TwoNodeCluster(const std::string& tag)
      : dir(fs::temp_directory_path() / ("mca_commutative_" + tag + "_" + Uid().to_string())),
        net(fast_config()),
        wire(net),
        c_store(dir.path / "c"),
        p1_store(dir.path / "p1"),
        c(wire, 1, &c_store),
        p1(wire, 2, &p1_store),
        a(p1.runtime(), kInitial) {
    for (DistNode* n : {&c, &p1}) {
      n->set_recovery_options(DistNode::RecoveryOptions{/*period=*/50ms,
                                                        /*call_timeout=*/200ms,
                                                        /*backoff_max=*/200ms});
      n->set_tpc_call_timeout(300ms);
      n->set_invoke_timeout(2'000ms);
    }
    p1.host(a);
  }

  void signal_heal_all() {
    c.rpc().reset_peer_health(p1.id());
    p1.rpc().reset_peer_health(c.id());
    c.kick_recovery();
    p1.kick_recovery();
  }
};

class DeltaWindowSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(DeltaWindowSweep, ParticipantKilledInTheWindowConverges) {
  crash_points::reset();
  TwoNodeCluster cl("window");
  // The coordinator's reconciliation re-ships an unacked batch in calls of
  // its own: hold its recovery pass off until the phase-two call is counted.
  const DistNode::RecoveryOptions recovery = cl.c.recovery_options();
  cl.c.set_recovery_options(DistNode::RecoveryOptions{/*period=*/1h, recovery.call_timeout,
                                                      recovery.backoff_max});
  crash_points::arm(GetParam(), 0);

  Uid action;
  {
    AtomicAction act(cl.c.runtime());
    act.begin();
    action = act.uid();
    RemoteCounter ra(cl.c, cl.p1.id(), cl.a.uid());
    ra.add(kDelta);
    // The kill happens server-side inside the tx.delta handler; the
    // coordinator's one tx.delta call times out against a dead node, the
    // Delta record stays, and the commit still succeeds — the decision was
    // durable before the fan-out began.
    ASSERT_EQ(act.commit(), Outcome::Committed);
  }
  ASSERT_EQ(crash_points::last_fired().value_or("<none>"), GetParam())
      << "the armed window never executed";
  crash_points::disarm_all();
  ASSERT_FALSE(cl.p1.up()) << "the fired crash point killed no node";
  EXPECT_EQ(cl.wire.calls("tx.delta", cl.p1.id()), 1u) << "phase two is one exchange";
  ASSERT_TRUE(CoordinatorLogParticipant::read_record(cl.c.runtime(), action).has_value())
      << "the undelivered batch must keep its redo record";
  cl.c.set_recovery_options(recovery);

  // Reboot the participant; the coordinator's reconciliation re-ships the
  // batch (idempotently — post_apply_pre_ack already persisted it) and
  // retires the record.
  cl.p1.restart();
  cl.signal_heal_all();
  ASSERT_TRUE(wait_until(
      [&] {
        return !CoordinatorLogParticipant::read_record(cl.c.runtime(), action).has_value();
      },
      15'000ms))
      << "delta record never retired after re-ship";
  EXPECT_EQ(DeltaCluster::committed(cl.p1.runtime(), cl.a), kInitial + kDelta);
  EXPECT_EQ(cl.p1.in_doubt_count(), 0u);
  EXPECT_EQ(cl.p1.participants().mirror_count(), 0u);
  EXPECT_EQ(cl.p1.runtime().lock_manager().locked_object_count(), 0u);
}

std::string window_name(const ::testing::TestParamInfo<const char*>& info) {
  std::string name = info.param;
  for (char& ch : name) {
    if (ch == '.') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(DeltaWindows, DeltaWindowSweep,
                         ::testing::Values("tpc.delta.pre_apply",
                                           "tpc.delta.post_apply_pre_ack",
                                           "store.delta.mid_append"),
                         window_name);

// A mixed action's commutative part has no shadow, so the tally-only
// participant's prepared marker carries its batch. Killed in its tx.commit
// handler before the tally folds (pre_promote) or after (pre_marker_drop),
// and back only once commit() has returned, the participant pulls the
// outcome and redoes the batch from the marker, exactly once.
class MixedPhaseTwoSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(MixedPhaseTwoSweep, TallyOnlyParticipantRedoesItsBatchFromTheMarker) {
  crash_points::reset();
  TwoNodeCluster cl("mixedkill");
  RecoverableInt z(cl.c.runtime(), kInitial);
  crash_points::arm(GetParam(), 0);
  {
    AtomicAction act(cl.c.runtime());
    act.begin();
    z.add(-kDelta);  // classical: the action takes the two-phase path
    RemoteCounter(cl.c, cl.p1.id(), cl.a.uid()).add(kDelta);
    ASSERT_EQ(act.commit(), Outcome::Committed);
  }
  ASSERT_EQ(crash_points::last_fired().value_or("<none>"), GetParam())
      << "the armed window never executed";
  crash_points::disarm_all();
  ASSERT_FALSE(cl.p1.up()) << "the fired crash point killed no node";
  EXPECT_EQ(cl.wire.calls("tx.commit", cl.p1.id()), 1u);
  EXPECT_EQ(cl.p1.in_doubt_count(), 1u);

  cl.p1.restart();
  cl.signal_heal_all();
  ASSERT_TRUE(wait_until([&] { return cl.p1.in_doubt_count() == 0; }, 15'000ms));
  EXPECT_EQ(cl.wire.calls("tx.commit", cl.p1.id()), 1u);
  EXPECT_EQ(DeltaCluster::committed(cl.p1.runtime(), cl.a), kInitial + kDelta);
  EXPECT_EQ(cl.a.delta_chain_length(), 1u);
  EXPECT_EQ(cl.p1.participants().mirror_count(), 0u);
  EXPECT_EQ(cl.p1.runtime().lock_manager().locked_object_count(), 0u);
  AtomicAction check(cl.c.runtime());
  check.begin();
  EXPECT_EQ(z.value(), kInitial - kDelta);
  check.commit();
}

INSTANTIATE_TEST_SUITE_P(CommitWindows, MixedPhaseTwoSweep,
                         ::testing::Values("tpc.participant.commit.pre_promote",
                                           "tpc.participant.commit.pre_marker_drop"),
                         window_name);

TEST(CommutativeCommit, CoordinatorKilledMidFanOutReShipsFromItsRecord) {
  // The Delta record is the redo source: decide_delta makes it durable
  // before a single batch is applied anywhere. The coordinator's own local
  // tally is the first participant started, so the armed append window
  // fires on its fold — after the record landed, before any tx.delta was
  // shipped. Restart reconciliation re-applies the local batch from the
  // record and re-ships the remote ones, then retires it.
  crash_points::reset();
  DeltaCluster cl("coordkill");
  crash_points::arm("store.delta.mid_append", 0);
  Uid action;
  {
    AtomicAction act(cl.c.runtime());
    act.begin();
    action = act.uid();
    bool killed = false;
    try {
      cl.local.add(kDelta);
      RemoteCounter ra(cl.c, cl.p1.id(), cl.a.uid());
      RemoteCounter rb(cl.c, cl.p2.id(), cl.b.uid());
      ra.add(kDelta);
      rb.add(kDelta);
      (void)act.commit();
    } catch (const CrashPointHit&) {
      cl.c.crash();
      act.abandon();
      killed = true;
    }
    ASSERT_TRUE(killed) << "the armed window never executed";
  }
  crash_points::disarm_all();
  ASSERT_TRUE(CoordinatorLogParticipant::read_record(cl.c.runtime(), action).has_value());

  cl.c.restart();
  cl.signal_heal_all();
  ASSERT_TRUE(wait_until(
      [&] {
        return !CoordinatorLogParticipant::read_record(cl.c.runtime(), action).has_value();
      },
      15'000ms))
      << "delta record never reconciled after restart";
  EXPECT_EQ(DeltaCluster::committed(cl.c.runtime(), cl.local), kInitial + kDelta);
  EXPECT_EQ(DeltaCluster::committed(cl.p1.runtime(), cl.a), kInitial + kDelta);
  EXPECT_EQ(DeltaCluster::committed(cl.p2.runtime(), cl.b), kInitial + kDelta);
}

// ---------------------------------------------------------------------------
// Concurrency payoff: the property the whole fast path exists for
// ---------------------------------------------------------------------------

TEST(CommutativeCommit, ConcurrentRemoteAddersDoNotConflict) {
  // Four clients hammer one hosted counter concurrently; with Commutative
  // locks none of them waits on another, and every committed increment is
  // in the final total.
  DeltaCluster cl("concurrent");
  constexpr int kClients = 4;
  constexpr int kIncrements = 10;
  std::vector<std::unique_ptr<DistNode>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<DistNode>(cl.net, static_cast<NodeId>(10 + i)));
  }
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&clients, &cl, i] {
        RemoteCounter remote(*clients[static_cast<std::size_t>(i)], cl.p1.id(), cl.a.uid());
        for (int j = 0; j < kIncrements; ++j) {
          AtomicAction act(clients[static_cast<std::size_t>(i)]->runtime());
          act.begin();
          remote.add(1);
          ASSERT_EQ(act.commit(), Outcome::Committed);
        }
      });
    }
  }
  EXPECT_EQ(DeltaCluster::committed(cl.p1.runtime(), cl.a),
            kInitial + kClients * kIncrements);

  // And the chain replays to the same total after a full power cycle.
  cl.p1.crash();
  cl.p1.restart();
  cl.signal_heal_all();
  EXPECT_EQ(DeltaCluster::committed(cl.p1.runtime(), cl.a),
            kInitial + kClients * kIncrements);
}

}  // namespace
}  // namespace mca
