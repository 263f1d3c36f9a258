// Crash-point sweep: kill-at-every-window testing of 2PC + recovery.
//
// The canonical workload is a two-participant transfer — a@node2 -= 10,
// b@node3 += 10, coordinated by node 1, every node backed by a WalStore in
// a fresh temp directory. The sweep arms one crash point per case (the
// skip'th hit selects which node dies when a window executes once per
// participant), drives the transfer into it, restarts whatever died, lets
// recovery converge, and then asserts the full invariant battery:
//
//   * the outcome matches the decision rule (coordinator log durable =>
//     commit; anything else => presumed abort),
//   * both accounts sit on the same side of the outcome (all-or-nothing),
//   * no in-doubt markers, locks, mirrors, shadows, stale .tmp files, or
//     log segments or checkpoints that fail their frame walk anywhere
//     (sim/consistency_check).
//
// When the coordinator is the victim the driver power-cycles the
// participants too: a mirror whose action never reached phase one is
// volatile garbage only a restart clears (orphan killing proper is a
// roadmap item), and restarting from the stable store alone is exactly the
// property under test.
//
// Also here: registry unit tests, a seeded multi-crash chaos mode, the
// double-kill recovery-window cases, the covered-prepare windows (a node's
// prepared append torn with the shadow riding it), the lazy phase-two
// windows (a node reported the commit, then lost the writes its durable
// record covers), phase two as one exchange (a participant killed in it
// gets one tx.commit call and pulls the outcome once it is back; a nested
// commit partitioned in it still passes its colour to the encloser), a live
// coordinator's own recovery pass racing its
// witnessed decision, and a regression proving the checker catches the
// half-applied state a marker-before-shadows mutation leaves.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <optional>
#include <random>
#include <thread>

#include "call_counter.h"
#include "dist/remote.h"
#include "objects/recoverable_int.h"
#include "sim/consistency_check.h"
#include "sim/crash_points.h"
#include "storage/faulty_store.h"
#include "storage/memory_store.h"
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

constexpr std::int64_t kInitial = 100;
constexpr std::int64_t kDelta = 10;

// Created before (destroyed after) everything that lives inside it.
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

// A WalStore starts its committer on its first write, and that thread
// flushes whatever is queued straight away, so a covered shadow written
// first could get a flush of its own. One waited write warms each log, so
// the flushes the append-window cases count are the transfer's own; fsck()
// then waits out the checkpoint it starts under a one-byte threshold, so the
// checkpoint-window cases' kill lands in one of the transfer's checkpoints.
void warm(WalStore& store) {
  store.write(ObjectState(Uid(), "Warm", ByteBuffer()));
  (void)store.fsck();
}

// Coordinator node 1, participants 2 and 3, each on a WalStore of its own.
// Node 3's store is wrapped in a FaultyStore so a case can make it veto
// phase one (clean NO vote) and push the coordinator down the abort path.
// With `coordinator_account`, node 1 also hosts `z` and counts the transfers
// it runs there, so the coordinator writes a shadow of its own at prepare
// and promotes it in phase two.
struct Cluster {
  TempDir dir;
  Network net;
  WalStore c_store, p1_store, p2_wal;
  std::shared_ptr<std::atomic<bool>> veto_p2;
  FaultyStore p2_store;
  DistNode c, p1, p2;
  RecoverableInt a, b;
  std::optional<RecoverableInt> z;

  // The directory embeds a fresh Uid: ctest runs sweep cases as concurrent
  // processes, which must not share (and remove_all) each other's stores.
  explicit Cluster(const std::string& tag, WalStore::Options store_options = {},
                   bool coordinator_account = false)
      : dir(fs::temp_directory_path() / ("mca_crash_sweep_" + tag + "_" + Uid().to_string())),
        net(fast_config()),
        c_store(dir.path / "c", store_options),
        p1_store(dir.path / "p1", store_options),
        p2_wal(dir.path / "p2", store_options),
        veto_p2(std::make_shared<std::atomic<bool>>(false)),
        p2_store(p2_wal,
                 [flag = veto_p2](FaultyStore::Op op, const Uid&) {
                   return flag->load() && op == FaultyStore::Op::WriteShadow;
                 }),
        c(net, 1, &c_store),
        p1(net, 2, &p1_store),
        p2(net, 3, &p2_store),
        a(p1.runtime(), kInitial),
        b(p2.runtime(), kInitial) {
    for (DistNode* n : nodes()) {
      n->set_recovery_options(DistNode::RecoveryOptions{/*period=*/50ms,
                                                        /*call_timeout=*/200ms,
                                                        /*backoff_max=*/200ms});
      n->set_tpc_call_timeout(300ms);
      n->set_invoke_timeout(2'000ms);
    }
    p1.host(a);
    p2.host(b);
    if (coordinator_account) c.host(z.emplace(c.runtime(), kInitial));
    warm(c_store);
    warm(p1_store);
    warm(p2_wal);
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

  [[nodiscard]] std::size_t total_in_doubt() {
    return c.in_doubt_count() + p1.in_doubt_count() + p2.in_doubt_count();
  }

  // Committed value of the int at `rt`, or the construction value if the
  // transaction never made one permanent.
  static std::int64_t stored(Runtime& rt, const Uid& uid) {
    auto state = rt.default_store().read(uid);
    if (!state) return kInitial;
    ByteBuffer buf = state->state();
    return buf.unpack_i64();
  }

  // The full post-convergence invariant battery.
  void check(const Uid& action, ConsistencyReport& report) {
    consistency::check_node(c, report);
    consistency::check_node(p1, report);
    consistency::check_node(p2, report);
    // Node 3's real store hides behind the FaultyStore decorator, invisible
    // to check_node's dynamic_cast: fsck it directly.
    for (const auto& path : p2_wal.fsck()) {
      report.violations.push_back("node 3: corrupt durable state: " +
                                  path.filename().string());
    }
    std::vector<consistency::ValueObservation> observations = {
        {"a@node2", stored(p1.runtime(), a.uid()), kInitial, kInitial - kDelta},
        {"b@node3", stored(p2.runtime(), b.uid()), kInitial, kInitial + kDelta}};
    if (z) {
      observations.push_back({"z@node1", stored(c.runtime(), z->uid()), kInitial, kInitial + 1});
    }
    consistency::check_atomic_outcome(c.runtime(), action, observations, report);
  }

  // Runs the transfer; a coordinator-side CrashPointHit kills node 1 and
  // abandons the action. Returns the action uid.
  Uid run_transfer() {
    AtomicAction act(c.runtime());
    act.begin();
    const Uid uid = act.uid();
    try {
      RemoteInt ra(c, p1.id(), a.uid());
      RemoteInt rb(c, p2.id(), b.uid());
      ra.add(-kDelta);
      rb.add(kDelta);
      if (z) z->add(1);
      (void)act.commit();
    } catch (const CrashPointHit&) {
      c.crash();
      act.abandon();
    }
    return uid;
  }

  // A kill inside a WalStore flush no writer waits on (lazy phase-two
  // records only), or inside a checkpoint, fires on a store thread (the
  // committer, the checkpointer) that no node-kill catcher unwinds through:
  // the store only wedges. This plays the process death the kill stands for
  // — it crashes every up node whose log it tore. Returns whether it crashed
  // any. Only lazy sweep cases call it: a kill in a waited flush must take
  // its node down through the waiting writer.
  bool crash_nodes_with_wedged_logs() {
    bool crashed = false;
    const std::pair<DistNode*, const WalStore*> logs[] = {
        {&c, &c_store}, {&p1, &p1_store}, {&p2, &p2_wal}};
    for (const auto& [node, log] : logs) {
      if (node->up() && log->wedged()) {
        node->crash();
        crashed = true;
      }
    }
    return crashed;
  }

  // Brings every down node back; if the coordinator was the victim, the
  // participants are power-cycled too (see the file comment).
  void recover_cluster() {
    if (!c.up()) {
      if (p1.up()) p1.crash();
      if (p2.up()) p2.crash();
    }
    for (DistNode* n : nodes()) {
      if (!n->up()) n->restart();
    }
    signal_heal_all();
  }
};

// ---------------------------------------------------------------------------
// Registry unit tests
// ---------------------------------------------------------------------------

TEST(CrashPoints, TableCoversTheProtocol) {
  EXPECT_GE(crash_points::all().size(), 12u);
  for (const auto& info : crash_points::all()) {
    EXPECT_NE(info.name, nullptr);
    EXPECT_GT(std::string_view(info.window).size(), 0u) << info.name;
  }
}

TEST(CrashPoints, ArmingUnknownPointThrows) {
  EXPECT_THROW(crash_points::arm("tpc.participant.no_such_window"), std::invalid_argument);
}

TEST(CrashPoints, UnarmedHitsAreInvisible) {
  crash_points::reset();
  EXPECT_FALSE(crash_points::any_armed());
  MCA_CRASHPOINT("tpc.coord.phase1.pre_send");  // must not reach the registry
  EXPECT_EQ(crash_points::hit_count("tpc.coord.phase1.pre_send"), 0u);
  EXPECT_FALSE(crash_points::last_fired().has_value());
}

TEST(CrashPoints, SkipSelectsTheHitAndFiringDisarms) {
  crash_points::reset();
  int fired = 0;
  crash_points::arm("tpc.coord.phase1.pre_send", /*skip=*/2, [&] { ++fired; });
  for (int i = 0; i < 5; ++i) MCA_CRASHPOINT("tpc.coord.phase1.pre_send");
  EXPECT_EQ(fired, 1);  // third hit fired, one-shot: later hits pass through
  EXPECT_EQ(crash_points::fire_count("tpc.coord.phase1.pre_send"), 1u);
  // Hits 4 and 5 land after the fire disarmed everything, so the macro went
  // back to its unarmed fast path and they were never counted.
  EXPECT_EQ(crash_points::hit_count("tpc.coord.phase1.pre_send"), 3u);
  EXPECT_FALSE(crash_points::any_armed());
  EXPECT_EQ(crash_points::last_fired().value_or(""), "tpc.coord.phase1.pre_send");
  crash_points::reset();
}

TEST(CrashPoints, DefaultActionThrowsOutsideTheStdExceptionHierarchy) {
  crash_points::reset();
  crash_points::arm("tpc.participant.post_shadow_pre_marker");
  bool tunnelled = false;
  try {
    try {
      MCA_CRASHPOINT("tpc.participant.post_shadow_pre_marker");
    } catch (const std::exception&) {
      FAIL() << "CrashPointHit must tunnel through catch(std::exception)";
    }
  } catch (const CrashPointHit& hit) {
    tunnelled = true;
    EXPECT_EQ(hit.point(), "tpc.participant.post_shadow_pre_marker");
  }
  EXPECT_TRUE(tunnelled);
  crash_points::reset();
}

// ---------------------------------------------------------------------------
// The sweep proper
// ---------------------------------------------------------------------------

struct SweepCase {
  const char* point;
  unsigned skip;
  bool commits;  // expected outcome once the dust settles
  bool veto;     // node 3 vetoes phase one, forcing the abort path
  // The window is on a store thread no writer waits in — a WAL flush of
  // lazy phase-two records, or a checkpoint: the kill fires on the
  // committer or the checkpointer, possibly after commit() returned, and
  // only wedges the log (crash_nodes_with_wedged_logs).
  bool lazy = false;
};

std::ostream& operator<<(std::ostream& os, const SweepCase& c) {
  return os << c.point << " skip=" << c.skip << (c.veto ? " (veto)" : "");
}

const SweepCase kSweepCases[] = {
    // Phase-one participant kills: the vote never arrives, presumed abort.
    {"tpc.participant.prepare.pre_shadow", 0, false, false},
    {"tpc.participant.prepare.pre_shadow", 1, false, false},
    {"tpc.participant.post_shadow_pre_marker", 0, false, false},
    {"tpc.participant.post_shadow_pre_marker", 1, false, false},
    {"tpc.participant.prepare.post_marker", 0, false, false},
    {"tpc.participant.prepare.post_marker", 1, false, false},
    // Coordinator kills around the decision point.
    {"tpc.coord.phase1.pre_send", 0, false, false},
    {"tpc.coord.post_prepare_pre_log", 0, false, false},
    {"tpc.coord.post_log_pre_phase2", 0, true, false},
    {"tpc.coord.commit.pre_send", 0, true, false},
    {"tpc.coord.commit.pre_send", 1, true, false},
    // Phase-two participant kills: the decision is durable, commit must
    // survive the restart.
    {"tpc.participant.commit.pre_promote", 0, true, false},
    {"tpc.participant.commit.pre_promote", 1, true, false},
    {"tpc.participant.commit.pre_marker_drop", 0, true, false},
    {"tpc.participant.commit.pre_marker_drop", 1, true, false},
    // Abort path: node 3 vetoes, node 2 holds a real prepared marker.
    {"tpc.coord.abort.pre_send", 0, false, true},
    {"tpc.participant.abort.pre_discard", 0, false, true},
    {"tpc.participant.abort.pre_marker_drop", 0, false, true},
};

class CrashSweep : public ::testing::TestWithParam<SweepCase> {};

// One sweep case: arm, transfer into the window, restart the victim,
// converge, run the invariant battery.
void run_kill_window_case(const SweepCase& sc, WalStore::Options store_options = {},
                          bool coordinator_account = false) {
  crash_points::reset();
  Cluster cl("sweep", store_options, coordinator_account);
  cl.veto_p2->store(sc.veto);

  crash_points::arm(sc.point, sc.skip);
  const Uid action = cl.run_transfer();

  if (sc.lazy) {
    ASSERT_TRUE(wait_until([] { return crash_points::last_fired().has_value(); }, 5'000ms))
        << "the armed window never executed";
  }
  ASSERT_EQ(crash_points::last_fired().value_or("<none>"), sc.point)
      << "the armed window never executed";
  crash_points::disarm_all();
  cl.veto_p2->store(false);

  if (sc.lazy) {
    // The harness crashes the node whose log the kill wedged, unless that
    // node's next write already rethrew the kill and took it down.
    ASSERT_TRUE(wait_until(
        [&] {
          return cl.crash_nodes_with_wedged_logs() || !cl.c.up() || !cl.p1.up() || !cl.p2.up();
        },
        5'000ms))
        << "the fired crash point wedged no log";
  }
  const bool any_down = !cl.c.up() || !cl.p1.up() || !cl.p2.up();
  ASSERT_TRUE(any_down) << "the fired crash point killed no node";

  cl.recover_cluster();
  ASSERT_TRUE(wait_until([&] { return cl.total_in_doubt() == 0; }, 15'000ms))
      << "in-doubt markers did not drain";

  EXPECT_EQ(CoordinatorLogParticipant::committed(cl.c.runtime(), action), sc.commits);
  ConsistencyReport report;
  cl.check(action, report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_P(CrashSweep, KillWindowThenConverge) {
  run_kill_window_case(GetParam());
}

std::string sweep_case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  std::string name = info.param.point;
  for (char& ch : name) {
    if (ch == '.') ch = '_';
  }
  name += "_s" + std::to_string(info.param.skip);
  if (info.param.veto) name += "_veto";
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllWindows, CrashSweep, ::testing::ValuesIn(kSweepCases),
                         sweep_case_name);

// ---------------------------------------------------------------------------
// Kill inside the log append itself
// ---------------------------------------------------------------------------

// Here the coordinator also counts the transfer in an account of its own,
// so a transfer makes six WAL flushes. Each side's shadow rides the record
// that covers it (covered prepare): [0] and [1] are the two participants'
// prepared appends, shadow batch plus marker, in whichever order their
// handlers run; [2] is the coordinator's decision record, after every vote,
// carrying its own shadow. [3], [4] and [5] are the lazy phase-two appends,
// queued without a waiter: the coordinator's promotion plus Applied rewrite
// (asked for before tx.commit goes out, so usually first) and each
// participant's promotion plus marker drop after it acked tx.commit. Which
// committer gets there first is a race; the expected outcome is the same
// either way. A kill in those three fires on the store's committer, so the
// harness crashes the node whose log it tore (crash_nodes_with_wedged_logs);
// every other case must take its node down by itself, through the writer
// waiting on the torn flush.
const SweepCase kWalSweepCases[] = {
    // Torn mid-record: the frame fails its CRC walk on replay and the tail
    // is truncated, so the record was never written. A torn prepared append
    // loses the shadows with the marker, leaving no orphan; a torn decision
    // record [2] is no decision, and takes the coordinator's shadow with it.
    // Both presume abort.
    {"store.wal.append.mid_record", 0, false, false},
    {"store.wal.append.mid_record", 1, false, false},
    {"store.wal.append.mid_record", 2, false, false},
    // A lazy append never reached the log after the commit was reported: an
    // acked participant restarts in doubt and redoes its promotion and
    // marker drop after tx.status says commit; the coordinator redoes its
    // promotion from its Sealed record.
    {"store.wal.append.mid_record", 3, true, false, /*lazy=*/true},
    {"store.wal.append.mid_record", 4, true, false, /*lazy=*/true},
    {"store.wal.append.mid_record", 5, true, false, /*lazy=*/true},
    // Appended but never fsynced: under the simulated crash model the page
    // cache survives the kill, so the record IS durable — but the store
    // reported nothing, so the protocol never advanced. Votes that never
    // reached the coordinator still abort; a fully appended decision record
    // [2] means the decision is durable and recovery must commit, promoting
    // the coordinator's shadow from it.
    {"store.wal.append.pre_fsync", 0, false, false},
    {"store.wal.append.pre_fsync", 1, false, false},
    {"store.wal.append.pre_fsync", 2, true, false},
    // A lazy append landed whole before the kill: its node restarts with
    // nothing left to redo.
    {"store.wal.append.pre_fsync", 3, true, false, /*lazy=*/true},
    {"store.wal.append.pre_fsync", 4, true, false, /*lazy=*/true},
    {"store.wal.append.pre_fsync", 5, true, false, /*lazy=*/true},
    // Veto path with the coordinator's own account: same windows as above.
    {"tpc.coord.abort.pre_send", 0, false, true},
    {"tpc.participant.abort.pre_discard", 0, false, true},
};

class WalCrashSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(WalCrashSweep, KillWindowThenConverge) {
  run_kill_window_case(GetParam(), {}, /*coordinator_account=*/true);
}

INSTANTIATE_TEST_SUITE_P(WalWindows, WalCrashSweep, ::testing::ValuesIn(kWalSweepCases),
                         sweep_case_name);

// Checkpoint windows need a cluster whose stores checkpoint on every flush:
// a one-byte threshold hands the checkpointer a job after each flush, and
// the armed point kills the first of those jobs to reach it after arming —
// one that a participant's prepared append (shadows plus marker) started,
// or the coordinator's decision record. Either way the flush that started
// it is durable and acknowledged, so the node's vote (or the decision) has
// already left when its checkpointer dies: the kill only wedges that log.
// The harness crashes the node, or its next write rethrows the kill and
// takes it down; the transfer commits either way, and recovery must come
// back clean from whatever stage the checkpoint died at (partial .tmp,
// renamed-but-uncompacted).
class WalCheckpointWindows : public ::testing::Test {
 protected:
  static void run(const char* point) {
    WalStore::Options options;
    options.checkpoint_threshold_bytes = 1;
    run_kill_window_case(SweepCase{point, 0, /*commits=*/true, false, /*lazy=*/true}, options);
  }
};

TEST_F(WalCheckpointWindows, TornCheckpointImageIsIgnored) {
  run("store.wal.checkpoint.mid_write");
}

TEST_F(WalCheckpointWindows, UnrenamedTmpIsDiscarded) {
  run("store.wal.checkpoint.pre_rename");
}

TEST_F(WalCheckpointWindows, InterruptedCompactionCompletesOnRecovery) {
  run("store.wal.checkpoint.pre_compact");
}

// ---------------------------------------------------------------------------
// One node on a WAL: its prepared append torn (covered prepare), or its lazy
// phase-two append lost after it reported the commit (lazy phase two)
// ---------------------------------------------------------------------------

// Coordinator 1 hosts `z`, participant 2 hosts `a`; the transfer moves
// kDelta from z to a, so both sides write a shadow at prepare and promote it
// in phase two. Only the node under test runs on a WalStore (the other on a
// stable MemoryStore), so its flushes are the only ones the store.wal
// points count.
// The shadow rides the record that covers it, so each side makes two: [0]
// shadow plus prepared marker (participant), or shadow plus Sealed decision
// record (coordinator); [1] the lazy phase-two append — promotion plus
// marker drop, or promotion plus the Applied rewrite. Tearing [0] loses the
// vote or the decision with its shadow; tearing [1] loses both writes after
// the node already reported the commit.
struct LazyCluster {
  enum class OnWal { Coordinator, Participant };  // the node under test

  TempDir dir;
  Network net;
  WalStore wal;
  MemoryStore memory{StorageClass::Stable};
  ObjectStore& c_store;
  ObjectStore& p_store;
  DistNode c, p;
  RecoverableInt z, a;

  LazyCluster(const std::string& tag, OnWal on_wal)
      : dir(fs::temp_directory_path() / ("mca_crash_sweep_" + tag + "_" + Uid().to_string())),
        net(fast_config()),
        wal(dir.path / "wal"),
        c_store(on_wal == OnWal::Coordinator ? static_cast<ObjectStore&>(wal) : memory),
        p_store(on_wal == OnWal::Participant ? static_cast<ObjectStore&>(wal) : memory),
        c(net, 1, &c_store),
        p(net, 2, &p_store),
        z(c.runtime(), kInitial),
        a(p.runtime(), kInitial) {
    for (DistNode* n : {&c, &p}) {
      n->set_recovery_options(DistNode::RecoveryOptions{/*period=*/50ms,
                                                        /*call_timeout=*/200ms,
                                                        /*backoff_max=*/200ms});
      n->set_tpc_call_timeout(300ms);
      n->set_invoke_timeout(2'000ms);
    }
    c.host(z);
    p.host(a);
    warm(wal);
  }

  // Runs the transfer with store.wal.append.mid_record armed at the node
  // under test's flush [skip]. A coordinator-side kill crashes node 1 and
  // abandons the action; `outcome` is what commit() returned, if it did.
  Uid transfer_with_torn_append(unsigned skip, std::optional<Outcome>& outcome) {
    crash_points::reset();
    crash_points::arm("store.wal.append.mid_record", skip);
    AtomicAction act(c.runtime());
    act.begin();
    const Uid uid = act.uid();
    try {
      z.add(-kDelta);
      RemoteInt(c, p.id(), a.uid()).add(kDelta);
      outcome = act.commit();
    } catch (const CrashPointHit&) {
      c.crash();
      act.abandon();
    }
    return uid;
  }

  // Commits the transfer with the node under test's lazy append [1] torn,
  // and returns the action once that kill has torn it.
  Uid commit_then_tear_lazy_append() {
    std::optional<Outcome> outcome;
    const Uid uid = transfer_with_torn_append(1, outcome);
    EXPECT_EQ(outcome, Outcome::Committed);
    // The kill fires on the victim's committer thread after commit()
    // returned; it leaves the log wedged for its owner to find.
    EXPECT_TRUE(wait_until([&] { return wal.wedged(); }, 5'000ms));
    EXPECT_EQ(crash_points::fire_count("store.wal.append.mid_record"), 1u);
    crash_points::disarm_all();
    return uid;
  }

  // Both sides at `z_value` / `a_value`, no shadow left on either node, and
  // the checker clean.
  void check(std::int64_t z_value, std::int64_t a_value, ConsistencyReport& report) {
    consistency::check_node(c, report);
    consistency::check_node(p, report);
    EXPECT_EQ(Cluster::stored(c.runtime(), z.uid()), z_value);
    EXPECT_EQ(Cluster::stored(p.runtime(), a.uid()), a_value);
    EXPECT_TRUE(c_store.shadow_uids().empty());
    EXPECT_TRUE(p_store.shadow_uids().empty());
  }

  void check(ConsistencyReport& report) { check(kInitial - kDelta, kInitial + kDelta, report); }
};

TEST(CoveredPrepare, TornParticipantPreparedAppendPresumesAbortWithNoOrphanShadow) {
  LazyCluster cl("covered_participant", LazyCluster::OnWal::Participant);
  std::optional<Outcome> outcome;
  const Uid action = cl.transfer_with_torn_append(0, outcome);
  EXPECT_EQ(crash_points::last_fired().value_or("<none>"), "store.wal.append.mid_record");
  crash_points::disarm_all();

  // The marker's writer waited on the torn flush, so the kill reached the
  // tx.prepare handler and took the participant down: no vote, so the
  // coordinator aborted on its own.
  EXPECT_EQ(outcome, Outcome::Aborted);
  ASSERT_FALSE(cl.p.up());
  // The shadow was only queued ahead of the marker, in the same append: the
  // torn tail took both, so the log replays to neither and there is no
  // orphan for the restart to sweep.
  EXPECT_TRUE(wait_until([&] { return !cl.p_store.read_shadow(cl.a.uid()).has_value(); },
                         5'000ms));
  cl.p.restart();
  EXPECT_EQ(cl.p.in_doubt_count(), 0u);
  EXPECT_FALSE(CoordinatorLogParticipant::committed(cl.c.runtime(), action));
  ConsistencyReport report;
  cl.check(kInitial, kInitial, report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(CoveredPrepare, TornCoordinatorShadowAndSealedAppendAborts) {
  LazyCluster cl("covered_coordinator", LazyCluster::OnWal::Coordinator);
  std::optional<Outcome> outcome;
  const Uid action = cl.transfer_with_torn_append(0, outcome);
  EXPECT_EQ(crash_points::last_fired().value_or("<none>"), "store.wal.append.mid_record");
  crash_points::disarm_all();

  // The Sealed record's writer waited on the torn flush, so the kill
  // tunnelled out of commit(): the participant voted yes and is in doubt.
  EXPECT_FALSE(outcome.has_value());
  ASSERT_FALSE(cl.c.up());
  EXPECT_EQ(cl.p.in_doubt_count(), 1u);

  // The torn tail took the decision record with the shadow queued ahead of
  // it: the log replays to neither, so nothing is left for the restart to
  // sweep, and with no record tx.status presumes abort.
  EXPECT_FALSE(cl.c_store.read_shadow(cl.z.uid()).has_value());
  EXPECT_FALSE(CoordinatorLogParticipant::read_record(cl.c.runtime(), action).has_value());
  cl.c.restart();
  ASSERT_TRUE(wait_until([&] { return cl.p.in_doubt_count() == 0; }, 15'000ms));
  EXPECT_GE(cl.p.recovery_stats().resolved_aborted, 1u);
  ConsistencyReport report;
  cl.check(kInitial, kInitial, report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(LazyPhaseTwo, AckedParticipantRedoesLostPromotionViaTxStatus) {
  LazyCluster cl("lazy_participant", LazyCluster::OnWal::Participant);
  const Uid action = cl.commit_then_tear_lazy_append();

  // The process death the kill stands for. The log replays to "marker +
  // shadow": the participant is in doubt about a transaction it acked.
  cl.p.crash();
  EXPECT_EQ(cl.p.in_doubt_count(), 1u);
  EXPECT_TRUE(cl.p_store.read_shadow(cl.a.uid()).has_value());

  cl.p.restart();
  ASSERT_TRUE(wait_until([&] { return cl.p.in_doubt_count() == 0; }, 15'000ms));
  EXPECT_GE(cl.p.recovery_stats().resolved_committed, 1u);
  EXPECT_TRUE(CoordinatorLogParticipant::committed(cl.c.runtime(), action));
  ConsistencyReport report;
  cl.check(report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(LazyPhaseTwo, CommittedCoordinatorRedoesLostPromotionFromItsSealedRecord) {
  LazyCluster cl("lazy_coordinator", LazyCluster::OnWal::Coordinator);
  const Uid action = cl.commit_then_tear_lazy_append();

  // The log replays to "Sealed record + shadow": commit() already returned
  // Committed, but neither the promotion nor the Applied rewrite landed.
  cl.c.crash();
  const auto sealed = CoordinatorLogParticipant::read_record(cl.c.runtime(), action);
  ASSERT_TRUE(sealed.has_value());
  EXPECT_EQ(sealed->state, CoordinatorLogParticipant::RecordState::Sealed);
  EXPECT_TRUE(cl.c_store.read_shadow(cl.z.uid()).has_value());

  // Restart's synchronous recovery pass redoes the promotion and retires
  // the record.
  cl.c.restart();
  const auto applied = CoordinatorLogParticipant::read_record(cl.c.runtime(), action);
  ASSERT_TRUE(applied.has_value());
  EXPECT_EQ(applied->state, CoordinatorLogParticipant::RecordState::Applied);
  ConsistencyReport report;
  cl.check(report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// ---------------------------------------------------------------------------
// Phase two is one exchange: a dead participant gets one tx.commit call, and
// pulls the outcome itself once it is back
// ---------------------------------------------------------------------------

TEST(PhaseTwoExchange, DeadParticipantGetsOneCallThenPullsTheOutcome) {
  crash_points::reset();
  TempDir dir(fs::temp_directory_path() /
              ("mca_crash_sweep_one_exchange_" + Uid().to_string()));
  Network net(fast_config());
  CallCounter wire(net);
  WalStore c_store(dir.path / "c");
  WalStore p_store(dir.path / "p");
  DistNode c(wire, 1, &c_store);
  DistNode p(wire, 2, &p_store);
  RecoverableInt z(c.runtime(), kInitial);
  RecoverableInt a(p.runtime(), kInitial);
  for (DistNode* n : {&c, &p}) {
    n->set_recovery_options(DistNode::RecoveryOptions{/*period=*/50ms,
                                                      /*call_timeout=*/200ms,
                                                      /*backoff_max=*/200ms});
    n->set_tpc_call_timeout(300ms);
    n->set_invoke_timeout(2'000ms);
  }
  c.host(z);
  p.host(a);
  warm(c_store);
  warm(p_store);

  // The participant dies in its tx.commit handler, after the decision is
  // durable. commit() still reports the decision, having waited out one
  // call.
  crash_points::arm("tpc.participant.commit.pre_promote", 0);
  Uid action;
  {
    AtomicAction act(c.runtime());
    act.begin();
    action = act.uid();
    z.add(-kDelta);
    RemoteInt(c, p.id(), a.uid()).add(kDelta);
    ASSERT_EQ(act.commit(), Outcome::Committed);
  }
  ASSERT_EQ(crash_points::last_fired().value_or("<none>"), "tpc.participant.commit.pre_promote");
  crash_points::disarm_all();
  ASSERT_FALSE(p.up());
  EXPECT_EQ(wire.calls("tx.commit", p.id()), 1u);
  EXPECT_EQ(p.in_doubt_count(), 1u);

  // Only now does the participant come back. It still holds its prepared
  // marker, asks the coordinator with tx.status and commits; the
  // coordinator sends nothing more.
  p.restart();
  ASSERT_TRUE(wait_until([&] { return p.in_doubt_count() == 0; }, 15'000ms));
  EXPECT_GE(p.recovery_stats().resolved_committed, 1u);
  EXPECT_EQ(wire.calls("tx.commit", p.id()), 1u);
  EXPECT_TRUE(CoordinatorLogParticipant::committed(c.runtime(), action));
  EXPECT_EQ(Cluster::stored(c.runtime(), z.uid()), kInitial - kDelta);
  EXPECT_EQ(Cluster::stored(p.runtime(), a.uid()), kInitial + kDelta);
  ConsistencyReport report;
  consistency::check_node(c, report);
  consistency::check_node(p, report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// A nested action's commit passes its colour to the encloser (§5.2). The
// participant learns that heir with the vote request, so when a partition
// swallows the nested action's one tx.commit call, the commit it pulls once
// the link heals passes the nested write to the encloser's mirror, and the
// encloser's own outcome decides it. The parameter is that outcome.
class PartitionedHeir : public ::testing::TestWithParam<Outcome> {};

TEST_P(PartitionedHeir, PulledNestedCommitPassesTheWriteToTheEncloser) {
  crash_points::reset();
  TempDir dir(fs::temp_directory_path() /
              ("mca_crash_sweep_partitioned_heir_" + Uid().to_string()));
  Network net(fast_config());
  CallCounter wire(net);
  WalStore c_store(dir.path / "c");
  WalStore p_store(dir.path / "p");
  DistNode c(wire, 1, &c_store);
  DistNode p(wire, 2, &p_store);
  RecoverableInt a(p.runtime(), kInitial);
  for (DistNode* n : {&c, &p}) {
    n->set_recovery_options(DistNode::RecoveryOptions{/*period=*/50ms,
                                                      /*call_timeout=*/200ms,
                                                      /*backoff_max=*/200ms});
    n->set_tpc_call_timeout(300ms);
    n->set_invoke_timeout(2'000ms);
  }
  p.host(a);
  warm(c_store);
  warm(p_store);

  // The coordinator cuts its link to the participant on its way into the
  // nested action's phase two (a crash point that acts instead of killing).
  crash_points::arm("tpc.coord.post_log_pre_phase2", 0,
                    [&] { net.partition(c.id(), p.id()); });
  AtomicAction encloser(c.runtime());
  encloser.begin();
  {
    AtomicAction nested(c.runtime());
    nested.begin();
    RemoteInt(c, p.id(), a.uid()).add(kDelta);
    ASSERT_EQ(nested.commit(), Outcome::Committed);
  }
  ASSERT_TRUE(net.partitioned(c.id(), p.id())) << "the armed window never executed";
  crash_points::disarm_all();
  EXPECT_EQ(wire.calls("tx.commit", p.id()), 1u);
  EXPECT_EQ(p.in_doubt_count(), 1u);

  net.heal(c.id(), p.id());
  c.rpc().reset_peer_health(p.id());
  p.rpc().reset_peer_health(c.id());
  p.kick_recovery();
  ASSERT_TRUE(wait_until([&] { return p.in_doubt_count() == 0; }, 15'000ms));
  EXPECT_EQ(wire.calls("tx.commit", p.id()), 1u);
  EXPECT_TRUE(p.participants().has_mirror(encloser.uid())) << "the colour was not passed on";
  EXPECT_EQ(Cluster::stored(p.runtime(), a.uid()), kInitial) << "an inherited write is not stable";

  const Outcome outcome = GetParam();
  if (outcome == Outcome::Committed) {
    ASSERT_EQ(encloser.commit(), Outcome::Committed);
  } else {
    encloser.abort();
  }
  const std::int64_t expected = outcome == Outcome::Committed ? kInitial + kDelta : kInitial;
  {
    AtomicAction check(p.runtime());
    check.begin();
    EXPECT_EQ(a.value(), expected);
    check.commit();
  }
  EXPECT_EQ(Cluster::stored(p.runtime(), a.uid()), expected);
  EXPECT_EQ(p.participants().mirror_count(), 0u);
  EXPECT_EQ(p.runtime().lock_manager().locked_object_count(), 0u);
  ConsistencyReport report;
  consistency::check_node(c, report);
  consistency::check_node(p, report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(EncloserOutcomes, PartitionedHeir,
                         ::testing::Values(Outcome::Committed, Outcome::Aborted),
                         [](const ::testing::TestParamInfo<Outcome>& info) {
                           return std::string(info.param == Outcome::Committed ? "EncloserCommits"
                                                                               : "EncloserAborts");
                         });

// ---------------------------------------------------------------------------
// Recovery-window double kills: the node dies again *while recovering*.
// ---------------------------------------------------------------------------

class CrashRecoveryWindows : public ::testing::Test {
 protected:
  // Kills node 2 in phase two with the decision durable, leaving it in
  // doubt; returns the action uid. Phase two starts both participants'
  // tx.commit at once, so skip=0 alone would kill whichever node's handler
  // reaches the window first — this fixture needs it to be node 2. So the
  // coordinator cuts its link to node 3 on the way into phase two (a crash
  // point that acts instead of killing), and the link heals as node 2
  // dies: node 3's retransmitted tx.commit can only arrive after the
  // window has fired and disarmed.
  Uid kill_p1_in_doubt(Cluster& cl) {
    crash_points::reset();
    crash_points::arm("tpc.coord.post_log_pre_phase2", 0,
                      [&] { cl.net.partition(cl.c.id(), cl.p2.id()); });
    crash_points::arm("tpc.participant.commit.pre_promote", 0, [&] {
      cl.net.heal(cl.c.id(), cl.p2.id());
      throw CrashPointHit("tpc.participant.commit.pre_promote");
    });
    const Uid action = cl.run_transfer();
    EXPECT_FALSE(cl.net.partitioned(cl.c.id(), cl.p2.id()));
    EXPECT_EQ(crash_points::last_fired().value_or("<none>"),
              "tpc.participant.commit.pre_promote");
    EXPECT_FALSE(cl.p1.up());
    EXPECT_EQ(cl.p1.in_doubt_count(), 1u);
    return action;
  }

  void converge_and_check(Cluster& cl, const Uid& action) {
    ASSERT_TRUE(wait_until([&] { return cl.total_in_doubt() == 0; }, 15'000ms));
    EXPECT_TRUE(CoordinatorLogParticipant::committed(cl.c.runtime(), action));
    ConsistencyReport report;
    cl.check(action, report);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
};

TEST_F(CrashRecoveryWindows, KilledBetweenVerdictAndResolution) {
  Cluster cl("recovery_verdict");
  const Uid action = kill_p1_in_doubt(cl);

  // Second kill: the restart's synchronous recovery pass obtains the
  // coordinator's verdict and dies before applying it.
  crash_points::arm("node.recovery.post_status_pre_resolve", 0);
  cl.p1.restart();
  ASSERT_FALSE(cl.p1.up()) << "the recovery-window kill did not fire";
  EXPECT_EQ(cl.p1.in_doubt_count(), 1u) << "marker must survive the second kill";

  // Third boot: the point is disarmed (one-shot); recovery completes.
  cl.p1.restart();
  cl.signal_heal_all();
  converge_and_check(cl, action);
}

TEST_F(CrashRecoveryWindows, KilledAfterApplyingBeforeDroppingMarker) {
  Cluster cl("recovery_apply");
  const Uid action = kill_p1_in_doubt(cl);

  // Second kill: resolution promotes the shadow, dies with the marker still
  // on disk. The next pass must re-resolve idempotently.
  crash_points::arm("tpc.participant.resolve.post_apply_pre_marker_drop", 0);
  cl.p1.restart();
  ASSERT_FALSE(cl.p1.up()) << "the resolution-window kill did not fire";
  EXPECT_EQ(cl.p1.in_doubt_count(), 1u);

  cl.p1.restart();
  cl.signal_heal_all();
  converge_and_check(cl, action);
}

// ---------------------------------------------------------------------------
// Chaos mode: seeded double faults
// ---------------------------------------------------------------------------

TEST(CrashChaos, SeededDoubleFaultsConverge) {
  // Commit-path arms only (the veto path needs fixture cooperation).
  std::vector<SweepCase> candidates;
  for (const SweepCase& sc : kSweepCases) {
    if (!sc.veto) candidates.push_back(sc);
  }
  std::mt19937 rng(0xC0FFEE);  // fixed seed: reproducible schedule
  std::uniform_int_distribution<std::size_t> pick(0, candidates.size() - 1);

  for (int round = 0; round < 4; ++round) {
    const SweepCase first = candidates[pick(rng)];
    SweepCase second = candidates[pick(rng)];
    while (std::string_view(second.point) == first.point) {
      second = candidates[pick(rng)];
    }
    SCOPED_TRACE(::testing::Message() << "round " << round << ": " << first << " + " << second);

    crash_points::reset();
    Cluster cl("chaos" + std::to_string(round));
    crash_points::arm(first.point, first.skip);
    crash_points::arm(second.point, second.skip);
    const Uid action = cl.run_transfer();

    // The first fault can divert the flow away from the second window; at
    // least one must have fired.
    ASSERT_TRUE(crash_points::last_fired().has_value());
    crash_points::disarm_all();

    // Full power cycle: whatever subset died, the cluster must reboot from
    // stable state alone and agree on the outcome.
    for (DistNode* n : cl.nodes()) {
      if (n->up()) n->crash();
    }
    for (DistNode* n : cl.nodes()) n->restart();
    cl.signal_heal_all();

    ASSERT_TRUE(wait_until([&] { return cl.total_in_doubt() == 0; }, 15'000ms));
    ConsistencyReport report;
    cl.check(action, report);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

// ---------------------------------------------------------------------------
// Witnessed coordinator: kill the coordinator, resolve WITHOUT restarting it
// ---------------------------------------------------------------------------

// Coordinator 1 (with witnesses 4 and 5 mirroring its decision records),
// participants 2 and 3. The property under test: when the coordinator dies
// between the decision and phase two, the participants resolve their
// prepared markers from a surviving witness copy — or from the witnesses'
// sticky fences when no copy was ever mirrored — while the coordinator
// node STAYS DOWN for the whole convergence.
struct WitnessCluster {
  TempDir dir;
  Network net;
  WalStore c_store, p1_store, p2_store, w1_store, w2_store;
  DistNode c, p1, p2, w1, w2;
  RecoverableInt a, b;

  WitnessCluster()
      : dir(fs::temp_directory_path() / ("mca_crash_sweep_witness_" + Uid().to_string())),
        net(fast_config()),
        c_store(dir.path / "c"),
        p1_store(dir.path / "p1"),
        p2_store(dir.path / "p2"),
        w1_store(dir.path / "w1"),
        w2_store(dir.path / "w2"),
        c(net, 1, &c_store),
        p1(net, 2, &p1_store),
        p2(net, 3, &p2_store),
        w1(net, 4, &w1_store),
        w2(net, 5, &w2_store),
        a(p1.runtime(), kInitial),
        b(p2.runtime(), kInitial) {
    for (DistNode* n : nodes()) {
      n->set_recovery_options(DistNode::RecoveryOptions{/*period=*/50ms,
                                                        /*call_timeout=*/200ms,
                                                        /*backoff_max=*/200ms});
      n->set_tpc_call_timeout(300ms);
      n->set_invoke_timeout(2'000ms);
    }
    c.set_coordinator_mirrors({w1.id(), w2.id()});
    p1.host(a);
    p2.host(b);
  }

  std::vector<DistNode*> nodes() { return {&c, &p1, &p2, &w1, &w2}; }

  Uid run_transfer() {
    AtomicAction act(c.runtime());
    act.begin();
    const Uid uid = act.uid();
    try {
      RemoteInt ra(c, p1.id(), a.uid());
      RemoteInt rb(c, p2.id(), b.uid());
      ra.add(-kDelta);
      rb.add(kDelta);
      (void)act.commit();
    } catch (const CrashPointHit&) {
      c.crash();
      act.abandon();
    }
    return uid;
  }

  void kick_participants() {
    for (DistNode* n : {&p1, &p2}) {
      n->rpc().reset_peer_health(c.id());
      n->kick_recovery();
    }
  }

  [[nodiscard]] std::size_t participant_in_doubt() {
    return p1.in_doubt_count() + p2.in_doubt_count();
  }

  void check(const Uid& action, ConsistencyReport& report) {
    consistency::check_node(p1, report);
    consistency::check_node(p2, report);
    consistency::check_node(w1, report);
    consistency::check_node(w2, report);
    consistency::check_atomic_outcome(
        c.runtime(), {&w1.runtime(), &w2.runtime()}, action,
        {{"a@node2", Cluster::stored(p1.runtime(), a.uid()), kInitial, kInitial - kDelta},
         {"b@node3", Cluster::stored(p2.runtime(), b.uid()), kInitial, kInitial + kDelta}},
        report);
  }
};

struct WitnessSweepCase {
  const char* point;
  unsigned skip;
  bool commits;
};

std::ostream& operator<<(std::ostream& os, const WitnessSweepCase& c) {
  return os << c.point << " skip=" << c.skip;
}

const WitnessSweepCase kWitnessSweepCases[] = {
    // Decision never durable anywhere: every witness answers with a fence,
    // both participants presume abort.
    {"tpc.coord.post_prepare_pre_log", 0, false},
    // Pending record durable at the (dead) coordinator only — no witness
    // holds a copy, so the fences win and the presumed abort stands.
    {"tpc.coord.post_log_pre_mirror", 0, false},
    // Killed before the first mirror send: same as above, via the per-send
    // window.
    {"tpc.coord.mirror.pre_send", 0, false},
    // Killed after mirroring to exactly one witness: any surviving copy
    // resolves the commit — one copy is enough.
    {"tpc.coord.mirror.pre_send", 1, true},
    // Decision sealed and fully mirrored, phase two never started: both
    // participants learn "committed" from the witnesses.
    {"tpc.coord.post_log_pre_phase2", 0, true},
    // Phase two partially delivered: whoever missed the COMMIT recovers it
    // from a witness.
    {"tpc.coord.commit.pre_send", 0, true},
};

class WitnessSweep : public ::testing::TestWithParam<WitnessSweepCase> {};

TEST_P(WitnessSweep, CoordinatorDeathResolvesFromWitnesses) {
  const WitnessSweepCase& sc = GetParam();
  crash_points::reset();
  WitnessCluster cl;

  crash_points::arm(sc.point, sc.skip);
  const Uid action = cl.run_transfer();

  ASSERT_EQ(crash_points::last_fired().value_or("<none>"), sc.point)
      << "the armed window never executed";
  crash_points::disarm_all();
  ASSERT_FALSE(cl.c.up()) << "every witness-sweep window is a coordinator kill";

  // Both participants hold prepared markers naming the witnesses; their
  // daemons must drain them with the coordinator still dead. No node is
  // restarted — resolution comes from durable witness state alone.
  cl.kick_participants();
  ASSERT_TRUE(wait_until([&] { return cl.participant_in_doubt() == 0; }, 15'000ms))
      << "in-doubt markers did not drain from witness state";
  ASSERT_FALSE(cl.c.up()) << "the coordinator must stay down throughout";

  // Every resolution in this sweep went through the witness path.
  EXPECT_GE(cl.p1.recovery_stats().resolved_from_witness +
                cl.p2.recovery_stats().resolved_from_witness,
            1u);

  ConsistencyReport report;
  cl.check(action, report);
  EXPECT_TRUE(report.ok()) << report.to_string();

  // The witness-aware outcome matches the case's decision rule; check the
  // values directly too so a checker regression cannot mask a wrong
  // outcome.
  const std::int64_t expect_a = sc.commits ? kInitial - kDelta : kInitial;
  const std::int64_t expect_b = sc.commits ? kInitial + kDelta : kInitial;
  EXPECT_EQ(Cluster::stored(cl.p1.runtime(), cl.a.uid()), expect_a);
  EXPECT_EQ(Cluster::stored(cl.p2.runtime(), cl.b.uid()), expect_b);
}

std::string witness_case_name(const ::testing::TestParamInfo<WitnessSweepCase>& info) {
  std::string name = info.param.point;
  for (char& ch : name) {
    if (ch == '.') ch = '_';
  }
  return name + "_s" + std::to_string(info.param.skip);
}

INSTANTIATE_TEST_SUITE_P(CoordinatorDeath, WitnessSweep,
                         ::testing::ValuesIn(kWitnessSweepCases), witness_case_name);

// The coordinator eventually reboots: restart-time reconciliation must agree
// with whatever the participants already resolved from the witnesses.
TEST(WitnessReconcile, RestartSealsPendingFromSurvivingCopy) {
  crash_points::reset();
  WitnessCluster cl;
  crash_points::arm("tpc.coord.mirror.pre_send", 1);  // one witness holds the copy
  const Uid action = cl.run_transfer();
  ASSERT_FALSE(cl.c.up());
  crash_points::disarm_all();

  cl.kick_participants();
  ASSERT_TRUE(wait_until([&] { return cl.participant_in_doubt() == 0; }, 15'000ms));

  // Reboot the coordinator: its Pending record reconciles against the
  // witnesses (the surviving copy wins over the other witness's fence) and
  // retires as Applied — and the logged outcome agrees with what the
  // participants already applied.
  cl.c.restart();
  cl.c.kick_recovery();
  ASSERT_TRUE(wait_until(
      [&] {
        auto rec = CoordinatorLogParticipant::read_record(cl.c.runtime(), action);
        return rec.has_value() &&
               rec->state == CoordinatorLogParticipant::RecordState::Applied;
      },
      15'000ms))
      << "pending record never reconciled after restart";
  EXPECT_TRUE(CoordinatorLogParticipant::committed(cl.c.runtime(), action));
  EXPECT_EQ(Cluster::stored(cl.p1.runtime(), cl.a.uid()), kInitial - kDelta);
  EXPECT_EQ(Cluster::stored(cl.p2.runtime(), cl.b.uid()), kInitial + kDelta);
}

TEST(WitnessReconcile, RestartDiscardsFullyFencedPendingRecord) {
  crash_points::reset();
  WitnessCluster cl;
  crash_points::arm("tpc.coord.post_log_pre_mirror", 0);  // pending, zero copies
  const Uid action = cl.run_transfer();
  ASSERT_FALSE(cl.c.up());
  crash_points::disarm_all();

  cl.kick_participants();
  ASSERT_TRUE(wait_until([&] { return cl.participant_in_doubt() == 0; }, 15'000ms));

  // Both witnesses now hold fences. The rebooted coordinator's reconcile
  // queries them, finds the transaction fenced everywhere, and withdraws
  // the undecided record: presumed abort, same verdict as the participants.
  cl.c.restart();
  cl.c.kick_recovery();
  ASSERT_TRUE(wait_until(
      [&] {
        return !CoordinatorLogParticipant::read_record(cl.c.runtime(), action).has_value();
      },
      15'000ms))
      << "fenced pending record never withdrawn";
  EXPECT_FALSE(CoordinatorLogParticipant::committed(cl.c.runtime(), action));
  EXPECT_EQ(Cluster::stored(cl.p1.runtime(), cl.a.uid()), kInitial);
  EXPECT_EQ(Cluster::stored(cl.p2.runtime(), cl.b.uid()), kInitial);
}

// A live coordinator's own recovery pass must leave its witnessed decision
// alone. The pass runs at the worst moment — Pending record durable, no
// tx.mirror sent yet — on the committing thread itself, so it completes
// before the fan-out. It used to take the record for a crash leftover,
// fence both witnesses and turn the commit into "no witness acknowledged".
TEST(WitnessReconcile, LiveCoordinatorPassLeavesItsOwnDecisionAlone) {
  crash_points::reset();
  WitnessCluster cl;
  crash_points::arm("tpc.coord.post_log_pre_mirror", 0,
                    [&] { cl.c.recover_once(/*ignore_backoff=*/true); });
  const Uid action = cl.run_transfer();
  ASSERT_EQ(crash_points::fire_count("tpc.coord.post_log_pre_mirror"), 1u);
  ASSERT_TRUE(cl.c.up());

  EXPECT_TRUE(CoordinatorLogParticipant::committed(cl.c.runtime(), action));
  EXPECT_FALSE(WitnessLog::has_tombstone(cl.w1.runtime(), action));
  EXPECT_FALSE(WitnessLog::has_tombstone(cl.w2.runtime(), action));
  EXPECT_EQ(Cluster::stored(cl.p1.runtime(), cl.a.uid()), kInitial - kDelta);
  EXPECT_EQ(Cluster::stored(cl.p2.runtime(), cl.b.uid()), kInitial + kDelta);
}

// ---------------------------------------------------------------------------
// Regression: the checker must catch a broken marker ordering
// ---------------------------------------------------------------------------

// Fabricates the durable state a marker-written-before-shadows mutation
// would leave behind: node 2 holds a prepared marker referencing object `a`
// and the coordinator's log says committed, but the shadow the marker
// promises was never written. Recovery "finishes" the commit with nothing
// to promote, and the invariant checker must flag the half-applied
// transfer. This is the sweep's canary: if the checker ever stops seeing
// this, the whole suite is blind.
TEST(CrashSweepRegression, CheckerFlagsMarkerWithoutShadows) {
  crash_points::reset();
  Cluster cl("regression");
  const Uid action;  // fresh action uid that never actually ran

  // One prepared object, and a Sealed record (the default Record).
  ParticipantTable::write_marker(cl.p1.runtime(),
                                 {action, cl.c.id(), {{cl.a.uid(), Colour::plain()}}, {}, {}});
  CoordinatorLogParticipant::write_record(cl.c.runtime(), action, {});
  ASSERT_EQ(cl.p1.in_doubt_count(), 1u);

  // Reboot node 2 from that state and let recovery resolve the marker.
  cl.p1.crash();
  cl.p1.restart();
  cl.signal_heal_all();
  ASSERT_TRUE(wait_until([&] { return cl.total_in_doubt() == 0; }, 15'000ms));

  // b was never touched, a was never promoted — but the log says committed:
  // the atomicity check must fire (and only it; the per-node quiescence
  // invariants hold).
  ConsistencyReport report;
  cl.check(action, report);
  ASSERT_FALSE(report.ok());
  bool atomicity_flagged = false;
  for (const std::string& v : report.violations) {
    if (v.starts_with("atomicity:")) atomicity_flagged = true;
  }
  EXPECT_TRUE(atomicity_flagged) << report.to_string();
}

}  // namespace
}  // namespace mca
