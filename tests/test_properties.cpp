// Property-based tests: randomized schedules and exhaustive small-space
// sweeps over the kernel's invariants.
//
//  * money conservation under concurrent random transfers with aborts;
//  * serializability of counters (final value == committed increments);
//  * lock-table invariants under random grant sequences (all write locks of
//    one object share a colour; exclusive holders are ancestry-comparable
//    with every other holder);
//  * crash/recovery: a file-store-backed object always reloads the last
//    committed state, whatever random commit/abort/crash sequence ran;
//  * exhaustive fig. 10 outcome matrix over every (inner, outer) fate.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <thread>

#include "core/atomic_action.h"
#include "objects/commutative_counter.h"
#include "objects/commutative_set.h"
#include "objects/recoverable_int.h"
#include "objects/recoverable_log.h"
#include "storage/wal_store.h"

namespace mca {
namespace {

// ---------------------------------------------------------------------------
// Money conservation under concurrent random transfers.
// ---------------------------------------------------------------------------

struct TransferParams {
  int threads;
  int accounts;
  int transfers_per_thread;
  unsigned seed;
};

class TransferProperty : public ::testing::TestWithParam<TransferParams> {};

TEST_P(TransferProperty, TotalIsConserved) {
  const TransferParams p = GetParam();
  Runtime rt;
  constexpr std::int64_t kInitial = 1'000;
  std::vector<std::unique_ptr<RecoverableInt>> accounts;
  for (int i = 0; i < p.accounts; ++i) {
    accounts.push_back(std::make_unique<RecoverableInt>(rt, kInitial));
  }

  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < p.threads; ++t) {
      threads.emplace_back([&rt, &accounts, &p, t] {
        std::mt19937 rng(p.seed + static_cast<unsigned>(t));
        std::uniform_int_distribution<int> pick(0, p.accounts - 1);
        std::uniform_int_distribution<std::int64_t> amount(1, 50);
        std::uniform_int_distribution<int> fate(0, 3);
        for (int i = 0; i < p.transfers_per_thread; ++i) {
          const int from = pick(rng);
          int to = pick(rng);
          if (to == from) to = (to + 1) % p.accounts;
          // Lock in a canonical order to avoid deadlocks between transfers.
          const int first = std::min(from, to);
          const int second = std::max(from, to);
          AtomicAction a(rt);
          a.begin();
          a.set_lock_timeout(std::chrono::milliseconds(5'000));
          try {
            const std::int64_t x = amount(rng);
            auto& f = *accounts[static_cast<std::size_t>(first)];
            auto& s = *accounts[static_cast<std::size_t>(second)];
            f.add(first == from ? -x : x);
            s.add(first == from ? x : -x);
            if (fate(rng) == 0) {
              a.abort();
            } else {
              a.commit();
            }
          } catch (const LockFailure&) {
            a.abort();
          }
        }
      });
    }
  }

  // Invariant: the total never changes, in memory and in the store.
  AtomicAction check(rt);
  check.begin();
  std::int64_t total = 0;
  for (auto& account : accounts) total += account->value();
  check.commit();
  EXPECT_EQ(total, kInitial * p.accounts);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransferProperty,
    ::testing::Values(TransferParams{2, 2, 40, 1}, TransferParams{4, 4, 30, 2},
                      TransferParams{4, 8, 30, 3}, TransferParams{8, 4, 20, 4},
                      TransferParams{8, 16, 25, 5}),
    [](const auto& info) {
      return "t" + std::to_string(info.param.threads) + "_a" +
             std::to_string(info.param.accounts) + "_s" + std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Serializability: the committed increments are exactly the final value.
// ---------------------------------------------------------------------------

class CounterProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(CounterProperty, FinalValueEqualsCommittedIncrements) {
  Runtime rt;
  RecoverableInt counter(rt, 0);
  std::atomic<std::int64_t> committed{0};
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 30;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&rt, &counter, &committed, t] {
        std::mt19937 rng(GetParam() * 97 + static_cast<unsigned>(t));
        std::uniform_int_distribution<int> fate(0, 2);
        for (int i = 0; i < kOpsPerThread; ++i) {
          AtomicAction a(rt);
          a.begin();
          a.set_lock_timeout(std::chrono::milliseconds(5'000));
          counter.add(1);
          if (fate(rng) == 0) {
            a.abort();
          } else {
            a.commit();
            committed.fetch_add(1);
          }
        }
      });
    }
  }
  AtomicAction check(rt);
  check.begin();
  EXPECT_EQ(counter.value(), committed.load());
  check.commit();
  // And the stable state agrees.
  auto stored = rt.default_store().read(counter.uid());
  if (committed.load() > 0) {
    ASSERT_TRUE(stored.has_value());
    ByteBuffer b = stored->state();
    EXPECT_EQ(b.unpack_i64(), committed.load());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CounterProperty, ::testing::Range(1u, 6u));

// ---------------------------------------------------------------------------
// Lock-table invariants under random grant sequences.
// ---------------------------------------------------------------------------

class LockInvariantProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(LockInvariantProperty, GrantedTablesAreWellFormed) {
  std::mt19937 rng(GetParam());
  // A random forest of actions.
  PathAncestry ancestry;
  std::vector<Uid> actions;
  std::vector<std::vector<Uid>> paths;
  std::uniform_int_distribution<int> parent_pick(-1, 6);
  for (int i = 0; i < 12; ++i) {
    const Uid uid;
    std::vector<Uid> path;
    const int parent = i == 0 ? -1 : parent_pick(rng) % i;
    if (parent >= 0) path = paths[static_cast<std::size_t>(parent)];
    path.push_back(uid);
    ancestry.register_action(uid, path);
    actions.push_back(uid);
    paths.push_back(std::move(path));
  }

  const std::vector<Colour> colours{Colour::named("red"), Colour::named("blue"),
                                    Colour::named("green")};
  const std::vector<LockMode> modes{LockMode::Read, LockMode::Write, LockMode::ExclusiveRead,
                                    LockMode::Commutative};

  LockRecord record;
  std::uniform_int_distribution<std::size_t> action_pick(0, actions.size() - 1);
  std::uniform_int_distribution<std::size_t> colour_pick(0, colours.size() - 1);
  std::uniform_int_distribution<std::size_t> mode_pick(0, modes.size() - 1);

  int granted = 0;
  std::uniform_int_distribution<int> event(0, 9);
  for (int step = 0; step < 400; ++step) {
    const Uid& requester = actions[action_pick(rng)];
    if (event(rng) < 3) {
      // Release event: the action ends (abort-style drop of all entries).
      record.drop_owner(requester);
      continue;
    }
    const LockMode mode = modes[mode_pick(rng)];
    const Colour colour = colours[colour_pick(rng)];
    if (record.evaluate(requester, mode, colour, ancestry) == GrantVerdict::Granted) {
      record.add(requester, mode, colour);
      ++granted;
    }

    // Invariant 1: all write locks on the object share one colour.
    std::optional<Colour> write_colour;
    for (const LockEntry& e : record.entries()) {
      if (e.mode != LockMode::Write) continue;
      if (!write_colour) write_colour = e.colour;
      EXPECT_EQ(*write_colour, e.colour) << "two write colours after step " << step;
    }
    // Invariant 2: every exclusive holder is ancestry-comparable with every
    // other holder (one is an ancestor of the other) — shared-read islands
    // between unrelated actions are only possible when nobody is exclusive.
    // Exemption: a COMMUTATIVE-COMMUTATIVE pair shares by design whatever
    // the ancestry — their deltas merge at commit (§5.9), so the pair is
    // exactly the sanctioned exception to the comparability rule.
    for (const LockEntry& e : record.entries()) {
      if (!is_exclusive(e.mode)) continue;
      for (const LockEntry& f : record.entries()) {
        if (&e == &f) continue;
        if (is_commutative(e.mode) && is_commutative(f.mode)) continue;
        const bool comparable = ancestry.is_ancestor_or_same(e.owner, f.owner) ||
                                ancestry.is_ancestor_or_same(f.owner, e.owner);
        EXPECT_TRUE(comparable) << "incomparable holders beside an exclusive lock, step "
                                << step;
      }
    }
  }
  // The random walk must actually exercise grants (the exact count varies
  // by seed: exclusive locks block much of the forest until released).
  EXPECT_GT(granted, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockInvariantProperty, ::testing::Range(10u, 20u));

// ---------------------------------------------------------------------------
// Crash/recovery: a file-backed object reloads the last committed state.
// ---------------------------------------------------------------------------

class CrashRecoveryProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(CrashRecoveryProperty, ReloadAlwaysSeesLastCommit) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mca_crash_prop_" + Uid().to_string());
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> op_pick(0, 2);
  std::uniform_int_distribution<std::int64_t> value_pick(0, 1'000'000);

  Uid object_uid = Uid::nil();
  std::int64_t last_committed = 0;
  bool ever_committed = false;

  for (int epoch = 0; epoch < 6; ++epoch) {
    // "Boot": fresh store + runtime over the same directory, as after a
    // node restart.
    WalStore store(dir);
    Runtime rt(store);
    std::unique_ptr<RecoverableInt> obj =
        object_uid.is_nil() ? std::make_unique<RecoverableInt>(rt)
                            : std::make_unique<RecoverableInt>(rt, object_uid);
    object_uid = obj->uid();

    // Recovery check: the reloaded value is the last committed one.
    if (ever_committed) {
      AtomicAction check(rt);
      check.begin();
      EXPECT_EQ(obj->value(), last_committed) << "epoch " << epoch;
      check.commit();
    }

    // Random work, then "crash" (drop everything volatile: leave scope).
    for (int i = 0; i < 10; ++i) {
      const std::int64_t v = value_pick(rng);
      AtomicAction a(rt);
      a.begin();
      obj->set(v);
      switch (op_pick(rng)) {
        case 0:
          a.abort();
          break;
        default:
          a.commit();
          last_committed = v;
          ever_committed = true;
          break;
      }
    }
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryProperty, ::testing::Range(100u, 108u));

// ---------------------------------------------------------------------------
// Delta merge properties (§5.9): the commit-time merge of per-action tallies
// is associative, commutative, and has the empty tally as identity — so the
// committed state is independent of the order the actions terminate in.
// ---------------------------------------------------------------------------

class DeltaMergeProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(DeltaMergeProperty, CommitOrderIsIrrelevant) {
  std::mt19937 rng(GetParam());
  Runtime rt;
  CommutativeCounter counter(rt, 7);
  CommutativeSet set(rt);
  RecoverableLog log(rt);

  // A batch of concurrently-open detached actions, each with a random tally
  // against all three delta-logged types. One action stays empty — the
  // identity element: committing it must merge nothing.
  constexpr int kActions = 6;
  std::uniform_int_distribution<int> ops_pick(1, 4);
  std::uniform_int_distribution<std::int64_t> delta_pick(-20, 20);
  std::int64_t expected_total = 7;
  std::set<std::string> expected_elements;
  std::multiset<std::string> expected_entries;

  std::vector<std::unique_ptr<AtomicAction>> actions;
  for (int i = 0; i < kActions; ++i) {
    auto a = std::make_unique<AtomicAction>(rt, nullptr, ColourSet{});
    a->begin(AtomicAction::ContextPolicy::Detached);
    if (i != 0) {  // action 0 is the empty tally
      ActionContext::push(*a);
      const int ops = ops_pick(rng);
      for (int k = 0; k < ops; ++k) {
        const std::int64_t d = delta_pick(rng);
        counter.add(d);
        expected_total += d;
        const std::string tag = std::to_string(i) + ":" + std::to_string(k);
        set.add(tag);
        expected_elements.insert(tag);
        log.append(tag);
        expected_entries.insert(tag);
      }
      ActionContext::pop(*a);
    }
    actions.push_back(std::move(a));
  }

  // Commit in a random permutation: the merged result must not depend on it.
  std::shuffle(actions.begin(), actions.end(), rng);
  for (auto& a : actions) EXPECT_EQ(a->commit(), Outcome::Committed);

  AtomicAction check(rt);
  check.begin();
  EXPECT_EQ(counter.committed_value(), expected_total);
  EXPECT_EQ(set.elements(),
            (std::vector<std::string>{expected_elements.begin(), expected_elements.end()}));
  const std::vector<std::string> entries = log.entries();
  EXPECT_EQ((std::multiset<std::string>{entries.begin(), entries.end()}), expected_entries);
  check.commit();

  // And the durable side agrees: wipe the activation (crash simulation) and
  // let the chain replay rebuild the same state.
  counter.invalidate_activation();
  set.invalidate_activation();
  AtomicAction reread(rt);
  reread.begin();
  EXPECT_EQ(counter.committed_value(), expected_total);
  EXPECT_EQ(set.elements(),
            (std::vector<std::string>{expected_elements.begin(), expected_elements.end()}));
  reread.commit();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaMergeProperty, ::testing::Range(40u, 46u));

// Abort-compensation composed with commit-fold must equal snapshot
// semantics: under any random interleaving of concurrent adds, commits and
// aborts, the committed value is exactly what a snapshot-logged type would
// hold after the same committed set — initial + the committed deltas, with
// aborted tallies compensated away rather than rolled back over each other.
class DeltaRecoveryProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(DeltaRecoveryProperty, CompensationMatchesSnapshotSemantics) {
  Runtime rt;
  constexpr std::int64_t kInitial = 100;
  CommutativeCounter counter(rt, kInitial);
  std::atomic<std::int64_t> committed_sum{0};
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 25;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&rt, &counter, &committed_sum, t] {
        std::mt19937 rng(GetParam() * 131 + static_cast<unsigned>(t));
        std::uniform_int_distribution<std::int64_t> delta_pick(-9, 9);
        std::uniform_int_distribution<int> burst(1, 3);
        std::uniform_int_distribution<int> fate(0, 2);
        for (int i = 0; i < kOpsPerThread; ++i) {
          AtomicAction a(rt);
          a.begin();
          a.set_lock_timeout(std::chrono::milliseconds(5'000));
          std::int64_t sum = 0;
          const int ops = burst(rng);
          for (int k = 0; k < ops; ++k) {
            const std::int64_t d = delta_pick(rng);
            counter.add(d);
            sum += d;
          }
          if (fate(rng) == 0) {
            a.abort();  // compensation: the tally is discarded, nothing else
          } else {
            a.commit();
            committed_sum.fetch_add(sum);
          }
        }
      });
    }
  }
  AtomicAction check(rt);
  check.begin();
  EXPECT_EQ(counter.committed_value(), kInitial + committed_sum.load());
  check.commit();

  // Crash simulation: the delta chain alone must rebuild the same value.
  counter.invalidate_activation();
  AtomicAction reread(rt);
  reread.begin();
  EXPECT_EQ(counter.committed_value(), kInitial + committed_sum.load());
  reread.commit();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaRecoveryProperty, ::testing::Range(60u, 66u));

// ---------------------------------------------------------------------------
// Exhaustive fig. 10 outcome matrix.
// ---------------------------------------------------------------------------

struct Fig10Case {
  bool inner_commits;
  bool outer_commits;
};

class Fig10Matrix : public ::testing::TestWithParam<Fig10Case> {};

TEST_P(Fig10Matrix, OutcomesFollowTheColourRules) {
  const Fig10Case c = GetParam();
  const Colour red = Colour::fresh("red");
  const Colour blue = Colour::fresh("blue");

  Runtime rt;
  RecoverableInt o_r(rt, 0);
  RecoverableInt o_b(rt, 0);

  AtomicAction a(rt, ColourSet{blue});
  a.begin();
  {
    AtomicAction b(rt, ColourSet{red, blue});
    b.begin();
    ASSERT_EQ(b.lock_explicit(o_r, LockMode::Write, red), LockOutcome::Granted);
    b.note_modified(o_r);
    ByteBuffer s1;
    s1.pack_i64(1);
    o_r.apply_state(s1);
    ASSERT_EQ(b.lock_explicit(o_b, LockMode::Write, blue), LockOutcome::Granted);
    b.note_modified(o_b);
    ByteBuffer s2;
    s2.pack_i64(2);
    o_b.apply_state(s2);
    if (c.inner_commits) {
      b.commit();
    } else {
      b.abort();
    }
  }
  if (c.outer_commits) {
    a.commit();
  } else {
    a.abort();
  }

  // Expectations from §5.2: red is permanent iff B commits; blue is
  // permanent iff both commit.
  const bool red_expected = c.inner_commits;
  const bool blue_expected = c.inner_commits && c.outer_commits;
  EXPECT_EQ(rt.default_store().read(o_r.uid()).has_value(), red_expected);
  EXPECT_EQ(rt.default_store().read(o_b.uid()).has_value(), blue_expected);

  // Everything is unlocked afterwards.
  EXPECT_EQ(rt.lock_manager().locked_object_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllFates, Fig10Matrix,
                         ::testing::Values(Fig10Case{true, true}, Fig10Case{true, false},
                                           Fig10Case{false, true}, Fig10Case{false, false}),
                         [](const auto& info) {
                           return std::string(info.param.inner_commits ? "Bcommit" : "Babort") +
                                  (info.param.outer_commits ? "_Acommit" : "_Aabort");
                         });

}  // namespace
}  // namespace mca
