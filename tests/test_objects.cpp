// Unit tests for the recoverable object library: per-type behaviour plus
// typed (parameterized-by-type) properties every LockManaged object must
// satisfy — state round-trips, abort recovery, commit persistence and
// reload by Uid.
#include <gtest/gtest.h>

#include "apps/diary/diary.h"
#include "apps/make/file_object.h"
#include "objects/recoverable_int.h"
#include "objects/recoverable_log.h"
#include "objects/recoverable_map.h"
#include "objects/recoverable_set.h"
#include "objects/recoverable_string.h"

namespace mca {
namespace {

// ---------------------------------------------------------------------------
// Typed properties. Each adapter provides: make (construct + mutate into a
// distinctive state), mutate (change it again), and equals (compare against
// another instance's state).
// ---------------------------------------------------------------------------

template <typename T>
struct Adapter;

template <>
struct Adapter<RecoverableInt> {
  static void set_up(RecoverableInt& o) { o.set(42); }
  static void mutate(RecoverableInt& o) { o.add(58); }
  static void expect_set_up(const RecoverableInt& o) { EXPECT_EQ(o.value(), 42); }
  static void expect_mutated(const RecoverableInt& o) { EXPECT_EQ(o.value(), 100); }
};

template <>
struct Adapter<RecoverableString> {
  static void set_up(RecoverableString& o) { o.set("base"); }
  static void mutate(RecoverableString& o) { o.append("+more"); }
  static void expect_set_up(const RecoverableString& o) { EXPECT_EQ(o.value(), "base"); }
  static void expect_mutated(const RecoverableString& o) {
    EXPECT_EQ(o.value(), "base+more");
  }
};

template <>
struct Adapter<RecoverableMap> {
  static void set_up(RecoverableMap& o) { o.insert("k", "v"); }
  static void mutate(RecoverableMap& o) { o.insert("k2", "v2"); }
  static void expect_set_up(const RecoverableMap& o) {
    EXPECT_EQ(o.lookup("k"), "v");
    EXPECT_EQ(o.size(), 1u);
  }
  static void expect_mutated(const RecoverableMap& o) { EXPECT_EQ(o.size(), 2u); }
};

template <>
struct Adapter<RecoverableSet> {
  static void set_up(RecoverableSet& o) { o.insert("a"); }
  static void mutate(RecoverableSet& o) { o.insert("b"); }
  static void expect_set_up(const RecoverableSet& o) {
    EXPECT_TRUE(o.contains("a"));
    EXPECT_EQ(o.size(), 1u);
  }
  static void expect_mutated(const RecoverableSet& o) { EXPECT_EQ(o.size(), 2u); }
};

template <>
struct Adapter<RecoverableLog> {
  static void set_up(RecoverableLog& o) { o.append("first"); }
  static void mutate(RecoverableLog& o) { o.append("second"); }
  static void expect_set_up(const RecoverableLog& o) { EXPECT_EQ(o.size(), 1u); }
  static void expect_mutated(const RecoverableLog& o) { EXPECT_EQ(o.size(), 2u); }
};

template <>
struct Adapter<TimestampedFile> {
  static void set_up(TimestampedFile& o) { o.write("v1"); }
  static void mutate(TimestampedFile& o) { o.write("v2"); }
  static void expect_set_up(const TimestampedFile& o) { EXPECT_EQ(o.content(), "v1"); }
  static void expect_mutated(const TimestampedFile& o) { EXPECT_EQ(o.content(), "v2"); }
};

template <>
struct Adapter<DiarySlot> {
  static void set_up(DiarySlot& o) { o.book("standup"); }
  static void mutate(DiarySlot& o) {
    o.cancel();
    o.book("retro");
  }
  static void expect_set_up(const DiarySlot& o) {
    EXPECT_TRUE(o.booked());
    EXPECT_EQ(o.title(), "standup");
  }
  static void expect_mutated(const DiarySlot& o) { EXPECT_EQ(o.title(), "retro"); }
};

template <typename T>
class RecoverableTypeTest : public ::testing::Test {};

using AllTypes = ::testing::Types<RecoverableInt, RecoverableString, RecoverableMap,
                                  RecoverableSet, RecoverableLog, TimestampedFile, DiarySlot>;
TYPED_TEST_SUITE(RecoverableTypeTest, AllTypes);

TYPED_TEST(RecoverableTypeTest, StateRoundTripsThroughBuffer) {
  Runtime rt;
  TypeParam original(rt);
  TypeParam copy(rt);
  // Commit the set-up first: a delta-logged type keeps an uncommitted
  // mutation in a per-action tally, which a state snapshot deliberately
  // excludes (only committed state round-trips).
  {
    AtomicAction setup(rt);
    setup.begin();
    Adapter<TypeParam>::set_up(original);
    setup.commit();
  }
  AtomicAction a(rt);
  a.begin();
  ByteBuffer snapshot = original.snapshot_state();
  copy.apply_state(snapshot);
  Adapter<TypeParam>::expect_set_up(copy);
  a.commit();
}

TYPED_TEST(RecoverableTypeTest, AbortRestoresPriorState) {
  Runtime rt;
  TypeParam obj(rt);
  {
    AtomicAction setup(rt);
    setup.begin();
    Adapter<TypeParam>::set_up(obj);
    setup.commit();
  }
  {
    AtomicAction doomed(rt);
    doomed.begin();
    Adapter<TypeParam>::mutate(obj);
    doomed.abort();
  }
  AtomicAction check(rt);
  check.begin();
  Adapter<TypeParam>::expect_set_up(obj);
  check.commit();
}

TYPED_TEST(RecoverableTypeTest, CommittedStateReloadsByUid) {
  Runtime rt;
  Uid uid;
  {
    TypeParam obj(rt);
    uid = obj.uid();
    AtomicAction a(rt);
    a.begin();
    Adapter<TypeParam>::set_up(obj);
    a.commit();
  }
  TypeParam reloaded(rt, uid);
  AtomicAction check(rt);
  check.begin();
  Adapter<TypeParam>::expect_set_up(reloaded);
  check.commit();
}

TYPED_TEST(RecoverableTypeTest, NestedCommitThenTopAbortRestores) {
  Runtime rt;
  TypeParam obj(rt);
  {
    AtomicAction setup(rt);
    setup.begin();
    Adapter<TypeParam>::set_up(obj);
    setup.commit();
  }
  {
    AtomicAction top(rt);
    top.begin();
    {
      AtomicAction child(rt);
      child.begin();
      Adapter<TypeParam>::mutate(obj);
      child.commit();
    }
    top.abort();
  }
  AtomicAction check(rt);
  check.begin();
  Adapter<TypeParam>::expect_set_up(obj);
  check.commit();
}

TYPED_TEST(RecoverableTypeTest, MutationRequiresAnAction) {
  Runtime rt;
  TypeParam obj(rt);
  EXPECT_THROW(Adapter<TypeParam>::set_up(obj), std::logic_error);
}

// ---------------------------------------------------------------------------
// Type-specific behaviour.
// ---------------------------------------------------------------------------

TEST(RecoverableStringTest, AppendComposes) {
  Runtime rt;
  RecoverableString s(rt, "a");
  AtomicAction a(rt);
  a.begin();
  s.append("b");
  s.append("c");
  EXPECT_EQ(s.value(), "abc");
  a.commit();
}

TEST(RecoverableMapTest, EraseAndClear) {
  Runtime rt;
  RecoverableMap m(rt);
  AtomicAction a(rt);
  a.begin();
  m.insert("x", "1");
  m.insert("y", "2");
  EXPECT_TRUE(m.erase("x"));
  EXPECT_FALSE(m.erase("x"));
  EXPECT_EQ(m.keys(), (std::vector<std::string>{"y"}));
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  a.commit();
}

TEST(RecoverableMapTest, LookupAbsentIsNullopt) {
  Runtime rt;
  RecoverableMap m(rt);
  AtomicAction a(rt);
  a.begin();
  EXPECT_EQ(m.lookup("ghost"), std::nullopt);
  EXPECT_FALSE(m.contains("ghost"));
  a.commit();
}

TEST(RecoverableSetTest, InsertReportsNovelty) {
  Runtime rt;
  RecoverableSet s(rt);
  AtomicAction a(rt);
  a.begin();
  EXPECT_TRUE(s.insert("a"));
  EXPECT_FALSE(s.insert("a"));
  EXPECT_TRUE(s.erase("a"));
  EXPECT_FALSE(s.erase("a"));
  a.commit();
}

TEST(RecoverableLogTest, OrderPreserved) {
  Runtime rt;
  RecoverableLog log(rt);
  AtomicAction a(rt);
  a.begin();
  for (int i = 0; i < 5; ++i) log.append("entry" + std::to_string(i));
  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(entries[static_cast<std::size_t>(i)],
                                        "entry" + std::to_string(i));
  a.commit();
}

TEST(TimestampedFileTest, TimestampsAdvanceMonotonically) {
  Runtime rt;
  TimestampedFile f(rt);
  AtomicAction a(rt);
  a.begin();
  EXPECT_FALSE(f.exists());
  f.write("v1");
  const auto t1 = f.timestamp();
  f.write("v2");
  const auto t2 = f.timestamp();
  EXPECT_GT(t2, t1);
  EXPECT_TRUE(f.exists());
  a.commit();
}

TEST(TimestampedFileTest, ExplicitTimestampForWorkloadSetup) {
  Runtime rt;
  TimestampedFile f(rt);
  AtomicAction a(rt);
  a.begin();
  f.write_with_timestamp("old", 5);
  EXPECT_EQ(f.timestamp(), 5);
  EXPECT_EQ(f.content(), "old");
  a.commit();
}

TEST(DiarySlotTest, DoubleBookingThrows) {
  Runtime rt;
  DiarySlot slot(rt);
  AtomicAction a(rt);
  a.begin();
  slot.book("one");
  EXPECT_THROW(slot.book("two"), std::logic_error);
  slot.cancel();
  EXPECT_NO_THROW(slot.book("two"));
  a.commit();
}

TEST(DiaryTest, SlotsAreIndependentObjects) {
  Runtime rt;
  Diary d(rt, "user", 4);
  EXPECT_EQ(d.slot_count(), 4u);
  EXPECT_NE(d.slot(0).uid(), d.slot(1).uid());
  // Locking one slot leaves the others available.
  AtomicAction holder(rt, nullptr, {});
  holder.begin(AtomicAction::ContextPolicy::Detached);
  ASSERT_EQ(holder.lock_for(d.slot(0), LockMode::Write), LockOutcome::Granted);
  AtomicAction other(rt, nullptr, {});
  other.begin(AtomicAction::ContextPolicy::Detached);
  EXPECT_EQ(other.lock_for(d.slot(1), LockMode::Write), LockOutcome::Granted);
  other.abort();
  holder.abort();
}

TEST(StateManagerTest, ActivationLoadsOnFirstTouchOnly) {
  Runtime rt;
  Uid uid;
  {
    RecoverableInt original(rt, 0);
    uid = original.uid();
    AtomicAction a(rt);
    a.begin();
    original.set(7);
    a.commit();
  }
  RecoverableInt reloaded(rt, uid);
  EXPECT_FALSE(reloaded.activated());
  AtomicAction a(rt);
  a.begin();
  EXPECT_EQ(reloaded.value(), 7);
  EXPECT_TRUE(reloaded.activated());
  a.commit();
}

TEST(StateManagerTest, InvalidateActivationForcesReload) {
  Runtime rt;
  RecoverableInt obj(rt, 0);
  {
    AtomicAction a(rt);
    a.begin();
    obj.set(10);
    a.commit();
  }
  // Simulate volatile memory loss: poke the in-memory state, invalidate,
  // and watch the committed state come back from the store.
  ByteBuffer poke;
  poke.pack_i64(999);
  obj.apply_state(poke);
  obj.invalidate_activation();
  AtomicAction a(rt);
  a.begin();
  EXPECT_EQ(obj.value(), 10);
  a.commit();
}

}  // namespace
}  // namespace mca
