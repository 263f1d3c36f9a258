// Tests for the action kernel: begin/commit/abort, nesting and inheritance
// (classical single-coloured semantics), permanence via object stores, and
// failure injection during commit.
#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "core/atomic_action.h"
#include "objects/recoverable_int.h"
#include "objects/recoverable_map.h"
#include "storage/faulty_store.h"

namespace mca {
namespace {

TEST(ActionLifecycle, CommitMakesStateStable) {
  Runtime rt;
  RecoverableInt counter(rt);
  {
    AtomicAction a(rt);
    a.begin();
    counter.set(42);
    EXPECT_EQ(a.commit(), Outcome::Committed);
  }
  // The committed state is in the store.
  auto stored = rt.default_store().read(counter.uid());
  ASSERT_TRUE(stored.has_value());
  ByteBuffer b = stored->state();
  EXPECT_EQ(b.unpack_i64(), 42);
}

TEST(ActionLifecycle, AbortRestoresMemoryAndSkipsStore) {
  Runtime rt;
  RecoverableInt counter(rt, 7);
  {
    AtomicAction a(rt);
    a.begin();
    counter.set(99);
    a.abort();
  }
  EXPECT_FALSE(rt.default_store().read(counter.uid()).has_value());
  {
    AtomicAction a(rt);
    a.begin();
    EXPECT_EQ(counter.value(), 7);
    a.commit();
  }
}

TEST(ActionLifecycle, DestructorAbortsRunningAction) {
  Runtime rt;
  RecoverableInt counter(rt, 1);
  {
    AtomicAction a(rt);
    a.begin();
    counter.set(2);
    // No commit: destructor must abort.
  }
  AtomicAction check(rt);
  check.begin();
  EXPECT_EQ(counter.value(), 1);
  check.commit();
}

TEST(ActionLifecycle, CommitWithoutBeginThrows) {
  Runtime rt;
  AtomicAction a(rt);
  EXPECT_THROW(a.commit(), std::logic_error);
  EXPECT_THROW(a.abort(), std::logic_error);
}

TEST(ActionLifecycle, DoubleBeginThrows) {
  Runtime rt;
  AtomicAction a(rt);
  a.begin();
  EXPECT_THROW(a.begin(), std::logic_error);
  a.abort();
}

TEST(ActionLifecycle, ModifyOutsideActionThrows) {
  Runtime rt;
  RecoverableInt counter(rt);
  EXPECT_THROW(counter.set(1), std::logic_error);
}

TEST(ActionLifecycle, StatusTransitions) {
  Runtime rt;
  AtomicAction a(rt);
  EXPECT_EQ(a.status(), ActionStatus::Created);
  a.begin();
  EXPECT_EQ(a.status(), ActionStatus::Running);
  a.commit();
  EXPECT_EQ(a.status(), ActionStatus::Committed);
}

TEST(Nesting, ChildInheritsParentColours) {
  Runtime rt;
  AtomicAction parent(rt, ColourSet{Colour::named("red")});
  parent.begin();
  AtomicAction child(rt);
  child.begin();
  EXPECT_TRUE(child.has_colour(Colour::named("red")));
  child.commit();
  parent.commit();
}

TEST(Nesting, ChildCommitDefersToParent) {
  Runtime rt;
  RecoverableInt counter(rt, 0);
  AtomicAction parent(rt);
  parent.begin();
  {
    AtomicAction child(rt);
    child.begin();
    counter.set(5);
    child.commit();
  }
  // Nothing stable yet: the update's fate rides on the parent.
  EXPECT_FALSE(rt.default_store().read(counter.uid()).has_value());
  parent.commit();
  EXPECT_TRUE(rt.default_store().read(counter.uid()).has_value());
}

TEST(Nesting, ParentAbortUndoesCommittedChild) {
  Runtime rt;
  RecoverableInt counter(rt, 1);
  {
    AtomicAction parent(rt);
    parent.begin();
    {
      AtomicAction child(rt);
      child.begin();
      counter.set(5);
      child.commit();
    }
    parent.abort();
  }
  AtomicAction check(rt);
  check.begin();
  EXPECT_EQ(counter.value(), 1);
  check.commit();
}

TEST(Nesting, ChildAbortLeavesParentModificationsIntact) {
  Runtime rt;
  RecoverableInt counter(rt, 0);
  AtomicAction parent(rt);
  parent.begin();
  counter.set(10);
  {
    AtomicAction child(rt);
    child.begin();
    counter.set(20);
    child.abort();
  }
  EXPECT_EQ(counter.value(), 10);
  parent.commit();
  ByteBuffer b = rt.default_store().read(counter.uid())->state();
  EXPECT_EQ(b.unpack_i64(), 10);
}

TEST(Nesting, GrandchildRecordsReachTopLevel) {
  Runtime rt;
  RecoverableInt counter(rt, 0);
  {
    AtomicAction top(rt);
    top.begin();
    {
      AtomicAction mid(rt);
      mid.begin();
      {
        AtomicAction leaf(rt);
        leaf.begin();
        counter.set(3);
        leaf.commit();
      }
      mid.commit();
    }
    EXPECT_EQ(top.undo_record_count(), 1u);
    top.abort();
  }
  AtomicAction check(rt);
  check.begin();
  EXPECT_EQ(counter.value(), 0);
  check.commit();
}

TEST(Nesting, EarliestSnapshotWinsOnInheritance) {
  // Parent writes 10 (snapshot 0), child writes 20 (snapshot 10), child
  // commits, parent aborts: the object must return to 0, not 10.
  Runtime rt;
  RecoverableInt counter(rt, 0);
  {
    AtomicAction parent(rt);
    parent.begin();
    counter.set(10);
    {
      AtomicAction child(rt);
      child.begin();
      counter.set(20);
      child.commit();
    }
    EXPECT_EQ(parent.undo_record_count(), 1u);
    parent.abort();
  }
  AtomicAction check(rt);
  check.begin();
  EXPECT_EQ(counter.value(), 0);
  check.commit();
}

TEST(Nesting, TerminatingWithRunningChildThrows) {
  Runtime rt;
  AtomicAction parent(rt);
  parent.begin();
  AtomicAction child(rt, &parent, {});
  child.begin(AtomicAction::ContextPolicy::Detached);
  EXPECT_THROW(parent.commit(), std::logic_error);
  child.commit();
  EXPECT_EQ(parent.commit(), Outcome::Committed);
}

TEST(Nesting, BeginUnderTerminatedParentThrows) {
  Runtime rt;
  AtomicAction parent(rt, nullptr, {});
  parent.begin();
  parent.commit();
  AtomicAction child(rt, &parent, {});
  EXPECT_THROW(child.begin(), std::logic_error);
}

TEST(ConcurrentChildren, ParallelIncrementsSerialize) {
  Runtime rt;
  RecoverableInt counter(rt, 0);
  AtomicAction top(rt);
  top.begin();
  constexpr int kThreads = 8;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&rt, &top, &counter] {
        AtomicAction child(rt, &top, {});
        child.begin();
        counter.add(1);
        child.commit();
      });
    }
  }
  EXPECT_EQ(counter.value(), kThreads);
  top.commit();
  ByteBuffer b = rt.default_store().read(counter.uid())->state();
  EXPECT_EQ(b.unpack_i64(), kThreads);
}

TEST(Persistence, ObjectReloadsFromStoreByUid) {
  Runtime rt;
  Uid uid;
  {
    RecoverableMap dir(rt);
    uid = dir.uid();
    AtomicAction a(rt);
    a.begin();
    dir.insert("key", "value");
    a.commit();
  }
  // A new language-level object bound to the same Uid sees the state.
  RecoverableMap reloaded(rt, uid);
  AtomicAction a(rt);
  a.begin();
  EXPECT_EQ(reloaded.lookup("key"), "value");
  a.commit();
}

TEST(Persistence, PrepareFaultAbortsWholeAction) {
  MemoryStore inner;
  FaultyStore faulty(inner, FaultyStore::fail_shadow_writes_after(1));
  Runtime rt(faulty);
  RecoverableInt x(rt, 1);
  RecoverableInt y(rt, 2);
  {
    AtomicAction a(rt);
    a.begin();
    x.set(100);
    y.set(200);  // second shadow write will fault at commit
    EXPECT_EQ(a.commit(), Outcome::Aborted);
    EXPECT_EQ(a.status(), ActionStatus::Aborted);
  }
  // Neither object committed; no stray shadows; memory rolled back.
  EXPECT_TRUE(inner.uids().empty());
  EXPECT_TRUE(inner.shadow_uids().empty());
  AtomicAction check(rt);
  check.begin();
  EXPECT_EQ(x.value(), 1);
  EXPECT_EQ(y.value(), 2);
  check.commit();
}

// A participant that records calls and can veto prepare.
class ProbeParticipant final : public TerminationParticipant {
 public:
  explicit ProbeParticipant(bool vote) : vote_(vote) {}
  bool prepare(const Uid&, const std::vector<Colour>&) override {
    ++prepares;
    return vote_;
  }
  void commit(const Uid&, const std::vector<ColourDisposition>&) override { ++commits; }
  void abort(const Uid&) override { ++aborts; }

  int prepares = 0;
  int commits = 0;
  int aborts = 0;

 private:
  bool vote_;
};

TEST(Participants, VetoAbortsAction) {
  Runtime rt;
  RecoverableInt x(rt, 1);
  auto probe = std::make_shared<ProbeParticipant>(false);
  AtomicAction a(rt);
  a.begin();
  a.add_participant(probe);
  x.set(2);
  EXPECT_EQ(a.commit(), Outcome::Aborted);
  EXPECT_EQ(probe->prepares, 1);
  EXPECT_EQ(probe->commits, 0);
  EXPECT_EQ(probe->aborts, 1);
  EXPECT_TRUE(rt.default_store().uids().empty());
  EXPECT_TRUE(rt.default_store().shadow_uids().empty());
}

TEST(Participants, YesVoteCommits) {
  Runtime rt;
  auto probe = std::make_shared<ProbeParticipant>(true);
  AtomicAction a(rt);
  a.begin();
  a.add_participant(probe);
  EXPECT_EQ(a.commit(), Outcome::Committed);
  EXPECT_EQ(probe->prepares, 1);
  EXPECT_EQ(probe->commits, 1);
  EXPECT_EQ(probe->aborts, 0);
}

TEST(LockIntegration, WriterBlocksReaderUntilCommit) {
  Runtime rt;
  RecoverableInt x(rt, 0);
  AtomicAction writer(rt, nullptr, {});
  writer.begin(AtomicAction::ContextPolicy::Detached);
  ASSERT_EQ(writer.lock_for(x, LockMode::Write), LockOutcome::Granted);
  writer.note_modified(x);

  std::atomic<bool> read_done{false};
  std::jthread reader([&] {
    AtomicAction r(rt);
    r.begin();
    EXPECT_EQ(x.value(), 0);
    read_done = true;
    r.commit();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(read_done.load());
  writer.commit();
  reader.join();
  EXPECT_TRUE(read_done.load());
}

TEST(LockIntegration, DeadlockSurfacesAsLockFailure) {
  Runtime rt;
  RecoverableInt x(rt, 0);
  RecoverableInt y(rt, 0);
  AtomicAction a(rt, nullptr, {});
  a.begin(AtomicAction::ContextPolicy::Detached);
  AtomicAction b(rt, nullptr, {});
  b.begin(AtomicAction::ContextPolicy::Detached);

  ASSERT_EQ(a.lock_for(x, LockMode::Write), LockOutcome::Granted);
  ASSERT_EQ(b.lock_for(y, LockMode::Write), LockOutcome::Granted);

  auto blocked = std::async(std::launch::async, [&] {
    a.set_lock_timeout(std::chrono::milliseconds(3000));
    return a.lock_for(y, LockMode::Write);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  b.set_lock_timeout(std::chrono::milliseconds(3000));
  EXPECT_EQ(b.lock_for(x, LockMode::Write), LockOutcome::Deadlock);
  b.abort();
  EXPECT_EQ(blocked.get(), LockOutcome::Granted);
  a.abort();
}

// An object is written and recovered by its own runtime, so an action of
// another runtime may not lock it: the grant would sit in a lock manager the
// object's own actions never consult.
TEST(LockIntegration, ObjectOfAnotherRuntimeIsRefused) {
  Runtime rt;
  Runtime other;
  RecoverableInt foreign(other, 5);
  AtomicAction a(rt);
  a.begin();
  EXPECT_THROW((void)a.lock_for(foreign, LockMode::Write), std::logic_error);
  EXPECT_THROW((void)a.lock_explicit(foreign, LockMode::Read, Colour::plain()),
               std::logic_error);
  EXPECT_THROW(foreign.set(7), std::logic_error);
  EXPECT_EQ(a.undo_record_count(), 0u);
  EXPECT_EQ(a.commit(), Outcome::Committed);

  AtomicAction own(other);
  own.begin();
  EXPECT_EQ(foreign.value(), 5);
  EXPECT_EQ(own.commit(), Outcome::Committed);
}

}  // namespace
}  // namespace mca
