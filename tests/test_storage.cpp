// Unit tests for src/storage: committed/shadow semantics, crash survival,
// file-store persistence across reopen, and fault injection.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <thread>

#include "common/executor.h"
#include "core/atomic_action.h"
#include "objects/recoverable_int.h"
#include "sim/crash_points.h"
#include "storage/faulty_store.h"
#include "storage/file_store.h"
#include "storage/memory_store.h"
#include "storage/torn_store.h"
#include "storage/wal_store.h"

namespace mca {
namespace {

ObjectState make_state(const Uid& uid, const std::string& payload) {
  ByteBuffer b;
  b.pack_string(payload);
  return ObjectState(uid, "Test", std::move(b));
}

std::string payload_of(const ObjectState& s) {
  ByteBuffer b = s.state();
  return b.unpack_string();
}

TEST(ObjectState, EncodeDecodeRoundTrip) {
  const Uid uid;
  ObjectState original = make_state(uid, "payload");
  ByteBuffer wire = original.encode();
  ObjectState decoded = ObjectState::decode(wire);
  EXPECT_EQ(decoded, original);
  EXPECT_EQ(decoded.type_name(), "Test");
  EXPECT_EQ(payload_of(decoded), "payload");
}

// All store implementations must satisfy the same contract.
class StoreContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "memory") {
      store_ = std::make_unique<MemoryStore>(StorageClass::Stable);
    } else if (GetParam() == "wal") {
      dir_ = std::filesystem::temp_directory_path() /
             ("mca_store_test_" + Uid().to_string());
      store_ = std::make_unique<WalStore>(dir_);
    } else {
      dir_ = std::filesystem::temp_directory_path() /
             ("mca_store_test_" + Uid().to_string());
      store_ = std::make_unique<FileStore>(dir_);
    }
  }
  void TearDown() override {
    store_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<ObjectStore> store_;
  std::filesystem::path dir_;
};

TEST_P(StoreContractTest, ReadOfAbsentUidIsEmpty) {
  EXPECT_FALSE(store_->read(Uid()).has_value());
}

TEST_P(StoreContractTest, WriteThenRead) {
  const Uid uid;
  store_->write(make_state(uid, "v1"));
  auto got = store_->read(uid);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(payload_of(*got), "v1");
}

TEST_P(StoreContractTest, OverwriteReplaces) {
  const Uid uid;
  store_->write(make_state(uid, "v1"));
  store_->write(make_state(uid, "v2"));
  EXPECT_EQ(payload_of(*store_->read(uid)), "v2");
}

TEST_P(StoreContractTest, RemoveDeletes) {
  const Uid uid;
  store_->write(make_state(uid, "v1"));
  EXPECT_TRUE(store_->remove(uid));
  EXPECT_FALSE(store_->read(uid).has_value());
  EXPECT_FALSE(store_->remove(uid));
}

TEST_P(StoreContractTest, UidsListsCommittedOnly) {
  const Uid a;
  const Uid b;
  store_->write(make_state(a, "a"));
  store_->write_shadow(make_state(b, "b"));
  const auto uids = store_->uids();
  EXPECT_EQ(uids.size(), 1u);
  EXPECT_EQ(uids.front(), a);
}

TEST_P(StoreContractTest, ShadowDoesNotAffectCommittedUntilPromoted) {
  const Uid uid;
  store_->write(make_state(uid, "old"));
  store_->write_shadow(make_state(uid, "new"));
  EXPECT_EQ(payload_of(*store_->read(uid)), "old");
  ASSERT_TRUE(store_->read_shadow(uid).has_value());
  EXPECT_TRUE(store_->commit_shadow(uid));
  EXPECT_EQ(payload_of(*store_->read(uid)), "new");
  EXPECT_FALSE(store_->read_shadow(uid).has_value());
}

TEST_P(StoreContractTest, DiscardShadowKeepsCommitted) {
  const Uid uid;
  store_->write(make_state(uid, "old"));
  store_->write_shadow(make_state(uid, "new"));
  EXPECT_TRUE(store_->discard_shadow(uid));
  EXPECT_EQ(payload_of(*store_->read(uid)), "old");
  EXPECT_FALSE(store_->commit_shadow(uid));
}

TEST_P(StoreContractTest, CommitShadowWithoutShadowFails) {
  EXPECT_FALSE(store_->commit_shadow(Uid()));
}

TEST_P(StoreContractTest, ShadowUidsListsPending) {
  const Uid uid;
  store_->write_shadow(make_state(uid, "x"));
  const auto shadows = store_->shadow_uids();
  ASSERT_EQ(shadows.size(), 1u);
  EXPECT_EQ(shadows.front(), uid);
}

TEST_P(StoreContractTest, StableStoreSurvivesCrash) {
  const Uid uid;
  store_->write(make_state(uid, "v1"));
  store_->write_shadow(make_state(uid, "v2"));
  store_->crash();
  EXPECT_EQ(payload_of(*store_->read(uid)), "v1");
  EXPECT_TRUE(store_->read_shadow(uid).has_value());
}

INSTANTIATE_TEST_SUITE_P(Stores, StoreContractTest,
                         ::testing::Values("memory", "file", "wal"),
                         [](const auto& info) { return info.param; });

TEST(MemoryStore, VolatileStoreLosesEverythingOnCrash) {
  MemoryStore store(StorageClass::Volatile);
  const Uid uid;
  store.write(make_state(uid, "v1"));
  store.write_shadow(make_state(uid, "v2"));
  store.crash();
  EXPECT_FALSE(store.read(uid).has_value());
  EXPECT_FALSE(store.read_shadow(uid).has_value());
}

TEST(FileStore, StateSurvivesReopen) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("mca_reopen_" + Uid().to_string());
  const Uid uid;
  {
    FileStore store(dir);
    store.write(make_state(uid, "persisted"));
    store.write_shadow(make_state(uid, "pending"));
  }
  {
    FileStore reopened(dir);
    ASSERT_TRUE(reopened.read(uid).has_value());
    EXPECT_EQ(payload_of(*reopened.read(uid)), "persisted");
    // Shadows survive too: a recovering node resolves them via the commit
    // protocol.
    ASSERT_TRUE(reopened.read_shadow(uid).has_value());
    EXPECT_EQ(reopened.shadow_uids().size(), 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(FaultyStore, InjectedShadowFaultThrows) {
  MemoryStore inner;
  FaultyStore store(inner, FaultyStore::fail_shadow_writes_after(1));
  const Uid a;
  const Uid b;
  EXPECT_NO_THROW(store.write_shadow(make_state(a, "ok")));
  EXPECT_THROW(store.write_shadow(make_state(b, "boom")), StoreFault);
  // The inner store only saw the successful write.
  EXPECT_EQ(inner.shadow_uids().size(), 1u);
}

TEST(ObjectState, UncheckedEncodingIsSmallerAndNotDecodable) {
  ObjectState s = make_state(Uid(), "payload");
  ByteBuffer checked = s.encode();
  ByteBuffer bare = s.encode_unchecked();
  // The integrity header is exactly magic + CRC + the body length prefix.
  EXPECT_EQ(checked.size(), bare.size() + 3 * sizeof(std::uint32_t));
  EXPECT_THROW((void)ObjectState::decode(bare), StateCorrupt);
}

TEST(ObjectState, TruncatedEncodingIsRejected) {
  ObjectState s = make_state(Uid(), "a payload long enough to truncate meaningfully");
  const ByteBuffer full = s.encode();
  // Every proper prefix must fail: either the CRC no longer covers the body
  // (StateCorrupt) or a length-prefixed field runs off the end
  // (BufferUnderflow). Both derive from std::runtime_error.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{7},
                                 std::size_t{12}, full.size() - 1}) {
    std::vector<std::byte> cut(full.bytes().begin(),
                               full.bytes().begin() + static_cast<std::ptrdiff_t>(keep));
    ByteBuffer buf(std::move(cut));
    EXPECT_THROW((void)ObjectState::decode(buf), std::runtime_error) << "kept " << keep;
  }
}

TEST(ObjectState, EverySingleBitFlipIsDetected) {
  ObjectState s = make_state(Uid(), "bits");
  const ByteBuffer full = s.encode();
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (std::uint8_t bit = 0; bit < 8; ++bit) {
      std::vector<std::byte> damaged(full.bytes().begin(), full.bytes().end());
      damaged[byte] ^= static_cast<std::byte>(1u << bit);
      ByteBuffer buf(std::move(damaged));
      EXPECT_THROW((void)ObjectState::decode(buf), std::runtime_error)
          << "byte " << byte << " bit " << int(bit);
    }
  }
}

// Fresh FileStore in a temp directory, cleaned up afterwards.
class FileStoreFaultTest : public ::testing::Test {
 protected:
  FileStoreFaultTest()
      : dir_(std::filesystem::temp_directory_path() / ("mca_fault_" + Uid().to_string())),
        store_(dir_) {}
  ~FileStoreFaultTest() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] bool exists(const std::filesystem::path& p) const {
    return std::filesystem::exists(p);
  }

  std::filesystem::path dir_;
  FileStore store_;
};

TEST_F(FileStoreFaultTest, TornCommittedWriteIsQuarantinedAtRead) {
  TornStore torn(store_);
  const Uid uid;
  torn.arm_write(TornStore::Mode::TornCommitted, /*keep_bytes=*/10);
  torn.write(make_state(uid, "torn"));

  EXPECT_FALSE(torn.read(uid).has_value());
  EXPECT_EQ(store_.stats().quarantined, 1u);
  // The bad bytes were moved aside, not destroyed (post-mortem material),
  // and the uid no longer lists.
  EXPECT_FALSE(exists(store_.committed_file_path(uid)));
  EXPECT_TRUE(exists(store_.committed_file_path(uid).string() + ".quarantined"));
  EXPECT_TRUE(store_.uids().empty());
}

TEST_F(FileStoreFaultTest, BitFlipIsQuarantinedAtRead) {
  TornStore torn(store_);
  const Uid uid;
  torn.arm_write(TornStore::Mode::BitFlip, /*keep_bytes=*/0, /*flip_byte=*/13, /*flip_bit=*/5);
  torn.write(make_state(uid, "flip"));

  EXPECT_TRUE(exists(store_.committed_file_path(uid)));  // the write "succeeded"
  EXPECT_FALSE(torn.read(uid).has_value());              // ...but the CRC catches it
  EXPECT_EQ(store_.stats().quarantined, 1u);
}

TEST_F(FileStoreFaultTest, FsckReportsDamageWithoutQuarantining) {
  TornStore torn(store_);
  const Uid good;
  const Uid bad;
  torn.write(make_state(good, "fine"));
  torn.arm_write(TornStore::Mode::TornCommitted, /*keep_bytes=*/6);
  torn.write(make_state(bad, "torn"));

  const auto report = store_.fsck();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report.front(), store_.committed_file_path(bad));
  // fsck is read-only: the file is still in place, nothing was moved.
  EXPECT_TRUE(exists(store_.committed_file_path(bad)));
  EXPECT_EQ(store_.stats().quarantined, 0u);
}

TEST_F(FileStoreFaultTest, ScavengerReclaimsTornTmp) {
  TornStore torn(store_);
  const Uid uid;
  torn.write(make_state(uid, "v1"));
  torn.arm_write(TornStore::Mode::TornTmp, /*keep_bytes=*/5);
  torn.write(make_state(uid, "v2"));  // dies before the rename

  EXPECT_EQ(payload_of(*torn.read(uid)), "v1");  // target untouched
  EXPECT_TRUE(exists(store_.committed_file_path(uid).string() + ".tmp"));

  store_.scavenge();
  EXPECT_FALSE(exists(store_.committed_file_path(uid).string() + ".tmp"));
  EXPECT_EQ(store_.stats().scavenged_tmp, 1u);
  EXPECT_EQ(payload_of(*torn.read(uid)), "v1");
}

TEST_F(FileStoreFaultTest, ScavengerDropsStaleShadowKeepsOrphan) {
  const Uid stale;
  const Uid orphan;
  store_.write_shadow(make_state(stale, "lost the race"));
  store_.write(make_state(stale, "committed later"));
  store_.write_shadow(make_state(orphan, "still in doubt"));
  // Force the ordering the scavenger keys on: the stale shadow is strictly
  // older than its committed counterpart.
  std::filesystem::last_write_time(
      store_.shadow_file_path(stale),
      std::filesystem::last_write_time(store_.committed_file_path(stale)) -
          std::chrono::seconds(2));

  store_.scavenge();
  EXPECT_FALSE(store_.read_shadow(stale).has_value());
  EXPECT_EQ(store_.stats().scavenged_shadows, 1u);
  // The orphan has no committed counterpart: in-doubt recovery may still
  // promote it, so the scavenger must leave it alone.
  EXPECT_TRUE(store_.read_shadow(orphan).has_value());
}

TEST(FileStore, FsyncBeforeRenameIssuesFsyncs) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("mca_fsync_" + Uid().to_string());
  {
    FileStore::Options options;
    options.fsync_before_rename = true;
    FileStore store(dir, options);
    store.write(make_state(Uid(), "durable"));
    // One fsync for the temp file, one for the directory after the rename.
    EXPECT_EQ(store.stats().fsyncs, 2u);
  }
  std::filesystem::remove_all(dir);
}

// Regression for the silent-durability bug: the old fsync helper ignored
// failures from ::open and ::fsync, so a flush the kernel refused was still
// counted as durable and the write reported as committed. A failed fsync
// must surface as a failed write — nothing may claim the state committed.
TEST(FileStore, FailedFsyncIsNeverReportedCommitted) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("mca_fsyncfail_" + Uid().to_string());
  const Uid uid;
  {
    FileStore::Options options;
    options.fsync_before_rename = true;
    options.fsync_fn = [](int) {
      errno = EIO;
      return -1;
    };
    FileStore store(dir, options);
    EXPECT_THROW(store.write(make_state(uid, "refused")), DurabilityError);
    EXPECT_GE(store.stats().fsync_failures, 1u);
    EXPECT_EQ(store.stats().fsyncs, 0u);
    // The throw fired before the rename: the committed state never appeared.
    EXPECT_FALSE(store.read(uid).has_value());
  }
  {
    // Nor does it appear after a clean reopen — the bytes were never
    // promoted past the .tmp, which the scavenger reclaims.
    FileStore reopened(dir);
    EXPECT_FALSE(reopened.read(uid).has_value());
    EXPECT_TRUE(reopened.uids().empty());
  }
  std::filesystem::remove_all(dir);
}

// ...and at the action level: a commit whose permanence write cannot be
// flushed must come back Aborted (clean prepare failure), with the object
// rolled back, never Committed.
TEST(FileStore, FailedFsyncTurnsCommitIntoAbort) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("mca_fsyncabort_" + Uid().to_string());
  {
    FileStore::Options options;
    options.fsync_before_rename = true;
    options.fsync_fn = [](int) {
      errno = EIO;
      return -1;
    };
    FileStore store(dir, options);
    Runtime rt(store);
    RecoverableInt counter(rt, 7);
    AtomicAction a(rt);
    a.begin();
    counter.set(99);
    EXPECT_EQ(a.commit(), Outcome::Aborted);
    EXPECT_EQ(rt.action_stats().prepare_failures, 1u);
    EXPECT_FALSE(store.read(counter.uid()).has_value());
    AtomicAction check(rt);
    check.begin();
    EXPECT_EQ(counter.value(), 7);
    check.abort();
  }
  std::filesystem::remove_all(dir);
}

// The stats counters are atomics: concurrent writers (parallel shadow-batch
// prepares land on sibling stores, but nothing stops two actions sharing
// one) must never lose or race an increment. Run under the tsan preset this
// also asserts data-race freedom; anywhere it asserts exactness.
TEST(FileStore, StatsAreExactUnderConcurrentWriters) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("mca_stats_" + Uid().to_string());
  {
    FileStore::Options options;
    options.fsync_before_rename = true;
    FileStore store(dir, options);
    constexpr int kThreads = 8;
    constexpr int kWritesPerThread = 16;
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&store] {
        for (int i = 0; i < kWritesPerThread; ++i) {
          store.write(make_state(Uid(), "concurrent"));
          (void)store.stats();  // reader racing the writers
        }
      });
    }
    for (std::thread& w : writers) w.join();
    // Every write is exactly one temp-file fsync plus one directory fsync.
    EXPECT_EQ(store.stats().fsyncs, 2u * kThreads * kWritesPerThread);
    EXPECT_EQ(store.stats().fsync_failures, 0u);
    EXPECT_EQ(store.uids().size(), static_cast<std::size_t>(kThreads * kWritesPerThread));
  }
  std::filesystem::remove_all(dir);
}

TEST(FaultyStore, RemoveRoutesThroughThePredicate) {
  MemoryStore inner;
  FaultyStore store(inner, [](FaultyStore::Op op, const Uid&) {
    return op == FaultyStore::Op::Remove;
  });
  const Uid uid;
  store.write(make_state(uid, "v"));  // writes unaffected
  EXPECT_THROW((void)store.remove(uid), StoreFault);
  EXPECT_TRUE(inner.read(uid).has_value());  // the inner store never saw it
}

TEST(FaultyStore, PassesThroughWhenPredicateFalse) {
  MemoryStore inner;
  FaultyStore store(inner, [](FaultyStore::Op, const Uid&) { return false; });
  const Uid uid;
  store.write(make_state(uid, "v"));
  EXPECT_TRUE(store.read(uid).has_value());
  EXPECT_EQ(store.storage_class(), StorageClass::Stable);
}

// The prepare fan-out both the kernel and the participant table call: one
// batch per store, the batches written concurrently. A veto is the first
// std::exception; a simulated kill in any batch wins over a veto in any
// other, whichever thread either ran on.
TEST(ShadowCover, KillInAnyBatchBeatsAVetoInAnother) {
  const auto dir = std::filesystem::temp_directory_path() / ("mca_cover_kill_" + Uid().to_string());
  {
    FileStore killing(dir);
    MemoryStore inner;
    FaultyStore vetoing(inner, [](FaultyStore::Op op, const Uid&) {
      return op == FaultyStore::Op::WriteShadow;
    });
    Executor executor;
    const ShadowCover cover(nullptr);
    const auto write = [&](ObjectStore& first, ObjectStore& second) {
      ShadowBatches batches;
      batches.add(first, make_state(Uid(), "first"));
      batches.add(second, make_state(Uid(), "second"));
      cover.write(batches, executor);
    };

    EXPECT_THROW(write(vetoing, killing), StoreFault);  // no kill armed: the veto
    for (const bool kill_first : {true, false}) {
      crash_points::reset();
      crash_points::arm("store.file.write.pre_rename");
      bool killed = false;
      try {
        if (kill_first) {
          write(killing, vetoing);
        } else {
          write(vetoing, killing);
        }
      } catch (const CrashPointHit&) {
        killed = true;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "the veto (" << e.what() << ") swallowed the kill";
      }
      EXPECT_TRUE(killed) << "kill in batch " << (kill_first ? 0 : 1);
    }
    crash_points::reset();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mca
