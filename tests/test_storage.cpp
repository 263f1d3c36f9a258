// Unit tests for src/storage: committed/shadow semantics, crash survival,
// the state encoding and fault injection.
#include <gtest/gtest.h>

#include <filesystem>

#include "storage/faulty_store.h"
#include "storage/memory_store.h"
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
  ByteBuffer wire = original.encode_unchecked();
  ObjectState decoded = ObjectState::decode_unchecked(wire);
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
    } else {
      dir_ = std::filesystem::temp_directory_path() /
             ("mca_store_test_" + Uid().to_string());
      store_ = std::make_unique<WalStore>(dir_);
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
                         ::testing::Values("memory", "wal"),
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

TEST(ObjectState, TruncatedEncodingIsRejected) {
  ObjectState s = make_state(Uid(), "a payload long enough to truncate meaningfully");
  const ByteBuffer full = s.encode_unchecked();
  // Every proper prefix must fail: a fixed-size or length-prefixed field
  // runs off the end (BufferUnderflow) instead of decoding short garbage.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{7},
                                 std::size_t{12}, full.size() - 1}) {
    std::vector<std::byte> cut(full.bytes().begin(),
                               full.bytes().begin() + static_cast<std::ptrdiff_t>(keep));
    ByteBuffer buf(std::move(cut));
    EXPECT_THROW((void)ObjectState::decode_unchecked(buf), BufferUnderflow) << "kept " << keep;
  }
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

}  // namespace
}  // namespace mca
