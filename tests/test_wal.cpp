// WalStore unit tests: recovery by replay, torn-tail truncation, frame
// integrity, refusal of the CRC-32 format, group commit coalescing,
// checkpoint/compaction on the background checkpointer, the fsync-failure
// wedge, and a workload-equivalence check against a stable MemoryStore (the
// durable store must behave like the reference behind the ObjectStore
// interface, live and after a crash).
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <mutex>
#include <random>
#include <set>
#include <thread>

#include "dist/remote.h"
#include "objects/recoverable_int.h"
#include "sim/crash_points.h"
#include "sim/network.h"
#include "storage/faulty_store.h"
#include "storage/memory_store.h"
#include "storage/wal_store.h"

namespace mca {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

ObjectState make_state(const Uid& uid, const std::string& payload) {
  ByteBuffer b;
  b.pack_string(payload);
  return ObjectState(uid, "Test", std::move(b));
}

std::string payload_of(const ObjectState& s) {
  ByteBuffer b = ByteBuffer::reader(s.state());
  return b.unpack_string();
}

// Fresh store directory, cleaned up afterwards.
class WalTest : public ::testing::Test {
 protected:
  WalTest() : dir_(fs::temp_directory_path() / ("mca_wal_" + Uid().to_string())) {}
  ~WalTest() override { fs::remove_all(dir_); }

  [[nodiscard]] fs::path active_segment() const {
    // The single live segment (tests that checkpoint re-derive it).
    fs::path newest;
    std::uintmax_t unused = 0;
    (void)unused;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      const auto name = entry.path().filename().string();
      if (name.starts_with("wal-") && name.ends_with(".log")) {
        if (newest.empty() || entry.path().filename() > newest.filename()) newest = entry.path();
      }
    }
    return newest;
  }

  fs::path dir_;
};

TEST_F(WalTest, ReopenReplaysTheLog) {
  const Uid a, b, c, d;
  {
    WalStore store(dir_);
    store.write(make_state(a, "committed"));
    store.write(make_state(b, "doomed"));
    EXPECT_TRUE(store.remove(b));
    store.write_shadow(make_state(c, "pending"));
    store.write_shadow(make_state(d, "promote me"));
    EXPECT_TRUE(store.commit_shadow(d));
  }
  WalStore reopened(dir_);
  EXPECT_EQ(payload_of(*reopened.read(a)), "committed");
  EXPECT_FALSE(reopened.read(b).has_value());
  EXPECT_EQ(payload_of(*reopened.read_shadow(c)), "pending");
  EXPECT_EQ(payload_of(*reopened.read(d)), "promote me");
  EXPECT_FALSE(reopened.read_shadow(d).has_value());
  // Six records went in; replay saw all six.
  EXPECT_EQ(reopened.stats().recovered_records, 6u);
  EXPECT_TRUE(reopened.fsck().empty());
}

TEST_F(WalTest, TornTailIsTruncatedAtTheLastWholeRecord) {
  const Uid a, b;
  std::uintmax_t good_size = 0;
  fs::path segment;
  {
    WalStore store(dir_);
    store.write(make_state(a, "keep me"));
    store.write(make_state(b, "also keep"));
    segment = active_segment();
    good_size = fs::file_size(segment);
    // A third record the crash cuts short: append only a prefix of a frame
    // (a plausible header, no body) — what a kill mid-append leaves behind.
    std::ofstream out(segment, std::ios::binary | std::ios::app);
    const char torn[] = {'M', 'W', 'L', '1', '\x42', '\x42', '\x42'};
    out.write(torn, sizeof torn);
  }
  ASSERT_GT(fs::file_size(segment), good_size);

  WalStore reopened(dir_);
  EXPECT_EQ(reopened.stats().truncated_tails, 1u);
  EXPECT_EQ(reopened.stats().recovered_records, 2u);
  EXPECT_EQ(fs::file_size(segment), good_size);  // physically truncated
  EXPECT_EQ(payload_of(*reopened.read(a)), "keep me");
  EXPECT_EQ(payload_of(*reopened.read(b)), "also keep");
  EXPECT_TRUE(reopened.fsck().empty());

  // The truncated log appends cleanly from the record boundary.
  const Uid c;
  reopened.write(make_state(c, "after the tear"));
  EXPECT_EQ(payload_of(*reopened.read(c)), "after the tear");
}

TEST_F(WalTest, TruncationInsideARecordDropsOnlyThatRecord) {
  const Uid a, b;
  std::uintmax_t first_size = 0;
  fs::path segment;
  {
    WalStore store(dir_);
    store.write(make_state(a, "survives"));
    segment = active_segment();
    first_size = fs::file_size(segment);
    store.write(make_state(b, "torn away"));
  }
  // Cut the second record mid-body.
  fs::resize_file(segment, first_size + 5);

  WalStore reopened(dir_);
  EXPECT_EQ(payload_of(*reopened.read(a)), "survives");
  EXPECT_FALSE(reopened.read(b).has_value());
  EXPECT_EQ(reopened.stats().truncated_tails, 1u);
  EXPECT_EQ(fs::file_size(segment), first_size);
  EXPECT_TRUE(reopened.fsck().empty());
}

std::vector<char> read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const fs::path& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A flipped bit anywhere in a record's frame (magic, CRC, length or body)
// fails the frame walk: fsck reports it, and replay truncates the log at the
// end of the last good record, so the damaged record is gone with every
// record after it.
TEST_F(WalTest, EverySingleBitFlipInARecordIsDetected) {
  const Uid a, b;
  fs::path segment;
  std::uintmax_t first_size = 0;
  std::vector<char> pristine;
  {
    WalStore store(dir_);
    store.write(make_state(a, "first"));
    segment = active_segment();
    first_size = fs::file_size(segment);
    store.write(make_state(b, "second"));
    pristine = read_bytes(segment);
    ASSERT_GT(pristine.size(), first_size);

    // fsck only reads: it reports the damaged segment and leaves it as is.
    std::vector<char> damaged = pristine;
    damaged[first_size + 5] ^= 0x10;  // a bit of the second frame's CRC
    write_bytes(segment, damaged);
    const auto bad = store.fsck();
    ASSERT_EQ(bad.size(), 1u);
    EXPECT_EQ(bad.front().filename(), segment.filename());
    EXPECT_EQ(read_bytes(segment), damaged);
  }

  for (std::size_t byte = first_size; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE(::testing::Message() << "byte " << byte << " bit " << bit);
      std::vector<char> damaged = pristine;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      write_bytes(segment, damaged);

      WalStore reopened(dir_);
      const auto first = reopened.read(a);
      ASSERT_TRUE(first.has_value());
      EXPECT_EQ(payload_of(*first), "first");
      EXPECT_FALSE(reopened.read(b).has_value());
      EXPECT_EQ(reopened.stats().truncated_tails, 1u);
      EXPECT_EQ(fs::file_size(segment), first_size);
      EXPECT_TRUE(reopened.fsck().empty());
    }
  }
}

// Group commit, deterministically: the first flush is held hostage inside
// fsync while four more writers enqueue; releasing it must drain all four
// in ONE further flush with ONE further fsync.
TEST_F(WalTest, ConcurrentCommitsCoalesceIntoOneFlush) {
  std::atomic<int> in_fsync{0};
  std::atomic<int> release{0};
  WalStore::Options options;
  options.fsync_fn = [&](int fd) {
    const int my_turn = in_fsync.fetch_add(1) + 1;
    while (release.load() < my_turn) std::this_thread::sleep_for(100us);
    return ::fsync(fd);
  };
  WalStore store(dir_, options);

  std::thread first([&] { store.write(make_state(Uid(), "flush 1")); });
  while (in_fsync.load() < 1) std::this_thread::sleep_for(100us);  // flush 1 is inside fsync

  std::vector<std::thread> writers;
  for (int i = 0; i < 4; ++i) {
    writers.emplace_back([&store, i] { store.write(make_state(Uid(), "w" + std::to_string(i))); });
  }
  // All four must be enqueued (records counted at enqueue) before we let
  // flush 1 finish.
  while (store.stats().records < 5) std::this_thread::sleep_for(100us);
  release.store(1);  // flush 1 lands
  first.join();
  release.store(2);  // flush 2 carries the coalesced four
  for (std::thread& w : writers) w.join();

  const auto stats = store.stats();
  EXPECT_EQ(stats.records, 5u);
  EXPECT_EQ(stats.flushes, 2u);
  EXPECT_EQ(stats.fsyncs, 2u);
  EXPECT_EQ(store.uids().size(), 5u);
}

TEST_F(WalTest, CheckpointCompactsAndRecoveryLoadsIt) {
  const int kWrites = 64;
  std::vector<Uid> uids(kWrites);
  WalStore::Options options;
  options.checkpoint_threshold_bytes = 512;  // force frequent checkpoints
  {
    WalStore store(dir_, options);
    for (int i = 0; i < kWrites; ++i) {
      store.write(make_state(uids[i], "value " + std::to_string(i)));
    }
    // fsck() waits out the checkpoint the last writes may have started.
    EXPECT_TRUE(store.fsck().empty());
    const auto stats = store.stats();
    EXPECT_GE(stats.checkpoints, 1u);
    EXPECT_GE(stats.compacted_segments, 1u);
  }
  ASSERT_TRUE(fs::exists(dir_ / "checkpoint"));

  WalStore reopened(dir_, options);
  for (int i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(reopened.read(uids[i]).has_value()) << i;
    EXPECT_EQ(payload_of(*reopened.read(uids[i])), "value " + std::to_string(i));
  }
  // Most of the image came from the checkpoint, not replay: only the records
  // logged after the last checkpoint replayed.
  EXPECT_LT(reopened.stats().recovered_records, static_cast<std::uint64_t>(kWrites));
  EXPECT_TRUE(reopened.fsck().empty());
}

TEST_F(WalTest, CorruptCheckpointIsQuarantinedAndTheLogStillReplays) {
  const Uid a;
  WalStore::Options options;
  options.checkpoint_threshold_bytes = 0;  // manual checkpoints only
  {
    WalStore store(dir_, options);
    store.write(make_state(a, "checkpointed"));
    store.checkpoint();
    // The covered segment is gone; damage the checkpoint afterwards. This
    // loses the state — recovery must degrade gracefully (quarantine, empty
    // image), never deserialise garbage.
  }
  {
    std::fstream f(dir_ / "checkpoint", std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(9);
    f.put('\x7f');
  }
  WalStore reopened(dir_, options);
  EXPECT_EQ(reopened.stats().quarantined, 1u);
  EXPECT_FALSE(fs::exists(dir_ / "checkpoint"));
  EXPECT_TRUE(fs::exists(dir_ / "checkpoint.quarantined"));
  EXPECT_FALSE(reopened.read(a).has_value());
  EXPECT_TRUE(reopened.fsck().empty());
  // The store still works.
  reopened.write(make_state(a, "rewritten"));
  EXPECT_EQ(payload_of(*reopened.read(a)), "rewritten");
}

// A directory in the CRC-32 format ('MWL1' record frames, an 'MWC1'
// checkpoint) is refused by name and left exactly as it was: under CRC-32C
// every one of its frames would fail, so replay would cut each segment off
// as a torn tail and quarantine the checkpoint.
TEST_F(WalTest, OldFormatFilesAreRefusedUntouched) {
  const auto write_file = [](const fs::path& path, const ByteBuffer& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.bytes().data()),
              static_cast<std::streamsize>(bytes.size()));
  };
  const auto read_file = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  const auto listing = [this] {
    std::set<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      names.insert(entry.path().filename().string());
    }
    return names;
  };
  const auto refusal = [this]() -> std::string {
    try {
      WalStore store(dir_);
    } catch (const DurabilityError& e) {
      return e.what();
    }
    return "<opened>";
  };
  fs::create_directories(dir_);

  // A segment whose first frame is a CRC-32 record, then a torn second one.
  ByteBuffer body;
  body.pack_u8(3);  // a remove
  body.pack_uid(Uid());
  ByteBuffer segment;
  segment.pack_u32(0x314C574Du);  // 'MWL1'
  segment.pack_u32(0x1234ABCDu);
  segment.pack_bytes(body.bytes());
  segment.pack_u32(0x314C574Du);
  const fs::path segment_path = dir_ / "wal-0000000000000002.log";
  write_file(segment_path, segment);
  const std::string segment_bytes = read_file(segment_path);
  const auto files = listing();
  std::string what = refusal();
  EXPECT_NE(what.find(segment_path.filename().string()), std::string::npos) << what;
  EXPECT_EQ(read_file(segment_path), segment_bytes);  // not truncated
  EXPECT_EQ(listing(), files);

  // A CRC-32 checkpoint covering that segment is refused before the segment
  // is deleted as covered, and is not quarantined.
  ByteBuffer image;
  image.pack_u64(2);  // covered through segment 2
  image.pack_u32(0);
  image.pack_u32(0);
  ByteBuffer checkpoint;
  checkpoint.pack_u32(0x3143574Du);  // 'MWC1'
  checkpoint.pack_u32(0x1234ABCDu);
  checkpoint.pack_bytes(image.bytes());
  write_file(dir_ / "checkpoint", checkpoint);
  const std::string checkpoint_bytes = read_file(dir_ / "checkpoint");
  const auto all_files = listing();
  what = refusal();
  EXPECT_NE(what.find("checkpoint"), std::string::npos) << what;
  EXPECT_EQ(read_file(dir_ / "checkpoint"), checkpoint_bytes);
  EXPECT_EQ(read_file(segment_path), segment_bytes);
  EXPECT_EQ(listing(), all_files);
  EXPECT_FALSE(fs::exists(dir_ / "checkpoint.quarantined"));
}

TEST_F(WalTest, FailedFsyncWedgesTheLogUntilRecovery) {
  auto fail = std::make_shared<std::atomic<bool>>(false);
  WalStore::Options options;
  options.fsync_fn = [fail](int fd) {
    if (fail->load()) {
      errno = EIO;
      return -1;
    }
    return ::fsync(fd);
  };
  WalStore store(dir_, options);
  const Uid ok, refused, blocked;
  store.write(make_state(ok, "before"));

  fail->store(true);
  EXPECT_THROW(store.write(make_state(refused, "refused")), DurabilityError);
  EXPECT_GE(store.stats().fsync_failures, 1u);
  // The log is wedged: nothing past a failed flush may be reported durable,
  // so even later writes fail fast.
  EXPECT_THROW(store.write(make_state(blocked, "blocked")), DurabilityError);

  // Only crash()+recovery (a node restart) clears the wedge, rebuilding the
  // image from what actually reached the disk.
  fail->store(false);
  store.crash();
  EXPECT_EQ(payload_of(*store.read(ok)), "before");
  store.write(make_state(blocked, "after recovery"));
  EXPECT_EQ(payload_of(*store.read(blocked)), "after recovery");
  EXPECT_TRUE(store.fsck().empty());
}

// ...and at the action level: a commit whose shadow write the log refuses
// must come back Aborted, with the object rolled back and nothing
// committed. The refused flush wedged the log, so the failure path's
// discard of that shadow is refused too; that refusal must not escape
// commit() and skip the abort.
TEST_F(WalTest, FailedFlushTurnsCommitIntoAbort) {
  WalStore::Options options;
  options.fsync_fn = [](int) {
    errno = EIO;
    return -1;
  };
  WalStore store(dir_, options);
  Runtime rt(store);
  RecoverableInt counter(rt, 7);
  AtomicAction a(rt);
  a.begin();
  counter.set(99);
  EXPECT_EQ(a.commit(), Outcome::Aborted);
  EXPECT_EQ(rt.action_stats().prepare_failures, 1u);
  EXPECT_FALSE(store.read(counter.uid()).has_value());
  EXPECT_TRUE(store.wedged());
  AtomicAction check(rt);
  check.begin();
  EXPECT_EQ(counter.value(), 7);
  check.abort();
}

TEST_F(WalTest, BatchIsOneFlushOneFsync) {
  WalStore store(dir_);
  std::vector<ObjectState> batch;
  for (int i = 0; i < 16; ++i) batch.push_back(make_state(Uid(), "b" + std::to_string(i)));
  const auto before = store.stats();
  store.write_batch(batch, WriteKind::Committed);
  const auto after = store.stats();
  EXPECT_EQ(after.records - before.records, 16u);
  EXPECT_EQ(after.flushes - before.flushes, 1u);
  EXPECT_EQ(after.fsyncs - before.fsyncs, 1u);
  EXPECT_EQ(store.uids().size(), 16u);
}

// -- deferred writes (DeferDurability scopes, lazy phase two) -----------------

// Holds every flush inside fsync while closed: a test can prove a write
// returned without waiting, and queue records behind a flush in progress.
struct FsyncGate {
  std::atomic<bool> open{true};
  std::atomic<int> held{0};  // flushes blocked in fsync right now

  WalStore::Options options() {
    WalStore::Options o;
    o.fsync_fn = [this](int fd) {
      held.fetch_add(1);
      while (!open.load()) std::this_thread::sleep_for(100us);
      held.fetch_sub(1);
      return ::fsync(fd);
    };
    return o;
  }
};

template <typename Pred>
bool eventually(Pred&& pred) {
  const auto end = std::chrono::steady_clock::now() + 10s;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > end) return false;
    std::this_thread::sleep_for(100us);
  }
  return true;
}

TEST_F(WalTest, DeferredWriteIsVisibleAtOnceAndDurableAfterTheNextFlush) {
  FsyncGate gate;
  gate.open.store(false);
  WalStore store(dir_, gate.options());
  // The scope reaches the log through a decorator that only forwards the
  // ObjectStore calls.
  FaultyStore decorated(store, nullptr);
  const Uid a;
  {
    const DeferDurability lazy;
    decorated.write(make_state(a, "lazy"));
  }
  // The write returned; its flush is only now held inside fsync.
  EXPECT_TRUE(eventually([&] { return gate.held.load() == 1; }));
  EXPECT_EQ(payload_of(*store.read(a)), "lazy");
  EXPECT_EQ(store.stats().flushes, 0u);

  gate.open.store(true);
  ASSERT_TRUE(eventually([&] { return store.stats().flushes == 1; }));
  store.crash();  // rebuild from the disk alone
  EXPECT_EQ(payload_of(*store.read(a)), "lazy");
}

TEST_F(WalTest, CrashBeforeItsFlushLosesADeferredWrite) {
  FsyncGate gate;
  WalStore store(dir_, gate.options());
  const Uid before, in_flight, lazy;
  store.write(make_state(before, "durable"));

  // A waited write's flush is held inside fsync; the deferred write queues
  // behind it.
  gate.open.store(false);
  std::atomic<bool> in_flight_failed{false};
  std::thread writer([&] {
    try {
      store.write(make_state(in_flight, "appended"));
    } catch (const DurabilityError&) {
      in_flight_failed.store(true);
    }
  });
  ASSERT_TRUE(eventually([&] { return gate.held.load() == 1; }));
  {
    const DeferDurability scope;
    store.write(make_state(lazy, "never appended"));
  }
  EXPECT_TRUE(store.read(lazy).has_value());

  // crash() drops the queue and releases the waiter at once, then waits
  // for the held flush to finish before it replays.
  std::thread crasher([&] { store.crash(); });
  ASSERT_TRUE(eventually([&] { return in_flight_failed.load(); }));
  gate.open.store(true);
  crasher.join();
  writer.join();

  EXPECT_FALSE(store.read(lazy).has_value());
  EXPECT_EQ(payload_of(*store.read(before)), "durable");
  // Appended before the kill: the simulated crash keeps the page cache.
  EXPECT_EQ(payload_of(*store.read(in_flight)), "appended");
  EXPECT_TRUE(store.fsck().empty());
}

TEST_F(WalTest, LaterWaitedWriteMakesEarlierDeferredWritesDurable) {
  FsyncGate gate;
  WalStore store(dir_, gate.options());
  const Uid first, promoted, marker, waited;
  store.write_shadow(make_state(promoted, "shadow"));
  store.write(make_state(marker, "marker"));

  gate.open.store(false);
  std::thread held([&] { store.write(make_state(first, "flush 1")); });
  ASSERT_TRUE(eventually([&] { return gate.held.load() == 1; }));
  {
    const DeferDurability lazy;
    EXPECT_TRUE(store.commit_shadow(promoted));
    EXPECT_TRUE(store.remove(marker));
  }
  std::thread later([&] { store.write(make_state(waited, "waited")); });
  ASSERT_TRUE(eventually([&] { return store.stats().records == 6; }));
  const auto flushes_before = store.stats().flushes;
  gate.open.store(true);
  held.join();
  later.join();

  // The waited write returned, so the deferred records queued ahead of it
  // are durable: one flush carried all three.
  EXPECT_EQ(store.stats().flushes - flushes_before, 2u);
  store.crash();
  EXPECT_EQ(payload_of(*store.read(promoted)), "shadow");
  EXPECT_FALSE(store.read_shadow(promoted).has_value());
  EXPECT_FALSE(store.read(marker).has_value());
  EXPECT_EQ(payload_of(*store.read(waited)), "waited");
}

TEST_F(WalTest, FailedFlushOfOnlyDeferredRecordsWedgesAndIsLogged) {
  auto fail = std::make_shared<std::atomic<bool>>(false);
  WalStore::Options options;
  options.fsync_fn = [fail](int fd) {
    if (fail->load()) {
      errno = EIO;
      return -1;
    }
    return ::fsync(fd);
  };
  WalStore store(dir_, options);
  const Uid ok, lazy, next;
  store.write(make_state(ok, "before"));

  fail->store(true);
  ::testing::internal::CaptureStderr();
  {
    const DeferDurability scope;
    store.write(make_state(lazy, "refused"));  // nobody waits: no throw here
  }
  ASSERT_TRUE(eventually([&] { return store.wedged(); }));
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("ERROR [store] wal flush failed, log wedged"), std::string::npos)
      << log;
  EXPECT_GE(store.stats().fsync_failures, 1u);

  // The next mutation rethrows, waited or deferred.
  EXPECT_THROW(store.write(make_state(next, "blocked")), DurabilityError);
  {
    const DeferDurability scope;
    EXPECT_THROW(store.remove(ok), DurabilityError);
  }

  fail->store(false);
  store.crash();
  EXPECT_FALSE(store.wedged());
  EXPECT_EQ(payload_of(*store.read(ok)), "before");
  EXPECT_TRUE(store.fsck().empty());
}

TEST_F(WalTest, CheckpointAndFsckDrainDeferredRecords) {
  WalStore::Options options;
  options.checkpoint_threshold_bytes = 0;  // manual checkpoints only
  WalStore store(dir_, options);
  const Uid a, b;
  store.write(make_state(a, "waited"));  // the committer is running, idle
  {
    const DeferDurability lazy;
    store.write(make_state(b, "deferred"));
    // Still inside the scope, so nothing has woken the committer for b:
    // both calls must flush it rather than wait for a wake that never comes.
    EXPECT_TRUE(store.fsck().empty());
    store.checkpoint();
  }
  EXPECT_EQ(store.stats().checkpoints, 1u);
  store.crash();  // the checkpoint alone carries both
  EXPECT_EQ(payload_of(*store.read(a)), "waited");
  EXPECT_EQ(payload_of(*store.read(b)), "deferred");
}

// -- covered records (DeferToNextWrite scopes, covered prepare) --------------

TEST_F(WalTest, CoveredRecordsAndTheCoveringWriteAreOneFlush) {
  WalStore store(dir_);
  // The scope reaches the log through a decorator that only forwards the
  // ObjectStore calls.
  FaultyStore decorated(store, nullptr);
  const Uid before, s1, s2, marker;
  // Warm: the first write starts the committer, which would flush anything
  // queued at once. Now it is running and idle.
  store.write(make_state(before, "warm"));
  {
    const DeferToNextWrite ride;
    decorated.write_batch({make_state(s1, "shadow 1"), make_state(s2, "shadow 2")},
                          WriteKind::Shadow);
  }
  EXPECT_EQ(payload_of(*store.read_shadow(s1)), "shadow 1");  // visible at once
  EXPECT_EQ(store.stats().flushes, 1u);  // queued, nobody woken
  decorated.write(make_state(marker, "marker"));
  EXPECT_EQ(store.stats().records, 4u);
  EXPECT_EQ(store.stats().flushes, 2u);
  EXPECT_EQ(store.stats().fsyncs, 2u);

  WalStore reopened(dir_);
  EXPECT_EQ(payload_of(*reopened.read_shadow(s1)), "shadow 1");
  EXPECT_EQ(payload_of(*reopened.read_shadow(s2)), "shadow 2");
  EXPECT_EQ(payload_of(*reopened.read(marker)), "marker");
  EXPECT_TRUE(reopened.fsck().empty());
}

TEST_F(WalTest, CrashBeforeTheCoveringWriteLosesTheCoveredRecords) {
  WalStore store(dir_);
  const Uid before, s1, s2;
  store.write(make_state(before, "durable"));  // warm: the committer is running, idle
  {
    const DeferToNextWrite ride;
    store.write_shadow(make_state(s1, "never appended"));
    store.write_shadow(make_state(s2, "never appended either"));
  }
  EXPECT_TRUE(store.read_shadow(s1).has_value());
  EXPECT_EQ(store.stats().flushes, 1u);

  store.crash();  // the covering write never came
  EXPECT_FALSE(store.read_shadow(s1).has_value());
  EXPECT_FALSE(store.read_shadow(s2).has_value());
  EXPECT_EQ(payload_of(*store.read(before)), "durable");
  EXPECT_TRUE(store.fsck().empty());
}

TEST_F(WalTest, FailedCoveringFlushRethrowsToTheCoveringWriterAndWedges) {
  auto fail = std::make_shared<std::atomic<bool>>(false);
  WalStore::Options options;
  options.fsync_fn = [fail](int fd) {
    if (fail->load()) {
      errno = EIO;
      return -1;
    }
    return ::fsync(fd);
  };
  WalStore store(dir_, options);
  const Uid ok, shadow, marker, next;
  store.write(make_state(ok, "before"));  // warm

  fail->store(true);
  {
    const DeferToNextWrite ride;
    store.write_shadow(make_state(shadow, "covered"));  // nothing flushed: no throw
  }
  EXPECT_FALSE(store.wedged());
  // The covering write's flush carries the covered record and fails: its
  // writer is the one the error reaches.
  EXPECT_THROW(store.write(make_state(marker, "covering")), DurabilityError);
  EXPECT_TRUE(store.wedged());
  EXPECT_EQ(store.stats().flushes, 1u);
  EXPECT_THROW(store.write(make_state(next, "blocked")), DurabilityError);

  fail->store(false);
  store.crash();
  EXPECT_FALSE(store.wedged());
  EXPECT_EQ(payload_of(*store.read(ok)), "before");
  // One append: the bytes the refused fsync left may survive the simulated
  // crash, but the covered record and the covering one share a fate.
  EXPECT_EQ(store.read_shadow(shadow).has_value(), store.read(marker).has_value());
  EXPECT_FALSE(store.read(next).has_value());
  EXPECT_TRUE(store.fsck().empty());
}

// The protocol-level count: a participant's vote — its shadow batch and the
// prepared marker that covers it — is one append and one fsync.
TEST_F(WalTest, ParticipantPrepareIsOneFlush) {
  NetworkConfig config;
  config.min_delay = std::chrono::microseconds(10);
  config.max_delay = std::chrono::microseconds(200);
  Network net(config);
  WalStore store(dir_);
  DistNode coordinator(net, 1);
  DistNode participant(net, 2, &store);
  RecoverableInt x(participant.runtime(), 100), y(participant.runtime(), 100);
  participant.host(x);
  participant.host(y);
  store.write(make_state(Uid(), "warm"));  // the committer is running, idle

  // Read the flush count as the tx.prepare handler enters and leaves prepare.
  crash_points::reset();
  std::uint64_t entering = 0;
  std::uint64_t voting = 0;
  crash_points::arm("tpc.participant.prepare.pre_shadow", 0,
                    [&] { entering = store.stats().flushes; });
  crash_points::arm("tpc.participant.prepare.post_marker", 0,
                    [&] { voting = store.stats().flushes; });
  AtomicAction act(coordinator.runtime());
  act.begin();
  RemoteInt(coordinator, participant.id(), x.uid()).add(-10);
  RemoteInt(coordinator, participant.id(), y.uid()).add(10);
  EXPECT_EQ(act.commit(), Outcome::Committed);
  EXPECT_EQ(crash_points::fire_count("tpc.participant.prepare.post_marker"), 1u);
  crash_points::reset();
  EXPECT_EQ(voting - entering, 1u);
}

// The coordinator's side: its default-store shadows only queue at prepare
// and ride the decision record's flush.
TEST_F(WalTest, CoordinatorPrepareShadowsOnlyQueue) {
  NetworkConfig config;
  config.min_delay = std::chrono::microseconds(10);
  config.max_delay = std::chrono::microseconds(200);
  Network net(config);
  WalStore store(dir_);
  DistNode coordinator(net, 1, &store);
  DistNode participant(net, 2);
  RecoverableInt z(coordinator.runtime(), 100), a(participant.runtime(), 100);
  coordinator.host(z);
  participant.host(a);
  store.write(make_state(Uid(), "warm"));  // the committer is running, idle

  crash_points::reset();
  std::uint64_t sending = 0;
  crash_points::arm("tpc.coord.phase1.pre_send", 0, [&] { sending = store.stats().flushes; });
  ASSERT_TRUE(store.fsck().empty());
  AtomicAction act(coordinator.runtime());
  act.begin();
  z.add(-10);
  RemoteInt(coordinator, participant.id(), a.uid()).add(10);
  const std::uint64_t before = store.stats().flushes;
  EXPECT_EQ(act.commit(), Outcome::Committed);
  EXPECT_EQ(crash_points::fire_count("tpc.coord.phase1.pre_send"), 1u);
  EXPECT_EQ(sending, before);
  EXPECT_GT(store.stats().flushes, sending);
  crash_points::reset();
  ByteBuffer committed = store.read(z.uid())->state();
  EXPECT_EQ(committed.unpack_i64(), 90);
}

// One action's prepare parked in its marker's flush holds up no other action
// at that node: the participant table's mutex covers lookups only, and each
// action's steps serialise on a lock of their own.
TEST_F(WalTest, PrepareParkedInItsMarkerFlushHoldsUpNoOtherAction) {
  NetworkConfig config;
  config.min_delay = std::chrono::microseconds(10);
  config.max_delay = std::chrono::microseconds(200);
  Network net(config);
  FsyncGate gate;
  WalStore store(dir_, gate.options());
  DistNode coordinator(net, 1);
  DistNode participant(net, 2, &store);
  RecoverableInt x(participant.runtime(), 100), y(participant.runtime(), 100);
  participant.host(x);
  participant.host(y);
  store.write(make_state(Uid(), "warm"));  // the committer is running, idle

  crash_points::reset();
  std::atomic<bool> marking{false};
  crash_points::arm("tpc.participant.post_shadow_pre_marker", 0, [&] { marking.store(true); });
  gate.open.store(false);
  // Each action runs on a thread of its own; a failure is recorded, not thrown.
  const auto run = [&](const Uid& object, std::int64_t delta, std::atomic<bool>& invoked,
                       std::atomic<int>& outcome) {
    return std::thread([&, object, delta] {
      try {
        AtomicAction act(coordinator.runtime());
        act.begin();
        RemoteInt(coordinator, participant.id(), object).add(delta);
        invoked.store(true);
        outcome.store(static_cast<int>(act.commit()));
      } catch (const std::exception&) {
        outcome.store(-1);
      }
    });
  };
  constexpr int kRunning = -2;
  std::atomic<bool> a_invoked{false}, b_invoked{false};
  std::atomic<int> a_outcome{kRunning}, b_outcome{kRunning};

  std::thread a = run(x.uid(), -10, a_invoked, a_outcome);
  // A's marker is written and its flush is held inside fsync.
  ASSERT_TRUE(eventually([&] { return marking.load() && gate.held.load() == 1; }));
  std::thread b = run(y.uid(), 10, b_invoked, b_outcome);
  const bool b_through =
      eventually([&] { return b_invoked.load() || b_outcome.load() != kRunning; });
  EXPECT_TRUE(b_through && b_invoked.load()) << "B's invoke waited behind A's marker flush";
  EXPECT_EQ(a_outcome.load(), kRunning) << "A's prepare left the gate before it opened";

  gate.open.store(true);
  a.join();
  b.join();
  crash_points::reset();
  EXPECT_EQ(a_outcome.load(), static_cast<int>(Outcome::Committed));
  EXPECT_EQ(b_outcome.load(), static_cast<int>(Outcome::Committed));
  const auto x_state = store.read(x.uid());
  const auto y_state = store.read(y.uid());
  ASSERT_TRUE(x_state.has_value() && y_state.has_value());
  ByteBuffer x_value = x_state->state();
  ByteBuffer y_value = y_state->state();
  EXPECT_EQ(x_value.unpack_i64(), 90);
  EXPECT_EQ(y_value.unpack_i64(), 110);
}

// The other half of the per-mirror lock: steps of the *same* action still
// run one at a time. An abort that arrives while the action's prepare is
// between its shadows and its marker waits for the prepare, then discards
// what it wrote; run alongside it, it would find no marker to drop, and
// the prepare would then write one that nothing resolves.
TEST_F(WalTest, AbortQueuesBehindItsOwnActionsPrepare) {
  NetworkConfig config;
  config.min_delay = std::chrono::microseconds(10);
  config.max_delay = std::chrono::microseconds(200);
  Network net(config);
  WalStore store(dir_);
  DistNode coordinator(net, 1);
  DistNode participant(net, 2, &store);
  RecoverableInt x(participant.runtime(), 100);
  participant.host(x);

  AtomicAction act(coordinator.runtime());
  act.begin();
  RemoteInt(coordinator, participant.id(), x.uid()).add(-10);
  std::vector<Colour> permanent;
  for (const Colour c : act.colours()) permanent.push_back(c);
  ParticipantTable& table = participant.participants();

  // Park the prepare after its shadows, before its marker.
  crash_points::reset();
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  crash_points::arm("tpc.participant.post_shadow_pre_marker", 0, [&] {
    parked.store(true);
    while (!release.load()) std::this_thread::sleep_for(100us);
  });
  std::atomic<bool> voted{false};
  std::thread preparer([&] { voted.store(table.prepare(act.uid(), permanent, coordinator.id())); });
  ASSERT_TRUE(eventually([&] { return parked.load(); }));
  std::atomic<bool> aborted{false};
  std::thread aborter([&] {
    table.abort(act.uid());
    aborted.store(true);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(aborted.load()) << "the abort ran alongside its action's prepare";

  release.store(true);
  preparer.join();
  aborter.join();
  crash_points::reset();
  EXPECT_TRUE(voted.load());
  EXPECT_EQ(table.mirror_count(), 0u);
  EXPECT_EQ(participant.in_doubt_count(), 0u);
  EXPECT_TRUE(store.shadow_uids().empty());
  EXPECT_FALSE(store.read(x.uid()).has_value());  // never committed
  act.abort();

  // The abort released x: a new action writes it and commits.
  AtomicAction next(coordinator.runtime());
  next.begin();
  RemoteInt(coordinator, participant.id(), x.uid()).add(5);
  EXPECT_EQ(next.commit(), Outcome::Committed);
  const auto x_state = store.read(x.uid());
  ASSERT_TRUE(x_state.has_value());
  ByteBuffer x_value = x_state->state();
  EXPECT_EQ(x_value.unpack_i64(), 105);
}

// -- background checkpoints ----------------------------------------------------

// True when `fd` is open on the file at `path`, matched by device and inode.
bool is_file(int fd, const fs::path& path) {
  struct stat by_fd {};
  struct stat by_path {};
  return ::fstat(fd, &by_fd) == 0 && ::stat(path.c_str(), &by_path) == 0 &&
         by_fd.st_dev == by_path.st_dev && by_fd.st_ino == by_path.st_ino;
}

// Options for a store that hands its checkpointer a job after every flush
// and parks checkpoint.tmp's fsync until release(); segment and directory
// fsyncs pass straight through. Release before the store is destroyed: its
// destructor waits for the checkpoint.
struct CheckpointFsyncHold {
  std::mutex m;
  std::condition_variable cv;
  bool held = false;
  bool released = false;

  WalStore::Options options(const fs::path& dir) {
    WalStore::Options o;
    o.checkpoint_threshold_bytes = 1;
    o.fsync_fn = [this, tmp = dir / "checkpoint.tmp"](int fd) {
      if (is_file(fd, tmp)) {
        std::unique_lock lock(m);
        held = true;
        cv.notify_all();
        cv.wait(lock, [&] { return released; });
      }
      return ::fsync(fd);
    };
    return o;
  }
  bool wait_until_held() {
    std::unique_lock lock(m);
    return cv.wait_for(lock, 10s, [&] { return held; });
  }
  void release() {
    {
      const std::scoped_lock lock(m);
      released = true;
    }
    cv.notify_all();
  }
};

// The checkpoint a write starts runs on the checkpointer: while it is parked
// in checkpoint.tmp's fsync, waited writes on another thread still complete.
TEST_F(WalTest, WriteDoesNotWaitForACheckpoint) {
  CheckpointFsyncHold hold;
  WalStore store(dir_, hold.options(dir_));
  const Uid first;
  std::vector<Uid> later(16);
  std::thread trigger([&] { store.write(make_state(first, "starts a checkpoint")); });
  const bool held = hold.wait_until_held();
  EXPECT_TRUE(held) << "no checkpoint reached checkpoint.tmp's fsync";
  auto writes = std::async(std::launch::async, [&] {
    for (std::size_t i = 0; i < later.size(); ++i) {
      store.write(make_state(later[i], "during " + std::to_string(i)));
    }
  });
  const bool completed = writes.wait_for(10s) == std::future_status::ready;
  EXPECT_TRUE(completed) << "waited writes queued behind the checkpoint's fsync";
  EXPECT_EQ(store.stats().checkpoints, 0u);  // still parked
  hold.release();
  trigger.join();
  writes.get();

  EXPECT_TRUE(store.fsck().empty());  // waits for the checkpoint it released
  EXPECT_GE(store.stats().checkpoints, 1u);
  store.crash();
  EXPECT_EQ(payload_of(*store.read(first)), "starts a checkpoint");
  for (std::size_t i = 0; i < later.size(); ++i) {
    EXPECT_EQ(payload_of(*store.read(later[i])), "during " + std::to_string(i));
  }
}

// A checkpoint that fails is the checkpointer's problem alone: the durable
// write that started it returns normally, the failure is logged, the log is
// not wedged, the previous state of the files stands and the next
// threshold crossing tries again. Only checkpoint(), which waits for the
// job, rethrows it.
TEST_F(WalTest, FailedCheckpointDoesNotFailADurableWrite) {
  auto refused = std::make_shared<std::atomic<int>>(0);
  WalStore::Options options;
  options.checkpoint_threshold_bytes = 1;  // every flush starts a checkpoint
  options.fsync_fn = [refused, tmp = dir_ / "checkpoint.tmp"](int fd) {
    if (is_file(fd, tmp)) {
      refused->fetch_add(1);
      errno = EIO;
      return -1;
    }
    return ::fsync(fd);
  };
  WalStore store(dir_, options);
  const Uid a, b;
  ::testing::internal::CaptureStderr();
  EXPECT_NO_THROW(store.write(make_state(a, "first")));
  EXPECT_TRUE(store.fsck().empty());  // waits out the checkpoint the write started
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("ERROR [store] wal checkpoint failed"), std::string::npos) << log;
  EXPECT_EQ(refused->load(), 1);
  EXPECT_FALSE(store.wedged());
  EXPECT_EQ(store.stats().checkpoints, 0u);
  EXPECT_EQ(store.stats().compacted_segments, 0u);
  EXPECT_FALSE(fs::exists(dir_ / "checkpoint"));
  EXPECT_FALSE(fs::exists(dir_ / "checkpoint.tmp"));

  EXPECT_NO_THROW(store.write(make_state(b, "second")));
  EXPECT_TRUE(store.fsck().empty());
  EXPECT_EQ(refused->load(), 2);  // the next crossing tried again
  EXPECT_THROW(store.checkpoint(), DurabilityError);
  EXPECT_FALSE(store.wedged());

  store.crash();  // every segment is still there to replay
  EXPECT_EQ(payload_of(*store.read(a)), "first");
  EXPECT_EQ(payload_of(*store.read(b)), "second");
  EXPECT_EQ(store.stats().recovered_records, 2u);
  EXPECT_TRUE(store.fsck().empty());
}

// A simulated kill on the checkpointer stands for the process dying in the
// middle of a checkpoint: no writer unwinds through it, so it wedges the log
// like a kill on the committer, and the next mutation rethrows it.
TEST_F(WalTest, KillOnTheCheckpointerWedgesTheLog) {
  WalStore::Options options;
  options.checkpoint_threshold_bytes = 1;
  WalStore store(dir_, options);
  const Uid before, acknowledged, refused;
  store.write(make_state(before, "before"));
  EXPECT_TRUE(store.fsck().empty());  // its checkpoint is done

  crash_points::reset();
  crash_points::arm("store.wal.checkpoint.mid_write");
  store.write(make_state(acknowledged, "acknowledged"));  // returns: its flush is durable
  ASSERT_TRUE(eventually([&] { return store.wedged(); }));
  EXPECT_EQ(crash_points::fire_count("store.wal.checkpoint.mid_write"), 1u);
  std::string rethrown = "<nothing>";
  try {
    store.write(make_state(refused, "refused"));
  } catch (const CrashPointHit& hit) {
    rethrown = hit.point();
  }
  EXPECT_EQ(rethrown, "store.wal.checkpoint.mid_write");
  crash_points::reset();

  store.crash();
  EXPECT_FALSE(store.wedged());
  EXPECT_EQ(payload_of(*store.read(before)), "before");
  EXPECT_EQ(payload_of(*store.read(acknowledged)), "acknowledged");
  EXPECT_FALSE(store.read(refused).has_value());
  EXPECT_FALSE(fs::exists(dir_ / "checkpoint.tmp"));
  EXPECT_TRUE(store.fsck().empty());
}

// crash() lets an in-flight checkpoint finish before recovery reads the
// files: a recovery run under it would delete checkpoint.tmp, replay the
// segment the checkpoint is about to cover, and leave the checkpoint's
// rename to fail.
TEST_F(WalTest, CrashWaitsForAnInFlightCheckpoint) {
  CheckpointFsyncHold hold;
  WalStore store(dir_, hold.options(dir_));
  const Uid a;
  std::thread trigger([&] { store.write(make_state(a, "checkpointed")); });
  const bool held = hold.wait_until_held();
  EXPECT_TRUE(held) << "no checkpoint reached checkpoint.tmp's fsync";
  std::atomic<bool> crashed{false};
  std::thread crasher([&] {
    store.crash();
    crashed.store(true);
  });
  // However long crash() is given here, it must not return before release.
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(crashed.load());
  hold.release();
  crasher.join();
  trigger.join();

  EXPECT_TRUE(crashed.load());
  EXPECT_EQ(store.stats().checkpoints, 1u);
  EXPECT_EQ(store.stats().compacted_segments, 1u);
  EXPECT_EQ(store.stats().recovered_records, 0u);  // recovery loaded the checkpoint
  EXPECT_EQ(payload_of(*store.read(a)), "checkpointed");
  EXPECT_TRUE(store.fsck().empty());
}

// The WAL must agree with the reference stable store on every observable
// after the same workload — both live and after a crash (a full replay on
// the WAL side).
TEST_F(WalTest, MatchesMemoryStoreOnTheSameWorkload) {
  MemoryStore reference(StorageClass::Stable);
  WalStore wal(dir_);

  std::mt19937 rng(0xD15C);
  std::vector<Uid> universe(24);
  std::uniform_int_distribution<std::size_t> pick_uid(0, universe.size() - 1);
  std::uniform_int_distribution<int> pick_op(0, 5);

  for (int step = 0; step < 400; ++step) {
    const Uid& uid = universe[pick_uid(rng)];
    const std::string payload = "step " + std::to_string(step);
    switch (pick_op(rng)) {
      case 0:
      case 1: {  // writes dominate, like the real workload
        const ObjectState s = make_state(uid, payload);
        reference.write(s);
        wal.write(s);
        break;
      }
      case 2: {
        const ObjectState s = make_state(uid, payload);
        reference.write_shadow(s);
        wal.write_shadow(s);
        break;
      }
      case 3:
        EXPECT_EQ(reference.commit_shadow(uid), wal.commit_shadow(uid)) << step;
        break;
      case 4:
        EXPECT_EQ(reference.discard_shadow(uid), wal.discard_shadow(uid)) << step;
        break;
      case 5:
        EXPECT_EQ(reference.remove(uid), wal.remove(uid)) << step;
        break;
    }
  }

  const auto diff_stores = [&](ObjectStore& a, ObjectStore& b, const char* when) {
    auto auids = a.uids();
    auto buids = b.uids();
    std::sort(auids.begin(), auids.end());
    std::sort(buids.begin(), buids.end());
    EXPECT_EQ(auids, buids) << when;
    for (const Uid& uid : universe) {
      const auto sa = a.read(uid);
      const auto sb = b.read(uid);
      ASSERT_EQ(sa.has_value(), sb.has_value()) << when << " " << uid.to_string();
      if (sa) {
        EXPECT_EQ(*sa, *sb) << when << " " << uid.to_string();
      }
      const auto ha = a.read_shadow(uid);
      const auto hb = b.read_shadow(uid);
      ASSERT_EQ(ha.has_value(), hb.has_value()) << when << " " << uid.to_string();
      if (ha) {
        EXPECT_EQ(*ha, *hb) << when << " " << uid.to_string();
      }
    }
  };
  diff_stores(reference, wal, "live");

  // Power-cycle both; the images must still agree.
  reference.crash();  // stable: keeps everything
  wal.crash();        // full replay
  diff_stores(reference, wal, "after crash");
}

// -- the commit protocol's durable records (dist/tpc.h) -------------------------
//
// Each record goes through its writer into a WalStore and is read back
// through its reader after the store is reopened (a full replay).
using ProtocolRecords = WalTest;

TEST(ProtocolRecordKeys, DistinctAndEachItsOwnInverse) {
  const ProtocolRecord kinds[] = {ProtocolRecord::PreparedMarker, ProtocolRecord::CoordinatorLog,
                                  ProtocolRecord::WitnessCopy, ProtocolRecord::WitnessTombstone};
  for (const Uid action : {Uid(), Uid(), Uid(0, 0), Uid(~0ULL, ~0ULL)}) {
    std::set<Uid> keys{action};
    for (const ProtocolRecord kind : kinds) {
      const Uid key = protocol_record_key(kind, action);
      EXPECT_EQ(protocol_record_key(kind, key), action);
      keys.insert(key);
    }
    EXPECT_EQ(keys.size(), 5u) << "two kinds, or a kind and the action, share a key";
  }
}

TEST_F(ProtocolRecords, PreparedMarkerRoundTrips) {
  const ParticipantTable::Marker marker{
      Uid(),
      7,
      {{Uid(), Colour::plain()}, {Uid(), Colour::named("red")}, {Uid(), Colour::named("blue")}},
      {4, 5, 9},
      {{Uid(), std::vector<std::byte>(9, std::byte{1})}, {Uid(), {}}}};
  {
    WalStore store(dir_);
    Runtime rt(store);
    ParticipantTable::write_marker(rt, marker);
  }
  WalStore store(dir_);
  Runtime rt(store);
  const auto read = ParticipantTable::read_marker(rt, marker.action);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->action, marker.action);
  EXPECT_EQ(read->coordinator, marker.coordinator);
  EXPECT_EQ(read->prepared, marker.prepared);
  EXPECT_EQ(read->witnesses, marker.witnesses);
  ASSERT_EQ(read->deltas.size(), marker.deltas.size());
  for (std::size_t i = 0; i < marker.deltas.size(); ++i) {
    EXPECT_EQ(read->deltas[i].object, marker.deltas[i].object);
    EXPECT_EQ(read->deltas[i].ops, marker.deltas[i].ops);
  }

  const ParticipantTable table(rt, [](const Uid&) { return nullptr; });
  const auto in_doubt = table.in_doubt();
  ASSERT_EQ(in_doubt.size(), 1u);
  EXPECT_EQ(in_doubt[0].action, marker.action);
  EXPECT_EQ(in_doubt[0].prepared, marker.prepared);
}

TEST_F(ProtocolRecords, CoordinatorLogRecordsRoundTrip) {
  using CLP = CoordinatorLogParticipant;
  const Uid pending_action, sealed_action, applied_action, delta_action;
  CLP::Record pending;
  pending.state = CLP::RecordState::Pending;
  pending.witnesses = {2, 3};
  pending.redo_uids = {Uid(), Uid()};
  CLP::Record sealed = pending;
  sealed.state = CLP::RecordState::Sealed;
  sealed.redo_uids.push_back(Uid());
  CLP::Record applied;
  applied.state = CLP::RecordState::Applied;
  applied.witnesses = {2, 3};
  CLP::Record delta;
  delta.state = CLP::RecordState::Delta;
  const auto ops = [](int n) { return std::vector<std::byte>(n, std::byte(n)); };
  delta.delta_nodes = {{1, {{Uid(), ops(3)}, {Uid(), ops(0)}}}, {4, {{Uid(), ops(17)}}}};
  {
    WalStore store(dir_);
    Runtime rt(store);
    CLP::write_record(rt, pending_action, pending);
    CLP::write_record(rt, sealed_action, sealed);
    CLP::write_record(rt, applied_action, applied);
    CLP::write_record(rt, delta_action, delta);
  }
  WalStore store(dir_);
  Runtime rt(store);
  for (const auto& [action, expected] : {std::pair{pending_action, pending},
                                         std::pair{sealed_action, sealed},
                                         std::pair{applied_action, applied},
                                         std::pair{delta_action, delta}}) {
    const auto read = CLP::read_record(rt, action);
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(read->state, expected.state);
    EXPECT_EQ(read->witnesses, expected.witnesses);
    EXPECT_EQ(read->redo_uids, expected.redo_uids);
    ASSERT_EQ(read->delta_nodes.size(), expected.delta_nodes.size());
    for (std::size_t i = 0; i < expected.delta_nodes.size(); ++i) {
      const auto& [node, entries] = read->delta_nodes[i];
      EXPECT_EQ(node, expected.delta_nodes[i].first);
      ASSERT_EQ(entries.size(), expected.delta_nodes[i].second.size());
      for (std::size_t j = 0; j < entries.size(); ++j) {
        EXPECT_EQ(entries[j].object, expected.delta_nodes[i].second[j].object);
        EXPECT_EQ(entries[j].ops, expected.delta_nodes[i].second[j].ops);
      }
    }
  }
  const auto logged = CLP::logged_actions(rt);
  EXPECT_EQ(std::set<Uid>(logged.begin(), logged.end()),
            (std::set<Uid>{pending_action, sealed_action, applied_action, delta_action}));
  EXPECT_EQ(CLP::logged_status(rt, pending_action), TxStatus::Pending);
  EXPECT_EQ(CLP::logged_status(rt, sealed_action), TxStatus::Committed);
}

TEST_F(ProtocolRecords, WitnessCopyAndTombstoneRoundTrip) {
  const Uid copied, fenced;
  {
    WalStore store(dir_);
    Runtime rt(store);
    EXPECT_TRUE(WitnessLog::record_decision(rt, copied));
    EXPECT_EQ(WitnessLog::status_or_fence(rt, fenced), TxStatus::Aborted);
  }
  WalStore store(dir_);
  Runtime rt(store);
  EXPECT_TRUE(WitnessLog::has_decision(rt, copied));
  EXPECT_FALSE(WitnessLog::has_tombstone(rt, copied));
  EXPECT_TRUE(WitnessLog::has_tombstone(rt, fenced));
  EXPECT_FALSE(WitnessLog::has_decision(rt, fenced));
  EXPECT_FALSE(WitnessLog::record_decision(rt, fenced)) << "the fence must outlive a restart";
  EXPECT_EQ(WitnessLog::status_or_fence(rt, copied), TxStatus::Committed);
}

}  // namespace
}  // namespace mca
