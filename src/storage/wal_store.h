// Log-structured stable object store: a group-committed write-ahead log,
// the durable store every node daemon runs on.
//
// WalStore appends every mutation — committed writes, shadow writes, shadow
// promotion/discard, removes — as a CRC-framed record to an append-only
// segment file and serves all reads from an in-memory image of the log. One
// multi-object commit is one contiguous run of records made durable by a
// single fsync, and *concurrent* commits coalesce: a dedicated committer
// thread swaps out the whole pending queue, appends it with one write and
// one fsync, and wakes every waiter whose records it covered. Under
// contention the store does strictly less than one fsync per commit.
//
// Record framing: [u32 magic 'MWL2'][u32 crc32c(body)][u32 len][body]; body
// is [u8 op][payload] where Put/PutShadow carry ObjectState::encode_unchecked()
// and Remove/CommitShadow/DiscardShadow carry just the uid. A writer frames
// its records before it takes the store lock, so the copies and the CRC of a
// large state hold up no reader, flush or checkpoint; log order is fixed by
// the enqueue under the lock. Replay walks the frames; the first bad magic,
// impossible length, or CRC mismatch is a torn tail — the file is physically
// truncated at the last whole record, so the bad record and every record
// after it are gone and everything before it is kept. A record is the unit
// of atomicity; the commit protocol's shadows and markers (which are just
// records here) own multi-record recovery. A directory written in the CRC-32
// format (a segment whose first frame is 'MWL1', a checkpoint that starts
// with 'MWC1') is refused whole: the constructor throws a DurabilityError
// naming the file and touches nothing, since replaying it would truncate
// every record as a torn tail.
//
// Checkpoint/compaction: when a flush takes the active segment past
// Options::checkpoint_threshold_bytes, the committer wakes the store's
// checkpointer thread and goes on; no writer waits for checkpoint I/O. The
// checkpointer creates segment `covered+1` and makes its directory entry
// durable, drains the committer, and then, under the store lock, only
// encodes the in-memory image and switches appends to the new segment.
// With the lock released it writes checkpoint.tmp, fsyncs, renames it to
// `checkpoint` (the atomic cut-over), fsyncs the directory and deletes the
// segments the checkpoint covers. At most one checkpoint is in flight;
// checkpoint() queues the same job and waits for it. A checkpoint that fails
// (a refused fsync, a failed write) is logged at Error and changes nothing
// the log relies on: the previous checkpoint stays authoritative, the
// covered segments stay, and the next threshold crossing tries again. It
// does not wedge the log, whose own flushes succeeded. Recovery loads the
// checkpoint (a corrupt one is quarantined and ignored, and what it alone
// held is lost: the segments it covered went once it was durable), discards
// any checkpoint.tmp, deletes covered segments a crash left behind, and
// replays the rest in sequence order.
//
// Durability policy: a failed fsync (or failed append) *wedges* the log —
// the error is captured, every waiter and every subsequent write rethrows
// it, and nothing after the failure point is ever reported as committed.
// The commit machinery turns the DurabilityError into a NO vote or an
// abort; only crash()+recovery (i.e. a node restart) clears the wedge, by
// rebuilding from what actually reached the disk.
//
// Deferred writes: a mutation made inside a DeferDurability scope (lazy
// phase two, DESIGN.md §5.4) or a DeferToNextWrite scope (covered prepare)
// updates the image and joins the queue in log order like any other, but
// returns without waiting for its ticket. A DeferDurability scope's exit
// wakes the committer; a DeferToNextWrite record wakes nobody, and its
// covering write's flush carries it at the latest. Log order is what makes
// this sound: every later waited record is durable only once the deferred
// ones are. A failed flush of deferred records may have no waiter to
// rethrow to, so every failed flush is logged at Error; the wedge still
// fails the next mutation.
//
// Threading: the store owns two threads, both named "mca-wal", started
// lazily and joined in the destructor — stores are constructed before the
// Runtime spine exists, so they cannot live on the shared Executor. The
// committer starts on the first logged write; the checkpointer on the first
// checkpoint and sleeps on a condition variable of its own. A simulated kill
// on the checkpointer wedges the log exactly as a kill on the committer does
// (wedged() turns true, the next mutation rethrows the kill); crash(),
// fsck() and the destructor wait out an in-flight checkpoint.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "storage/object_store.h"

namespace mca {

class WalStore final : public ObjectStore {
 public:
  struct Options {
    // fsync the segment after each coalesced append and the directory after
    // segment/checkpoint renames. The simulated crash model keeps the page
    // cache, so tests that only need replay coverage can turn this off.
    bool sync = true;
    // Active-segment size that triggers a checkpoint + compaction, checked
    // after each flush; the checkpoint runs on the store's checkpointer. 0
    // disables automatic checkpoints (checkpoint() still works).
    std::uint64_t checkpoint_threshold_bytes = 4ull << 20;
    // Fault-injection hook: replaces ::fsync for this store. A non-zero
    // return wedges the log (DurabilityError, counted in fsync_failures).
    std::function<int(int fd)> fsync_fn;
  };

  struct Stats {
    std::uint64_t records = 0;            // logical records appended
    std::uint64_t flushes = 0;            // coalesced appends (one write syscall each)
    std::uint64_t fsyncs = 0;             // segment + checkpoint + directory fsyncs
    std::uint64_t fsync_failures = 0;     // fsyncs refused (a refused flush wedges the log)
    std::uint64_t checkpoints = 0;        // checkpoint files cut over (renamed + dir fsynced)
    std::uint64_t compacted_segments = 0; // covered segments deleted
    std::uint64_t recovered_records = 0;  // records replayed at open / crash recovery
    std::uint64_t truncated_tails = 0;    // torn tails physically truncated
    std::uint64_t quarantined = 0;        // corrupt checkpoints moved aside
  };

  // Opens (creating if needed) the store directory and runs recovery:
  // checkpoint load, covered-segment compaction, log replay, tail
  // truncation. Throws std::filesystem::filesystem_error when the directory
  // cannot be created, and DurabilityError naming the file when it holds a
  // segment or checkpoint in the CRC-32 format.
  explicit WalStore(std::filesystem::path directory);
  WalStore(std::filesystem::path directory, Options options);
  ~WalStore() override;

  WalStore(const WalStore&) = delete;
  WalStore& operator=(const WalStore&) = delete;

  [[nodiscard]] std::optional<ObjectState> read(const Uid& uid) const override;
  void write(const ObjectState& state) override;
  bool remove(const Uid& uid) override;
  [[nodiscard]] std::vector<Uid> uids() const override;

  // One contiguous run of records, one durability wait for the whole batch.
  void write_batch(const std::vector<ObjectState>& states, WriteKind kind) override;

  void write_shadow(const ObjectState& state) override;
  [[nodiscard]] std::optional<ObjectState> read_shadow(const Uid& uid) const override;
  bool commit_shadow(const Uid& uid) override;
  bool discard_shadow(const Uid& uid) override;
  [[nodiscard]] std::vector<Uid> shadow_uids() const override;

  // Simulated node crash: volatile state (the in-memory image, the pending
  // queue, any blocked writers' claims, a checkpoint not yet started) is
  // lost; an in-flight flush or checkpoint finishes first, then the image is
  // rebuilt by re-running recovery against the files, truncating any torn
  // tail the kill produced. Writers blocked mid-commit are released with a
  // DurabilityError — their records may or may not have survived, exactly
  // like a real machine losing power mid-fsync.
  void crash() override;

  [[nodiscard]] StorageClass storage_class() const override { return StorageClass::Stable; }

  // Queues a checkpoint + compaction on the checkpointer (the job that also
  // runs automatically past Options::checkpoint_threshold_bytes) and waits
  // for it; rethrows its failure, or the wedge that stopped it.
  void checkpoint();

  [[nodiscard]] const std::filesystem::path& directory() const { return dir_; }
  [[nodiscard]] Stats stats() const;

  // Read-only integrity scan: waits out queued records and any queued or
  // in-flight checkpoint, then re-walks the checkpoint and every segment's
  // frames and returns the files that fail. After recovery this must be
  // empty — the invariant checker asserts it.
  [[nodiscard]] std::vector<std::filesystem::path> fsck() const;

  // True once a flush failed — a DurabilityError, or a simulated kill on
  // the committer or the checkpointer — until crash()+recovery clears it. A
  // kill on a thread no writer waits on reaches no node-kill catcher; this
  // is how its owner finds out.
  [[nodiscard]] bool wedged() const;

 protected:
  void wake_deferred() override;

 private:
  struct Counters {
    std::atomic<std::uint64_t> records{0};
    std::atomic<std::uint64_t> flushes{0};
    std::atomic<std::uint64_t> fsyncs{0};
    std::atomic<std::uint64_t> fsync_failures{0};
    std::atomic<std::uint64_t> checkpoints{0};
    std::atomic<std::uint64_t> compacted_segments{0};
    std::atomic<std::uint64_t> recovered_records{0};
    std::atomic<std::uint64_t> truncated_tails{0};
    std::atomic<std::uint64_t> quarantined{0};
  };

  [[nodiscard]] std::filesystem::path segment_path(std::uint64_t seq) const;
  [[nodiscard]] std::filesystem::path checkpoint_path() const;
  [[nodiscard]] std::filesystem::path checkpoint_tmp_path() const;
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::filesystem::path>> list_segments() const;

  // Enqueues the already-framed `bytes`, wakes the committer and blocks
  // until every record in them is durable (or the log wedges / the store
  // crashes under us). Inside a DeferDurability or DeferToNextWrite scope it
  // only enqueues: the former's exit wakes the committer, the latter's
  // covering write does. Caller holds `lk` and has already applied the
  // mutation to the in-memory image.
  void log_records(std::unique_lock<std::mutex>& lk, std::vector<std::byte> bytes,
                   std::size_t record_count);
  void ensure_committer_locked();
  void committer_loop();
  // The committer's unlocked section: append `bytes` to `fd`, fsync if
  // configured. Hosts the append-window crash points.
  void append_and_sync(int fd, const std::vector<std::byte>& bytes);

  void throw_if_wedged_locked() const;

  // Queues a checkpoint job (starting the checkpointer if needed) and
  // returns its number; a job that has not started yet absorbs later
  // requests.
  std::uint64_t request_checkpoint_locked();
  void checkpointer_loop();
  // One checkpoint, entered and left with the lock held. Returns its
  // failure, or null on success or when a crash abandoned it.
  std::exception_ptr run_checkpoint(std::unique_lock<std::mutex>& lk);
  // The checkpointer's unlocked section: writes and fsyncs checkpoint.tmp,
  // renames it, deletes the segments through `covered`. Hosts the
  // checkpoint-window crash points.
  void write_checkpoint_and_compact(std::span<const std::byte> file, std::uint64_t covered);

  // Full recovery with the lock held: loads the checkpoint, compacts covered
  // segments, replays the rest (truncating a torn tail), opens the active
  // segment for append.
  void recover_locked();
  // Replays one segment into the image; physically truncates a torn tail.
  // Throws DurabilityError, touching nothing, on a CRC-32-format segment.
  void replay_segment(const std::filesystem::path& path);
  void open_active_segment_locked();

  // Both throw DurabilityError and count Stats::fsync_failures on refusal.
  void fsync_fd(int fd) const;
  void fsync_path(const std::filesystem::path& path) const;

  std::filesystem::path dir_;
  Options options_;
  mutable Counters stats_;

  mutable std::mutex mutex_;
  mutable std::condition_variable work_cv_;        // committer sleeps here
  mutable std::condition_variable checkpoint_cv_;  // checkpointer sleeps here
  // Writers, checkpoint(), fsck() and crash() sleep here; every flush and
  // every finished checkpoint notifies it.
  mutable std::condition_variable durable_cv_;

  // In-memory image of the log (what replay would rebuild).
  std::map<Uid, ObjectState> committed_;
  std::map<Uid, ObjectState> shadows_;

  // Group-commit state. Tickets order records: a writer's commit is durable
  // once durable_ticket_ catches up to the ticket it was assigned.
  std::vector<std::byte> pending_;      // framed records awaiting append
  std::uint64_t pending_ticket_ = 0;    // ticket of the newest record in pending_
  std::uint64_t last_ticket_ = 0;
  std::uint64_t durable_ticket_ = 0;
  bool flushing_ = false;               // committer is in its unlocked I/O section
  bool stop_ = false;
  std::uint64_t epoch_ = 0;             // bumped by crash(); stale flush results are discarded
  std::exception_ptr wedge_;            // set once a flush fails; cleared only by recovery

  std::thread committer_;               // lazily started, joined in ~WalStore

  // Checkpoint jobs, numbered: requested >= started >= done. One is queued
  // while requested > started and in flight while started > done.
  std::uint64_t checkpoint_requested_ = 0;
  std::uint64_t checkpoint_started_ = 0;
  std::uint64_t checkpoint_done_ = 0;
  std::exception_ptr checkpoint_error_;  // the failure of job checkpoint_done_, if any
  std::thread checkpointer_;             // lazily started, joined in ~WalStore

  // Active segment.
  int fd_ = -1;
  std::uint64_t active_seq_ = 1;
  std::uint64_t active_size_ = 0;       // durable bytes in the active segment
};

}  // namespace mca
