// File-backed stable object store.
//
// One file per object under the store directory; committed states are
// written via write-to-temp + atomic rename so a crash never leaves a
// half-written committed state. Shadows live alongside with a ".shadow"
// suffix; `commit_shadow` is a rename, which is the atomic commit point.
// Because state lives on disk, `crash()` is a no-op: a new FileStore opened
// on the same directory sees everything, exactly like a rebooted diskfull
// workstation.
//
// Integrity: state files carry ObjectState's magic + CRC-32 header. A read
// that hits a torn or bit-flipped file *quarantines* it (renamed to
// ".quarantined", counted in stats) and reports the state as absent — a
// corrupt snapshot is never deserialised into a live object; the commit
// protocol treats it like any other lost state.
//
// Durability: with Options::fsync_before_rename the temp file is fsynced
// before the rename and the directory is fsynced after it, closing the
// "rename survived the crash but the data didn't" window real filesystems
// have. Off by default — the simulation's crash model doesn't lose the page
// cache, and the benchmarks record what the flag costs. A *failed* fsync (or
// a failed open of the path to sync) throws DurabilityError and is counted
// in Stats::fsync_failures: a flush the kernel refused must surface as a
// failed write (NO vote, abort), never be silently counted as durable.
//
// Scavenging: opening a store (and DistNode::restart via scavenge()) sweeps
// stale ".tmp" files — torn writes that never reached their rename — and
// shadow files strictly older than their committed counterpart (a shadow
// that lost its race can only roll state backwards). Shadows with no
// committed state are kept: an in-doubt participant needs them, and the
// protocol-level sweep (discard_unreferenced_shadows) owns their fate.
#pragma once

#include <atomic>
#include <filesystem>
#include <functional>
#include <mutex>

#include "storage/object_store.h"

namespace mca {

class FileStore final : public ObjectStore {
 public:
  struct Options {
    // fsync the temp file before rename and the directory after it.
    bool fsync_before_rename = false;
    // Run the stale-artifact sweep when the store is opened.
    bool scavenge_on_open = true;
    // Fault-injection hook in the FaultyStore tradition: replaces ::fsync
    // for this store. A non-zero return is a failed flush (DurabilityError,
    // counted in Stats::fsync_failures). Tests use this to prove a failed
    // fsync can never be reported as a committed write. Default: ::fsync.
    std::function<int(int fd)> fsync_fn;
  };

  struct Stats {
    std::uint64_t quarantined = 0;        // corrupt/torn files moved aside at read
    std::uint64_t scavenged_tmp = 0;      // stale .tmp files removed
    std::uint64_t scavenged_shadows = 0;  // stale (older-than-committed) shadows removed
    std::uint64_t fsyncs = 0;             // file + directory fsyncs issued
    std::uint64_t fsync_failures = 0;     // flushes the kernel refused (surfaced as throws)
  };

  // Creates the directory if needed. Throws std::filesystem::filesystem_error
  // when the directory cannot be created.
  explicit FileStore(std::filesystem::path directory);
  FileStore(std::filesystem::path directory, Options options);

  [[nodiscard]] std::optional<ObjectState> read(const Uid& uid) const override;
  void write(const ObjectState& state) override;
  bool remove(const Uid& uid) override;
  [[nodiscard]] std::vector<Uid> uids() const override;

  // Group commit: each file still gets its own data fsync, but the
  // per-write directory fsync is coalesced into a single directory-wide
  // barrier after the batch's renames — N+1 fsyncs for an N-write batch
  // instead of 2N (with fsync_before_rename).
  void write_batch(const std::vector<ObjectState>& states, WriteKind kind) override;

  void write_shadow(const ObjectState& state) override;
  [[nodiscard]] std::optional<ObjectState> read_shadow(const Uid& uid) const override;
  bool commit_shadow(const Uid& uid) override;
  bool discard_shadow(const Uid& uid) override;
  [[nodiscard]] std::vector<Uid> shadow_uids() const override;

  void crash() override {}
  void scavenge() override;
  [[nodiscard]] StorageClass storage_class() const override { return StorageClass::Stable; }

  [[nodiscard]] const std::filesystem::path& directory() const { return dir_; }
  [[nodiscard]] Stats stats() const;

  // Full integrity scan: decodes every committed and shadow file and returns
  // the paths that fail (torn, bit-flipped, or foreign bytes). Read-only —
  // nothing is quarantined; the post-recovery invariant checker uses this to
  // assert every durable state is intact.
  [[nodiscard]] std::vector<std::filesystem::path> fsck() const;

  // On-disk locations (for fault injectors and tests that damage files).
  [[nodiscard]] std::filesystem::path committed_file_path(const Uid& uid) const;
  [[nodiscard]] std::filesystem::path shadow_file_path(const Uid& uid) const;

 private:
  [[nodiscard]] std::optional<ObjectState> read_and_quarantine(
      const std::filesystem::path& path) const;
  void write_atomically(const std::filesystem::path& path, const ObjectState& state,
                        bool defer_dir_fsync = false);
  void scavenge_locked();
  // fsyncs `path` (file or directory). Throws DurabilityError when the path
  // cannot be opened or the kernel refuses the flush.
  void fsync_or_throw(const std::filesystem::path& path) const;

  // Counters are atomics, not mutex-guarded fields: PR 4/5 made shadow
  // writers concurrent across stores and the stats must stay exact (and
  // tsan-clean) even if a future path touches them outside mutex_; stats()
  // also no longer has to take the store lock.
  struct Counters {
    std::atomic<std::uint64_t> quarantined{0};
    std::atomic<std::uint64_t> scavenged_tmp{0};
    std::atomic<std::uint64_t> scavenged_shadows{0};
    std::atomic<std::uint64_t> fsyncs{0};
    std::atomic<std::uint64_t> fsync_failures{0};
  };

  mutable std::mutex mutex_;
  std::filesystem::path dir_;
  Options options_;
  mutable Counters stats_;
};

}  // namespace mca
