#include "storage/wal_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <utility>

#include "common/checksum.h"
#include "common/logging.h"
#include "common/thread_name.h"
#include "sim/crash_points.h"

namespace mca {
namespace fs = std::filesystem;

namespace {

// "MWL2" / "MWC2" little-endian: record frames and checkpoint files carry
// distinct magics so neither can ever be mistaken for the other. Both are
// CRC-32C-checked. "MWL1" / "MWC1" were the same layouts under the table
// CRC-32; a store holding them is refused, never replayed.
constexpr std::uint32_t kRecordMagic = 0x324C574Du;
constexpr std::uint32_t kCheckpointMagic = 0x3243574Du;
constexpr std::uint32_t kCrc32RecordMagic = 0x314C574Du;
constexpr std::uint32_t kCrc32CheckpointMagic = 0x3143574Du;

constexpr const char* kSegmentPrefix = "wal-";
constexpr const char* kSegmentSuffix = ".log";
constexpr const char* kCheckpointName = "checkpoint";
constexpr const char* kCheckpointTmpName = "checkpoint.tmp";
constexpr const char* kQuarantineSuffix = ".quarantined";

// Shortest possible frame: magic + crc + the body's length prefix.
constexpr std::size_t kFrameHeaderBytes = 12;

enum class Op : std::uint8_t {
  kPut = 1,           // committed state; payload = encode_unchecked fields
  kPutShadow = 2,     // shadow state; same payload
  kRemove = 3,        // payload = uid
  kCommitShadow = 4,  // payload = uid
  kDiscardShadow = 5, // payload = uid
};

std::optional<std::uint64_t> parse_segment_seq(const std::string& name) {
  if (!name.starts_with(kSegmentPrefix) || !name.ends_with(kSegmentSuffix)) return std::nullopt;
  const std::string middle = name.substr(
      std::strlen(kSegmentPrefix),
      name.size() - std::strlen(kSegmentPrefix) - std::strlen(kSegmentSuffix));
  try {
    std::size_t used = 0;
    const std::uint64_t seq = std::stoull(middle, &used, 16);
    if (used != middle.size()) return std::nullopt;
    return seq;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::vector<std::byte> read_whole_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw DurabilityError("cannot read " + path.string());
  std::vector<std::byte> raw;
  in.seekg(0, std::ios::end);
  raw.resize(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(raw.data()), static_cast<std::streamsize>(raw.size()));
  if (!in) throw DurabilityError("short read of " + path.string());
  return raw;
}

// The little-endian u32 a file's bytes start with, if it has four.
std::optional<std::uint32_t> leading_u32(std::span<const std::byte> raw) {
  if (raw.size() < sizeof(std::uint32_t)) return std::nullopt;
  ByteBuffer in = ByteBuffer::reader(raw.first(sizeof(std::uint32_t)));
  return in.unpack_u32();
}

DurabilityError crc32_format_error(const fs::path& path, const char* magic) {
  return DurabilityError(path.string() + " is in the CRC-32 WAL format ('" + magic +
                         "'), which this build does not read; the store was left untouched");
}

// Appends one framed record to `out`. Put/PutShadow payloads are the
// ObjectState::encode_unchecked() field sequence (uid, type, state) — the
// frame's CRC covers the whole body, so the state's own integrity header
// would be redundant.
void frame_record(std::vector<std::byte>& out, Op op, const ObjectState* state, const Uid& uid) {
  ByteBuffer body;
  body.pack_u8(static_cast<std::uint8_t>(op));
  if (state != nullptr) {
    body.pack_uid(state->uid());
    body.pack_string(state->type_name());
    body.pack_bytes(state->state().bytes());
  } else {
    body.pack_uid(uid);
  }
  const auto raw = body.bytes();
  ByteBuffer header;
  header.pack_u32(kRecordMagic);
  header.pack_u32(crc32c(raw));
  header.pack_u32(static_cast<std::uint32_t>(raw.size()));  // pack_bytes' length prefix
  out.reserve(out.size() + header.size() + raw.size());
  out.insert(out.end(), header.bytes().begin(), header.bytes().end());
  out.insert(out.end(), raw.begin(), raw.end());
}

// Applies one decoded record body to the image. Returns false on an op the
// store does not know — corrupt bytes that beat the CRC, never expected.
bool apply_record(ByteBuffer& body, std::map<Uid, ObjectState>& committed,
                  std::map<Uid, ObjectState>& shadows) {
  switch (static_cast<Op>(body.unpack_u8())) {
    case Op::kPut: {
      ObjectState state = ObjectState::decode_unchecked(body);
      const Uid uid = state.uid();
      committed.insert_or_assign(uid, std::move(state));
      return true;
    }
    case Op::kPutShadow: {
      ObjectState state = ObjectState::decode_unchecked(body);
      const Uid uid = state.uid();
      shadows.insert_or_assign(uid, std::move(state));
      return true;
    }
    case Op::kRemove:
      committed.erase(body.unpack_uid());
      return true;
    case Op::kCommitShadow: {
      const Uid uid = body.unpack_uid();
      // A shadow the image no longer holds means the promotion's effect is
      // already in the checkpoint this replay started from — a no-op, which
      // is what makes re-replaying a suffix of the log safe.
      const auto it = shadows.find(uid);
      if (it != shadows.end()) {
        committed.insert_or_assign(uid, std::move(it->second));
        shadows.erase(it);
      }
      return true;
    }
    case Op::kDiscardShadow:
      shadows.erase(body.unpack_uid());
      return true;
  }
  return false;
}

// Walks the frames in `raw`, applying each whole CRC-clean record to the
// maps. Returns the offset just past the last good record (== raw.size()
// for a clean file); everything beyond it is a torn tail. `applied` (when
// non-null) counts the records that were applied.
std::size_t walk_frames(std::span<const std::byte> raw, std::map<Uid, ObjectState>& committed,
                        std::map<Uid, ObjectState>& shadows, std::uint64_t* applied) {
  ByteBuffer in = ByteBuffer::reader(raw);
  std::size_t good = 0;
  while (!in.exhausted()) {
    bool ok = false;
    try {
      if (in.remaining() >= kFrameHeaderBytes && in.unpack_u32() == kRecordMagic) {
        const std::uint32_t expected_crc = in.unpack_u32();
        const std::vector<std::byte> body_bytes = in.unpack_bytes();  // BufferUnderflow if torn
        if (crc32c(body_bytes) == expected_crc) {
          ByteBuffer body = ByteBuffer::reader(body_bytes);
          ok = apply_record(body, committed, shadows);
        }
      }
    } catch (const BufferUnderflow&) {
      ok = false;
    }
    if (!ok) break;
    good = raw.size() - in.remaining();
    if (applied != nullptr) ++*applied;
  }
  return good;
}

// Decodes a checkpoint file; throws StateCorrupt / BufferUnderflow on any
// damage. Returns the covered segment sequence.
std::uint64_t decode_checkpoint(std::span<const std::byte> raw,
                                std::map<Uid, ObjectState>& committed,
                                std::map<Uid, ObjectState>& shadows) {
  ByteBuffer in = ByteBuffer::reader(raw);
  if (in.unpack_u32() != kCheckpointMagic) {
    throw StateCorrupt("bad checkpoint magic");
  }
  const std::uint32_t expected_crc = in.unpack_u32();
  const std::vector<std::byte> body_bytes = in.unpack_bytes();
  if (crc32c(body_bytes) != expected_crc) {
    throw StateCorrupt("checkpoint CRC-32C mismatch");
  }
  ByteBuffer body = ByteBuffer::reader(body_bytes);
  const std::uint64_t covered = body.unpack_u64();
  for (auto* image : {&committed, &shadows}) {
    const std::uint32_t count = body.unpack_u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      ObjectState state = ObjectState::decode_unchecked(body);
      const Uid uid = state.uid();
      image->insert_or_assign(uid, std::move(state));
    }
  }
  return covered;
}

void write_fully(int fd, const std::byte* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw DurabilityError(std::string("wal write failed: ") + std::strerror(errno));
    }
    data += static_cast<std::size_t>(w);
    n -= static_cast<std::size_t>(w);
  }
}

// Opens (creating) a segment for append.
int open_segment(const fs::path& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw DurabilityError("cannot open wal segment " + path.string() + ": " +
                          std::strerror(errno));
  }
  return fd;
}

// Closes a file descriptor on every way out of a scope, a simulated kill
// included.
struct FdCloser {
  int fd;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

WalStore::WalStore(fs::path directory) : WalStore(std::move(directory), Options{}) {}

WalStore::WalStore(fs::path directory, Options options)
    : dir_(std::move(directory)), options_(std::move(options)) {
  const std::scoped_lock lock(mutex_);
  recover_locked();
}

WalStore::~WalStore() {
  {
    const std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  checkpoint_cv_.notify_all();
  // The checkpointer first: an in-flight checkpoint finishes, and its drain
  // may need the committer, which flushes what is queued before it exits.
  if (checkpointer_.joinable()) checkpointer_.join();
  if (committer_.joinable()) committer_.join();
  if (fd_ >= 0) ::close(fd_);
}

fs::path WalStore::segment_path(std::uint64_t seq) const {
  std::ostringstream os;
  os << kSegmentPrefix << std::hex << std::setw(16) << std::setfill('0') << seq << kSegmentSuffix;
  return dir_ / os.str();
}

fs::path WalStore::checkpoint_path() const { return dir_ / kCheckpointName; }
fs::path WalStore::checkpoint_tmp_path() const { return dir_ / kCheckpointTmpName; }

std::vector<std::pair<std::uint64_t, fs::path>> WalStore::list_segments() const {
  std::vector<std::pair<std::uint64_t, fs::path>> out;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (const auto seq = parse_segment_seq(entry.path().filename().string())) {
      out.emplace_back(*seq, entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// -- reads (served from the in-memory image) ---------------------------------

std::optional<ObjectState> WalStore::read(const Uid& uid) const {
  const std::scoped_lock lock(mutex_);
  const auto it = committed_.find(uid);
  if (it == committed_.end()) return std::nullopt;
  return it->second;
}

std::vector<Uid> WalStore::uids() const {
  const std::scoped_lock lock(mutex_);
  std::vector<Uid> out;
  out.reserve(committed_.size());
  for (const auto& [uid, state] : committed_) out.push_back(uid);
  return out;
}

std::optional<ObjectState> WalStore::read_shadow(const Uid& uid) const {
  const std::scoped_lock lock(mutex_);
  const auto it = shadows_.find(uid);
  if (it == shadows_.end()) return std::nullopt;
  return it->second;
}

std::vector<Uid> WalStore::shadow_uids() const {
  const std::scoped_lock lock(mutex_);
  std::vector<Uid> out;
  out.reserve(shadows_.size());
  for (const auto& [uid, state] : shadows_) out.push_back(uid);
  return out;
}

// -- writes (logged, group-committed) -----------------------------------------

// A state write frames its records and copies its states before it takes
// the lock (a blob shadow's body copies and CRC would otherwise hold up every
// reader and flush); under it, it only checks the wedge, updates the image
// and enqueues.

void WalStore::write(const ObjectState& state) {
  std::vector<std::byte> bytes;
  frame_record(bytes, Op::kPut, &state, state.uid());
  ObjectState copy = state;
  std::unique_lock lock(mutex_);
  throw_if_wedged_locked();
  committed_.insert_or_assign(state.uid(), std::move(copy));
  log_records(lock, std::move(bytes), 1);
}

void WalStore::write_shadow(const ObjectState& state) {
  std::vector<std::byte> bytes;
  frame_record(bytes, Op::kPutShadow, &state, state.uid());
  ObjectState copy = state;
  std::unique_lock lock(mutex_);
  throw_if_wedged_locked();
  shadows_.insert_or_assign(state.uid(), std::move(copy));
  log_records(lock, std::move(bytes), 1);
}

void WalStore::write_batch(const std::vector<ObjectState>& states, WriteKind kind) {
  if (states.empty()) return;
  const Op op = kind == WriteKind::Shadow ? Op::kPutShadow : Op::kPut;
  std::vector<std::byte> bytes;
  for (const ObjectState& state : states) frame_record(bytes, op, &state, state.uid());
  std::vector<ObjectState> copies = states;
  std::unique_lock lock(mutex_);
  throw_if_wedged_locked();
  auto& image = kind == WriteKind::Shadow ? shadows_ : committed_;
  for (ObjectState& state : copies) {
    const Uid uid = state.uid();
    image.insert_or_assign(uid, std::move(state));
  }
  // One contiguous run of records, one ticket, one durability barrier for
  // the whole batch — and the committer may merge it with other writers'.
  log_records(lock, std::move(bytes), states.size());
}

bool WalStore::remove(const Uid& uid) {
  std::unique_lock lock(mutex_);
  throw_if_wedged_locked();
  const auto it = committed_.find(uid);
  if (it == committed_.end()) return false;
  committed_.erase(it);
  std::vector<std::byte> bytes;
  frame_record(bytes, Op::kRemove, nullptr, uid);
  log_records(lock, std::move(bytes), 1);
  return true;
}

bool WalStore::commit_shadow(const Uid& uid) {
  std::unique_lock lock(mutex_);
  throw_if_wedged_locked();
  const auto it = shadows_.find(uid);
  if (it == shadows_.end()) return false;
  committed_.insert_or_assign(uid, std::move(it->second));
  shadows_.erase(it);
  std::vector<std::byte> bytes;
  frame_record(bytes, Op::kCommitShadow, nullptr, uid);
  log_records(lock, std::move(bytes), 1);
  return true;
}

bool WalStore::discard_shadow(const Uid& uid) {
  std::unique_lock lock(mutex_);
  throw_if_wedged_locked();
  const auto it = shadows_.find(uid);
  if (it == shadows_.end()) return false;
  shadows_.erase(it);
  std::vector<std::byte> bytes;
  frame_record(bytes, Op::kDiscardShadow, nullptr, uid);
  log_records(lock, std::move(bytes), 1);
  return true;
}

// -- group commit --------------------------------------------------------------

void WalStore::throw_if_wedged_locked() const {
  if (wedge_) std::rethrow_exception(wedge_);
}

void WalStore::ensure_committer_locked() {
  if (!committer_.joinable()) {
    committer_ = std::thread([this] { committer_loop(); });
  }
}

void WalStore::log_records(std::unique_lock<std::mutex>& lock, std::vector<std::byte> bytes,
                           std::size_t record_count) {
  const std::uint64_t my_epoch = epoch_;
  if (pending_.empty()) {
    pending_ = std::move(bytes);
  } else {
    pending_.insert(pending_.end(), bytes.begin(), bytes.end());
  }
  const std::uint64_t ticket = ++last_ticket_;
  pending_ticket_ = ticket;
  stats_.records.fetch_add(record_count, std::memory_order_relaxed);
  ensure_committer_locked();
  // Covered by a waited write the caller makes to this log later (covered
  // prepare): keep the place in the queue and wake nobody. That write's
  // flush carries these records, if an earlier one has not.
  if (DeferToNextWrite::active()) return;
  if (DeferDurability::active()) {
    // Covered by a record already durable in this log: keep the place in
    // the queue and ride the flush the scope's exit starts.
    DeferDurability::join(*this);
    return;
  }
  work_cv_.notify_one();
  // The epoch check must win over the ticket check: crash() resets tickets,
  // so a post-crash durable_ticket_ catching up to our stale ticket must
  // never read as success.
  durable_cv_.wait(lock, [&] {
    return epoch_ != my_epoch || wedge_ != nullptr || durable_ticket_ >= ticket;
  });
  if (epoch_ != my_epoch) {
    throw DurabilityError("store crashed while the write was in flight");
  }
  if (durable_ticket_ < ticket) {
    // Our records never became durable; surface the flush's own error (a
    // DurabilityError, or a CrashPointHit tunnelling to the node-kill
    // catcher). The in-memory image is ahead of the disk now — only
    // crash()+recovery reconciles that, which is exactly what the commit
    // machinery does with this exception.
    std::rethrow_exception(wedge_);
  }
}

void WalStore::committer_loop() {
  set_current_thread_name("mca-wal");
  std::unique_lock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || !pending_.empty(); });
    if (wedge_) {
      // Nothing may reach the disk past a failed flush: drop what queued up
      // behind it and let the waiters rethrow the wedge error.
      pending_.clear();
      durable_cv_.notify_all();
      if (stop_) return;
      continue;
    }
    if (pending_.empty()) {
      if (stop_) return;
      continue;
    }
    std::vector<std::byte> batch = std::move(pending_);
    pending_.clear();
    const std::uint64_t batch_ticket = pending_ticket_;
    const std::uint64_t my_epoch = epoch_;
    const int fd = fd_;
    flushing_ = true;
    lock.unlock();
    std::exception_ptr error;
    std::string failure;
    try {
      append_and_sync(fd, batch);
    } catch (const std::exception& e) {
      error = std::current_exception();
      failure = e.what();
    } catch (...) {  // a CrashPointHit kill
      error = std::current_exception();
    }
    lock.lock();
    flushing_ = false;
    if (epoch_ == my_epoch) {
      if (error) {
        wedge_ = error;
        // A batch of deferred records has no writer to rethrow to, so every
        // failed flush is reported here.
        if (!failure.empty()) {
          MCA_LOG(Error, "store") << "wal flush failed, log wedged until restart: " << failure;
        }
      } else {
        durable_ticket_ = std::max(durable_ticket_, batch_ticket);
        active_size_ += batch.size();
        stats_.flushes.fetch_add(1, std::memory_order_relaxed);
        // Past the threshold with no checkpoint queued or in flight: hand
        // one to the checkpointer and go on. Nobody waits for it.
        if (options_.checkpoint_threshold_bytes != 0 &&
            active_size_ >= options_.checkpoint_threshold_bytes &&
            checkpoint_requested_ == checkpoint_done_ && !stop_) {
          (void)request_checkpoint_locked();
        }
      }
    }
    // Wakes durable waiters, a draining checkpoint, and a crash() waiting
    // for this flush to land.
    durable_cv_.notify_all();
  }
}

void WalStore::append_and_sync(int fd, const std::vector<std::byte>& bytes) {
  if (crash_points::any_armed()) {
    // Split the append so a kill between the halves leaves a torn record —
    // the first frame's header without (all of) its body. Unarmed runs take
    // the single-write path below.
    const std::size_t head = std::min(bytes.size(), kFrameHeaderBytes);
    write_fully(fd, bytes.data(), head);
    MCA_CRASHPOINT("store.wal.append.mid_record");
    write_fully(fd, bytes.data() + head, bytes.size() - head);
  } else {
    write_fully(fd, bytes.data(), bytes.size());
  }
  // The bytes are appended but not flushed. Under the simulated crash model
  // (page cache survives a process kill) a record here IS durable; on real
  // hardware this is the window the fsync below closes.
  MCA_CRASHPOINT("store.wal.append.pre_fsync");
  if (options_.sync) fsync_fd(fd);
}

void WalStore::fsync_fd(int fd) const {
  const int rc = options_.fsync_fn ? options_.fsync_fn(fd) : ::fsync(fd);
  if (rc != 0) {
    stats_.fsync_failures.fetch_add(1, std::memory_order_relaxed);
    throw DurabilityError(std::string("wal fsync failed: ") + std::strerror(errno));
  }
  stats_.fsyncs.fetch_add(1, std::memory_order_relaxed);
}

void WalStore::fsync_path(const fs::path& path) const {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    stats_.fsync_failures.fetch_add(1, std::memory_order_relaxed);
    throw DurabilityError("cannot open " + path.string() + " to fsync: " + std::strerror(errno));
  }
  try {
    fsync_fd(fd);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

// -- checkpoint / compaction -----------------------------------------------------

void WalStore::checkpoint() {
  std::unique_lock lock(mutex_);
  throw_if_wedged_locked();
  const std::uint64_t my_epoch = epoch_;
  const std::uint64_t job = request_checkpoint_locked();
  durable_cv_.wait(lock, [&] { return epoch_ != my_epoch || checkpoint_done_ >= job; });
  if (epoch_ != my_epoch) {
    throw DurabilityError("store crashed while the checkpoint was in flight");
  }
  if (checkpoint_error_) std::rethrow_exception(checkpoint_error_);
}

std::uint64_t WalStore::request_checkpoint_locked() {
  if (!checkpointer_.joinable()) {
    checkpointer_ = std::thread([this] { checkpointer_loop(); });
  }
  checkpoint_cv_.notify_one();
  return ++checkpoint_requested_;
}

void WalStore::checkpointer_loop() {
  set_current_thread_name("mca-wal");
  std::unique_lock lock(mutex_);
  for (;;) {
    checkpoint_cv_.wait(lock, [&] { return stop_ || checkpoint_requested_ > checkpoint_started_; });
    if (stop_) return;
    // One run answers every request made before it starts.
    const std::uint64_t job = checkpoint_requested_;
    checkpoint_started_ = job;
    std::exception_ptr error = run_checkpoint(lock);
    checkpoint_done_ = job;
    checkpoint_error_ = std::move(error);
    // Wakes a checkpoint() caller, fsck() and crash().
    durable_cv_.notify_all();
  }
}

std::exception_ptr WalStore::run_checkpoint(std::unique_lock<std::mutex>& lock) {
  if (wedge_) return wedge_;
  const std::uint64_t my_epoch = epoch_;
  const std::uint64_t covered = active_seq_;
  std::size_t committed_count = 0;
  std::size_t shadow_count = 0;
  std::exception_ptr error;
  std::string failure;
  lock.unlock();
  try {
    // The next segment's directory entry is durable before any record in
    // it can be acknowledged.
    FdCloser next{open_segment(segment_path(covered + 1))};
    if (options_.sync) fsync_path(dir_);
    FdCloser retired{-1};
    lock.lock();
    // Drain the committer so the image covers every appended record.
    // Deferred records whose scope is still open, or whose covering write is
    // not made yet, have no wake pending: start their flush instead of
    // waiting for it.
    work_cv_.notify_one();
    durable_cv_.wait(lock, [&] {
      return (pending_.empty() && !flushing_) || wedge_ != nullptr || epoch_ != my_epoch;
    });
    if (epoch_ != my_epoch) return nullptr;  // crashed under us; recovery rebuilds from the files
    // A wedged image is ahead of the disk; snapshotting it would launder
    // never-durable records into the checkpoint.
    if (wedge_) return wedge_;
    ByteBuffer body;
    body.pack_u64(covered);
    for (const auto* image : {&committed_, &shadows_}) {
      body.pack_u32(static_cast<std::uint32_t>(image->size()));
      for (const auto& [uid, state] : *image) {
        // encode_unchecked's field order — decode_unchecked reads it back.
        body.pack_uid(state.uid());
        body.pack_string(state.type_name());
        body.pack_bytes(state.state().bytes());
      }
    }
    committed_count = committed_.size();
    shadow_count = shadows_.size();
    // Appends go to the new segment from here on; the image holds every
    // record of the segments through `covered`.
    retired.fd = std::exchange(fd_, std::exchange(next.fd, -1));
    active_seq_ = covered + 1;
    active_size_ = 0;
    lock.unlock();
    ByteBuffer file;
    file.pack_u32(kCheckpointMagic);
    file.pack_u32(crc32c(body.bytes()));
    file.pack_bytes(body.bytes());
    write_checkpoint_and_compact(file.bytes(), covered);
  } catch (const std::exception& e) {
    error = std::current_exception();
    failure = e.what();
  } catch (...) {  // a CrashPointHit kill
    error = std::current_exception();
  }
  if (!lock.owns_lock()) lock.lock();
  if (!error) {
    MCA_LOG(Info, "store") << "wal checkpoint: covered through segment " << covered << ", "
                           << committed_count << " committed + " << shadow_count
                           << " shadow state(s)";
    return nullptr;
  }
  if (failure.empty()) {
    // A kill on the checkpointer stands for the process dying mid-checkpoint:
    // like one on the committer, it wedges the log until crash().
    if (epoch_ == my_epoch) {
      wedge_ = error;
      work_cv_.notify_one();
    }
    return error;
  }
  // The log's own flushes succeeded and the image still matches it, so the
  // log is not wedged: the next threshold crossing tries again.
  std::error_code ec;
  fs::remove(checkpoint_tmp_path(), ec);
  MCA_LOG(Error, "store") << "wal checkpoint failed; the log and the previous checkpoint stand: "
                          << failure;
  return error;
}

void WalStore::write_checkpoint_and_compact(std::span<const std::byte> file,
                                            std::uint64_t covered) {
  const fs::path tmp = checkpoint_tmp_path();
  {
    const FdCloser out{::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644)};
    if (out.fd < 0) {
      throw DurabilityError("cannot open " + tmp.string() + ": " + std::strerror(errno));
    }
    if (crash_points::any_armed()) {
      const std::size_t head = file.size() / 2;
      write_fully(out.fd, file.data(), head);
      // A kill here leaves a half-written checkpoint.tmp; recovery deletes
      // it and the previous checkpoint stays authoritative.
      MCA_CRASHPOINT("store.wal.checkpoint.mid_write");
      write_fully(out.fd, file.data() + head, file.size() - head);
    } else {
      write_fully(out.fd, file.data(), file.size());
    }
    if (options_.sync) fsync_fd(out.fd);
  }
  // The tmp is complete; the rename below is the atomic cut-over.
  MCA_CRASHPOINT("store.wal.checkpoint.pre_rename");
  fs::rename(tmp, checkpoint_path());
  if (options_.sync) fsync_path(dir_);
  stats_.checkpoints.fetch_add(1, std::memory_order_relaxed);
  // New checkpoint durable, covered segments still on disk — replay skips
  // them by sequence, and the compaction below (re-run by recovery) is pure
  // garbage collection. So the deletions need no fsync of their own.
  MCA_CRASHPOINT("store.wal.checkpoint.pre_compact");
  for (const auto& [seq, path] : list_segments()) {
    if (seq > covered) continue;
    std::error_code ec;
    if (fs::remove(path, ec)) {
      stats_.compacted_segments.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

// -- crash / recovery -------------------------------------------------------------

void WalStore::crash() {
  std::unique_lock lock(mutex_);
  // Volatile state dies here: queued-but-unappended records vanish and every
  // blocked writer is released with a DurabilityError (epoch check) — its
  // records may or may not have reached the disk, like a real power cut.
  ++epoch_;
  pending_.clear();
  durable_cv_.notify_all();
  // An in-flight flush or checkpoint finishes against the old epoch (its
  // outcome is discarded); recovery must not replay a file mid-append or
  // race a rename. A checkpoint not yet started is volatile and dies here.
  durable_cv_.wait(lock, [&] { return !flushing_ && checkpoint_started_ == checkpoint_done_; });
  checkpoint_requested_ = checkpoint_done_;
  recover_locked();
}

void WalStore::recover_locked() {
  fs::create_directories(dir_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  committed_.clear();
  shadows_.clear();
  pending_.clear();
  wedge_ = nullptr;
  last_ticket_ = 0;
  pending_ticket_ = 0;
  durable_ticket_ = 0;
  active_size_ = 0;

  // An incomplete checkpoint never becomes authoritative.
  std::error_code ec;
  fs::remove(checkpoint_tmp_path(), ec);

  std::uint64_t covered = 0;
  if (fs::exists(checkpoint_path())) {
    std::vector<std::byte> raw;
    try {
      raw = read_whole_file(checkpoint_path());
    } catch (const DurabilityError&) {
      // Unreadable: handled as corrupt below.
    }
    if (leading_u32(raw) == kCrc32CheckpointMagic) {
      throw crc32_format_error(checkpoint_path(), "MWC1");
    }
    try {
      covered = decode_checkpoint(raw, committed_, shadows_);
    } catch (const std::exception& e) {
      // Corrupt checkpoint: quarantine it and replay what the log still
      // holds. The segments it covered were deleted once it was durable,
      // so the states it alone carried are lost; only a kill before that
      // compaction leaves them to replay.
      committed_.clear();
      shadows_.clear();
      covered = 0;
      fs::path aside = checkpoint_path();
      aside += kQuarantineSuffix;
      fs::rename(checkpoint_path(), aside, ec);
      if (ec) fs::remove(checkpoint_path(), ec);
      stats_.quarantined.fetch_add(1, std::memory_order_relaxed);
      MCA_LOG(Warn, "store") << "quarantined corrupt wal checkpoint: " << e.what();
    }
  }

  std::uint64_t max_seq = covered;
  for (const auto& [seq, path] : list_segments()) {
    if (seq <= covered) {
      // A kill in the pre_compact window leaves covered segments behind;
      // finishing the deletion here completes the interrupted compaction.
      if (fs::remove(path, ec)) {
        stats_.compacted_segments.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    replay_segment(path);
    max_seq = std::max(max_seq, seq);
  }

  active_seq_ = std::max(max_seq, covered + 1);
  open_active_segment_locked();
}

void WalStore::replay_segment(const fs::path& path) {
  const auto raw = read_whole_file(path);
  // Under CRC-32C every CRC-32 frame is a bad frame, so replay would cut
  // the whole segment off as a torn tail: refuse it instead.
  if (leading_u32(raw) == kCrc32RecordMagic) throw crc32_format_error(path, "MWL1");
  std::uint64_t applied = 0;
  const std::size_t good = walk_frames(raw, committed_, shadows_, &applied);
  stats_.recovered_records.fetch_add(applied, std::memory_order_relaxed);
  if (good < raw.size()) {
    // Torn tail: a record the crash cut short. Everything before it is
    // intact; drop the fragment so the next append starts at a frame
    // boundary.
    if (::truncate(path.c_str(), static_cast<off_t>(good)) != 0) {
      throw DurabilityError("cannot truncate torn wal tail of " + path.string() + ": " +
                            std::strerror(errno));
    }
    stats_.truncated_tails.fetch_add(1, std::memory_order_relaxed);
    MCA_LOG(Warn, "store") << "truncated torn wal tail: " << path.filename().string() << " at "
                           << good << " of " << raw.size() << " bytes";
  }
}

void WalStore::open_active_segment_locked() {
  const fs::path path = segment_path(active_seq_);
  fd_ = open_segment(path);
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  active_size_ = ec ? 0 : size;
}


// -- introspection ------------------------------------------------------------------

bool WalStore::wedged() const {
  const std::scoped_lock lock(mutex_);
  return wedge_ != nullptr;
}

void WalStore::wake_deferred() { work_cv_.notify_one(); }

WalStore::Stats WalStore::stats() const {
  Stats out;
  out.records = stats_.records.load(std::memory_order_relaxed);
  out.flushes = stats_.flushes.load(std::memory_order_relaxed);
  out.fsyncs = stats_.fsyncs.load(std::memory_order_relaxed);
  out.fsync_failures = stats_.fsync_failures.load(std::memory_order_relaxed);
  out.checkpoints = stats_.checkpoints.load(std::memory_order_relaxed);
  out.compacted_segments = stats_.compacted_segments.load(std::memory_order_relaxed);
  out.recovered_records = stats_.recovered_records.load(std::memory_order_relaxed);
  out.truncated_tails = stats_.truncated_tails.load(std::memory_order_relaxed);
  out.quarantined = stats_.quarantined.load(std::memory_order_relaxed);
  return out;
}

std::vector<fs::path> WalStore::fsck() const {
  std::unique_lock lock(mutex_);
  // Quiesce so a concurrent append is not misread as a torn tail (waking
  // the committer for deferred records nobody has woken it for yet), and
  // so no checkpoint is renaming or deleting files under the scan.
  work_cv_.notify_one();
  durable_cv_.wait(lock, [&] {
    return checkpoint_requested_ == checkpoint_done_ &&
           ((pending_.empty() && !flushing_) || wedge_ != nullptr);
  });
  std::vector<fs::path> bad;
  std::map<Uid, ObjectState> scratch_committed;
  std::map<Uid, ObjectState> scratch_shadows;
  if (fs::exists(checkpoint_path())) {
    try {
      const auto raw = read_whole_file(checkpoint_path());
      (void)decode_checkpoint(raw, scratch_committed, scratch_shadows);
    } catch (const std::exception&) {
      bad.push_back(checkpoint_path());
    }
  }
  for (const auto& [seq, path] : list_segments()) {
    try {
      scratch_committed.clear();
      scratch_shadows.clear();
      const auto raw = read_whole_file(path);
      if (walk_frames(raw, scratch_committed, scratch_shadows, nullptr) != raw.size()) {
        bad.push_back(path);
      }
    } catch (const std::exception&) {
      bad.push_back(path);
    }
  }
  return bad;
}

}  // namespace mca
