#include "storage/file_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "sim/crash_points.h"

namespace mca {
namespace fs = std::filesystem;

namespace {

constexpr const char* kShadowSuffix = ".shadow";
constexpr const char* kTmpSuffix = ".tmp";
constexpr const char* kQuarantineSuffix = ".quarantined";

std::string uid_filename(const Uid& uid) {
  std::ostringstream os;
  os << std::hex << uid.hi() << '_' << uid.lo();
  return os.str();
}

std::optional<Uid> parse_uid_filename(const std::string& stem) {
  const auto sep = stem.find('_');
  if (sep == std::string::npos) return std::nullopt;
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  try {
    hi = std::stoull(stem.substr(0, sep), nullptr, 16);
    lo = std::stoull(stem.substr(sep + 1), nullptr, 16);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  return Uid(hi, lo);
}

std::optional<ObjectState> decode_state_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::byte> raw;
  in.seekg(0, std::ios::end);
  raw.resize(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(raw.data()), static_cast<std::streamsize>(raw.size()));
  if (!in) return std::nullopt;
  ByteBuffer buf(std::move(raw));
  return ObjectState::decode(buf);  // throws StateCorrupt / BufferUnderflow
}

}  // namespace

FileStore::FileStore(fs::path directory) : FileStore(std::move(directory), Options{}) {}

FileStore::FileStore(fs::path directory, Options options)
    : dir_(std::move(directory)), options_(options) {
  fs::create_directories(dir_);
  if (options_.scavenge_on_open) {
    const std::scoped_lock lock(mutex_);
    scavenge_locked();
  }
}

// The old fsync helper ignored failures from both ::open and ::fsync, so a
// flush the kernel refused was still counted as durable and the write
// reported as committed. Now either failure throws: the caller's write is
// not durable and must not claim to be.
void FileStore::fsync_or_throw(const fs::path& path) const {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    stats_.fsync_failures.fetch_add(1, std::memory_order_relaxed);
    throw DurabilityError("cannot open " + path.string() + " to fsync: " +
                          std::strerror(errno));
  }
  const int rc = options_.fsync_fn ? options_.fsync_fn(fd) : ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    stats_.fsync_failures.fetch_add(1, std::memory_order_relaxed);
    throw DurabilityError("fsync of " + path.string() + " failed: " +
                          std::strerror(saved_errno));
  }
  stats_.fsyncs.fetch_add(1, std::memory_order_relaxed);
}

fs::path FileStore::committed_file_path(const Uid& uid) const { return dir_ / uid_filename(uid); }

fs::path FileStore::shadow_file_path(const Uid& uid) const {
  return dir_ / (uid_filename(uid) + kShadowSuffix);
}

std::optional<ObjectState> FileStore::read_and_quarantine(const fs::path& path) const {
  try {
    return decode_state_file(path);
  } catch (const std::exception& e) {  // StateCorrupt or BufferUnderflow
    fs::path aside = path;
    aside += kQuarantineSuffix;
    std::error_code ec;
    fs::rename(path, aside, ec);
    if (ec) fs::remove(path, ec);  // rename races are best-effort; never re-read
    stats_.quarantined.fetch_add(1, std::memory_order_relaxed);
    MCA_LOG(Warn, "store") << "quarantined " << path.filename().string() << ": " << e.what();
    return std::nullopt;
  }
}

void FileStore::write_atomically(const fs::path& path, const ObjectState& state,
                                 bool defer_dir_fsync) {
  const fs::path tmp = path.string() + kTmpSuffix;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    const auto encoded = state.encode();
    out.write(reinterpret_cast<const char*>(encoded.bytes().data()),
              static_cast<std::streamsize>(encoded.size()));
    out.flush();
    if (!out) throw std::runtime_error("FileStore: failed writing " + tmp.string());
  }
  if (options_.fsync_before_rename) fsync_or_throw(tmp);
  // A kill here is the torn-write window: the .tmp exists, the target does
  // not change. The startup scavenger reclaims the orphan.
  MCA_CRASHPOINT("store.file.write.pre_rename");
  fs::rename(tmp, path);  // atomic commit point
  if (options_.fsync_before_rename && !defer_dir_fsync) fsync_or_throw(dir_);
}

void FileStore::write_batch(const std::vector<ObjectState>& states, WriteKind kind) {
  const std::scoped_lock lock(mutex_);
  for (const ObjectState& state : states) {
    const fs::path path =
        kind == WriteKind::Shadow ? shadow_file_path(state.uid()) : committed_file_path(state.uid());
    write_atomically(path, state, /*defer_dir_fsync=*/true);
  }
  // One directory-wide barrier makes the whole batch's renames durable
  // together; each file's data was already fsynced individually above.
  if (options_.fsync_before_rename) fsync_or_throw(dir_);
}

std::optional<ObjectState> FileStore::read(const Uid& uid) const {
  const std::scoped_lock lock(mutex_);
  return read_and_quarantine(committed_file_path(uid));
}

void FileStore::write(const ObjectState& state) {
  const std::scoped_lock lock(mutex_);
  write_atomically(committed_file_path(state.uid()), state);
}

bool FileStore::remove(const Uid& uid) {
  const std::scoped_lock lock(mutex_);
  return fs::remove(committed_file_path(uid));
}

std::vector<Uid> FileStore::uids() const {
  const std::scoped_lock lock(mutex_);
  std::vector<Uid> out;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const auto name = entry.path().filename().string();
    if (name.ends_with(kShadowSuffix) || name.ends_with(kTmpSuffix) ||
        name.ends_with(kQuarantineSuffix)) {
      continue;
    }
    if (auto uid = parse_uid_filename(name)) out.push_back(*uid);
  }
  return out;
}

void FileStore::write_shadow(const ObjectState& state) {
  const std::scoped_lock lock(mutex_);
  write_atomically(shadow_file_path(state.uid()), state);
}

std::optional<ObjectState> FileStore::read_shadow(const Uid& uid) const {
  const std::scoped_lock lock(mutex_);
  return read_and_quarantine(shadow_file_path(uid));
}

bool FileStore::commit_shadow(const Uid& uid) {
  const std::scoped_lock lock(mutex_);
  const fs::path shadow = shadow_file_path(uid);
  if (!fs::exists(shadow)) return false;
  // A kill here leaves the shadow and (if present) the old committed state
  // intact: the prepared marker still references the shadow, so recovery
  // simply promotes it again.
  MCA_CRASHPOINT("store.file.commit_shadow.pre_rename");
  fs::rename(shadow, committed_file_path(uid));
  if (options_.fsync_before_rename) fsync_or_throw(dir_);
  return true;
}

bool FileStore::discard_shadow(const Uid& uid) {
  const std::scoped_lock lock(mutex_);
  return fs::remove(shadow_file_path(uid));
}

std::vector<Uid> FileStore::shadow_uids() const {
  const std::scoped_lock lock(mutex_);
  std::vector<Uid> out;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const auto name = entry.path().filename().string();
    if (!name.ends_with(kShadowSuffix)) continue;
    if (auto uid = parse_uid_filename(name.substr(0, name.size() - std::strlen(kShadowSuffix))))
      out.push_back(*uid);
  }
  return out;
}

void FileStore::scavenge() {
  const std::scoped_lock lock(mutex_);
  scavenge_locked();
}

void FileStore::scavenge_locked() {
  std::vector<fs::path> tmps;
  std::vector<fs::path> shadows;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const auto name = entry.path().filename().string();
    if (name.ends_with(kTmpSuffix)) tmps.push_back(entry.path());
    else if (name.ends_with(kShadowSuffix)) shadows.push_back(entry.path());
  }
  for (const fs::path& tmp : tmps) {
    std::error_code ec;
    fs::remove(tmp, ec);
    if (!ec) {
      stats_.scavenged_tmp.fetch_add(1, std::memory_order_relaxed);
      MCA_LOG(Info, "store") << "scavenged stale tmp " << tmp.filename().string();
    }
  }
  for (const fs::path& shadow : shadows) {
    // Only a shadow *strictly older* than its committed state is stale:
    // promoting it would roll the object backwards. A shadow without a
    // committed counterpart stays — in-doubt recovery may still need it.
    const std::string name = shadow.filename().string();
    fs::path committed =
        shadow.parent_path() / name.substr(0, name.size() - std::strlen(kShadowSuffix));
    std::error_code ec;
    const auto committed_time = fs::last_write_time(committed, ec);
    if (ec) continue;
    const auto shadow_time = fs::last_write_time(shadow, ec);
    if (ec || shadow_time >= committed_time) continue;
    fs::remove(shadow, ec);
    if (!ec) {
      stats_.scavenged_shadows.fetch_add(1, std::memory_order_relaxed);
      MCA_LOG(Info, "store") << "scavenged stale shadow " << name;
    }
  }
}

FileStore::Stats FileStore::stats() const {
  // Lock-free snapshot: the counters are atomics (see Counters in the
  // header), so observers never contend with writers for the store mutex.
  Stats out;
  out.quarantined = stats_.quarantined.load(std::memory_order_relaxed);
  out.scavenged_tmp = stats_.scavenged_tmp.load(std::memory_order_relaxed);
  out.scavenged_shadows = stats_.scavenged_shadows.load(std::memory_order_relaxed);
  out.fsyncs = stats_.fsyncs.load(std::memory_order_relaxed);
  out.fsync_failures = stats_.fsync_failures.load(std::memory_order_relaxed);
  return out;
}

std::vector<fs::path> FileStore::fsck() const {
  const std::scoped_lock lock(mutex_);
  std::vector<fs::path> bad;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const auto name = entry.path().filename().string();
    if (name.ends_with(kTmpSuffix) || name.ends_with(kQuarantineSuffix)) continue;
    try {
      (void)decode_state_file(entry.path());
    } catch (const std::exception&) {
      bad.push_back(entry.path());
    }
  }
  return bad;
}

}  // namespace mca
