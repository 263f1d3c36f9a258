// TornStore: byte-level fault injection over a FileStore.
//
// Where FaultyStore makes an operation *fail cleanly* (throw before doing
// anything), TornStore makes it fail the way hardware does: the operation
// appears to succeed but the bytes on disk are wrong. Three shapes:
//
//   TornTmp        the write dies between filling the ".tmp" and the rename:
//                  a (possibly truncated) temp file is left behind and the
//                  target file never changes — the classic torn write the
//                  startup scavenger must reclaim;
//   TornCommitted  the target file itself ends up truncated (a torn
//                  in-place/partial-sector write) — unreadable past the cut;
//   BitFlip        the write completes, then one bit of the stored file is
//                  flipped — silent media corruption.
//
// All three must be *detected at read time* by ObjectState's CRC header and
// quarantined, never decoded into a live object; the storage tests prove it.
//
// Injection is one-shot: arm_write() affects the next write()/write_shadow()
// and disarms. The decorator passes every other call straight through.
#pragma once

#include <fstream>
#include <mutex>

#include "storage/file_store.h"

namespace mca {

class TornStore final : public ObjectStore {
 public:
  enum class Mode { None, TornTmp, TornCommitted, BitFlip };

  explicit TornStore(FileStore& inner) : inner_(inner) {}

  // Arms the next mutating write. `keep_bytes` bounds how much of the
  // encoding reaches the disk for the torn modes (SIZE_MAX = all of it, the
  // "crashed after write, before rename" case); `flip_byte`/`flip_bit`
  // select the damaged bit for BitFlip.
  void arm_write(Mode mode, std::size_t keep_bytes = static_cast<std::size_t>(-1),
                 std::size_t flip_byte = 0, std::uint8_t flip_bit = 0) {
    const std::scoped_lock lock(mutex_);
    mode_ = mode;
    keep_bytes_ = keep_bytes;
    flip_byte_ = flip_byte;
    flip_bit_ = flip_bit;
  }

  [[nodiscard]] std::optional<ObjectState> read(const Uid& uid) const override {
    return inner_.read(uid);
  }
  void write(const ObjectState& state) override {
    if (!mangle(state, inner_.committed_file_path(state.uid()),
                [this](const ObjectState& s) { inner_.write(s); })) {
      inner_.write(state);
    }
  }
  bool remove(const Uid& uid) override { return inner_.remove(uid); }
  [[nodiscard]] std::vector<Uid> uids() const override { return inner_.uids(); }

  void write_shadow(const ObjectState& state) override {
    if (!mangle(state, inner_.shadow_file_path(state.uid()),
                [this](const ObjectState& s) { inner_.write_shadow(s); })) {
      inner_.write_shadow(state);
    }
  }
  [[nodiscard]] std::optional<ObjectState> read_shadow(const Uid& uid) const override {
    return inner_.read_shadow(uid);
  }
  bool commit_shadow(const Uid& uid) override { return inner_.commit_shadow(uid); }
  bool discard_shadow(const Uid& uid) override { return inner_.discard_shadow(uid); }
  [[nodiscard]] std::vector<Uid> shadow_uids() const override { return inner_.shadow_uids(); }

  void crash() override { inner_.crash(); }
  void scavenge() override { inner_.scavenge(); }
  [[nodiscard]] StorageClass storage_class() const override { return inner_.storage_class(); }

 private:
  // Applies the armed damage for a write landing at `target`. Returns false
  // when unarmed (caller forwards cleanly). `clean_write` performs the real
  // store write for BitFlip before the bytes are damaged in place.
  template <typename CleanWrite>
  bool mangle(const ObjectState& state, const std::filesystem::path& target,
              CleanWrite&& clean_write) {
    Mode mode;
    std::size_t keep_bytes;
    std::size_t flip_byte;
    std::uint8_t flip_bit;
    {
      const std::scoped_lock lock(mutex_);
      if (mode_ == Mode::None) return false;
      mode = mode_;
      keep_bytes = keep_bytes_;
      flip_byte = flip_byte_;
      flip_bit = flip_bit_;
      mode_ = Mode::None;  // one-shot
    }
    const ByteBuffer encoded = state.encode();
    switch (mode) {
      case Mode::None:
        return false;
      case Mode::TornTmp: {
        write_raw(target.string() + ".tmp", encoded, keep_bytes);
        return true;  // the target file never changes
      }
      case Mode::TornCommitted: {
        write_raw(target, encoded, keep_bytes);
        return true;
      }
      case Mode::BitFlip: {
        clean_write(state);
        flip_bit_in_file(target, flip_byte, flip_bit);
        return true;
      }
    }
    return false;
  }

  static void write_raw(const std::filesystem::path& path, const ByteBuffer& encoded,
                        std::size_t keep_bytes) {
    const std::size_t n = std::min(keep_bytes, encoded.size());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(encoded.bytes().data()),
              static_cast<std::streamsize>(n));
  }

  static void flip_bit_in_file(const std::filesystem::path& path, std::size_t byte_index,
                               std::uint8_t bit) {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    if (!file) return;
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::size_t>(file.tellg());
    if (size == 0) return;
    const auto pos = static_cast<std::streamoff>(byte_index % size);
    file.seekg(pos);
    char c = 0;
    file.read(&c, 1);
    c = static_cast<char>(c ^ static_cast<char>(1u << (bit % 8)));
    file.seekp(pos);
    file.write(&c, 1);
  }

  FileStore& inner_;
  std::mutex mutex_;
  Mode mode_ = Mode::None;
  std::size_t keep_bytes_ = 0;
  std::size_t flip_byte_ = 0;
  std::uint8_t flip_bit_ = 0;
};

}  // namespace mca
