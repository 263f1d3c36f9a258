// Binary serialisation buffer used for object states and network messages.
//
// Mirrors the role of Arjuna's Buffer/TypedBuffer: recoverable objects pack
// their instance variables into a ByteBuffer in save_state() and unpack them
// in restore_state(); the RPC layer packs call arguments the same way.
// Encoding is little-endian, length-prefixed for strings and containers.
//
// A ByteBuffer holds its bytes one of three ways:
//
//   owning   the default; packing appends to its own vector, and copying
//            the buffer copies the bytes.
//   view     ByteBuffer::reader(): a read cursor over bytes owned
//            elsewhere, which must outlive it. Nothing is copied.
//   window   ByteBuffer::window() / share(): read-only like a view, but the
//            bytes are kept alive by a shared owner, so copying the buffer
//            copies a handle and every copy keeps the bytes alive. A large
//            message lives in one window from the sender's call state to
//            the socket, and from the receiver's reassembly buffer to the
//            service handler that unpacks it (DESIGN.md §5.10).
//
// Packing into a view or a window throws std::logic_error. bytes() reads all
// three alike.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/uid.h"

namespace mca {

// Thrown when unpacking runs past the end of the buffer or reads an
// impossible length; indicates a corrupt or truncated state/message.
class BufferUnderflow : public std::runtime_error {
 public:
  BufferUnderflow() : std::runtime_error("ByteBuffer: unpack past end of data") {}
};

class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(std::vector<std::byte> data) : data_(std::move(data)) {}

  // A non-owning read cursor over bytes owned elsewhere (another buffer's
  // storage, a decoded ObjectState held by the caller). Unpacking works as
  // usual but nothing is copied; the viewed bytes must outlive the cursor.
  // Packing into a view throws std::logic_error. This is what restore paths
  // use to replay a snapshot without duplicating it first.
  [[nodiscard]] static ByteBuffer reader(std::span<const std::byte> bytes) {
    ByteBuffer b;
    b.view_ = bytes;
    b.is_view_ = true;
    return b;
  }
  [[nodiscard]] static ByteBuffer reader(const ByteBuffer& other) {
    return reader(other.bytes());
  }

  // A read-only window on `bytes`, which `owner` keeps alive for as long as
  // this buffer or any copy of it lives. Copying a window copies the handle,
  // not the bytes.
  [[nodiscard]] static ByteBuffer window(std::shared_ptr<const void> owner,
                                         std::span<const std::byte> bytes) {
    ByteBuffer b;
    b.view_ = bytes;
    b.owner_ = std::move(owner);
    b.is_view_ = true;
    return b;
  }

  // The same bytes as a window: an owning buffer hands its storage to a
  // shared owner without copying it, a view's bytes are copied once (they
  // belong to someone else), and a window stays as it is. The cursor is
  // kept. Done once before a buffer is copied around — a request kept for
  // retransmission, a reply kept in a reply cache.
  [[nodiscard]] ByteBuffer share() &&;

  // -- packing -------------------------------------------------------------

  void pack_u8(std::uint8_t v) { append(&v, sizeof v); }
  void pack_u32(std::uint32_t v);
  void pack_u64(std::uint64_t v);
  void pack_i64(std::int64_t v) { pack_u64(static_cast<std::uint64_t>(v)); }
  void pack_bool(bool v) { pack_u8(v ? 1 : 0); }
  void pack_double(double v);
  void pack_string(std::string_view s);
  void pack_uid(const Uid& u);
  void pack_bytes(std::span<const std::byte> bytes);

  // -- unpacking (sequential cursor) ----------------------------------------

  [[nodiscard]] std::uint8_t unpack_u8();
  [[nodiscard]] std::uint32_t unpack_u32();
  [[nodiscard]] std::uint64_t unpack_u64();
  [[nodiscard]] std::int64_t unpack_i64() { return static_cast<std::int64_t>(unpack_u64()); }
  [[nodiscard]] bool unpack_bool() { return unpack_u8() != 0; }
  [[nodiscard]] double unpack_double();
  [[nodiscard]] std::string unpack_string();
  [[nodiscard]] Uid unpack_uid();
  [[nodiscard]] std::vector<std::byte> unpack_bytes();
  // A length-prefixed byte run (as pack_bytes wrote it) without copying it:
  // unpack_span is a span into this buffer's bytes, valid while they are;
  // unpack_slice is a buffer of its own — a window on the same bytes when
  // this buffer is a window, a view when it is a view, and a copy only when
  // it owns its bytes.
  [[nodiscard]] std::span<const std::byte> unpack_span();
  [[nodiscard]] ByteBuffer unpack_slice();

  // -- whole-buffer access ---------------------------------------------------

  // The readable bytes, whether owned, viewed or windowed.
  [[nodiscard]] std::span<const std::byte> bytes() const {
    return is_view_ ? view_ : std::span<const std::byte>(data_);
  }
  [[nodiscard]] std::size_t size() const { return bytes().size(); }
  // Bytes left to unpack. Decoders validate length prefixes against this
  // before allocating: a prefix no remaining bytes could satisfy is corrupt.
  [[nodiscard]] std::size_t remaining() const { return bytes().size() - cursor_; }
  [[nodiscard]] bool exhausted() const { return cursor_ >= bytes().size(); }
  void rewind() { cursor_ = 0; }
  void clear() {
    data_.clear();
    view_ = {};
    owner_.reset();
    is_view_ = false;
    cursor_ = 0;
  }

  friend bool operator==(const ByteBuffer& a, const ByteBuffer& b) {
    const auto sa = a.bytes();
    const auto sb = b.bytes();
    return std::equal(sa.begin(), sa.end(), sb.begin(), sb.end());
  }

 private:
  void append(const void* src, std::size_t n);
  void extract(void* dst, std::size_t n);

  std::vector<std::byte> data_;
  std::span<const std::byte> view_;   // a view's or a window's bytes
  std::shared_ptr<const void> owner_;  // a window's keep-alive; null otherwise
  bool is_view_ = false;
  std::size_t cursor_ = 0;
};

// Bytes in a block whose lifetime is shared: `owner` keeps the block that
// `bytes` lies in alive. What a BufferPool hands out; ByteBuffer::window()
// turns any part of it into a read-only window.
struct SharedBytes {
  std::shared_ptr<void> owner;
  std::span<std::byte> bytes;
};

// A small free list of large byte blocks, so a transport that sends and
// receives messages of ~100 KB reuses the same few blocks instead of handing
// each one back to the allocator (which trims the heap and faults the pages
// in again on the next call). acquire() takes the smallest kept block that
// fits, or allocates one rounded up to kGranule. When the last owner of a
// block lets go, the block goes back on the list if it is at most
// kMaxBlockBytes and the list holds fewer than kMaxBlocks; otherwise it is
// freed. So between messages a pool holds at most kMaxBlocks ×
// kMaxBlockBytes (4 MiB), whatever sizes its peers send. Copies of a pool
// share one list, a block may outlive every copy, and every call is
// thread-safe.
class BufferPool {
 public:
  static constexpr std::size_t kMaxBlocks = 8;
  // A message of eight ~60 KB fragments; larger ones are rare enough to
  // allocate each time.
  static constexpr std::size_t kMaxBlockBytes = 512 * 1024;
  static constexpr std::size_t kGranule = 4096;

  BufferPool();

  // `bytes` uninitialised bytes, exactly; the block behind them may be
  // larger.
  [[nodiscard]] SharedBytes acquire(std::size_t bytes) const;

  // Blocks on the free list now.
  [[nodiscard]] std::size_t kept() const;

 private:
  struct Shelf;
  std::shared_ptr<Shelf> shelf_;
};

}  // namespace mca
