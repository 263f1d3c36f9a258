#include "common/buffer.h"

#include <bit>
#include <mutex>

namespace mca {
namespace {

// All multi-byte quantities are stored little-endian so that states written
// to the WAL remain readable regardless of host order.
template <typename T>
T to_little_endian(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    auto bytes = std::bit_cast<std::array<std::byte, sizeof(T)>>(v);
    std::reverse(bytes.begin(), bytes.end());
    return std::bit_cast<T>(bytes);
  } else {
    return v;
  }
}

}  // namespace

void ByteBuffer::append(const void* src, std::size_t n) {
  if (is_view_) throw std::logic_error("ByteBuffer: cannot pack into a read-only view");
  const auto* p = static_cast<const std::byte*>(src);
  data_.insert(data_.end(), p, p + n);
}

void ByteBuffer::extract(void* dst, std::size_t n) {
  const auto src = bytes();
  if (cursor_ + n > src.size()) throw BufferUnderflow();
  std::memcpy(dst, src.data() + cursor_, n);
  cursor_ += n;
}

void ByteBuffer::pack_u32(std::uint32_t v) {
  v = to_little_endian(v);
  append(&v, sizeof v);
}

void ByteBuffer::pack_u64(std::uint64_t v) {
  v = to_little_endian(v);
  append(&v, sizeof v);
}

void ByteBuffer::pack_double(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  pack_u64(std::bit_cast<std::uint64_t>(v));
}

void ByteBuffer::pack_string(std::string_view s) {
  pack_u32(static_cast<std::uint32_t>(s.size()));
  append(s.data(), s.size());
}

void ByteBuffer::pack_uid(const Uid& u) {
  pack_u64(u.hi());
  pack_u64(u.lo());
}

void ByteBuffer::pack_bytes(std::span<const std::byte> bytes) {
  pack_u32(static_cast<std::uint32_t>(bytes.size()));
  append(bytes.data(), bytes.size());
}

std::uint8_t ByteBuffer::unpack_u8() {
  std::uint8_t v = 0;
  extract(&v, sizeof v);
  return v;
}

std::uint32_t ByteBuffer::unpack_u32() {
  std::uint32_t v = 0;
  extract(&v, sizeof v);
  return to_little_endian(v);
}

std::uint64_t ByteBuffer::unpack_u64() {
  std::uint64_t v = 0;
  extract(&v, sizeof v);
  return to_little_endian(v);
}

double ByteBuffer::unpack_double() { return std::bit_cast<double>(unpack_u64()); }

std::string ByteBuffer::unpack_string() {
  const std::uint32_t len = unpack_u32();
  // Check against remaining() before constructing: a corrupt or hostile
  // length prefix must fail here, not turn into a huge allocation.
  if (len > remaining()) throw BufferUnderflow();
  const auto src = bytes();
  std::string s(reinterpret_cast<const char*>(src.data() + cursor_), len);
  cursor_ += len;
  return s;
}

Uid ByteBuffer::unpack_uid() {
  const std::uint64_t hi = unpack_u64();
  const std::uint64_t lo = unpack_u64();
  return Uid(hi, lo);
}

std::vector<std::byte> ByteBuffer::unpack_bytes() {
  const auto run = unpack_span();
  return {run.begin(), run.end()};
}

std::span<const std::byte> ByteBuffer::unpack_span() {
  const std::uint32_t len = unpack_u32();
  if (len > remaining()) throw BufferUnderflow();
  const auto run = bytes().subspan(cursor_, len);
  cursor_ += len;
  return run;
}

ByteBuffer ByteBuffer::unpack_slice() {
  const auto run = unpack_span();
  if (owner_ != nullptr) return window(owner_, run);
  if (is_view_) return reader(run);
  return ByteBuffer(std::vector<std::byte>(run.begin(), run.end()));
}

ByteBuffer ByteBuffer::share() && {
  if (owner_ == nullptr) {
    auto storage = std::make_shared<const std::vector<std::byte>>(
        is_view_ ? std::vector<std::byte>(view_.begin(), view_.end()) : std::move(data_));
    view_ = *storage;
    owner_ = std::move(storage);
    is_view_ = true;
  }
  return std::move(*this);
}

// -- BufferPool ----------------------------------------------------------------

struct BufferPool::Shelf {
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t capacity = 0;
  };

  // Keeps `block` if it is small enough and the list has room; otherwise
  // the block is freed on return, after the lock is dropped.
  void put(Block block) {
    if (block.capacity > kMaxBlockBytes) return;
    const std::scoped_lock lock(mutex);
    if (blocks.size() < kMaxBlocks) blocks.push_back(std::move(block));
  }

  // A lent block's deleter: the block comes back to its shelf, which this
  // keeps alive for as long as the block is out.
  struct Return {
    std::shared_ptr<Shelf> shelf;
    std::size_t capacity = 0;

    void operator()(std::byte* p) const {
      shelf->put(Block{std::unique_ptr<std::byte[]>(p), capacity});
    }
  };

  std::mutex mutex;
  std::vector<Block> blocks;
};

BufferPool::BufferPool() : shelf_(std::make_shared<Shelf>()) {}

SharedBytes BufferPool::acquire(std::size_t bytes) const {
  Shelf::Block block;
  {
    const std::scoped_lock lock(shelf_->mutex);
    auto& blocks = shelf_->blocks;
    auto best = blocks.end();
    for (auto it = blocks.begin(); it != blocks.end(); ++it) {
      if (it->capacity >= bytes && (best == blocks.end() || it->capacity < best->capacity)) {
        best = it;
      }
    }
    if (best != blocks.end()) {
      block = std::move(*best);
      *best = std::move(blocks.back());
      blocks.pop_back();
    }
  }
  if (block.data == nullptr) {
    block.capacity = (bytes + kGranule - 1) / kGranule * kGranule;
    block.data = std::make_unique_for_overwrite<std::byte[]>(block.capacity);
  }
  std::byte* raw = block.data.release();
  return SharedBytes{std::shared_ptr<void>(raw, Shelf::Return{shelf_, block.capacity}),
                     std::span<std::byte>(raw, bytes)};
}

std::size_t BufferPool::kept() const {
  const std::scoped_lock lock(shelf_->mutex);
  return shelf_->blocks.size();
}

}  // namespace mca
