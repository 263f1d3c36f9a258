#include "net/frame.h"

#include <cstring>

#include "common/checksum.h"

namespace mca::net {
namespace {

// MUF1 bytes around the service name and payload: magic, from, to, flags,
// the two length prefixes, the request uid and the checksum.
constexpr std::size_t kFrameFixedBytes = 4 * 4 + 4 + 16 + 4 + 8;

// Little-endian stores into a buffer sized in advance: the exact-size
// counterpart of ByteBuffer's packing, same byte order.
struct Writer {
  std::byte* at;

  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void raw(const void* src, std::size_t n) {
    if (n != 0) std::memcpy(at, src, n);
    at += n;
  }

 private:
  template <typename T>
  void le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      *at++ = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
    }
  }
};

void write_frame(const Datagram& d, std::span<std::byte> out) {
  const auto payload = d.payload.bytes();
  Writer w{out.data()};
  w.u32(kFrameMagic);
  w.u32(d.from);
  w.u32(d.to);
  w.u32(d.is_reply ? 1u : 0u);
  w.u32(static_cast<std::uint32_t>(d.service.size()));
  w.raw(d.service.data(), d.service.size());
  w.u64(d.request_id.hi());
  w.u64(d.request_id.lo());
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload.data(), payload.size());
  w.u64(datagram_checksum(d));
}

// Both decode_frame overloads: `owner`, when set, makes the payload a window
// on `bytes` instead of a copy.
FrameDecode decode(std::span<const std::byte> bytes, Datagram& out, std::size_t max_bytes,
                   std::shared_ptr<void> owner) {
  if (bytes.size() > max_bytes) return FrameDecode::Malformed;
  ByteBuffer in = ByteBuffer::reader(bytes);
  std::uint64_t claimed = 0;
  try {
    if (in.unpack_u32() != kFrameMagic) return FrameDecode::Malformed;
    out.from = in.unpack_u32();
    out.to = in.unpack_u32();
    out.is_reply = (in.unpack_u32() & 1u) != 0;
    out.service = in.unpack_string();
    const std::uint64_t hi = in.unpack_u64();
    const std::uint64_t lo = in.unpack_u64();
    out.request_id = Uid(hi, lo);
    const auto payload = in.unpack_span();
    out.payload = owner != nullptr
                      ? ByteBuffer::window(std::move(owner), payload)
                      : ByteBuffer(std::vector<std::byte>(payload.begin(), payload.end()));
    claimed = in.unpack_u64();
  } catch (const BufferUnderflow&) {
    return FrameDecode::Malformed;
  }
  if (!in.exhausted()) return FrameDecode::Malformed;  // trailing junk
  out.checksum = datagram_checksum(out);
  return out.checksum == claimed ? FrameDecode::Ok : FrameDecode::ChecksumMismatch;
}

}  // namespace

std::size_t frame_size(const Datagram& d) {
  return kFrameFixedBytes + d.service.size() + d.payload.size();
}

std::vector<std::byte> encode_frame(const Datagram& d) {
  std::vector<std::byte> out(frame_size(d));
  write_frame(d, out);
  return out;
}

SharedBytes encode_frame(const Datagram& d, const BufferPool& pool) {
  SharedBytes out = pool.acquire(frame_size(d));
  write_frame(d, out.bytes);
  return out;
}

FrameDecode decode_frame(std::span<const std::byte> bytes, Datagram& out,
                         std::size_t max_bytes) {
  return decode(bytes, out, max_bytes, nullptr);
}

FrameDecode decode_frame(SharedBytes frame, Datagram& out, std::size_t max_bytes) {
  return decode(frame.bytes, out, max_bytes, std::move(frame.owner));
}

std::optional<std::size_t> declared_frame_size(std::span<const std::byte> head) {
  ByteBuffer in = ByteBuffer::reader(head);
  try {
    if (in.unpack_u32() != kFrameMagic) return std::nullopt;
    (void)in.unpack_u64();  // from, to
    (void)in.unpack_u32();  // flags
    const std::size_t service = in.unpack_span().size();
    (void)in.unpack_uid();  // request
    return kFrameFixedBytes + service + in.unpack_u32();
  } catch (const BufferUnderflow&) {
    return std::nullopt;
  }
}

// -- fragmentation ------------------------------------------------------------

std::uint64_t fragment_checksum(const Fragment& f, std::span<const std::byte> chunk) {
  Crc32c h;
  h.mix_le(f.from);
  h.mix_le(f.to);
  h.mix_le(f.message.hi());
  h.mix_le(f.message.lo());
  h.mix_le(f.index);
  h.mix_le(f.count);
  h.mix(chunk.data(), chunk.size());
  return h.digest();
}

bool is_fragment_frame(std::span<const std::byte> bytes) {
  if (bytes.size() < sizeof(std::uint32_t)) return false;
  std::uint32_t magic = 0;
  for (std::size_t i = 0; i < sizeof magic; ++i) {
    magic |= static_cast<std::uint32_t>(std::to_integer<unsigned char>(bytes[i])) << (8 * i);
  }
  return magic == kFragmentMagic;
}

std::vector<std::byte> encode_fragment(const Fragment& f, std::span<const std::byte> chunk) {
  ByteBuffer out;
  out.pack_u32(kFragmentMagic);
  out.pack_u32(f.from);
  out.pack_u32(f.to);
  out.pack_u64(f.message.hi());
  out.pack_u64(f.message.lo());
  out.pack_u32(f.index);
  out.pack_u32(f.count);
  out.pack_bytes(chunk);
  out.pack_u64(fragment_checksum(f, chunk));
  const auto bytes = out.bytes();
  return {bytes.begin(), bytes.end()};
}

FrameDecode decode_fragment(std::span<const std::byte> bytes, Fragment& out,
                            std::span<const std::byte>& chunk) {
  if (bytes.size() > kMaxFrameBytes) return FrameDecode::Malformed;
  ByteBuffer in = ByteBuffer::reader(bytes);
  std::uint64_t claimed = 0;
  try {
    if (in.unpack_u32() != kFragmentMagic) return FrameDecode::Malformed;
    out.from = in.unpack_u32();
    out.to = in.unpack_u32();
    const std::uint64_t hi = in.unpack_u64();
    const std::uint64_t lo = in.unpack_u64();
    out.message = Uid(hi, lo);
    out.index = in.unpack_u32();
    out.count = in.unpack_u32();
    chunk = in.unpack_span();
    claimed = in.unpack_u64();
  } catch (const BufferUnderflow&) {
    return FrameDecode::Malformed;
  }
  if (!in.exhausted()) return FrameDecode::Malformed;  // trailing junk
  if (out.count == 0 || out.index >= out.count) return FrameDecode::Malformed;
  return fragment_checksum(out, chunk) == claimed ? FrameDecode::Ok
                                                  : FrameDecode::ChecksumMismatch;
}

std::size_t fragment_count(std::size_t frame_bytes) {
  return (frame_bytes + kFragmentChunkBytes - 1) / kFragmentChunkBytes;
}

FragmentGather gather_fragment(const Fragment& f, std::span<const std::byte> frame) {
  const std::size_t offset = f.index * kFragmentChunkBytes;
  FragmentGather g;
  g.chunk = frame.subspan(offset, std::min(kFragmentChunkBytes, frame.size() - offset));
  Writer header{g.header.data()};
  header.u32(kFragmentMagic);
  header.u32(f.from);
  header.u32(f.to);
  header.u64(f.message.hi());
  header.u64(f.message.lo());
  header.u32(f.index);
  header.u32(f.count);
  header.u32(static_cast<std::uint32_t>(g.chunk.size()));
  Writer trailer{g.trailer.data()};
  trailer.u64(fragment_checksum(f, g.chunk));
  return g;
}

}  // namespace mca::net
