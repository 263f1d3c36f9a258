#include "net/frame.h"

#include "common/checksum.h"

namespace mca::net {

std::vector<std::byte> encode_frame(const Datagram& d) {
  ByteBuffer out;
  out.pack_u32(kFrameMagic);
  out.pack_u32(d.from);
  out.pack_u32(d.to);
  out.pack_u32(d.is_reply ? 1u : 0u);
  out.pack_string(d.service);
  out.pack_u64(d.request_id.hi());
  out.pack_u64(d.request_id.lo());
  out.pack_bytes(d.payload.bytes());
  out.pack_u64(datagram_checksum(d));
  return out.data();
}

FrameDecode decode_frame(std::span<const std::byte> bytes, Datagram& out,
                         std::size_t max_bytes) {
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
    out.payload = ByteBuffer(in.unpack_bytes());
    claimed = in.unpack_u64();
  } catch (const BufferUnderflow&) {
    return FrameDecode::Malformed;
  }
  if (!in.exhausted()) return FrameDecode::Malformed;  // trailing junk
  out.checksum = datagram_checksum(out);
  return out.checksum == claimed ? FrameDecode::Ok : FrameDecode::ChecksumMismatch;
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
  return out.data();
}

FrameDecode decode_fragment(std::span<const std::byte> bytes, Fragment& out,
                            std::vector<std::byte>& chunk) {
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
    chunk = in.unpack_bytes();
    claimed = in.unpack_u64();
  } catch (const BufferUnderflow&) {
    return FrameDecode::Malformed;
  }
  if (!in.exhausted()) return FrameDecode::Malformed;  // trailing junk
  if (out.count == 0 || out.index >= out.count) return FrameDecode::Malformed;
  return fragment_checksum(out, chunk) == claimed ? FrameDecode::Ok
                                                  : FrameDecode::ChecksumMismatch;
}

std::vector<std::vector<std::byte>> fragment_frame(std::span<const std::byte> frame,
                                                   NodeId from, NodeId to, const Uid& message,
                                                   std::size_t chunk_bytes) {
  std::vector<std::vector<std::byte>> out;
  if (chunk_bytes == 0 || frame.empty()) return out;
  const std::size_t count = (frame.size() + chunk_bytes - 1) / chunk_bytes;
  out.reserve(count);
  Fragment f;
  f.from = from;
  f.to = to;
  f.message = message;
  f.count = static_cast<std::uint32_t>(count);
  for (std::size_t i = 0; i < count; ++i) {
    f.index = static_cast<std::uint32_t>(i);
    const std::size_t offset = i * chunk_bytes;
    out.push_back(encode_fragment(f, frame.subspan(offset,
                                                   std::min(chunk_bytes, frame.size() - offset))));
  }
  return out;
}

}  // namespace mca::net
