#include "storage/object_state.h"

#include "common/checksum.h"

namespace mca {
namespace {

// "MCS1" little-endian: rules out reading a pre-checksum encoding (or any
// foreign file) as state.
constexpr std::uint32_t kMagic = 0x3153434Du;

}  // namespace

ByteBuffer ObjectState::encode_unchecked() const {
  ByteBuffer body;
  body.pack_uid(uid_);
  body.pack_string(type_name_);
  body.pack_bytes(state_.bytes());
  return body;
}

ByteBuffer ObjectState::encode() const {
  const ByteBuffer body = encode_unchecked();
  ByteBuffer out;
  out.pack_u32(kMagic);
  out.pack_u32(crc32(body.bytes()));
  out.pack_bytes(body.bytes());
  return out;
}

ObjectState ObjectState::decode_unchecked(ByteBuffer& in) {
  ObjectState s;
  s.uid_ = in.unpack_uid();
  s.type_name_ = in.unpack_string();
  s.state_ = ByteBuffer(in.unpack_bytes());
  return s;
}

ObjectState ObjectState::decode(ByteBuffer& in) {
  if (in.unpack_u32() != kMagic) {
    throw StateCorrupt("bad magic word (not a state encoding, or header torn)");
  }
  const std::uint32_t expected_crc = in.unpack_u32();
  // Truncation inside the length-prefixed body surfaces as BufferUnderflow
  // here; any surviving damage is caught by the CRC before a field is read.
  ByteBuffer body(in.unpack_bytes());
  if (crc32(body.bytes()) != expected_crc) {
    throw StateCorrupt("CRC-32 mismatch (bit flip or torn write)");
  }
  return decode_unchecked(body);
}

}  // namespace mca
