#include "net/transport.h"

#include "common/checksum.h"

namespace mca {

std::uint64_t datagram_checksum(const Datagram& d) {
  Crc32c h;
  h.mix_le(d.from);
  h.mix_le(d.to);
  h.mix(d.service.data(), d.service.size());
  h.mix_le(d.request_id.hi());
  h.mix_le(d.request_id.lo());
  const unsigned char reply = d.is_reply ? 1 : 0;
  h.mix(&reply, sizeof reply);
  h.mix(d.payload.bytes().data(), d.payload.size());
  return h.digest();
}

}  // namespace mca
