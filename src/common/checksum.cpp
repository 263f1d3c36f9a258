#include "common/checksum.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define MCA_CRC32C_SSE42 1
#endif

namespace mca {
namespace {

// Slicing-by-8 tables for a reflected polynomial: table[0] is the classic
// byte table, table[k] advances a byte through k further zero bytes, so
// eight lookups retire eight input bytes per iteration.
struct CrcTables {
  std::uint32_t t[8][256];
};

CrcTables make_tables(std::uint32_t poly) {
  CrcTables tb{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? poly ^ (c >> 1) : c >> 1;
    }
    tb.t[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      tb.t[k][i] = tb.t[0][tb.t[k - 1][i] & 0xFFu] ^ (tb.t[k - 1][i] >> 8);
    }
  }
  return tb;
}

const CrcTables& crc32c_tables() {
  static const CrcTables tb = make_tables(0x82F63B78u);
  return tb;
}

std::uint32_t slice8_update(const CrcTables& tb, std::uint32_t crc, const void* data,
                            std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint64_t chunk;
      std::memcpy(&chunk, p, 8);
      chunk ^= crc;
      crc = tb.t[7][chunk & 0xFFu] ^ tb.t[6][(chunk >> 8) & 0xFFu] ^
            tb.t[5][(chunk >> 16) & 0xFFu] ^ tb.t[4][(chunk >> 24) & 0xFFu] ^
            tb.t[3][(chunk >> 32) & 0xFFu] ^ tb.t[2][(chunk >> 40) & 0xFFu] ^
            tb.t[1][(chunk >> 48) & 0xFFu] ^ tb.t[0][chunk >> 56];
      p += 8;
      n -= 8;
    }
  }
  while (n-- > 0) {
    crc = tb.t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#ifdef MCA_CRC32C_SSE42
// The SSE4.2 `crc32` instruction computes exactly this polynomial; the
// target attribute enables it for this function alone, so the build flags
// stay baseline x86-64 and CPUs without it never execute it.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(std::uint32_t crc,
                                                             const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c = crc;
  while (n >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    c = _mm_crc32_u64(c, chunk);
    p += 8;
    n -= 8;
  }
  auto c32 = static_cast<std::uint32_t>(c);
  while (n-- > 0) c32 = _mm_crc32_u8(c32, *p++);
  return c32;
}
#endif

using Crc32cUpdate = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

Crc32cUpdate pick_crc32c() {
#ifdef MCA_CRC32C_SSE42
  __builtin_cpu_init();  // may run before the CPU-model constructor does
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_update_portable;
}

}  // namespace

std::uint32_t crc32c_update_portable(std::uint32_t crc, const void* data, std::size_t n) {
  return slice8_update(crc32c_tables(), crc, data, n);
}

std::uint32_t crc32c_update(std::uint32_t crc, const void* data, std::size_t n) {
  static const Crc32cUpdate update = pick_crc32c();
  return update(crc, data, n);
}

}  // namespace mca
