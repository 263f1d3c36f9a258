// Content checksums shared by the storage and network layers.
//
// Two digests, two jobs:
//
//   CRC-32C   every frame, on the wire and on disk. Each MUF1 frame, MUF2
//             fragment and sim Network datagram carries one
//             (datagram_checksum, fragment_checksum), so corruption becomes
//             loss; each WAL record frame ('MWL2'), WAL checkpoint ('MWC2')
//             and commutative delta frame ('MCD2') carries one, so a flipped
//             bit or a torn write is *detected at read time* instead of
//             deserialised into a live object. Castagnoli, reflected
//             polynomial 0x82F63B78. x86-64 CPUs with SSE4.2 compute it
//             with the `crc32` instruction, eight bytes per step, picked at
//             run time; other CPUs take a slicing-by-8 table path. It
//             catches all single-bit errors and all burst errors up to 32
//             bits — exactly the failure shapes a torn sector or bad cable
//             produces.
//   FNV-1a/64 only the content fingerprint of a blob (ctl.blob_probe and
//             the clients that check a blob against it); no frame or
//             record uses it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace mca {

// CRC-32C starts from and finalises with all-ones: feed `crc32c_update` a
// running crc that starts at kCrc32Init and xor the end result with
// kCrc32Xor — used when a digest spans non-contiguous fields.
inline constexpr std::uint32_t kCrc32Init = 0xFFFFFFFFu;
inline constexpr std::uint32_t kCrc32Xor = 0xFFFFFFFFu;

// CRC-32C running update, on the fastest path this CPU has.
[[nodiscard]] std::uint32_t crc32c_update(std::uint32_t crc, const void* data, std::size_t n);

// CRC-32C of one contiguous run of bytes: the storage formats' digest.
[[nodiscard]] inline std::uint32_t crc32c(std::span<const std::byte> bytes) {
  return crc32c_update(kCrc32Init, bytes.data(), bytes.size()) ^ kCrc32Xor;
}

// The table path crc32c_update takes on CPUs without SSE4.2. Callable on
// any CPU, so the two paths can be checked against each other.
[[nodiscard]] std::uint32_t crc32c_update_portable(std::uint32_t crc, const void* data,
                                                   std::size_t n);

// CRC-32C streaming hasher: the wire checksum's mixer.
struct Crc32c {
  std::uint32_t state = kCrc32Init;

  void mix(const void* data, std::size_t n) { state = crc32c_update(state, data, n); }

  // Mixes an integer as little-endian bytes regardless of host order, so a
  // frame checksummed on one machine verifies on another.
  template <typename T>
  void mix_le(T v) {
    std::array<unsigned char, sizeof(T)> bytes;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
    }
    mix(bytes.data(), bytes.size());
  }

  [[nodiscard]] std::uint32_t digest() const { return state ^ kCrc32Xor; }
};

// FNV-1a/64 streaming hasher: the blob content fingerprint.
struct Fnv1a64 {
  static constexpr std::uint64_t kOffset = 1469598103934665603ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;

  std::uint64_t state = kOffset;

  void mix(const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      state ^= bytes[i];
      state *= kPrime;
    }
  }

  [[nodiscard]] std::uint64_t digest() const { return state; }
};

}  // namespace mca
