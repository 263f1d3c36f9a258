// Wire framing for datagrams that leave the process.
//
// The simulated Network hands Datagram structs around in memory; a real
// transport has to flatten them. One UDP datagram carries exactly one frame:
//
//   [u32 magic 'MUF1'] [u32 from] [u32 to] [u32 flags (bit0 = is_reply)]
//   [string service]   [u64 request hi] [u64 request lo]
//   [bytes payload]    [u64 checksum]
//
// All integers are little-endian (ByteBuffer's encoding) and strings/bytes
// are u32-length-prefixed, so the bytes are identical on every host; the
// trailing checksum is datagram_checksum() over the decoded fields — the
// same CRC-32C digest the simulator stamps, endian-stable, zero-extended to
// u64. A golden-bytes regression test pins the encoding
// (tests/test_network.cpp).
//
// Messages larger than one datagram travel as 'MUF2' *fragment* frames: the
// full MUF1 frame is encoded once, sliced into chunks, and each chunk ships
// wrapped in a fragment header naming the message (sender-unique uid) and
// the chunk's position:
//
//   [u32 magic 'MUF2'] [u32 from] [u32 to]
//   [u64 message hi]   [u64 message lo]
//   [u32 index]        [u32 count]
//   [bytes chunk]      [u64 checksum]
//
// The trailing checksum is fragment_checksum() (CRC-32C over the header
// fields and chunk bytes, all mixed little-endian), so a damaged fragment is
// dropped alone; the reassembled MUF1 frame still carries the end-to-end
// datagram checksum over the whole message. Reassembly lives in
// net/reassembly.h; both encodings are pinned by golden-bytes tests.
//
// One buffer per message. A sender encodes a large message once, into one
// exact-size block (encode_frame with a BufferPool), and sends each fragment
// as three pieces — gather_fragment's header, a slice of that block, and its
// trailer — so no fragment is ever copied out; the fragment checksum is
// computed over the slice where it lies. A receiver checks each fragment
// where it arrived (decode_fragment returns the chunk as a span), the
// Reassembler copies the chunk once to its place in the message's block, and
// decode_frame on that block hands the payload on as a ByteBuffer window on
// it, not a copy. encode_fragment is the reference encoding the gathered
// pieces are tested against.
//
// Decode is defensive: frames come off a real socket, so a short buffer, a
// wrong magic, an impossible length prefix or a digest mismatch must never
// turn into an allocation or a handler dispatch. Malformed and corrupt are
// reported separately — transports count them apart, and only corruption
// (valid shape, wrong digest) is the "retransmission will mask it" case.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "net/transport.h"

namespace mca::net {

inline constexpr std::uint32_t kFrameMagic = 0x3146554Du;     // "MUF1" little-endian
inline constexpr std::uint32_t kFragmentMagic = 0x3246554Du;  // "MUF2" little-endian

// Ceiling on one encoded frame. Far below the 64 KiB UDP payload limit so a
// frame always fits one datagram with headroom for IP options; anything
// larger is refused at send and at receive. A *message* larger than this is
// not refused any more — it is sliced into MUF2 fragments, each of which
// respects this cap.
inline constexpr std::size_t kMaxFrameBytes = 60 * 1024;

// Chunk payload per fragment: frame cap minus generous headroom for the
// fragment header + checksum (48 bytes exactly; 256 keeps the math
// obviously safe if the header grows). Every sender cuts at this size, and
// the receiver places chunk i at i × kFragmentChunkBytes of the message.
inline constexpr std::size_t kFragmentChunkBytes = kMaxFrameBytes - 256;

// A MUF2 frame around its chunk: the header runs through the chunk's length
// prefix, the trailer is the checksum.
inline constexpr std::size_t kFragmentHeaderBytes = 40;
inline constexpr std::size_t kFragmentTrailerBytes = 8;

enum class FrameDecode { Ok, Malformed, ChecksumMismatch };

// The exact size of `d`'s MUF1 frame.
[[nodiscard]] std::size_t frame_size(const Datagram& d);

// Flattens `d` (stamping the checksum field) into one wire frame of exactly
// frame_size(d) bytes.
[[nodiscard]] std::vector<std::byte> encode_frame(const Datagram& d);
// The same frame written into a block from `pool`: how a transport encodes
// a message it is about to fragment, so the fragments can share the block.
[[nodiscard]] SharedBytes encode_frame(const Datagram& d, const BufferPool& pool);

// Parses `bytes` into `out`. Ok means shape and digest both check out;
// ChecksumMismatch means a well-formed frame whose content was damaged in
// flight (out holds the decoded fields); Malformed means the shape itself is
// wrong and `out` is unspecified. `max_bytes` bounds the accepted input: the
// datagram cap for frames straight off a socket, the (larger) message cap
// for frames reassembled from fragments. The payload is copied out of
// `bytes`.
[[nodiscard]] FrameDecode decode_frame(std::span<const std::byte> bytes, Datagram& out,
                                       std::size_t max_bytes = kMaxFrameBytes);
// The same for a frame in a shared block (a reassembled message): the
// payload is a window on the block, not a copy, and keeps it alive.
[[nodiscard]] FrameDecode decode_frame(SharedBytes frame, Datagram& out,
                                       std::size_t max_bytes);

// The size the MUF1 frame starting with `head` declares through its service
// and payload length prefixes, or nullopt when `head` does not start with a
// MUF1 header. A receiver sizes a message's buffer by it from the first
// fragment; decode_frame still checks the whole frame.
[[nodiscard]] std::optional<std::size_t> declared_frame_size(std::span<const std::byte> head);

// -- fragmentation ------------------------------------------------------------

// Header of one MUF2 fragment frame. `message` is unique per (sender,
// message); index ∈ [0, count) positions the chunk.
struct Fragment {
  NodeId from = 0;
  NodeId to = 0;
  Uid message = Uid::nil();
  std::uint32_t index = 0;
  std::uint32_t count = 0;
};

// CRC-32C over the fragment header fields and chunk bytes, every multi-byte
// field mixed as little-endian, zero-extended to u64 — endian-stable like
// datagram_checksum.
[[nodiscard]] std::uint64_t fragment_checksum(const Fragment& f,
                                              std::span<const std::byte> chunk);

// True when `bytes` starts with the fragment magic (cheap routing peek; the
// full decode still validates everything).
[[nodiscard]] bool is_fragment_frame(std::span<const std::byte> bytes);

// Flattens one fragment (header + chunk + checksum) into a wire frame: the
// reference encoding.
[[nodiscard]] std::vector<std::byte> encode_fragment(const Fragment& f,
                                                     std::span<const std::byte> chunk);

// Parses a MUF2 frame. Ok / ChecksumMismatch / Malformed exactly like
// decode_frame; on Ok (and ChecksumMismatch) `chunk` is the chunk's bytes
// inside `bytes` — checked where they lie, not copied.
[[nodiscard]] FrameDecode decode_fragment(std::span<const std::byte> bytes, Fragment& out,
                                          std::span<const std::byte>& chunk);

// How many fragments a `frame_bytes` frame is cut into.
[[nodiscard]] std::size_t fragment_count(std::size_t frame_bytes);

// Fragment `f.index` of `frame` (an encoded MUF1 frame; f.count must be
// fragment_count(frame.size())) as the three pieces a gathering send hands
// the kernel. header + chunk + trailer are byte for byte
// encode_fragment(f, chunk); `chunk` is a slice of `frame`, so `frame` must
// outlive the gather.
struct FragmentGather {
  std::array<std::byte, kFragmentHeaderBytes> header{};
  std::span<const std::byte> chunk;
  std::array<std::byte, kFragmentTrailerBytes> trailer{};
};
[[nodiscard]] FragmentGather gather_fragment(const Fragment& f, std::span<const std::byte> frame);

}  // namespace mca::net
