// Unit tests for src/common: Uid uniqueness/ordering and ByteBuffer
// round-trips.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/buffer.h"
#include "common/checksum.h"
#include "common/uid.h"
#include "dist/wire.h"

namespace mca {
namespace {

TEST(Uid, FreshUidsAreUnique) {
  std::set<Uid> seen;
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_TRUE(seen.insert(Uid()).second);
  }
}

TEST(Uid, UniqueAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2'000;
  std::vector<std::vector<Uid>> per_thread(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&per_thread, t] {
        for (int i = 0; i < kPerThread; ++i) per_thread[static_cast<std::size_t>(t)].emplace_back();
      });
    }
  }
  std::set<Uid> all;
  for (const auto& v : per_thread) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(Uid, NilIsNilAndComparable) {
  EXPECT_TRUE(Uid::nil().is_nil());
  EXPECT_FALSE(Uid().is_nil());
  EXPECT_EQ(Uid::nil(), Uid(0, 0));
  EXPECT_NE(Uid(), Uid());
}

TEST(Uid, RoundTripsThroughHalves) {
  const Uid u;
  EXPECT_EQ(u, Uid(u.hi(), u.lo()));
}

TEST(Uid, ToStringIsStable) {
  const Uid u(0xAB, 0xCD);
  EXPECT_EQ(u.to_string(), "ab:cd");
}

TEST(ByteBuffer, PrimitivesRoundTrip) {
  ByteBuffer b;
  b.pack_u8(7);
  b.pack_u32(123456);
  b.pack_u64(0xDEADBEEFCAFEF00DULL);
  b.pack_i64(-42);
  b.pack_bool(true);
  b.pack_double(3.25);
  b.pack_string("hello");
  const Uid uid;
  b.pack_uid(uid);

  EXPECT_EQ(b.unpack_u8(), 7);
  EXPECT_EQ(b.unpack_u32(), 123456u);
  EXPECT_EQ(b.unpack_u64(), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(b.unpack_i64(), -42);
  EXPECT_TRUE(b.unpack_bool());
  EXPECT_DOUBLE_EQ(b.unpack_double(), 3.25);
  EXPECT_EQ(b.unpack_string(), "hello");
  EXPECT_EQ(b.unpack_uid(), uid);
  EXPECT_TRUE(b.exhausted());
}

TEST(ByteBuffer, EmptyStringRoundTrips) {
  ByteBuffer b;
  b.pack_string("");
  EXPECT_EQ(b.unpack_string(), "");
}

TEST(ByteBuffer, BytesRoundTrip) {
  ByteBuffer b;
  const std::vector<std::byte> payload{std::byte{1}, std::byte{2}, std::byte{255}};
  b.pack_bytes(payload);
  EXPECT_EQ(b.unpack_bytes(), payload);
}

TEST(ByteBuffer, UnderflowThrows) {
  ByteBuffer b;
  b.pack_u8(1);
  (void)b.unpack_u8();
  EXPECT_THROW((void)b.unpack_u8(), BufferUnderflow);
}

TEST(ByteBuffer, TruncatedStringThrows) {
  ByteBuffer b;
  b.pack_u32(1000);  // claims 1000 bytes follow; none do
  EXPECT_THROW((void)b.unpack_string(), BufferUnderflow);
}

TEST(ByteBuffer, RemainingTracksCursor) {
  ByteBuffer b;
  b.pack_u32(7);
  b.pack_u8(1);
  EXPECT_EQ(b.remaining(), 5u);
  (void)b.unpack_u32();
  EXPECT_EQ(b.remaining(), 1u);
  (void)b.unpack_u8();
  EXPECT_EQ(b.remaining(), 0u);
}

TEST(ByteBuffer, HugeBytesLengthPrefixThrowsWithoutAllocating) {
  // A 4 GiB length prefix with 3 bytes of payload must be rejected up
  // front, not attempted as an allocation.
  ByteBuffer b;
  b.pack_u32(0xFFFF'FFFFu);
  b.pack_u8(1);
  b.pack_u8(2);
  b.pack_u8(3);
  EXPECT_THROW((void)b.unpack_bytes(), BufferUnderflow);
}

TEST(ByteBuffer, RewindAllowsRereading) {
  ByteBuffer b;
  b.pack_u32(99);
  EXPECT_EQ(b.unpack_u32(), 99u);
  b.rewind();
  EXPECT_EQ(b.unpack_u32(), 99u);
}

TEST(ByteBuffer, ShareMovesTheBytesIntoAWindowCopiesShare) {
  ByteBuffer owned;
  owned.pack_string("shared once");
  const std::byte* storage = owned.bytes().data();
  ByteBuffer window = std::move(owned).share();
  EXPECT_EQ(window.bytes().data(), storage);  // moved, not copied

  ByteBuffer copy = window;  // a handle, not the bytes
  EXPECT_EQ(copy.bytes().data(), storage);
  EXPECT_EQ(copy.unpack_string(), "shared once");
  EXPECT_EQ(window.unpack_string(), "shared once");  // cursors are per copy
  EXPECT_THROW(copy.pack_u8(1), std::logic_error);

  // A view's bytes belong to someone else, so sharing one copies them once.
  ByteBuffer view = ByteBuffer::reader(window);
  const ByteBuffer from_view = std::move(view).share();
  EXPECT_NE(from_view.bytes().data(), storage);
  EXPECT_TRUE(from_view == window);
}

TEST(ByteBuffer, SlicesShareWhatTheirBufferShares) {
  ByteBuffer packed;
  packed.pack_bytes(std::vector<std::byte>(64, std::byte{0x11}));
  packed.pack_u8(7);

  // From a window: a window on the same bytes, which outlives the original.
  ByteBuffer slice;
  const std::byte* inside = nullptr;
  {
    ByteBuffer window = ByteBuffer(packed).share();
    inside = window.bytes().data() + sizeof(std::uint32_t);
    slice = window.unpack_slice();
    EXPECT_EQ(window.unpack_u8(), 7u);
  }
  EXPECT_EQ(slice.bytes().data(), inside);
  EXPECT_EQ(slice.size(), 64u);
  EXPECT_THROW(slice.pack_u8(1), std::logic_error);

  // From a view: a view; from an owning buffer: a copy.
  ByteBuffer view = ByteBuffer::reader(packed);
  EXPECT_EQ(view.unpack_slice().bytes().data(), packed.bytes().data() + sizeof(std::uint32_t));
  ByteBuffer owner = packed;
  ByteBuffer copy = owner.unpack_slice();
  EXPECT_NE(copy.bytes().data(), owner.bytes().data() + sizeof(std::uint32_t));
  EXPECT_EQ(copy.size(), 64u);
  copy.pack_u8(1);  // an owning buffer still packs
}

TEST(BufferPool, ReturnedBlocksAreReusedUpToTheCap) {
  const BufferPool pool;
  std::byte* first = nullptr;
  {
    SharedBytes a = pool.acquire(10'000);
    first = a.bytes.data();
    EXPECT_EQ(a.bytes.size(), 10'000u);
    EXPECT_EQ(pool.kept(), 0u);
  }
  EXPECT_EQ(pool.kept(), 1u);
  {
    // A smaller request reuses the kept block (it fits); a larger one cannot.
    SharedBytes b = pool.acquire(9'000);
    EXPECT_EQ(b.bytes.data(), first);
    EXPECT_EQ(b.bytes.size(), 9'000u);
    SharedBytes c = pool.acquire(20'000);
    EXPECT_NE(c.bytes.data(), first);
    EXPECT_EQ(pool.kept(), 0u);
  }
  EXPECT_EQ(pool.kept(), 2u);
  {
    // Nine blocks out at once (the two kept ones among them) come back to a
    // list of eight: one goes to the allocator.
    std::vector<SharedBytes> out;
    for (std::size_t i = 0; i <= BufferPool::kMaxBlocks; ++i) out.push_back(pool.acquire(4'000));
    EXPECT_EQ(pool.kept(), 0u);
  }
  EXPECT_EQ(pool.kept(), BufferPool::kMaxBlocks);
}

TEST(BufferPool, OversizeBlocksGoBackToTheAllocator) {
  // A block over kMaxBlockBytes serves its one message and is freed, so
  // peers sending huge messages cannot make a pool hold on to them.
  const BufferPool pool;
  { const SharedBytes big = pool.acquire(BufferPool::kMaxBlockBytes + 1); }
  EXPECT_EQ(pool.kept(), 0u);
  { const SharedBytes largest = pool.acquire(BufferPool::kMaxBlockBytes); }
  EXPECT_EQ(pool.kept(), 1u);
}

TEST(BufferPool, BlocksOutliveThePool) {
  SharedBytes block;
  {
    const BufferPool pool;
    block = pool.acquire(1'000);
  }
  std::fill(block.bytes.begin(), block.bytes.end(), std::byte{0x42});
  ByteBuffer window = ByteBuffer::window(block.owner, block.bytes);
  block = {};
  EXPECT_EQ(window.size(), 1'000u);
  EXPECT_EQ(window.unpack_u8(), 0x42u);
}

// --- wire decoder hardening --------------------------------------------------
// The u32 element counts in wire frames come off the (simulated) network, so
// they are corruption- and attacker-controlled. A count no remaining bytes
// could satisfy must raise BufferUnderflow before any allocation sized from
// it.

TEST(Wire, HugeColourSetCountIsRejected) {
  ByteBuffer b;
  b.pack_u32(0xFFFF'FFFFu);  // claims ~4 billion colours; nothing follows
  EXPECT_THROW((void)wire::unpack_colour_set(b), BufferUnderflow);
}

TEST(Wire, HugePathCountIsRejected) {
  ByteBuffer b;
  b.pack_u32(0x1000'0000u);  // 268 M uids = 4 GiB, in an 8-byte frame
  b.pack_u64(0);
  EXPECT_THROW((void)wire::unpack_path(b), BufferUnderflow);
}

TEST(Wire, HugeHeirCountIsRejected) {
  ByteBuffer b;
  b.pack_u32(0x00FF'FFFFu);
  EXPECT_THROW((void)wire::unpack_heirs(b), BufferUnderflow);
}

TEST(Wire, HugePlanPairCountIsRejected) {
  ByteBuffer b;
  b.pack_u32(0xFFFF'FFFFu);
  EXPECT_THROW((void)wire::unpack_plan(b), BufferUnderflow);
}

TEST(Wire, HeirsRoundTrip) {
  std::vector<wire::HeirInfo> heirs(2);
  heirs[0].colour = Colour::named("wire-red");
  heirs[0].heir = Uid();
  heirs[0].heir_path = {Uid(), Uid()};
  heirs[0].heir_colours = ColourSet{Colour::named("wire-red"), Colour::named("wire-blue")};
  heirs[1].colour = Colour::named("wire-blue");

  ByteBuffer b;
  wire::pack_heirs(b, heirs);
  const auto out = wire::unpack_heirs(b);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].colour, heirs[0].colour);
  EXPECT_EQ(out[0].heir, heirs[0].heir);
  EXPECT_EQ(out[0].heir_path, heirs[0].heir_path);
  EXPECT_EQ(out[1].colour, heirs[1].colour);
}

TEST(Wire, TruncatedHeirsFrameAlwaysThrowsNeverHangs) {
  // Fuzz-by-truncation: every proper prefix of a valid heirs frame must
  // fail with BufferUnderflow — no crash, no runaway allocation, no
  // silent short read.
  std::vector<wire::HeirInfo> heirs(2);
  heirs[0].colour = Colour::named("trunc-red");
  heirs[0].heir = Uid();
  heirs[0].heir_path = {Uid()};
  heirs[0].heir_colours = ColourSet{Colour::named("trunc-red")};
  heirs[1].colour = Colour::named("trunc-blue");
  ByteBuffer full;
  wire::pack_heirs(full, heirs);

  for (std::size_t len = 0; len < full.size(); ++len) {
    ByteBuffer cut(std::vector<std::byte>(full.bytes().begin(),
                                          full.bytes().begin() + static_cast<std::ptrdiff_t>(len)));
    EXPECT_THROW((void)wire::unpack_heirs(cut), BufferUnderflow) << "prefix length " << len;
  }
  // And the untruncated frame still parses.
  ByteBuffer whole = ByteBuffer::reader(full);
  EXPECT_EQ(wire::unpack_heirs(whole).size(), 2u);
}

TEST(Checksum, Crc32cKnownAnswers) {
  // The CRC-32C check value for the 0x82F63B78 reflected polynomial: the
  // wire and storage digest every host must compute, on either path. It
  // pins the on-disk formats too, so an implementation change cannot
  // silently invalidate every stored record.
  const char digits[] = "123456789";
  Crc32c h;
  h.mix(digits, 9);
  EXPECT_EQ(h.digest(), 0xE3069283u);
  EXPECT_EQ(Crc32c{}.digest(), 0x00000000u);
  EXPECT_EQ(crc32c(std::as_bytes(std::span(digits, 9))), 0xE3069283u);
  EXPECT_EQ(crc32c({}), 0x00000000u);
  EXPECT_EQ(crc32c_update_portable(kCrc32Init, digits, 9) ^ kCrc32Xor, 0xE3069283u);
}

TEST(Checksum, Crc32cHardwareAndPortablePathsAgree) {
  // crc32c_update takes the SSE4.2 path where the CPU has it; the table
  // path must give the same digest at every length and alignment, so the
  // 8-byte steps, the byte tails and unaligned starts are all covered.
  std::vector<unsigned char> data(4100 + 8);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (unsigned char& b : data) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<unsigned char>(x);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 4100; ++len) {
      const unsigned char* p = data.data() + offset;
      ASSERT_EQ(crc32c_update(kCrc32Init, p, len), crc32c_update_portable(kCrc32Init, p, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Checksum, Crc32cIncrementalEqualsOneShot) {
  // A digest fed in pieces (the wire checksum mixes header fields, then the
  // payload) equals the digest of the concatenation, wherever it is split.
  std::vector<std::byte> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i * 131 + 7);
  const std::uint32_t whole = crc32c_update(kCrc32Init, data.data(), data.size()) ^ kCrc32Xor;
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    for (const std::size_t cut2 : {cut, (cut + data.size()) / 2}) {
      Crc32c h;
      h.mix(data.data(), cut);
      h.mix(data.data() + cut, cut2 - cut);
      h.mix(data.data() + cut2, data.size() - cut2);
      EXPECT_EQ(h.digest(), whole) << "cuts " << cut << ", " << cut2;
    }
  }
}

}  // namespace
}  // namespace mca
