// Exact allocation counts on the large-message path: one ~96 KB datagram
// (a blob-sized obj.invoke) should cost about one frame of heap to encode
// and fragment, about one frame to reassemble and decode, and next to
// nothing to get from RpcEndpoint::call to the service handler over the sim
// Network. A global operator new that counts bytes while a test has counting
// switched on measures it; the bounds are loose enough to survive small
// bookkeeping changes and far below what a second copy of the payload costs.
// The same counter checks that a forged element count in a request is
// refused before anything is reserved for it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "dist/node.h"
#include "dist/rpc.h"
#include "net/frame.h"
#include "net/reassembly.h"
#include "sim/network.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_bytes{0};
std::atomic<std::size_t> g_allocations{0};

void* counted_new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(n, std::memory_order_relaxed);
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mca {
namespace {

constexpr std::size_t kPayloadBytes = 96 * 1024;

// Heap bytes and allocations between start() and stop(), on every thread.
struct Counter {
  std::size_t bytes = 0;
  std::size_t allocations = 0;

  void start() {
    g_bytes = 0;
    g_allocations = 0;
    g_counting = true;
  }
  void stop() {
    g_counting = false;
    bytes = g_bytes;
    allocations = g_allocations;
  }
};

// An obj.invoke-shaped datagram carrying a 96 KB blob.
Datagram blob_datagram() {
  Datagram d;
  d.from = 1;
  d.to = 2;
  d.service = "obj.invoke";
  d.request_id = Uid();
  std::vector<std::byte> blob(kPayloadBytes);
  for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<std::byte>(i * 131 + 17);
  d.payload.pack_bytes(blob);
  d.payload = std::move(d.payload).share();
  return d;
}

net::Fragment fragment_header(const Datagram& d, std::size_t frame_bytes) {
  net::Fragment f;
  f.from = d.from;
  f.to = d.to;
  f.message = Uid();
  f.count = static_cast<std::uint32_t>(net::fragment_count(frame_bytes));
  return f;
}

TEST(OneBuffer, EncodeAndFragmentAllocateOneFrame) {
  const Datagram d = blob_datagram();
  const BufferPool pool;  // cold: the first message allocates its block
  Counter c;
  c.start();
  const SharedBytes frame = net::encode_frame(d, pool);
  net::Fragment f = fragment_header(d, frame.bytes.size());
  std::size_t wire_bytes = 0;
  for (f.index = 0; f.index < f.count; ++f.index) {
    const net::FragmentGather g = net::gather_fragment(f, frame.bytes);
    wire_bytes += g.header.size() + g.chunk.size() + g.trailer.size();
  }
  c.stop();
  std::printf("encode + fragment: %zu bytes in %zu allocations for a %zu-byte frame (%.2fx)\n",
              c.bytes, c.allocations, frame.bytes.size(),
              static_cast<double>(c.bytes) / static_cast<double>(frame.bytes.size()));
  EXPECT_EQ(f.count, 2u);
  EXPECT_EQ(wire_bytes, frame.bytes.size() + f.count * (net::kFragmentHeaderBytes +
                                                        net::kFragmentTrailerBytes));
  EXPECT_LE(c.bytes * 10, frame.bytes.size() * 11);
}

TEST(OneBuffer, ReassembleAndDecodeAllocateOneFrame) {
  const Datagram d = blob_datagram();
  const std::vector<std::byte> frame = net::encode_frame(d);
  net::Fragment f = fragment_header(d, frame.size());
  std::vector<std::vector<std::byte>> wire;  // what recvmmsg would hand over
  for (f.index = 0; f.index < f.count; ++f.index) {
    const net::FragmentGather g = net::gather_fragment(f, frame);
    std::vector<std::byte>& bytes = wire.emplace_back(g.header.begin(), g.header.end());
    bytes.insert(bytes.end(), g.chunk.begin(), g.chunk.end());
    bytes.insert(bytes.end(), g.trailer.begin(), g.trailer.end());
  }
  net::Reassembler reasm;  // its own cold pool
  const auto now = net::Reassembler::Clock::now();

  Counter c;
  Datagram out;
  net::FrameDecode verdict = net::FrameDecode::Malformed;
  c.start();
  for (const auto& datagram : wire) {
    net::Fragment got;
    std::span<const std::byte> chunk;
    if (net::decode_fragment(datagram, got, chunk) != net::FrameDecode::Ok) break;
    if (auto message = reasm.add(got, chunk, now)) {
      verdict = net::decode_frame(std::move(*message), out, 1 << 20);
    }
  }
  c.stop();
  std::printf("reassemble + decode: %zu bytes in %zu allocations for a %zu-byte frame (%.2fx)\n",
              c.bytes, c.allocations, frame.size(),
              static_cast<double>(c.bytes) / static_cast<double>(frame.size()));
  ASSERT_EQ(verdict, net::FrameDecode::Ok);
  EXPECT_TRUE(out.payload == d.payload);
  EXPECT_LE(c.bytes * 10, frame.size() * 11);
}

TEST(OneBuffer, RpcCallReachesItsHandlerWithoutCopyingThePayload) {
  NetworkConfig config;
  config.min_delay = std::chrono::microseconds(10);
  config.max_delay = std::chrono::microseconds(100);
  Network net(config);
  RpcEndpoint server(net, 1);
  RpcEndpoint client(net, 2);
  Counter c;
  std::size_t received = 0;
  server.register_service("sink", [&](ByteBuffer& args) {
    c.stop();  // the request has arrived: everything from here is the service's
    received = args.unpack_span().size();
    return ByteBuffer{};
  });

  ByteBuffer args;
  args.pack_bytes(std::vector<std::byte>(kPayloadBytes, std::byte{0x5A}));
  c.start();
  const RpcResult r = client.call(1, "sink", std::move(args));
  ASSERT_TRUE(r.ok());
  std::printf("call to handler: %zu bytes in %zu allocations for a %zu-byte payload (%.3fx)\n",
              c.bytes, c.allocations, kPayloadBytes,
              static_cast<double>(c.bytes) / static_cast<double>(kPayloadBytes));
  EXPECT_EQ(received, kPayloadBytes);
  EXPECT_LT(c.bytes * 10, kPayloadBytes);
}

// A 24-byte tx.prepare claiming 0xFFFFFFFF permanent colours: a colour takes
// at least four bytes on the wire, so the count is refused against the four
// bytes that follow it, before a vector of 16 GiB is reserved for it.
TEST(BoundedCounts, ForgedPrepareCountFailsWithoutAllocating) {
  NetworkConfig config;
  config.min_delay = std::chrono::microseconds(10);
  config.max_delay = std::chrono::microseconds(100);
  Network net(config);
  DistNode node(net, 1);
  RpcEndpoint client(net, 2);

  ByteBuffer args;
  args.pack_uid(Uid());
  args.pack_u32(2);            // coordinator
  args.pack_u32(0xFFFFFFFFu);  // permanent colours, none of which follow
  ASSERT_EQ(args.size(), 24u);
  Counter c;
  c.start();
  const RpcResult r = client.call(1, "tx.prepare", std::move(args));
  c.stop();
  std::printf("forged tx.prepare: %zu bytes in %zu allocations\n", c.bytes, c.allocations);
  EXPECT_EQ(r.status, RpcStatus::AppError);
  EXPECT_LT(c.bytes, std::size_t{1} << 20);
}

}  // namespace
}  // namespace mca
