// Tests for the simulated network and the RPC layer: delivery, loss,
// duplication, at-most-once execution, crash behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "dist/rpc.h"
#include "net/frame.h"
#include "net/reassembly.h"
#include "sim/network.h"

namespace mca {
namespace {

NetworkConfig fast_config() {
  NetworkConfig c;
  c.min_delay = std::chrono::microseconds(10);
  c.max_delay = std::chrono::microseconds(100);
  return c;
}

TEST(Network, DeliversToAttachedHandler) {
  Network net(fast_config());
  std::atomic<int> received{0};
  net.attach(1, [&](Datagram d) {
    EXPECT_EQ(d.service, "ping");
    ++received;
  });
  net.send(Datagram{0, 1, "ping", Uid(), false, {}});
  for (int i = 0; i < 100 && received == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(received.load(), 1);
  EXPECT_EQ(net.stats().delivered, 1u);
}

TEST(Network, DropsForDownNode) {
  Network net(fast_config());
  std::atomic<int> received{0};
  net.attach(1, [&](Datagram) { ++received; });
  net.set_up(1, false);
  net.send(Datagram{0, 1, "ping", Uid(), false, {}});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(received.load(), 0);
  EXPECT_EQ(net.stats().dropped_down, 1u);
  net.set_up(1, true);
  net.send(Datagram{0, 1, "ping", Uid(), false, {}});
  for (int i = 0; i < 100 && received == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(received.load(), 1);
}

TEST(Network, LossRateApproximatelyHonoured) {
  NetworkConfig c = fast_config();
  c.loss_probability = 0.5;
  Network net(c);
  std::atomic<int> received{0};
  net.attach(1, [&](Datagram) { ++received; });
  constexpr int kSent = 400;
  for (int i = 0; i < kSent; ++i) net.send(Datagram{0, 1, "x", Uid(), false, {}});
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto stats = net.stats();
  EXPECT_EQ(stats.lost + stats.delivered, static_cast<std::uint64_t>(kSent));
  EXPECT_GT(stats.lost, kSent / 4u);
  EXPECT_LT(stats.lost, 3u * kSent / 4);
}

TEST(Network, DuplicationDeliversTwice) {
  NetworkConfig c = fast_config();
  c.duplication_probability = 1.0;
  Network net(c);
  std::atomic<int> received{0};
  net.attach(1, [&](Datagram) { ++received; });
  net.send(Datagram{0, 1, "x", Uid(), false, {}});
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(received.load(), 2);
}

TEST(Network, PartitionDropsTrafficUntilHealed) {
  Network net(fast_config());
  std::atomic<int> received{0};
  net.attach(1, [&](Datagram) { ++received; });
  net.partition(0, 1);
  EXPECT_TRUE(net.partitioned(0, 1));
  EXPECT_TRUE(net.partitioned(1, 0));  // symmetric
  net.send(Datagram{0, 1, "ping", Uid(), false, {}});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(received.load(), 0);
  EXPECT_EQ(net.stats().dropped_partitioned, 1u);
  net.heal(0, 1);
  EXPECT_FALSE(net.partitioned(0, 1));
  net.send(Datagram{0, 1, "ping", Uid(), false, {}});
  for (int i = 0; i < 100 && received == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(received.load(), 1);
}

TEST(Network, SplitCutsEveryCrossGroupLink) {
  Network net(fast_config());
  net.split({1, 2}, {3, 4});
  EXPECT_TRUE(net.partitioned(1, 3));
  EXPECT_TRUE(net.partitioned(1, 4));
  EXPECT_TRUE(net.partitioned(2, 3));
  EXPECT_TRUE(net.partitioned(2, 4));
  EXPECT_FALSE(net.partitioned(1, 2));  // intra-group links stay up
  EXPECT_FALSE(net.partitioned(3, 4));
  net.heal_all();
  EXPECT_FALSE(net.partitioned(1, 3));
  EXPECT_FALSE(net.partitioned(2, 4));
}

TEST(Network, CorruptedDatagramsAreDetectedAndDropped) {
  NetworkConfig c = fast_config();
  c.corruption_probability = 1.0;
  Network net(c);
  std::atomic<int> received{0};
  net.attach(1, [&](Datagram) { ++received; });
  ByteBuffer payload;
  payload.pack_string("precious");
  for (int i = 0; i < 10; ++i) {
    net.send(Datagram{0, 1, "x", Uid(), false, payload});
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Every datagram was corrupted in flight; the checksum catches each one at
  // delivery, so no mangled payload ever reaches the handler.
  EXPECT_EQ(received.load(), 0);
  const auto stats = net.stats();
  EXPECT_EQ(stats.corrupted, 10u);
  EXPECT_EQ(stats.corrupt_dropped, 10u);
}

TEST(Network, ChecksumCoversHeaderAndPayload) {
  Datagram d{1, 2, "svc", Uid(), false, {}};
  d.payload.pack_string("abc");
  const std::uint64_t base = datagram_checksum(d);
  Datagram flipped = d;
  flipped.is_reply = true;
  EXPECT_NE(datagram_checksum(flipped), base);
  Datagram retargeted = d;
  retargeted.to = 3;
  EXPECT_NE(datagram_checksum(retargeted), base);
  Datagram mangled = d;
  mangled.payload = ByteBuffer{};
  mangled.payload.pack_string("abd");
  EXPECT_NE(datagram_checksum(mangled), base);
}

TEST(Rpc, BasicCallRoundTrip) {
  Network net(fast_config());
  RpcEndpoint server(net, 1);
  RpcEndpoint client(net, 2);
  server.register_service("echo", [](ByteBuffer& args) {
    ByteBuffer reply;
    reply.pack_string("echo: " + args.unpack_string());
    return reply;
  });
  ByteBuffer args;
  args.pack_string("hello");
  RpcResult r = client.call(1, "echo", std::move(args));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.payload.unpack_string(), "echo: hello");
}

TEST(Rpc, UnknownServiceIsAppError) {
  Network net(fast_config());
  RpcEndpoint server(net, 1);
  RpcEndpoint client(net, 2);
  RpcResult r = client.call(1, "nope", {});
  EXPECT_EQ(r.status, RpcStatus::AppError);
  EXPECT_NE(r.error.find("no such service"), std::string::npos);
}

TEST(Rpc, MalformedReplyCompletesAsAppError) {
  // A reply whose frame checks out but whose payload does not parse used to
  // throw BufferUnderflow out of the delivery thread, which ended the
  // process. Node 1 is a raw handler that answers every request under its
  // id: first with an empty payload, then with a status byte no endpoint
  // sends.
  Network net(fast_config());
  std::atomic<int> answered{0};
  net.attach(1, [&](Datagram request) {
    Datagram reply{1, request.from, request.service, request.request_id, /*is_reply=*/true, {}};
    if (answered++ > 0) reply.payload.pack_u8(9);
    net.send(std::move(reply));
  });
  RpcEndpoint client(net, 2);
  for (int i = 0; i < 2; ++i) {
    const RpcResult r = client.call(1, "anything", {}, CallOptions{std::chrono::seconds(5)});
    EXPECT_EQ(r.status, RpcStatus::AppError) << "reply " << i;
    EXPECT_EQ(r.error, "malformed reply") << "reply " << i;
  }
  EXPECT_EQ(answered.load(), 2);
}

TEST(Rpc, ServiceExceptionPropagatesAsAppError) {
  Network net(fast_config());
  RpcEndpoint server(net, 1);
  RpcEndpoint client(net, 2);
  server.register_service("boom", [](ByteBuffer&) -> ByteBuffer {
    throw std::runtime_error("kaboom");
  });
  RpcResult r = client.call(1, "boom", {});
  EXPECT_EQ(r.status, RpcStatus::AppError);
  EXPECT_EQ(r.error, "kaboom");
}

TEST(Rpc, CallToDeadNodeTimesOut) {
  Network net(fast_config());
  RpcEndpoint client(net, 2);
  RpcResult r = client.call(99, "echo", {}, CallOptions{std::chrono::milliseconds(200),
                                                        std::chrono::milliseconds(50)});
  EXPECT_EQ(r.status, RpcStatus::Timeout);
}

TEST(Rpc, SurvivesHeavyMessageLoss) {
  NetworkConfig c = fast_config();
  c.loss_probability = 0.4;
  Network net(c);
  RpcEndpoint server(net, 1);
  RpcEndpoint client(net, 2);
  server.register_service("inc", [](ByteBuffer& args) {
    ByteBuffer reply;
    reply.pack_i64(args.unpack_i64() + 1);
    return reply;
  });
  for (int i = 0; i < 20; ++i) {
    ByteBuffer args;
    args.pack_i64(i);
    RpcResult r = client.call(1, "inc", std::move(args),
                              CallOptions{std::chrono::milliseconds(5'000),
                                          std::chrono::milliseconds(20),
                                          std::chrono::milliseconds(60)});
    ASSERT_TRUE(r.ok()) << "call " << i;
    EXPECT_EQ(r.payload.unpack_i64(), i + 1);
  }
}

TEST(Rpc, CallsSurviveCorruptionStorm) {
  NetworkConfig c = fast_config();
  c.corruption_probability = 0.3;
  Network net(c);
  RpcEndpoint server(net, 1);
  RpcEndpoint client(net, 2);
  server.register_service("inc", [](ByteBuffer& args) {
    ByteBuffer reply;
    reply.pack_i64(args.unpack_i64() + 1);
    return reply;
  });
  for (int i = 0; i < 20; ++i) {
    ByteBuffer args;
    args.pack_i64(i);
    RpcResult r = client.call(1, "inc", std::move(args),
                              CallOptions{std::chrono::milliseconds(5'000),
                                          std::chrono::milliseconds(20),
                                          std::chrono::milliseconds(60)});
    ASSERT_TRUE(r.ok()) << "call " << i;
    // Corrupted copies are dropped by the checksum; the copy that arrives is
    // intact, so the payload is never garbage.
    EXPECT_EQ(r.payload.unpack_i64(), i + 1);
  }
  const auto stats = net.stats();
  EXPECT_GT(stats.corrupted, 0u);
  EXPECT_GT(stats.corrupt_dropped, 0u);
  // A corrupted copy either was dropped by the checksum or is still in
  // flight; none was delivered (the per-call payload checks above prove it).
  EXPECT_LE(stats.corrupt_dropped, stats.corrupted);
}

TEST(Rpc, RetryBudgetBoundsTransmissions) {
  Network net(fast_config());
  RpcEndpoint client(net, 2);
  const auto before = net.stats().sent;
  RpcResult r = client.call(99, "void", {},
                            CallOptions{std::chrono::milliseconds(400),
                                        std::chrono::milliseconds(10),
                                        std::chrono::milliseconds(40),
                                        /*retry_budget=*/5});
  EXPECT_EQ(r.status, RpcStatus::Timeout);
  EXPECT_EQ(net.stats().sent - before, 5u);
}

TEST(Rpc, BackoffSendsFewerDatagramsThanFixedInterval) {
  Network net(fast_config());
  RpcEndpoint client(net, 2);
  const CallOptions fixed{std::chrono::milliseconds(1'000), std::chrono::milliseconds(20),
                          std::chrono::milliseconds(20)};  // initial == max: fixed interval
  const CallOptions backoff{std::chrono::milliseconds(1'000), std::chrono::milliseconds(20),
                            std::chrono::milliseconds(400)};

  auto sent_for = [&](const CallOptions& options) {
    client.reset_peer_health(99);  // each call starts from a clean verdict
    const auto before = net.stats().sent;
    EXPECT_EQ(client.call(99, "void", {}, options).status, RpcStatus::Timeout);
    return net.stats().sent - before;
  };
  const auto fixed_sent = sent_for(fixed);
  const auto backoff_sent = sent_for(backoff);
  // ~50 transmissions at a fixed 20 ms cadence vs a handful once the delay
  // has grown towards the 400 ms cap.
  EXPECT_GT(fixed_sent, 30u);
  EXPECT_LT(backoff_sent, fixed_sent / 2);
}

TEST(Rpc, SuspectedPeerFailsFastWithoutDatagrams) {
  Network net(fast_config());
  RpcEndpoint client(net, 2);
  const CallOptions quick{std::chrono::milliseconds(150), std::chrono::milliseconds(30)};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.call(99, "void", {}, quick).status, RpcStatus::Timeout);
  }
  EXPECT_TRUE(client.peer_suspected(99));
  EXPECT_EQ(client.peer_consecutive_timeouts(99), 3);

  // The verdict arrives in a tiny fraction of the (default 2 s) timeout and
  // costs zero datagrams.
  const auto before = net.stats().sent;
  const auto start = std::chrono::steady_clock::now();
  RpcResult r = client.call(99, "void", {});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(r.status, RpcStatus::Unreachable);
  EXPECT_LT(elapsed, CallOptions{}.timeout / 10);
  EXPECT_EQ(net.stats().sent - before, 0u);
}

TEST(Rpc, ProbeSuccessClearsSuspicion) {
  Network net(fast_config());
  RpcEndpoint server(net, 1);
  RpcEndpoint client(net, 2);
  server.register_service("ping", [](ByteBuffer&) { return ByteBuffer{}; });
  client.set_health_options(HealthOptions{3, std::chrono::milliseconds(20),
                                          std::chrono::milliseconds(80)});
  server.crash();
  const CallOptions quick{std::chrono::milliseconds(120), std::chrono::milliseconds(30)};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.call(1, "ping", {}, quick).status, RpcStatus::Timeout);
  }
  EXPECT_TRUE(client.peer_suspected(1));

  server.restart();
  // Wait out the probe interval; the next call is the probe, it succeeds,
  // and the suspicion is gone for good.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(client.call(1, "ping", {}, quick).ok());
  EXPECT_FALSE(client.peer_suspected(1));
  EXPECT_EQ(client.peer_consecutive_timeouts(1), 0);
  EXPECT_TRUE(client.call(1, "ping", {}).ok());
}

TEST(Rpc, AtMostOnceUnderDuplication) {
  // Every message is duplicated, and retransmission adds more copies; the
  // side effect must still happen exactly once per call.
  NetworkConfig c = fast_config();
  c.duplication_probability = 1.0;
  Network net(c);
  RpcEndpoint server(net, 1);
  RpcEndpoint client(net, 2);
  std::atomic<int> executions{0};
  server.register_service("effect", [&](ByteBuffer&) {
    ++executions;
    return ByteBuffer{};
  });
  for (int i = 0; i < 10; ++i) {
    RpcResult r = client.call(1, "effect", {});
    ASSERT_TRUE(r.ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // drain dupes
  EXPECT_EQ(executions.load(), 10);
}

TEST(Rpc, CrashedServerStopsAnswering) {
  Network net(fast_config());
  RpcEndpoint server(net, 1);
  RpcEndpoint client(net, 2);
  server.register_service("ping", [](ByteBuffer&) { return ByteBuffer{}; });
  ASSERT_TRUE(client.call(1, "ping", {}).ok());
  server.crash();
  EXPECT_EQ(client
                .call(1, "ping", {},
                      CallOptions{std::chrono::milliseconds(200), std::chrono::milliseconds(50)})
                .status,
            RpcStatus::Timeout);
  server.restart();
  EXPECT_TRUE(client.call(1, "ping", {}).ok());
}

TEST(Rpc, ConcurrentCallsFromManyThreads) {
  Network net(fast_config());
  RpcEndpoint server(net, 1);
  RpcEndpoint client(net, 2);
  server.register_service("double", [](ByteBuffer& args) {
    ByteBuffer reply;
    reply.pack_i64(args.unpack_i64() * 2);
    return reply;
  });
  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&client, &failures, t] {
        for (int i = 0; i < 10; ++i) {
          ByteBuffer args;
          args.pack_i64(t * 100 + i);
          RpcResult r = client.call(1, "double", std::move(args));
          if (!r.ok() || r.payload.unpack_i64() != 2 * (t * 100 + i)) ++failures;
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST(Rpc, StoppedWorkerPoolDoesNotLeakInProgressEntries) {
  // Regression: the submit-failure branch in on_datagram used the datagram
  // after it was moved into the pool lambda, so the in_progress_ entry was
  // erased under the wrong request id and leaked forever.
  Network net(fast_config());
  RpcEndpoint server(net, 1);
  RpcEndpoint client(net, 2);
  server.register_service("ping", [](ByteBuffer&) { return ByteBuffer{}; });
  ASSERT_TRUE(client.call(1, "ping", {}).ok());
  server.stop_workers();
  EXPECT_EQ(client
                .call(1, "ping", {},
                      CallOptions{std::chrono::milliseconds(300), std::chrono::milliseconds(50)})
                .status,
            RpcStatus::Timeout);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // drain retransmits
  EXPECT_EQ(server.in_progress_count(), 0u);
}

TEST(Rpc, ReplyCacheEvictsLruAndKeepsRecentAtMostOnce) {
  Network net(fast_config());
  RpcEndpoint server(net, 1, /*reply_cache_capacity=*/2);
  std::atomic<int> executions{0};
  server.register_service("effect", [&](ByteBuffer&) {
    ++executions;
    return ByteBuffer{};
  });
  // Raw client handler so we control request ids and can replay duplicates.
  std::atomic<int> replies{0};
  net.attach(2, [&](Datagram d) {
    if (d.is_reply) ++replies;
  });
  const auto send = [&](const Uid& id) { net.send(Datagram{2, 1, "effect", id, false, {}}); };
  const auto await_replies = [&](int n) {
    for (int i = 0; i < 400 && replies.load() < n; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(replies.load(), n);
  };

  const Uid r1;
  const Uid r2;
  const Uid r3;
  send(r1);
  await_replies(1);
  send(r2);
  await_replies(2);
  send(r3);  // capacity 2: r1's cached reply is evicted here
  await_replies(3);
  EXPECT_EQ(executions.load(), 3);
  EXPECT_LE(server.reply_cache_size(), 2u);

  // A recent duplicate is answered from the cache without re-executing.
  send(r3);
  await_replies(4);
  EXPECT_EQ(executions.load(), 3);

  // A duplicate of the evicted request re-executes (the documented trade of
  // a bounded cache); the cache stays within its capacity throughout.
  send(r1);
  await_replies(5);
  EXPECT_EQ(executions.load(), 4);
  EXPECT_LE(server.reply_cache_size(), 2u);
}

TEST(Rpc, ReplyCacheUnboundedGrowthIsGone) {
  // A long-lived server must not retain one cached reply per request ever
  // served: drive more distinct requests than the capacity and check the
  // cache plateaus at the bound.
  Network net(fast_config());
  RpcEndpoint server(net, 1, /*reply_cache_capacity=*/8);
  RpcEndpoint client(net, 2);
  server.register_service("ping", [](ByteBuffer&) { return ByteBuffer{}; });
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(client.call(1, "ping", {}).ok());
  }
  EXPECT_LE(server.reply_cache_size(), 8u);
}

// -- wire framing (net/frame.h) ----------------------------------------------

Datagram golden_datagram() {
  Datagram d;
  d.from = 7;
  d.to = 9;
  d.service = "tx.prepare";
  d.request_id = Uid(0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL);
  d.is_reply = false;
  d.payload.pack_u32(0xDEADBEEF);
  d.payload.pack_string("golden");
  return d;
}

TEST(Frame, GoldenBytesPinTheWireEncoding) {
  // The exact bytes of one frame, pinned: every integer little-endian,
  // strings and payload u32-length-prefixed, the CRC-32C checksum last
  // (zero-extended to u64). A failure here means the wire format changed —
  // which silently breaks mixed-endian deployments, so it must be a
  // deliberate decision, never an accident: a layout change bumps
  // kFrameMagic; a digest change keeps the layout and the magic, and an
  // older peer's frames read as corrupt. The digests below come from a
  // bitwise CRC-32C reference, not from this code.
  const std::vector<std::byte> bytes = net::encode_frame(golden_datagram());
  const unsigned char expected[] = {
      0x4D, 0x55, 0x46, 0x31, 0x07, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x0A, 0x00, 0x00, 0x00, 0x74, 0x78, 0x2E, 0x70,
      0x72, 0x65, 0x70, 0x61, 0x72, 0x65, 0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45,
      0x23, 0x01, 0x10, 0x32, 0x54, 0x76, 0x98, 0xBA, 0xDC, 0xFE, 0x0E, 0x00,
      0x00, 0x00, 0xEF, 0xBE, 0xAD, 0xDE, 0x06, 0x00, 0x00, 0x00, 0x67, 0x6F,
      0x6C, 0x64, 0x65, 0x6E, 0xDD, 0xD5, 0x38, 0xCD, 0x00, 0x00, 0x00, 0x00,
  };
  ASSERT_EQ(bytes.size(), sizeof expected);
  for (std::size_t i = 0; i < sizeof expected; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(bytes[i]), expected[i]) << "at byte " << i;
  }
}

TEST(Frame, GoldenChecksumPinsTheDigest) {
  // datagram_checksum mixes every field as little-endian bytes, so this
  // value is what every host must compute, whatever its native order.
  EXPECT_EQ(datagram_checksum(golden_datagram()), 0x00000000CD38D5DDULL);
}

TEST(Frame, RoundTripsThroughEncodeDecode) {
  const Datagram d = golden_datagram();
  const std::vector<std::byte> bytes = net::encode_frame(d);
  Datagram out;
  ASSERT_EQ(net::decode_frame(bytes, out), net::FrameDecode::Ok);
  EXPECT_EQ(out.from, d.from);
  EXPECT_EQ(out.to, d.to);
  EXPECT_EQ(out.service, d.service);
  EXPECT_EQ(out.request_id, d.request_id);
  EXPECT_EQ(out.is_reply, d.is_reply);
  ASSERT_EQ(out.payload.size(), d.payload.size());
  EXPECT_EQ(out.checksum, datagram_checksum(d));
}

TEST(Frame, DetectsCorruptionAndMalformation) {
  std::vector<std::byte> bytes = net::encode_frame(golden_datagram());
  Datagram out;

  // Flip one payload byte: shape intact, digest wrong.
  std::vector<std::byte> corrupt = bytes;
  corrupt[bytes.size() - 12] ^= std::byte{0x40};
  EXPECT_EQ(net::decode_frame(corrupt, out), net::FrameDecode::ChecksumMismatch);

  // Wrong magic, truncation, trailing junk, empty: all malformed.
  std::vector<std::byte> wrong_magic = bytes;
  wrong_magic[0] = std::byte{0x00};
  EXPECT_EQ(net::decode_frame(wrong_magic, out), net::FrameDecode::Malformed);
  EXPECT_EQ(net::decode_frame(std::span(bytes.data(), bytes.size() - 3), out),
            net::FrameDecode::Malformed);
  std::vector<std::byte> trailing = bytes;
  trailing.push_back(std::byte{0xAA});
  EXPECT_EQ(net::decode_frame(trailing, out), net::FrameDecode::Malformed);
  EXPECT_EQ(net::decode_frame(std::span<const std::byte>{}, out), net::FrameDecode::Malformed);

  // A length prefix pointing past the buffer must not allocate or crash.
  std::vector<std::byte> lied = bytes;
  lied[16] = std::byte{0xFF};  // service length -> huge
  lied[17] = std::byte{0xFF};
  EXPECT_EQ(net::decode_frame(lied, out), net::FrameDecode::Malformed);
}

// -- fragmentation (MUF2) -----------------------------------------------------

net::Fragment golden_fragment() {
  net::Fragment f;
  f.from = 7;
  f.to = 9;
  f.message = Uid(0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL);
  f.index = 1;
  f.count = 3;
  return f;
}

std::vector<std::byte> bytes_of(std::string_view text) {
  std::vector<std::byte> out;
  out.reserve(text.size());
  for (const char c : text) out.push_back(static_cast<std::byte>(c));
  return out;
}

TEST(Fragment, GoldenBytesPinTheWireEncoding) {
  // The exact bytes of one MUF2 fragment frame, pinned exactly like the MUF1
  // golden test above: header fields little-endian, chunk u32-length-prefixed,
  // fragment_checksum last. Changing this layout must bump kFragmentMagic.
  const std::vector<std::byte> bytes = net::encode_fragment(golden_fragment(), bytes_of("frag"));
  const unsigned char expected[] = {
      0x4D, 0x55, 0x46, 0x32, 0x07, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00,
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01, 0x10, 0x32, 0x54, 0x76,
      0x98, 0xBA, 0xDC, 0xFE, 0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
      0x04, 0x00, 0x00, 0x00, 0x66, 0x72, 0x61, 0x67, 0x58, 0x5F, 0x41, 0x73,
      0x00, 0x00, 0x00, 0x00,
  };
  ASSERT_EQ(bytes.size(), sizeof expected);
  for (std::size_t i = 0; i < sizeof expected; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(bytes[i]), expected[i]) << "at byte " << i;
  }
}

TEST(Fragment, GoldenChecksumPinsTheDigest) {
  EXPECT_EQ(net::fragment_checksum(golden_fragment(), bytes_of("frag")), 0x0000000073415F58ULL);
}

TEST(Fragment, RoundTripsThroughEncodeDecode) {
  const net::Fragment f = golden_fragment();
  const std::vector<std::byte> chunk = bytes_of("some chunk payload");
  const std::vector<std::byte> bytes = net::encode_fragment(f, chunk);
  EXPECT_TRUE(net::is_fragment_frame(bytes));
  EXPECT_FALSE(net::is_fragment_frame(net::encode_frame(golden_datagram())));

  net::Fragment out;
  std::span<const std::byte> out_chunk;
  ASSERT_EQ(net::decode_fragment(bytes, out, out_chunk), net::FrameDecode::Ok);
  EXPECT_EQ(out.from, f.from);
  EXPECT_EQ(out.to, f.to);
  EXPECT_EQ(out.message, f.message);
  EXPECT_EQ(out.index, f.index);
  EXPECT_EQ(out.count, f.count);
  EXPECT_TRUE(std::ranges::equal(out_chunk, chunk));
}

TEST(Fragment, DetectsCorruptionAndMalformation) {
  std::vector<std::byte> bytes = net::encode_fragment(golden_fragment(), bytes_of("frag"));
  net::Fragment out;
  std::span<const std::byte> chunk;

  std::vector<std::byte> corrupt = bytes;
  corrupt[40] ^= std::byte{0x01};  // inside the chunk
  EXPECT_EQ(net::decode_fragment(corrupt, out, chunk), net::FrameDecode::ChecksumMismatch);

  std::vector<std::byte> wrong_magic = bytes;
  wrong_magic[3] = std::byte{0x31};  // 'MUF1'
  EXPECT_EQ(net::decode_fragment(wrong_magic, out, chunk), net::FrameDecode::Malformed);
  EXPECT_EQ(net::decode_fragment(std::span(bytes.data(), bytes.size() - 3), out, chunk),
            net::FrameDecode::Malformed);
  std::vector<std::byte> trailing = bytes;
  trailing.push_back(std::byte{0xAA});
  EXPECT_EQ(net::decode_fragment(trailing, out, chunk), net::FrameDecode::Malformed);

  // index >= count is an impossible shape even when the digest matches.
  net::Fragment bad = golden_fragment();
  bad.index = 3;
  EXPECT_EQ(net::decode_fragment(net::encode_fragment(bad, bytes_of("frag")), out, chunk),
            net::FrameDecode::Malformed);
}

// One gathered fragment as the wire carries it: header, chunk, trailer.
std::vector<std::byte> wire_bytes(const net::FragmentGather& g) {
  std::vector<std::byte> out(g.header.begin(), g.header.end());
  out.insert(out.end(), g.chunk.begin(), g.chunk.end());
  out.insert(out.end(), g.trailer.begin(), g.trailer.end());
  return out;
}

Datagram blob_datagram(std::size_t bytes) {
  Datagram d = golden_datagram();
  std::vector<std::byte> blob(bytes);
  for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<std::byte>(i * 31 + 7);
  d.payload = ByteBuffer(std::move(blob));
  return d;
}

TEST(Fragment, SlicesAndReassemblesAWholeFrame) {
  // A frame bigger than the chunk size splits into ceil(n / chunk) fragments
  // that reassemble back to the original bytes, in index order.
  const Datagram d = blob_datagram(150'000);
  const std::vector<std::byte> frame = net::encode_frame(d);

  net::Fragment f;
  f.from = d.from;
  f.to = d.to;
  f.message = Uid();
  f.count = static_cast<std::uint32_t>(net::fragment_count(frame.size()));
  ASSERT_EQ(f.count, (frame.size() + net::kFragmentChunkBytes - 1) / net::kFragmentChunkBytes);

  net::Reassembler reasm;
  const auto now = net::Reassembler::Clock::now();
  std::optional<SharedBytes> completed;
  for (f.index = 0; f.index < f.count; ++f.index) {
    const std::vector<std::byte> wire = wire_bytes(net::gather_fragment(f, frame));
    net::Fragment got;
    std::span<const std::byte> chunk;
    ASSERT_EQ(net::decode_fragment(wire, got, chunk), net::FrameDecode::Ok);
    EXPECT_FALSE(completed.has_value());
    completed = reasm.add(got, chunk, now);
  }
  ASSERT_TRUE(completed.has_value());
  EXPECT_TRUE(std::ranges::equal(completed->bytes, frame));
  EXPECT_EQ(reasm.entries(), 0u);
  EXPECT_EQ(reasm.buffered_bytes(), 0u);

  // The reassembled frame still decodes with the end-to-end digest intact,
  // and its payload is a window on the reassembly buffer, not a copy.
  Datagram out;
  ASSERT_EQ(net::decode_frame(*completed, out, /*max_bytes=*/1 << 20), net::FrameDecode::Ok);
  EXPECT_EQ(out.payload.size(), d.payload.size());
  EXPECT_GE(out.payload.bytes().data(), completed->bytes.data());
  EXPECT_LE(out.payload.bytes().data() + out.payload.size(),
            completed->bytes.data() + completed->bytes.size());
}

TEST(Fragment, GatheredPiecesAreTheReferenceEncoding) {
  // What the socket sends for each fragment — gather_fragment's header, a
  // slice of the one encoded frame, its trailer — is byte for byte what
  // encode_fragment produces, and the slices tile the frame in place.
  const Datagram d = blob_datagram(150'000);
  const std::vector<std::byte> frame = net::encode_frame(d);
  ASSERT_EQ(frame.size(), net::frame_size(d));
  net::Fragment f;
  f.from = d.from;
  f.to = d.to;
  f.message = Uid();
  f.count = static_cast<std::uint32_t>(net::fragment_count(frame.size()));
  ASSERT_EQ(f.count, 3u);
  std::size_t covered = 0;
  for (f.index = 0; f.index < f.count; ++f.index) {
    const net::FragmentGather g = net::gather_fragment(f, frame);
    EXPECT_EQ(g.chunk.data(), frame.data() + covered) << "fragment " << f.index;
    covered += g.chunk.size();
    const std::vector<std::byte> wire = wire_bytes(g);
    EXPECT_EQ(wire, net::encode_fragment(f, g.chunk)) << "fragment " << f.index;
    EXPECT_LE(wire.size(), net::kMaxFrameBytes);
  }
  EXPECT_EQ(covered, frame.size());
}

// -- reassembly edge cases (net/reassembly.h) ---------------------------------

net::Fragment frag(NodeId from, const Uid& message, std::uint32_t index, std::uint32_t count) {
  net::Fragment f;
  f.from = from;
  f.to = 1;
  f.message = message;
  f.index = index;
  f.count = count;
  return f;
}

constexpr std::size_t kChunk = net::kFragmentChunkBytes;

// Chunks land at index × kFragmentChunkBytes, so the tests cut them as every
// sender does: kChunk bytes of one letter, and a last chunk as short as the
// test likes.
std::vector<std::byte> chunk_of(char fill, std::size_t bytes = kChunk) {
  return std::vector<std::byte>(bytes, static_cast<std::byte>(fill));
}

// The message `chunks` make, in order.
std::vector<std::byte> joined(std::initializer_list<std::vector<std::byte>> chunks) {
  std::vector<std::byte> out;
  for (const auto& c : chunks) out.insert(out.end(), c.begin(), c.end());
  return out;
}

bool holds(const std::optional<SharedBytes>& message, const std::vector<std::byte>& expected) {
  return message.has_value() && std::ranges::equal(message->bytes, expected);
}

TEST(Reassembly, DuplicateAndOutOfOrderFragmentsCompleteOnce) {
  net::Reassembler reasm;
  const auto now = net::Reassembler::Clock::now();
  const Uid m;
  // Out of order: 2, 0, duplicate 0, 1 completes.
  EXPECT_FALSE(reasm.add(frag(5, m, 2, 3), chunk_of('C', 2), now).has_value());
  EXPECT_FALSE(reasm.add(frag(5, m, 0, 3), chunk_of('A'), now).has_value());
  EXPECT_FALSE(reasm.add(frag(5, m, 0, 3), chunk_of('X'), now).has_value());  // duplicate
  const auto completed = reasm.add(frag(5, m, 1, 3), chunk_of('B'), now);
  ASSERT_TRUE(completed.has_value());
  // The first copy of index 0 wins.
  EXPECT_TRUE(holds(completed, joined({chunk_of('A'), chunk_of('B'), chunk_of('C', 2)})));
  EXPECT_EQ(reasm.stats().duplicates, 1u);
  EXPECT_EQ(reasm.stats().completed, 1u);
}

TEST(Reassembly, CountMismatchAndBadShapesAreRejected) {
  net::Reassembler reasm;
  const auto now = net::Reassembler::Clock::now();
  const Uid m;
  EXPECT_FALSE(reasm.add(frag(5, m, 0, 3), chunk_of('A'), now).has_value());
  // The sender cannot change its mind about count mid-message.
  EXPECT_FALSE(reasm.add(frag(5, m, 1, 4), chunk_of('B'), now).has_value());
  EXPECT_EQ(reasm.stats().mismatched, 1u);
  // Impossible shapes never open state.
  EXPECT_FALSE(reasm.add(frag(5, Uid(), 0, 0), chunk_of('A'), now).has_value());
  EXPECT_FALSE(reasm.add(frag(5, Uid(), 7, 3), chunk_of('A'), now).has_value());
  EXPECT_EQ(reasm.entries(), 1u);
}

TEST(Reassembly, TwoSendersInterleavingTheSameMessageIdNeverMix) {
  // Entries are keyed by (from, to, message): two senders reusing one
  // message uid stay separate, chunk for chunk.
  net::Reassembler reasm;
  const auto now = net::Reassembler::Clock::now();
  const Uid m;
  EXPECT_FALSE(reasm.add(frag(5, m, 0, 2), chunk_of('A'), now).has_value());
  EXPECT_FALSE(reasm.add(frag(6, m, 0, 2), chunk_of('C'), now).has_value());
  const auto five = reasm.add(frag(5, m, 1, 2), chunk_of('B', 2), now);
  ASSERT_TRUE(five.has_value());
  EXPECT_TRUE(holds(five, joined({chunk_of('A'), chunk_of('B', 2)})));
  const auto six = reasm.add(frag(6, m, 1, 2), chunk_of('D', 2), now);
  ASSERT_TRUE(six.has_value());
  EXPECT_TRUE(holds(six, joined({chunk_of('C'), chunk_of('D', 2)})));
}

TEST(Reassembly, MissingFragmentTimesOutAndSweepEvicts) {
  net::ReassemblyConfig cfg;
  cfg.timeout = std::chrono::milliseconds(100);
  net::Reassembler reasm(cfg);
  const auto t0 = net::Reassembler::Clock::now();
  const Uid m;
  EXPECT_FALSE(reasm.add(frag(5, m, 0, 2), chunk_of('A'), t0).has_value());
  reasm.sweep(t0 + std::chrono::milliseconds(50));
  EXPECT_EQ(reasm.entries(), 1u);  // not stale yet
  reasm.sweep(t0 + std::chrono::milliseconds(150));
  EXPECT_EQ(reasm.entries(), 0u);
  EXPECT_EQ(reasm.buffered_bytes(), 0u);
  EXPECT_EQ(reasm.stats().expired, 1u);
  // A retransmitted message simply starts a fresh entry.
  EXPECT_FALSE(
      reasm.add(frag(5, m, 0, 2), chunk_of('A'), t0 + std::chrono::milliseconds(200))
          .has_value());
  EXPECT_EQ(reasm.entries(), 1u);
}

TEST(Reassembly, FragmentStormIsMemoryBounded) {
  // A storm of half-finished messages can never hold more than the
  // configured entry count / byte total: old entries are displaced.
  net::ReassemblyConfig cfg;
  cfg.max_entries = 8;
  cfg.max_total_bytes = 8 * kChunk;  // four two-fragment messages
  net::Reassembler reasm(cfg);
  const auto now = net::Reassembler::Clock::now();
  const std::vector<std::byte> chunk = chunk_of('Z');
  for (std::uint32_t i = 0; i < 100; ++i) {
    (void)reasm.add(frag(5, Uid(), 0, 2), chunk, now);
    EXPECT_LE(reasm.entries(), cfg.max_entries);
    EXPECT_LE(reasm.buffered_bytes(), cfg.max_total_bytes);
  }
  EXPECT_GT(reasm.stats().evicted, 0u);

  // A single message over the byte budget is refused outright rather than
  // evicting the whole table and still not fitting.
  net::ReassemblyConfig tiny;
  tiny.max_total_bytes = kChunk;
  net::Reassembler small(tiny);
  EXPECT_FALSE(small.add(frag(5, Uid(), 0, 2), chunk, now).has_value());
  EXPECT_EQ(small.entries(), 0u);
  EXPECT_EQ(small.stats().oversize, 1u);

  // Count cap: a message claiming more fragments than allowed never opens
  // an entry at all.
  net::ReassemblyConfig capped;
  capped.max_fragments_per_message = 4;
  net::Reassembler strict(capped);
  EXPECT_FALSE(strict.add(frag(5, Uid(), 0, 5), chunk, now).has_value());
  EXPECT_EQ(strict.entries(), 0u);
}

TEST(Reassembly, LastFragmentFirstIsPlacedInPlace) {
  // The last fragment tells the message's exact length, so arriving first it
  // opens an exact-size buffer and lands at its offset; the rest fill in
  // around it, and a duplicate of it changes nothing.
  net::Reassembler reasm;
  const auto now = net::Reassembler::Clock::now();
  const Uid m;
  EXPECT_FALSE(reasm.add(frag(5, m, 2, 3), chunk_of('C', 2), now).has_value());
  EXPECT_EQ(reasm.buffered_bytes(), 2 * kChunk + 2);
  EXPECT_FALSE(reasm.add(frag(5, m, 2, 3), chunk_of('X', 2), now).has_value());
  EXPECT_EQ(reasm.stats().duplicates, 1u);
  EXPECT_FALSE(reasm.add(frag(5, m, 0, 3), chunk_of('A'), now).has_value());
  const auto completed = reasm.add(frag(5, m, 1, 3), chunk_of('B'), now);
  EXPECT_TRUE(holds(completed, joined({chunk_of('A'), chunk_of('B'), chunk_of('C', 2)})));
  EXPECT_EQ(reasm.buffered_bytes(), 0u);
}

TEST(Reassembly, FirstFragmentSizesTheBufferFromTheFrameHeader) {
  // Fragment 0 of a real frame carries the MUF1 header, whose length
  // prefixes give the exact message size; without one the buffer is
  // count × chunk. A last chunk running past the declared size is refused.
  const std::vector<std::byte> frame = net::encode_frame(blob_datagram(100'000));
  ASSERT_EQ(net::fragment_count(frame.size()), 2u);
  net::Reassembler reasm;
  const auto now = net::Reassembler::Clock::now();
  net::Fragment f = frag(5, Uid(), 0, 2);
  EXPECT_FALSE(reasm.add(f, std::span(frame).first(kChunk), now).has_value());
  EXPECT_EQ(reasm.buffered_bytes(), frame.size());
  f.index = 1;
  EXPECT_FALSE(reasm.add(f, std::span(frame).subspan(kChunk - 8), now).has_value());  // 8 too many
  EXPECT_EQ(reasm.stats().mismatched, 1u);
  const auto completed = reasm.add(f, std::span(frame).subspan(kChunk), now);
  EXPECT_TRUE(holds(completed, frame));

  EXPECT_FALSE(reasm.add(frag(5, Uid(), 0, 2), chunk_of('\0'), now).has_value());
  EXPECT_EQ(reasm.buffered_bytes(), 2 * kChunk);  // no header: 2 × chunk
}

TEST(Reassembly, InconsistentChunkLengthsAreRejected) {
  // Chunks are placed at index × kFragmentChunkBytes: every chunk but the
  // last must be exactly that long, the last at most that, and none empty.
  // A fragment that breaks the rule opens nothing.
  net::Reassembler reasm;
  const auto now = net::Reassembler::Clock::now();
  const Uid m;
  // Short, long, long last, empty.
  EXPECT_FALSE(reasm.add(frag(5, m, 0, 3), chunk_of('A', kChunk - 1), now).has_value());
  EXPECT_FALSE(reasm.add(frag(5, m, 1, 3), chunk_of('B', kChunk + 1), now).has_value());
  EXPECT_FALSE(reasm.add(frag(5, m, 2, 3), chunk_of('C', kChunk + 1), now).has_value());
  EXPECT_FALSE(reasm.add(frag(5, m, 2, 3), chunk_of('C', 0), now).has_value());
  EXPECT_EQ(reasm.stats().mismatched, 4u);
  EXPECT_EQ(reasm.entries(), 0u);
  EXPECT_EQ(reasm.buffered_bytes(), 0u);
  // The same message, cut right, completes.
  EXPECT_FALSE(reasm.add(frag(5, m, 0, 3), chunk_of('A'), now).has_value());
  EXPECT_FALSE(reasm.add(frag(5, m, 1, 3), chunk_of('B'), now).has_value());
  EXPECT_TRUE(holds(reasm.add(frag(5, m, 2, 3), chunk_of('C', 1), now),
                    joined({chunk_of('A'), chunk_of('B'), chunk_of('C', 1)})));
}

TEST(Reassembly, MessageBuffersCountAgainstTheByteBudgetWhenOpened) {
  // A message's whole buffer is charged when its first fragment opens it, so
  // the table never holds more than max_total_bytes; a newcomer displaces the
  // stalest message, and one that could never fit displaces nothing.
  net::ReassemblyConfig cfg;
  cfg.max_total_bytes = 10 * kChunk;
  net::Reassembler reasm(cfg);
  const auto now = net::Reassembler::Clock::now();
  const std::vector<std::byte> chunk = chunk_of('Z');
  const Uid first, second, third;
  EXPECT_FALSE(reasm.add(frag(5, first, 1, 5), chunk, now).has_value());
  EXPECT_EQ(reasm.buffered_bytes(), 5 * kChunk);
  EXPECT_FALSE(reasm.add(frag(5, second, 1, 5), chunk, now).has_value());
  EXPECT_EQ(reasm.buffered_bytes(), 10 * kChunk);
  EXPECT_FALSE(reasm.add(frag(5, third, 1, 5), chunk, now).has_value());
  EXPECT_EQ(reasm.stats().evicted, 1u);
  EXPECT_EQ(reasm.entries(), 2u);
  EXPECT_EQ(reasm.buffered_bytes(), 10 * kChunk);
  EXPECT_FALSE(reasm.add(frag(5, Uid(), 1, 11), chunk, now).has_value());  // 11 chunks
  EXPECT_EQ(reasm.stats().oversize, 1u);
  EXPECT_EQ(reasm.stats().evicted, 1u);
  EXPECT_EQ(reasm.entries(), 2u);
  // The newer message survived: feeding it opens nothing and evicts nothing.
  EXPECT_FALSE(reasm.add(frag(5, second, 0, 5), chunk, now).has_value());
  EXPECT_EQ(reasm.stats().evicted, 1u);
  EXPECT_EQ(reasm.buffered_bytes(), 10 * kChunk);
}

TEST(Reassembly, AForgedClaimCannotFlushMessagesStillArriving) {
  // One fragment claims a whole message buffer. A newcomer over the byte
  // budget displaces only messages with at least as many bytes still to come,
  // or ones that have stalled: a 50-byte forged last fragment claiming seven
  // chunks is dropped rather than flushing a message that is further along,
  // and a real newcomer displaces the forged claim.
  net::ReassemblyConfig cfg;
  cfg.max_total_bytes = 10 * kChunk;
  net::Reassembler reasm(cfg);
  const auto now = net::Reassembler::Clock::now();
  const Uid real, forged, later;
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(reasm.add(frag(5, real, i, 5), chunk_of('R'), now).has_value());
  }
  EXPECT_EQ(reasm.buffered_bytes(), 5 * kChunk);  // one chunk to come
  EXPECT_FALSE(reasm.add(frag(6, forged, 7, 8), chunk_of('F', 50), now).has_value());
  EXPECT_EQ(reasm.stats().evicted, 1u);  // the newcomer, not `real`
  EXPECT_EQ(reasm.entries(), 1u);
  EXPECT_TRUE(reasm.add(frag(5, real, 4, 5), chunk_of('R', 9), now).has_value());

  // With room to spare the claim gets in; a newcomer with fewer bytes to
  // come displaces it.
  EXPECT_FALSE(reasm.add(frag(6, forged, 7, 8), chunk_of('F', 50), now).has_value());
  EXPECT_EQ(reasm.buffered_bytes(), 7 * kChunk + 50);
  EXPECT_FALSE(reasm.add(frag(5, later, 0, 5), chunk_of('L'), now).has_value());
  EXPECT_EQ(reasm.stats().evicted, 2u);
  EXPECT_EQ(reasm.entries(), 1u);
  EXPECT_EQ(reasm.buffered_bytes(), 5 * kChunk);

  // A message that has stalled — it lost a fragment — is displaced whatever
  // it has left to come.
  for (std::uint32_t i = 1; i < 4; ++i) {
    EXPECT_FALSE(reasm.add(frag(5, later, i, 5), chunk_of('L'), now).has_value());
  }
  const auto stalled = now + net::Reassembler::kStalledAfter;
  EXPECT_FALSE(reasm.add(frag(6, Uid(), 7, 8), chunk_of('F', 50),
                         stalled - std::chrono::milliseconds(1))
                   .has_value());
  EXPECT_EQ(reasm.stats().evicted, 3u);  // the newcomer again
  EXPECT_EQ(reasm.entries(), 1u);
  EXPECT_FALSE(reasm.add(frag(6, Uid(), 7, 8), chunk_of('F', 50), stalled).has_value());
  EXPECT_EQ(reasm.stats().evicted, 4u);  // `later`
  EXPECT_EQ(reasm.entries(), 1u);
  EXPECT_EQ(reasm.buffered_bytes(), 7 * kChunk + 50);
}

}  // namespace
}  // namespace mca
