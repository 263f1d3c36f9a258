// Real-socket tests: UdpTransport over loopback, the RPC layer running on
// it unchanged, and a three-process smoke test through the cluster
// launcher. These live under the `net` ctest label (cmake --preset net),
// outside the default tier-1 suite — they need working loopback sockets and
// spawn real processes. Every test skips itself cleanly where the
// environment cannot bind UDP sockets.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "apps/mcad/daemon.h"
#include "net/cluster.h"
#include "net/udp_transport.h"

namespace mca {
namespace {

using namespace std::chrono_literals;

#define REQUIRE_LOOPBACK()                                     \
  if (!net::loopback_udp_available()) {                        \
    GTEST_SKIP() << "loopback UDP unavailable in this sandbox"; \
  }

std::unordered_map<NodeId, UdpAddress> two_node_map() {
  return {{1, {"127.0.0.1", net::pick_free_udp_port()}},
          {2, {"127.0.0.1", net::pick_free_udp_port()}}};
}

bool wait_until(std::chrono::milliseconds deadline, const std::function<bool()>& done) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (done()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return done();
}

TEST(UdpTransport, DeliversBetweenProcessesWorthOfTransports) {
  REQUIRE_LOOPBACK();
  // Two transports with the same peer map — the in-process stand-in for two
  // processes, each binding its own socket.
  const auto peers = two_node_map();
  UdpTransportConfig c1{peers};
  UdpTransportConfig c2{peers};
  UdpTransport t1(std::move(c1));
  UdpTransport t2(std::move(c2));

  std::mutex mutex;
  std::vector<Datagram> received;
  t2.attach(2, [&](Datagram d) {
    const std::lock_guard lock(mutex);
    received.push_back(std::move(d));
  });
  t1.attach(1, [](Datagram) {});

  Datagram d;
  d.from = 1;
  d.to = 2;
  d.service = "hello";
  d.request_id = Uid();
  d.payload.pack_string("over real sockets");
  t1.send(d);

  ASSERT_TRUE(wait_until(2'000ms, [&] {
    const std::lock_guard lock(mutex);
    return !received.empty();
  }));
  const std::lock_guard lock(mutex);
  EXPECT_EQ(received[0].service, "hello");
  EXPECT_EQ(received[0].from, 1u);
  ByteBuffer in = ByteBuffer::reader(received[0].payload);
  EXPECT_EQ(in.unpack_string(), "over real sockets");
  EXPECT_EQ(t1.stats().sent, 1u);
  EXPECT_EQ(t2.stats().delivered, 1u);
}

Datagram big_datagram(std::size_t blob_bytes) {
  Datagram big;
  big.from = 1;
  big.to = 2;
  big.service = "blob";
  big.request_id = Uid();
  std::vector<std::byte> blob(blob_bytes, std::byte{0x5A});
  big.payload.pack_bytes(blob);
  return big;
}

TEST(UdpTransport, OversizedMessageIsRefusedAtSend) {
  REQUIRE_LOOPBACK();
  // max_message_bytes <= net::kMaxFrameBytes disables fragmentation: anything
  // that cannot travel as one datagram is refused, permanently and loudly.
  UdpTransportConfig config{two_node_map()};
  config.max_message_bytes = net::kMaxFrameBytes;
  UdpTransport t(std::move(config));
  t.attach(1, [](Datagram) {});

  EXPECT_EQ(t.send(big_datagram(net::kMaxFrameBytes)), SendStatus::Oversize);
  EXPECT_EQ(t.stats().oversize_refused, 1u);
  EXPECT_EQ(t.stats().sent, 0u);

  // Even with fragmentation on, a message above max_message_bytes is refused.
  UdpTransportConfig capped{two_node_map()};
  capped.max_message_bytes = 128 * 1024;
  UdpTransport t2(std::move(capped));
  t2.attach(1, [](Datagram) {});
  EXPECT_EQ(t2.send(big_datagram(256 * 1024)), SendStatus::Oversize);
  EXPECT_EQ(t2.stats().oversize_refused, 1u);
}

TEST(UdpTransport, LargeMessageFragmentsAndReassembles) {
  REQUIRE_LOOPBACK();
  // ~200 KB — far past one datagram — crosses as MUF2 fragments and arrives
  // as one frame, byte-identical.
  const auto peers = two_node_map();
  UdpTransport t1(UdpTransportConfig{peers});
  UdpTransport t2(UdpTransportConfig{peers});
  t1.attach(1, [](Datagram) {});
  std::mutex mutex;
  std::vector<Datagram> received;
  t2.attach(2, [&](Datagram d) {
    const std::lock_guard lock(mutex);
    received.push_back(std::move(d));
  });

  constexpr std::size_t kBlob = 200 * 1024;
  EXPECT_EQ(t1.send(big_datagram(kBlob)), SendStatus::Accepted);
  ASSERT_TRUE(wait_until(5'000ms, [&] {
    const std::lock_guard lock(mutex);
    return !received.empty();
  }));
  const std::lock_guard lock(mutex);
  ByteBuffer in = ByteBuffer::reader(received[0].payload);
  const std::vector<std::byte> blob = in.unpack_bytes();
  ASSERT_EQ(blob.size(), kBlob);
  EXPECT_EQ(blob[0], std::byte{0x5A});
  EXPECT_EQ(blob[kBlob - 1], std::byte{0x5A});

  EXPECT_EQ(t1.stats().messages_fragmented, 1u);
  EXPECT_GT(t1.stats().fragments_sent, 2u);
  EXPECT_EQ(t2.stats().messages_reassembled, 1u);
  EXPECT_EQ(t2.stats().fragments_received, t1.stats().fragments_sent);
  EXPECT_EQ(t2.stats().delivered, 1u);
  // The receive side really ran through the reactor, in batches.
  EXPECT_GT(t2.reactor_stats().rx_datagrams, 0u);
  EXPECT_GT(t2.reactor_stats().rx_batches, 0u);
}

std::size_t count_threads_named(const std::string& prefix) {
  std::size_t n = 0;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    std::getline(comm, name);
    if (name.starts_with(prefix)) ++n;
  }
  return n;
}

TEST(UdpTransport, ReactorRunsOneRxThreadRegardlessOfAttachedIds) {
  REQUIRE_LOOPBACK();
  // The point of the reactor: a driver attaching six loopback ids still
  // costs ONE receive thread.
  std::unordered_map<NodeId, UdpAddress> peers;
  for (NodeId id = 1; id <= 6; ++id) {
    peers[id] = {"127.0.0.1", net::pick_free_udp_port()};
  }
  UdpTransport t(UdpTransportConfig{peers});
  std::atomic<int> delivered{0};
  for (NodeId id = 1; id <= 6; ++id) {
    t.attach(id, [&](Datagram) { ++delivered; });
  }
  // The thread names itself right after spawning; give it a beat.
  ASSERT_TRUE(wait_until(2'000ms, [] { return count_threads_named("mca-net-reactor") == 1; }));
  EXPECT_EQ(count_threads_named("mca-udp-"), 0u);

  // All six ids receive through that one thread.
  for (NodeId to = 2; to <= 6; ++to) {
    Datagram d;
    d.from = 1;
    d.to = to;
    d.service = "fan";
    d.request_id = Uid();
    EXPECT_EQ(t.send(d), SendStatus::Accepted);
  }
  ASSERT_TRUE(wait_until(2'000ms, [&] { return delivered.load() == 5; }));

  for (NodeId id = 1; id <= 6; ++id) t.detach(id);
  EXPECT_EQ(delivered.load(), 5);
}

TEST(UdpTransport, CorruptAndMalformedBytesAreDroppedAtReceive) {
  REQUIRE_LOOPBACK();
  UdpTransportConfig config{two_node_map()};
  UdpTransport t(std::move(config));
  std::atomic<int> delivered{0};
  t.attach(2, [&](Datagram) { ++delivered; });

  // Raw socket aimed at node 2: deliver a corrupted frame and raw garbage,
  // then one good frame to prove the path still works.
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(t.port_of(2));
  ::inet_pton(AF_INET, "127.0.0.1", &to.sin_addr);

  Datagram d;
  d.from = 1;
  d.to = 2;
  d.service = "x";
  d.request_id = Uid();
  d.payload.pack_u32(1234);
  std::vector<std::byte> frame = net::encode_frame(d);

  std::vector<std::byte> corrupt = frame;
  corrupt[corrupt.size() - 10] ^= std::byte{0x01};  // damage the payload
  ASSERT_GT(::sendto(fd, corrupt.data(), corrupt.size(), 0,
                     reinterpret_cast<const sockaddr*>(&to), sizeof to), 0);
  const char garbage[] = "not a frame at all";
  ASSERT_GT(::sendto(fd, garbage, sizeof garbage, 0, reinterpret_cast<const sockaddr*>(&to),
                     sizeof to), 0);
  ASSERT_GT(::sendto(fd, frame.data(), frame.size(), 0, reinterpret_cast<const sockaddr*>(&to),
                     sizeof to), 0);
  ::close(fd);

  ASSERT_TRUE(wait_until(2'000ms, [&] { return delivered.load() == 1; }));
  EXPECT_TRUE(wait_until(2'000ms, [&] { return t.stats().corrupt_dropped == 1; }));
  EXPECT_TRUE(wait_until(2'000ms, [&] { return t.stats().malformed_dropped == 1; }));
  EXPECT_EQ(delivered.load(), 1);
}

TEST(UdpTransport, PeerDropPartitionsBothDirections) {
  REQUIRE_LOOPBACK();
  const auto peers = two_node_map();
  UdpTransport t1(UdpTransportConfig{peers});
  UdpTransport t2(UdpTransportConfig{peers});
  std::atomic<int> at2{0};
  t1.attach(1, [](Datagram) {});
  t2.attach(2, [&](Datagram) { ++at2; });

  Datagram d;
  d.from = 1;
  d.to = 2;
  d.service = "s";
  d.request_id = Uid();

  t1.set_peer_drop(2, true);  // outbound filter at the sender
  t1.send(d);
  EXPECT_EQ(t1.stats().dropped_partitioned, 1u);
  t1.set_peer_drop(2, false);

  t2.set_peer_drop(1, true);  // inbound filter at the receiver
  d.request_id = Uid();
  t1.send(d);
  EXPECT_TRUE(wait_until(2'000ms, [&] { return t2.stats().dropped_partitioned == 1; }));
  EXPECT_EQ(at2.load(), 0);

  t2.set_peer_drop(1, false);  // healed
  d.request_id = Uid();
  t1.send(d);
  EXPECT_TRUE(wait_until(2'000ms, [&] { return at2.load() == 1; }));
}

TEST(UdpRpc, CallRoundTripOverRealSockets) {
  REQUIRE_LOOPBACK();
  const auto peers = two_node_map();
  UdpTransport server_t(UdpTransportConfig{peers});
  UdpTransport client_t(UdpTransportConfig{peers});
  RpcEndpoint server(server_t, 2);
  RpcEndpoint client(client_t, 1);
  server.register_service("echo", [](ByteBuffer& in) {
    ByteBuffer out;
    out.pack_string("echo:" + in.unpack_string());
    return out;
  });

  ByteBuffer args;
  args.pack_string("udp");
  RpcResult r = client.call(2, "echo", std::move(args), {.timeout = 5'000ms});
  ASSERT_TRUE(r.ok()) << r.error;
  ByteBuffer in = ByteBuffer::reader(r.payload);
  EXPECT_EQ(in.unpack_string(), "echo:udp");
}

TEST(UdpRpc, RetransmissionMasksInjectedLoss) {
  REQUIRE_LOOPBACK();
  const auto peers = two_node_map();
  UdpTransportConfig client_cfg{peers};
  client_cfg.loss_probability = 0.4;  // both requests and (server-side) replies survive via retry
  UdpTransport server_t(UdpTransportConfig{peers});
  UdpTransport client_t(std::move(client_cfg));
  RpcEndpoint server(server_t, 2);
  RpcEndpoint client(client_t, 1);
  server.register_service("ping", [](ByteBuffer&) { return ByteBuffer{}; });

  int ok = 0;
  for (int i = 0; i < 20; ++i) {
    CallOptions options;
    options.timeout = 5'000ms;
    options.initial_backoff = 20ms;
    options.max_backoff = 80ms;
    if (client.call(2, "ping", {}, options).ok()) ++ok;
  }
  EXPECT_EQ(ok, 20);
  EXPECT_GT(client_t.stats().lost_injected, 0u);
}

TEST(UdpRpc, OversizePayloadFailsFastBeforeFragmentationAndWorksAfter) {
  REQUIRE_LOOPBACK();
  // The satellite regression pinning PR 10's behaviour change: a >60 KB
  // payload used to burn its whole timeout (the transport silently dropped
  // every attempt); with SendStatus it fails fast as AppError — and with
  // fragmentation enabled (the default) it simply round-trips.
  const auto peers = two_node_map();
  const std::string blob(100 * 1024, 'x');  // > kMaxFrameBytes, < max_message_bytes

  {
    UdpTransportConfig no_frag{peers};
    no_frag.max_message_bytes = net::kMaxFrameBytes;  // pre-fragmentation world
    UdpTransport server_t(UdpTransportConfig{peers});
    UdpTransport client_t(std::move(no_frag));
    RpcEndpoint server(server_t, 2);
    RpcEndpoint client(client_t, 1);
    server.register_service("swallow", [](ByteBuffer&) { return ByteBuffer{}; });

    ByteBuffer args;
    args.pack_string(blob);
    const auto started = std::chrono::steady_clock::now();
    RpcResult r = client.call(2, "swallow", std::move(args), {.timeout = 30'000ms});
    const auto elapsed = std::chrono::steady_clock::now() - started;
    EXPECT_EQ(r.status, RpcStatus::AppError);
    EXPECT_NE(r.error.find("message limit"), std::string::npos) << r.error;
    EXPECT_LT(elapsed, 5s);  // failed fast, not at the 30 s timeout
    EXPECT_GT(client.peer_send_failures(2), 0u);
    EXPECT_EQ(client_t.stats().oversize_refused, 1u);
  }
  {
    UdpTransport server_t(UdpTransportConfig{peers});
    UdpTransport client_t(UdpTransportConfig{peers});
    RpcEndpoint server(server_t, 2);
    RpcEndpoint client(client_t, 1);
    server.register_service("measure", [](ByteBuffer& in) {
      ByteBuffer out;
      out.pack_u64(in.unpack_string().size());
      return out;
    });

    ByteBuffer args;
    args.pack_string(blob);
    RpcResult r = client.call(2, "measure", std::move(args), {.timeout = 10'000ms});
    ASSERT_TRUE(r.ok()) << r.error;
    ByteBuffer in = ByteBuffer::reader(r.payload);
    EXPECT_EQ(in.unpack_u64(), blob.size());
    EXPECT_EQ(client.peer_send_failures(2), 0u);
    EXPECT_GT(client_t.stats().messages_fragmented, 0u);
  }
}

// -- three real processes -----------------------------------------------------

TEST(McadCluster, ThreeProcessSmokeTransferCommits) {
  REQUIRE_LOOPBACK();
  net::ClusterConfig config;
  config.root = std::filesystem::path(::testing::TempDir()) / "mca_smoke";
  std::filesystem::remove_all(config.root);
  config.nodes = {
      {.id = 1, .witnesses = {}, .ints = {{10, 1'000}}},
      {.id = 2, .witnesses = {}, .ints = {{20, 500}}},
      {.id = 3, .witnesses = {}, .ints = {{30, 0}}},
  };
  net::Cluster cluster(config);

  ASSERT_TRUE(cluster.alive(1));
  ASSERT_TRUE(cluster.alive(2));
  ASSERT_TRUE(cluster.alive(3));

  // A three-leg transfer (one local to the coordinator, two remote)
  // coordinated at node 1, over real sockets, with durable stores.
  const net::ApplyResult r = cluster.apply(
      1, {{.node = 1, .key = 10, .delta = -300},
          {.node = 2, .key = 20, .delta = 100},
          {.node = 3, .key = 30, .delta = 200}});
  ASSERT_TRUE(r.rpc_ok) << r.error;
  ASSERT_TRUE(r.committed) << r.error;

  EXPECT_EQ(cluster.peek(1, 10), 700);
  EXPECT_EQ(cluster.peek(2, 20), 600);
  EXPECT_EQ(cluster.peek(3, 30), 200);
  EXPECT_EQ(cluster.committed(1, r.action), true);

  for (const NodeId n : {1u, 2u, 3u}) {
    const auto report = cluster.check(n);
    ASSERT_TRUE(report.has_value()) << "node " << n;
    EXPECT_TRUE(report->ok()) << "node " << n << ":\n" << report->to_string();
  }
  cluster.shutdown_all();
}

}  // namespace
}  // namespace mca
