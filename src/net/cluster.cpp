#include "net/cluster.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "apps/mcad/daemon.h"

namespace mca::net {
namespace {

std::string join_ids(const std::vector<NodeId>& ids) {
  std::string out;
  for (const NodeId id : ids) {
    if (!out.empty()) out += ',';
    out += std::to_string(id);
  }
  return out;
}

std::string join_ints(const std::map<std::uint32_t, std::int64_t>& ints) {
  std::string out;
  for (const auto& [key, initial] : ints) {
    if (!out.empty()) out += ',';
    out += std::to_string(key) + "=" + std::to_string(initial);
  }
  return out;
}

std::string find_mcad_binary() {
  if (const char* env = std::getenv("MCAD_BIN"); env != nullptr && *env != '\0') return env;
  // Tests live in <build>/tests/, mcad in <build>/ — look next to our own
  // binary's parent.
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
  if (n > 0) {
    self[n] = '\0';
    const std::filesystem::path exe(self);
    for (const auto& candidate : {exe.parent_path().parent_path() / "mcad",
                                  exe.parent_path() / "mcad"}) {
      std::error_code ec;
      if (std::filesystem::exists(candidate, ec)) return candidate.string();
    }
  }
  return "./mcad";
}

}  // namespace

bool loopback_udp_available() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const bool ok = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
  ::close(fd);
  return ok;
}

std::uint16_t pick_free_udp_port() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      port = ntohs(bound.sin_port);
    }
  }
  ::close(fd);
  return port;
}

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  mcad_path_ = find_mcad_binary();
  std::filesystem::create_directories(config_.root);

  for (const ClusterNodeConfig& node : config_.nodes) {
    const std::uint16_t port = pick_free_udp_port();
    if (port == 0) throw std::runtime_error("no free loopback UDP port");
    peers_[node.id] = UdpAddress{"127.0.0.1", port};
  }
  const std::uint16_t driver_port = pick_free_udp_port();
  if (driver_port == 0) throw std::runtime_error("no free loopback UDP port");
  peers_[config_.driver_id] = UdpAddress{"127.0.0.1", driver_port};

  UdpTransportConfig tc;
  tc.peers = peers_;
  transport_ = std::make_unique<UdpTransport>(std::move(tc));
  rpc_ = std::make_unique<RpcEndpoint>(*transport_, config_.driver_id);

  for (const ClusterNodeConfig& node : config_.nodes) spawn(node.id);
  for (const ClusterNodeConfig& node : config_.nodes) {
    if (!wait_ready(node.id, std::chrono::milliseconds(10'000))) {
      throw std::runtime_error("node " + std::to_string(node.id) + " never became ready (log: " +
                               (config_.root / ("node" + std::to_string(node.id) + ".log")).string() +
                               ")");
    }
  }
}

Cluster::~Cluster() {
  try {
    shutdown_all();
  } catch (...) {
    // ProcessHandle destructors still kill + reap whatever is left.
  }
}

const ClusterNodeConfig& Cluster::node_config(NodeId node) const {
  for (const ClusterNodeConfig& n : config_.nodes) {
    if (n.id == node) return n;
  }
  throw std::invalid_argument("unknown cluster node " + std::to_string(node));
}

std::filesystem::path Cluster::data_dir(NodeId node) const {
  return config_.root / ("node" + std::to_string(node));
}

std::uint16_t Cluster::port_of(NodeId node) const {
  const auto it = peers_.find(node);
  return it == peers_.end() ? 0 : it->second.port;
}

void Cluster::spawn(NodeId node) {
  const ClusterNodeConfig& cfg = node_config(node);

  std::string peer_spec;
  for (const auto& [id, addr] : peers_) {
    if (!peer_spec.empty()) peer_spec += ',';
    peer_spec += std::to_string(id) + "=" + addr.host + ":" + std::to_string(addr.port);
  }

  std::vector<std::string> argv{
      mcad_path_,
      "--id", std::to_string(node),
      "--data", data_dir(node).string(),
      "--peers", peer_spec,
      "--invoke-timeout-ms", std::to_string(config_.daemon_invoke_timeout.count()),
      "--tpc-timeout-ms", std::to_string(config_.daemon_tpc_timeout.count()),
  };
  if (!cfg.witnesses.empty()) {
    argv.push_back("--witnesses");
    argv.push_back(join_ids(cfg.witnesses));
  }
  if (!cfg.ints.empty()) {
    argv.push_back("--ints");
    argv.push_back(join_ints(cfg.ints));
  }
  if (!cfg.blob_keys.empty()) {
    std::string spec;
    for (const std::uint32_t key : cfg.blob_keys) {
      if (!spec.empty()) spec += ',';
      spec += std::to_string(key);
    }
    argv.push_back("--blobs");
    argv.push_back(std::move(spec));
  }

  std::filesystem::create_directories(data_dir(node));
  const std::string log = (config_.root / ("node" + std::to_string(node) + ".log")).string();
  processes_[node] = ProcessHandle::spawn(std::move(argv), log);
}

void Cluster::kill(NodeId node) {
  const auto it = processes_.find(node);
  if (it == processes_.end()) return;
  it->second.kill_hard();
  it->second.wait();
  processes_.erase(it);
}

void Cluster::restart(NodeId node) {
  kill(node);  // no-op when already dead
  spawn(node);
  forget_peer(node);
  if (!wait_ready(node, std::chrono::milliseconds(10'000))) {
    throw std::runtime_error("node " + std::to_string(node) + " did not come back");
  }
}

bool Cluster::alive(NodeId node) {
  const auto it = processes_.find(node);
  return it != processes_.end() && it->second.alive();
}

void Cluster::shutdown_all(std::chrono::milliseconds grace) {
  for (auto& [node, handle] : processes_) {
    if (!handle.alive()) continue;
    ByteBuffer empty;
    (void)call(node, "ctl.shutdown", std::move(empty), std::chrono::milliseconds(1'000));
  }
  for (auto& [node, handle] : processes_) {
    if (!handle.wait_for(grace)) {
      handle.kill_hard();
      handle.wait();
    }
  }
  processes_.clear();
}

RpcResult Cluster::call(NodeId node, const std::string& service, ByteBuffer args,
                        std::chrono::milliseconds timeout) {
  CallOptions options;
  options.timeout = timeout;
  return rpc_->call(node, service, std::move(args), options);
}

bool Cluster::ping(NodeId node, std::chrono::milliseconds timeout) {
  rpc_->reset_peer_health(node);  // a ping is an explicit "try again now"
  ByteBuffer empty;
  return call(node, "ctl.ping", std::move(empty), timeout).ok();
}

bool Cluster::wait_ready(NodeId node, std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (ping(node, std::chrono::milliseconds(500))) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

RpcFuture Cluster::apply_async(NodeId coordinator, const std::vector<mca::apps::TransferLeg>& legs,
                               std::chrono::milliseconds timeout) {
  CallOptions options;
  options.timeout = timeout;
  return rpc_->call_async(coordinator, "ctl.apply", mca::apps::pack_transfer(legs), options);
}

ApplyResult Cluster::apply(NodeId coordinator, const std::vector<mca::apps::TransferLeg>& legs,
                           std::chrono::milliseconds timeout) {
  const RpcResult r = apply_async(coordinator, legs, timeout).get();
  ApplyResult out;
  out.rpc_ok = r.ok();
  if (r.ok()) {
    ByteBuffer in = ByteBuffer::reader(r.payload);
    out.committed = in.unpack_bool();
    out.action = in.unpack_uid();
    out.error = in.unpack_string();
  } else {
    out.error = r.error;
  }
  return out;
}

ApplyResult Cluster::blob_set(NodeId coordinator, const std::vector<BlobLeg>& legs,
                              std::chrono::milliseconds timeout) {
  ByteBuffer args;
  args.pack_u32(static_cast<std::uint32_t>(legs.size()));
  for (const BlobLeg& leg : legs) {
    args.pack_u32(leg.node);
    args.pack_u32(leg.key);
    args.pack_string(leg.value);
  }
  const RpcResult r = call(coordinator, "ctl.blob_set", std::move(args), timeout);
  ApplyResult out;
  out.rpc_ok = r.ok();
  if (r.ok()) {
    ByteBuffer in = ByteBuffer::reader(r.payload);
    out.committed = in.unpack_bool();
    out.action = in.unpack_uid();
    out.error = in.unpack_string();
  } else {
    out.error = r.error;
  }
  return out;
}

std::optional<BlobProbe> Cluster::blob_probe(NodeId node, std::uint32_t key) {
  ByteBuffer args;
  args.pack_u32(key);
  const RpcResult r =
      call(node, "ctl.blob_probe", std::move(args), std::chrono::milliseconds(5'000));
  if (!r.ok()) return std::nullopt;
  ByteBuffer in = ByteBuffer::reader(r.payload);
  const bool present = in.unpack_bool();
  BlobProbe probe;
  probe.size = in.unpack_u64();
  probe.digest = in.unpack_u64();
  if (!present) return std::nullopt;
  return probe;
}

std::optional<std::map<std::string, std::uint64_t>> Cluster::stats(NodeId node) {
  ByteBuffer empty;
  const RpcResult r = call(node, "ctl.stats", std::move(empty), std::chrono::milliseconds(2'000));
  if (!r.ok()) return std::nullopt;
  ByteBuffer in = ByteBuffer::reader(r.payload);
  std::map<std::string, std::uint64_t> out;
  const std::uint32_t n = in.unpack_u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = in.unpack_string();
    out[std::move(name)] = in.unpack_u64();
  }
  return out;
}

std::optional<std::int64_t> Cluster::peek(NodeId node, std::uint32_t key) {
  ByteBuffer args;
  args.pack_u32(key);
  const RpcResult r = call(node, "ctl.peek", std::move(args), std::chrono::milliseconds(2'000));
  if (!r.ok()) return std::nullopt;
  ByteBuffer in = ByteBuffer::reader(r.payload);
  const bool present = in.unpack_bool();
  const std::int64_t value = in.unpack_i64();
  if (!present) return std::nullopt;
  return value;
}

std::optional<bool> Cluster::committed(NodeId node, const Uid& action) {
  ByteBuffer args;
  args.pack_uid(action);
  const RpcResult r =
      call(node, "ctl.committed", std::move(args), std::chrono::milliseconds(2'000));
  if (!r.ok()) return std::nullopt;
  ByteBuffer in = ByteBuffer::reader(r.payload);
  return in.unpack_bool();
}

std::optional<bool> Cluster::witness_has_decision(NodeId node, const Uid& action) {
  ByteBuffer args;
  args.pack_uid(action);
  const RpcResult r = call(node, "ctl.witness", std::move(args), std::chrono::milliseconds(2'000));
  if (!r.ok()) return std::nullopt;
  ByteBuffer in = ByteBuffer::reader(r.payload);
  return in.unpack_bool();
}

std::optional<std::uint64_t> Cluster::in_doubt(NodeId node) {
  ByteBuffer empty;
  const RpcResult r = call(node, "ctl.indoubt", std::move(empty), std::chrono::milliseconds(2'000));
  if (!r.ok()) return std::nullopt;
  ByteBuffer in = ByteBuffer::reader(r.payload);
  return in.unpack_u64();
}

bool Cluster::wait_no_in_doubt(NodeId node, std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    const auto n = in_doubt(node);
    if (n.has_value() && *n == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  }
  return false;
}

std::optional<ConsistencyReport> Cluster::check(NodeId node) {
  ByteBuffer empty;
  const RpcResult r = call(node, "ctl.check", std::move(empty), std::chrono::milliseconds(5'000));
  if (!r.ok()) return std::nullopt;
  ByteBuffer in = ByteBuffer::reader(r.payload);
  return mca::apps::unpack_report(in);
}

void Cluster::drop_link(NodeId node, NodeId peer, bool drop) {
  ByteBuffer args;
  args.pack_u32(peer);
  args.pack_bool(drop);
  const RpcResult r =
      call(node, "ctl.drop_peer", std::move(args), std::chrono::milliseconds(2'000));
  if (!r.ok()) {
    throw std::runtime_error("ctl.drop_peer to node " + std::to_string(node) + " failed");
  }
}

void Cluster::kick_recovery(NodeId node) {
  ByteBuffer empty;
  (void)call(node, "ctl.kick", std::move(empty), std::chrono::milliseconds(2'000));
}

void Cluster::arm_kill(NodeId node, const std::string& point, unsigned skip) {
  ByteBuffer args;
  args.pack_string(point);
  args.pack_u32(skip);
  args.pack_u8(0);
  args.pack_u32(0);
  const RpcResult r = call(node, "ctl.arm", std::move(args), std::chrono::milliseconds(2'000));
  if (!r.ok()) {
    throw std::runtime_error("ctl.arm(kill) to node " + std::to_string(node) + " failed: " +
                             r.error);
  }
}

void Cluster::arm_drop(NodeId node, const std::string& point, NodeId peer, unsigned skip) {
  ByteBuffer args;
  args.pack_string(point);
  args.pack_u32(skip);
  args.pack_u8(1);
  args.pack_u32(peer);
  const RpcResult r = call(node, "ctl.arm", std::move(args), std::chrono::milliseconds(2'000));
  if (!r.ok()) {
    throw std::runtime_error("ctl.arm(drop) to node " + std::to_string(node) + " failed: " +
                             r.error);
  }
}

void Cluster::forget_peer(NodeId node) { rpc_->reset_peer_health(node); }

}  // namespace mca::net
