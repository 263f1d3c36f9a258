// Cluster: launch and drive a real multi-process deployment.
//
// The launcher picks loopback UDP ports, spawns one mcad process per
// configured node (each with its own data directory under `root`), joins the
// deployment itself as the *driver* node — an ordinary RpcEndpoint on a
// UdpTransport — and exposes typed wrappers over the daemons' ctl.* control
// plane. The chaos harness is built on exactly four verbs:
//
//   kill(n)       SIGKILL the daemon — no flush, no goodbye
//   restart(n)    spawn a fresh process on the same data directory (the WAL
//                 replay / snapshot reload path)
//   drop_link     make a daemon drop one peer's frames at the socket layer
//   apply(...)    run a real multi-node transaction coordinated at a daemon
//
// plus the observation side (peek/committed/witness/indoubt/check) the
// invariant checker reads through. Everything travels over real sockets;
// nothing here shares memory with a daemon.
//
// The mcad binary is located through $MCAD_BIN, else next to the calling
// test binary's parent directory (build/mcad), else ./mcad.
#pragma once

#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dist/node.h"
#include "net/process.h"
#include "net/udp_transport.h"
#include "sim/consistency_check.h"

namespace mca::apps {
struct TransferLeg;
}

namespace mca::net {

struct ClusterNodeConfig {
  NodeId id = 0;
  std::vector<NodeId> witnesses;              // coordinator-log mirrors
  std::map<std::uint32_t, std::int64_t> ints; // objects this node hosts
  std::vector<std::uint32_t> blob_keys;       // RecoverableString blobs hosted
};

struct ClusterConfig {
  std::vector<ClusterNodeConfig> nodes;
  std::filesystem::path root;  // per-node data dirs + logs live underneath
  NodeId driver_id = 100;
  std::chrono::milliseconds daemon_invoke_timeout{4'000};
  std::chrono::milliseconds daemon_tpc_timeout{1'000};
};

// ctl.apply result as seen from the driver. rpc_ok == false means the
// coordinator never answered (killed mid-transaction, partitioned, ...);
// committed/action/error are then meaningless.
struct ApplyResult {
  bool rpc_ok = false;
  bool committed = false;
  Uid action = Uid::nil();
  std::string error;
};

// One leg of ctl.blob_set: write `value` into blob `key` hosted at `node`.
struct BlobLeg {
  NodeId node = 0;
  std::uint32_t key = 0;
  std::string value;
};

// ctl.blob_probe result: durable size + FNV-1a digest of one blob.
struct BlobProbe {
  std::uint64_t size = 0;
  std::uint64_t digest = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // -- process control --------------------------------------------------------

  // SIGKILL + reap. The port stays reserved for a later restart().
  void kill(NodeId node);
  // Spawns a fresh daemon on the node's existing data directory and waits
  // until it answers ctl.ping. Throws on startup failure.
  void restart(NodeId node);
  [[nodiscard]] bool alive(NodeId node);
  // Asks every live daemon to exit cleanly; kills whatever does not comply
  // within the grace period. The destructor calls this.
  void shutdown_all(std::chrono::milliseconds grace = std::chrono::milliseconds(3'000));

  // -- control plane ----------------------------------------------------------

  [[nodiscard]] bool ping(NodeId node, std::chrono::milliseconds timeout);
  // Blocks until the daemon answers ctl.ping; false at the deadline.
  bool wait_ready(NodeId node, std::chrono::milliseconds deadline);

  ApplyResult apply(NodeId coordinator, const std::vector<mca::apps::TransferLeg>& legs,
                    std::chrono::milliseconds timeout = std::chrono::milliseconds(20'000));
  // Fire-and-forget variant for transactions whose coordinator is about to
  // die: the future completes with Timeout when the reply never comes.
  [[nodiscard]] RpcFuture apply_async(NodeId coordinator,
                                      const std::vector<mca::apps::TransferLeg>& legs,
                                      std::chrono::milliseconds timeout);

  // Multi-node blob writes as one transaction coordinated at `coordinator`.
  // Blob-sized values drive the transport's fragmentation path end to end:
  // driver → coordinator here, coordinator → owners inside the transaction.
  ApplyResult blob_set(NodeId coordinator, const std::vector<BlobLeg>& legs,
                       std::chrono::milliseconds timeout = std::chrono::milliseconds(30'000));
  // Durable size + digest of blob `key` at `node` (nullopt: no durable
  // record, or the daemon unreachable).
  [[nodiscard]] std::optional<BlobProbe> blob_probe(NodeId node, std::uint32_t key);

  // ctl.stats — the daemon's transport + reactor counters by name.
  [[nodiscard]] std::optional<std::map<std::string, std::uint64_t>> stats(NodeId node);

  // Durable value of int `key` at `node` (nullopt: no durable record, or the
  // daemon unreachable).
  [[nodiscard]] std::optional<std::int64_t> peek(NodeId node, std::uint32_t key);
  [[nodiscard]] std::optional<bool> committed(NodeId node, const Uid& action);
  [[nodiscard]] std::optional<bool> witness_has_decision(NodeId node, const Uid& action);
  [[nodiscard]] std::optional<std::uint64_t> in_doubt(NodeId node);
  // Polls ctl.indoubt until it reaches zero; false at the deadline.
  bool wait_no_in_doubt(NodeId node, std::chrono::milliseconds deadline);
  // ctl.check — the consistency checker running inside the daemon.
  [[nodiscard]] std::optional<ConsistencyReport> check(NodeId node);

  // Socket-layer partition: `node` drops frames from/to `peer` (heal with
  // drop = false, which also resets the daemon's suspicion of the peer).
  void drop_link(NodeId node, NodeId peer, bool drop);
  // Force a recovery pass now (after healing a partition).
  void kick_recovery(NodeId node);

  // Arm a crash point inside the daemon: the process SIGKILLs itself the
  // (skip+1)-th time execution reaches `point`.
  void arm_kill(NodeId node, const std::string& point, unsigned skip = 0);
  // Arm a partition instead: at the window, `node` starts dropping frames
  // from/to `peer` — a link that dies mid-protocol.
  void arm_drop(NodeId node, const std::string& point, NodeId peer, unsigned skip = 0);

  // Driver-side endpoint (custom calls, health introspection).
  [[nodiscard]] RpcEndpoint& rpc() { return *rpc_; }
  [[nodiscard]] UdpTransport& transport() { return *transport_; }
  // Forget driver-side suspicion of `node` (after kills and restarts).
  void forget_peer(NodeId node);

  [[nodiscard]] std::filesystem::path data_dir(NodeId node) const;
  [[nodiscard]] std::uint16_t port_of(NodeId node) const;

 private:
  void spawn(NodeId node);
  [[nodiscard]] const ClusterNodeConfig& node_config(NodeId node) const;
  [[nodiscard]] RpcResult call(NodeId node, const std::string& service, ByteBuffer args,
                               std::chrono::milliseconds timeout);

  ClusterConfig config_;
  std::unordered_map<NodeId, UdpAddress> peers_;  // daemons + driver
  std::string mcad_path_;
  std::unordered_map<NodeId, ProcessHandle> processes_;
  std::unique_ptr<UdpTransport> transport_;
  std::unique_ptr<RpcEndpoint> rpc_;
};

// True when this environment can bind loopback UDP sockets (some sandboxes
// cannot); net/chaos tests skip themselves when it is false.
[[nodiscard]] bool loopback_udp_available();

// Picks a currently-free loopback UDP port by binding port 0. The usual
// tiny race applies; fine for tests.
[[nodiscard]] std::uint16_t pick_free_udp_port();

}  // namespace mca::net
