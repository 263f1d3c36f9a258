// NodeDaemon: one DistNode behind a real UDP transport, as a long-running
// OS process.
//
// mcad (the executable, mcad_main.cpp) is a thin argv wrapper around this
// class so tests can also run a daemon in-process. A daemon hosts a set of
// RecoverableInt objects with *deterministic* uids — int_uid(key) — so every
// process of a deployment (daemons and the test driver alike) can name an
// object without exchanging uids, and so a restarted daemon re-binds to the
// same durable records its predecessor wrote.
//
// Besides the ordinary data-plane services a DistNode registers (tx.*,
// obj.invoke, ...), the daemon adds a ctl.* control plane on the same RPC
// endpoint. That is what the multi-process chaos harness drives:
//
//   ctl.ping       liveness + pid
//   ctl.peek       durable value of one int, read from the store (no locks)
//   ctl.apply      run a multi-node transfer as a transaction coordinated
//                  here; replies with the outcome and the action uid
//   ctl.committed  does this node's coordinator log say `action` committed?
//   ctl.witness    does this node's witness log hold a decision for it?
//   ctl.indoubt    count of unresolved prepared markers
//   ctl.check      run the consistency checker on this node, reply the report
//   ctl.stats      transport + reactor counters, as (name, value) pairs
//   ctl.blob_set   run multi-node blob (RecoverableString) writes as one
//                  transaction coordinated here — blob-sized legs travel as
//                  fragmented obj.invoke messages
//   ctl.blob_probe size + FNV-1a digest of one durable blob (no locks)
//   ctl.drop_peer  partition/heal one link at the socket layer
//   ctl.kick       force a recovery pass now (the "partition healed" hook)
//   ctl.arm        arm a crash point: kill this process with SIGKILL inside
//                  the window, or start dropping a peer's frames there (a
//                  partition that begins mid-protocol)
//   ctl.shutdown   clean exit (the graceful counterpart of SIGKILL)
//
// ctl.arm is the heart of the harness: unlike the in-process sweep (which
// unwinds CrashPointHit to a catcher), the armed action here is raise(
// SIGKILL) — the process dies for real, mid-window, with exactly the durable
// state that window implies, and recovery must cope with what is on disk.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/timer_service.h"
#include "dist/node.h"
#include "net/udp_transport.h"
#include "objects/recoverable_int.h"
#include "objects/recoverable_string.h"
#include "sim/consistency_check.h"

namespace mca::apps {

// Deterministic uid of the daemon-hosted int `key`: the same (hi, lo) on
// every process, every boot.
[[nodiscard]] inline Uid int_uid(std::uint32_t key) {
  return Uid(0x6D6361'6F626A00ULL, key);  // "mcaobj" tag in the high half
}

// Deterministic uid of the daemon-hosted blob (RecoverableString) `key`.
[[nodiscard]] inline Uid blob_uid(std::uint32_t key) {
  return Uid(0x6D6361'626C6F00ULL, key);  // "mcablo" tag in the high half
}

struct DaemonConfig {
  NodeId id = 0;
  // Full deployment map (this node included); what UdpTransport binds/sends.
  std::unordered_map<NodeId, UdpAddress> peers;
  std::filesystem::path data_dir;  // the node's WalStore
  // Witness nodes mirroring commit decisions this node coordinates.
  std::vector<NodeId> witnesses;
  // key → initial value. Objects are created durably on first boot and
  // re-bound (initial ignored) on every later one.
  std::map<std::uint32_t, std::int64_t> ints;
  // Blob keys: RecoverableString objects under blob_uid(key), seeded empty.
  // Blob-sized values exercise the transport's fragmentation path.
  std::vector<std::uint32_t> blobs;
  std::chrono::milliseconds invoke_timeout{4'000};
  std::chrono::milliseconds tpc_call_timeout{1'000};
};

// Parses "1=127.0.0.1:9001,2=127.0.0.1:9002" / "2,3" / "10=100,11=0".
// Throw std::invalid_argument on malformed input.
[[nodiscard]] std::unordered_map<NodeId, UdpAddress> parse_peer_map(const std::string& spec);
[[nodiscard]] std::vector<NodeId> parse_node_list(const std::string& spec);
[[nodiscard]] std::map<std::uint32_t, std::int64_t> parse_int_map(const std::string& spec);

// Wire helpers for ctl.check replies (shared with the driver side).
[[nodiscard]] ByteBuffer pack_report(const ConsistencyReport& report);
[[nodiscard]] ConsistencyReport unpack_report(ByteBuffer& in);

// One transfer leg of ctl.apply.
struct TransferLeg {
  NodeId node = 0;        // where the object lives
  std::uint32_t key = 0;  // int_uid(key)
  std::int64_t delta = 0;
};

[[nodiscard]] ByteBuffer pack_transfer(const std::vector<TransferLeg>& legs);

class NodeDaemon {
 public:
  explicit NodeDaemon(DaemonConfig config);
  ~NodeDaemon();

  NodeDaemon(const NodeDaemon&) = delete;
  NodeDaemon& operator=(const NodeDaemon&) = delete;

  [[nodiscard]] DistNode& node() { return *node_; }
  [[nodiscard]] UdpTransport& transport() { return *transport_; }

  // Blocks until ctl.shutdown arrives. mcad_main's entire job.
  void run_until_shutdown();
  // Unblocks run_until_shutdown (also wired to ctl.shutdown).
  void request_shutdown();

 private:
  void seed_objects();
  void register_control_services();

  DaemonConfig config_;
  // Declared before transport_: the transport's destructor quiesces its
  // reassembly-sweep timer against this service.
  TimerService net_timers_{"mca-net-sweep"};
  std::unique_ptr<UdpTransport> transport_;
  std::unique_ptr<DistNode> node_;
  std::map<std::uint32_t, std::unique_ptr<RecoverableInt>> ints_;
  std::map<std::uint32_t, std::unique_ptr<RecoverableString>> blobs_;

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace mca::apps
