// Transport: the seam between the RPC layer and whatever carries its
// datagrams.
//
// The paper's communication model (§2) is an unreliable datagram service —
// messages may be lost, duplicated or corrupted; retransmission and
// at-most-once filtering live above it in RpcEndpoint. Everything the RPC
// layer needs from the carrier is this interface: attach a delivery handler
// for a local node id, send a datagram towards a node id, and reflect
// crash/restart ("a down node receives nothing") at the wire.
//
// Two implementations exist:
//
//   sim::Network (sim/network.h)   the deterministic in-process backend —
//                                  seeded loss/duplication/corruption/delay
//                                  injection, per-link partitions; every
//                                  pre-existing test runs on it unchanged.
//
//   UdpTransport (net/udp_transport.h)  real UDP sockets, one process per
//                                  node; frames cross machine boundaries in
//                                  the endian-stable encoding of net/frame.h
//                                  and are verified by the same CRC-32C
//                                  checksum the simulator stamps.
//
// Handlers run on the transport's delivery thread and must not block; nodes
// hand real work to their own executors (RpcEndpoint does exactly that).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/buffer.h"
#include "common/uid.h"

namespace mca {

using NodeId = std::uint32_t;

struct Datagram {
  NodeId from = 0;
  NodeId to = 0;
  std::string service;
  Uid request_id = Uid::nil();
  bool is_reply = false;
  ByteBuffer payload;
  // Wire checksum over header + payload: datagram_checksum(), a CRC-32C
  // zero-extended to 64 bits. Stamped by the transport's send, verified at
  // delivery. 0 = not yet stamped.
  std::uint64_t checksum = 0;
};

// CRC-32C over the datagram's identifying fields and payload bytes,
// zero-extended to u64. Any burst of corrupted bits up to 32 long changes
// the digest. Multi-byte fields are mixed in little-endian byte order, so
// the digest of a given datagram is identical on every host — a frame
// checksummed on one machine verifies on another. Every node of a cluster
// must compute the same digest: a peer from a build with another wire
// checksum has all its frames dropped as corrupt.
[[nodiscard]] std::uint64_t datagram_checksum(const Datagram& d);

// What happened to a datagram at the send boundary. `Accepted` means the
// carrier took it (delivery is still best-effort — it may yet be lost in
// flight); everything else means the datagram definitely did not go out,
// and the caller can react *now* instead of waiting out an RPC deadline.
// `Oversize` is the one permanent verdict: the same datagram will never fit,
// so retrying it is pointless. The rest are transient and the retransmission
// protocol above masks them like any other loss.
enum class SendStatus : std::uint8_t {
  Accepted,     // handed to the carrier (socket, delivery queue)
  Oversize,     // larger than the transport can ever carry — permanent
  Down,         // the local sender is crashed/fail-silent
  Partitioned,  // dropped by a partition filter at the send boundary
  Lost,         // injected send-side loss (chaos/bench)
  NoRoute,      // no address known for the destination
  Error,        // the carrier refused (kernel buffer full, ...)
};

class Transport {
 public:
  using Handler = std::function<void(Datagram)>;

  virtual ~Transport() = default;

  // Registers/replaces the delivery handler for local node `id` and marks it
  // up. The handler is invoked on the transport's delivery thread.
  virtual void attach(NodeId id, Handler handler) = 0;
  virtual void detach(NodeId id) = 0;

  // The transport stamps the checksum and delivers the datagram to `d.to`'s
  // handler with whatever loss/delay the backend has. The returned status
  // says what happened at the send boundary only — Accepted is still
  // fire-and-forget, not an acknowledgement.
  virtual SendStatus send(Datagram d) = 0;

  // Crash / restart of a local node as seen from the wire: a down node
  // receives nothing (messages already in flight to it are dropped).
  virtual void set_up(NodeId id, bool up) = 0;
  [[nodiscard]] virtual bool is_up(NodeId id) const = 0;
};

}  // namespace mca
