// UdpTransport: the real-socket Transport backend.
//
// One UdpTransport serves one process. Its config names every node of the
// deployment (id → host:port); attach(id) binds the UDP socket for that id
// and registers it with the process's single epoll Reactor, so receive runs
// on ONE thread ("mca-net-reactor") no matter how many ids are attached —
// a node daemon attaches one, a test driver may attach a dozen loopback
// nodes, the thread count stays the same. The reactor drains readable
// sockets in recvmmsg batches; each datagram is decoded, digest-verified
// and handed to the attached handler on the reactor thread — the same
// contract (and the same corruption-becomes-loss behaviour) as the
// simulated Network, so RpcEndpoint's retransmission, backoff and per-peer
// suspicion run unchanged on top. The reactor is the only receive path.
//
// UDP is the right fit for the paper's model: the communication layer is
// *expected* to lose, duplicate and reorder; reliability lives in the RPC
// retransmission protocol above, and a kernel socket buffer overflowing
// under load is just one more loss the protocol already masks.
//
// send() returns a SendStatus instead of swallowing failures: Down /
// Partitioned / Lost / NoRoute are transient (retransmission's business),
// Oversize is permanent and lets the RPC layer fail the call fast instead
// of timing it out. Messages too big for one datagram (net::kMaxFrameBytes)
// are sliced into MUF2 fragment frames (net/frame.h) up to
// max_message_bytes; the receive side reassembles them (net/reassembly.h)
// with bounded memory and a TimerService-driven expiry sweep. Outbound
// frames are queued and drained by whichever sender thread holds the flush
// token, batching concurrent sends into sendmmsg() calls — the group-commit
// idiom from the WAL, applied to the socket.
//
// One buffer per large message, each way. send() encodes a message that
// needs fragments once, into a block from the transport's BufferPool, and
// queues each fragment as three iovecs — its header, its slice of that
// block, its trailer — so the block is the only copy of the payload the
// sender makes. On receipt each fragment is checked where recvmmsg put it
// and its chunk copied once into the message's block (net::Reassembler);
// the delivered Datagram's payload is a window on that block, which goes
// back to the pool when the last window on it is gone. The pool keeps a few
// blocks of up to 512 KiB (BufferPool::kMaxBlocks, kMaxBlockBytes), so a
// steady stream of ~100 KB messages stops handing blocks back to the
// allocator on every call.
//
// Fault injection for the chaos harness and benches:
//   set_peer_drop(peer)     socket-layer partition — frames to and from
//                           `peer` are dropped at this process's socket
//                           boundary (outbound at send, inbound before
//                           dispatch), invisible to the remote end exactly
//                           like a dead link.
//   set_loss_probability    seeded random drop at send, rolled per
//                           datagram, so one lost fragment costs the whole
//                           message until retransmission re-sends it.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "net/frame.h"
#include "net/reactor.h"
#include "net/reassembly.h"
#include "net/transport.h"

struct sockaddr_in;  // <netinet/in.h>; kept out of this header

namespace mca {

class TimerService;

struct UdpAddress {
  std::string host = "127.0.0.1";  // numeric IPv4
  std::uint16_t port = 0;
};

struct UdpTransportConfig {
  // Every node of the deployment, local and remote. attach() binds the
  // address of its id; send() resolves the target's.
  std::unordered_map<NodeId, UdpAddress> peers;
  // Ceiling on one *message*. Messages above net::kMaxFrameBytes and at
  // most this are fragmented into MUF2 frames; larger ones are refused with
  // SendStatus::Oversize. Setting this <= net::kMaxFrameBytes disables
  // fragmentation entirely (every oversize message is refused).
  std::size_t max_message_bytes = 8 * 1024 * 1024;
  net::ReassemblyConfig reassembly;
  // Optional: drives the periodic reassembly expiry sweep. Without it,
  // incomplete messages still age out, but only lazily (evicted by the
  // memory bound when fresh fragments arrive).
  TimerService* timers = nullptr;
  std::chrono::milliseconds sweep_interval{500};
  // Injected send-side loss (bench/chaos); decided by a seeded RNG.
  double loss_probability = 0.0;
  std::uint64_t seed = 42;
};

class UdpTransport final : public Transport {
 public:
  explicit UdpTransport(UdpTransportConfig config);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  // Binds the socket configured for `id` and registers it with the reactor
  // for receive. Throws std::system_error
  // when the bind fails (port taken, no address) and std::invalid_argument
  // for an id absent from the peer map.
  void attach(NodeId id, Handler handler) override;
  void detach(NodeId id) override;

  SendStatus send(Datagram d) override;

  // Local ids only: a down node's frames are dropped before dispatch (and
  // its sends suppressed), fail-silence as seen from the wire. Remote ids
  // are ignored — a real process cannot silence another machine.
  void set_up(NodeId id, bool up) override;
  [[nodiscard]] bool is_up(NodeId id) const override;

  // -- socket-layer fault injection -------------------------------------------

  void set_peer_drop(NodeId peer, bool drop);
  [[nodiscard]] bool peer_dropped(NodeId peer) const;
  void set_loss_probability(double p);

  struct Stats {
    std::uint64_t sent = 0;              // datagrams that reached the kernel
    std::uint64_t delivered = 0;         // frames dispatched to a handler
    std::uint64_t lost_injected = 0;     // send-side injected loss (per datagram)
    std::uint64_t dropped_partitioned = 0;  // peer-drop filter (both directions)
    std::uint64_t dropped_down = 0;      // local node down / not attached
    std::uint64_t oversize_dropped = 0;  // rx datagram larger than net::kMaxFrameBytes
    std::uint64_t oversize_refused = 0;  // send refused: message > max_message_bytes
    std::uint64_t corrupt_dropped = 0;   // digest mismatch at receive
    std::uint64_t malformed_dropped = 0; // undecodable bytes at receive
    std::uint64_t send_errors = 0;       // sendmmsg()/resolve failures
    // Fragmentation (send side).
    std::uint64_t messages_fragmented = 0;
    std::uint64_t fragments_sent = 0;
    // Reassembly (receive side; mirrors the Reassembler's counters).
    std::uint64_t fragments_received = 0;   // decoded MUF2 frames accepted for reassembly
    std::uint64_t messages_reassembled = 0;
    std::uint64_t reassembly_duplicates = 0;
    std::uint64_t reassembly_rejected = 0;  // count mismatch / impossible shape
    std::uint64_t reassembly_expired = 0;
    std::uint64_t reassembly_evicted = 0;
    // Outbound batching.
    std::uint64_t tx_batches = 0;      // sendmmsg calls
    std::uint64_t tx_datagrams = 0;    // datagrams handed to sendmmsg
    std::uint64_t tx_batch_max = 0;    // largest single sendmmsg batch
  };
  [[nodiscard]] Stats stats() const;

  // Reactor-thread receive counters.
  [[nodiscard]] net::Reactor::Stats reactor_stats() const;

  // The port `id` is configured on (what the cluster launcher prints).
  [[nodiscard]] std::uint16_t port_of(NodeId id) const;

 private:
  struct Local {
    NodeId id = 0;
    int fd = -1;
    Handler handler;
    std::atomic<bool> up{true};
  };

  // One outbound datagram: a whole frame of its own, or a fragment — its
  // header and trailer around a slice of a frame block that `block` keeps
  // alive.
  struct TxItem {
    std::vector<std::byte> frame;
    std::shared_ptr<void> block;
    net::FragmentGather fragment;
    std::uint32_t addr_ip = 0;    // network byte order
    std::uint16_t addr_port = 0;  // network byte order
  };

  // The receive path: route MUF1/MUF2, filter, dispatch.
  void process_wire_bytes(Local& local, std::span<const std::byte> bytes);
  void deliver(Local& local, Datagram d, net::FrameDecode verdict);
  [[nodiscard]] bool resolve(NodeId id, ::sockaddr_in& out) const;
  [[nodiscard]] bool roll_loss_locked();
  void enqueue_tx(std::span<TxItem> items);
  void flush_tx();

  UdpTransportConfig config_;
  mutable std::mutex mutex_;  // locals_ map shape, drops_, rng_, stats_, reassembler_
  std::unordered_map<NodeId, std::unique_ptr<Local>> locals_;
  std::unordered_set<NodeId> drops_;
  std::uint64_t rng_state_;
  double loss_probability_;
  Stats stats_;
  BufferPool pool_;  // large frame and message blocks, send and receive
  net::Reassembler reassembler_;
  std::unique_ptr<net::Reactor> reactor_;

  std::mutex tx_mutex_;  // tx_queue_, tx_flushing_; never held across a syscall
  std::deque<TxItem> tx_queue_;
  bool tx_flushing_ = false;

  int sender_fd_ = -1;  // all sends leave here; outlives every detach()
};

}  // namespace mca
