#include "net/udp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "common/timer_service.h"

namespace mca {
namespace {

constexpr std::size_t kTxBatch = 16;

// xorshift64* — deterministic injected loss under a fixed seed.
std::uint64_t next_rand(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545F4914F6CDD1DULL;
}

[[nodiscard]] int open_udp_socket(std::size_t buffer_bytes) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    throw std::system_error(errno, std::generic_category(), "socket(AF_INET, SOCK_DGRAM)");
  }
  // A fragmented message leaves flush_tx as one sendmmsg burst of
  // near-64 KB datagrams; the default ~208 KB socket buffers hold three of
  // those, and every overflow costs the WHOLE message until retransmission.
  // Ask for room for a few full-size messages; the kernel clamps to
  // rmem_max/wmem_max silently, and whatever loss remains is still just
  // loss to the protocol above.
  const int wanted = static_cast<int>(std::min<std::size_t>(buffer_bytes, 64 * 1024 * 1024));
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &wanted, sizeof wanted);
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &wanted, sizeof wanted);
  return fd;
}

}  // namespace

UdpTransport::UdpTransport(UdpTransportConfig config)
    : config_(std::move(config)),
      rng_state_(config_.seed | 1),
      loss_probability_(config_.loss_probability),
      reassembler_(config_.reassembly, pool_),
      reactor_(std::make_unique<net::Reactor>(net::kMaxFrameBytes)) {
  sender_fd_ = open_udp_socket(config_.max_message_bytes);
  if (config_.timers != nullptr) {
    config_.timers->schedule_every(
        config_.sweep_interval,
        [this] {
          const std::lock_guard lock(mutex_);
          reassembler_.sweep(net::Reassembler::Clock::now());
        },
        this);
  }
}

UdpTransport::~UdpTransport() {
  // Order matters: stop the sweep timer (its callback takes mutex_ and pokes
  // reassembler_), then the receive machinery, then the shared send socket.
  if (config_.timers != nullptr) config_.timers->cancel_owner(this);
  std::vector<NodeId> ids;
  {
    const std::lock_guard lock(mutex_);
    ids.reserve(locals_.size());
    for (const auto& [id, local] : locals_) ids.push_back(id);
  }
  for (const NodeId id : ids) detach(id);
  reactor_.reset();
  if (sender_fd_ >= 0) ::close(sender_fd_);
}

bool UdpTransport::resolve(NodeId id, sockaddr_in& out) const {
  const auto it = config_.peers.find(id);
  if (it == config_.peers.end()) return false;
  std::memset(&out, 0, sizeof out);
  out.sin_family = AF_INET;
  out.sin_port = htons(it->second.port);
  return ::inet_pton(AF_INET, it->second.host.c_str(), &out.sin_addr) == 1;
}

void UdpTransport::attach(NodeId id, Handler handler) {
  auto local = std::make_unique<Local>();
  local->id = id;
  local->handler = std::move(handler);
  Local* ref = local.get();

  {
    const std::lock_guard lock(mutex_);
    if (locals_.contains(id)) {
      throw std::invalid_argument("node " + std::to_string(id) + " already attached");
    }
    const auto it = config_.peers.find(id);
    if (it == config_.peers.end()) {
      throw std::invalid_argument("node " + std::to_string(id) + " not in the peer map");
    }

    local->fd = open_udp_socket(config_.max_message_bytes);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(it->second.port);
    if (::inet_pton(AF_INET, it->second.host.c_str(), &addr.sin_addr) != 1) {
      ::close(local->fd);
      throw std::invalid_argument("bad address for node " + std::to_string(id) + ": " +
                                  it->second.host);
    }
    if (::bind(local->fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      const int err = errno;
      ::close(local->fd);
      throw std::system_error(err, std::generic_category(),
                              "bind " + it->second.host + ":" + std::to_string(it->second.port));
    }
    // Port 0 asks the kernel for an ephemeral port; reflect the real one back
    // into the peer map so in-process peers (loopback tests) can reach us.
    if (it->second.port == 0) {
      sockaddr_in bound{};
      socklen_t len = sizeof bound;
      if (::getsockname(local->fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
        it->second.port = ntohs(bound.sin_port);
      }
    }

    locals_.emplace(id, std::move(local));
  }

  // Outside mutex_: the reactor may start dispatching to process_wire_bytes
  // (which takes mutex_) as soon as the fd is registered.
  try {
    reactor_->add(ref->fd, [this, ref](std::span<const std::span<const std::byte>> batch) {
      for (const auto& datagram : batch) process_wire_bytes(*ref, datagram);
    });
  } catch (...) {
    const std::lock_guard lock(mutex_);
    ::close(ref->fd);
    locals_.erase(id);
    throw;
  }
}

void UdpTransport::detach(NodeId id) {
  std::unique_ptr<Local> local;
  {
    const std::lock_guard lock(mutex_);
    const auto it = locals_.find(id);
    if (it == locals_.end()) return;
    local = std::move(it->second);
    locals_.erase(it);
  }
  // Quiesce barrier: returns only when no handler call for this fd is in
  // flight, so closing the fd and destroying `local` is safe.
  reactor_->remove(local->fd);
  if (local->fd >= 0) ::close(local->fd);
}

void UdpTransport::process_wire_bytes(Local& local, std::span<const std::byte> bytes) {
  if (bytes.size() > net::kMaxFrameBytes) {
    const std::lock_guard lock(mutex_);
    ++stats_.oversize_dropped;
    return;
  }

  if (net::is_fragment_frame(bytes)) {
    net::Fragment f;
    std::span<const std::byte> chunk;
    const auto verdict = net::decode_fragment(bytes, f, chunk);
    std::optional<SharedBytes> completed;
    {
      const std::lock_guard lock(mutex_);
      if (verdict == net::FrameDecode::Malformed) {
        ++stats_.malformed_dropped;
        return;
      }
      if (verdict == net::FrameDecode::ChecksumMismatch) {
        ++stats_.corrupt_dropped;  // one damaged fragment: the message expires
        return;
      }
      if (f.to != local.id) {
        ++stats_.malformed_dropped;  // misrouted fragment
        return;
      }
      if (drops_.contains(f.from)) {
        ++stats_.dropped_partitioned;  // inbound side of a socket-layer partition
        return;
      }
      if (!local.up.load()) {
        ++stats_.dropped_down;  // a down node buffers nothing
        return;
      }
      ++stats_.fragments_received;
      completed = reassembler_.add(f, chunk, net::Reassembler::Clock::now());
    }
    if (completed) {
      // The reassembled frame may legitimately exceed the datagram cap; the
      // message cap bounds it instead. Its payload stays in the block.
      Datagram d;
      const auto decoded = net::decode_frame(std::move(*completed), d, config_.max_message_bytes);
      deliver(local, std::move(d), decoded);
    }
    return;
  }

  Datagram d;
  const auto decoded = net::decode_frame(bytes, d);
  deliver(local, std::move(d), decoded);
}

void UdpTransport::deliver(Local& local, Datagram d, net::FrameDecode verdict) {
  Handler* handler = nullptr;
  {
    const std::lock_guard lock(mutex_);
    if (verdict == net::FrameDecode::Malformed) {
      ++stats_.malformed_dropped;
      return;
    }
    if (verdict == net::FrameDecode::ChecksumMismatch) {
      ++stats_.corrupt_dropped;  // damaged in flight: loss, retransmission masks it
      return;
    }
    if (d.to != local.id) {
      ++stats_.malformed_dropped;  // misrouted frame
      return;
    }
    if (drops_.contains(d.from)) {
      ++stats_.dropped_partitioned;  // inbound side of a socket-layer partition
      return;
    }
    if (!local.up.load()) {
      ++stats_.dropped_down;
      return;
    }
    ++stats_.delivered;
    handler = &local.handler;
  }
  // Dispatch outside the lock: the handler (RpcEndpoint) may send().
  (*handler)(std::move(d));
}

bool UdpTransport::roll_loss_locked() {
  if (loss_probability_ <= 0.0) return false;
  const double roll =
      static_cast<double>(next_rand(rng_state_) >> 11) * (1.0 / 9007199254740992.0);
  return roll < loss_probability_;
}

SendStatus UdpTransport::send(Datagram d) {
  // All sends go through the shared sender socket: UDP delivery is addressed
  // by the peer map, not the source port, and the shared fd outlives every
  // detach() so a timer-driven retransmit can never race a closing socket.
  sockaddr_in target{};
  {
    const std::lock_guard lock(mutex_);
    const auto from_it = locals_.find(d.from);
    if (from_it != locals_.end() && !from_it->second->up.load()) {
      ++stats_.dropped_down;  // a crashed node is fail-silent
      return SendStatus::Down;
    }
    if (drops_.contains(d.to)) {
      ++stats_.dropped_partitioned;  // outbound side of a socket-layer partition
      return SendStatus::Partitioned;
    }
    if (!resolve(d.to, target)) {
      ++stats_.send_errors;  // unknown peer: nowhere to send, surfaces as loss
      return SendStatus::NoRoute;
    }
  }

  const std::size_t frame_bytes = net::frame_size(d);
  if (frame_bytes <= net::kMaxFrameBytes) {
    {
      const std::lock_guard lock(mutex_);
      if (roll_loss_locked()) {
        ++stats_.lost_injected;
        return SendStatus::Lost;
      }
    }
    TxItem item;
    item.frame = net::encode_frame(d);
    item.addr_ip = target.sin_addr.s_addr;
    item.addr_port = target.sin_port;
    enqueue_tx({&item, 1});
    return SendStatus::Accepted;
  }

  // Too big for one datagram: fragment, unless fragmentation is off or the
  // message busts the message cap too.
  if (config_.max_message_bytes <= net::kMaxFrameBytes ||
      frame_bytes > config_.max_message_bytes) {
    const std::lock_guard lock(mutex_);
    ++stats_.oversize_refused;
    return SendStatus::Oversize;
  }

  // One encoded frame; every fragment is its header and trailer around a
  // slice of it.
  const SharedBytes frame = net::encode_frame(d, pool_);
  net::Fragment f;
  f.from = d.from;
  f.to = d.to;
  f.message = Uid();  // fresh: unique per (sender process, message)
  f.count = static_cast<std::uint32_t>(net::fragment_count(frame.bytes.size()));
  {
    const std::lock_guard lock(mutex_);
    ++stats_.messages_fragmented;
  }
  std::vector<TxItem> fragments;
  fragments.reserve(f.count);
  for (f.index = 0; f.index < f.count; ++f.index) {
    {
      const std::lock_guard lock(mutex_);
      if (roll_loss_locked()) {
        // Per-datagram loss: the message arrives incomplete and expires;
        // retransmission re-sends the whole message under a fresh uid.
        ++stats_.lost_injected;
        continue;
      }
      ++stats_.fragments_sent;
    }
    TxItem& item = fragments.emplace_back();
    item.block = frame.owner;
    item.fragment = net::gather_fragment(f, frame.bytes);
    item.addr_ip = target.sin_addr.s_addr;
    item.addr_port = target.sin_port;
  }
  enqueue_tx(fragments);
  return SendStatus::Accepted;
}

void UdpTransport::enqueue_tx(std::span<TxItem> items) {
  {
    const std::lock_guard lock(tx_mutex_);
    for (TxItem& item : items) tx_queue_.push_back(std::move(item));
    if (tx_flushing_) return;  // the current flusher will pick these up
    tx_flushing_ = true;
  }
  flush_tx();
}

void UdpTransport::flush_tx() {
  // Caller-drains group send: whoever set tx_flushing_ drains the queue in
  // sendmmsg batches, so concurrent senders pay one syscall between them.
  // tx_mutex_ is never held across the syscall.
  std::vector<TxItem> batch;
  std::array<mmsghdr, kTxBatch> msgs;
  std::array<iovec, 3 * kTxBatch> iovecs;  // a fragment gathers three pieces
  std::array<sockaddr_in, kTxBatch> addrs;

  for (;;) {
    batch.clear();
    {
      const std::lock_guard lock(tx_mutex_);
      if (tx_queue_.empty()) {
        tx_flushing_ = false;
        return;
      }
      const std::size_t n = std::min(tx_queue_.size(), kTxBatch);
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(tx_queue_.front()));
        tx_queue_.pop_front();
      }
    }

    const std::size_t n = batch.size();
    for (std::size_t i = 0; i < n; ++i) {
      TxItem& item = batch[i];
      std::memset(&addrs[i], 0, sizeof addrs[i]);
      addrs[i].sin_family = AF_INET;
      addrs[i].sin_addr.s_addr = item.addr_ip;
      addrs[i].sin_port = item.addr_port;
      iovec* iov = &iovecs[3 * i];
      std::size_t pieces = 0;
      if (item.block == nullptr) {
        iov[pieces++] = {item.frame.data(), item.frame.size()};
      } else {
        net::FragmentGather& g = item.fragment;
        iov[pieces++] = {g.header.data(), g.header.size()};
        iov[pieces++] = {const_cast<std::byte*>(g.chunk.data()), g.chunk.size()};
        iov[pieces++] = {g.trailer.data(), g.trailer.size()};
      }
      msgs[i] = mmsghdr{};
      msgs[i].msg_hdr.msg_name = &addrs[i];
      msgs[i].msg_hdr.msg_namelen = sizeof addrs[i];
      msgs[i].msg_hdr.msg_iov = iov;
      msgs[i].msg_hdr.msg_iovlen = pieces;
    }

    std::size_t off = 0;
    while (off < n) {
      const int r = ::sendmmsg(sender_fd_, msgs.data() + off,
                               static_cast<unsigned>(n - off), 0);
      if (r <= 0) break;  // kernel refused (buffer full, ...): just loss
      off += static_cast<std::size_t>(r);
    }

    const std::lock_guard lock(mutex_);
    ++stats_.tx_batches;
    stats_.tx_datagrams += n;
    stats_.tx_batch_max = std::max(stats_.tx_batch_max, static_cast<std::uint64_t>(n));
    stats_.sent += off;
    stats_.send_errors += n - off;
  }
}

void UdpTransport::set_up(NodeId id, bool up) {
  const std::lock_guard lock(mutex_);
  const auto it = locals_.find(id);
  if (it != locals_.end()) it->second->up.store(up);
}

bool UdpTransport::is_up(NodeId id) const {
  const std::lock_guard lock(mutex_);
  const auto it = locals_.find(id);
  // Remote liveness is unknowable from here; the suspicion layer above owns
  // that judgement, so unattached ids read as up.
  return it == locals_.end() || it->second->up.load();
}

void UdpTransport::set_peer_drop(NodeId peer, bool drop) {
  const std::lock_guard lock(mutex_);
  if (drop) {
    drops_.insert(peer);
  } else {
    drops_.erase(peer);
  }
}

bool UdpTransport::peer_dropped(NodeId peer) const {
  const std::lock_guard lock(mutex_);
  return drops_.contains(peer);
}

void UdpTransport::set_loss_probability(double p) {
  const std::lock_guard lock(mutex_);
  loss_probability_ = p;
}

UdpTransport::Stats UdpTransport::stats() const {
  const std::lock_guard lock(mutex_);
  Stats s = stats_;
  const auto& r = reassembler_.stats();
  s.messages_reassembled = r.completed;
  s.reassembly_duplicates = r.duplicates;
  s.reassembly_rejected = r.mismatched + r.oversize;
  s.reassembly_expired = r.expired;
  s.reassembly_evicted = r.evicted;
  return s;
}

net::Reactor::Stats UdpTransport::reactor_stats() const { return reactor_->stats(); }

std::uint16_t UdpTransport::port_of(NodeId id) const {
  const std::lock_guard lock(mutex_);
  const auto it = config_.peers.find(id);
  return it == config_.peers.end() ? 0 : it->second.port;
}

}  // namespace mca
