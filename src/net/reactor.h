// Reactor: one epoll loop driving every socket of a process's transport.
//
// PR 8's UdpTransport started one poll()-thread per attached node id — fine
// for a daemon that attaches exactly one id, untenable for the deployments
// the fault-detector hierarchy assumes (dozens of detector/replica endpoints
// sharing a node) and wasteful for test drivers that attach many loopback
// ids. The Reactor replaces them all with a single thread
// ("mca-net-reactor") blocked in epoll_wait over every registered fd plus an
// eventfd used to interrupt the wait for shutdown.
//
// Receive is batched: a readable socket is drained with recvmmsg() into a
// preallocated buffer array, up to kRxBatch datagrams per syscall, and the
// whole batch is handed to the fd's handler in one call — under load the
// per-datagram syscall cost amortizes away (bench_net_cluster and ctl.stats
// report the measured batch sizes). Level-triggered epoll plus a per-fd
// drain cap keeps one busy socket from starving the rest.
//
// Handlers run on the reactor thread and must not block; decode and
// dispatch are cheap, and the RPC layer above hands real work to its
// executor. remove() is a barrier:
// it returns only when no handler for that fd is in flight and none will run
// again, so the owner can safely close the fd and destroy handler state —
// the same quiesce contract as TimerService::cancel_owner. Calling remove()
// from inside a handler deadlocks; don't.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

namespace mca::net {

class Reactor {
 public:
  // One call per drained batch; each span is one datagram's bytes. The spans
  // point into reactor-owned buffers and are valid only for the duration of
  // the call.
  using BatchHandler = std::function<void(std::span<const std::span<const std::byte>>)>;

  // Datagrams are read into buffers of `max_datagram_bytes + 1`; the spare
  // byte lets the handler distinguish "exactly at the limit" from "truncated
  // oversize" without MSG_TRUNC portability games.
  explicit Reactor(std::size_t max_datagram_bytes);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Registers `fd` (made non-blocking) and starts the reactor thread if this
  // is the first registration. The fd stays owned by the caller.
  void add(int fd, BatchHandler handler);

  // Unregisters `fd` and blocks until any in-flight handler call for it has
  // returned — after this, the caller may close the fd.
  void remove(int fd);

  struct Stats {
    std::uint64_t rx_datagrams = 0;
    std::uint64_t rx_batches = 0;      // recvmmsg calls that returned data
    std::uint64_t rx_batch_max = 0;    // largest single batch
    std::uint64_t wakeups = 0;         // epoll_wait returns
  };
  [[nodiscard]] Stats stats() const;

  // How many datagrams one recvmmsg drains at most (and so the largest batch
  // a handler can see).
  static constexpr std::size_t kRxBatch = 16;

 private:
  struct Entry {
    BatchHandler handler;
    bool busy = false;  // reactor thread is inside handler right now
  };

  void loop();
  void wake();

  const std::size_t buffer_bytes_;
  int epoll_fd_ = -1;
  int event_fd_ = -1;

  mutable std::mutex mutex_;
  std::condition_variable idle_;  // signalled when an entry's busy clears
  std::unordered_map<int, std::shared_ptr<Entry>> entries_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
  Stats stats_;
};

}  // namespace mca::net
