// RPC over the simulated network (paper §2: operations on remote objects are
// invoked via an RPC mechanism).
//
// Client side: call_async() registers the call and hands retransmission to
// a timer service (the node runtime's shared one, or a private fallback for
// standalone endpoints), which resends until a reply arrives or the timeout
// expires, masking message loss; call() is call_async().get().
// Retransmission uses exponential backoff with decorrelated jitter (each
// delay is drawn uniformly from [initial_backoff, min(max_backoff,
// 3 × previous delay)]), bounded by a retry budget — a failed call costs
// O(budget) datagrams instead of timeout / interval. Because the schedule
// lives on the timer thread, a caller can hold any number of calls in
// flight at once (the commit protocol fans phase one/two out this way) and
// no thread is pinned per outstanding call. A per-peer health tracker
// counts consecutive timeouts; once a peer is suspected down, calls to it
// fail fast with RpcStatus::Unreachable instead of burning the full
// timeout, except for a periodic probe call whose interval decays (doubles,
// up to a cap) while the peer stays silent. Any successful exchange clears
// suspicion.
// Server side: requests are executed on the blocking lane of an Executor
// the endpoint owns, capped at 8 threads; a reply cache keyed by request id gives
// at-most-once execution — a retransmitted request whose execution already
// finished is answered from the cache, one still in progress is ignored
// (the client keeps retrying).
//
// The reply cache is volatile: a node crash clears it, exactly like a real
// rebooted server. It is also bounded: entries are evicted in LRU order past
// a configurable capacity, so a long-lived server does not hold every reply
// it ever sent. At-most-once therefore covers *recent* retransmits — a
// duplicate arriving after its reply was evicted re-executes, which the
// retry windows make vanishingly rare and which idempotent recovery
// tolerates (the same trade every bounded-duplicate-cache RPC system makes).
// Orphaned executions at a crashed server are abandoned; the commit
// protocol (dist/tpc) makes their effects recoverable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/executor.h"
#include "common/timer_service.h"
#include "net/transport.h"

namespace mca {

// Ok / Timeout / AppError travel on the wire (replies); Unreachable is a
// purely local verdict from the peer-health tracker — the suspected node was
// not even tried (beyond the decaying probes).
enum class RpcStatus { Ok, Timeout, AppError, Unreachable };

struct RpcResult {
  RpcStatus status = RpcStatus::Timeout;
  ByteBuffer payload;    // service result when Ok
  std::string error;     // diagnostic when AppError

  [[nodiscard]] bool ok() const { return status == RpcStatus::Ok; }
};

struct CallOptions {
  std::chrono::milliseconds timeout{2'000};
  // First retransmit delay; later delays are decorrelated-jittered
  // (uniform in [initial_backoff, min(max_backoff, 3 × previous)]).
  // initial_backoff == max_backoff degenerates to a fixed interval.
  std::chrono::milliseconds initial_backoff{100};
  std::chrono::milliseconds max_backoff{400};
  // Maximum transmissions of the request (first send included); once spent,
  // the call just waits out the remaining timeout for a late reply.
  // 0 = unlimited (bounded by the timeout alone).
  int retry_budget = 0;
};

// Peer suspicion parameters (per endpoint, applies to all peers).
struct HealthOptions {
  // Consecutive timed-out calls to one peer before it is suspected down.
  int suspect_after = 3;
  // First probe delay once suspected; doubles per failed probe up to
  // probe_max while the peer stays silent.
  std::chrono::milliseconds probe_interval{250};
  std::chrono::milliseconds probe_max{2'000};
};

// Shared state of one asynchronous call: the future/promise cell plus the
// retransmission bookkeeping the timer thread works from. Owned jointly by
// the issuing RpcFuture(s), the endpoint's call table and its pending
// retransmit slot, so a future stays usable after the endpoint is gone.
// A call the endpoint completes (reply, crash) gives up its slot at once,
// and with it the request, instead of holding both until the slot fires.
struct RpcCallState {
  std::mutex mutex;
  std::condition_variable done;
  bool completed = false;
  RpcResult result;
  // At most one; fired exactly once, outside the state lock, when the call
  // completes.
  std::function<void(const RpcResult&)> callback;

  // The pending retransmit slot's timer entry (kInvalid when none). Guarded
  // by `mutex`: slots are armed only while the call has not completed, and
  // a completer takes the id to cancel the slot.
  TimerService::TimerId timer = TimerService::kInvalid;

  // Retransmission schedule. Written by the issuing thread before the first
  // timer event is scheduled and by the timer thread afterwards (the timer
  // queue's mutex orders the hand-over); never touched concurrently. The
  // request is emptied, under `mutex`, once the call has completed and no
  // slot can fire any more.
  Datagram request;
  Uid request_id = Uid::nil();
  NodeId to = 0;
  std::chrono::steady_clock::time_point deadline{};
  std::chrono::milliseconds initial{0};
  std::chrono::milliseconds cap{0};
  std::chrono::milliseconds delay{0};
  int sends = 0;
  int retry_budget = 0;
};

// Handle on an in-flight (or finished) asynchronous call. Copyable; all
// copies share one RpcCallState. A default-constructed future is invalid.
class RpcFuture {
 public:
  RpcFuture() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] bool ready() const;

  // Blocks until the call completes (reply, timeout, cancel or endpoint
  // crash/destruction) and returns a copy of the result. May be called from
  // any thread, any number of times.
  [[nodiscard]] RpcResult get() const;

  // Waits up to `timeout`; true when the call has completed.
  bool wait_for(std::chrono::milliseconds timeout) const;

  // Completes the call immediately with Timeout/"cancelled" if it has not
  // completed yet. Retransmission stops at the next timer slot; a late
  // reply is ignored. A cancelled call never charges peer health.
  void cancel() const;

  // Registers a completion callback, invoked exactly once with the result
  // (immediately when already complete). At most one callback per call; the
  // callback runs on whichever thread completes the call (reply delivery,
  // timer, canceller) and must not block.
  void on_complete(std::function<void(const RpcResult&)> fn) const;

  // Payload bytes of the request the call still holds for retransmission:
  // 0 once it has completed and its retransmit slot is gone.
  [[nodiscard]] std::size_t request_bytes() const;

 private:
  friend class RpcEndpoint;
  explicit RpcFuture(std::shared_ptr<RpcCallState> state) : state_(std::move(state)) {}

  std::shared_ptr<RpcCallState> state_;
};

class RpcEndpoint {
 public:
  // A service computes a reply payload; throwing maps to RpcStatus::AppError
  // with the exception's what() as diagnostic.
  using Service = std::function<ByteBuffer(ByteBuffer&)>;

  static constexpr std::size_t kDefaultReplyCacheCapacity = 1024;

  // `transport` carries the datagrams — the simulated Network for
  // deterministic tests, a UdpTransport for real deployments; it must
  // outlive the endpoint. `timers` is the timer service driving
  // retransmission — normally the node runtime's shared one. Endpoints
  // constructed without one (tests, standalone tools) own a private service.
  RpcEndpoint(Transport& transport, NodeId id,
              std::size_t reply_cache_capacity = kDefaultReplyCacheCapacity,
              TimerService* timers = nullptr);
  ~RpcEndpoint();

  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }

  void register_service(const std::string& name, Service service);

  // Starts a remote call and returns immediately; the endpoint's timer
  // thread drives retransmission. The future completes with the reply, a
  // Timeout at the deadline, or Unreachable straight away when the peer is
  // suspected down and no probe is due.
  [[nodiscard]] RpcFuture call_async(NodeId to, const std::string& service, ByteBuffer args,
                                     CallOptions options = {});

  // Blocking remote call with retransmission: call_async().get().
  [[nodiscard]] RpcResult call(NodeId to, const std::string& service, ByteBuffer args,
                               CallOptions options = {});

  // Crash simulation: stop receiving, drop the (volatile) reply cache and
  // all in-flight client calls. restart() re-attaches.
  void crash();
  void restart();
  [[nodiscard]] bool up() const { return up_.load(); }

  // Stops the worker pool without detaching from the network: subsequent
  // requests hit the submit-failure path. Simulates executor exhaustion;
  // used by robustness tests.
  void stop_workers();

  // -- peer health -----------------------------------------------------------

  void set_health_options(HealthOptions options);
  [[nodiscard]] HealthOptions health_options() const;
  // True while calls to `peer` fail fast with Unreachable (between probes).
  [[nodiscard]] bool peer_suspected(NodeId peer) const;
  [[nodiscard]] int peer_consecutive_timeouts(NodeId peer) const;
  // Forgets everything known about `peer` (e.g. a test healed the link and
  // wants the next call to go out immediately).
  void reset_peer_health(NodeId peer);
  // Time until the suspected peer's next probe slot (zero when not
  // suspected or a probe is already due). Callers that want blocking
  // semantics sleep this long and retry once — the retry is the probe.
  [[nodiscard]] std::chrono::milliseconds peer_probe_wait(NodeId peer) const;

  // How many sends toward `peer` the transport refused (any SendStatus other
  // than Accepted: injected loss, partition, oversize, no route, ...).
  // Transient refusals are retried by the retransmission schedule; Oversize
  // is permanent and fails the call immediately with AppError instead of
  // letting it time out.
  [[nodiscard]] std::uint64_t peer_send_failures(NodeId peer) const;

  // -- introspection (tests and health checks) -------------------------------

  [[nodiscard]] std::size_t reply_cache_size() const;
  [[nodiscard]] std::size_t in_progress_count() const;

 private:
  // Shared between the transport's delivery handler and the destructor: the
  // handler enters through a shared lock and checks `endpoint`; teardown
  // takes the exclusive lock and nulls it. A datagram the transport delivers
  // while (or after) the endpoint is being destroyed is therefore dropped at
  // the gate instead of dispatched into a dying object — real transports
  // have receive threads whose deliveries race destruction.
  struct ReceiverGate {
    std::shared_mutex mutex;
    RpcEndpoint* endpoint = nullptr;
  };

  void on_datagram(Datagram d);
  void serve(Datagram d);

  struct PeerHealth {
    int consecutive_timeouts = 0;
    std::chrono::milliseconds current_probe_interval{0};
    std::chrono::steady_clock::time_point next_probe{};
  };

  // Returns true when the call should be skipped (peer suspected, no probe
  // due). A due probe claims the probe slot (pushes next_probe out) so
  // concurrent callers do not all probe at once.
  [[nodiscard]] bool should_fail_fast(NodeId to);
  void note_call_outcome(NodeId to, bool timed_out);

  // Timer callback: resends, completes the call at its deadline, or drops
  // the entry of a finished call. Runs on the timer service's thread.
  void process_call_timer(const std::shared_ptr<RpcCallState>& state);
  // Arms the call's next retransmit slot, or retires the call when it has
  // completed in the meantime.
  void schedule_timer(std::chrono::steady_clock::time_point due,
                      const std::shared_ptr<RpcCallState>& state);
  // Completes a call the endpoint settled itself (reply or crash) and gives
  // up its retransmit slot now instead of at the slot's fire time.
  void settle(const std::shared_ptr<RpcCallState>& state, RpcResult result);
  // Drops a completed call's table entry and request once no slot of it
  // can fire any more.
  void retire(RpcCallState& state);
  [[nodiscard]] std::chrono::milliseconds next_jittered_delay(const RpcCallState& state);

  Transport& transport_;
  NodeId id_;
  std::atomic<bool> up_{true};
  std::shared_ptr<ReceiverGate> gate_;

  // Inserts `reply` into the reply cache as most-recent, evicting LRU
  // entries past capacity. Caller holds mutex_.
  void cache_reply_locked(const Uid& request_id, Datagram reply);

  struct CachedReply {
    Datagram reply;
    std::list<Uid>::iterator lru_position;
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Service> services_;
  std::unordered_map<Uid, std::shared_ptr<RpcCallState>> calls_;
  std::unordered_map<Uid, CachedReply> reply_cache_;
  std::list<Uid> reply_lru_;  // front = most recently used
  std::size_t reply_cache_capacity_;
  std::unordered_set<Uid> in_progress_;
  std::uint64_t epoch_ = 0;  // bumped by crash(): stale executions are muted

  // Counts transport-refused sends per destination. Caller holds mutex_.
  void note_send_locked(NodeId to, SendStatus status);

  HealthOptions health_;
  std::unordered_map<NodeId, PeerHealth> peers_;
  std::unordered_map<NodeId, std::uint64_t> send_failures_;
  std::atomic<std::uint64_t> jitter_state_;  // splitmix64 stream for backoff

  // Retransmission schedule entries are tagged with `this` as owner; the
  // destructor's cancel_owner() is the barrier that stops them.
  std::unique_ptr<TimerService> owned_timers_;  // only when none was shared
  TimerService* timers_;

  // Request handlers may block on locks for arbitrarily long, so they run
  // on an executor of their own, capped at 8 threads named "mca-rpc-bN".
  Executor pool_;
};

}  // namespace mca
