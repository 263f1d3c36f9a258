#include "dist/rpc.h"

#include <utility>

#include "common/logging.h"

namespace mca {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Completes `state` exactly once (later completions lose) and fires the
// registered callback outside the state lock.
void complete_call(const std::shared_ptr<RpcCallState>& state, RpcResult result) {
  std::function<void(const RpcResult&)> callback;
  {
    const std::scoped_lock lock(state->mutex);
    if (state->completed) return;
    state->completed = true;
    state->result = std::move(result);
    callback = std::move(state->callback);
    state->done.notify_all();
  }
  if (callback) callback(state->result);
}

Executor::Options handler_options() {
  Executor::Options o;
  o.max_blocking = 8;
  o.name_prefix = "mca-rpc";
  return o;
}

// Frees the request of a completed call once no retransmit slot can fire
// for it any more (outside the lock: a blob request is ~100 KB).
void drop_request(RpcCallState& state) {
  Datagram request;
  {
    const std::scoped_lock lock(state.mutex);
    request = std::exchange(state.request, Datagram{});
  }
}

std::shared_ptr<RpcCallState> make_completed_state(RpcResult result) {
  auto state = std::make_shared<RpcCallState>();
  state->completed = true;
  state->result = std::move(result);
  return state;
}

}  // namespace

// ---------------------------------------------------------------------------
// RpcFuture
// ---------------------------------------------------------------------------

bool RpcFuture::ready() const {
  if (!state_) return false;
  const std::scoped_lock lock(state_->mutex);
  return state_->completed;
}

RpcResult RpcFuture::get() const {
  if (!state_) return RpcResult{RpcStatus::Timeout, {}, "invalid future"};
  std::unique_lock lock(state_->mutex);
  state_->done.wait(lock, [&] { return state_->completed; });
  return state_->result;
}

bool RpcFuture::wait_for(std::chrono::milliseconds timeout) const {
  if (!state_) return false;
  std::unique_lock lock(state_->mutex);
  return state_->done.wait_for(lock, timeout, [&] { return state_->completed; });
}

void RpcFuture::cancel() const {
  if (!state_) return;
  complete_call(state_, RpcResult{RpcStatus::Timeout, {}, "cancelled"});
}

void RpcFuture::on_complete(std::function<void(const RpcResult&)> fn) const {
  if (!state_) return;
  bool fire = false;
  {
    const std::scoped_lock lock(state_->mutex);
    if (state_->completed) {
      fire = true;
    } else {
      state_->callback = std::move(fn);
    }
  }
  if (fire) fn(state_->result);
}

std::size_t RpcFuture::request_bytes() const {
  if (!state_) return 0;
  const std::scoped_lock lock(state_->mutex);
  return state_->request.payload.size();
}

RpcEndpoint::RpcEndpoint(Transport& transport, NodeId id, std::size_t reply_cache_capacity,
                         TimerService* timers)
    : transport_(transport),
      id_(id),
      gate_(std::make_shared<ReceiverGate>()),
      reply_cache_capacity_(reply_cache_capacity),
      jitter_state_(0x6D63615F72706300ULL + id),
      owned_timers_(timers == nullptr ? std::make_unique<TimerService>("mca-rpc-timer")
                                      : nullptr),
      timers_(timers != nullptr ? timers : owned_timers_.get()),
      pool_(handler_options()) {
  gate_->endpoint = this;
  // The handler owns the gate, not the endpoint: a transport that delivers
  // after (or while) the endpoint is torn down finds the gate closed and
  // drops the datagram instead of entering freed state.
  transport_.attach(id_, [gate = gate_](Datagram d) {
    const std::shared_lock entered(gate->mutex);
    if (gate->endpoint != nullptr) gate->endpoint->on_datagram(std::move(d));
  });
}

RpcEndpoint::~RpcEndpoint() {
  // Close the receiver gate first: this drains deliveries already inside
  // on_datagram and turns any later ones into drops, whatever the transport's
  // delivery thread is doing. Only then detach.
  {
    const std::unique_lock closed(gate_->mutex);
    gate_->endpoint = nullptr;
  }
  transport_.detach(id_);
  // Barrier against the (possibly shared) timer thread: drop every pending
  // retransmit slot, wait out an in-flight callback, refuse re-schedules.
  timers_->cancel_owner(this);
  // Wake anything still blocked on a future; the shared state outlives us.
  std::vector<std::shared_ptr<RpcCallState>> abandoned;
  {
    const std::scoped_lock lock(mutex_);
    for (auto& [request_id, call] : calls_) abandoned.push_back(call);
    calls_.clear();
  }
  for (auto& call : abandoned) {
    complete_call(call, RpcResult{RpcStatus::Timeout, {}, "endpoint destroyed"});
    drop_request(*call);  // cancel_owner() took every slot
  }
  pool_.shutdown();
}

void RpcEndpoint::register_service(const std::string& name, Service service) {
  const std::scoped_lock lock(mutex_);
  services_[name] = std::move(service);
}

bool RpcEndpoint::should_fail_fast(NodeId to) {
  const std::scoped_lock lock(mutex_);
  auto it = peers_.find(to);
  if (it == peers_.end() || it->second.consecutive_timeouts < health_.suspect_after) {
    return false;
  }
  PeerHealth& p = it->second;
  const auto now = std::chrono::steady_clock::now();
  if (now < p.next_probe) return true;
  // This call is the probe; push the next slot out (decay) so concurrent
  // callers fail fast instead of probing in a herd.
  p.current_probe_interval = std::min(health_.probe_max, p.current_probe_interval * 2);
  p.next_probe = now + p.current_probe_interval;
  return false;
}

void RpcEndpoint::note_send_locked(NodeId to, SendStatus status) {
  if (status != SendStatus::Accepted) ++send_failures_[to];
}

std::uint64_t RpcEndpoint::peer_send_failures(NodeId peer) const {
  const std::scoped_lock lock(mutex_);
  const auto it = send_failures_.find(peer);
  return it == send_failures_.end() ? 0 : it->second;
}

void RpcEndpoint::note_call_outcome(NodeId to, bool timed_out) {
  const std::scoped_lock lock(mutex_);
  if (!timed_out) {
    peers_.erase(to);
    return;
  }
  PeerHealth& p = peers_[to];
  ++p.consecutive_timeouts;
  if (p.consecutive_timeouts >= health_.suspect_after && p.current_probe_interval.count() == 0) {
    p.current_probe_interval = health_.probe_interval;
    p.next_probe = std::chrono::steady_clock::now() + p.current_probe_interval;
  }
}

std::chrono::milliseconds RpcEndpoint::next_jittered_delay(const RpcCallState& state) {
  // Decorrelated jitter: delay_n ~ U[initial, min(max, 3 × delay_{n-1})].
  const auto hi = std::min(state.cap, state.delay * 3);
  const auto span = (hi - state.initial).count();
  return state.initial +
         std::chrono::milliseconds(
             span > 0 ? static_cast<std::int64_t>(splitmix64(jitter_state_.fetch_add(1)) %
                                                  static_cast<std::uint64_t>(span + 1))
                      : 0);
}

RpcFuture RpcEndpoint::call_async(NodeId to, const std::string& service, ByteBuffer args,
                                  CallOptions options) {
  if (should_fail_fast(to)) {
    return RpcFuture(make_completed_state(RpcResult{
        RpcStatus::Unreachable, {}, "node " + std::to_string(to) + " suspected down"}));
  }
  if (!up_.load()) {
    return RpcFuture(make_completed_state(RpcResult{RpcStatus::Timeout, {}, "caller is down"}));
  }

  auto state = std::make_shared<RpcCallState>();
  const Uid request_id;
  state->request_id = request_id;
  state->to = to;
  // Shared once here, so the first send and every retransmit copy a handle,
  // not the arguments.
  state->request =
      Datagram{id_, to, service, request_id, /*is_reply=*/false, std::move(args).share()};
  state->deadline = std::chrono::steady_clock::now() + options.timeout;
  state->initial = std::max<std::chrono::milliseconds>(options.initial_backoff,
                                                       std::chrono::milliseconds(1));
  state->cap = std::max(options.max_backoff, state->initial);
  state->delay = state->initial;
  state->retry_budget = options.retry_budget;
  {
    const std::scoped_lock lock(mutex_);
    calls_[request_id] = state;
  }

  // First transmission happens on the issuing thread; the timer takes over
  // from the first retransmit slot on.
  const SendStatus first = transport_.send(state->request);
  if (first == SendStatus::Oversize) {
    // Permanent: no retransmission schedule can shrink the request. Fail the
    // call now instead of burning the whole timeout.
    {
      const std::scoped_lock lock(mutex_);
      note_send_locked(to, first);
      calls_.erase(request_id);
    }
    complete_call(state, RpcResult{RpcStatus::AppError, {},
                                   "request to node " + std::to_string(to) +
                                       " exceeds the transport's message limit"});
    drop_request(*state);
    return RpcFuture(std::move(state));
  }
  if (first != SendStatus::Accepted) {
    const std::scoped_lock lock(mutex_);
    note_send_locked(to, first);
  }
  state->sends = 1;
  state->delay = next_jittered_delay(*state);
  schedule_timer(std::min(std::chrono::steady_clock::now() + state->delay, state->deadline),
                 state);
  return RpcFuture(std::move(state));
}

RpcResult RpcEndpoint::call(NodeId to, const std::string& service, ByteBuffer args,
                            CallOptions options) {
  return call_async(to, service, std::move(args), options).get();
}

void RpcEndpoint::schedule_timer(std::chrono::steady_clock::time_point due,
                                 const std::shared_ptr<RpcCallState>& state) {
  // One-shot per slot; process_call_timer schedules the next one. Refused
  // during endpoint teardown (cancel_owner in the destructor bans `this`),
  // in which case the destructor completes the call as abandoned. Armed
  // under the state lock, so a completer either sees this slot's id or
  // completed the call first, and then no slot is armed.
  {
    const std::scoped_lock lock(state->mutex);
    if (!state->completed) {
      state->timer =
          timers_->schedule_at(due, [this, state] { process_call_timer(state); }, this);
      return;
    }
  }
  retire(*state);
}

void RpcEndpoint::retire(RpcCallState& state) {
  {
    const std::scoped_lock lock(mutex_);
    calls_.erase(state.request_id);
  }
  drop_request(state);
}

void RpcEndpoint::settle(const std::shared_ptr<RpcCallState>& state, RpcResult result) {
  complete_call(state, std::move(result));
  TimerService::TimerId slot = TimerService::kInvalid;
  {
    const std::scoped_lock lock(state->mutex);
    slot = std::exchange(state->timer, TimerService::kInvalid);
  }
  // A slot firing right now is past cancelling; it finds the call
  // completed and retires it itself.
  if (timers_->cancel(slot)) drop_request(*state);
}

void RpcEndpoint::process_call_timer(const std::shared_ptr<RpcCallState>& state) {
  bool completed = false;
  {
    const std::scoped_lock lock(state->mutex);
    completed = state->completed;
  }
  if (completed) {
    retire(*state);  // a cancel, or a reply racing this slot, settled it
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  if (now >= state->deadline || !up_.load()) {
    {
      const std::scoped_lock lock(mutex_);
      calls_.erase(state->request_id);
    }
    // Record the timeout BEFORE waking the waiter: a caller observing the
    // Timeout result must also observe the suspicion counter it implies
    // (otherwise three back-to-back timeouts can read as two under load).
    if (up_.load()) note_call_outcome(state->to, /*timed_out=*/true);
    complete_call(state, RpcResult{RpcStatus::Timeout, {}, {}});
    drop_request(*state);
    return;
  }
  auto next = state->deadline;
  if (state->retry_budget <= 0 || state->sends < state->retry_budget) {
    const SendStatus status = transport_.send(state->request);  // retransmit
    if (status != SendStatus::Accepted) {
      const std::scoped_lock lock(mutex_);
      note_send_locked(state->to, status);
    }
    ++state->sends;
    state->delay = next_jittered_delay(*state);
    next = std::min(now + state->delay, state->deadline);
  }
  // Budget spent: just wait out the remaining timeout for a late reply.
  schedule_timer(next, state);
}

void RpcEndpoint::set_health_options(HealthOptions options) {
  const std::scoped_lock lock(mutex_);
  health_ = options;
}

HealthOptions RpcEndpoint::health_options() const {
  const std::scoped_lock lock(mutex_);
  return health_;
}

bool RpcEndpoint::peer_suspected(NodeId peer) const {
  const std::scoped_lock lock(mutex_);
  auto it = peers_.find(peer);
  return it != peers_.end() && it->second.consecutive_timeouts >= health_.suspect_after;
}

int RpcEndpoint::peer_consecutive_timeouts(NodeId peer) const {
  const std::scoped_lock lock(mutex_);
  auto it = peers_.find(peer);
  return it == peers_.end() ? 0 : it->second.consecutive_timeouts;
}

void RpcEndpoint::reset_peer_health(NodeId peer) {
  const std::scoped_lock lock(mutex_);
  peers_.erase(peer);
}

std::chrono::milliseconds RpcEndpoint::peer_probe_wait(NodeId peer) const {
  const std::scoped_lock lock(mutex_);
  auto it = peers_.find(peer);
  if (it == peers_.end() || it->second.consecutive_timeouts < health_.suspect_after) {
    return std::chrono::milliseconds(0);
  }
  const auto now = std::chrono::steady_clock::now();
  if (it->second.next_probe <= now) return std::chrono::milliseconds(0);
  return std::chrono::duration_cast<std::chrono::milliseconds>(it->second.next_probe - now) +
         std::chrono::milliseconds(1);
}

void RpcEndpoint::crash() {
  up_.store(false);
  transport_.set_up(id_, false);
  std::vector<std::shared_ptr<RpcCallState>> abandoned;
  {
    const std::scoped_lock lock(mutex_);
    ++epoch_;
    reply_cache_.clear();
    reply_lru_.clear();
    in_progress_.clear();
    peers_.clear();  // peer suspicion is volatile state too
    for (auto& [request_id, call] : calls_) abandoned.push_back(call);
    calls_.clear();
  }
  for (auto& call : abandoned) settle(call, RpcResult{RpcStatus::Timeout, {}, "caller crashed"});
}

void RpcEndpoint::restart() {
  up_.store(true);
  transport_.set_up(id_, true);
}

void RpcEndpoint::stop_workers() { pool_.shutdown(); }

std::size_t RpcEndpoint::reply_cache_size() const {
  const std::scoped_lock lock(mutex_);
  return reply_cache_.size();
}

std::size_t RpcEndpoint::in_progress_count() const {
  const std::scoped_lock lock(mutex_);
  return in_progress_.size();
}

void RpcEndpoint::cache_reply_locked(const Uid& request_id, Datagram reply) {
  reply_lru_.push_front(request_id);
  reply_cache_[request_id] = CachedReply{std::move(reply), reply_lru_.begin()};
  while (reply_cache_.size() > reply_cache_capacity_) {
    reply_cache_.erase(reply_lru_.back());
    reply_lru_.pop_back();
  }
}

void RpcEndpoint::on_datagram(Datagram d) {
  if (!up_.load()) return;
  if (d.is_reply) {
    std::shared_ptr<RpcCallState> call;
    {
      const std::scoped_lock lock(mutex_);
      auto it = calls_.find(d.request_id);
      if (it == calls_.end()) return;  // late duplicate reply
      call = it->second;
      calls_.erase(it);
      peers_.erase(d.from);  // any reply clears suspicion of its sender
    }
    // The call is out of the table, so it must complete here, whatever the
    // reply holds: a payload that does not parse (a peer's bug or a forged
    // frame with a valid digest) is an application error, not a throw out
    // of the delivery thread.
    ByteBuffer& payload = d.payload;
    RpcResult r{RpcStatus::AppError, {}, "malformed reply"};
    try {
      const auto status = static_cast<RpcStatus>(payload.unpack_u8());
      if (status == RpcStatus::Ok) {
        r = RpcResult{status, payload.unpack_slice(), {}};
      } else if (status == RpcStatus::Timeout || status == RpcStatus::AppError) {
        r = RpcResult{status, {}, payload.unpack_string()};
      }  // Unreachable is a local verdict, never a reply; anything else is junk
    } catch (const BufferUnderflow&) {
      // stays the malformed-reply error
    }
    settle(call, std::move(r));
    return;
  }

  // Request path: at-most-once via the reply cache.
  const Uid request_id = d.request_id;  // `d` is moved below; keep the id
  {
    const std::scoped_lock lock(mutex_);
    if (auto it = reply_cache_.find(request_id); it != reply_cache_.end()) {
      // Duplicate of a finished request: answer from the cache and mark the
      // entry most-recently-used so hot retransmits are not evicted.
      reply_lru_.splice(reply_lru_.begin(), reply_lru_, it->second.lru_position);
      note_send_locked(d.from, transport_.send(it->second.reply));
      return;
    }
    if (!in_progress_.insert(request_id).second) {
      return;  // still executing; client will retry
    }
  }
  // Execute off the delivery thread: services may block on locks.
  if (!pool_.submit_blocking([this, d = std::move(d)]() mutable { serve(std::move(d)); })) {
    const std::scoped_lock lock(mutex_);
    in_progress_.erase(request_id);
  }
}

void RpcEndpoint::serve(Datagram d) {
  Service service;
  std::uint64_t epoch_at_start = 0;
  {
    const std::scoped_lock lock(mutex_);
    epoch_at_start = epoch_;
    auto it = services_.find(d.service);
    if (it != services_.end()) service = it->second;
  }

  ByteBuffer reply_payload;
  if (!service) {
    reply_payload.pack_u8(static_cast<std::uint8_t>(RpcStatus::AppError));
    reply_payload.pack_string("no such service: " + d.service);
  } else {
    try {
      ByteBuffer result = service(d.payload);
      reply_payload.pack_u8(static_cast<std::uint8_t>(RpcStatus::Ok));
      reply_payload.pack_bytes(result.bytes());
    } catch (const std::exception& e) {
      reply_payload.pack_u8(static_cast<std::uint8_t>(RpcStatus::AppError));
      reply_payload.pack_string(e.what());
    }
  }

  // Shared: the reply cache and the send each hold a handle on one copy.
  Datagram reply{id_, d.from, d.service, d.request_id, /*is_reply=*/true,
                 std::move(reply_payload).share()};
  {
    const std::scoped_lock lock(mutex_);
    in_progress_.erase(d.request_id);
    if (epoch_ != epoch_at_start || !up_.load()) {
      // We crashed while executing: a fail-silent node sends nothing, and
      // the orphan's effects are dealt with by recovery.
      return;
    }
    cache_reply_locked(d.request_id, reply);
  }
  const NodeId reply_to = reply.to;
  const SendStatus status = transport_.send(std::move(reply));
  if (status != SendStatus::Accepted) {
    // Nothing to do about it here: the client's retransmit will hit the
    // reply cache. Count it so the drop is observable.
    const std::scoped_lock lock(mutex_);
    note_send_locked(reply_to, status);
  }
}

}  // namespace mca
