#include "dist/node.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "dist/remote.h"
#include "sim/crash_points.h"
#include "storage/wal_store.h"

namespace mca {
namespace {

// Process-global dispatcher registry, keyed by type_name().
struct TypeRegistry {
  std::mutex mutex;
  std::unordered_map<std::string, DistNode::Dispatcher> dispatchers;
};

TypeRegistry& type_registry() {
  static TypeRegistry r;
  return r;
}

// RAII current-action scope for server-side operation execution.
class ContextGuard {
 public:
  explicit ContextGuard(AtomicAction& action) : action_(action) {
    ActionContext::push(action_);
  }
  ~ContextGuard() { ActionContext::pop(action_); }
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  AtomicAction& action_;
};

constexpr const char* kLockFailPrefix = "lockfail:";

std::string encode_lock_failure(LockOutcome o) {
  return std::string(kLockFailPrefix) + std::string(to_string(o));
}

std::optional<LockOutcome> decode_lock_failure(const std::string& error) {
  if (!error.starts_with(kLockFailPrefix)) return std::nullopt;
  const std::string what = error.substr(std::strlen(kLockFailPrefix));
  if (what == "refused") return LockOutcome::Refused;
  if (what == "deadlock") return LockOutcome::Deadlock;
  if (what == "timeout") return LockOutcome::Timeout;
  return LockOutcome::Timeout;
}

}  // namespace

DistNode::DistNode(Transport& transport, NodeId id, ObjectStore* store)
    : id_(id),
      owned_store_(store == nullptr ? std::make_unique<MemoryStore>(StorageClass::Stable)
                                    : nullptr),
      runtime_(std::make_unique<Runtime>(store != nullptr ? *store : *owned_store_)),
      rpc_(transport, id, RpcEndpoint::kDefaultReplyCacheCapacity, &runtime_->timers()),
      participants_(*runtime_, [this](const Uid& uid) { return resolve(uid); }) {
  register_standard_types();
  register_services();
  recovery_timer_ = runtime_->timers().schedule_every(
      recovery_options_.period, [this] { on_recovery_timer(); }, this);
}

DistNode::DistNode(Transport& transport, NodeId id, const std::filesystem::path& data_dir)
    : id_(id),
      owned_store_(std::make_unique<WalStore>(data_dir)),
      runtime_(std::make_unique<Runtime>(*owned_store_)),
      rpc_(transport, id, RpcEndpoint::kDefaultReplyCacheCapacity, &runtime_->timers()),
      participants_(*runtime_, [this](const Uid& uid) { return resolve(uid); }) {
  register_standard_types();
  register_services();
  // A process booting over an existing data directory is a restarted node:
  // apply the same presumed abort restart() applies, so a shadow orphaned by
  // a crash between prepare's shadow writes and its marker does not survive
  // the reboot. (The WAL's own recovery already ran when it opened;
  // surviving in-doubt markers stay for the background recovery daemon.)
  if (const std::size_t dropped = participants_.discard_unreferenced_shadows(); dropped > 0) {
    MCA_LOG(Info, "node") << "boot recovery: discarded " << dropped << " orphan shadow(s)";
  }
  recovery_timer_ = runtime_->timers().schedule_every(
      recovery_options_.period, [this] { on_recovery_timer(); }, this);
}

DistNode::~DistNode() {
  // Stop the recovery daemon: drop its timer entry (and wait out an
  // in-flight tick), then wait for a pass already handed to the executor.
  runtime_->timers().cancel_owner(this);
  {
    std::unique_lock lock(recovery_mutex_);
    recovery_pass_done_.wait(lock, [this] { return !recovery_pass_running_; });
  }
  // Quiesce service execution, then disown surviving mirrors: a mirror left
  // behind by a partition must not replay undo against hosted objects whose
  // lifetimes ended before the node's.
  rpc_.stop_workers();
  participants_.drop_mirrors();
}

void DistNode::register_type(const std::string& type_name, Dispatcher dispatcher) {
  auto& r = type_registry();
  const std::scoped_lock lock(r.mutex);
  r.dispatchers[type_name] = std::move(dispatcher);
}

void DistNode::host(LockManaged& object) {
  const std::scoped_lock lock(hosted_mutex_);
  hosted_[object.uid()] = Hosted{&object, object.snapshot_state()};
}

LockManaged* DistNode::resolve(const Uid& uid) {
  const std::scoped_lock lock(hosted_mutex_);
  auto it = hosted_.find(uid);
  return it == hosted_.end() ? nullptr : it->second.object;
}

void DistNode::register_crashable(const std::string& name,
                                  std::function<ByteBuffer(ByteBuffer&)> service) {
  rpc_.register_service(name, [this, service = std::move(service)](ByteBuffer& args) {
    try {
      return service(args);
    } catch (const CrashPointHit& hit) {
      // Deliberately caught only here, after the handler fully unwound: the
      // protocol code's catch(std::exception) blocks cannot intercept it and
      // every lock it held has been released. Kill the node with whatever
      // half-finished durable state the window left, then fail the call; the
      // crashed endpoint drops the reply, so the caller sees silence.
      MCA_LOG(Info, "node") << "node " << id_ << " killed at crash point " << hit.point();
      crash();
      throw std::runtime_error("node down (crash point " + hit.point() + ")");
    }
  });
}

void DistNode::register_services() {
  register_crashable("obj.invoke", [this](ByteBuffer& args) {
    if (down_.load()) throw std::runtime_error("node down");
    const Uid action = args.unpack_uid();
    std::vector<Uid> path = wire::unpack_path(args);
    const ColourSet colours = wire::unpack_colour_set(args);
    const LockPlan plan = wire::unpack_plan(args);
    const Uid object_uid = args.unpack_uid();
    const std::string op = args.unpack_string();
    // A window on the request's bytes (which may be the reassembled
    // message's buffer), alive until the dispatcher returns.
    ByteBuffer op_args = args.unpack_slice();

    LockManaged* object = resolve(object_uid);
    if (object == nullptr) {
      throw std::runtime_error("no such object: " + object_uid.to_string());
    }
    Dispatcher dispatcher;
    {
      auto& r = type_registry();
      const std::scoped_lock lock(r.mutex);
      auto it = r.dispatchers.find(object->type_name());
      if (it == r.dispatchers.end()) {
        throw std::runtime_error("no dispatcher for type " + object->type_name());
      }
      dispatcher = it->second;
    }

    // Shared ownership: the mirror stays valid for this operation even if a
    // concurrent coordinator decision removes it from the table.
    const auto mirror = participants_.mirror_for(action, std::move(path), colours);
    mirror->set_lock_plan(plan);
    const ContextGuard scope(*mirror);
    const std::size_t undo_before = mirror->undo_record_count();
    try {
      ByteBuffer result = dispatcher(*object, op, op_args);
      // Reply framing tells the client what kind of write (if any) the op
      // was, so its participant can track fast-path eligibility:
      //   0  read-only (no new server-side write state)
      //   1  commutative delta — the object's *cumulative* op batch for
      //      this action rides along (replaces, never appends, client-side,
      //      so a lost or reordered reply cannot double-count)
      //   2  classical write (undo records created): the action must take
      //      the full 2PC path on this node.
      ByteBuffer reply;
      if (auto ops = object->pending_delta_ops(action)) {
        reply.pack_u8(1);
        reply.pack_bytes(ops->bytes());
      } else if (mirror->undo_record_count() > undo_before) {
        reply.pack_u8(2);
      } else {
        reply.pack_u8(0);
      }
      reply.pack_bytes(result.bytes());
      return reply;
    } catch (const LockFailure& f) {
      throw std::runtime_error(encode_lock_failure(f.outcome()));
    }
  });

  register_crashable("obj.lock", [this](ByteBuffer& args) {
    if (down_.load()) throw std::runtime_error("node down");
    const Uid action = args.unpack_uid();
    std::vector<Uid> path = wire::unpack_path(args);
    const ColourSet colours = wire::unpack_colour_set(args);
    const Uid object_uid = args.unpack_uid();
    const auto mode = static_cast<LockMode>(args.unpack_u8());
    const Colour colour = wire::unpack_colour(args);

    LockManaged* object = resolve(object_uid);
    if (object == nullptr) {
      throw std::runtime_error("no such object: " + object_uid.to_string());
    }
    const auto mirror = participants_.mirror_for(action, std::move(path), colours);
    ByteBuffer reply;
    reply.pack_u8(static_cast<std::uint8_t>(mirror->lock_explicit(*object, mode, colour)));
    return reply;
  });

  rpc_.register_service("obj.unlock", [this](ByteBuffer& args) {
    if (down_.load()) throw std::runtime_error("node down");
    const Uid owner = args.unpack_uid();
    const Uid object = args.unpack_uid();
    const Colour colour = wire::unpack_colour(args);
    const auto mode = static_cast<LockMode>(args.unpack_u8());
    runtime_->lock_manager().release_early(owner, object, colour, mode);
    return ByteBuffer{};
  });

  register_crashable("tx.prepare", [this](ByteBuffer& args) {
    if (down_.load()) throw std::runtime_error("node down");
    const Uid action = args.unpack_uid();
    const NodeId coordinator = args.unpack_u32();
    const std::uint32_t n = wire::unpack_count(args, 4);  // a colour name is ≥ 4 bytes
    std::vector<Colour> permanent;
    permanent.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) permanent.push_back(wire::unpack_colour(args));
    const std::vector<NodeId> witnesses = wire::unpack_nodes(args);
    auto heirs = wire::unpack_heirs(args);
    ByteBuffer reply;
    reply.pack_bool(
        participants_.prepare(action, permanent, coordinator, witnesses, std::move(heirs)));
    return reply;
  });

  register_crashable("tx.commit", [this](ByteBuffer& args) {
    if (down_.load()) throw std::runtime_error("node down");
    participants_.commit(args.unpack_uid());
    return ByteBuffer{};
  });

  // One-phase commutative commit: apply the shipped batch durably, release
  // the mirror's locks, ack. Idempotent under redelivery (chain dedup), so
  // the coordinator's reconciliation may re-ship an unacked batch.
  register_crashable("tx.delta", [this](ByteBuffer& args) {
    if (down_.load()) throw std::runtime_error("node down");
    const Uid action = args.unpack_uid();
    const auto deltas = wire::unpack_deltas(args);
    participants_.commit_delta(action, deltas);
    return ByteBuffer{};
  });

  register_crashable("tx.abort", [this](ByteBuffer& args) {
    if (down_.load()) throw std::runtime_error("node down");
    const Uid action = args.unpack_uid();
    participants_.abort(action);
    return ByteBuffer{};
  });

  rpc_.register_service("tx.status", [this](ByteBuffer& args) {
    const Uid action = args.unpack_uid();
    // Three-valued: a sealed commit record wins; a pending record (mirror
    // fan-out interrupted) or an action still registered in this node's
    // ancestry is live (deciding) and the asker must stay in doubt; only a
    // finished action without a commit record is presumed aborted.
    TxStatus status = CoordinatorLogParticipant::logged_status(*runtime_, action);
    if (status == TxStatus::Aborted && !runtime_->ancestry().path_of(action).empty()) {
      status = TxStatus::Pending;
    }
    ByteBuffer reply;
    reply.pack_u8(static_cast<std::uint8_t>(status));
    return reply;
  });

  // Witness role: store (tx.mirror) and report-or-fence (tx.mstatus) a
  // coordinator's mirrored commit decision. The shared mutex closes the
  // check-then-write race between a late-arriving mirror and a recovering
  // participant's fence.
  register_crashable("tx.mirror", [this](ByteBuffer& args) {
    if (down_.load()) throw std::runtime_error("node down");
    const Uid action = args.unpack_uid();
    const std::scoped_lock lock(witness_mutex_);
    ByteBuffer reply;
    reply.pack_bool(/*fenced=*/!WitnessLog::record_decision(*runtime_, action));
    return reply;
  });

  register_crashable("tx.mstatus", [this](ByteBuffer& args) {
    if (down_.load()) throw std::runtime_error("node down");
    const Uid action = args.unpack_uid();
    const std::scoped_lock lock(witness_mutex_);
    ByteBuffer reply;
    reply.pack_u8(static_cast<std::uint8_t>(WitnessLog::status_or_fence(*runtime_, action)));
    return reply;
  });

  // Heartbeat probe for the fault-detector hierarchy. A reply proves the
  // node is up; the RPC layer's per-peer suspicion state absorbs failures.
  rpc_.register_service("fd.ping", [this](ByteBuffer&) {
    if (down_.load()) throw std::runtime_error("node down");
    ByteBuffer reply;
    reply.pack_u32(id_);
    return reply;
  });
}

void DistNode::set_coordinator_mirrors(std::vector<NodeId> witnesses) {
  const std::scoped_lock lock(mirror_config_mutex_);
  coordinator_mirrors_ = std::move(witnesses);
}

std::vector<NodeId> DistNode::coordinator_mirrors() const {
  const std::scoped_lock lock(mirror_config_mutex_);
  return coordinator_mirrors_;
}

RpcResult DistNode::call_blocking(NodeId target, const std::string& service,
                                  ByteBuffer request, CallOptions options) {
  request = std::move(request).share();  // a retry sends the same bytes
  RpcResult r = rpc_.call(target, service, request, options);
  if (r.status != RpcStatus::Unreachable) return r;
  // Suspected peer: wait for its probe slot and retry once. If another
  // thread claims the slot first the retry fails fast again, which is the
  // final answer.
  const auto wait = rpc_.peer_probe_wait(target);
  if (wait > options.timeout) return r;
  std::this_thread::sleep_for(wait);
  return rpc_.call(target, service, request, options);
}

ByteBuffer DistNode::invoke(NodeId target, const Uid& object, const std::string& op,
                            ByteBuffer args) {
  AtomicAction& action = ActionContext::require();
  const auto participant = RpcParticipant::enlist(*this, target, action);

  ByteBuffer request;
  request.pack_uid(action.uid());
  wire::pack_path(request, runtime_->ancestry().path_of(action.uid()));
  wire::pack_colour_set(request, action.colours());
  wire::pack_plan(request, action.lock_plan());
  request.pack_uid(object);
  request.pack_string(op);
  request.pack_bytes(args.bytes());

  // Server-side lock waits can be long; give the call a generous deadline
  // (the lock itself still times out server-side).
  RpcResult r = call_blocking(target, "obj.invoke", std::move(request),
                              CallOptions{invoke_timeout_, std::chrono::milliseconds(200)});
  switch (r.status) {
    case RpcStatus::Ok: {
      participant->note_success();
      // Unwrap the reply framing (see the obj.invoke handler): record what
      // kind of write the op was for fast-path eligibility, then hand the
      // caller the bare result.
      const std::uint8_t kind = r.payload.unpack_u8();
      if (kind == 1) {
        participant->note_delta_batch(object, r.payload.unpack_bytes());
      } else if (kind == 2) {
        participant->note_classical();
      }
      return r.payload.unpack_slice();
    }
    case RpcStatus::Timeout:
    case RpcStatus::Unreachable:
      throw NodeUnreachable(target);
    case RpcStatus::AppError:
      // The server executed (and may hold locks under the action's mirror):
      // the participant must take part in termination even though the
      // operation itself failed. The failed op's server-side residue is
      // invisible here, so the action is classical from now on.
      participant->note_success();
      participant->note_classical();
      if (auto outcome = decode_lock_failure(r.error)) throw LockFailure(*outcome, object);
      throw RemoteError(r.error);
  }
  throw RemoteError("unreachable");
}

LockOutcome DistNode::remote_lock(NodeId target, const Uid& object, LockMode mode,
                                  Colour colour) {
  AtomicAction& action = ActionContext::require();
  if (!action.has_colour(colour)) {
    throw std::logic_error("remote_lock: action does not possess colour " + colour.name());
  }
  const auto participant = RpcParticipant::enlist(*this, target, action);
  // An explicit remote lock bypasses the invoke reply framing, so nothing
  // tracks what it guards: stay on the classical path.
  participant->note_classical();

  ByteBuffer request;
  request.pack_uid(action.uid());
  wire::pack_path(request, runtime_->ancestry().path_of(action.uid()));
  wire::pack_colour_set(request, action.colours());
  request.pack_uid(object);
  request.pack_u8(static_cast<std::uint8_t>(mode));
  wire::pack_colour(request, colour);

  RpcResult r = call_blocking(target, "obj.lock", std::move(request),
                              CallOptions{invoke_timeout_, std::chrono::milliseconds(200)});
  switch (r.status) {
    case RpcStatus::Ok:
      participant->note_success();
      return static_cast<LockOutcome>(r.payload.unpack_u8());
    case RpcStatus::Timeout:
    case RpcStatus::Unreachable:
      throw NodeUnreachable(target);
    case RpcStatus::AppError:
      participant->note_success();
      throw RemoteError(r.error);
  }
  throw RemoteError("unreachable");
}

bool DistNode::remote_release_early(NodeId target, const Uid& owner, const Uid& object,
                                    Colour colour, LockMode mode) {
  ByteBuffer request;
  request.pack_uid(owner);
  request.pack_uid(object);
  wire::pack_colour(request, colour);
  request.pack_u8(static_cast<std::uint8_t>(mode));
  RpcResult r = rpc_.call(target, "obj.unlock", std::move(request));
  return r.ok();
}

void DistNode::crash() {
  down_.store(true);
  rpc_.crash();
  participants_.crash();
  runtime_->lock_manager().clear();
  runtime_->default_store().crash();
  {
    const std::scoped_lock lock(recovery_mutex_);
    recovery_backoff_.clear();  // attempt schedules are volatile state
    resolving_.reset();
  }
  // Volatile memory: every hosted object falls back to its construction
  // state; the next access re-activates from the stable store.
  const std::scoped_lock lock(hosted_mutex_);
  for (auto& [uid, hosted] : hosted_) {
    hosted.object->apply_state(hosted.initial_state);
    hosted.object->invalidate_activation();
  }
  MCA_LOG(Info, "node") << "node " << id_ << " crashed";
}

void DistNode::restart() {
  runtime_->lock_manager().clear();
  rpc_.restart();
  down_.store(false);
  // One synchronous recovery pass: in-doubt actions whose coordinator
  // answers are resolved before restart() returns; unreachable coordinators
  // leave their markers for the background daemon to keep retrying.
  recover_once(/*ignore_backoff=*/true);
  if (down_.load()) return;  // a crash point fired mid-recovery: down again
  // Presumed abort for shadows orphaned before their marker was written.
  if (const std::size_t dropped = participants_.discard_unreferenced_shadows(); dropped > 0) {
    MCA_LOG(Info, "node") << "recovery: discarded " << dropped << " orphan shadow(s)";
  }
  kick_recovery();
  MCA_LOG(Info, "node") << "node " << id_ << " restarted";
}

// ---------------------------------------------------------------------------
// Background in-doubt recovery daemon
// ---------------------------------------------------------------------------

void DistNode::set_recovery_options(RecoveryOptions options) {
  const std::scoped_lock lock(recovery_mutex_);
  recovery_options_ = options;
  // Re-arm the periodic entry so the new period takes effect now rather
  // than after the old one elapses.
  runtime_->timers().cancel(recovery_timer_);
  recovery_timer_ = runtime_->timers().schedule_every(
      options.period, [this] { on_recovery_timer(); }, this);
}

DistNode::RecoveryOptions DistNode::recovery_options() const {
  const std::scoped_lock lock(recovery_mutex_);
  return recovery_options_;
}

DistNode::RecoveryStats DistNode::recovery_stats() const {
  const std::scoped_lock lock(recovery_mutex_);
  return recovery_stats_;
}

void DistNode::kick_recovery() {
  TimerService::TimerId id;
  {
    const std::scoped_lock lock(recovery_mutex_);
    recovery_kicked_ = true;
    id = recovery_timer_;
  }
  // Pull the next periodic fire forward to now; the tick consumes the flag.
  runtime_->timers().fire_now(id);
}

std::size_t DistNode::in_doubt_count() const {
  std::optional<Uid> resolving;
  {
    const std::scoped_lock lock(recovery_mutex_);
    resolving = resolving_;
  }
  // Read after `resolving_`: the pass sets it before it touches the marker
  // and clears it only once the resolution is counted.
  const auto entries = participants_.in_doubt();
  const bool listed =
      !resolving || std::any_of(entries.begin(), entries.end(),
                                [&](const auto& e) { return e.action == *resolving; });
  return entries.size() + (listed ? 0 : 1);
}

void DistNode::recover_once(bool ignore_backoff) {
  // One pass at a time: restart()'s synchronous pass and a daemon tick must
  // not resolve the same action concurrently.
  const std::scoped_lock pass(recovery_pass_mutex_);

  RecoveryOptions opts;
  {
    const std::scoped_lock lock(recovery_mutex_);
    opts = recovery_options_;
  }
  // Every call of the pass (tx.status, tx.mstatus, a re-shipped tx.delta).
  const CallOptions call{opts.call_timeout, std::chrono::milliseconds(50),
                         std::chrono::milliseconds(200), /*retry_budget=*/4};
  // Our own coordinator log first: an interrupted local promotion or mirror
  // fan-out is resolved before we go asking anyone about markers.
  try {
    reconcile_coordinator_log(call);
  } catch (const CrashPointHit& hit) {
    MCA_LOG(Info, "node") << "node " << id_ << " killed at crash point " << hit.point()
                          << " during log reconciliation";
    crash();
    return;
  }
  for (const ParticipantTable::Marker& marker : participants_.in_doubt()) {
    if (down_.load() || !rpc_.up()) break;
    {
      const std::scoped_lock lock(recovery_mutex_);
      auto it = recovery_backoff_.find(marker.action);
      if (!ignore_backoff && it != recovery_backoff_.end() &&
          std::chrono::steady_clock::now() < it->second.first) {
        continue;  // not due yet
      }
      ++recovery_stats_.attempts;
    }
    ByteBuffer args;
    args.pack_uid(marker.action);
    RpcResult r = rpc_.call(marker.coordinator, "tx.status", std::move(args), call);
    if (!r.ok()) {
      // Dead coordinator: the witnesses its marker names can resolve the
      // outcome without waiting for it to return.
      if (const auto verdict = witness_verdict(marker.action, marker.witnesses, call)) {
        if (!apply_verdict(marker, *verdict, /*from_witness=*/true)) return;
        continue;
      }
      const std::scoped_lock lock(recovery_mutex_);
      ++recovery_stats_.coordinator_unreachable;
      auto& [due, backoff] = recovery_backoff_[marker.action];
      backoff = backoff.count() == 0 ? opts.period
                                     : std::min(opts.backoff_max, backoff * 2);
      due = std::chrono::steady_clock::now() + backoff;
      continue;
    }
    const auto status = static_cast<TxStatus>(r.payload.unpack_u8());
    if (status == TxStatus::Pending) {
      // The coordinator is alive and still deciding: its own termination
      // protocol will reach us; retry at the base period.
      const std::scoped_lock lock(recovery_mutex_);
      ++recovery_stats_.still_pending;
      recovery_backoff_.erase(marker.action);
      continue;
    }
    if (!apply_verdict(marker, status == TxStatus::Committed, /*from_witness=*/false)) return;
  }
}

std::optional<bool> DistNode::witness_verdict(const Uid& action,
                                              const std::vector<NodeId>& witnesses,
                                              const CallOptions& call) {
  bool all_fenced = !witnesses.empty();
  for (const NodeId w : witnesses) {
    ByteBuffer args;
    args.pack_uid(action);
    RpcResult r = rpc_.call(w, "tx.mstatus", std::move(args), call);
    if (!r.ok()) {
      all_fenced = false;
    } else if (static_cast<TxStatus>(r.payload.unpack_u8()) == TxStatus::Committed) {
      return true;
    }
  }
  if (all_fenced) return false;
  return std::nullopt;
}

bool DistNode::apply_verdict(const ParticipantTable::Marker& marker, bool committed,
                             bool from_witness) {
  {
    const std::scoped_lock lock(recovery_mutex_);
    resolving_ = marker.action;
  }
  try {
    // The verdict is known but nothing durable reflects it yet.
    MCA_CRASHPOINT("node.recovery.post_status_pre_resolve");
    if (committed) {
      participants_.commit(marker.action);
    } else {
      participants_.abort(marker.action);
    }
  } catch (const CrashPointHit& hit) {
    // Catches the point above and any storage/tpc window inside the
    // resolution itself (e.g. commit_shadow's pre-rename). The daemon
    // thread must not leak the exception; die here instead.
    MCA_LOG(Info, "node") << "node " << id_ << " killed at crash point " << hit.point()
                          << " during recovery";
    crash();
    return false;
  }
  {
    const std::scoped_lock lock(recovery_mutex_);
    ++(committed ? recovery_stats_.resolved_committed : recovery_stats_.resolved_aborted);
    if (from_witness) ++recovery_stats_.resolved_from_witness;
    recovery_backoff_.erase(marker.action);
    resolving_.reset();
  }
  MCA_LOG(Info, "node") << "recovery: action " << marker.action << " resolved as "
                        << (committed ? "committed" : "aborted")
                        << (from_witness ? " by its witnesses" : " by its coordinator");
  return true;
}

void DistNode::reconcile_coordinator_log(const CallOptions& call) {
  using CLP = CoordinatorLogParticipant;
  // A decided record's local shadows are promoted, then its redo list is
  // retired (the record turns Applied).
  const auto apply = [this](const Uid& action, CLP::Record& rec) {
    for (const Uid& u : rec.redo_uids) {
      runtime_->default_store().commit_shadow(u);
      if (LockManaged* obj = resolve(u)) obj->invalidate_activation();
    }
    rec.state = CLP::RecordState::Applied;
    rec.redo_uids.clear();
    CLP::write_record(*runtime_, action, rec);
  };
  for (const Uid& action : CLP::logged_actions(*runtime_)) {
    // An action still registered here is being terminated by its own
    // commit path, which owns the record: a Pending record's fan-out may
    // still land (fencing the witnesses now would abort it), and a Sealed
    // record's lazy promotion may still be in flight. Only records left
    // behind by a crash are ours — the liveness test tx.status applies.
    if (!runtime_->ancestry().path_of(action).empty()) continue;
    auto rec = CLP::read_record(*runtime_, action);
    if (!rec) continue;
    switch (rec->state) {
      case CLP::RecordState::Applied:
        break;
      case CLP::RecordState::Sealed:
        // The crash hit between sealing the decision and promoting our own
        // shadows (none: the coordinator had nothing local to promote).
        if (!rec->redo_uids.empty()) apply(action, *rec);
        break;
      case CLP::RecordState::Delta: {
        // Fast-path commit interrupted mid-fan-out: the record's batches
        // are the redo information. Re-apply locally and re-ship each
        // remote node's batch; every application is idempotent (chain
        // dedup), so a batch that did land before the crash is a no-op
        // now. Only retire the record once every node took its batch.
        bool all_applied = true;
        for (const auto& [node, entries] : rec->delta_nodes) {
          if (node == id_) {
            participants_.apply_deltas(action, entries);
            continue;
          }
          ByteBuffer args;
          args.pack_uid(action);
          wire::pack_deltas(args, entries);
          if (!rpc_.call(node, "tx.delta", std::move(args), call).ok()) all_applied = false;
        }
        if (all_applied) {
          CLP::remove_record(*runtime_, action);
          MCA_LOG(Info, "node") << "reconcile: delta commit " << action
                                << " re-shipped to every node";
        }
        // else: a node is unreachable — leave the record for the next pass.
        break;
      }
      case CLP::RecordState::Pending: {
        // The mirror fan-out was interrupted mid-decision. Resolve the
        // record exactly the way a recovering participant would; while some
        // witness is unreachable it stays Pending, tx.status keeps
        // answering Pending and the next pass retries.
        const std::optional<bool> verdict = witness_verdict(action, rec->witnesses, call);
        if (verdict == true) {
          rec->state = CLP::RecordState::Sealed;
          CLP::write_record(*runtime_, action, *rec);
          apply(action, *rec);
          MCA_LOG(Info, "node") << "reconcile: pending decision " << action
                                << " sealed from a surviving witness copy";
        } else if (verdict == false) {
          for (const Uid& u : rec->redo_uids) runtime_->default_store().discard_shadow(u);
          CLP::remove_record(*runtime_, action);
          MCA_LOG(Info, "node") << "reconcile: pending decision " << action
                                << " fenced by every witness — presumed abort";
        }
        break;
      }
    }
  }
}

void DistNode::on_recovery_timer() {
  // Runs on the shared timer thread: flip flags only, never block.
  bool kicked = false;
  {
    const std::scoped_lock lock(recovery_mutex_);
    ++recovery_stats_.ticks;
    if (recovery_pass_running_) return;  // a kick waits for the next tick
    kicked = recovery_kicked_;
    recovery_kicked_ = false;
    if (down_.load()) return;
    recovery_pass_running_ = true;
  }
  auto pass = [this, kicked] {
    recover_once(/*ignore_backoff=*/kicked);
    // Notify under the mutex: the destructor destroys the condition
    // variable as soon as its wait sees the flag drop, so the notify must
    // complete before the waiter can re-acquire the lock.
    const std::scoped_lock lock(recovery_mutex_);
    recovery_pass_running_ = false;
    recovery_pass_done_.notify_all();
  };
  // The pass blocks on tx.status round trips, so it belongs on the blocking
  // lane. Refused (lane saturated / shutting down) → skip this tick; the
  // in-doubt set is re-examined on the next one.
  if (!runtime_->executor().try_submit_blocking(pass)) {
    const std::scoped_lock lock(recovery_mutex_);
    recovery_pass_running_ = false;
    if (kicked) recovery_kicked_ = true;  // don't lose the forced attempt
    recovery_pass_done_.notify_all();
  }
}

}  // namespace mca
