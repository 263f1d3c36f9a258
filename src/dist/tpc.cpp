#include "dist/tpc.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "dist/node.h"
#include "objects/lock_managed.h"
#include "sim/crash_points.h"

namespace mca {
namespace {

// The high-word constants of protocol_record_key, by ProtocolRecord.
constexpr std::uint64_t kRecordKeyMasks[] = {
    0x4D43415F5052455BULL,  // PreparedMarker
    0x4D43415F434C4F47ULL,  // CoordinatorLog
    0x4D43415F4D495252ULL,  // WitnessCopy
    0x4D43415F544F4D42ULL,  // WitnessTombstone
};

Uid marker_uid(const Uid& action) {
  return protocol_record_key(ProtocolRecord::PreparedMarker, action);
}

Uid log_uid(const Uid& action) {
  return protocol_record_key(ProtocolRecord::CoordinatorLog, action);
}

// The decoders: nullopt when `state` is not a record of their kind; a
// malformed payload throws BufferUnderflow.
std::optional<ParticipantTable::Marker> decode_marker(const ObjectState& state) {
  if (state.type_name() != kPreparedMarkerType) return std::nullopt;
  ByteBuffer payload = ByteBuffer::reader(state.state());
  ParticipantTable::Marker marker;
  marker.action = marker_uid(state.uid());
  marker.coordinator = payload.unpack_u32();
  const std::uint32_t n = wire::unpack_count(payload, 20);  // uid + colour name (≥ 4)
  marker.prepared.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Uid object = payload.unpack_uid();
    marker.prepared.emplace_back(object, wire::unpack_colour(payload));
  }
  marker.witnesses = wire::unpack_nodes(payload);
  marker.deltas = wire::unpack_deltas(payload);
  return marker;
}

std::optional<CoordinatorLogParticipant::Record> decode_record(const ObjectState& state) {
  using RecordState = CoordinatorLogParticipant::RecordState;
  if (state.type_name() != kCoordinatorLogType) return std::nullopt;
  ByteBuffer payload = ByteBuffer::reader(state.state());
  CoordinatorLogParticipant::Record record;
  record.state = static_cast<RecordState>(payload.unpack_u8());
  if (record.state == RecordState::Delta) {
    const std::uint32_t n = wire::unpack_count(payload, 8);  // id + entry count
    record.delta_nodes.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const NodeId id = payload.unpack_u32();
      record.delta_nodes.emplace_back(id, wire::unpack_deltas(payload));
    }
  } else {
    record.witnesses = wire::unpack_nodes(payload);
    record.redo_uids = wire::unpack_path(payload);  // a uid list, packed as a path is
  }
  return record;
}

// The op batch `tally` holds for `action`, as a redo entry; nullopt when
// the action has no tally on that object.
std::optional<wire::DeltaEntry> pending_entry(const StateManager::DeltaTally& tally,
                                              const Uid& action) {
  const auto ops = tally.object().pending_delta_ops(action);
  if (!ops) return std::nullopt;
  const auto span = ops->bytes();
  return wire::DeltaEntry{tally.object().uid(), std::vector<std::byte>(span.begin(), span.end())};
}

}  // namespace

Uid protocol_record_key(ProtocolRecord kind, const Uid& action) {
  return Uid(action.hi() ^ kRecordKeyMasks[static_cast<std::size_t>(kind)], action.lo());
}

ParticipantTable::ParticipantTable(Runtime& rt, ObjectResolver resolve)
    : rt_(rt), resolve_(std::move(resolve)) {}

std::shared_ptr<AtomicAction> ParticipantTable::mirror_for(const Uid& action,
                                                           const std::vector<Uid>& path,
                                                           const ColourSet& colours) {
  const std::scoped_lock lock(mutex_);
  auto it = mirrors_.find(action);
  if (it == mirrors_.end()) {
    auto mirror = std::make_shared<Mirror>();
    mirror->action = std::make_shared<AtomicAction>(rt_, AtomicAction::MirrorTag{}, action,
                                                    colours);
    mirror->action->begin_mirror(path);
    it = mirrors_.emplace(action, std::move(mirror)).first;
  } else {
    it->second->action->add_colours(colours);
  }
  return it->second->action;
}

ParticipantTable::Held ParticipantTable::hold(const Uid& action) {
  Held held;
  {
    const std::scoped_lock lock(mutex_);
    auto it = mirrors_.find(action);
    if (it == mirrors_.end()) return held;
    held.mirror = it->second;
  }
  held.lock = std::unique_lock(held.mirror->mutex);
  if (held.mirror->retired) {
    held.lock.unlock();  // a step this one queued behind retired the mirror
    return Held{};
  }
  return held;
}

void ParticipantTable::retire(const Uid& action, Mirror& mirror) {
  mirror.retired = true;
  const std::scoped_lock lock(mutex_);
  mirrors_.erase(action);
}

bool ParticipantTable::has_mirror(const Uid& action) const {
  const std::scoped_lock lock(mutex_);
  return mirrors_.contains(action);
}

std::size_t ParticipantTable::mirror_count() const {
  const std::scoped_lock lock(mutex_);
  return mirrors_.size();
}

void ParticipantTable::write_marker(Runtime& rt, const Marker& marker) {
  ByteBuffer payload;
  payload.pack_u32(marker.coordinator);
  payload.pack_u32(static_cast<std::uint32_t>(marker.prepared.size()));
  for (const auto& [uid, colour] : marker.prepared) {
    payload.pack_uid(uid);
    wire::pack_colour(payload, colour);
  }
  wire::pack_nodes(payload, marker.witnesses);
  wire::pack_deltas(payload, marker.deltas);
  rt.default_store().write(
      ObjectState(marker_uid(marker.action), kPreparedMarkerType, std::move(payload)));
}

std::optional<ParticipantTable::Marker> ParticipantTable::read_marker(Runtime& rt,
                                                                      const Uid& action) {
  const auto state = rt.default_store().read(marker_uid(action));
  return state ? decode_marker(*state) : std::nullopt;
}

void ParticipantTable::drop_marker(const Uid& action) {
  rt_.default_store().remove(marker_uid(action));
}

bool ParticipantTable::prepare(const Uid& action, const std::vector<Colour>& permanent,
                               NodeId coordinator, const std::vector<NodeId>& witnesses,
                               std::vector<wire::HeirInfo> heirs) {
  // Only this action's mirror stays locked across the marker's waited
  // flush: other actions' steps at this node go on meanwhile, and their
  // markers can share the flush.
  const Held held = hold(action);
  if (!held.mirror) {
    // The action's state here was lost (crash) — vote no.
    MCA_LOG(Info, "tpc") << "prepare " << action << ": no mirror, voting no";
    return false;
  }
  Mirror& mirror = *held.mirror;
  mirror.prepared.clear();
  mirror.heirs = std::move(heirs);
  MCA_CRASHPOINT("tpc.participant.prepare.pre_shadow");
  // The marker, written below into the store, covers the shadows (covered
  // prepare, DESIGN.md §5.4): they only queue, and the marker's flush — or
  // the failure path's discards — carries them, so the vote costs one
  // append.
  const ShadowCover cover(rt_.default_store(), /*covered=*/true);
  std::vector<ObjectState> shadows;
  const auto is_permanent = [&](Colour c) {
    return std::find(permanent.begin(), permanent.end(), c) != permanent.end();
  };
  std::vector<wire::DeltaEntry> deltas;
  try {
    for (const Colour c : permanent) {
      // Peek at the records of this colour (extract, then re-adopt: abort
      // must still be able to undo them).
      auto records = mirror.action->extract_records(c);
      for (const UndoRecord& r : records) {
        shadows.push_back(r.object->make_object_state());
        mirror.prepared.emplace_back(r.object->uid(), c);
      }
      mirror.action->adopt_records(std::move(records));
    }
    // The permanent colours' commutative tallies have no shadow: the marker
    // carries their ops.
    for (const auto& p : mirror.action->participants_snapshot()) {
      const auto* tally = dynamic_cast<const StateManager::DeltaTally*>(p.get());
      if (tally == nullptr || !is_permanent(tally->colour())) continue;
      if (auto entry = pending_entry(*tally, action)) deltas.push_back(std::move(*entry));
    }
    cover.write(shadows);
  } catch (const std::exception& e) {
    MCA_LOG(Warn, "tpc") << "prepare " << action << " failed: " << e.what();
    for (const auto& [uid, colour] : mirror.prepared) {
      discard_shadow_best_effort(rt_.default_store(), uid);
    }
    mirror.prepared.clear();
    return false;
  }
  // The classic in-doubt window: shadows written (on a WalStore only
  // queued) but no marker names the coordinator yet. A kill here must come
  // back as a presumed abort with any orphaned shadows swept by
  // discard_unreferenced_shadows().
  MCA_CRASHPOINT("tpc.participant.post_shadow_pre_marker");
  write_marker(rt_, Marker{action, coordinator, mirror.prepared, witnesses, std::move(deltas)});
  MCA_CRASHPOINT("tpc.participant.prepare.post_marker");
  return true;
}

void ParticipantTable::commit(const Uid& action) {
  const Held held = hold(action);
  if (!held.mirror) {
    resolve_in_doubt(action, /*committed=*/true);  // crash after prepare
    return;
  }
  Mirror& mirror = *held.mirror;
  retire(action, mirror);
  MCA_CRASHPOINT("tpc.participant.commit.pre_promote");
  // The inherited colours go to the heirs prepare kept; every other colour
  // of the mirror is permanent.
  std::vector<wire::HeirInfo> heirs = std::move(mirror.heirs);
  for (const Colour c : mirror.action->colours()) {
    if (std::none_of(heirs.begin(), heirs.end(),
                     [&](const wire::HeirInfo& h) { return h.colour == c; })) {
      heirs.emplace_back().colour = c;
    }
  }

  // Pass 1: materialise every heir mirror first, so the mirror-side delta
  // tallies can transfer pending ops to them (a mirror has no parent chain;
  // the resolver below stands in for the kernel's nearest-ancestor walk).
  // The heir's mirror must exist even when no records pass (it may inherit
  // read locks only). No step of an heir runs meanwhile: the coordinator
  // terminates an heir only after this commit is acknowledged.
  std::vector<std::pair<Colour, std::shared_ptr<AtomicAction>>> heir_mirrors;
  for (const wire::HeirInfo& h : heirs) {
    if (h.heir.is_nil()) continue;
    heir_mirrors.emplace_back(h.colour, mirror_for(h.heir, h.heir_path, h.heir_colours));
  }
  const auto heir_for = [&](Colour c) -> AtomicAction* {
    for (const auto& [colour, heir] : heir_mirrors) {
      if (colour == c) return heir.get();
    }
    return nullptr;
  };
  std::vector<ColourDisposition> dispositions;
  dispositions.reserve(heirs.size());
  for (const wire::HeirInfo& h : heirs) dispositions.push_back({h.colour, h.heir});
  mirror.action->set_mirror_heir_resolver(heir_for);
  // Fold (or transfer) the commutative tallies before any lock moves:
  // commit_delta appends the durable chain record, transfer re-notes the
  // pending ops on the heir mirror.
  for (const auto& p : mirror.action->participants_snapshot()) {
    if (auto* tally = dynamic_cast<StateManager::DeltaTally*>(p.get())) {
      tally->commit(action, dispositions);
    }
  }
  mirror.action->set_mirror_heir_resolver(nullptr);

  // Pass 2: promote the permanent colours' shadows and drop the marker,
  // before any lock moves so a later action's writes to these objects are
  // logged behind them. The marker is durable in the store and names the
  // shadows, so the promotions and the marker drop ride its next group
  // commit (lazy phase two): a crash before they land replays to "marker +
  // shadows", which tx.status resolution redoes.
  ShadowCover promotions(rt_.default_store(), /*covered=*/true);
  for (const wire::HeirInfo& h : heirs) {
    if (!h.heir.is_nil()) continue;
    for (const auto& [uid, colour] : mirror.prepared) {
      if (colour == h.colour) promotions.add(uid);
    }
  }
  {
    const DeferDurability lazy;
    promotions.promote();
    MCA_CRASHPOINT("tpc.participant.commit.pre_marker_drop");
    drop_marker(action);
  }
  // Pass 3: move undo records, release/inherit locks.
  for (const wire::HeirInfo& h : heirs) {
    if (h.heir.is_nil()) {
      (void)mirror.action->extract_records(h.colour);  // permanence: records done
      rt_.lock_manager().on_commit_release(action, h.colour);
    } else {
      heir_for(h.colour)->adopt_records(mirror.action->extract_records(h.colour));
      rt_.lock_manager().on_commit_inherit(action, h.colour, h.heir);
    }
  }
  mirror.action->finish_mirror();
}

void ParticipantTable::commit_delta(const Uid& action,
                                    const std::vector<wire::DeltaEntry>& deltas) {
  const Held held = hold(action);
  Mirror* mirror = held.mirror.get();
  if (mirror != nullptr) retire(action, *mirror);
  MCA_CRASHPOINT("tpc.delta.pre_apply");
  if (mirror != nullptr) {
    // Live mirror: its tallies are authoritative (same ops the coordinator
    // shipped); fold them durably, then release every lock. A delta-only
    // action has no shadows, no marker, and no undo records worth keeping —
    // but discard defensively rather than let the mirror's destructor
    // replay them.
    for (const auto& p : mirror->action->participants_snapshot()) {
      if (auto* tally = dynamic_cast<StateManager::DeltaTally*>(p.get())) {
        tally->object().commit_delta(action, nullptr);
      }
    }
    for (const Colour c : mirror->action->colours()) {
      (void)mirror->action->extract_records(c);
      rt_.lock_manager().on_commit_release(action, c);
    }
    mirror->action->finish_mirror();
  } else {
    apply_deltas(action, deltas);  // crash, or a retransmit after the mirror retired
  }
  MCA_CRASHPOINT("tpc.delta.post_apply_pre_ack");
}

void ParticipantTable::apply_deltas(const Uid& action,
                                    const std::vector<wire::DeltaEntry>& deltas) {
  for (const wire::DeltaEntry& d : deltas) {
    if (LockManaged* object = resolve_(d.object)) {
      ByteBuffer ops(d.ops);
      object->commit_delta(action, &ops);
    } else {
      MCA_LOG(Warn, "tpc") << "delta batch for unknown object " << d.object << "; dropped";
    }
  }
}

void ParticipantTable::abort(const Uid& action) {
  const Held held = hold(action);
  if (!held.mirror) {
    resolve_in_doubt(action, /*committed=*/false);
    return;
  }
  Mirror& mirror = *held.mirror;
  retire(action, mirror);
  MCA_CRASHPOINT("tpc.participant.abort.pre_discard");
  for (const auto& [uid, colour] : mirror.prepared) rt_.default_store().discard_shadow(uid);
  MCA_CRASHPOINT("tpc.participant.abort.pre_marker_drop");
  drop_marker(action);
  mirror.action->abort();
}

void ParticipantTable::drop_mirrors() {
  std::unordered_map<Uid, std::shared_ptr<Mirror>> dropped;
  {
    const std::scoped_lock lock(mutex_);
    dropped.swap(mirrors_);
  }
  for (auto& [uid, mirror] : dropped) {
    const std::scoped_lock lock(mirror->mutex);
    mirror->retired = true;
    try {
      mirror->action->finish_mirror();  // not Running any more: dtor won't abort
    } catch (const std::logic_error&) {
      // Already finished by a concurrent resolution; nothing to disown.
    }
  }
}

void ParticipantTable::crash() {
  // Volatile state vanishes; markers and shadows stay in the stable store
  // for recovery. Mirrors are dropped without aborting: the lock manager is
  // cleared separately and the objects' memory is reset by the node. A step
  // in flight finishes first; one still queued for its mirror finds it
  // retired.
  std::unordered_map<Uid, std::shared_ptr<Mirror>> lost;
  {
    const std::scoped_lock lock(mutex_);
    lost.swap(mirrors_);
  }
  for (auto& [uid, mirror] : lost) {
    const std::scoped_lock lock(mirror->mutex);
    mirror->retired = true;
  }
}

std::vector<ParticipantTable::Marker> ParticipantTable::in_doubt() const {
  std::vector<Marker> out;
  for (const Uid& uid : rt_.default_store().uids()) {
    const auto state = rt_.default_store().read(uid);
    if (!state) continue;
    if (auto marker = decode_marker(*state)) out.push_back(std::move(*marker));
  }
  return out;
}

std::size_t ParticipantTable::discard_unreferenced_shadows() {
  // Collect every object uid referenced by a surviving prepared marker, plus
  // the redo lists of this node's own coordinator-log records: a sealed (or
  // still-pending) record's shadows must stay until reconciliation promotes
  // or discards them with the record's outcome.
  std::unordered_set<Uid> referenced;
  for (const Uid& uid : rt_.default_store().uids()) {
    const auto state = rt_.default_store().read(uid);
    if (!state) continue;
    if (const auto record = decode_record(*state)) {
      referenced.insert(record->redo_uids.begin(), record->redo_uids.end());
    } else if (const auto marker = decode_marker(*state)) {
      for (const auto& [object, colour] : marker->prepared) referenced.insert(object);
    }
  }
  std::size_t dropped = 0;
  for (const Uid& shadow : rt_.default_store().shadow_uids()) {
    if (!referenced.contains(shadow)) {
      rt_.default_store().discard_shadow(shadow);
      ++dropped;
    }
  }
  return dropped;
}

void ParticipantTable::resolve_in_doubt(const Uid& action, bool committed) {
  const auto marker = read_marker(rt_, action);
  if (!marker) return;
  for (const auto& [object, colour] : marker->prepared) {
    if (committed) {
      rt_.default_store().commit_shadow(object);
      if (LockManaged* obj = resolve_(object)) obj->invalidate_activation();
    } else {
      rt_.default_store().discard_shadow(object);
    }
  }
  if (committed) apply_deltas(action, marker->deltas);
  // Applying the outcome and dropping the marker are not atomic together; a
  // kill between them must leave recovery able to re-resolve idempotently.
  MCA_CRASHPOINT("tpc.participant.resolve.post_apply_pre_marker_drop");
  drop_marker(action);
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

RpcParticipant::RpcParticipant(DistNode& local, NodeId target, AtomicAction& owner)
    : local_(local), target_(target), owner_(owner) {}

std::string RpcParticipant::key_for(NodeId target) { return "node:" + std::to_string(target); }

std::shared_ptr<RpcParticipant> RpcParticipant::enlist(DistNode& local, NodeId target,
                                                       AtomicAction& action) {
  // The coordinator log writes its decision record into the node's store,
  // which covers the kernel's shadows only when they are in the same store.
  if (&action.runtime() != &local.runtime()) {
    throw std::logic_error("enlist: action " + action.uid().to_string() +
                           " belongs to another runtime");
  }
  if (!action.has_participant("coordlog")) {
    action.add_participant(std::make_shared<CoordinatorLogParticipant>(local), "coordlog");
  }
  if (auto log = std::dynamic_pointer_cast<CoordinatorLogParticipant>(
          action.participant("coordlog"))) {
    log->set_owner(action);
  }
  const std::string key = key_for(target);
  auto participant = std::dynamic_pointer_cast<RpcParticipant>(action.participant(key));
  if (participant == nullptr) {
    action.add_participant(std::make_shared<RpcParticipant>(local, target, action), key);
    // Re-fetch instead of trusting our instance: a concurrent registration
    // for the same node may have won the keyed dedup, and only the
    // registered participant is driven at termination (so only it may carry
    // the armed flag).
    participant = std::dynamic_pointer_cast<RpcParticipant>(action.participant(key));
  }
  return participant;
}

void RpcParticipant::note_delta_batch(const Uid& object, std::vector<std::byte> ops) {
  const std::scoped_lock lock(delta_mutex_);
  deltas_[object] = std::move(ops);
}

std::vector<wire::DeltaEntry> RpcParticipant::delta_entries() const {
  const std::scoped_lock lock(delta_mutex_);
  std::vector<wire::DeltaEntry> out;
  out.reserve(deltas_.size());
  for (const auto& [object, ops] : deltas_) out.push_back({object, ops});
  return out;
}

TerminationParticipant::Pending RpcParticipant::start_delta(const Uid& action) {
  if (!armed_.load()) {
    // Same cleanup duty the unarmed prepare branch has: nothing durable to
    // apply remotely, but a best-effort abort sweeps any orphaned execution.
    Pending cleanup = start_abort(action);
    delta_acked_.store(true);
    return cleanup;
  }
  ByteBuffer args;
  args.pack_uid(action);
  wire::pack_deltas(args, delta_entries());
  // The server applies the batch idempotently (chain dedup). An unacked
  // batch stays in the coordinator-log Delta record, which reconciliation
  // re-ships once the commit has returned.
  return deliver("tx.delta", std::move(args), [this, action](bool acked) {
    if (acked) {
      delta_acked_.store(true);
    } else {
      MCA_LOG(Warn, "tpc") << "delta commit " << action << " to node " << target_
                           << " undelivered; coordinator log keeps the redo batch";
    }
  });
}

TerminationParticipant::Pending RpcParticipant::deliver(const char* service, ByteBuffer args,
                                                        std::function<void(bool)> done) {
  RpcFuture fut = local_.rpc().call_async(
      target_, service, std::move(args),
      CallOptions{local_.tpc_call_timeout(), std::chrono::milliseconds(100)});
  return Pending{[fut, done = std::move(done)] {
                   done(fut.get().ok());
                   return true;
                 },
                 [fut] { fut.cancel(); },
                 [fut](std::function<void(bool)> fn) {
                   fut.on_complete([fn = std::move(fn)](const RpcResult&) { fn(true); });
                 }};
}

TerminationParticipant::Pending RpcParticipant::start_prepare(
    const Uid& action, const std::vector<Colour>& permanent) {
  if (!armed_.load()) {
    // No server-side state to vote over: vote yes immediately and send a
    // best-effort abort to clean any orphaned execution. The cleanup rides
    // in the Pending so the caller drains it before phase two.
    Pending cleanup = start_abort(action);
    return Pending{[wait = std::move(cleanup.wait)] {
                     if (wait) (void)wait();
                     return true;
                   },
                   std::move(cleanup.cancel),
                   [](std::function<void(bool)> fn) { fn(true); }};
  }
  // Ship the coordinator log's witness list so the participant's prepared
  // marker can name who else may know the outcome if we die.
  std::vector<NodeId> witnesses;
  if (auto log = std::dynamic_pointer_cast<CoordinatorLogParticipant>(
          owner_.participant("coordlog"))) {
    witnesses = log->witnesses();
  }
  // The inherited colours' heirs travel with the vote request, so the
  // participant commits them the same way whether it is told the outcome
  // or asks for it.
  std::vector<wire::HeirInfo> heirs;
  for (const Colour c : owner_.colours()) {
    const AtomicAction* heir = owner_.nearest_ancestor_with(c);
    if (heir == nullptr) continue;  // permanent
    heirs.push_back({c, heir->uid(), owner_.runtime().ancestry().path_of(heir->uid()),
                     heir->colours()});
  }
  ByteBuffer args;
  args.pack_uid(action);
  args.pack_u32(local_.id());
  args.pack_u32(static_cast<std::uint32_t>(permanent.size()));
  for (const Colour c : permanent) wire::pack_colour(args, c);
  wire::pack_nodes(args, witnesses);
  wire::pack_heirs(args, heirs);
  RpcFuture fut = local_.rpc().call_async(
      target_, "tx.prepare", std::move(args),
      CallOptions{local_.tpc_call_timeout(), std::chrono::milliseconds(100)});
  const auto interpret = [](const RpcResult& r) {
    if (!r.ok()) return false;
    ByteBuffer payload = r.payload;
    return payload.unpack_bool();
  };
  return Pending{[fut, interpret] { return interpret(fut.get()); },
                 [fut] { fut.cancel(); },
                 [fut, interpret](std::function<void(bool)> fn) {
                   fut.on_complete(
                       [fn = std::move(fn), interpret](const RpcResult& r) { fn(interpret(r)); });
                 }};
}

TerminationParticipant::Pending RpcParticipant::start_commit(
    const Uid& action, const std::vector<ColourDisposition>& dispositions) {
  if (!armed_.load()) return Pending{};
  for (const ColourDisposition& d : dispositions) {
    if (d.heir.is_nil()) continue;
    AtomicAction* heir_action = owner_.nearest_ancestor_with(d.colour);
    if (heir_action == nullptr) continue;
    // The heir inherits responsibility for this node: give it a
    // participant (and a coordinator log) of its own.
    const auto heir_participant = enlist(local_, target_, *heir_action);
    // The heir now owns server-side state (the inherited mirror) —
    // including any undo records the mirror passes along, which the
    // client cannot see. The heir must therefore never take the
    // delta-only fast path on this node's behalf.
    heir_participant->note_success();
    heir_participant->note_classical();
  }

  // The participant got everything else at prepare.
  ByteBuffer args;
  args.pack_uid(action);

  // Fires once per remote participant: armed with skip=k, the coordinator
  // dies having fanned the outcome out to exactly k participants.
  MCA_CRASHPOINT("tpc.coord.commit.pre_send");
  // A participant this exchange misses still holds its prepared marker, so
  // its recovery pass pulls the outcome with tx.status.
  return deliver("tx.commit", std::move(args), [this, action](bool acked) {
    if (!acked) {
      MCA_LOG(Warn, "tpc") << "commit " << action << " to node " << target_
                           << " undelivered; participant recovery will resolve it";
    }
  });
}

TerminationParticipant::Pending RpcParticipant::start_abort(const Uid& action) {
  MCA_CRASHPOINT("tpc.coord.abort.pre_send");
  ByteBuffer args;
  args.pack_uid(action);
  // Presumed abort makes best-effort delivery sufficient; keep attempts
  // short so aborting against a crashed node is cheap.
  const CallOptions options{std::chrono::milliseconds(300), std::chrono::milliseconds(100)};
  const int attempts = armed_.load() ? 3 : 1;
  RpcFuture fut = local_.rpc().call_async(target_, "tx.abort", args, options);
  auto cancelled = std::make_shared<std::atomic<bool>>(false);
  auto wait = [this, fut, args = std::move(args), options, cancelled, attempts]() mutable {
    RpcResult r = fut.get();
    for (int attempt = 1; !r.ok() && attempt < attempts && !cancelled->load(); ++attempt) {
      r = local_.rpc().call(target_, "tx.abort", args, options);
    }
    return true;
  };
  return Pending{std::move(wait),
                 [fut, cancelled] {
                   cancelled->store(true);
                   fut.cancel();
                 },
                 [fut](std::function<void(bool)> fn) {
                   fut.on_complete([fn = std::move(fn)](const RpcResult&) { fn(true); });
                 }};
}

CoordinatorLogParticipant::CoordinatorLogParticipant(DistNode& node)
    : rt_(node.runtime()), node_(node) {
  record_.witnesses = node.coordinator_mirrors();
}

bool CoordinatorLogParticipant::decide_commit(const Uid& action,
                                              const std::vector<Uid>& prepared_objects) {
  record_.redo_uids = prepared_objects;
  // Witness-less mode skips straight to the sealed write: one durable write
  // is the whole decision, the store flush order the crash sweep pins down
  // for the unmirrored protocol.
  if (!record_.witnesses.empty()) {
    record_.state = RecordState::Pending;
    write_record(rt_, action, record_);
    // A coordinator dying in this window left a pending record and zero-or-
    // more mirrors: participants resolve from the witnesses (copy anywhere →
    // commit; all fenced → abort), and restart reconciliation does the same.
    MCA_CRASHPOINT("tpc.coord.post_log_pre_mirror");

    ByteBuffer args;
    args.pack_uid(action);
    const CallOptions options{node_.tpc_call_timeout(), std::chrono::milliseconds(100)};
    std::size_t acks = 0;
    for (const NodeId w : record_.witnesses) {
      // Fires once per witness: armed with skip=k, the coordinator dies
      // having mirrored the decision to exactly k witnesses.
      MCA_CRASHPOINT("tpc.coord.mirror.pre_send");
      RpcResult r = node_.rpc().call(w, "tx.mirror", args, options);
      if (!r.ok()) continue;
      ByteBuffer payload = r.payload;
      if (!payload.unpack_bool()) ++acks;  // false = not fenced: decision recorded
    }
    if (acks == 0) {
      // No mirror holds the decision, so a recovering participant that
      // fences every witness will presume abort — the only decision still
      // consistent with that verdict is to abort ourselves. Sound because
      // nothing has been promoted anywhere yet.
      remove_record(rt_, action);
      MCA_LOG(Warn, "tpc") << "commit " << action
                           << ": no witness acknowledged the decision record — aborting";
      return false;
    }
  }
  record_.state = RecordState::Sealed;
  write_record(rt_, action, record_);
  decided_ = true;
  return true;
}

bool CoordinatorLogParticipant::promote_covered(const Uid& action,
                                                const ShadowCover& promotions) {
  if (!decided_) return false;
  // The sealed record is durable in the default store and names these
  // shadows: a crash before the writes below land replays to "Sealed record
  // + shadows", which restart reconciliation redoes. So none of them waits.
  const DeferDurability lazy;
  promotions.promote();
  // Retire the redo list so this record can never promote a *later*
  // action's shadow on the same object during restart reconciliation.
  if (!record_.redo_uids.empty()) {
    record_.state = RecordState::Applied;
    record_.redo_uids.clear();
    write_record(rt_, action, record_);
  }
  return true;
}

void CoordinatorLogParticipant::commit(const Uid&, const std::vector<ColourDisposition>&) {
  // The decision is durable but no participant has heard it: every remote
  // mirror is in doubt and only recovery-vs-the-log can finish the commit.
  MCA_CRASHPOINT("tpc.coord.post_log_pre_phase2");
}

bool CoordinatorLogParticipant::decide_delta(const Uid& action) {
  AtomicAction* owner = owner_.load(std::memory_order_relaxed);
  if (owner == nullptr) return false;  // no participant view: fall back
  // Gather every node's batch: armed remote participants carry the op
  // batches the servers shipped back per invoke; local delta tallies are
  // read straight off their objects.
  Record record;
  record.state = RecordState::Delta;
  std::vector<wire::DeltaEntry> local;
  std::size_t remote_armed = 0;
  for (const auto& p : owner->participants_snapshot()) {
    if (const auto* rpc = dynamic_cast<const RpcParticipant*>(p.get())) {
      if (!rpc->armed()) continue;
      ++remote_armed;
      record.delta_nodes.emplace_back(rpc->target(), rpc->delta_entries());
    } else if (const auto* tally = dynamic_cast<const StateManager::DeltaTally*>(p.get())) {
      if (auto entry = pending_entry(*tally, action)) local.push_back(std::move(*entry));
    }
  }
  if (remote_armed == 0 && local.size() <= 1) {
    // Single-site, single-chain commit: the one durable append start_delta
    // folds is atomic by itself; a record would only add a second write.
    delta_logged_ = false;
    return true;
  }
  if (!local.empty()) record.delta_nodes.emplace_back(node_.id(), std::move(local));
  // The record is the redo source for a coordinator crash mid-fan-out. It
  // is deliberately NOT witness-mirrored: it carries redo batches, not a
  // commit-vs-abort verdict — no participant is ever in doubt about a
  // delta action (there are no prepared markers), so only this node's own
  // restart reconciliation ever reads it.
  write_record(rt_, action, record);
  delta_logged_ = true;
  return true;
}

void CoordinatorLogParticipant::finish_delta(const Uid& action) {
  AtomicAction* owner = owner_.load(std::memory_order_relaxed);
  if (!delta_logged_ || owner == nullptr) return;
  for (const auto& p : owner->participants_snapshot()) {
    if (const auto* rpc = dynamic_cast<const RpcParticipant*>(p.get())) {
      if (rpc->armed() && !rpc->delta_acked()) return;  // reconciliation re-ships
    }
  }
  remove_record(rt_, action);
}

bool CoordinatorLogParticipant::committed(Runtime& rt, const Uid& action) {
  return logged_status(rt, action) == TxStatus::Committed;
}

TxStatus CoordinatorLogParticipant::logged_status(Runtime& rt, const Uid& action) {
  auto rec = read_record(rt, action);
  if (!rec) return TxStatus::Aborted;
  return rec->state == RecordState::Pending ? TxStatus::Pending : TxStatus::Committed;
}

void CoordinatorLogParticipant::write_record(Runtime& rt, const Uid& action,
                                             const Record& record) {
  ByteBuffer payload;
  payload.pack_u8(static_cast<std::uint8_t>(record.state));
  if (record.state == RecordState::Delta) {
    payload.pack_u32(static_cast<std::uint32_t>(record.delta_nodes.size()));
    for (const auto& [id, entries] : record.delta_nodes) {
      payload.pack_u32(id);
      wire::pack_deltas(payload, entries);
    }
  } else {
    wire::pack_nodes(payload, record.witnesses);
    wire::pack_path(payload, record.redo_uids);
  }
  rt.default_store().write(
      ObjectState(log_uid(action), kCoordinatorLogType, std::move(payload)));
}

std::optional<CoordinatorLogParticipant::Record> CoordinatorLogParticipant::read_record(
    Runtime& rt, const Uid& action) {
  const auto state = rt.default_store().read(log_uid(action));
  return state ? decode_record(*state) : std::nullopt;
}

void CoordinatorLogParticipant::remove_record(Runtime& rt, const Uid& action) {
  rt.default_store().remove(log_uid(action));
}

std::vector<Uid> CoordinatorLogParticipant::logged_actions(Runtime& rt) {
  std::vector<Uid> out;
  for (const Uid& uid : rt.default_store().uids()) {
    auto state = rt.default_store().read(uid);
    if (state && state->type_name() == kCoordinatorLogType) {
      out.push_back(log_uid(uid));  // the key derivation is its own inverse
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Witness side
// ---------------------------------------------------------------------------

// Both witness records are empty: the key and the type are the record.

bool WitnessLog::record_decision(Runtime& rt, const Uid& action) {
  if (has_tombstone(rt, action)) return false;
  rt.default_store().write(ObjectState(protocol_record_key(ProtocolRecord::WitnessCopy, action),
                                       kMirrorDecisionType, ByteBuffer{}));
  return true;
}

TxStatus WitnessLog::status_or_fence(Runtime& rt, const Uid& action) {
  if (has_decision(rt, action)) return TxStatus::Committed;
  // The fence: from here on this witness permanently refuses the decision
  // record, so "all witnesses fenced" can never later coexist with "a copy
  // exists somewhere".
  rt.default_store().write(ObjectState(
      protocol_record_key(ProtocolRecord::WitnessTombstone, action), kMirrorTombstoneType,
      ByteBuffer{}));
  return TxStatus::Aborted;
}

bool WitnessLog::has_decision(Runtime& rt, const Uid& action) {
  const auto state =
      rt.default_store().read(protocol_record_key(ProtocolRecord::WitnessCopy, action));
  return state.has_value() && state->type_name() == kMirrorDecisionType;
}

bool WitnessLog::has_tombstone(Runtime& rt, const Uid& action) {
  const auto state =
      rt.default_store().read(protocol_record_key(ProtocolRecord::WitnessTombstone, action));
  return state.has_value() && state->type_name() == kMirrorTombstoneType;
}

}  // namespace mca
