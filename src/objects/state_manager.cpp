#include "objects/state_manager.h"

#include "common/checksum.h"
#include "common/logging.h"
#include "sim/crash_points.h"

namespace mca {
namespace {

// Frames of the delta machinery: the base payload of a delta-logged type
// ("MCB1") and the CRC-32C-checked op bytes inside a chain record ("MCD2").
// A chain record with the CRC-32 "MCD1" frame could only come from a WAL in
// the CRC-32 format, which WalStore refuses to open.
constexpr std::uint32_t kDeltaBaseMagic = 0x3142434DU;   // 'MCB1' little-endian
constexpr std::uint32_t kDeltaFrameMagic = 0x3244434DU;  // 'MCD2' little-endian

}  // namespace

StateManager::StateManager(Runtime& rt) : rt_(rt) {}

StateManager::StateManager(Runtime& rt, const Uid& uid) : rt_(rt), uid_(uid) {}

void StateManager::ensure_activated() {
  const std::scoped_lock lock(activation_mutex_);
  if (activated_) return;
  activate_locked();
}

void StateManager::activate_locked() {
  if (auto committed = rt_.default_store().read(uid_)) {
    // Read through a non-owning cursor: the decoded state lives in
    // `committed` for the duration, so no second copy is needed.
    ByteBuffer cursor = ByteBuffer::reader(committed->state());
    if (delta_logged()) {
      // Framed base payload: [magic][epoch][recent action uids][type
      // payload]. A state written before the type was delta-logged lacks
      // the magic and decodes as a bare type payload under epoch 1.
      bool framed = false;
      if (cursor.remaining() >= sizeof(std::uint32_t)) {
        if (cursor.unpack_u32() == kDeltaBaseMagic) {
          framed = true;
        } else {
          cursor.rewind();
        }
      }
      if (framed) {
        delta_epoch_ = cursor.unpack_u64();
        const std::uint32_t n = cursor.unpack_u32();
        for (std::uint32_t i = 0; i < n; ++i) remember_applied_locked(cursor.unpack_uid());
      }
    }
    restore_state(cursor);
  }
  if (delta_logged()) replay_chain_locked();
  activated_ = true;
}

void StateManager::replay_chain_locked() {
  for (std::uint64_t seq = 1;; ++seq) {
    const auto rec = rt_.default_store().read(delta_record_uid(uid_, seq));
    if (!rec || rec->type_name() != kDeltaRecordType) break;
    ByteBuffer cursor = ByteBuffer::reader(rec->state());
    try {
      const std::uint64_t epoch = cursor.unpack_u64();
      const std::uint64_t rec_seq = cursor.unpack_u64();
      const Uid action = cursor.unpack_uid();
      const std::uint32_t magic = cursor.unpack_u32();
      const std::uint32_t crc = cursor.unpack_u32();
      const std::vector<std::byte> ops = cursor.unpack_bytes();
      // A stale-epoch record is debris of an interrupted compaction; a bad
      // frame is a torn append. Either way the chain ends here. (The record
      // key already binds the object: it was read at delta_record_uid(uid_,
      // seq), so the payload does not repeat the object uid.)
      if (epoch != delta_epoch_ || rec_seq != seq || magic != kDeltaFrameMagic ||
          crc32c(ops) != crc) {
        break;
      }
      if (!delta_applied_.contains(action)) {
        ByteBuffer ops_cursor = ByteBuffer::reader(ops);
        apply_delta_ops(ops_cursor);
      }
      remember_applied_locked(action);
    } catch (const BufferUnderflow&) {
      break;
    }
    delta_next_seq_ = seq + 1;
  }
}

void StateManager::remember_applied_locked(const Uid& action) {
  delta_applied_.insert(action);
  delta_recent_.push_back(action);
  while (delta_recent_.size() > kDeltaRecentCap) delta_recent_.pop_front();
}

bool StateManager::activated() const {
  const std::scoped_lock lock(activation_mutex_);
  return activated_;
}

ByteBuffer StateManager::snapshot_state() const {
  ByteBuffer out;
  save_state(out);
  return out;
}

void StateManager::apply_state(const ByteBuffer& snapshot) {
  // restore_state wants a mutable unpack cursor, not mutable bytes: a
  // non-owning view gives it one without copying the whole snapshot on
  // every activation, undo, or replay.
  ByteBuffer cursor = ByteBuffer::reader(snapshot);
  restore_state(cursor);
}

ObjectState StateManager::make_object_state() const {
  if (!delta_logged()) return ObjectState(uid_, type_name(), snapshot_state());
  const std::scoped_lock lock(activation_mutex_);
  return ObjectState(uid_, type_name(), base_payload_locked(delta_epoch_));
}

ByteBuffer StateManager::base_payload_locked(std::uint64_t epoch) const {
  ByteBuffer out;
  out.pack_u32(kDeltaBaseMagic);
  out.pack_u64(epoch);
  out.pack_u32(static_cast<std::uint32_t>(delta_recent_.size()));
  for (const Uid& a : delta_recent_) out.pack_uid(a);
  save_state(out);
  return out;
}

void StateManager::invalidate_activation() {
  const std::scoped_lock lock(activation_mutex_);
  activated_ = false;
  delta_epoch_ = 1;
  delta_next_seq_ = 1;
  delta_applied_.clear();
  delta_recent_.clear();
  on_invalidate();
}

// -- commutative delta log -----------------------------------------------------

Uid StateManager::delta_record_uid(const Uid& object, std::uint64_t seq) {
  // Each chain slot gets a distinct, stable uid derived from the object's:
  // flip the high half with a magic, mix the sequence into the low half.
  return Uid(object.hi() ^ 0x4D43415F444C5441ULL,  // "MCA_DLTA"
             object.lo() ^ (0x9E3779B97F4A7C15ULL * seq));
}

void StateManager::apply_delta_ops(ByteBuffer& ops) {
  (void)ops;
  throw std::logic_error("apply_delta_ops: type " + type_name() + " is not delta-logged");
}

void StateManager::transfer_pending(const Uid& from, AtomicAction& heir, Colour colour) {
  (void)from;
  (void)heir;
  (void)colour;
}

void StateManager::note_delta(AtomicAction& action, Colour colour) {
  const std::string key = "delta:" + uid_.to_string();
  if (action.has_participant(key)) return;
  action.add_participant(std::make_shared<DeltaTally>(*this, action, colour), key);
}

bool StateManager::commit_delta(const Uid& action, const ByteBuffer* shipped) {
  ensure_activated();
  const std::scoped_lock lock(activation_mutex_);
  if (!delta_logged()) {
    throw std::logic_error("commit_delta: type " + type_name() + " is not delta-logged");
  }
  if (delta_applied_.contains(action)) {
    drop_pending(action);
    return false;
  }
  std::optional<ByteBuffer> ops = fold_pending(action);
  if (!ops && shipped != nullptr) {
    ByteBuffer cursor = ByteBuffer::reader(*shipped);
    apply_delta_ops(cursor);
    const auto bytes = shipped->bytes();
    ops = ByteBuffer(std::vector<std::byte>(bytes.begin(), bytes.end()));
  }
  if (!ops) return false;
  append_delta_locked(action, *ops);
  remember_applied_locked(action);
  maybe_compact_locked();
  return true;
}

void StateManager::append_delta_locked(const Uid& action, const ByteBuffer& ops) {
  ByteBuffer payload;
  payload.pack_u64(delta_epoch_);
  payload.pack_u64(delta_next_seq_);
  payload.pack_uid(action);
  payload.pack_u32(kDeltaFrameMagic);
  payload.pack_u32(crc32c(ops.bytes()));
  payload.pack_bytes(ops.bytes());
  // The in-memory state already carries the delta; a kill in this window
  // loses only volatile memory, and the client's retransmit (not deduped —
  // the record never landed) re-applies it after recovery.
  MCA_CRASHPOINT("store.delta.mid_append");
  rt_.default_store().write(
      ObjectState(delta_record_uid(uid_, delta_next_seq_), kDeltaRecordType, std::move(payload)));
  ++delta_next_seq_;
}

void StateManager::maybe_compact_locked() {
  if (delta_next_seq_ - 1 < kDeltaCompactEvery) return;
  const std::uint64_t old_len = delta_next_seq_ - 1;
  const std::uint64_t new_epoch = delta_epoch_ + 1;
  ObjectStore& store = rt_.default_store();
  try {
    // The epoch bump in the base write makes this crash-safe: once it lands,
    // the old-epoch chain records are ignored by replay whether or not the
    // removals below ever run; if it fails, the old base + full chain are
    // still intact and the chain simply keeps growing.
    store.write(ObjectState(uid_, type_name(), base_payload_locked(new_epoch)));
  } catch (const std::exception& e) {
    MCA_LOG(Warn, "state") << "delta compaction of " << uid_ << " failed (" << e.what()
                           << "); chain keeps growing";
    return;
  }
  delta_epoch_ = new_epoch;
  delta_next_seq_ = 1;
  delta_applied_.clear();
  for (const Uid& a : delta_recent_) delta_applied_.insert(a);
  try {
    for (std::uint64_t seq = 1; seq <= old_len; ++seq) store.remove(delta_record_uid(uid_, seq));
  } catch (const std::exception& e) {
    MCA_LOG(Warn, "state") << "delta chain cleanup of " << uid_ << " failed (" << e.what()
                           << "); stale records are epoch-fenced";
  }
}

bool StateManager::delta_applied(const Uid& action) const {
  const std::scoped_lock lock(activation_mutex_);
  return delta_applied_.contains(action);
}

std::uint64_t StateManager::delta_chain_length() const {
  const std::scoped_lock lock(activation_mutex_);
  return delta_next_seq_ - 1;
}

// -- DeltaTally ----------------------------------------------------------------

void StateManager::DeltaTally::commit(const Uid& action,
                                      const std::vector<ColourDisposition>& dispositions) {
  for (const ColourDisposition& d : dispositions) {
    if (d.colour != colour_) continue;
    if (d.heir.is_nil()) {
      object_.commit_delta(action, nullptr);
    } else if (AtomicAction* heir = owner_.nearest_ancestor_with(colour_)) {
      object_.transfer_pending(action, *heir, colour_);
    } else {
      MCA_LOG(Error, "delta") << "heir action for colour " << colour_.name()
                              << " not reachable; folding tally of " << object_.uid();
      object_.commit_delta(action, nullptr);
    }
    return;
  }
  // The tally's colour was not among the action's dispositions — cannot
  // happen for a well-formed action, but fold rather than lose the delta.
  object_.commit_delta(action, nullptr);
}

void StateManager::DeltaTally::abort(const Uid& action) {
  // Type-specific recovery: compensate by discarding the tally (the
  // semantic inverse of the tallied operations).
  object_.drop_pending(action);
}

TerminationParticipant::Pending StateManager::DeltaTally::start_delta(const Uid& action) {
  object_.commit_delta(action, nullptr);
  return Pending{};
}

}  // namespace mca
