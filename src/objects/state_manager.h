// StateManager: base class of persistent, recoverable objects.
//
// Mirrors Arjuna's class of the same name (§2, §6). A concrete object
// derives from LockManaged (below StateManager in the hierarchy), provides
// save_state/restore_state/type_name, and brackets every mutator with a
// write lock plus modified(), every observer with a read lock. The action
// kernel then gives the object the serializability, failure atomicity and
// permanence properties of whatever (coloured) action system it is used in.
//
// An object lives in its runtime's default store; its committed state is
// loaded from the store on first access ("activation") and new states are
// written back when an outermost-in-colour action commits.
//
// Delta-logged types (DESIGN.md §5.9) opt out of the snapshot/undo protocol
// entirely: mutators tally per-action operations (registered here as a
// DeltaTally termination participant), abort compensates by dropping the
// tally, and commit appends one small CRC-framed delta record to the store
// instead of rewriting the full ObjectState. Activation replays the record
// chain over the last full base state; every record carries the committing
// action's uid, so a retransmitted one-phase commit applies at most once.
#pragma once

#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>

#include "core/atomic_action.h"
#include "core/runtime.h"
#include "storage/object_state.h"

namespace mca {

class StateManager {
 public:
  // A brand-new persistent object, stored in the runtime's default store.
  explicit StateManager(Runtime& rt);

  // Re-binds to an existing persistent object; its committed state is loaded
  // from the store on first access.
  StateManager(Runtime& rt, const Uid& uid);

  virtual ~StateManager() = default;
  StateManager(const StateManager&) = delete;
  StateManager& operator=(const StateManager&) = delete;

  [[nodiscard]] const Uid& uid() const { return uid_; }
  [[nodiscard]] Runtime& runtime() const { return rt_; }

  // -- state mapping provided by concrete classes ------------------------------

  [[nodiscard]] virtual std::string type_name() const = 0;
  virtual void save_state(ByteBuffer& out) const = 0;
  virtual void restore_state(ByteBuffer& in) = 0;

  // -- kernel services ---------------------------------------------------------

  // Loads the committed state from the store the first time the object is
  // touched (no-op when the store has none: the object keeps its
  // constructed state). Delta-logged types additionally replay their delta
  // chain over the base state.
  void ensure_activated();
  [[nodiscard]] bool activated() const;

  // Serialises the current in-memory state.
  [[nodiscard]] ByteBuffer snapshot_state() const;

  // Overwrites the in-memory state from a snapshot (undo). Reads through a
  // non-owning cursor — the snapshot is not copied.
  void apply_state(const ByteBuffer& snapshot);

  // The current state packaged for a store write. For a delta-logged type
  // this is the framed base payload (epoch + recent action uids + type
  // payload) under the current epoch; writing it without bumping the epoch
  // is only sound from the compaction path.
  [[nodiscard]] ObjectState make_object_state() const;

  // Drops the activation flag so the next access reloads from the store —
  // used by crash simulation to model loss of volatile memory. Also resets
  // the delta-chain bookkeeping and (via on_invalidate) uncommitted tallies.
  void invalidate_activation();

  // -- commutative delta log (DESIGN.md §5.9) ----------------------------------

  // Type hook: true for operation-logged commutative types. Such types must
  // never take the note_modified/undo-record path — their recovery is
  // operation compensation and their permanence is the delta chain (a full
  // ObjectState write that does not bump the epoch would be replayed over).
  [[nodiscard]] virtual bool delta_logged() const { return false; }

  // Encoded ops of `action`'s live tally on this object — shipped to remote
  // callers so a one-phase commit can replay them after a participant crash.
  // nullopt when the action has no tally here.
  [[nodiscard]] virtual std::optional<ByteBuffer> pending_delta_ops(const Uid& action) const {
    (void)action;
    return std::nullopt;
  }

  // Durable, idempotent delta commit: folds the live tally when one exists
  // (authoritative — it includes every op the action performed here), else
  // applies `shipped`; either way appends one CRC-framed chain record
  // carrying `action`. Returns false when the action was already applied
  // (retransmit dedup) or there was nothing to apply.
  bool commit_delta(const Uid& action, const ByteBuffer* shipped);

  // True when `action`'s delta has already been durably applied here.
  [[nodiscard]] bool delta_applied(const Uid& action) const;

  // Records appended since the last compaction (test/bench introspection).
  [[nodiscard]] std::uint64_t delta_chain_length() const;

  // A full base write supersedes this many chain records.
  static constexpr std::uint64_t kDeltaCompactEvery = 64;
  // Recently-applied action uids the base state retains, bounding how far
  // back retransmit dedup reaches across a compaction or restart.
  static constexpr std::size_t kDeltaRecentCap = 32;

  static constexpr const char* kDeltaRecordType = "__mca_delta__";
  [[nodiscard]] static Uid delta_record_uid(const Uid& object, std::uint64_t seq);

  // The shared termination participant of every delta-logged type: one per
  // (object, action), registered by the first mutation. Abort compensates
  // (drops the tally), commit folds outermost-in-colour or transfers the
  // tally to the heir, and the one-phase fast path folds via start_delta.
  class DeltaTally final : public TerminationParticipant {
   public:
    DeltaTally(StateManager& object, AtomicAction& owner, Colour colour)
        : object_(object), owner_(owner), colour_(colour) {}

    [[nodiscard]] StateManager& object() const { return object_; }
    [[nodiscard]] Colour colour() const { return colour_; }

    void commit(const Uid& action, const std::vector<ColourDisposition>& dispositions) override;
    void abort(const Uid& action) override;

    [[nodiscard]] bool delta_only(const Uid&) const override { return true; }
    Pending start_delta(const Uid& action) override;

   private:
    StateManager& object_;
    AtomicAction& owner_;
    Colour colour_;
  };

 protected:
  // -- hooks for delta-logged types --------------------------------------------

  // Apply one encoded op sequence to the committed in-memory state (chain
  // replay and shipped-batch application).
  virtual void apply_delta_ops(ByteBuffer& ops);

  // Encode `action`'s pending tally, apply it to the committed state and
  // drop it; nullopt when the action has no tally here.
  virtual std::optional<ByteBuffer> fold_pending(const Uid& action) {
    (void)action;
    return std::nullopt;
  }

  // Drop `action`'s pending tally without applying it (abort compensation,
  // duplicate suppression).
  virtual void drop_pending(const Uid& action) { (void)action; }

  // Merge `from`'s pending tally into a tally of `heir` under `colour`
  // (commit-time inheritance, §5.2).
  virtual void transfer_pending(const Uid& from, AtomicAction& heir, Colour colour);

  // Reset hook run by invalidate_activation (crash simulation): drop
  // volatile per-action tallies AND reset the committed in-memory state to
  // its constructor-initial value. The reset matters for delta-logged types:
  // a fast-path commit leaves no base ObjectState in the store, so the next
  // activation replays the whole chain — on top of an already-folded live
  // value it would double-apply every delta.
  virtual void on_invalidate() {}

  // Registers (once per action) the DeltaTally participant that terminates
  // this object's deltas. Concrete mutators call this before tallying.
  void note_delta(AtomicAction& action, Colour colour);

 private:
  void activate_locked();
  void replay_chain_locked();
  void append_delta_locked(const Uid& action, const ByteBuffer& ops);
  void maybe_compact_locked();
  void remember_applied_locked(const Uid& action);
  [[nodiscard]] ByteBuffer base_payload_locked(std::uint64_t epoch) const;

  Runtime& rt_;
  Uid uid_;
  // Guards activation and all delta-chain bookkeeping. Always taken before
  // any type-level value mutex (the delta hooks lock their own state).
  mutable std::mutex activation_mutex_;
  bool activated_ = false;
  std::uint64_t delta_epoch_ = 1;
  std::uint64_t delta_next_seq_ = 1;
  std::unordered_set<Uid> delta_applied_;
  std::deque<Uid> delta_recent_;
};

}  // namespace mca
