// AtomicAction: the (multi-coloured) atomic action of the paper.
//
// Every action carries a ColourSet. A plain `AtomicAction(rt)` inherits its
// parent's colours (or {Colour::plain()} at top level), which makes the
// system behave exactly like a conventional nested atomic action system
// (§5.1). Structures built on colours — serializing, glued, independent
// actions — are in core/structures/.
//
// Lifecycle:
//   AtomicAction a(rt);        // parent = current action of this thread
//   a.begin();
//   ... operate on LockManaged objects ...
//   a.commit();                // or a.abort(); destructor aborts if running
//
// Commit processes each colour of the action independently (§5.2): locks and
// undo responsibility of colour c pass to the closest ancestor possessing c;
// if there is none the action is outermost-in-c and the c-coloured updates
// are made permanent — shadows are written to the objects' stores (prepare),
// then promoted (commit). Failure atomicity spans all of the action's
// colours: if any prepare fails the whole action aborts (§5.1 property 1).
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/action_context.h"
#include "core/colour.h"
#include "core/recovery_record.h"
#include "core/runtime.h"
#include "storage/object_store.h"

namespace mca {

class LockManaged;

enum class ActionStatus { Created, Running, Committed, Aborted };
enum class Outcome { Committed, Aborted };

[[nodiscard]] constexpr std::string_view to_string(ActionStatus s) {
  switch (s) {
    case ActionStatus::Created: return "created";
    case ActionStatus::Running: return "running";
    case ActionStatus::Committed: return "committed";
    case ActionStatus::Aborted: return "aborted";
  }
  return "?";
}

// What a colour of a committing action resolves to.
struct ColourDisposition {
  Colour colour;
  // Heir action for inheritance; nil for an outermost-in-colour commit
  // (the colour's effects become permanent).
  Uid heir = Uid::nil();
};

// Extension point used by the distributed layer: a participant mirrors the
// action's effects somewhere else (another node) and takes part in the
// termination protocol.
//
// The kernel terminates an action through the start_* calls only: each is
// made on the terminating thread in registration order and does any
// coordinator-local work inline (heir bookkeeping, log writes, crash
// points); the returned Pending represents whatever exchange is still in
// flight, and the kernel starts every participant's exchange before it
// awaits any (DESIGN.md §5.4). The blocking prepare/commit/abort virtuals
// are what a participant with nothing to overlap implements: the start_*
// defaults run them inline and return an already-finished Pending, so a
// local participant (e.g. the coordinator log) keeps its exact position in
// the protocol order while remote participants overlap around it.
class TerminationParticipant {
 public:
  // One started termination exchange.
  //   wait       blocks until the exchange finishes; returns the vote
  //              (prepare) or true (commit/abort). Must not throw.
  //   cancel     asks an in-flight exchange to finish early (vote gathering
  //              short-circuits to abort); null when there is nothing to
  //              cancel.
  //   subscribe  registers a completion callback receiving the vote; called
  //              immediately when already finished. The callback runs on
  //              whichever thread completes the exchange and must not
  //              block. Null only when wait is null (empty Pending).
  struct Pending {
    std::function<bool()> wait;
    std::function<void()> cancel;
    std::function<void(std::function<void(bool)>)> subscribe;
  };

  virtual ~TerminationParticipant() = default;
  // Phase one for the colours that become permanent; false vetoes the commit.
  // The default votes yes.
  virtual bool prepare(const Uid& action, const std::vector<Colour>& permanent_colours) {
    (void)action;
    (void)permanent_colours;
    return true;
  }
  // Decision point: called once on the terminating thread after every vote
  // is in and before anything — shadow promotion, lock release, phase two —
  // happens. This is where a participant makes the commit decision durable
  // (the coordinator log writes and mirrors its record here); returning
  // false turns the commit into an abort while that is still sound (no
  // record sealed, nothing promoted anywhere). `prepared_objects` are the
  // uids whose local shadows the kernel is about to promote, so the log can
  // record what a post-decision crash must redo.
  virtual bool decide_commit(const Uid& action, const std::vector<Uid>& prepared_objects) {
    (void)action;
    (void)prepared_objects;
    return true;
  }
  // Covered prepare (DESIGN.md §5.4): true when decide_commit writes the
  // action's decision record into the runtime's store (the default writes
  // none). The kernel's prepare shadows then only queue: the record's flush
  // (or, on a veto, the discards') carries them.
  [[nodiscard]] virtual bool writes_decision_record() const { return false; }
  // Lazy phase two (DESIGN.md §5.4): called once every decide_commit
  // succeeded, before any lock moves. `promotions` holds the prepared
  // shadows when a participant writes a decision record (otherwise they
  // are promoted already). The participant whose record, durable in the
  // store, names them takes the job: it runs `promotions.promote()` and
  // retires its record inside one DeferDurability scope, so none of those
  // writes waits for its own flush, and returns true. The default declines;
  // if nobody takes it the kernel promotes with a wait per write.
  virtual bool promote_covered(const Uid& action, const ShadowCover& promotions) {
    (void)action;
    (void)promotions;
    return false;
  }
  // Phase two: apply the per-colour dispositions. The defaults do nothing.
  virtual void commit(const Uid& action, const std::vector<ColourDisposition>& dispositions) {
    (void)action;
    (void)dispositions;
  }
  virtual void abort(const Uid& action) { (void)action; }

  // What the kernel calls: the overlappable variants. The defaults run the
  // blocking calls above inline; a participant with a remote exchange
  // overrides these instead.
  virtual Pending start_prepare(const Uid& action,
                                const std::vector<Colour>& permanent_colours);
  virtual Pending start_commit(const Uid& action,
                               const std::vector<ColourDisposition>& dispositions);
  virtual Pending start_abort(const Uid& action);

  // -- commutative one-phase fast path (DESIGN.md §5.9) ------------------------
  //
  // When a top-level action's write set is entirely commutative deltas, the
  // kernel skips the prepare/vote round: decide_delta runs once per
  // participant in registration order (the coordinator log makes the
  // decision durable here — a `false` or a throw falls the whole commit back
  // to the classical path, which is sound because nothing has been applied
  // yet); start_delta then applies the deltas (local folds inline, remote
  // `tx.delta` batches overlapped); finish_delta retires coordinator-side
  // bookkeeping once every exchange drained.

  // True when everything this participant would do at termination is
  // commutative delta application, or nothing at all. The default is false:
  // an unknown participant forces the classical path.
  [[nodiscard]] virtual bool delta_only(const Uid& action) const {
    (void)action;
    return false;
  }
  virtual bool decide_delta(const Uid& action) {
    (void)action;
    return true;
  }
  virtual Pending start_delta(const Uid& action) {
    (void)action;
    return Pending{};
  }
  virtual void finish_delta(const Uid& action) { (void)action; }
};

// How logical read/write operations on objects map onto coloured lock
// acquisitions, and which colour undo records are filed under. The structure
// actions of §3 are implemented purely by installing non-default plans
// (figs. 11-13).
struct LockPlan {
  std::vector<std::pair<LockMode, Colour>> for_write;
  std::vector<std::pair<LockMode, Colour>> for_read;
  Colour undo_colour = Colour::plain();

  static LockPlan single(Colour c) {
    return LockPlan{{{LockMode::Write, c}}, {{LockMode::Read, c}}, c};
  }
};

class AtomicAction {
 public:
  // Nested (or top-level) action inheriting the parent's colours; parent is
  // the current action of the constructing thread.
  explicit AtomicAction(Runtime& rt);

  // Action with explicit colours; parent is the current action of the
  // constructing thread (colours need not be related to the parent's —
  // that is exactly how independent actions arise, fig. 13).
  AtomicAction(Runtime& rt, ColourSet colours);

  // Cross-thread child: explicit parent (may be nullptr for a root).
  AtomicAction(Runtime& rt, AtomicAction* parent, ColourSet colours);

  // -- mirror actions (distributed layer) -------------------------------------
  //
  // A *mirror* is the server-side image of a client action: it shares the
  // client action's Uid, holds the locks and undo records its operations
  // generate at this node, and is driven through the termination protocol by
  // the coordinator rather than by parent pointers (which live client-side).
  struct MirrorTag {};
  AtomicAction(Runtime& rt, MirrorTag, const Uid& uid, ColourSet colours);

  // Begins a mirror: registers the shipped ancestry path (root..self) so
  // this node's lock manager can answer ancestor queries about the caller.
  void begin_mirror(std::vector<Uid> path);

  // Marks a mirror committed after the coordinator-driven commit processing.
  void finish_mirror();

  // Removes and returns the undo records filed under `c` (commit
  // processing: they pass to the heir's mirror or drive permanence).
  [[nodiscard]] std::vector<UndoRecord> extract_records(Colour c);

  // Extends a mirror's colour set as later operations reveal more of the
  // client action's colours.
  void add_colours(const ColourSet& extra);

  // Aborts if still running. Never throws.
  ~AtomicAction();

  AtomicAction(const AtomicAction&) = delete;
  AtomicAction& operator=(const AtomicAction&) = delete;

  // Context participation: OnThread pushes the action onto the calling
  // thread's context stack (normal usage); Detached does not (used by the
  // RPC server for mirror actions driven by protocol messages).
  enum class ContextPolicy { OnThread, Detached };

  void begin(ContextPolicy policy = ContextPolicy::OnThread);

  // Terminates the action. Commit returns Aborted when the prepare phase
  // fails (a store fault or a participant veto). Throws std::logic_error if
  // the action is not running or still has running children.
  Outcome commit();
  void abort();

  // Disowns a running action whose coordinating node just simulated a crash
  // mid-termination: clears bookkeeping (context, ancestry, parent count,
  // participants) without undoing records or contacting anyone. The durable
  // coordinator log — present or absent — remains the truth of the outcome;
  // tx.status answers from it once the ancestry entry is gone. No-op unless
  // the action is running.
  void abandon();

  // -- identity & hierarchy --------------------------------------------------

  [[nodiscard]] const Uid& uid() const { return uid_; }
  [[nodiscard]] AtomicAction* parent() const { return parent_; }
  [[nodiscard]] Runtime& runtime() const { return rt_; }
  [[nodiscard]] ActionStatus status() const { return status_.load(); }
  [[nodiscard]] ColourSet colours() const;
  [[nodiscard]] bool has_colour(Colour c) const;

  // A colour unique to this action, minted on first use and added to the
  // action's colour set. A descendant that adopts exactly this colour is
  // "independent up to" this action: its effects survive the abort of every
  // action below this one but are undone if this one aborts (fig. 14/15
  // n-level independence).
  [[nodiscard]] Colour private_colour();

  // The closest ancestor (not including this action) possessing `c`, or
  // nullptr: determines inheritance targets at commit (§5.2).
  [[nodiscard]] AtomicAction* nearest_ancestor_with(Colour c) const;

  // -- lock plan & participants ----------------------------------------------

  [[nodiscard]] const LockPlan& lock_plan() const { return plan_; }
  void set_lock_plan(LockPlan plan) { plan_ = std::move(plan); }

  // Registers a termination participant. A non-empty `key` deduplicates:
  // re-registering the same key drops the newcomer and logs at Warn (used
  // for one-participant-per-remote-node bookkeeping).
  void add_participant(std::shared_ptr<TerminationParticipant> participant,
                       const std::string& key = "");
  [[nodiscard]] bool has_participant(const std::string& key) const;

  // The participant registered under `key`, or nullptr.
  [[nodiscard]] std::shared_ptr<TerminationParticipant> participant(
      const std::string& key) const;

  // Every registered participant, in registration (= protocol) order. Used
  // by the distributed layer: the coordinator log gathers its sibling
  // participants' delta batches, and the participant table drives a mirror's
  // tallies through commit.
  [[nodiscard]] std::vector<std::shared_ptr<TerminationParticipant>> participants_snapshot()
      const;

  // Mirror actions have no parent chain, so commit-time inheritance (tally
  // transfer to the heir's mirror) cannot walk parents. The participant
  // table installs a resolver consulted by nearest_ancestor_with when there
  // is no parent.
  void set_mirror_heir_resolver(std::function<AtomicAction*(Colour)> resolver);

  // -- services for LockManaged objects ---------------------------------------

  // Acquires the lock(s) the plan maps the logical mode to. `logical` must
  // be Read or Write; ExclusiveRead acquisitions use lock_explicit. Both
  // throw std::logic_error for an object of another runtime.
  [[nodiscard]] LockOutcome lock_for(LockManaged& object, LockMode logical);

  // Acquires exactly (mode, colour); colour must belong to this action.
  [[nodiscard]] LockOutcome lock_explicit(LockManaged& object, LockMode mode, Colour colour);

  // Files an undo record for `object` (first call per object wins) under
  // the colour of the write lock this action holds on it. Must follow a
  // granted write lock.
  void note_modified(LockManaged& object);

  // Adopts undo records inherited from a committing child (keeps the
  // earliest snapshot per object).
  void adopt_records(std::vector<UndoRecord> records);

  // The per-colour dispositions this action's commit would use now.
  [[nodiscard]] std::vector<ColourDisposition> dispositions() const;

  // Number of undo records currently filed (test/bench introspection).
  [[nodiscard]] std::size_t undo_record_count() const;

  // Lock acquisition timeout for this action (default LockManager's).
  void set_lock_timeout(std::chrono::milliseconds t) { lock_timeout_ = t; }

 private:
  void end_bookkeeping();
  void restore_undo_records();
  [[nodiscard]] bool prepare_permanent(const std::vector<Colour>& permanent,
                                       const ShadowCover& cover,
                                       std::vector<UndoRecord*>& prepared);
  // The failure path: drops the prepared shadows, best effort.
  void discard_shadows(const std::vector<UndoRecord*>& prepared);

  Runtime& rt_;
  Uid uid_;
  AtomicAction* parent_;
  std::atomic<ActionStatus> status_{ActionStatus::Created};
  ContextPolicy context_policy_ = ContextPolicy::OnThread;

  struct RegisteredParticipant {
    std::string key;  // empty = unkeyed (never deduplicated)
    std::shared_ptr<TerminationParticipant> participant;
  };

  mutable std::mutex mutex_;  // guards colours_, undo_, participants_
  ColourSet colours_;
  std::optional<Colour> private_colour_;
  LockPlan plan_;
  std::vector<UndoRecord> undo_;
  // Registration order is protocol order (the coordinator log registers
  // first so its commit callback runs before any remote phase two); the
  // index gives O(1) keyed lookup instead of the old parallel-vector scan.
  std::vector<RegisteredParticipant> participants_;
  std::unordered_map<std::string, std::size_t> participant_index_;
  std::function<AtomicAction*(Colour)> mirror_heir_resolver_;

  std::atomic<int> active_children_{0};
  std::chrono::milliseconds lock_timeout_ = LockManager::kDefaultTimeout;
};

}  // namespace mca
