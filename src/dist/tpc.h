// Two-phase commit machinery (paper §2: "a commit protocol is required
// during the termination of an atomic action").
//
// Server side — ParticipantTable: one per node. It keeps a *mirror* action
// for every client action that has operated on this node's objects (locks
// and undo records accrue to the mirror), and executes the coordinator's
// prepare / commit / abort requests:
//
//   prepare(action, permanent,  write shadows for the permanent colours'
//           heirs)              records + a stable "prepared" marker naming
//                               the coordinator and carrying those colours'
//                               commutative batch, keep the inherited
//                               colours' heirs, then vote yes
//   commit(action)              promote shadows (permanence), pass records
//                               and locks of inherited colours to the heir's
//                               mirror, drop the marker
//   abort(action)               discard shadows/marker, restore states,
//                               release locks
//
// Crash wipes the table (volatile); recovery resolves stable prepared
// markers by asking the coordinator (presumed abort when the coordinator
// has no commit record) and applies the answer through the same commit or
// abort step. Everything commit needs arrived at prepare, so a pushed and a
// pulled commit are the same step.
//
// Client side — RpcParticipant: registered with an action the first time it
// touches a given remote node; forwards the action kernel's termination
// callbacks to that node, and at commit time propagates itself to the heir
// actions so inherited state is eventually resolved at the server.
//
// Durable records — this header and tpc.cpp are the only code that knows
// the protocol's four records, each with one key derivation, one encoder
// and one decoder (DESIGN.md §5.7):
//   prepared marker     ParticipantTable::write_marker / read_marker
//   coordinator log     CoordinatorLogParticipant::write_record / read_record
//   witness copy        WitnessLog::record_decision / has_decision
//   witness tombstone   WitnessLog::status_or_fence / has_tombstone
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "core/atomic_action.h"
#include "dist/rpc.h"
#include "dist/wire.h"

namespace mca {

class DistNode;

// Reserved type names for protocol records kept in object stores.
inline constexpr const char* kPreparedMarkerType = "__mca_prepared__";
inline constexpr const char* kCoordinatorLogType = "__mca_coordlog__";
// Witness-side copies of a coordinator's decision, and the sticky fence a
// recovering participant leaves when it finds no copy (see WitnessLog).
inline constexpr const char* kMirrorDecisionType = "__mca_mirrorlog__";
inline constexpr const char* kMirrorTombstoneType = "__mca_mirrortomb__";

// The store key of an action's protocol record of one kind: the action uid
// with a per-kind constant XORed into its high word. The four keys of one
// action are distinct, so a node that coordinates, participates in and
// witnesses the same action keeps its records apart, and each derivation is
// its own inverse, so a key read back from the store gives the action.
enum class ProtocolRecord : std::uint8_t {
  PreparedMarker,
  CoordinatorLog,
  WitnessCopy,
  WitnessTombstone
};
[[nodiscard]] Uid protocol_record_key(ProtocolRecord kind, const Uid& action);

// Answer of a coordinator's tx.status service (wire value, u8). Pending
// means the coordinator still knows the action as live — it has not decided
// yet, so the participant must stay in doubt; presumed abort applies only
// once the action has finished without leaving a commit record. Three-valued
// status closes the race where an in-doubt participant would presume abort
// while the coordinator was still collecting votes.
enum class TxStatus : std::uint8_t { Aborted = 0, Committed = 1, Pending = 2 };

class ParticipantTable {
 public:
  using ObjectResolver = std::function<LockManaged*(const Uid&)>;

  ParticipantTable(Runtime& rt, ObjectResolver resolve);

  // Returns the mirror for `action`, creating + beginning it when new, and
  // folds in any newly revealed colours. Shared ownership: an in-flight
  // operation keeps its mirror alive even if a concurrent coordinator
  // abort/commit (or crash) removes it from the table; the operation then
  // fails cleanly on the terminated action instead of touching freed state.
  std::shared_ptr<AtomicAction> mirror_for(const Uid& action, const std::vector<Uid>& path,
                                           const ColourSet& colours);

  [[nodiscard]] bool has_mirror(const Uid& action) const;

  // A stable prepared marker, the participant's durable vote: the
  // coordinator to ask, the (object, colour) pairs whose shadows prepare
  // wrote, the witnesses that can answer for a dead coordinator, and the
  // permanent colours' commutative batch (a mixed action's deltas have no
  // shadow, so a participant that loses its mirror redoes them from here).
  // The payload is u32 coordinator, u32 count + (uid, colour name) per pair,
  // u32 count + u32 per witness, then the batch (wire::pack_deltas); the
  // action is the key.
  struct Marker {
    Uid action;
    NodeId coordinator = 0;
    std::vector<std::pair<Uid, Colour>> prepared;
    std::vector<NodeId> witnesses;
    std::vector<wire::DeltaEntry> deltas;
  };
  static void write_marker(Runtime& rt, const Marker& marker);
  [[nodiscard]] static std::optional<Marker> read_marker(Runtime& rt, const Uid& action);

  // Phase one. Returns false (veto) when the mirror is missing (e.g. lost in
  // a crash) or a shadow write fails. `witnesses` are the coordinator-log
  // mirror nodes, recorded in the prepared marker so in-doubt recovery can
  // resolve the outcome from a surviving mirror when the coordinator dies.
  // `heirs` are the inherited colours' dispositions (every other colour is
  // permanent); the mirror keeps them for commit.
  bool prepare(const Uid& action, const std::vector<Colour>& permanent,
               NodeId coordinator, const std::vector<NodeId>& witnesses = {},
               std::vector<wire::HeirInfo> heirs = {});

  // Phase two, pushed by the coordinator's tx.commit or pulled by the
  // recovery pass's tx.status: one step either way, with the heirs prepare
  // kept. A missing mirror (crash) falls back to the marker: promote the
  // prepared shadows and redo the permanent colours' commutative batch
  // (the chain dedup makes a batch that already landed a no-op); the
  // inherited colours' writes were volatile and died with the mirror.
  void commit(const Uid& action);

  // One-phase commutative commit (tx.delta): applies the coordinator's
  // merged delta batch durably, releases the mirror's locks, and retires
  // the mirror — no prepare, no shadows, no marker. With a live mirror the
  // mirror's own tallies are folded (they carry the same ops); with a
  // missing mirror (crash) the shipped entries are applied through the
  // object resolver — the per-(action, seq) chain dedup makes a re-shipped
  // batch idempotent in either case.
  void commit_delta(const Uid& action, const std::vector<wire::DeltaEntry>& deltas);

  // Applies a commutative batch through the object resolver, for an action
  // with no live mirror here (a crash, a retransmit, a re-shipped Delta
  // record or a prepared marker's batch); the per-(action, seq) chain dedup
  // makes a repeat a no-op.
  void apply_deltas(const Uid& action, const std::vector<wire::DeltaEntry>& deltas);

  void abort(const Uid& action);

  // Crash simulation: drops all mirrors and their prepared bookkeeping
  // (stable markers and shadows survive in the store).
  void crash();

  // Teardown: disowns every live mirror without aborting it. A stranded
  // mirror's destructor would otherwise replay undo records against hosted
  // objects that may already be destroyed (members die before the node in
  // the usual declaration order). Locks and stable state are left as-is —
  // the whole node is going away.
  void drop_mirrors();

  // Stable prepared markers awaiting resolution.
  [[nodiscard]] std::vector<Marker> in_doubt() const;

  // Recovery sweep: discards shadows not referenced by any surviving
  // prepared marker (a crash between writing shadows and writing the marker
  // orphans them; presumed abort applies). Returns how many were dropped.
  std::size_t discard_unreferenced_shadows();

  [[nodiscard]] std::size_t mirror_count() const;

 private:
  struct Mirror {
    // Serialises this action's prepare, commit, commit_delta and abort steps
    // (and crash), so one action's waited marker flush holds up no other
    // action at this node. Guards `prepared` and `retired`.
    std::mutex mutex;
    std::shared_ptr<AtomicAction> action;
    // (object uid, colour) pairs whose shadows were written at prepare.
    std::vector<std::pair<Uid, Colour>> prepared;
    // The inherited colours' heirs, as prepare received them.
    std::vector<wire::HeirInfo> heirs;
    // Set, under `mutex`, by the step that removes the mirror from the
    // table; a step that was waiting for the lock then treats the action as
    // having no mirror here.
    bool retired = false;
  };

  // A mirror locked for one protocol step; `mirror` is null when the
  // action has no live mirror here. Declared in this order so the lock is
  // released before the mirror it refers to.
  struct Held {
    std::shared_ptr<Mirror> mirror;
    std::unique_lock<std::mutex> lock;
  };

  // Looks `action` up (holding the table mutex for the lookup only) and
  // locks its mirror.
  Held hold(const Uid& action);
  // Removes a held mirror from the table for good.
  void retire(const Uid& action, Mirror& mirror);
  // Marker-driven resolution: the step commit and abort take for an action
  // with no live mirror here.
  void resolve_in_doubt(const Uid& action, bool committed);

  void drop_marker(const Uid& action);

  Runtime& rt_;
  ObjectResolver resolve_;
  mutable std::mutex mutex_;  // guards the map only, never a step's work
  std::unordered_map<Uid, std::shared_ptr<Mirror>> mirrors_;
};

// Client-side participant forwarding an action's termination to one remote
// node. Registered under key "node:<id>" so each (action, node) pair gets
// exactly one.
class RpcParticipant final : public TerminationParticipant {
 public:
  RpcParticipant(DistNode& local, NodeId target, AtomicAction& owner);

  static std::string key_for(NodeId target);

  // The one enlistment step of every remote exchange within `action` (an
  // invoke, a remote lock, a heir inheriting a node): makes sure the action
  // carries the coordinator log, owned by it, and a participant for
  // `target`, and returns the registered participant. Throws
  // std::logic_error when `action` belongs to another runtime than `local`.
  static std::shared_ptr<RpcParticipant> enlist(DistNode& local, NodeId target,
                                                AtomicAction& action);

  // Called after each successful invoke through this participant's node:
  // only an armed participant has server-side state to resolve. An unarmed
  // one (every invoke failed, e.g. the node was down) votes yes at prepare
  // and merely sends a best-effort abort to clean any orphaned execution.
  void note_success() { armed_.store(true); }
  [[nodiscard]] bool armed() const { return armed_.load(); }
  [[nodiscard]] NodeId target() const { return target_; }

  // Fast-path bookkeeping fed by DistNode::invoke from the obj.invoke
  // reply framing: a delta-kind reply replaces this object's cumulative op
  // batch; a classical-kind reply (the server created undo records) makes
  // the whole participant — and therefore the owning action — classical.
  void note_delta_batch(const Uid& object, std::vector<std::byte> ops);
  void note_classical() { classical_.store(true); }
  [[nodiscard]] bool delta_acked() const { return delta_acked_.load(); }

  // Delta-only so long as every server-side write this participant saw was
  // a commutative delta. An unarmed participant is trivially delta-only
  // (nothing to resolve remotely beyond a best-effort abort).
  [[nodiscard]] bool delta_only(const Uid&) const override {
    return !armed_.load() || !classical_.load();
  }
  Pending start_delta(const Uid& action) override;

  // The accumulated per-object batches (used by the coordinator log to
  // build its redo record).
  [[nodiscard]] std::vector<wire::DeltaEntry> delta_entries() const;

  // The kernel drives a remote node through these only. The
  // coordinator-local work (heir bookkeeping, crash points) runs inline on
  // the terminating thread; the RPC exchange rides an RpcFuture.
  Pending start_prepare(const Uid& action, const std::vector<Colour>& permanent) override;
  Pending start_commit(const Uid& action,
                       const std::vector<ColourDisposition>& dispositions) override;
  Pending start_abort(const Uid& action) override;

 private:
  // Phase two of tx.commit and tx.delta: one call with the phase-two
  // timeout, whose retransmissions cover loss while the peer lives; `done`
  // learns whether the participant acked. A participant the call misses is
  // finished without it: a prepared one pulls the outcome with tx.status,
  // and a delta batch waits in the coordinator-log record that
  // reconciliation re-ships.
  Pending deliver(const char* service, ByteBuffer args, std::function<void(bool)> done);

  DistNode& local_;
  NodeId target_;
  AtomicAction& owner_;
  std::atomic<bool> armed_{false};
  std::atomic<bool> classical_{false};
  std::atomic<bool> delta_acked_{false};
  mutable std::mutex delta_mutex_;
  // object → cumulative op batch (each delta-kind reply replaces the
  // object's entry with the server's current cumulative tally, so lost or
  // reordered replies cannot double-count).
  std::unordered_map<Uid, std::vector<std::byte>> deltas_;
};

// Makes the coordinator's commit decision durable at the kernel's decision
// point (decide_commit runs before any shadow is promoted) and — when the
// owning node is configured with coordinator mirrors — replicates the
// decision record to those witness nodes before the commit proceeds, so the
// in-doubt recovery daemon can resolve participants from a surviving mirror
// when the coordinator dies. tx.status answers come from the local record:
// sealed record = committed, pending record = still deciding, absent =
// presumed abort.
//
// Record states (payload byte 0):
//   Pending  written before the mirror fan-out. A coordinator that dies
//            here is resolved by its witnesses: participants that find a
//            mirrored copy commit; participants that fence every witness
//            abort — and the fences are sticky, so the two verdicts are
//            mutually exclusive. Restart reconciliation resolves the local
//            record the same way.
//   Sealed   the decision is final (no witnesses configured, or at least
//            one mirror acknowledged). The payload carries the uids of the
//            coordinator-local shadows the kernel promotes next, so restart
//            can redo a promotion the crash interrupted.
//   Applied  local promotion done; the redo list is cleared so a later
//            transaction's shadow on the same object can never be promoted
//            by this record.
//   Delta    the one-phase commutative path's redo record (decide_delta).
//
// The record covers the kernel's shadows at both ends of the commit
// (DESIGN.md §5.4). Covered prepare: writes_decision_record() tells the
// kernel to only queue them, so the Pending or Sealed record's flush carries
// them.
// Lazy phase two: the Sealed record covers their promotions, so
// promote_covered runs them and the Applied rewrite without waiting for
// their flush, before any lock is released — a later action's shadow on the
// same object is then always logged behind the rewrite.
class CoordinatorLogParticipant final : public TerminationParticipant {
 public:
  enum class RecordState : std::uint8_t { Pending = 0, Sealed = 1, Applied = 2, Delta = 3 };

  // The record. Pending, Sealed and Applied carry u8 state, u32 count + u32
  // per witness, u32 count + uid per redo uid; Delta carries u8 state, u32
  // node count, and per node a u32 id and its batch (wire::pack_deltas).
  struct Record {
    RecordState state = RecordState::Sealed;
    std::vector<NodeId> witnesses;
    std::vector<Uid> redo_uids;
    // Delta records only: per-node redo batches (the coordinator's own
    // node id carries the local batch).
    std::vector<std::pair<NodeId, std::vector<wire::DeltaEntry>>> delta_nodes;
  };

  // Mirrors every decision to node.coordinator_mirrors() (none: the
  // decision is durable on this node alone).
  explicit CoordinatorLogParticipant(DistNode& node);

  bool decide_commit(const Uid& action, const std::vector<Uid>& prepared_objects) override;
  [[nodiscard]] bool writes_decision_record() const override { return true; }
  bool promote_covered(const Uid& action, const ShadowCover& promotions) override;
  void commit(const Uid& action, const std::vector<ColourDisposition>&) override;

  // Fast path: the log never blocks it (it holds no locks), and its
  // decide_delta is the durable decision point — it gathers every node's
  // delta batch from the owning action's participants and writes a Delta
  // record as the redo source for a crash mid-fan-out. Single-site commits
  // (no armed remote, ≤ 1 local object) skip the record: one chain append
  // is already atomic. finish_delta retires the record once every remote
  // acked; an unacked exchange leaves it for the recovery pass's
  // reconciliation to re-ship. Delta records are not witness-mirrored —
  // the record is pure redo, not a commit/abort verdict, and a permanently
  // dead coordinator is resolved by reconciling its own log at restart.
  [[nodiscard]] bool delta_only(const Uid&) const override { return true; }
  bool decide_delta(const Uid& action) override;
  void finish_delta(const Uid& action) override;

  // The fast path needs the owning action to enumerate co-participants;
  // set by RpcParticipant::enlist (invoke, remote_lock, heir propagation).
  // Invokes of one action may run on several threads at once (a replica
  // group's write_all), each storing the same owner; termination reads it
  // after joining them.
  void set_owner(AtomicAction& owner) { owner_.store(&owner, std::memory_order_relaxed); }

  [[nodiscard]] const std::vector<NodeId>& witnesses() const { return record_.witnesses; }

  // True when `action` committed according to this coordinator's log (a
  // sealed or applied record; a pending record is not yet a decision).
  static bool committed(Runtime& rt, const Uid& action);

  // The record as a TxStatus: Committed (sealed/applied), Pending (mirror
  // fan-out interrupted, reconciliation owed), or Aborted (no record).
  static TxStatus logged_status(Runtime& rt, const Uid& action);

  // Durable record surgery shared with restart reconciliation.
  static void write_record(Runtime& rt, const Uid& action, const Record& record);
  [[nodiscard]] static std::optional<Record> read_record(Runtime& rt, const Uid& action);
  static void remove_record(Runtime& rt, const Uid& action);
  // Actions with a coordinator-log record in `rt`'s store (restart
  // reconciliation enumerates these).
  [[nodiscard]] static std::vector<Uid> logged_actions(Runtime& rt);

 private:
  Runtime& rt_;
  DistNode& node_;
  std::atomic<AtomicAction*> owner_{nullptr};  // set by set_owner; needed by the fast path
  // The decision record decide_commit writes: the witnesses it mirrors to
  // and the local shadows it promises to promote.
  Record record_;
  bool decided_ = false;       // decide_commit wrote + sealed the record
  bool delta_logged_ = false;  // decide_delta wrote a Delta record
};

// Witness-side mirrored-decision log (services tx.mirror / tx.mstatus).
// The fencing rule makes "a copy exists somewhere" and "every witness is
// fenced" mutually exclusive: a tombstone written by status_or_fence
// permanently refuses any later record_decision for that action, so once a
// recovering participant has fenced all witnesses no commit record can ever
// appear, and once a record landed anywhere the all-fenced verdict is
// unreachable. Callers serialise the read-modify-write externally (DistNode
// holds the per-node witness mutex).
struct WitnessLog {
  // Records the coordinator's decision durably; false when the action was
  // already fenced here.
  static bool record_decision(Runtime& rt, const Uid& action);
  // Committed when a mirrored copy exists; otherwise writes the sticky
  // tombstone and answers Aborted (the fence).
  static TxStatus status_or_fence(Runtime& rt, const Uid& action);
  [[nodiscard]] static bool has_decision(Runtime& rt, const Uid& action);
  [[nodiscard]] static bool has_tombstone(Runtime& rt, const Uid& action);
};

}  // namespace mca
