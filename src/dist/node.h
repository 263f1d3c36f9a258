// DistNode: a simulated workstation (paper §2).
//
// A node bundles a Runtime (lock manager + object store), an RPC endpoint on
// the simulated network, a registry of the persistent objects it hosts, and
// the server side of the commit protocol. The same class serves both roles
// of the paper's model: it can host objects for remote callers and run
// client actions that invoke operations on other nodes' objects.
//
// Failure model: crash() makes the node fail-silent — it stops receiving,
// loses all volatile state (locks, mirrors, reply cache, in-memory object
// states) and keeps only its stable store. restart() brings it back and runs
// one synchronous recovery pass: in-doubt prepared actions are resolved by
// asking their coordinator (presumed abort once the coordinator has finished
// without a commit record; a still-deciding coordinator answers Pending and
// the participant stays in doubt).
//
// Recovery is also an always-on background daemon, not only a restart-time
// sweep: a periodic entry on the runtime's shared timer service re-attempts
// resolution of every in-doubt prepared action (per-action exponential
// backoff between attempts), so an action whose coordinator was unreachable
// at restart — or whose phase-two message was partitioned away while this
// node kept running — is eventually resolved and its stranded locks
// released, without anyone calling restart() again. The tick itself only
// flips flags; the resolution pass (which blocks on RPCs) runs on the
// runtime executor's blocking lane.
//
// Remote invocation: operations travel by (object uid, operation name,
// packed args); the server looks up a per-type Dispatcher to run the
// operation against the local object under a *mirror* of the caller's
// action. Register dispatchers with register_type(); the standard
// recoverable types are pre-registered (dist/remote.h).
#pragma once

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <optional>
#include <unordered_map>

#include "dist/rpc.h"
#include "dist/tpc.h"
#include "objects/lock_managed.h"

namespace mca {

// Raised client-side when a remote invocation fails at the application
// level (the server threw something other than a lock failure).
class RemoteError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Raised client-side when the target node is unreachable within the call
// timeout.
class NodeUnreachable : public std::runtime_error {
 public:
  explicit NodeUnreachable(NodeId node)
      : std::runtime_error("node " + std::to_string(node) + " unreachable") {}
};

class DistNode {
 public:
  // An operation dispatcher for one object type: run `op` with `args`
  // against `object` (called with the caller's mirror action as the current
  // action of the thread).
  using Dispatcher =
      std::function<ByteBuffer(LockManaged& object, const std::string& op, ByteBuffer& args)>;

  // `store`, when given, must outlive the node (e.g. a WalStore for real
  // persistence); otherwise the node owns a stable in-memory store.
  DistNode(Transport& transport, NodeId id, ObjectStore* store = nullptr);

  // Owning variant: a node on a WalStore in `data_dir` — what a real node
  // daemon runs on.
  DistNode(Transport& transport, NodeId id, const std::filesystem::path& data_dir);
  ~DistNode();

  DistNode(const DistNode&) = delete;
  DistNode& operator=(const DistNode&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] Runtime& runtime() { return *runtime_; }
  [[nodiscard]] RpcEndpoint& rpc() { return rpc_; }
  [[nodiscard]] ParticipantTable& participants() { return participants_; }

  // Registers a dispatcher for a type name (process-global).
  static void register_type(const std::string& type_name, Dispatcher dispatcher);

  // Makes `object` invocable by remote callers. It must belong to this
  // node's runtime, so it lives in the node's store, the one recovery
  // promotes and discards in (a lock on another runtime's object is
  // refused). Its construction-time state is snapshotted so a crash can
  // reset never-committed objects.
  void host(LockManaged& object);

  // Client side: invoke `op` on the remote `object` at `target` within the
  // current action. Registers commit-protocol participants on the action as
  // needed. Throws LockFailure / RemoteError / NodeUnreachable.
  ByteBuffer invoke(NodeId target, const Uid& object, const std::string& op, ByteBuffer args);

  // Deadline for invoke() calls (default 15 s: server-side lock waits can be
  // long).
  void set_invoke_timeout(std::chrono::milliseconds t) { invoke_timeout_ = t; }

  // Timeout of the coordinator's tx.prepare, tx.mirror and its one
  // phase-two call per participant (tx.commit, tx.delta), so a participant
  // that dies in phase two holds commit() up for at most this long. The
  // default matches the RPC default; crash-sweep tests shorten it.
  void set_tpc_call_timeout(std::chrono::milliseconds t) { tpc_call_timeout_ = t; }
  [[nodiscard]] std::chrono::milliseconds tpc_call_timeout() const { return tpc_call_timeout_; }

  // Coordinator-log mirroring: commit decisions this node coordinates are
  // replicated to these witness nodes before the commit proceeds (f+1
  // witnesses tolerate f witness deaths). Empty (the default) keeps the
  // unmirrored protocol, where only this node's restart can resolve its
  // participants. Applies to actions whose coordinator log is registered
  // after the call.
  void set_coordinator_mirrors(std::vector<NodeId> witnesses);
  [[nodiscard]] std::vector<NodeId> coordinator_mirrors() const;

  // Acquires (mode, colour) on the remote `object` for the current action —
  // the remote counterpart of AtomicAction::lock_explicit, used by structure
  // helpers (e.g. gluing a remote object, dist/remote_glue.h). Registers
  // commit participants exactly like invoke().
  LockOutcome remote_lock(NodeId target, const Uid& object, LockMode mode, Colour colour);

  // Early release of a structure action's transfer lock held at `target`
  // (the remote counterpart of LockManager::release_early). Returns false
  // when the node cannot be reached.
  bool remote_release_early(NodeId target, const Uid& owner, const Uid& object, Colour colour,
                            LockMode mode);

  // -- failure simulation ------------------------------------------------------

  void crash();
  void restart();
  [[nodiscard]] bool up() const { return !down_.load(); }

  // -- background in-doubt recovery --------------------------------------------

  struct RecoveryOptions {
    // Daemon wake-up period. Each tick re-attempts whichever in-doubt
    // actions are due.
    std::chrono::milliseconds period{100};
    // tx.status call timeout per attempt (kept short: the peer-health
    // tracker makes attempts against a suspected coordinator nearly free).
    std::chrono::milliseconds call_timeout{300};
    // Per-action backoff between failed attempts: period, doubling up to
    // this cap, reset on any coordinator answer.
    std::chrono::milliseconds backoff_max{1'000};
  };

  struct RecoveryStats {
    std::uint64_t ticks = 0;
    std::uint64_t attempts = 0;
    std::uint64_t resolved_committed = 0;
    std::uint64_t resolved_aborted = 0;
    std::uint64_t coordinator_unreachable = 0;
    std::uint64_t still_pending = 0;
    // Resolutions that bypassed a dead coordinator via its witness mirrors.
    std::uint64_t resolved_from_witness = 0;
  };

  void set_recovery_options(RecoveryOptions options);
  [[nodiscard]] RecoveryOptions recovery_options() const;
  [[nodiscard]] RecoveryStats recovery_stats() const;
  // In-doubt actions: stable prepared markers not yet resolved, plus the
  // action a recovery pass is resolving right now. The pass's marker drop
  // shows in the store before its flush returns and before the action's
  // locks are released and its resolution counted, so the action stays in
  // doubt until the pass is done with it.
  [[nodiscard]] std::size_t in_doubt_count() const;
  // Wakes the daemon now instead of waiting out the current period, and
  // forces an attempt for every in-doubt action regardless of its backoff
  // schedule — the hook for "the partition healed, re-resolve now".
  void kick_recovery();
  // One pass on the calling thread: this node's coordinator log first, then
  // the in-doubt set. `ignore_backoff` forces an attempt for every entry
  // (restart()'s synchronous pass). Passes never overlap.
  void recover_once(bool ignore_backoff);

 private:
  void register_services();

  // Registers `service` wrapped in the crash-point catcher: a CrashPointHit
  // unwinding out of the handler (every commit-protocol mutex already
  // released) kills this node mid-protocol and surfaces as an ordinary
  // service error whose reply the crashed endpoint then drops — fail-silent,
  // exactly like a real kill inside the window.
  void register_crashable(const std::string& name,
                          std::function<ByteBuffer(ByteBuffer&)> service);
  [[nodiscard]] LockManaged* resolve(const Uid& uid);

  // call() with blocking semantics over the fail-fast peer-health layer: an
  // Unreachable verdict sleeps until the peer's next probe slot and retries
  // once (the retry is the probe). A node that came back is re-adopted after
  // at most one probe interval instead of surfacing Unreachable to the
  // application; a node still down fails after ~one probe wait, far below
  // the old full-timeout burn. The request is shared first, so the retry
  // resends it without copying it.
  [[nodiscard]] RpcResult call_blocking(NodeId target, const std::string& service,
                                        ByteBuffer request, CallOptions options);

  // The witnesses' verdict on `action`: commit (true) once any of them
  // holds the mirrored decision, abort (false) once every one answered with
  // a fence, nullopt otherwise (no witnesses, one unreachable, no copy
  // found yet). The fences are sticky, so the two verdicts are mutually
  // exclusive across retries and across recovering nodes. Shared by
  // in-doubt markers whose coordinator is dead and by this node's own
  // Pending log records.
  std::optional<bool> witness_verdict(const Uid& action, const std::vector<NodeId>& witnesses,
                                      const CallOptions& call);
  // The one resolve step of an in-doubt marker, whichever route gave the
  // verdict (tx.status or the witnesses): applies it through the
  // participant table's commit or abort, the steps tx.commit and tx.abort
  // run, counts it and clears the action's backoff. False when a crash
  // point killed this node.
  bool apply_verdict(const ParticipantTable::Marker& marker, bool committed, bool from_witness);
  // Restart/daemon reconciliation of this node's own coordinator log:
  // redo interrupted local promotions of Sealed records, resolve Pending
  // records against their witnesses, re-ship Delta records, skipping
  // actions still live here. May throw CrashPointHit.
  void reconcile_coordinator_log(const CallOptions& call);
  // Periodic timer callback: short, non-blocking — hands the actual pass to
  // the executor's blocking lane (at most one pass in flight).
  void on_recovery_timer();

  struct Hosted {
    LockManaged* object;
    ByteBuffer initial_state;
  };

  NodeId id_;
  std::unique_ptr<ObjectStore> owned_store_;
  std::unique_ptr<Runtime> runtime_;
  RpcEndpoint rpc_;
  ParticipantTable participants_;
  std::atomic<bool> down_{false};
  std::chrono::milliseconds invoke_timeout_{15'000};
  std::chrono::milliseconds tpc_call_timeout_{2'000};

  // Witness role: serialises tx.mirror against tx.mstatus so a decision
  // record can never land after a fence was answered (and vice versa).
  std::mutex witness_mutex_;
  mutable std::mutex mirror_config_mutex_;
  std::vector<NodeId> coordinator_mirrors_;

  std::mutex hosted_mutex_;
  std::unordered_map<Uid, Hosted> hosted_;

  // Recovery daemon: a periodic entry on the runtime's timer service (owner
  // tag = this node), whose ticks submit passes to the runtime executor.
  // Ticks are no-ops while the node is down. recovery_mutex_ guards
  // options/stats/backoff/flag state; recovery_pass_mutex_ serialises whole
  // passes (a daemon pass vs restart()'s synchronous one).
  mutable std::mutex recovery_mutex_;
  std::mutex recovery_pass_mutex_;  // serialises whole resolution passes
  std::condition_variable recovery_pass_done_;
  RecoveryOptions recovery_options_;
  RecoveryStats recovery_stats_;
  // action → (next attempt due, current backoff) for unreachable coordinators.
  std::unordered_map<Uid, std::pair<std::chrono::steady_clock::time_point,
                                    std::chrono::milliseconds>>
      recovery_backoff_;
  bool recovery_kicked_ = false;        // next pass ignores per-action backoff
  bool recovery_pass_running_ = false;  // a daemon pass is queued or running
  std::optional<Uid> resolving_;        // the action the running pass is resolving
  TimerService::TimerId recovery_timer_ = TimerService::kInvalid;
};

}  // namespace mca
