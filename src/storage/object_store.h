// ObjectStore: where persistent objects live (§2 of the paper).
//
// A store holds committed states and, to support two-phase commit, *shadow*
// states written during the prepare phase. `commit_shadow` atomically
// promotes a shadow to the committed state; `discard_shadow` drops it.
//
// A store belongs to a node: each Runtime has one, which holds every
// persistent object of that runtime and the commit protocol's records.
// Stores model the paper's storage classes: a *stable* store survives a node
// crash (diskfull workstation); a *volatile* store loses everything
// (diskless). `crash()` simulates the loss; recovery code then replays or
// discards shadows according to the commit protocol's stable log.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "storage/object_state.h"

namespace mca {

// Thrown by stable stores when a write that must be durable cannot be made
// durable (open/fsync failure, a wedged log). Derives from std::exception on
// purpose: the commit machinery's defensive catches turn it into a clean NO
// vote or an abort — never into a write reported as committed.
class DurabilityError : public std::runtime_error {
 public:
  explicit DurabilityError(const std::string& what)
      : std::runtime_error("store durability: " + what) {}
};

enum class StorageClass { Stable, Volatile };

// Which side of the store a batched write lands on.
enum class WriteKind { Committed, Shadow };

class ObjectStore;

// The two covers (DESIGN.md §5.4, §5.6): a write that a record in the SAME
// store covers need not wait for its own flush. While a scope is open on a
// thread, that thread's mutations of a store that group-commits (WalStore)
// update the store's image and join its log in order, but return without
// waiting. Writes to any other store must not run inside a scope. Both
// hints travel with the thread, so they reach a store through decorators
// that only forward the ObjectStore calls; MemoryStore ignores them and
// stays synchronous.
//
// DeferDurability, the backward cover (lazy phase two): the covering record
// is already durable, so any later waited write to the store is durable
// only once these are, and a crash before they land replays to the record,
// whose recovery redoes them. The outermost scope's exit wakes the
// committer, so they form one append of their own.
class DeferDurability {
 public:
  DeferDurability() noexcept;
  ~DeferDurability();
  DeferDurability(const DeferDurability&) = delete;
  DeferDurability& operator=(const DeferDurability&) = delete;

  // Store side: true while the calling thread is inside a scope.
  [[nodiscard]] static bool active() noexcept;
  // Store side: `store` deferred records under the calling thread's scope;
  // its wake_deferred() runs once when the outermost scope closes.
  static void join(ObjectStore& store);
};

// DeferToNextWrite, the forward cover (covered prepare): the covering record
// is a waited write to the SAME store that the caller makes once these
// writes have returned (on whichever thread they ran), and a crash before it
// lands loses only records nothing names yet (orphan shadows, which presumed
// abort sweeps). The scope's exit wakes nobody, so the covering write's
// flush carries these records at the latest, as one append with them (a
// committer already awake may flush them sooner). Sound only where every
// path that does not kill the node goes on to a waited write in that store.
class DeferToNextWrite {
 public:
  DeferToNextWrite() noexcept;
  ~DeferToNextWrite();
  DeferToNextWrite(const DeferToNextWrite&) = delete;
  DeferToNextWrite& operator=(const DeferToNextWrite&) = delete;

  // Store side: true while the calling thread is inside a scope.
  [[nodiscard]] static bool active() noexcept;
};

class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  // Committed states.
  [[nodiscard]] virtual std::optional<ObjectState> read(const Uid& uid) const = 0;
  virtual void write(const ObjectState& state) = 0;
  virtual bool remove(const Uid& uid) = 0;
  [[nodiscard]] virtual std::vector<Uid> uids() const = 0;

  // Writes a batch of states of one kind. The default is the sequential
  // loop; stores with a cheaper grouped path override it (WalStore appends
  // the batch as one run of records with one durability wait, MemoryStore
  // takes its lock once). A batch is NOT atomic: a crash mid-batch leaves a
  // prefix written, exactly like the sequential loop — the commit
  // protocol's markers and shadows own recovery of partial batches.
  virtual void write_batch(const std::vector<ObjectState>& states, WriteKind kind) {
    for (const ObjectState& state : states) {
      if (kind == WriteKind::Shadow) {
        write_shadow(state);
      } else {
        write(state);
      }
    }
  }

  // Shadow (prepared-but-uncommitted) states.
  virtual void write_shadow(const ObjectState& state) = 0;
  [[nodiscard]] virtual std::optional<ObjectState> read_shadow(const Uid& uid) const = 0;
  virtual bool commit_shadow(const Uid& uid) = 0;
  virtual bool discard_shadow(const Uid& uid) = 0;
  [[nodiscard]] virtual std::vector<Uid> shadow_uids() const = 0;

  // Simulates the effect of the owning node crashing. Stable stores keep
  // their contents (including shadows, which a recovering participant needs
  // in order to finish an in-doubt commit); volatile stores are emptied.
  virtual void crash() = 0;

  // No-op, and nothing calls it: a store finishes its own recovery in its
  // constructor and in crash(). It stays only because the cluster
  // benchmark's TimedStore decorator still overrides it; delete both
  // together.
  virtual void scavenge() {}

  [[nodiscard]] virtual StorageClass storage_class() const = 0;

 protected:
  friend class DeferDurability;
  // Starts the flush of the records this store deferred under a
  // DeferDurability scope that just closed. Only stores that join a scope
  // are ever called, so decorators need not forward it.
  virtual void wake_deferred() {}
};

// The failure path's discard, best effort: drops `uid`'s shadow from
// `store`, and logs a std::exception the store throws instead of passing it
// on (a wedged WalStore refuses every mutation, the discard included).
// Presumed abort makes that sound: no record names a shadow the failure
// path drops, so one left behind is gone after the restart that clears the
// refusal (the log replays without it) or is dropped by the orphan-shadow
// sweep. A simulated kill, which is not a std::exception, still leaves.
void discard_shadow_best_effort(ObjectStore& store, const Uid& uid);

// One commit's shadow writes, at both ends (DESIGN.md §5.4). Every
// persistent object lives in its runtime's one store, and so does the record
// that names the commit's shadows (a participant's prepared marker, a
// coordinator's decision record) when there is one. Covered, the prepare
// batch rides the record's flush (DeferToNextWrite) and the promotions ride
// its durability (DeferDurability); uncovered (no record: a local-only
// commit), every write waits.
class ShadowCover {
 public:
  ShadowCover(ObjectStore& store, bool covered) : store_(store), covered_(covered) {}

  // Prepare, for coordinator and participant alike: writes the batch of
  // shadows. Covered, it only queues; the caller's covering write carries
  // it. A failed batch may be partly written.
  void write(const std::vector<ObjectState>& states) const;
  // Phase two: uncovered, a shadow is promoted at once, waiting for its
  // flush; covered, it is held for promote(), which the caller runs inside
  // the covering record's DeferDurability scope.
  void add(const Uid& uid);
  void promote() const;

 private:
  ObjectStore& store_;
  bool covered_;
  std::vector<Uid> held_;
};

}  // namespace mca
