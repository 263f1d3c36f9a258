#include "core/atomic_action.h"

#include <algorithm>
#include <condition_variable>
#include <stdexcept>

#include "common/logging.h"
#include "objects/lock_managed.h"
#include "sim/crash_points.h"

namespace mca {
namespace {

// An object is locked by the action's runtime but written and recovered by
// its own, so an object of another runtime is refused.
void refuse_foreign(const Runtime& rt, const LockManaged& object, const char* caller) {
  if (&object.runtime() != &rt) {
    throw std::logic_error(std::string(caller) + ": object " + object.uid().to_string() +
                           " belongs to another runtime");
  }
}

ColourSet initial_colours(AtomicAction* parent, ColourSet explicit_colours) {
  if (!explicit_colours.empty()) return explicit_colours;
  if (parent != nullptr) return parent->colours();
  return ColourSet{Colour::plain()};
}

// Gathers phase-one votes as they complete, whatever order the exchanges
// finish in. Heap-allocated and captured by shared_ptr in the completion
// callbacks so a straggler completing after the coordinator moved on (or
// unwound) writes into live memory.
struct VoteBoard {
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t done = 0;
  bool veto = false;

  void note(bool vote) {
    const std::scoped_lock lock(mutex);
    ++done;
    if (!vote) veto = true;
    cv.notify_all();
  }

  // Blocks until every vote is in or any vote is a veto; returns veto.
  bool wait_all_or_veto(std::size_t expected) {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return veto || done >= expected; });
    return veto;
  }
};

}  // namespace

TerminationParticipant::Pending TerminationParticipant::start_prepare(
    const Uid& action, const std::vector<Colour>& permanent_colours) {
  const bool vote = prepare(action, permanent_colours);
  return Pending{[vote] { return vote; }, nullptr,
                 [vote](std::function<void(bool)> fn) { fn(vote); }};
}

TerminationParticipant::Pending TerminationParticipant::start_commit(
    const Uid& action, const std::vector<ColourDisposition>& dispositions) {
  commit(action, dispositions);
  return Pending{[] { return true; }, nullptr,
                 [](std::function<void(bool)> fn) { fn(true); }};
}

TerminationParticipant::Pending TerminationParticipant::start_abort(const Uid& action) {
  abort(action);
  return Pending{[] { return true; }, nullptr,
                 [](std::function<void(bool)> fn) { fn(true); }};
}

AtomicAction::AtomicAction(Runtime& rt) : AtomicAction(rt, ActionContext::current(), {}) {}

AtomicAction::AtomicAction(Runtime& rt, ColourSet colours)
    : AtomicAction(rt, ActionContext::current(), std::move(colours)) {}

AtomicAction::AtomicAction(Runtime& rt, AtomicAction* parent, ColourSet colours)
    : rt_(rt), parent_(parent), colours_(initial_colours(parent, std::move(colours))) {
  plan_ = LockPlan::single(colours_.primary());
}

AtomicAction::AtomicAction(Runtime& rt, MirrorTag, const Uid& uid, ColourSet colours)
    : rt_(rt), uid_(uid), parent_(nullptr), colours_(std::move(colours)) {
  if (colours_.empty()) colours_ = ColourSet{Colour::plain()};
  plan_ = LockPlan::single(colours_.primary());
}

void AtomicAction::begin_mirror(std::vector<Uid> path) {
  ActionStatus expected = ActionStatus::Created;
  if (!status_.compare_exchange_strong(expected, ActionStatus::Running)) {
    throw std::logic_error("AtomicAction::begin_mirror: action already begun");
  }
  context_policy_ = ContextPolicy::Detached;
  rt_.ancestry().register_action(uid_, std::move(path));
  rt_.note_begun();
}

void AtomicAction::finish_mirror() {
  ActionStatus expected = ActionStatus::Running;
  if (!status_.compare_exchange_strong(expected, ActionStatus::Committed)) {
    throw std::logic_error("AtomicAction::finish_mirror: mirror is not running");
  }
  rt_.ancestry().deregister_action(uid_);
  rt_.note_committed();
}

std::vector<UndoRecord> AtomicAction::extract_records(Colour c) {
  const std::scoped_lock lock(mutex_);
  std::vector<UndoRecord> out;
  std::erase_if(undo_, [&](UndoRecord& r) {
    if (r.colour != c) return false;
    out.push_back(std::move(r));
    return true;
  });
  return out;
}

void AtomicAction::add_colours(const ColourSet& extra) {
  const std::scoped_lock lock(mutex_);
  for (const Colour c : extra) colours_ = colours_.with(c);
}

AtomicAction::~AtomicAction() {
  if (status_.load() != ActionStatus::Running) return;
  try {
    abort();
  } catch (const std::exception& e) {
    MCA_LOG(Error, "action") << "abort during destruction of " << uid_ << " failed: " << e.what();
  }
}

void AtomicAction::begin(ContextPolicy policy) {
  ActionStatus expected = ActionStatus::Created;
  if (!status_.compare_exchange_strong(expected, ActionStatus::Running)) {
    throw std::logic_error("AtomicAction::begin: action already begun");
  }
  context_policy_ = policy;
  if (parent_ != nullptr) {
    if (parent_->status() != ActionStatus::Running) {
      status_.store(ActionStatus::Created);
      throw std::logic_error("AtomicAction::begin: parent is not running");
    }
    parent_->active_children_.fetch_add(1);
  }
  std::vector<Uid> path =
      parent_ != nullptr ? rt_.ancestry().path_of(parent_->uid()) : std::vector<Uid>{};
  path.push_back(uid_);
  rt_.ancestry().register_action(uid_, std::move(path));
  if (policy == ContextPolicy::OnThread) ActionContext::push(*this);
  rt_.note_begun();
  rt_.trace().record(TraceKind::ActionBegin, uid_, Uid::nil(), colours().to_string());
  MCA_LOG(Trace, "action") << "begin " << uid_ << " colours " << colours().to_string();
}

ColourSet AtomicAction::colours() const {
  const std::scoped_lock lock(mutex_);
  return colours_;
}

bool AtomicAction::has_colour(Colour c) const {
  const std::scoped_lock lock(mutex_);
  return colours_.contains(c);
}

Colour AtomicAction::private_colour() {
  const std::scoped_lock lock(mutex_);
  if (!private_colour_) {
    private_colour_ = Colour::fresh("priv");
    colours_ = colours_.with(*private_colour_);
  }
  return *private_colour_;
}

AtomicAction* AtomicAction::nearest_ancestor_with(Colour c) const {
  for (AtomicAction* a = parent_; a != nullptr; a = a->parent_) {
    if (a->has_colour(c)) return a;
  }
  if (parent_ == nullptr) {
    const std::scoped_lock lock(mutex_);
    if (mirror_heir_resolver_) return mirror_heir_resolver_(c);
  }
  return nullptr;
}

void AtomicAction::set_mirror_heir_resolver(std::function<AtomicAction*(Colour)> resolver) {
  const std::scoped_lock lock(mutex_);
  mirror_heir_resolver_ = std::move(resolver);
}

void AtomicAction::add_participant(std::shared_ptr<TerminationParticipant> participant,
                                   const std::string& key) {
  const std::scoped_lock lock(mutex_);
  if (!key.empty()) {
    const auto [it, inserted] = participant_index_.try_emplace(key, participants_.size());
    if (!inserted) {
      MCA_LOG(Warn, "action") << "participant key '" << key << "' already registered on "
                              << uid_ << "; dropping duplicate";
      return;
    }
  }
  participants_.push_back(RegisteredParticipant{key, std::move(participant)});
}

bool AtomicAction::has_participant(const std::string& key) const {
  const std::scoped_lock lock(mutex_);
  return participant_index_.contains(key);
}

std::shared_ptr<TerminationParticipant> AtomicAction::participant(const std::string& key) const {
  const std::scoped_lock lock(mutex_);
  auto it = participant_index_.find(key);
  if (it == participant_index_.end()) return nullptr;
  return participants_[it->second].participant;
}

std::vector<std::shared_ptr<TerminationParticipant>> AtomicAction::participants_snapshot() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::shared_ptr<TerminationParticipant>> out;
  out.reserve(participants_.size());
  for (const RegisteredParticipant& rp : participants_) out.push_back(rp.participant);
  return out;
}

LockOutcome AtomicAction::lock_for(LockManaged& object, LockMode logical) {
  if (status() != ActionStatus::Running) {
    throw std::logic_error("lock_for: action is not running");
  }
  refuse_foreign(rt_, object, "lock_for");
  const LockPlan plan = [&] {
    const std::scoped_lock lock(mutex_);
    return plan_;
  }();
  if (logical == LockMode::ExclusiveRead) {
    throw std::logic_error("lock_for: use lock_explicit for exclusive-read");
  }
  // Commutative acquisitions are write-class: they follow the plan's write
  // colours, only in COMMUTATIVE mode so commuting siblings share.
  std::vector<std::pair<LockMode, Colour>> commutative;
  if (logical == LockMode::Commutative) {
    commutative.reserve(plan.for_write.size());
    for (const auto& [mode, colour] : plan.for_write) {
      (void)mode;
      commutative.emplace_back(LockMode::Commutative, colour);
    }
  }
  const auto& acquisitions = logical == LockMode::Commutative ? commutative
                             : logical == LockMode::Write     ? plan.for_write
                                                              : plan.for_read;
  for (const auto& [mode, colour] : acquisitions) {
    if (!has_colour(colour)) {
      throw std::logic_error("lock plan names colour " + colour.name() +
                             " the action does not possess");
    }
    const LockOutcome o =
        rt_.lock_manager().acquire(uid_, object.uid(), mode, colour, lock_timeout_);
    if (o != LockOutcome::Granted) return o;
    if (status() != ActionStatus::Running) {
      // The action was terminated (e.g. a mirror aborted by its
      // coordinator) while this request waited: the grant must not stick.
      rt_.lock_manager().release_early(uid_, object.uid(), colour, mode);
      throw std::logic_error("lock_for: action terminated while waiting for a lock");
    }
  }
  object.ensure_activated();
  return LockOutcome::Granted;
}

LockOutcome AtomicAction::lock_explicit(LockManaged& object, LockMode mode, Colour colour) {
  if (status() != ActionStatus::Running) {
    throw std::logic_error("lock_explicit: action is not running");
  }
  refuse_foreign(rt_, object, "lock_explicit");
  if (!has_colour(colour)) {
    throw std::logic_error("lock_explicit: action does not possess colour " + colour.name());
  }
  const LockOutcome o =
      rt_.lock_manager().acquire(uid_, object.uid(), mode, colour, lock_timeout_);
  if (o == LockOutcome::Granted) {
    if (status() != ActionStatus::Running) {
      rt_.lock_manager().release_early(uid_, object.uid(), colour, mode);
      throw std::logic_error("lock_explicit: action terminated while waiting for a lock");
    }
    object.ensure_activated();
  }
  return o;
}

void AtomicAction::note_modified(LockManaged& object) {
  // The undo record carries the colour of the write lock this action holds;
  // the grant rules guarantee an object carries write locks of one colour
  // only, so the lookup is unambiguous.
  const std::optional<Colour> write_colour = rt_.lock_manager().write_colour(uid_, object.uid());
  if (!write_colour) {
    throw std::logic_error("modified() called without a write lock on object " +
                           object.uid().to_string());
  }
  const std::scoped_lock lock(mutex_);
  const bool already_recorded =
      std::any_of(undo_.begin(), undo_.end(),
                  [&](const UndoRecord& r) { return r.object == &object; });
  if (already_recorded) return;
  undo_.push_back(UndoRecord{&object, *write_colour, object.snapshot_state()});
}

void AtomicAction::adopt_records(std::vector<UndoRecord> records) {
  const std::scoped_lock lock(mutex_);
  for (UndoRecord& incoming : records) {
    const bool have = std::any_of(undo_.begin(), undo_.end(), [&](const UndoRecord& r) {
      return r.object == incoming.object;
    });
    // Keep the earliest snapshot: if this action already filed (or adopted)
    // a record for the object, its snapshot predates the child's.
    if (!have) undo_.push_back(std::move(incoming));
  }
}

std::vector<ColourDisposition> AtomicAction::dispositions() const {
  std::vector<ColourDisposition> out;
  for (const Colour c : colours()) {
    AtomicAction* heir = nearest_ancestor_with(c);
    out.push_back(ColourDisposition{c, heir != nullptr ? heir->uid() : Uid::nil()});
  }
  return out;
}

std::size_t AtomicAction::undo_record_count() const {
  const std::scoped_lock lock(mutex_);
  return undo_.size();
}

void AtomicAction::discard_shadows(const std::vector<UndoRecord*>& prepared) {
  for (UndoRecord* r : prepared) discard_shadow_best_effort(rt_.default_store(), r->object->uid());
}

bool AtomicAction::prepare_permanent(const std::vector<Colour>& permanent,
                                     const ShadowCover& cover,
                                     std::vector<UndoRecord*>& prepared) {
  const std::scoped_lock lock(mutex_);
  std::vector<ObjectState> shadows;
  try {
    for (UndoRecord& r : undo_) {
      if (std::find(permanent.begin(), permanent.end(), r.colour) == permanent.end()) continue;
      shadows.push_back(r.object->make_object_state());
      prepared.push_back(&r);
    }
    cover.write(shadows);
  } catch (const std::exception& e) {
    MCA_LOG(Warn, "action") << "prepare " << uid_ << " failed: " << e.what();
    discard_shadows(prepared);
    prepared.clear();
    return false;
  }
  return true;
}

Outcome AtomicAction::commit() {
  if (status() != ActionStatus::Running) {
    throw std::logic_error("AtomicAction::commit: action is not running");
  }
  if (active_children_.load() != 0) {
    throw std::logic_error("AtomicAction::commit: children still running");
  }

  // Resolve each colour to its heir (or to permanence).
  struct Resolution {
    Colour colour;
    AtomicAction* heir;
  };
  std::vector<Resolution> resolutions;
  std::vector<Colour> permanent;
  for (const Colour c : colours()) {
    AtomicAction* heir = nearest_ancestor_with(c);
    resolutions.push_back({c, heir});
    if (heir == nullptr) permanent.push_back(c);
  }

  const auto participants = participants_snapshot();

  // Commutative one-phase fast path (DESIGN.md §5.9): a top-level action
  // whose write set is entirely commutative deltas (no undo records, every
  // participant delta-only) skips the prepare/vote round. decide_delta makes
  // the decision durable (coordinator log); start_delta folds local tallies
  // and overlaps the one-phase tx.delta batches; locks then release as on
  // any outermost commit. A declined decision falls back to the classical
  // path below — sound, because nothing has been applied anywhere yet.
  if (permanent.size() == resolutions.size() && undo_record_count() == 0 &&
      !participants.empty()) {
    const bool eligible = std::all_of(participants.begin(), participants.end(),
                                      [&](const auto& p) { return p->delta_only(uid_); });
    bool decided = eligible;
    for (const auto& p : participants) {
      if (!decided) break;
      try {
        decided = p->decide_delta(uid_);
      } catch (const std::exception& e) {
        MCA_LOG(Warn, "action") << "participant decide_delta threw: " << e.what();
        decided = false;
      }
    }
    if (eligible && decided) {
      std::vector<TerminationParticipant::Pending> pendings;
      pendings.reserve(participants.size());
      for (const auto& p : participants) {
        try {
          pendings.push_back(p->start_delta(uid_));
        } catch (const std::exception& e) {
          MCA_LOG(Error, "action") << "participant delta apply threw: " << e.what();
        }
      }
      for (auto& pend : pendings) {
        if (pend.wait) (void)pend.wait();
      }
      for (const auto& p : participants) {
        try {
          p->finish_delta(uid_);
        } catch (const std::exception& e) {
          MCA_LOG(Error, "action") << "participant finish_delta threw: " << e.what();
        }
      }
      for (const Resolution& res : resolutions) {
        rt_.trace().record(TraceKind::ColourReleased, uid_, Uid::nil(), res.colour.name());
        rt_.lock_manager().on_commit_release(uid_, res.colour);
      }
      status_.store(ActionStatus::Committed);
      end_bookkeeping();
      rt_.note_committed();
      rt_.trace().record(TraceKind::ActionCommit, uid_);
      MCA_LOG(Trace, "action") << "committed " << uid_ << " (commutative fast path)";
      return Outcome::Committed;
    }
  }

  // Phase one: shadows for every permanent-colour update, then participants.
  // Any failure aborts the whole action — failure atomicity spans all the
  // action's colours (§5.1 property 1). A participant's decision record
  // covers the shadows at both ends of the commit (DESIGN.md §5.4): at
  // prepare they only queue, and its flush (or a veto's discards) carries
  // them.
  ShadowCover cover(rt_.default_store(),
                    std::any_of(participants.begin(), participants.end(),
                                [](const auto& p) { return p->writes_decision_record(); }));
  std::vector<UndoRecord*> prepared;
  if (!prepare_permanent(permanent, cover, prepared)) {
    rt_.note_prepare_failure();
    abort();
    return Outcome::Aborted;
  }
  const auto dispos = dispositions();
  MCA_CRASHPOINT("tpc.coord.phase1.pre_send");
  bool veto = false;
  {
    // Fan phase one out: start every exchange, then gather votes in
    // completion order. The first no/timeout vote short-circuits — the
    // stragglers are cancelled and drained before the abort goes out, so a
    // late tx.prepare retransmit can never land after its tx.abort was
    // processed with protocol state still live (a mirror-less participant
    // votes no and writes nothing).
    auto board = std::make_shared<VoteBoard>();
    std::vector<TerminationParticipant::Pending> pendings;
    pendings.reserve(participants.size());
    for (auto& p : participants) {
      TerminationParticipant::Pending pend;
      try {
        pend = p->start_prepare(uid_, permanent);
      } catch (const std::exception& e) {
        MCA_LOG(Warn, "action") << "participant prepare threw: " << e.what();
        board->note(false);
        continue;
      }
      if (pend.subscribe) {
        pend.subscribe([board](bool vote) { board->note(vote); });
      } else if (pend.wait) {
        board->note(pend.wait());
      } else {
        board->note(true);
      }
      pendings.push_back(std::move(pend));
    }
    veto = board->wait_all_or_veto(participants.size());
    if (veto) {
      for (auto& pend : pendings) {
        if (pend.cancel) pend.cancel();
      }
    }
    for (auto& pend : pendings) {
      if (pend.wait) (void)pend.wait();
    }
  }
  if (veto) {
    discard_shadows(prepared);
    rt_.note_prepare_failure();
    abort();
    return Outcome::Aborted;
  }

  // Every vote is in but the decision is not durable anywhere: a kill here
  // must resolve as abort (presumed abort — the log record is the commit).
  MCA_CRASHPOINT("tpc.coord.post_prepare_pre_log");
  // Decision point: participants make the decision durable (the coordinator
  // log writes — and mirrors — its record here, before any promotion). A
  // participant that cannot do so turns the commit into an abort while that
  // is still sound. CrashPointHit is not a std::exception, so a simulated
  // kill inside the window tunnels out instead of being read as a refusal.
  {
    std::vector<Uid> prepared_uids;
    prepared_uids.reserve(prepared.size());
    for (UndoRecord* r : prepared) prepared_uids.push_back(r->object->uid());
    bool decided = true;
    for (auto& p : participants) {
      try {
        if (!p->decide_commit(uid_, prepared_uids)) {
          decided = false;
          break;
        }
      } catch (const std::exception& e) {
        MCA_LOG(Warn, "action") << "participant decide threw: " << e.what();
        decided = false;
        break;
      }
    }
    if (!decided) {
      discard_shadows(prepared);
      rt_.note_prepare_failure();
      abort();
      return Outcome::Aborted;
    }
  }
  // Phase two: promote shadows, then process locks and records per colour.
  // Covered promotions go to the participant whose durable decision record
  // covers them (lazy phase two); the rest wait per write.
  for (UndoRecord* r : prepared) cover.add(r->object->uid());
  const bool covered = std::any_of(participants.begin(), participants.end(),
                                   [&](const auto& p) { return p->promote_covered(uid_, cover); });
  if (!covered) cover.promote();

  for (const Resolution& res : resolutions) {
    if (res.heir == nullptr) {
      rt_.trace().record(TraceKind::ColourReleased, uid_, Uid::nil(), res.colour.name());
      rt_.lock_manager().on_commit_release(uid_, res.colour);
    } else {
      rt_.trace().record(TraceKind::ColourInherited, uid_, res.heir->uid(), res.colour.name());
      std::vector<UndoRecord> passing;
      {
        const std::scoped_lock lock(mutex_);
        std::erase_if(undo_, [&](UndoRecord& r) {
          if (r.colour != res.colour) return false;
          passing.push_back(std::move(r));
          return true;
        });
      }
      res.heir->adopt_records(std::move(passing));
      rt_.lock_manager().on_commit_inherit(uid_, res.colour, res.heir->uid());
    }
  }

  // Phase two to the participants, started in registration order; the
  // remote deliveries overlap and are drained afterwards.
  std::vector<TerminationParticipant::Pending> pendings;
  pendings.reserve(participants.size());
  for (auto& p : participants) {
    try {
      pendings.push_back(p->start_commit(uid_, dispos));
    } catch (const std::exception& e) {
      MCA_LOG(Error, "action") << "participant commit threw: " << e.what();
    }
  }
  for (auto& pend : pendings) {
    if (pend.wait) (void)pend.wait();
  }
  {
    const std::scoped_lock lock(mutex_);
    undo_.clear();
  }

  status_.store(ActionStatus::Committed);
  end_bookkeeping();
  rt_.note_committed();
  rt_.trace().record(TraceKind::ActionCommit, uid_);
  MCA_LOG(Trace, "action") << "committed " << uid_;
  return Outcome::Committed;
}

void AtomicAction::abort() {
  if (status() != ActionStatus::Running) {
    throw std::logic_error("AtomicAction::abort: action is not running");
  }
  if (active_children_.load() != 0) {
    throw std::logic_error("AtomicAction::abort: children still running");
  }
  const auto participants = [&] {
    const std::scoped_lock lock(mutex_);
    std::vector<std::shared_ptr<TerminationParticipant>> out;
    out.reserve(participants_.size());
    for (const RegisteredParticipant& rp : participants_) out.push_back(rp.participant);
    return out;
  }();
  std::vector<TerminationParticipant::Pending> pendings;
  pendings.reserve(participants.size());
  for (auto& p : participants) {
    try {
      pendings.push_back(p->start_abort(uid_));
    } catch (const std::exception& e) {
      MCA_LOG(Error, "action") << "participant abort threw: " << e.what();
    }
  }
  for (auto& pend : pendings) {
    if (pend.wait) (void)pend.wait();
  }
  restore_undo_records();
  rt_.lock_manager().on_abort(uid_);
  status_.store(ActionStatus::Aborted);
  end_bookkeeping();
  rt_.note_aborted();
  rt_.trace().record(TraceKind::ActionAbort, uid_);
  MCA_LOG(Trace, "action") << "aborted " << uid_;
}

void AtomicAction::abandon() {
  if (status() != ActionStatus::Running) return;
  {
    const std::scoped_lock lock(mutex_);
    undo_.clear();  // the objects' memory was reset by the crash; nothing to undo
    participants_.clear();
    participant_index_.clear();
  }
  status_.store(ActionStatus::Aborted);
  end_bookkeeping();
  rt_.note_aborted();
  rt_.trace().record(TraceKind::ActionAbort, uid_);
  MCA_LOG(Trace, "action") << "abandoned " << uid_ << " (coordinator crash)";
}

void AtomicAction::restore_undo_records() {
  const std::scoped_lock lock(mutex_);
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    it->object->apply_state(it->before);
  }
  undo_.clear();
}

void AtomicAction::end_bookkeeping() {
  if (context_policy_ == ContextPolicy::OnThread) ActionContext::pop(*this);
  rt_.ancestry().deregister_action(uid_);
  if (parent_ != nullptr) parent_->active_children_.fetch_sub(1);
}

}  // namespace mca
