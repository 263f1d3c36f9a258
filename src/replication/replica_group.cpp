#include "replication/replica_group.h"

#include <latch>

#include "common/logging.h"
#include "core/action_context.h"

namespace mca {

// Ties a replica's health to the fate of the action that resynced it:
// commit promotes Rejoining → Healthy, abort demotes it back to Stale (the
// abort also reverted the copied data, so the two stay in step).
class ReplicatedMap::RejoinParticipant final : public TerminationParticipant {
 public:
  RejoinParticipant(ReplicatedMap& group, std::size_t index) : group_(group), index_(index) {}

  void commit(const Uid&, const std::vector<ColourDisposition>&) override {
    group_.finish_rejoin(index_, /*committed=*/true);
  }
  void abort(const Uid&) override { group_.finish_rejoin(index_, /*committed=*/false); }

 private:
  ReplicatedMap& group_;
  std::size_t index_;
};

ReplicatedMap::ReplicatedMap(std::vector<RemoteMap> replicas)
    : replicas_(std::move(replicas)),
      health_(replicas_.size(), ReplicaHealth::Healthy),
      quorum_(replicas_.size()) {
  if (replicas_.empty()) throw std::invalid_argument("replica group must not be empty");
}

ReplicatedMap::~ReplicatedMap() {
  Runtime* rt;
  {
    const std::scoped_lock lock(mutex_);
    rt = rt_;
  }
  if (rt == nullptr) return;
  // Drop the probe timer (waiting out an in-flight tick), then wait for a
  // pass already handed to the executor: it touches this object throughout.
  rt->timers().cancel_owner(this);
  std::unique_lock lock(mutex_);
  probe_done_.wait(lock, [this] { return !probe_running_; });
}

void ReplicatedMap::set_write_quorum(std::size_t quorum) {
  const std::scoped_lock lock(mutex_);
  if (quorum == 0 || quorum > replicas_.size()) {
    throw std::invalid_argument("write quorum out of range");
  }
  quorum_ = quorum;
}

void ReplicatedMap::set_probe_interval(std::chrono::milliseconds interval) {
  {
    const std::scoped_lock lock(mutex_);
    probe_interval_ = interval;
  }
  arm_probe_timer();
}

void ReplicatedMap::attach_runtime(Runtime& rt) {
  {
    const std::scoped_lock lock(mutex_);
    rt_ = &rt;
  }
  arm_probe_timer();
}

void ReplicatedMap::arm_probe_timer() {
  Runtime* rt;
  std::chrono::milliseconds interval;
  TimerService::TimerId old;
  {
    const std::scoped_lock lock(mutex_);
    rt = rt_;
    interval = probe_interval_;
    old = probe_timer_;
    probe_timer_ = TimerService::kInvalid;
  }
  if (rt == nullptr) return;
  rt->timers().cancel(old);
  if (interval.count() <= 0) return;  // timer probing off; nothing replaces it
  const auto id = rt->timers().schedule_every(interval, [this] { on_probe_timer(); }, this);
  const std::scoped_lock lock(mutex_);
  probe_timer_ = id;
}

void ReplicatedMap::set_health_observer(HealthObserver observer) {
  const std::scoped_lock lock(mutex_);
  observer_ = std::move(observer);
}

std::vector<std::size_t> ReplicatedMap::indices_in(ReplicaHealth a, ReplicaHealth b) const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < health_.size(); ++i) {
    if (health_[i] == a || health_[i] == b) out.push_back(i);
  }
  return out;
}

std::optional<std::string> ReplicatedMap::lookup(const std::string& key) const {
  // Healthy only: a Stale replica missed writes, and a Rejoining one holds
  // data whose commit is still undecided.
  for (const std::size_t i : indices_in(ReplicaHealth::Healthy)) {
    try {
      return replicas_[i].lookup(key);
    } catch (const NodeUnreachable&) {
      MCA_LOG(Debug, "replication") << "lookup failover past replica " << i;
    }
  }
  throw ReplicaUnavailable("no reachable replica for lookup");
}

template <typename Fn>
void ReplicatedMap::write_all(Fn&& op) {
  Runtime* rt;
  {
    const std::scoped_lock lock(mutex_);
    rt = rt_;
  }
  // Standalone groups probe stale replicas from the write path; an attached
  // group leaves that to the timer so writes never pay for a resync.
  if (rt == nullptr) maybe_probe_stale();

  // Healthy + Rejoining: a rejoining replica must see every write of the
  // action that is bringing it back, or it would rejoin behind.
  const std::vector<std::size_t> targets =
      indices_in(ReplicaHealth::Healthy, ReplicaHealth::Rejoining);
  struct Attempt {
    bool reached = false;
    std::exception_ptr error;
  };
  std::vector<Attempt> attempts(targets.size());
  auto run_one = [&](std::size_t slot) {
    try {
      op(replicas_[targets[slot]]);
      attempts[slot].reached = true;
    } catch (...) {
      attempts[slot].error = std::current_exception();
    }
  };

  AtomicAction* caller = ActionContext::current();
  if (rt != nullptr && caller != nullptr && targets.size() > 1) {
    // Parallel fan-out: workers adopt the caller's action so their invokes
    // register participants on it; refused submissions run inline (the
    // caller thread already has the context).
    std::latch done(static_cast<std::ptrdiff_t>(targets.size() - 1));
    for (std::size_t slot = 1; slot < targets.size(); ++slot) {
      auto work = [&, slot] {
        ActionContext::push(*caller);
        run_one(slot);
        ActionContext::pop(*caller);
        done.count_down();
      };
      if (!rt->executor().try_submit_blocking(work)) {
        run_one(slot);
        done.count_down();
      }
    }
    run_one(0);
    done.wait();
  } else {
    for (std::size_t slot = 0; slot < targets.size(); ++slot) run_one(slot);
  }

  std::size_t reached = 0;
  std::exception_ptr app_error;
  for (std::size_t slot = 0; slot < targets.size(); ++slot) {
    if (attempts[slot].reached) {
      ++reached;
      continue;
    }
    try {
      std::rethrow_exception(attempts[slot].error);
    } catch (const NodeUnreachable&) {
      mark_stale(targets[slot]);
      MCA_LOG(Info, "replication") << "replica " << targets[slot]
                                   << " unreachable; marked stale";
    } catch (...) {
      // Application-level failure (e.g. a lock refusal mapped to
      // RemoteError): the replica executed-and-failed rather than vanished,
      // so it is counted as failed but not stale. Every reachable replica
      // saw the same write attempt — keeping the copies mutually consistent
      // when the enclosing action aborts and undoes them — so the error can
      // surface once the fan-out is complete.
      if (!app_error) app_error = attempts[slot].error;
      MCA_LOG(Info, "replication") << "replica " << targets[slot]
                                   << " write failed at app level";
    }
  }
  std::size_t quorum;
  {
    const std::scoped_lock lock(mutex_);
    quorum = quorum_;
  }
  if (app_error) std::rethrow_exception(app_error);
  if (reached < quorum) {
    throw ReplicaUnavailable("write reached " + std::to_string(reached) + " replicas, quorum " +
                             std::to_string(quorum));
  }
}

void ReplicatedMap::insert(const std::string& key, const std::string& value) {
  write_all([&](RemoteMap& r) { r.insert(key, value); });
}

void ReplicatedMap::erase(const std::string& key) {
  write_all([&](RemoteMap& r) { (void)r.erase(key); });
}

void ReplicatedMap::maybe_probe_stale() {
  std::vector<std::size_t> to_probe;
  {
    const std::scoped_lock lock(mutex_);
    const auto now = std::chrono::steady_clock::now();
    if (now < last_probe_ + probe_interval_) return;
    for (std::size_t i = 0; i < health_.size(); ++i) {
      if (health_[i] == ReplicaHealth::Stale) to_probe.push_back(i);
    }
    if (to_probe.empty()) return;
    last_probe_ = now;
  }
  for (const std::size_t i : to_probe) {
    try {
      resync(i);
      MCA_LOG(Info, "replication") << "replica " << i << " back: auto-resync started";
    } catch (const std::exception&) {
      // Still unreachable (or no healthy source): stays stale until the
      // next due probe.
    }
  }
}

void ReplicatedMap::on_probe_timer() {
  // Shared timer thread: flip flags only, never block.
  Runtime* rt;
  {
    const std::scoped_lock lock(mutex_);
    if (probe_running_) return;
    bool any_stale = false;
    for (const ReplicaHealth h : health_) any_stale |= (h == ReplicaHealth::Stale);
    if (!any_stale) return;
    probe_running_ = true;
    rt = rt_;
  }
  if (!rt->executor().try_submit_blocking([this] { probe_pass(); })) {
    const std::scoped_lock lock(mutex_);
    probe_running_ = false;
    probe_done_.notify_all();
  }
}

void ReplicatedMap::probe_pass() {
  Runtime* rt;
  std::vector<std::size_t> to_probe;
  {
    const std::scoped_lock lock(mutex_);
    rt = rt_;
    for (std::size_t i = 0; i < health_.size(); ++i) {
      if (health_[i] == ReplicaHealth::Stale) to_probe.push_back(i);
    }
  }
  for (const std::size_t i : to_probe) {
    // Each rejoin rides its own detached root action so a failure (or an
    // abort) affects only this replica's attempt.
    try {
      AtomicAction rejoin(*rt, nullptr, ColourSet{Colour::plain()});
      rejoin.begin();
      try {
        resync(i);
      } catch (...) {
        rejoin.abort();
        throw;
      }
      if (rejoin.commit() == Outcome::Committed) {
        MCA_LOG(Info, "replication") << "replica " << i << " back: probe resynced it";
      }
    } catch (const std::exception&) {
      // Still unreachable (or no healthy source): stays stale, next probe
      // retries.
    }
  }
  const std::scoped_lock lock(mutex_);
  probe_running_ = false;
  probe_done_.notify_all();
}

void ReplicatedMap::resync(std::size_t replica_index) {
  if (replica_index >= replicas_.size()) throw std::invalid_argument("bad replica index");
  // Find a healthy source.
  for (const std::size_t i : indices_in(ReplicaHealth::Healthy)) {
    if (i == replica_index) continue;
    try {
      RemoteMap& source = replicas_[i];
      RemoteMap& target = replicas_[replica_index];
      for (const std::string& key : source.keys()) {
        if (auto value = source.lookup(key)) target.insert(key, *value);
      }
      // Remove keys the source no longer has.
      for (const std::string& key : target.keys()) {
        if (!source.contains(key)) (void)target.erase(key);
      }
      if (AtomicAction* act = ActionContext::current()) {
        // The copied data commits (or reverts) with `act`; the health flip
        // must ride the same outcome.
        set_health(replica_index, ReplicaHealth::Rejoining);
        const std::string key = "replica.rejoin:" + std::to_string(replica_index);
        if (!act->has_participant(key)) {
          act->add_participant(std::make_shared<RejoinParticipant>(*this, replica_index), key);
        }
      } else {
        set_health(replica_index, ReplicaHealth::Healthy);
      }
      return;
    } catch (const NodeUnreachable&) {
      continue;
    }
  }
  throw ReplicaUnavailable("no healthy source replica for resync");
}

void ReplicatedMap::mark_stale(std::size_t replica_index) {
  set_health(replica_index, ReplicaHealth::Stale);
}

void ReplicatedMap::set_health(std::size_t index, ReplicaHealth next) {
  HealthObserver observer;
  {
    const std::scoped_lock lock(mutex_);
    if (health_.at(index) == next) return;
    health_[index] = next;
    observer = observer_;
  }
  if (observer) observer(index, next);
}

void ReplicatedMap::finish_rejoin(std::size_t index, bool committed) {
  HealthObserver observer;
  ReplicaHealth next;
  {
    const std::scoped_lock lock(mutex_);
    // Only a replica still Rejoining resolves here: a concurrent
    // mark_stale (the node died again mid-rejoin) must not be overridden.
    if (health_.at(index) != ReplicaHealth::Rejoining) return;
    next = committed ? ReplicaHealth::Healthy : ReplicaHealth::Stale;
    health_[index] = next;
    observer = observer_;
  }
  if (observer) observer(index, next);
}

ReplicaHealth ReplicatedMap::health(std::size_t replica_index) const {
  const std::scoped_lock lock(mutex_);
  return health_.at(replica_index);
}

bool ReplicatedMap::stale(std::size_t replica_index) const {
  return health(replica_index) != ReplicaHealth::Healthy;
}

}  // namespace mca
