#include "sim/crash_points.h"

#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace mca::crash_points {

namespace {

// Every instrumented window in the library, in rough protocol order. The
// sweep test iterates this table; keep the window text accurate — it is the
// documentation of what a kill there leaves on disk.
constexpr Info kPoints[] = {
    {"store.wal.append.mid_record",
     "WalStore append: record header on disk, body not — torn tail; replay CRC-checks the frame, "
     "truncates at the last whole record"},
    {"store.wal.append.pre_fsync",
     "WalStore append: record fully appended, fsync not issued — under the simulated crash model "
     "(page cache survives) the record is durable and replay keeps it"},
    {"store.wal.checkpoint.mid_write",
     "WalStore checkpoint: checkpoint.tmp partially written — recovery deletes the tmp and "
     "replays the old checkpoint plus the full log"},
    {"store.wal.checkpoint.pre_rename",
     "WalStore checkpoint: checkpoint.tmp complete, rename not done — old checkpoint still "
     "authoritative, recovery discards the tmp"},
    {"store.wal.checkpoint.pre_compact",
     "WalStore checkpoint: new checkpoint durable, covered segments not yet deleted — replay "
     "skips segments at or below the checkpoint's covered sequence"},
    {"tpc.participant.prepare.pre_shadow",
     "participant prepare: vote requested, nothing durable yet — coordinator sees no vote, "
     "presumes abort"},
    {"tpc.participant.post_shadow_pre_marker",
     "participant prepare: shadows written (on a WalStore only queued, no flush yet), prepared "
     "marker absent — restart must presume abort and discard any unreferenced shadows"},
    {"tpc.participant.prepare.post_marker",
     "participant prepare: marker durable, YES vote never sent — participant restarts in doubt, "
     "coordinator presumes abort"},
    {"tpc.participant.commit.pre_promote",
     "participant commit: COMMIT received, no shadow promoted — marker + shadows intact, recovery "
     "re-commits"},
    {"tpc.participant.commit.pre_marker_drop",
     "participant commit: shadow promotions issued (on a WalStore only queued, no flush yet), "
     "marker still present, locks not yet released — recovery re-resolves idempotently"},
    {"tpc.participant.abort.pre_discard",
     "participant abort: ABORT received, shadows still present — marker intact, recovery "
     "re-aborts"},
    {"tpc.participant.abort.pre_marker_drop",
     "participant abort: shadows discarded, marker still present — recovery asks again, learns "
     "abort"},
    {"tpc.participant.resolve.post_apply_pre_marker_drop",
     "in-doubt resolution: outcome applied, marker not yet dropped — a second recovery pass must "
     "be idempotent"},
    {"tpc.coord.phase1.pre_send",
     "coordinator: commit entered, own shadows written (on a WalStore only queued when a decision "
     "record will cover them), no prepare sent — participants never hear of the transaction"},
    {"tpc.coord.post_prepare_pre_log",
     "coordinator: all YES votes in, commit record not logged (own shadows on a WalStore still "
     "only queued) — participants in doubt, absence of the record means abort"},
    {"tpc.coord.post_log_pre_mirror",
     "coordinator: pending decision record durable, no mirror sent — every witness fences, "
     "participants and restart reconciliation presume abort"},
    {"tpc.coord.mirror.pre_send",
     "coordinator: before mirroring the decision to the next witness — with skip=k exactly k "
     "witnesses hold the record; any surviving copy resolves the commit"},
    {"tpc.coord.post_log_pre_phase2",
     "coordinator: commit record durable, no COMMIT sent — participants in doubt, recovery must "
     "find commit"},
    {"tpc.coord.commit.pre_send",
     "coordinator phase 2: before sending COMMIT to the next participant — committed on some "
     "nodes, in doubt on the rest"},
    {"tpc.coord.abort.pre_send",
     "coordinator abort: before sending ABORT to the next participant — aborted on some nodes, in "
     "doubt on the rest"},
    {"node.recovery.post_status_pre_resolve",
     "recovery daemon: coordinator verdict received, not yet applied — marker untouched, next "
     "pass retries"},
    {"store.delta.mid_append",
     "delta chain append: tally folded in memory, chain record not durable — replay stops at the "
     "previous record; the coordinator's Delta record (or retried batch) re-applies the ops"},
    {"tpc.delta.pre_apply",
     "participant tx.delta: batch received, nothing applied — mirror lost with its locks; the "
     "coordinator retries and the shipped batch applies from scratch"},
    {"tpc.delta.post_apply_pre_ack",
     "participant tx.delta: batch durably applied, ack never sent — the retried batch dedups "
     "against the chain and only re-acks"},
};

struct ArmEntry {
  unsigned skip = 0;
  std::function<void()> action;
};

struct Registry {
  std::mutex mutex;
  std::unordered_map<std::string, ArmEntry> armed;
  std::unordered_map<std::string, std::uint64_t> hits;
  std::unordered_map<std::string, std::uint64_t> fires;
  std::optional<std::string> last_fired;
};

Registry& registry() {
  static Registry r;
  return r;
}

bool known(std::string_view name) {
  for (const Info& info : kPoints) {
    if (name == info.name) return true;
  }
  return false;
}

}  // namespace

std::atomic<bool> g_any_armed{false};

std::span<const Info> all() { return kPoints; }

void hit(std::string_view name) {
  std::function<void()> action;
  bool fire = false;
  {
    Registry& r = registry();
    const std::scoped_lock lock(r.mutex);
    ++r.hits[std::string(name)];
    const auto it = r.armed.find(std::string(name));
    if (it == r.armed.end()) return;
    if (it->second.skip > 0) {
      --it->second.skip;
      return;
    }
    action = std::move(it->second.action);
    r.armed.erase(it);
    if (r.armed.empty()) g_any_armed.store(false, std::memory_order_relaxed);
    r.last_fired = std::string(name);
    ++r.fires[std::string(name)];
    fire = true;
  }
  if (!fire) return;
  if (action) {
    action();
  } else {
    throw CrashPointHit(std::string(name));
  }
}

void arm(std::string_view name, unsigned skip, std::function<void()> action) {
  if (!known(name)) {
    throw std::invalid_argument("unknown crash point: " + std::string(name));
  }
  Registry& r = registry();
  const std::scoped_lock lock(r.mutex);
  r.armed.insert_or_assign(std::string(name), ArmEntry{skip, std::move(action)});
  g_any_armed.store(true, std::memory_order_relaxed);
}

void disarm(std::string_view name) {
  Registry& r = registry();
  const std::scoped_lock lock(r.mutex);
  r.armed.erase(std::string(name));
  if (r.armed.empty()) g_any_armed.store(false, std::memory_order_relaxed);
}

void disarm_all() {
  Registry& r = registry();
  const std::scoped_lock lock(r.mutex);
  r.armed.clear();
  g_any_armed.store(false, std::memory_order_relaxed);
}

std::optional<std::string> last_fired() {
  Registry& r = registry();
  const std::scoped_lock lock(r.mutex);
  return r.last_fired;
}

std::uint64_t fire_count(std::string_view name) {
  Registry& r = registry();
  const std::scoped_lock lock(r.mutex);
  const auto it = r.fires.find(std::string(name));
  return it == r.fires.end() ? 0 : it->second;
}

std::uint64_t hit_count(std::string_view name) {
  Registry& r = registry();
  const std::scoped_lock lock(r.mutex);
  const auto it = r.hits.find(std::string(name));
  return it == r.hits.end() ? 0 : it->second;
}

void reset() {
  Registry& r = registry();
  const std::scoped_lock lock(r.mutex);
  r.armed.clear();
  r.hits.clear();
  r.fires.clear();
  r.last_fired.reset();
  g_any_armed.store(false, std::memory_order_relaxed);
}

}  // namespace mca::crash_points
