#include "storage/object_store.h"

#include <algorithm>
#include <exception>
#include <latch>
#include <utility>

#include "common/executor.h"
#include "common/logging.h"

namespace mca {
namespace {

struct DeferredScope {
  int depth = 0;          // open DeferDurability scopes
  int forward_depth = 0;  // open DeferToNextWrite scopes
  std::vector<ObjectStore*> joined;  // stores to wake when the outermost scope closes
};

thread_local DeferredScope tls_deferred;

}  // namespace

DeferDurability::DeferDurability() noexcept { ++tls_deferred.depth; }

DeferDurability::~DeferDurability() {
  if (--tls_deferred.depth > 0) return;
  // Swap the list out first: a store's wake must not see the list it is
  // being called from.
  const std::vector<ObjectStore*> joined = std::exchange(tls_deferred.joined, {});
  for (ObjectStore* store : joined) store->wake_deferred();
}

bool DeferDurability::active() noexcept { return tls_deferred.depth > 0; }

void DeferDurability::join(ObjectStore& store) {
  auto& joined = tls_deferred.joined;
  if (std::find(joined.begin(), joined.end(), &store) == joined.end()) joined.push_back(&store);
}

DeferToNextWrite::DeferToNextWrite() noexcept { ++tls_deferred.forward_depth; }

DeferToNextWrite::~DeferToNextWrite() { --tls_deferred.forward_depth; }

bool DeferToNextWrite::active() noexcept { return tls_deferred.forward_depth > 0; }

void ShadowBatches::add(ObjectStore& store, ObjectState state) {
  auto it = std::find_if(batches_.begin(), batches_.end(),
                         [&](const auto& batch) { return batch.first == &store; });
  if (it == batches_.end()) {
    batches_.emplace_back(&store, std::vector<ObjectState>{});
    it = std::prev(batches_.end());
  }
  it->second.push_back(std::move(state));
}

void discard_shadow_best_effort(ObjectStore& store, const Uid& uid) {
  try {
    store.discard_shadow(uid);
  } catch (const std::exception& e) {
    MCA_LOG(Warn, "store") << "discard of shadow " << uid << " refused: " << e.what();
  }
}

void ShadowBatches::discard() const {
  for (const auto& [store, states] : batches_) {
    for (const ObjectState& state : states) discard_shadow_best_effort(*store, state.uid());
  }
}

void ShadowCover::write(const ShadowBatches& batches, Executor& executor) const {
  const auto& all = batches.batches_;
  if (all.empty()) return;
  if (all.size() == 1) {
    write(*all[0].first, all[0].second);
    return;
  }
  std::vector<std::exception_ptr> errors(all.size());
  std::latch done(static_cast<std::ptrdiff_t>(all.size() - 1));
  for (std::size_t i = 1; i < all.size(); ++i) {
    auto work = [&, i] {
      try {
        write(*all[i].first, all[i].second);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      done.count_down();
    };
    if (!executor.try_submit(work)) work();
  }
  try {
    write(*all[0].first, all[0].second);
  } catch (...) {
    errors[0] = std::current_exception();
  }
  done.wait();

  // A std::exception is a veto. Anything else (a simulated kill) is not
  // caught here and leaves at once, so no veto can swallow a kill.
  std::exception_ptr veto;
  for (const std::exception_ptr& error : errors) {
    if (!error) continue;
    try {
      std::rethrow_exception(error);
    } catch (const std::exception&) {
      if (!veto) veto = error;
    }
  }
  if (veto) std::rethrow_exception(veto);
}

void ShadowCover::write(ObjectStore& store, const std::vector<ObjectState>& states) const {
  if (!covers(store)) {
    store.write_batch(states, WriteKind::Shadow);
    return;
  }
  const DeferToNextWrite ride;
  store.write_batch(states, WriteKind::Shadow);
}

void ShadowCover::add(ObjectStore& store, const Uid& uid) {
  if (covers(store)) {
    held_.push_back(uid);
  } else {
    store.commit_shadow(uid);
  }
}

void ShadowCover::promote() const {
  for (const Uid& uid : held_) covering_->commit_shadow(uid);
}

}  // namespace mca
