#include "storage/object_store.h"

#include <algorithm>
#include <utility>

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

void discard_shadow_best_effort(ObjectStore& store, const Uid& uid) {
  try {
    store.discard_shadow(uid);
  } catch (const std::exception& e) {
    MCA_LOG(Warn, "store") << "discard of shadow " << uid << " refused: " << e.what();
  }
}

void ShadowCover::write(const std::vector<ObjectState>& states) const {
  if (states.empty()) return;
  if (!covered_) {
    store_.write_batch(states, WriteKind::Shadow);
    return;
  }
  const DeferToNextWrite ride;
  store_.write_batch(states, WriteKind::Shadow);
}

void ShadowCover::add(const Uid& uid) {
  if (covered_) {
    held_.push_back(uid);
  } else {
    store_.commit_shadow(uid);
  }
}

void ShadowCover::promote() const {
  for (const Uid& uid : held_) store_.commit_shadow(uid);
}

}  // namespace mca
