// FaultyStore: fault-injecting decorator over any ObjectStore.
//
// Used by the failure-injection tests and the 2PC benchmarks to make
// prepare/commit-time storage operations fail deterministically (e.g. "the
// third shadow write on this node throws"), exercising the abort and
// recovery paths of the commit machinery.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <stdexcept>

#include "storage/object_store.h"

namespace mca {

// Thrown by an injected storage fault.
class StoreFault : public std::runtime_error {
 public:
  explicit StoreFault(const std::string& what) : std::runtime_error(what) {}
};

class FaultyStore final : public ObjectStore {
 public:
  enum class Op { Read, Write, Remove, WriteShadow, CommitShadow, DiscardShadow };

  // `should_fail(op, uid)` is consulted before each mutating/reading call; a
  // true return makes the call throw StoreFault. The predicate must be
  // thread-safe.
  using FaultPredicate = std::function<bool(Op, const Uid&)>;

  FaultyStore(ObjectStore& inner, FaultPredicate should_fail)
      : inner_(inner), should_fail_(std::move(should_fail)) {}

  // Convenience: fail every shadow write after the first `n` succeed.
  static FaultPredicate fail_shadow_writes_after(std::size_t n);

  [[nodiscard]] std::optional<ObjectState> read(const Uid& uid) const override {
    check(Op::Read, uid);
    return inner_.read(uid);
  }
  void write(const ObjectState& state) override {
    check(Op::Write, state.uid());
    inner_.write(state);
  }
  bool remove(const Uid& uid) override {
    check(Op::Remove, uid);
    return inner_.remove(uid);
  }
  [[nodiscard]] std::vector<Uid> uids() const override { return inner_.uids(); }

  void write_shadow(const ObjectState& state) override {
    check(Op::WriteShadow, state.uid());
    inner_.write_shadow(state);
  }
  [[nodiscard]] std::optional<ObjectState> read_shadow(const Uid& uid) const override {
    return inner_.read_shadow(uid);
  }
  bool commit_shadow(const Uid& uid) override {
    check(Op::CommitShadow, uid);
    return inner_.commit_shadow(uid);
  }
  bool discard_shadow(const Uid& uid) override {
    check(Op::DiscardShadow, uid);
    return inner_.discard_shadow(uid);
  }
  [[nodiscard]] std::vector<Uid> shadow_uids() const override { return inner_.shadow_uids(); }

  void crash() override { inner_.crash(); }
  [[nodiscard]] StorageClass storage_class() const override { return inner_.storage_class(); }

 private:
  void check(Op op, const Uid& uid) const {
    if (should_fail_ && should_fail_(op, uid)) {
      throw StoreFault("injected storage fault");
    }
  }

  ObjectStore& inner_;
  FaultPredicate should_fail_;
};

inline FaultyStore::FaultPredicate FaultyStore::fail_shadow_writes_after(std::size_t n) {
  auto remaining = std::make_shared<std::atomic<std::size_t>>(n);
  return [remaining](Op op, const Uid&) {
    if (op != Op::WriteShadow) return false;
    std::size_t current = remaining->load();
    while (current > 0) {
      if (remaining->compare_exchange_weak(current, current - 1)) return false;
    }
    return true;
  };
}

}  // namespace mca
