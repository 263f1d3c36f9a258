// ObjectState: a named, serialised snapshot of a persistent object.
//
// This is the unit of permanence in the paper's model (§2): when a top-level
// (or outermost-in-colour) action commits, the new states of the objects it
// modified are written to an object store as ObjectStates; on abort the
// previous snapshot is restored instead.
//
// The flat encoding carries no integrity header of its own: the WAL frames
// it under a CRC-32 per record (storage/wal_store.h), so a torn or
// bit-flipped state is caught before decode_unchecked() ever sees it.
#pragma once

#include <stdexcept>
#include <string>

#include "common/buffer.h"
#include "common/uid.h"

namespace mca {

// Thrown by the WAL's checkpoint decoder when a checkpoint's magic word or
// CRC-32 does not match: the bytes are corrupt (bit flip) or torn (partial
// write) and must not be used as object state.
class StateCorrupt : public std::runtime_error {
 public:
  explicit StateCorrupt(const std::string& what)
      : std::runtime_error("ObjectState: " + what) {}
};

class ObjectState {
 public:
  ObjectState() = default;
  ObjectState(Uid uid, std::string type_name, ByteBuffer state)
      : uid_(uid), type_name_(std::move(type_name)), state_(std::move(state)) {}

  [[nodiscard]] const Uid& uid() const { return uid_; }
  [[nodiscard]] const std::string& type_name() const { return type_name_; }
  [[nodiscard]] const ByteBuffer& state() const { return state_; }
  [[nodiscard]] ByteBuffer& state() { return state_; }

  // Flat encoding [uid][type][state]: the layout of a WAL record's payload
  // and of each checkpoint entry (the WAL's framing carries the CRC).
  [[nodiscard]] ByteBuffer encode_unchecked() const;

  // Inverse of encode_unchecked(): no integrity verification — the caller
  // (e.g. the WAL's record framing) must have checksummed the bytes itself.
  // Throws BufferUnderflow on truncated input.
  static ObjectState decode_unchecked(ByteBuffer& in);

  friend bool operator==(const ObjectState& a, const ObjectState& b) {
    return a.uid_ == b.uid_ && a.type_name_ == b.type_name_ && a.state_ == b.state_;
  }

 private:
  Uid uid_ = Uid::nil();
  std::string type_name_;
  ByteBuffer state_;
};

}  // namespace mca
