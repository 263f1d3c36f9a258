// Reassembly of MUF2 fragment frames back into whole MUF1 frames.
//
// One Reassembler per transport, shared by every local id: entries are keyed
// by (sender, receiver, message uid), so two senders interleaving fragments
// — even under the same message uid — can never cross-pollinate. The class
// is deliberately socket-free and clocked by the caller (`now` parameters),
// which is what makes duplicate/out-of-order/eviction behaviour unit-testable
// without a network; UdpTransport feeds it verified fragments from the
// reactor thread and drives expiry sweeps from a TimerService tick.
//
// In place: the first fragment accepted for a message opens the message's
// one buffer (a block from the transport's BufferPool), and every fragment's
// chunk is copied once, straight from the datagram it arrived in, to its
// offset there — index × kFragmentChunkBytes, the fixed size every sender
// cuts at. So every chunk but the last must be exactly kFragmentChunkBytes
// long and the last at most that; a fragment that disagrees is dropped
// (`mismatched`). The buffer is sized exactly when the first fragment tells
// the message's length — the last one does, and fragment 0 does through the
// MUF1 header it starts with (declared_frame_size) — and count ×
// kFragmentChunkBytes otherwise. A completed message is handed out as that
// buffer, which decode_frame turns into a datagram whose payload is a window
// on it.
//
// Memory is bounded two ways, because fragments come off a real socket and a
// hostile (or merely confused) peer can open reassembly state at will:
//
//   * per message: `count` is pinned by the first fragment accepted for a
//     key; a later fragment disagreeing about count, or an index past it, is
//     dropped (counted `mismatched`). count > max_fragments_per_message is
//     refused outright (`oversize`), and so is a message whose buffer alone
//     exceeds max_total_bytes.
//   * per table: at most max_entries in-progress messages and
//     max_total_bytes of message buffers, each counted in full from the
//     moment its first fragment opens it. A new message beyond max_entries
//     displaces the stalest entry (counted `evicted`). One beyond
//     max_total_bytes displaces the stalest entries that have at least as
//     many bytes still to come as it has, or that have stalled
//     (kStalledAfter); if those cannot make room, the newcomer is dropped
//     instead (also `evicted`). A buffer is claimed by a single fragment, so
//     this is what stops one forged fragment claiming a huge message from
//     flushing messages that are further along and still arriving, while a
//     fragment storm still displaces stale or unsubstantiated half-messages
//     instead of growing.
//
// Incomplete messages expire `timeout` after their last accepted fragment
// (sweep(), counted `expired`); the RPC retransmission above re-sends the
// whole message, which simply starts a fresh entry. Completed messages
// release their entry immediately; a duplicate of an already-released
// fragment starts a new entry and ages out — at-most-once delivery is the
// RPC layer's job (reply cache), not the reassembler's.
#pragma once

#include <chrono>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "net/frame.h"

namespace mca::net {

struct ReassemblyConfig {
  std::size_t max_entries = 64;
  std::size_t max_total_bytes = 16 * 1024 * 1024;
  std::size_t max_fragments_per_message = 512;  // × ~60 KB ≈ 30 MB message cap
  std::chrono::milliseconds timeout{3'000};
};

class Reassembler {
 public:
  using Clock = std::chrono::steady_clock;

  // A message none of whose fragments arrived for this long has lost one (a
  // sender's fragments leave in one burst): it only waits to expire, and any
  // newcomer may displace it.
  static constexpr std::chrono::milliseconds kStalledAfter{100};

  // Message buffers come from `pool` (a transport passes the one its sends
  // use).
  explicit Reassembler(ReassemblyConfig config = {}, BufferPool pool = BufferPool{});

  // Feeds one verified fragment whose chunk is `chunk`, wherever it arrived;
  // the bytes are copied into the message's buffer before this returns.
  // Returns the whole MUF1 frame, in that buffer, when this fragment
  // completes its message, nullopt otherwise. Not thread-safe; the owning
  // transport serializes calls.
  [[nodiscard]] std::optional<SharedBytes> add(const Fragment& f,
                                               std::span<const std::byte> chunk,
                                               Clock::time_point now);

  // Evicts every incomplete message whose last fragment is older than the
  // configured timeout.
  void sweep(Clock::time_point now);

  struct Stats {
    std::uint64_t fragments_accepted = 0;
    std::uint64_t completed = 0;    // messages fully reassembled
    std::uint64_t duplicates = 0;   // fragment index already buffered
    std::uint64_t mismatched = 0;   // count/length disagreement, index out of range
    std::uint64_t oversize = 0;     // count or buffer over its per-message bound
    std::uint64_t expired = 0;      // entries dropped by sweep()
    std::uint64_t evicted = 0;      // entries displaced (or newcomers dropped) by the table bounds
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t entries() const { return table_.size(); }
  [[nodiscard]] std::size_t buffered_bytes() const { return buffered_bytes_; }

 private:
  struct Key {
    NodeId from = 0;
    NodeId to = 0;
    Uid message = Uid::nil();
    bool operator<(const Key& other) const;
    bool operator==(const Key& other) const = default;
  };

  struct Entry {
    std::uint32_t count = 0;
    std::uint32_t received = 0;
    SharedBytes message;             // the message's buffer, at least its length
    std::size_t length = 0;          // the message's length, once the last fragment is in
    std::size_t received_bytes = 0;  // chunk bytes placed so far
    Clock::time_point last_fragment{};
    std::vector<bool> placed;               // by index
    std::list<Key>::iterator age_position;  // into age_, oldest first

    // Buffer bytes no fragment has filled yet.
    [[nodiscard]] std::size_t to_come() const { return message.bytes.size() - received_bytes; }
  };

  // The size to open a message's buffer with, from its first fragment: its
  // exact length when that fragment tells it, else count ×
  // kFragmentChunkBytes.
  [[nodiscard]] static std::size_t buffer_size(const Fragment& f,
                                               std::span<const std::byte> chunk);
  // Frees max_total_bytes room for a new buffer of `size` bytes, `to_come` of
  // them still to come, by displacing the stalest entries that either have at
  // least as many bytes to come or have stalled. False, displacing nothing,
  // when those cannot free enough.
  [[nodiscard]] bool make_room(std::size_t size, std::size_t to_come, Clock::time_point now);
  void erase(std::map<Key, Entry>::iterator it);
  void evict_oldest();

  ReassemblyConfig config_;
  BufferPool pool_;
  std::map<Key, Entry> table_;
  std::list<Key> age_;  // front = oldest (least-recently-fed) entry
  std::size_t buffered_bytes_ = 0;
  Stats stats_;
};

}  // namespace mca::net
