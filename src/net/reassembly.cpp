#include "net/reassembly.h"

#include <cstring>

namespace mca::net {

bool Reassembler::Key::operator<(const Key& other) const {
  if (from != other.from) return from < other.from;
  if (to != other.to) return to < other.to;
  return message < other.message;
}

Reassembler::Reassembler(ReassemblyConfig config, BufferPool pool)
    : config_(config), pool_(std::move(pool)) {}

void Reassembler::erase(std::map<Key, Entry>::iterator it) {
  buffered_bytes_ -= it->second.message.bytes.size();
  age_.erase(it->second.age_position);
  table_.erase(it);
}

void Reassembler::evict_oldest() {
  if (age_.empty()) return;
  ++stats_.evicted;
  erase(table_.find(age_.front()));
}

bool Reassembler::make_room(std::size_t size, std::size_t to_come, Clock::time_point now) {
  const auto displaceable = [&](const Entry& e) {
    return e.to_come() >= to_come || now - e.last_fragment >= kStalledAfter;
  };
  std::size_t room = config_.max_total_bytes - buffered_bytes_;
  for (const auto& [key, entry] : table_) {
    if (displaceable(entry)) room += entry.message.bytes.size();
  }
  if (room < size) return false;
  for (auto age = age_.begin(); buffered_bytes_ + size > config_.max_total_bytes;) {
    const auto it = table_.find(*age++);
    if (!displaceable(it->second)) continue;
    ++stats_.evicted;
    erase(it);
  }
  return true;
}

std::size_t Reassembler::buffer_size(const Fragment& f, std::span<const std::byte> chunk) {
  const std::size_t before_last = (f.count - 1) * kFragmentChunkBytes;
  if (f.index + 1 == f.count) return before_last + chunk.size();
  if (f.index == 0) {
    const auto declared = declared_frame_size(chunk);
    if (declared && *declared > before_last && *declared <= before_last + kFragmentChunkBytes) {
      return *declared;
    }
  }
  return before_last + kFragmentChunkBytes;
}

std::optional<SharedBytes> Reassembler::add(const Fragment& f, std::span<const std::byte> chunk,
                                            Clock::time_point now) {
  if (f.count == 0 || f.index >= f.count) {
    ++stats_.mismatched;
    return std::nullopt;
  }
  if (f.count > config_.max_fragments_per_message) {
    ++stats_.oversize;
    return std::nullopt;
  }
  const bool last = f.index + 1 == f.count;
  if (chunk.empty() || chunk.size() > kFragmentChunkBytes ||
      (!last && chunk.size() != kFragmentChunkBytes)) {
    // Chunks are placed at index × kFragmentChunkBytes, so only the last may
    // be short; and no legitimate fragmenter slices an empty one.
    ++stats_.mismatched;
    return std::nullopt;
  }

  const Key key{f.from, f.to, f.message};
  auto it = table_.find(key);
  if (it == table_.end()) {
    const std::size_t size = buffer_size(f, chunk);
    if (size > config_.max_total_bytes) {
      // This message alone exceeds the table's memory bound: refused without
      // displacing anything.
      ++stats_.oversize;
      return std::nullopt;
    }
    if (!make_room(size, size - chunk.size(), now)) {
      // It would have to displace messages that are further along than it
      // is and still being fed.
      ++stats_.evicted;
      return std::nullopt;
    }
    while (table_.size() >= config_.max_entries) evict_oldest();
    age_.push_back(key);
    Entry entry;
    entry.count = f.count;
    entry.message = pool_.acquire(size);
    entry.placed.resize(f.count);
    entry.age_position = std::prev(age_.end());
    buffered_bytes_ += size;
    it = table_.emplace(key, std::move(entry)).first;
  }

  Entry& entry = it->second;
  if (f.count != entry.count) {
    // The sender cannot change its mind about a message's shape; a frame
    // claiming otherwise is damaged or forged.
    ++stats_.mismatched;
    return std::nullopt;
  }
  if (entry.placed[f.index]) {
    ++stats_.duplicates;  // retransmitted fragment; the copy we have is fine
    return std::nullopt;
  }
  const std::size_t offset = f.index * kFragmentChunkBytes;
  if (offset + chunk.size() > entry.message.bytes.size()) {
    // The last chunk runs past the length fragment 0's header declared.
    ++stats_.mismatched;
    return std::nullopt;
  }

  std::memcpy(entry.message.bytes.data() + offset, chunk.data(), chunk.size());
  entry.placed[f.index] = true;
  if (last) entry.length = offset + chunk.size();
  ++entry.received;
  entry.received_bytes += chunk.size();
  entry.last_fragment = now;
  // Freshly-fed entries move to the back: eviction displaces the stalest.
  age_.splice(age_.end(), age_, entry.age_position);
  ++stats_.fragments_accepted;

  if (entry.received < entry.count) return std::nullopt;

  SharedBytes message = entry.message;
  message.bytes = message.bytes.first(entry.length);
  ++stats_.completed;
  erase(it);
  return message;
}

void Reassembler::sweep(Clock::time_point now) {
  for (auto it = table_.begin(); it != table_.end();) {
    auto next = std::next(it);
    if (now - it->second.last_fragment >= config_.timeout) {
      ++stats_.expired;
      erase(it);
    }
    it = next;
  }
}

}  // namespace mca::net
