// Wire encoding helpers shared by the RPC services of the distributed
// layer. Colours travel by name (interning is per-process; names identify
// colours across simulated nodes).
#pragma once

#include <vector>

#include "common/buffer.h"
#include "core/atomic_action.h"
#include "net/transport.h"

namespace mca::wire {

// Validated element-count prefix: every element of the sequence occupies at
// least `min_element_bytes` on the wire, so a count the remaining bytes
// cannot possibly hold is corruption (or an attacker-controlled frame) —
// reject it *before* reserving memory for it.
inline std::uint32_t unpack_count(ByteBuffer& in, std::size_t min_element_bytes) {
  const std::uint32_t n = in.unpack_u32();
  if (n > in.remaining() / min_element_bytes) throw BufferUnderflow();
  return n;
}

// Node-id lists (witnesses): a u32 count, then one u32 per node.
inline void pack_nodes(ByteBuffer& out, const std::vector<NodeId>& nodes) {
  out.pack_u32(static_cast<std::uint32_t>(nodes.size()));
  for (const NodeId n : nodes) out.pack_u32(n);
}

inline std::vector<NodeId> unpack_nodes(ByteBuffer& in) {
  const std::uint32_t n = unpack_count(in, 4);
  std::vector<NodeId> nodes;
  nodes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) nodes.push_back(in.unpack_u32());
  return nodes;
}

inline void pack_colour(ByteBuffer& out, Colour c) { out.pack_string(c.name()); }

inline Colour unpack_colour(ByteBuffer& in) { return Colour::named(in.unpack_string()); }

inline void pack_colour_set(ByteBuffer& out, const ColourSet& set) {
  out.pack_u32(static_cast<std::uint32_t>(set.size()));
  for (const Colour c : set) pack_colour(out, c);
}

inline ColourSet unpack_colour_set(ByteBuffer& in) {
  // A colour is a length-prefixed name: ≥ 4 bytes each.
  const std::uint32_t n = unpack_count(in, 4);
  std::vector<Colour> colours;
  colours.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) colours.push_back(unpack_colour(in));
  return ColourSet(std::move(colours));
}

inline void pack_path(ByteBuffer& out, const std::vector<Uid>& path) {
  out.pack_u32(static_cast<std::uint32_t>(path.size()));
  for (const Uid& u : path) out.pack_uid(u);
}

inline std::vector<Uid> unpack_path(ByteBuffer& in) {
  const std::uint32_t n = unpack_count(in, 16);  // a uid is two u64s
  std::vector<Uid> path;
  path.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) path.push_back(in.unpack_uid());
  return path;
}

inline void pack_plan(ByteBuffer& out, const LockPlan& plan) {
  auto pack_pairs = [&](const std::vector<std::pair<LockMode, Colour>>& pairs) {
    out.pack_u32(static_cast<std::uint32_t>(pairs.size()));
    for (const auto& [mode, colour] : pairs) {
      out.pack_u8(static_cast<std::uint8_t>(mode));
      pack_colour(out, colour);
    }
  };
  pack_pairs(plan.for_write);
  pack_pairs(plan.for_read);
  pack_colour(out, plan.undo_colour);
}

inline LockPlan unpack_plan(ByteBuffer& in) {
  auto unpack_pairs = [&] {
    // A pair is a mode byte plus a colour: ≥ 5 bytes each.
    const std::uint32_t n = unpack_count(in, 5);
    std::vector<std::pair<LockMode, Colour>> pairs;
    pairs.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto mode = static_cast<LockMode>(in.unpack_u8());
      pairs.emplace_back(mode, unpack_colour(in));
    }
    return pairs;
  };
  LockPlan plan;
  plan.for_write = unpack_pairs();
  plan.for_read = unpack_pairs();
  plan.undo_colour = unpack_colour(in);
  return plan;
}

// A disposition extended with what a remote participant needs to build the
// heir's mirror: its ancestry path and colour set.
struct HeirInfo {
  Colour colour = Colour::plain();
  Uid heir = Uid::nil();
  std::vector<Uid> heir_path;
  ColourSet heir_colours;
};

inline void pack_heirs(ByteBuffer& out, const std::vector<HeirInfo>& heirs) {
  out.pack_u32(static_cast<std::uint32_t>(heirs.size()));
  for (const HeirInfo& h : heirs) {
    pack_colour(out, h.colour);
    out.pack_uid(h.heir);
    pack_path(out, h.heir_path);
    pack_colour_set(out, h.heir_colours);
  }
}

inline std::vector<HeirInfo> unpack_heirs(ByteBuffer& in) {
  // colour (≥ 4) + uid (16) + path count (4) + colour-set count (4).
  const std::uint32_t n = unpack_count(in, 28);
  std::vector<HeirInfo> heirs;
  heirs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    HeirInfo h;
    h.colour = unpack_colour(in);
    h.heir = in.unpack_uid();
    h.heir_path = unpack_path(in);
    h.heir_colours = unpack_colour_set(in);
    heirs.push_back(std::move(h));
  }
  return heirs;
}

// One object's merged commutative delta batch: the cumulative op bytes an
// action accumulated against `object` (see objects/state_manager.h — the ops
// are the type's own encoding, opaque at this layer).
struct DeltaEntry {
  Uid object = Uid::nil();
  std::vector<std::byte> ops;
};

inline void pack_deltas(ByteBuffer& out, const std::vector<DeltaEntry>& deltas) {
  out.pack_u32(static_cast<std::uint32_t>(deltas.size()));
  for (const DeltaEntry& d : deltas) {
    out.pack_uid(d.object);
    out.pack_bytes(d.ops);
  }
}

inline std::vector<DeltaEntry> unpack_deltas(ByteBuffer& in) {
  // uid (16) + ops length prefix (4).
  const std::uint32_t n = unpack_count(in, 20);
  std::vector<DeltaEntry> deltas;
  deltas.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    DeltaEntry d;
    d.object = in.unpack_uid();
    d.ops = in.unpack_bytes();
    deltas.push_back(std::move(d));
  }
  return deltas;
}

}  // namespace mca::wire
