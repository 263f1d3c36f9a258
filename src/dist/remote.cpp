#include "dist/remote.h"

#include <mutex>

#include "dist/wire.h"

#include "objects/commutative_counter.h"
#include "objects/commutative_set.h"
#include "objects/recoverable_int.h"
#include "objects/recoverable_log.h"
#include "objects/recoverable_map.h"
#include "objects/recoverable_set.h"
#include "objects/recoverable_string.h"

namespace mca {
namespace {

void pack_string_list(ByteBuffer& out, const std::vector<std::string>& items) {
  out.pack_u32(static_cast<std::uint32_t>(items.size()));
  for (const auto& s : items) out.pack_string(s);
}

std::vector<std::string> unpack_string_list(ByteBuffer& in) {
  const std::uint32_t n = wire::unpack_count(in, 4);  // a string is ≥ its length prefix
  std::vector<std::string> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(in.unpack_string());
  return out;
}

[[noreturn]] void unknown_op(const std::string& type, const std::string& op) {
  throw std::runtime_error("unknown operation " + type + "::" + op);
}

ByteBuffer dispatch_int(LockManaged& object, const std::string& op, ByteBuffer& args) {
  auto& i = dynamic_cast<RecoverableInt&>(object);
  ByteBuffer reply;
  if (op == "value") {
    reply.pack_i64(i.value());
  } else if (op == "set") {
    i.set(args.unpack_i64());
  } else if (op == "add") {
    i.add(args.unpack_i64());
  } else {
    unknown_op("RecoverableInt", op);
  }
  return reply;
}

ByteBuffer dispatch_string(LockManaged& object, const std::string& op, ByteBuffer& args) {
  auto& s = dynamic_cast<RecoverableString&>(object);
  ByteBuffer reply;
  if (op == "value") {
    reply.pack_string(s.value());
  } else if (op == "size") {
    reply.pack_u64(s.value().size());
  } else if (op == "set") {
    s.set(args.unpack_string());
  } else if (op == "append") {
    s.append(args.unpack_string());
  } else {
    unknown_op("RecoverableString", op);
  }
  return reply;
}

ByteBuffer dispatch_map(LockManaged& object, const std::string& op, ByteBuffer& args) {
  auto& m = dynamic_cast<RecoverableMap&>(object);
  ByteBuffer reply;
  if (op == "lookup") {
    const auto value = m.lookup(args.unpack_string());
    reply.pack_bool(value.has_value());
    reply.pack_string(value.value_or(""));
  } else if (op == "contains") {
    reply.pack_bool(m.contains(args.unpack_string()));
  } else if (op == "size") {
    reply.pack_u32(static_cast<std::uint32_t>(m.size()));
  } else if (op == "keys") {
    pack_string_list(reply, m.keys());
  } else if (op == "insert") {
    const std::string key = args.unpack_string();
    m.insert(key, args.unpack_string());
  } else if (op == "erase") {
    reply.pack_bool(m.erase(args.unpack_string()));
  } else {
    unknown_op("RecoverableMap", op);
  }
  return reply;
}

ByteBuffer dispatch_set(LockManaged& object, const std::string& op, ByteBuffer& args) {
  auto& s = dynamic_cast<RecoverableSet&>(object);
  ByteBuffer reply;
  if (op == "contains") {
    reply.pack_bool(s.contains(args.unpack_string()));
  } else if (op == "size") {
    reply.pack_u32(static_cast<std::uint32_t>(s.size()));
  } else if (op == "elements") {
    pack_string_list(reply, s.elements());
  } else if (op == "insert") {
    reply.pack_bool(s.insert(args.unpack_string()));
  } else if (op == "erase") {
    reply.pack_bool(s.erase(args.unpack_string()));
  } else {
    unknown_op("RecoverableSet", op);
  }
  return reply;
}

ByteBuffer dispatch_log(LockManaged& object, const std::string& op, ByteBuffer& args) {
  auto& l = dynamic_cast<RecoverableLog&>(object);
  ByteBuffer reply;
  if (op == "entries") {
    pack_string_list(reply, l.entries());
  } else if (op == "size") {
    reply.pack_u32(static_cast<std::uint32_t>(l.size()));
  } else if (op == "append") {
    l.append(args.unpack_string());
  } else {
    unknown_op("RecoverableLog", op);
  }
  return reply;
}

ByteBuffer dispatch_counter(LockManaged& object, const std::string& op, ByteBuffer& args) {
  auto& c = dynamic_cast<CommutativeCounter&>(object);
  ByteBuffer reply;
  if (op == "value") {
    reply.pack_i64(c.value());
  } else if (op == "committed_value") {
    reply.pack_i64(c.committed_value());
  } else if (op == "add") {
    c.add(args.unpack_i64());
  } else {
    unknown_op("CommutativeCounter", op);
  }
  return reply;
}

ByteBuffer dispatch_cset(LockManaged& object, const std::string& op, ByteBuffer& args) {
  auto& s = dynamic_cast<CommutativeSet&>(object);
  ByteBuffer reply;
  if (op == "contains") {
    reply.pack_bool(s.contains(args.unpack_string()));
  } else if (op == "size") {
    reply.pack_u32(static_cast<std::uint32_t>(s.size()));
  } else if (op == "elements") {
    pack_string_list(reply, s.elements());
  } else if (op == "add") {
    s.add(args.unpack_string());
  } else {
    unknown_op("CommutativeSet", op);
  }
  return reply;
}

}  // namespace

void register_standard_types() {
  static std::once_flag once;
  std::call_once(once, [] {
    DistNode::register_type("RecoverableInt", dispatch_int);
    DistNode::register_type("RecoverableString", dispatch_string);
    DistNode::register_type("RecoverableMap", dispatch_map);
    DistNode::register_type("RecoverableSet", dispatch_set);
    DistNode::register_type("RecoverableLog", dispatch_log);
    DistNode::register_type("CommutativeCounter", dispatch_counter);
    DistNode::register_type("CommutativeSet", dispatch_cset);
  });
}

std::int64_t RemoteInt::value() const { return invoke("value").unpack_i64(); }

void RemoteInt::set(std::int64_t v) {
  ByteBuffer args;
  args.pack_i64(v);
  invoke("set", std::move(args));
}

void RemoteInt::add(std::int64_t delta) {
  ByteBuffer args;
  args.pack_i64(delta);
  invoke("add", std::move(args));
}

std::string RemoteString::value() const { return invoke("value").unpack_string(); }

std::size_t RemoteString::size() const {
  return static_cast<std::size_t>(invoke("size").unpack_u64());
}

void RemoteString::set(const std::string& v) {
  ByteBuffer args;
  args.pack_string(v);
  invoke("set", std::move(args));
}

void RemoteString::append(const std::string& suffix) {
  ByteBuffer args;
  args.pack_string(suffix);
  invoke("append", std::move(args));
}

std::optional<std::string> RemoteMap::lookup(const std::string& key) const {
  ByteBuffer args;
  args.pack_string(key);
  ByteBuffer reply = invoke("lookup", std::move(args));
  const bool present = reply.unpack_bool();
  std::string value = reply.unpack_string();
  if (!present) return std::nullopt;
  return value;
}

bool RemoteMap::contains(const std::string& key) const {
  ByteBuffer args;
  args.pack_string(key);
  return invoke("contains", std::move(args)).unpack_bool();
}

std::size_t RemoteMap::size() const { return invoke("size").unpack_u32(); }

std::vector<std::string> RemoteMap::keys() const {
  ByteBuffer reply = invoke("keys");
  return unpack_string_list(reply);
}

void RemoteMap::insert(const std::string& key, const std::string& value) {
  ByteBuffer args;
  args.pack_string(key);
  args.pack_string(value);
  invoke("insert", std::move(args));
}

bool RemoteMap::erase(const std::string& key) {
  ByteBuffer args;
  args.pack_string(key);
  return invoke("erase", std::move(args)).unpack_bool();
}

bool RemoteSet::contains(const std::string& element) const {
  ByteBuffer args;
  args.pack_string(element);
  return invoke("contains", std::move(args)).unpack_bool();
}

std::size_t RemoteSet::size() const { return invoke("size").unpack_u32(); }

std::vector<std::string> RemoteSet::elements() const {
  ByteBuffer reply = invoke("elements");
  return unpack_string_list(reply);
}

bool RemoteSet::insert(const std::string& element) {
  ByteBuffer args;
  args.pack_string(element);
  return invoke("insert", std::move(args)).unpack_bool();
}

bool RemoteSet::erase(const std::string& element) {
  ByteBuffer args;
  args.pack_string(element);
  return invoke("erase", std::move(args)).unpack_bool();
}

std::vector<std::string> RemoteLog::entries() const {
  ByteBuffer reply = invoke("entries");
  return unpack_string_list(reply);
}

std::size_t RemoteLog::size() const { return invoke("size").unpack_u32(); }

void RemoteLog::append(const std::string& entry) {
  ByteBuffer args;
  args.pack_string(entry);
  invoke("append", std::move(args));
}

std::int64_t RemoteCounter::value() const { return invoke("value").unpack_i64(); }

std::int64_t RemoteCounter::committed_value() const {
  return invoke("committed_value").unpack_i64();
}

void RemoteCounter::add(std::int64_t delta) {
  ByteBuffer args;
  args.pack_i64(delta);
  invoke("add", std::move(args));
}

bool RemoteCommutativeSet::contains(const std::string& element) const {
  ByteBuffer args;
  args.pack_string(element);
  return invoke("contains", std::move(args)).unpack_bool();
}

std::size_t RemoteCommutativeSet::size() const { return invoke("size").unpack_u32(); }

std::vector<std::string> RemoteCommutativeSet::elements() const {
  ByteBuffer reply = invoke("elements");
  return unpack_string_list(reply);
}

void RemoteCommutativeSet::add(const std::string& element) {
  ByteBuffer args;
  args.pack_string(element);
  invoke("add", std::move(args));
}

}  // namespace mca
