#include "apps/mcad/daemon.h"

#include <unistd.h>

#include <csignal>
#include <stdexcept>

#include "common/checksum.h"
#include "dist/remote.h"
#include "dist/tpc.h"
#include "dist/wire.h"
#include "sim/crash_points.h"

namespace mca::apps {
namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      if (start < s.size()) out.push_back(s.substr(start));
      break;
    }
    if (end > start) out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::uint64_t parse_number(const std::string& s, const char* what) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(s, &used);
    if (used != s.size() || v < 0) throw std::invalid_argument(s);
    return static_cast<std::uint64_t>(v);
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string(what) + ": bad number '" + s + "'");
  }
}

}  // namespace

std::unordered_map<NodeId, UdpAddress> parse_peer_map(const std::string& spec) {
  std::unordered_map<NodeId, UdpAddress> peers;
  for (const std::string& entry : split(spec, ',')) {
    const std::size_t eq = entry.find('=');
    const std::size_t colon = entry.rfind(':');
    if (eq == std::string::npos || colon == std::string::npos || colon < eq) {
      throw std::invalid_argument("peer map: want id=host:port, got '" + entry + "'");
    }
    const auto id = static_cast<NodeId>(parse_number(entry.substr(0, eq), "peer id"));
    UdpAddress addr;
    addr.host = entry.substr(eq + 1, colon - eq - 1);
    addr.port = static_cast<std::uint16_t>(parse_number(entry.substr(colon + 1), "peer port"));
    peers[id] = std::move(addr);
  }
  return peers;
}

std::vector<NodeId> parse_node_list(const std::string& spec) {
  std::vector<NodeId> out;
  for (const std::string& entry : split(spec, ',')) {
    out.push_back(static_cast<NodeId>(parse_number(entry, "node id")));
  }
  return out;
}

std::map<std::uint32_t, std::int64_t> parse_int_map(const std::string& spec) {
  std::map<std::uint32_t, std::int64_t> out;
  for (const std::string& entry : split(spec, ',')) {
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("int map: want key=initial, got '" + entry + "'");
    }
    const auto key = static_cast<std::uint32_t>(parse_number(entry.substr(0, eq), "int key"));
    out[key] = std::stoll(entry.substr(eq + 1));
  }
  return out;
}

ByteBuffer pack_report(const ConsistencyReport& report) {
  ByteBuffer out;
  out.pack_u32(static_cast<std::uint32_t>(report.violations.size()));
  for (const std::string& v : report.violations) out.pack_string(v);
  return out;
}

ConsistencyReport unpack_report(ByteBuffer& in) {
  ConsistencyReport report;
  const std::uint32_t n = wire::unpack_count(in, 4);  // a string is ≥ its length prefix
  report.violations.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) report.violations.push_back(in.unpack_string());
  return report;
}

ByteBuffer pack_transfer(const std::vector<TransferLeg>& legs) {
  ByteBuffer out;
  out.pack_u32(static_cast<std::uint32_t>(legs.size()));
  for (const TransferLeg& leg : legs) {
    out.pack_u32(leg.node);
    out.pack_u32(leg.key);
    out.pack_i64(leg.delta);
  }
  return out;
}

NodeDaemon::NodeDaemon(DaemonConfig config) : config_(std::move(config)) {
  UdpTransportConfig tc;
  tc.peers = config_.peers;
  tc.timers = &net_timers_;  // periodic reassembly expiry sweep
  transport_ = std::make_unique<UdpTransport>(std::move(tc));
  node_ = std::make_unique<DistNode>(*transport_, config_.id, config_.data_dir);
  node_->set_invoke_timeout(config_.invoke_timeout);
  node_->set_tpc_call_timeout(config_.tpc_call_timeout);
  if (!config_.witnesses.empty()) node_->set_coordinator_mirrors(config_.witnesses);
  seed_objects();
  register_control_services();
}

NodeDaemon::~NodeDaemon() = default;

void NodeDaemon::seed_objects() {
  Runtime& rt = node_->runtime();
  for (const auto& [key, initial] : config_.ints) {
    auto obj = std::make_unique<RecoverableInt>(rt, int_uid(key));
    // First boot: nothing durable under this uid yet — commit the initial
    // value so restarts (and peers' expectations) see it. Later boots
    // re-bind and activate from what the log replayed.
    if (!rt.default_store().read(obj->uid()).has_value()) {
      AtomicAction seed(rt);
      seed.begin();
      obj->set(initial);
      if (seed.commit() != Outcome::Committed) {
        throw std::runtime_error("seeding int " + std::to_string(key) + " failed to commit");
      }
    }
    node_->host(*obj);
    ints_.emplace(key, std::move(obj));
  }
  for (const std::uint32_t key : config_.blobs) {
    auto blob = std::make_unique<RecoverableString>(rt, blob_uid(key));
    if (!rt.default_store().read(blob->uid()).has_value()) {
      AtomicAction seed(rt);
      seed.begin();
      blob->set("");
      if (seed.commit() != Outcome::Committed) {
        throw std::runtime_error("seeding blob " + std::to_string(key) + " failed to commit");
      }
    }
    node_->host(*blob);
    blobs_.emplace(key, std::move(blob));
  }
}

void NodeDaemon::register_control_services() {
  RpcEndpoint& rpc = node_->rpc();

  rpc.register_service("ctl.ping", [this](ByteBuffer&) {
    ByteBuffer out;
    out.pack_u64(static_cast<std::uint64_t>(::getpid()));
    out.pack_u32(config_.id);
    return out;
  });

  rpc.register_service("ctl.peek", [this](ByteBuffer& in) {
    const std::uint32_t key = in.unpack_u32();
    ByteBuffer out;
    if (auto state = node_->runtime().default_store().read(int_uid(key))) {
      ByteBuffer cursor = ByteBuffer::reader(state->state());
      out.pack_bool(true);
      out.pack_i64(cursor.unpack_i64());
    } else {
      out.pack_bool(false);
      out.pack_i64(0);
    }
    return out;
  });

  // Coordinate a multi-leg transfer here: the caller is the chaos driver,
  // the transaction is real — remote legs travel through obj.invoke / tx.*
  // exactly as application traffic would.
  rpc.register_service("ctl.apply", [this](ByteBuffer& in) {
    std::vector<TransferLeg> legs;
    const std::uint32_t n = wire::unpack_count(in, 16);  // node + key + delta
    legs.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      TransferLeg leg;
      leg.node = in.unpack_u32();
      leg.key = in.unpack_u32();
      leg.delta = in.unpack_i64();
      legs.push_back(leg);
    }

    AtomicAction action(node_->runtime());
    action.begin();
    const Uid uid = action.uid();
    bool committed = false;
    std::string error;
    try {
      for (const TransferLeg& leg : legs) {
        if (leg.node == config_.id) {
          const auto it = ints_.find(leg.key);
          if (it == ints_.end()) throw std::runtime_error("no local int " + std::to_string(leg.key));
          it->second->add(leg.delta);
        } else {
          RemoteInt remote(*node_, leg.node, int_uid(leg.key));
          remote.add(leg.delta);
        }
      }
      committed = action.commit() == Outcome::Committed;
    } catch (const std::exception& e) {
      error = e.what();
      action.abort();
    }

    ByteBuffer out;
    out.pack_bool(committed);
    out.pack_uid(uid);
    out.pack_string(error);
    return out;
  });

  rpc.register_service("ctl.committed", [this](ByteBuffer& in) {
    const Uid action = in.unpack_uid();
    ByteBuffer out;
    out.pack_bool(CoordinatorLogParticipant::committed(node_->runtime(), action));
    return out;
  });

  rpc.register_service("ctl.witness", [this](ByteBuffer& in) {
    const Uid action = in.unpack_uid();
    ByteBuffer out;
    out.pack_bool(WitnessLog::has_decision(node_->runtime(), action));
    return out;
  });

  rpc.register_service("ctl.indoubt", [this](ByteBuffer&) {
    ByteBuffer out;
    out.pack_u64(node_->in_doubt_count());
    return out;
  });

  rpc.register_service("ctl.check", [this](ByteBuffer&) {
    ConsistencyReport report;
    consistency::check_node(*node_, report);
    return pack_report(report);
  });

  // Flat (name, value) counter dump: transport stats plus the reactor's, so
  // a driver can see batching, fragmentation and reassembly behaviour from
  // outside the process.
  rpc.register_service("ctl.stats", [this](ByteBuffer&) {
    const UdpTransport::Stats t = transport_->stats();
    const net::Reactor::Stats r = transport_->reactor_stats();
    const std::vector<std::pair<const char*, std::uint64_t>> counters = {
        {"sent", t.sent},
        {"delivered", t.delivered},
        {"lost_injected", t.lost_injected},
        {"dropped_partitioned", t.dropped_partitioned},
        {"dropped_down", t.dropped_down},
        {"oversize_dropped", t.oversize_dropped},
        {"oversize_refused", t.oversize_refused},
        {"corrupt_dropped", t.corrupt_dropped},
        {"malformed_dropped", t.malformed_dropped},
        {"send_errors", t.send_errors},
        {"messages_fragmented", t.messages_fragmented},
        {"fragments_sent", t.fragments_sent},
        {"fragments_received", t.fragments_received},
        {"messages_reassembled", t.messages_reassembled},
        {"reassembly_duplicates", t.reassembly_duplicates},
        {"reassembly_rejected", t.reassembly_rejected},
        {"reassembly_expired", t.reassembly_expired},
        {"reassembly_evicted", t.reassembly_evicted},
        {"tx_batches", t.tx_batches},
        {"tx_datagrams", t.tx_datagrams},
        {"tx_batch_max", t.tx_batch_max},
        {"reactor.rx_datagrams", r.rx_datagrams},
        {"reactor.rx_batches", r.rx_batches},
        {"reactor.rx_batch_max", r.rx_batch_max},
        {"reactor.wakeups", r.wakeups},
    };
    ByteBuffer out;
    out.pack_u32(static_cast<std::uint32_t>(counters.size()));
    for (const auto& [name, value] : counters) {
      out.pack_string(name);
      out.pack_u64(value);
    }
    return out;
  });

  // Multi-node blob writes as one transaction coordinated here. Each leg's
  // value ships whole — a blob-sized leg to a remote node travels as a
  // fragmented obj.invoke message, which is the point.
  rpc.register_service("ctl.blob_set", [this](ByteBuffer& in) {
    struct BlobLeg {
      NodeId node = 0;
      std::uint32_t key = 0;
      std::string value;
    };
    std::vector<BlobLeg> legs;
    const std::uint32_t n = wire::unpack_count(in, 12);  // node + key + value length
    legs.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      BlobLeg leg;
      leg.node = in.unpack_u32();
      leg.key = in.unpack_u32();
      leg.value = in.unpack_string();
      legs.push_back(std::move(leg));
    }

    AtomicAction action(node_->runtime());
    action.begin();
    const Uid uid = action.uid();
    bool committed = false;
    std::string error;
    try {
      for (const BlobLeg& leg : legs) {
        if (leg.node == config_.id) {
          const auto it = blobs_.find(leg.key);
          if (it == blobs_.end()) {
            throw std::runtime_error("no local blob " + std::to_string(leg.key));
          }
          it->second->set(leg.value);
        } else {
          RemoteString remote(*node_, leg.node, blob_uid(leg.key));
          remote.set(leg.value);
        }
      }
      committed = action.commit() == Outcome::Committed;
    } catch (const std::exception& e) {
      error = e.what();
      action.abort();
    }

    ByteBuffer out;
    out.pack_bool(committed);
    out.pack_uid(uid);
    out.pack_string(error);
    return out;
  });

  // Durable size + digest of one blob, read straight from the store — lets
  // a driver verify a 100 KB+ value round-tripped without shipping it back.
  rpc.register_service("ctl.blob_probe", [this](ByteBuffer& in) {
    const std::uint32_t key = in.unpack_u32();
    ByteBuffer out;
    if (auto state = node_->runtime().default_store().read(blob_uid(key))) {
      ByteBuffer cursor = ByteBuffer::reader(state->state());
      const std::string value = cursor.unpack_string();
      Fnv1a64 h;
      h.mix(value.data(), value.size());
      out.pack_bool(true);
      out.pack_u64(value.size());
      out.pack_u64(h.digest());
    } else {
      out.pack_bool(false);
      out.pack_u64(0);
      out.pack_u64(0);
    }
    return out;
  });

  rpc.register_service("ctl.drop_peer", [this](ByteBuffer& in) {
    const NodeId peer = in.unpack_u32();
    const bool drop = in.unpack_bool();
    transport_->set_peer_drop(peer, drop);
    if (!drop) node_->rpc().reset_peer_health(peer);  // healed: next call goes out now
    return ByteBuffer{};
  });

  rpc.register_service("ctl.kick", [this](ByteBuffer&) {
    node_->kick_recovery();
    return ByteBuffer{};
  });

  // mode 0: die by SIGKILL inside the window — the real thing, no unwind,
  // no flush. mode 1: start dropping `peer`'s frames inside the window — a
  // partition that opens mid-protocol.
  rpc.register_service("ctl.arm", [this](ByteBuffer& in) {
    const std::string point = in.unpack_string();
    const std::uint32_t skip = in.unpack_u32();
    const std::uint8_t mode = in.unpack_u8();
    const NodeId peer = in.unpack_u32();
    if (mode == 0) {
      crash_points::arm(point, skip, [] { ::raise(SIGKILL); });
    } else {
      UdpTransport* transport = transport_.get();
      crash_points::arm(point, skip, [transport, peer] { transport->set_peer_drop(peer, true); });
    }
    return ByteBuffer{};
  });

  rpc.register_service("ctl.shutdown", [this](ByteBuffer&) {
    request_shutdown();
    return ByteBuffer{};
  });
}

void NodeDaemon::run_until_shutdown() {
  std::unique_lock lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void NodeDaemon::request_shutdown() {
  {
    const std::lock_guard lock(shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

}  // namespace mca::apps
