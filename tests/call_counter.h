// A Transport decorator for tests that count RPC calls: it forwards
// everything to the transport it wraps and records the request id of every
// request it sends. A call keeps its request id across retransmissions, so
// the distinct ids sent to one service at one node count the calls made,
// not the datagrams.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>

#include "net/transport.h"

namespace mca {

class CallCounter final : public Transport {
 public:
  explicit CallCounter(Transport& inner) : inner_(inner) {}

  void attach(NodeId id, Handler handler) override { inner_.attach(id, std::move(handler)); }
  void detach(NodeId id) override { inner_.detach(id); }
  void set_up(NodeId id, bool up) override { inner_.set_up(id, up); }
  [[nodiscard]] bool is_up(NodeId id) const override { return inner_.is_up(id); }

  SendStatus send(Datagram d) override {
    if (!d.is_reply) {
      const std::scoped_lock lock(mutex_);
      calls_[{d.service, d.to}].insert(d.request_id);
    }
    return inner_.send(std::move(d));
  }

  // Calls to `service` at node `to` that sent at least one datagram.
  [[nodiscard]] std::size_t calls(const std::string& service, NodeId to) const {
    const std::scoped_lock lock(mutex_);
    const auto it = calls_.find({service, to});
    return it == calls_.end() ? 0 : it->second.size();
  }

 private:
  Transport& inner_;
  mutable std::mutex mutex_;
  std::map<std::pair<std::string, NodeId>, std::unordered_set<Uid>> calls_;
};

}  // namespace mca
