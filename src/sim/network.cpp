#include "sim/network.h"

#include "common/thread_name.h"

namespace mca {

Network::Network(NetworkConfig config)
    : config_(config), rng_(config.seed), delivery_thread_([this] { delivery_loop(); }) {}

Network::~Network() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (delivery_thread_.joinable()) delivery_thread_.join();
}

void Network::attach(NodeId id, Handler handler) {
  const std::scoped_lock lock(mutex_);
  handlers_[id] = std::move(handler);
  up_[id] = true;
}

void Network::detach(NodeId id) {
  const std::scoped_lock lock(mutex_);
  handlers_.erase(id);
  up_.erase(id);
}

void Network::set_up(NodeId id, bool up) {
  const std::scoped_lock lock(mutex_);
  up_[id] = up;
}

bool Network::is_up(NodeId id) const {
  const std::scoped_lock lock(mutex_);
  auto it = up_.find(id);
  return it != up_.end() && it->second;
}

std::chrono::steady_clock::time_point Network::delay_from_now_locked() {
  const auto span = config_.max_delay - config_.min_delay;
  const auto jitter = span.count() > 0
                          ? std::chrono::microseconds(std::uniform_int_distribution<long long>(
                                0, span.count())(rng_))
                          : std::chrono::microseconds(0);
  return std::chrono::steady_clock::now() + config_.min_delay + jitter;
}

void Network::enqueue_locked(Datagram d, std::chrono::steady_clock::time_point at) {
  queue_.push(Pending{at, std::move(d)});
}

void Network::partition(NodeId a, NodeId b) {
  const std::scoped_lock lock(mutex_);
  cut_links_.insert(link_key(a, b));
}

void Network::heal(NodeId a, NodeId b) {
  const std::scoped_lock lock(mutex_);
  cut_links_.erase(link_key(a, b));
}

void Network::split(std::initializer_list<NodeId> group1, std::initializer_list<NodeId> group2) {
  const std::scoped_lock lock(mutex_);
  for (const NodeId a : group1) {
    for (const NodeId b : group2) cut_links_.insert(link_key(a, b));
  }
}

void Network::heal_all() {
  const std::scoped_lock lock(mutex_);
  cut_links_.clear();
}

bool Network::partitioned(NodeId a, NodeId b) const {
  const std::scoped_lock lock(mutex_);
  return cut_links_.contains(link_key(a, b));
}

SendStatus Network::send(Datagram d) {
  {
    const std::scoped_lock lock(mutex_);
    ++stats_.sent;
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    if (coin(rng_) < config_.loss_probability) {
      ++stats_.lost;
      return SendStatus::Lost;
    }
    d.checksum = datagram_checksum(d);
    if (coin(rng_) < config_.corruption_probability) {
      // Flip one payload byte after stamping the checksum — the digest no
      // longer matches and delivery drops the message. An empty payload
      // corrupts the header instead (same effect). The flip lands in a copy:
      // the payload may be a window the sender still holds.
      ++stats_.corrupted;
      const auto payload = d.payload.bytes();
      std::vector<std::byte> bytes(payload.begin(), payload.end());
      if (bytes.empty()) {
        d.is_reply = !d.is_reply;
      } else {
        const auto idx = std::uniform_int_distribution<std::size_t>(0, bytes.size() - 1)(rng_);
        bytes[idx] ^= std::byte{0xFF};
        d.payload = ByteBuffer(std::move(bytes));
      }
    }
    if (coin(rng_) < config_.duplication_probability) {
      ++stats_.duplicated;
      enqueue_locked(d, delay_from_now_locked());
    }
    enqueue_locked(std::move(d), delay_from_now_locked());
  }
  wake_.notify_all();
  return SendStatus::Accepted;
}

Network::Stats Network::stats() const {
  const std::scoped_lock lock(mutex_);
  return stats_;
}

void Network::delivery_loop() {
  set_current_thread_name("mca-netdeliver");
  std::unique_lock lock(mutex_);
  for (;;) {
    if (stopping_) return;
    if (queue_.empty()) {
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      continue;
    }
    const auto next_at = queue_.top().at;
    if (std::chrono::steady_clock::now() < next_at) {
      wake_.wait_until(lock, next_at);
      continue;
    }
    Datagram d = queue_.top().datagram;
    queue_.pop();
    if (cut_links_.contains(link_key(d.from, d.to))) {
      ++stats_.dropped_partitioned;
      continue;
    }
    auto up_it = up_.find(d.to);
    if (up_it == up_.end() || !up_it->second) {
      ++stats_.dropped_down;
      continue;
    }
    auto handler_it = handlers_.find(d.to);
    if (handler_it == handlers_.end()) {
      ++stats_.dropped_down;
      continue;
    }
    if (d.checksum != datagram_checksum(d)) {
      ++stats_.corrupt_dropped;
      continue;
    }
    Handler handler = handler_it->second;  // copy: handler may detach itself
    ++stats_.delivered;
    lock.unlock();
    handler(std::move(d));
    lock.lock();
  }
}

}  // namespace mca
