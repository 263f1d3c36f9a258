#include "traced.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/timer_service.h"
#include "dist/node.h"
#include "dist/remote.h"
#include "dist/tpc.h"
#include "net/cluster.h"
#include "net/udp_transport.h"
#include "objects/recoverable_int.h"
#include "objects/recoverable_string.h"
#include "sim/consistency_check.h"
#include "storage/wal_store.h"

namespace clusterbench {
namespace {

using namespace std::chrono_literals;
using mca::ByteBuffer;
using mca::Datagram;
using mca::Uid;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// `n` free loopback UDP ports, all different: each socket stays bound until
// every port is picked (picking one at a time, as net::pick_free_udp_port
// does, can hand out the same port twice). The nodes bind them right after.
std::vector<std::uint16_t> pick_distinct_ports(std::size_t n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) break;
    fds.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      break;
    }
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : fds) ::close(fd);
  if (ports.size() != n) throw std::runtime_error("no free loopback UDP ports");
  return ports;
}

// One commit's boundaries as the coordinator's transaction body saw them.
// Everything runs in one process, so client and coordinator share a clock.
struct CommitSpan {
  Clock::time_point body_start, ops_done, decide_start, decide_end, commit_done, body_end;
  bool decided = false;  // the coordinator-log decision write was seen
};

// The span of the commit running on this thread: set by the transaction
// body around AtomicAction::commit(), whose decision write (the coordinator
// log record) happens inline on the same thread.
thread_local CommitSpan* tls_span = nullptr;

// Commit-path RPC traffic of one action, seen at the transport seam.
struct ActionTraffic {
  int invokes = 0;
  int prepares = 0;
  int commits = 0;
  int retransmits = 0;
};

// Shared sink of every decorator in the traced cluster. Records only while
// active (the timed phase).
class Tracer {
 public:
  void set_active(bool on) {
    const std::lock_guard lock(mutex_);
    active_ = on;
  }

  void record_span(const Uid& action, const CommitSpan& span) {
    const std::lock_guard lock(mutex_);
    if (active_) spans_[action] = span;
  }
  std::optional<CommitSpan> take_span(const Uid& action) {
    const std::lock_guard lock(mutex_);
    const auto it = spans_.find(action);
    if (it == spans_.end()) return std::nullopt;
    CommitSpan s = it->second;
    spans_.erase(it);
    return s;
  }

  void on_send(const Datagram& d) {
    const auto now = Clock::now();
    std::optional<Uid> action;
    if (!d.is_reply && (d.service.rfind("obj.", 0) == 0 || d.service.rfind("tx.", 0) == 0)) {
      try {
        ByteBuffer in = ByteBuffer::reader(d.payload);
        action = in.unpack_uid();  // every obj.* / tx.* request leads with its action
      } catch (const std::exception&) {
      }
    }
    const std::lock_guard lock(mutex_);
    if (!active_) return;
    (d.is_reply ? reply_sent_ : request_sent_)[d.request_id] = now;
    if (d.is_reply || !action) return;
    ActionTraffic& t = r_.traffic[*action];
    if (!requests_seen_.insert(d.request_id).second) {
      ++t.retransmits;
    } else if (d.service == "obj.invoke") {
      ++t.invokes;
    } else if (d.service == "tx.prepare") {
      ++t.prepares;
    } else if (d.service == "tx.commit") {
      ++t.commits;
    }
  }

  void on_deliver(const Datagram& d) {
    const auto now = Clock::now();
    const std::lock_guard lock(mutex_);
    auto& sent = d.is_reply ? reply_sent_ : request_sent_;
    const auto it = sent.find(d.request_id);
    if (it == sent.end()) return;
    r_.delivery_us.push_back(std::chrono::duration<double, std::micro>(now - it->second).count());
    sent.erase(it);
  }

  enum class StoreOp { Shadow, Write, Promote };
  void on_store(StoreOp op, const std::vector<const mca::ObjectState*>& states,
                Clock::time_point start, Clock::time_point end) {
    const double us = std::chrono::duration<double, std::micro>(end - start).count();
    const std::lock_guard lock(mutex_);
    if (!active_) return;
    (op == StoreOp::Shadow ? r_.shadow_us : op == StoreOp::Write ? r_.write_us : r_.promote_us)
        .push_back(us);
    for (const mca::ObjectState* s : states) {
      ++r_.writes_by_type[(op == StoreOp::Shadow ? "shadow " : "") + s->type_name()];
    }
    if (op == StoreOp::Promote) ++r_.writes_by_type["promote"];
  }

  // What the decorators recorded while active.
  struct Results {
    std::unordered_map<Uid, ActionTraffic> traffic;
    std::vector<double> delivery_us;
    std::vector<double> shadow_us, write_us, promote_us;
    std::map<std::string, std::uint64_t> writes_by_type;
  };
  // Read after the clients have finished.
  Results results() const {
    const std::lock_guard lock(mutex_);
    return r_;
  }

 private:
  mutable std::mutex mutex_;
  bool active_ = false;
  Results r_;
  std::unordered_map<Uid, CommitSpan> spans_;
  std::unordered_set<Uid> requests_seen_;
  std::unordered_map<Uid, Clock::time_point> request_sent_;  // by request id
  std::unordered_map<Uid, Clock::time_point> reply_sent_;
};

// Transport decorator: send and delivery times, per-action RPC counts.
class TimedTransport final : public mca::Transport {
 public:
  TimedTransport(mca::Transport& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  void attach(NodeId id, Handler handler) override {
    inner_.attach(id, [this, handler = std::move(handler)](Datagram d) {
      tracer_.on_deliver(d);
      handler(std::move(d));
    });
  }
  void detach(NodeId id) override { inner_.detach(id); }
  mca::SendStatus send(Datagram d) override {
    tracer_.on_send(d);
    return inner_.send(std::move(d));
  }
  void set_up(NodeId id, bool up) override { inner_.set_up(id, up); }
  [[nodiscard]] bool is_up(NodeId id) const override { return inner_.is_up(id); }

 private:
  mca::Transport& inner_;
  Tracer& tracer_;
};

// ObjectStore decorator: how long shadow writes, committed writes and
// promotions wait, which record types are written, and the coordinator-log
// decision write of the commit running on the calling thread.
class TimedStore final : public mca::ObjectStore {
 public:
  TimedStore(mca::ObjectStore& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::optional<mca::ObjectState> read(const Uid& uid) const override {
    return inner_.read(uid);
  }
  void write(const mca::ObjectState& state) override {
    const auto start = Clock::now();
    inner_.write(state);
    const auto end = Clock::now();
    if (tls_span != nullptr && !tls_span->decided &&
        state.type_name() == mca::kCoordinatorLogType) {
      tls_span->decide_start = start;
      tls_span->decide_end = end;
      tls_span->decided = true;
    }
    tracer_.on_store(Tracer::StoreOp::Write, {&state}, start, end);
  }
  bool remove(const Uid& uid) override { return inner_.remove(uid); }
  [[nodiscard]] std::vector<Uid> uids() const override { return inner_.uids(); }

  void write_batch(const std::vector<mca::ObjectState>& states, mca::WriteKind kind) override {
    const auto start = Clock::now();
    inner_.write_batch(states, kind);
    const auto end = Clock::now();
    std::vector<const mca::ObjectState*> refs;
    for (const mca::ObjectState& s : states) refs.push_back(&s);
    tracer_.on_store(kind == mca::WriteKind::Shadow ? Tracer::StoreOp::Shadow
                                                    : Tracer::StoreOp::Write,
                     refs, start, end);
  }

  void write_shadow(const mca::ObjectState& state) override {
    const auto start = Clock::now();
    inner_.write_shadow(state);
    tracer_.on_store(Tracer::StoreOp::Shadow, {&state}, start, Clock::now());
  }
  [[nodiscard]] std::optional<mca::ObjectState> read_shadow(const Uid& uid) const override {
    return inner_.read_shadow(uid);
  }
  bool commit_shadow(const Uid& uid) override {
    const auto start = Clock::now();
    const bool ok = inner_.commit_shadow(uid);
    tracer_.on_store(Tracer::StoreOp::Promote, {}, start, Clock::now());
    return ok;
  }
  bool discard_shadow(const Uid& uid) override { return inner_.discard_shadow(uid); }
  [[nodiscard]] std::vector<Uid> shadow_uids() const override { return inner_.shadow_uids(); }
  void crash() override { inner_.crash(); }
  void scavenge() override { inner_.scavenge(); }
  [[nodiscard]] mca::StorageClass storage_class() const override {
    return inner_.storage_class();
  }

 private:
  mca::ObjectStore& inner_;
  Tracer& tracer_;
};

// One node as mcad builds it (apps/mcad/daemon.cpp), with the decorators
// slotted in at the Transport and ObjectStore seams. Member order is
// destruction order in reverse: objects, then the node, then its store and
// transport.
class TracedNode {
 public:
  TracedNode(NodeId id, const std::unordered_map<NodeId, mca::UdpAddress>& peers,
             const std::filesystem::path& dir, const ClusterInputs& inputs, Tracer& tracer)
      : id_(id) {
    mca::UdpTransportConfig tc;
    tc.peers = peers;
    tc.timers = &net_timers_;
    udp_ = std::make_unique<mca::UdpTransport>(std::move(tc));
    transport_ = std::make_unique<TimedTransport>(*udp_, tracer);
    wal_ = std::make_unique<mca::WalStore>(dir);
    store_ = std::make_unique<TimedStore>(*wal_, tracer);
    node_ = std::make_unique<mca::DistNode>(*transport_, id, store_.get());
    node_->set_invoke_timeout(4'000ms);  // the cluster launcher's daemon defaults
    node_->set_tpc_call_timeout(1'000ms);
    mca::Runtime& rt = node_->runtime();
    if (inputs.ints.contains(id)) {
      for (const auto& [key, initial] : inputs.ints.at(id)) {
        auto obj = std::make_unique<mca::RecoverableInt>(rt, mca::apps::int_uid(key));
        seed(*obj, [&] { obj->set(initial); });
        ints_.emplace(key, std::move(obj));
      }
    }
    if (inputs.blobs.contains(id)) {
      for (const std::uint32_t key : inputs.blobs.at(id)) {
        auto obj = std::make_unique<mca::RecoverableString>(rt, mca::apps::blob_uid(key));
        seed(*obj, [&] { obj->set(""); });
        blobs_.emplace(key, std::move(obj));
      }
    }
    register_services(tracer);
  }

  [[nodiscard]] mca::DistNode& node() { return *node_; }
  [[nodiscard]] mca::WalStore& wal() { return *wal_; }

 private:
  template <typename Object, typename Set>
  void seed(Object& obj, Set set) {
    if (!node_->runtime().default_store().read(obj.uid()).has_value()) {
      mca::AtomicAction seed(node_->runtime());
      seed.begin();
      set();
      if (seed.commit() != mca::Outcome::Committed) throw std::runtime_error("seeding failed");
    }
    node_->host(obj);
  }

  // The ctl.apply / ctl.blob_set bodies of apps/mcad/daemon.cpp, with the
  // phase boundaries stamped into a CommitSpan.
  template <typename Leg, typename Apply>
  ByteBuffer run_transaction(Tracer& tracer, const std::vector<Leg>& legs, Apply apply,
                             CommitSpan& span) {
    mca::AtomicAction action(node_->runtime());
    action.begin();
    const Uid uid = action.uid();
    bool committed = false;
    std::string error;
    try {
      for (const Leg& leg : legs) apply(leg);
      span.ops_done = Clock::now();
      tls_span = &span;
      committed = action.commit() == mca::Outcome::Committed;
      tls_span = nullptr;
      span.commit_done = Clock::now();
    } catch (const std::exception& e) {
      tls_span = nullptr;
      error = e.what();
      action.abort();
    }
    ByteBuffer out;
    out.pack_bool(committed);
    out.pack_uid(uid);
    out.pack_string(error);
    span.body_end = Clock::now();
    tracer.record_span(uid, span);
    return out;
  }

  void register_services(Tracer& tracer) {
    mca::RpcEndpoint& rpc = node_->rpc();
    rpc.register_service("ctl.apply", [this, &tracer](ByteBuffer& in) {
      CommitSpan span;
      span.body_start = Clock::now();
      std::vector<mca::apps::TransferLeg> legs(in.unpack_u32());
      for (auto& leg : legs) {
        leg.node = in.unpack_u32();
        leg.key = in.unpack_u32();
        leg.delta = in.unpack_i64();
      }
      return run_transaction(tracer, legs, [this](const mca::apps::TransferLeg& leg) {
        if (leg.node == id_) {
          const auto it = ints_.find(leg.key);
          if (it == ints_.end()) throw std::runtime_error("no local int " + std::to_string(leg.key));
          it->second->add(leg.delta);
        } else {
          mca::RemoteInt(*node_, leg.node, mca::apps::int_uid(leg.key)).add(leg.delta);
        }
      }, span);
    });
    rpc.register_service("ctl.blob_set", [this, &tracer](ByteBuffer& in) {
      CommitSpan span;
      span.body_start = Clock::now();
      std::vector<mca::net::BlobLeg> legs(in.unpack_u32());
      for (auto& leg : legs) {
        leg.node = in.unpack_u32();
        leg.key = in.unpack_u32();
        leg.value = in.unpack_string();
      }
      return run_transaction(tracer, legs, [this](const mca::net::BlobLeg& leg) {
        if (leg.node == id_) {
          const auto it = blobs_.find(leg.key);
          if (it == blobs_.end()) throw std::runtime_error("no local blob " + std::to_string(leg.key));
          it->second->set(leg.value);
        } else {
          mca::RemoteString(*node_, leg.node, mca::apps::blob_uid(leg.key)).set(leg.value);
        }
      }, span);
    });
  }

  NodeId id_;
  mca::TimerService net_timers_{"mca-net-sweep"};
  std::unique_ptr<mca::UdpTransport> udp_;
  std::unique_ptr<TimedTransport> transport_;
  std::unique_ptr<mca::WalStore> wal_;
  std::unique_ptr<TimedStore> store_;
  std::unique_ptr<mca::DistNode> node_;
  std::map<std::uint32_t, std::unique_ptr<mca::RecoverableInt>> ints_;
  std::map<std::uint32_t, std::unique_ptr<mca::RecoverableString>> blobs_;
};

// Sums of the library's own per-node counters, for timed-phase deltas.
struct LayerStats {
  double lock_waits = 0, lock_wait_us = 0;
  double exec_wait_us = 0, exec_executed = 0, exec_spawned = 0;
  double wal_records = 0, wal_flushes = 0, wal_fsyncs = 0, wal_checkpoints = 0;
  double aborted = 0;

  static LayerStats read(std::vector<std::unique_ptr<TracedNode>>& nodes) {
    LayerStats s;
    for (auto& n : nodes) {
      mca::Runtime& rt = n->node().runtime();
      const auto lock = rt.lock_manager().stats();
      s.lock_waits += static_cast<double>(lock.waits);
      s.lock_wait_us += static_cast<double>(lock.total_wait_micros);
      const auto exec = rt.executor().stats();
      s.exec_wait_us += static_cast<double>(exec.task_wait_micros);
      s.exec_executed += static_cast<double>(exec.executed);
      s.exec_spawned += static_cast<double>(exec.threads_spawned);
      const auto wal = n->wal().stats();
      s.wal_records += static_cast<double>(wal.records);
      s.wal_flushes += static_cast<double>(wal.flushes);
      s.wal_fsyncs += static_cast<double>(wal.fsyncs);
      s.wal_checkpoints += static_cast<double>(wal.checkpoints);
      s.aborted += static_cast<double>(rt.action_stats().aborted);
    }
    return s;
  }
};

}  // namespace

TracedResult run_traced(const Workload& w, std::uint64_t seed, const std::filesystem::path& root,
                        int txns) {
  TracedResult out;
  const ClusterInputs inputs = make_inputs(w, seed);
  std::unordered_map<NodeId, mca::UdpAddress> peers;
  const std::vector<std::uint16_t> ports = pick_distinct_ports(std::size(kNodes) + 1);
  for (std::size_t i = 0; i < std::size(kNodes); ++i) peers[kNodes[i]] = {"127.0.0.1", ports[i]};
  peers[kDriverId] = {"127.0.0.1", ports.back()};

  Tracer tracer;
  std::vector<std::unique_ptr<TracedNode>> nodes;
  for (const NodeId id : kNodes) {
    nodes.push_back(std::make_unique<TracedNode>(
        id, peers, root / ("node" + std::to_string(id)), inputs, tracer));
  }
  mca::UdpTransportConfig tc;
  tc.peers = peers;
  mca::UdpTransport driver_udp(std::move(tc));
  TimedTransport driver_transport(driver_udp, tracer);
  auto driver = std::make_unique<mca::RpcEndpoint>(driver_transport, kDriverId);

  std::vector<ClientStream> streams;
  for (int c = 0; c < w.clients; ++c) streams.emplace_back(w, seed, c);
  Expected expected = initial_expectation(inputs);
  const ClientLog warmup = run_clients(*driver, w, streams, w.warmup_txns, expected);

  // Timed phase: the client hook joins each reply to its coordinator span.
  std::mutex phases_mutex;
  std::map<std::string, std::vector<double>> phases;
  std::vector<Uid> committed_actions;
  const LayerStats before = LayerStats::read(nodes);
  tracer.set_active(true);
  const auto start = Clock::now();
  const ClientLog timed = run_clients(
      *driver, w, streams, txns / w.clients, expected,
      [&](const Outcome& o, Clock::time_point sent, Clock::time_point done) {
        if (!o.committed) return;
        const auto span = tracer.take_span(o.action);
        const std::lock_guard lock(phases_mutex);
        committed_actions.push_back(o.action);
        if (!span || !span->decided) {
          phases["undecided"].push_back(0);
          return;
        }
        const double total = ms_between(sent, done);
        const double hop = ms_between(sent, span->body_start) + ms_between(span->body_end, done);
        const double ops = ms_between(span->body_start, span->ops_done);
        const double prepare = ms_between(span->ops_done, span->decide_start);
        const double decide = ms_between(span->decide_start, span->decide_end);
        const double phase2 = ms_between(span->decide_end, span->commit_done);
        phases["dist.client_hop_ms"].push_back(hop);
        phases["dist.ops_ms"].push_back(ops);
        phases["dist.prepare_ms"].push_back(prepare);
        phases["dist.decide_ms"].push_back(decide);
        phases["dist.phase2_ms"].push_back(phase2);
        phases["dist.unattributed_ms"].push_back(total - hop - ops - prepare - decide - phase2);
      });
  const double timed_s = std::chrono::duration<double>(Clock::now() - start).count();
  tracer.set_active(false);
  const LayerStats after = LayerStats::read(nodes);

  out.attempted = warmup.attempted + timed.attempted;
  out.failed = warmup.failed + timed.failed;
  const double commits = static_cast<double>(timed.attempted - timed.failed);

  // Correctness, as in the multi-process rounds.
  out.problems = check_state(
      w, expected,
      [&](NodeId n, std::uint32_t k) -> std::optional<std::int64_t> {
        auto s = nodes[n - 1]->node().runtime().default_store().read(mca::apps::int_uid(k));
        if (!s) return std::nullopt;
        return ByteBuffer::reader(s->state()).unpack_i64();
      },
      [&](NodeId n, std::uint32_t k) -> std::optional<mca::net::BlobProbe> {
        auto s = nodes[n - 1]->node().runtime().default_store().read(mca::apps::blob_uid(k));
        if (!s) return std::nullopt;
        const std::string value = ByteBuffer::reader(s->state()).unpack_string();
        return mca::net::BlobProbe{value.size(), blob_digest(value)};
      });
  for (auto& n : nodes) {
    const auto deadline = Clock::now() + 10s;
    while (n->node().in_doubt_count() > 0 && Clock::now() < deadline) {
      std::this_thread::sleep_for(50ms);
    }
    mca::ConsistencyReport report;
    mca::consistency::check_node(n->node(), report);
    for (const std::string& v : report.violations) out.problems.push_back(v);
  }
  std::size_t log_records = 0;
  for (auto& n : nodes) {
    log_records += mca::CoordinatorLogParticipant::logged_actions(n->node().runtime()).size();
  }

  // Per-commit RPC counts over the committed transactions of the timed phase.
  const Tracer::Results traced = tracer.results();
  ActionTraffic sum;
  for (const Uid& a : committed_actions) {
    const auto it = traced.traffic.find(a);
    if (it == traced.traffic.end()) continue;
    sum.invokes += it->second.invokes;
    sum.prepares += it->second.prepares;
    sum.commits += it->second.commits;
    sum.retransmits += it->second.retransmits;
  }
  const double traced_commits = static_cast<double>(committed_actions.size());

  auto& m = out.metrics;
  for (const char* name : {"dist.client_hop_ms", "dist.ops_ms", "dist.prepare_ms",
                           "dist.decide_ms", "dist.phase2_ms", "dist.unattributed_ms"}) {
    m[name] = {median(phases[name]), "ms"};
  }
  m["dist.invoke_rpcs_per_commit"] = {ratio(sum.invokes, traced_commits), "count"};
  m["dist.prepare_rpcs_per_commit"] = {ratio(sum.prepares, traced_commits), "count"};
  m["dist.commit_rpcs_per_commit"] = {ratio(sum.commits, traced_commits), "count"};
  m["dist.retransmits_per_commit"] = {ratio(sum.retransmits, traced_commits), "count"};
  m["dist.coord_log_records_end"] = {static_cast<double>(log_records), "count"};
  m["net.delivery_us_p50"] = {median(traced.delivery_us), "us"};
  m["storage.records_per_commit"] = {ratio(after.wal_records - before.wal_records, commits),
                                     "count"};
  m["storage.fsyncs_per_commit"] = {ratio(after.wal_fsyncs - before.wal_fsyncs, commits),
                                    "count"};
  m["storage.records_per_flush"] = {ratio(after.wal_records - before.wal_records,
                                          after.wal_flushes - before.wal_flushes),
                                    "count"};
  m["storage.checkpoints_per_1k_commits"] = {
      1000 * ratio(after.wal_checkpoints - before.wal_checkpoints, commits), "count"};
  m["storage.shadow_wait_us_p50"] = {median(traced.shadow_us), "us"};
  m["storage.write_wait_us_p50"] = {median(traced.write_us), "us"};
  m["storage.promote_wait_us_p50"] = {median(traced.promote_us), "us"};
  m["lock.waits_per_commit"] = {ratio(after.lock_waits - before.lock_waits, commits), "count"};
  m["lock.wait_ms_per_commit"] = {ratio((after.lock_wait_us - before.lock_wait_us) / 1000, commits),
                                  "ms"};
  m["common.exec_queue_wait_us_mean"] = {ratio(after.exec_wait_us - before.exec_wait_us,
                                               after.exec_executed - before.exec_executed),
                                         "us"};
  m["common.exec_threads_spawned"] = {after.exec_spawned, "count"};
  m["core.aborts_per_1k_commits"] = {1000 * ratio(after.aborted - before.aborted, commits),
                                     "count"};
  m["traced.commits_per_s"] = {ratio(commits, timed_s), "1/s"};
  m["traced.commit_p50_ms"] = {median(timed.latencies_ms), "ms"};

  out.report.push_back("traced: " + std::to_string(committed_actions.size()) +
                       " timed commits, " +
                       std::to_string(out.attempted - out.failed) +
                       " transactions committed in all, " + std::to_string(log_records) +
                       " coordinator-log records at the end, " +
                       std::to_string(phases["undecided"].size()) + " without a decision span");
  std::string phase_line = "traced phases (p50 ms):";
  for (const char* name : {"dist.client_hop_ms", "dist.ops_ms", "dist.prepare_ms",
                           "dist.decide_ms", "dist.phase2_ms", "dist.unattributed_ms"}) {
    phase_line += std::string(" ") + name + "=" + std::to_string(m[name].value);
  }
  out.report.push_back(phase_line);
  std::string types = "traced store writes per commit by type:";
  for (const auto& [type, count] : traced.writes_by_type) {
    types += " [" + type + "]=" + std::to_string(ratio(static_cast<double>(count), commits));
  }
  out.report.push_back(types);
  for (const char* name :
       {"dist.invoke_rpcs_per_commit", "dist.prepare_rpcs_per_commit", "dist.commit_rpcs_per_commit"}) {
    // Every transaction has exactly two remote participants.
    const double v = m[name].value;
    out.report.push_back(std::string("tripwire: ") + name + " " + std::to_string(v) +
                         " (workload implies 2) — " +
                         (std::abs(v - 2) <= 0.02 ? "ok" : "WORKLOAD CHANGED"));
  }

  driver.reset();
  nodes.clear();
  return out;
}

}  // namespace clusterbench
