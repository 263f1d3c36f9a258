#include "workload.h"

#include <array>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/checksum.h"

namespace clusterbench {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kBlobBytes = 96 * 1024;

// Splitmix64 step: the one generator every seed-derived input comes from.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint32_t blob_key(int client) { return 10 + static_cast<std::uint32_t>(client); }

// The 96 KB value a blob transaction with `tag` writes at `node`.
std::string blob_value(std::uint64_t tag, NodeId node) {
  std::string value(kBlobBytes, '\0');
  std::uint64_t state = tag ^ (0xB10B000000000000ULL + node);
  for (std::size_t off = 0; off < value.size(); off += sizeof(std::uint64_t)) {
    const std::uint64_t word = splitmix64(state);
    std::memcpy(value.data() + off, &word, std::min(sizeof word, value.size() - off));
  }
  return value;
}

// Why each workload exists is in README.md. A round is at least 1,000
// commits, so its p99 has ten samples beyond it; that keeps one round at two
// to five seconds on a 4-vCPU host.
constexpr std::array<Workload, 3> kWorkloads{{
    {"transfer", Kind::Transfer, 2, 2000, 10},
    {"hotspot", Kind::Hotspot, 3, 1500, 10},
    {"blob", Kind::Blob, 2, 1000, 4},
}};

std::uint32_t int_key(const Workload& w, NodeId node, int client) {
  // hotspot: every client on the same int at each daemon; otherwise one per
  // client, so locks are never contended.
  const std::uint32_t base = node * 100;
  return w.kind == Kind::Hotspot ? base : base + static_cast<std::uint32_t>(client);
}

mca::ByteBuffer request_args(const Workload& w, int client, const Txn& txn) {
  if (w.kind != Kind::Blob) return mca::apps::pack_transfer(txn.legs);
  mca::ByteBuffer args;
  args.pack_u32(static_cast<std::uint32_t>(std::size(kNodes)));
  for (const NodeId node : kNodes) {
    args.pack_u32(node);
    args.pack_u32(blob_key(client));
    args.pack_string(blob_value(txn.blob_tag, node));
  }
  return args;
}

// Sends `txn` to its coordinator (ctl.apply or ctl.blob_set) and waits.
Outcome submit(mca::RpcEndpoint& rpc, const Workload& w, const Txn& txn, mca::ByteBuffer args) {
  mca::CallOptions options;
  options.timeout = w.kind == Kind::Blob ? 30'000ms : 20'000ms;
  const char* service = w.kind == Kind::Blob ? "ctl.blob_set" : "ctl.apply";
  const mca::RpcResult r = rpc.call(txn.coordinator, service, std::move(args), options);
  Outcome out;
  if (r.status == mca::RpcStatus::Timeout || r.status == mca::RpcStatus::Unreachable) {
    out.error = "no reply";
    return out;
  }
  out.replied = true;
  if (!r.ok()) {
    out.error = r.error;
    return out;
  }
  mca::ByteBuffer in = mca::ByteBuffer::reader(r.payload);
  out.committed = in.unpack_bool();
  out.action = in.unpack_uid();
  out.error = in.unpack_string();
  return out;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

ClusterInputs make_inputs(const Workload& w, std::uint64_t seed) {
  ClusterInputs in;
  std::uint64_t rng = seed ^ 0x696E707574730000ULL;
  for (const NodeId node : kNodes) {
    for (int c = 0; c < w.clients; ++c) {
      if (w.kind == Kind::Blob) {
        in.blobs[node].push_back(blob_key(c));
      } else {
        const std::uint32_t key = int_key(w, node, c);
        if (!in.ints[node].contains(key)) {
          in.ints[node][key] = 1'000'000 + static_cast<std::int64_t>(splitmix64(rng) % 1000);
        }
      }
    }
  }
  return in;
}

std::uint64_t blob_digest(const std::string& value) {
  mca::Fnv1a64 h;
  h.mix(value.data(), value.size());
  return h.digest();
}

ClientStream::ClientStream(const Workload& w, std::uint64_t seed, int client)
    : w_(&w), client_(client), rng_(seed * 0x2545F4914F6CDD1DULL + static_cast<std::uint64_t>(client)) {}

Txn ClientStream::next() {
  Txn txn;
  txn.coordinator = kNodes[splitmix64(rng_) % std::size(kNodes)];
  if (w_->kind == Kind::Blob) {
    txn.blob_tag = splitmix64(rng_);
    return txn;
  }
  // −2 on one daemon's int, +1 on each other's; legs always in node order,
  // so concurrent hotspot transactions lock in one global order.
  const std::size_t debit = splitmix64(rng_) % std::size(kNodes);
  for (std::size_t i = 0; i < std::size(kNodes); ++i) {
    txn.legs.push_back({.node = kNodes[i],
                        .key = int_key(*w_, kNodes[i], client_),
                        .delta = i == debit ? -2 : 1});
  }
  return txn;
}

Expected initial_expectation(const ClusterInputs& inputs) {
  Expected e;
  for (const auto& [node, ints] : inputs.ints) {
    for (const auto& [key, initial] : ints) e.ints[{node, key}] = initial;
  }
  return e;
}

ClientLog run_clients(mca::RpcEndpoint& rpc, const Workload& w, std::vector<ClientStream>& streams,
                      int per_client, Expected& expected, const TxnHook& hook) {
  ClientLog total;
  std::mutex mutex;
  std::vector<std::thread> threads;
  threads.reserve(streams.size());
  for (ClientStream& stream : streams) {
    threads.emplace_back([&, &stream = stream] {
      ClientLog log;
      log.latencies_ms.reserve(static_cast<std::size_t>(per_client));
      std::map<std::pair<NodeId, std::uint32_t>, std::int64_t> deltas;
      std::optional<std::uint64_t> last_tag;
      bool ambiguous = false;
      for (int i = 0; i < per_client; ++i) {
        const Txn txn = stream.next();
        mca::ByteBuffer args = request_args(w, stream.client(), txn);
        const auto sent = Clock::now();
        const Outcome out = submit(rpc, w, txn, std::move(args));
        const auto done = Clock::now();
        if (hook) hook(out, sent, done);
        ++log.attempted;
        if (!out.committed) {
          ++log.failed;
          ambiguous = ambiguous || !out.replied;
          if (log.errors.size() < 3) log.errors.push_back(out.error);
          continue;
        }
        log.latencies_ms.push_back(std::chrono::duration<double, std::milli>(done - sent).count());
        for (const auto& leg : txn.legs) deltas[{leg.node, leg.key}] += leg.delta;
        if (w.kind == Kind::Blob) last_tag = txn.blob_tag;
      }
      const std::lock_guard lock(mutex);
      total.attempted += log.attempted;
      total.failed += log.failed;
      total.latencies_ms.insert(total.latencies_ms.end(), log.latencies_ms.begin(),
                                log.latencies_ms.end());
      for (std::string& e : log.errors) {
        if (total.errors.size() < 3) total.errors.push_back(std::move(e));
      }
      for (const auto& [key, delta] : deltas) expected.ints[key] += delta;
      if (last_tag) expected.last_blob_tag[stream.client()] = *last_tag;
      expected.ambiguous = expected.ambiguous || ambiguous;
    });
  }
  for (std::thread& t : threads) t.join();
  return total;
}

std::vector<std::string> check_state(const Workload& w, const Expected& expected,
                                     const PeekFn& peek, const ProbeFn& probe) {
  std::vector<std::string> problems;
  const std::string suffix =
      expected.ambiguous ? " (some transactions ended without a reply)" : "";
  for (const auto& [where, value] : expected.ints) {
    const auto got = peek(where.first, where.second);
    if (!got || *got != value) {
      problems.push_back("int " + std::to_string(where.second) + " at node " +
                         std::to_string(where.first) + ": want " + std::to_string(value) +
                         ", got " + (got ? std::to_string(*got) : "nothing") + suffix);
    }
  }
  if (w.kind == Kind::Blob) {
    for (int c = 0; c < w.clients; ++c) {
      const auto tag = expected.last_blob_tag.find(c);
      for (const NodeId node : kNodes) {
        const std::string value =
            tag == expected.last_blob_tag.end() ? std::string() : blob_value(tag->second, node);
        const auto got = probe(node, blob_key(c));
        if (!got || got->size != value.size() || got->digest != blob_digest(value)) {
          problems.push_back("blob " + std::to_string(blob_key(c)) + " at node " +
                             std::to_string(node) + ": size/digest differ from the last commit" +
                             suffix);
        }
      }
    }
  }
  return problems;
}

}  // namespace clusterbench
