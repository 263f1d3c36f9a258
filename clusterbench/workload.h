// The benchmark's workloads: what each closed-loop client sends, drawn from
// the seed, and how the outcome is checked afterwards.
//
// Every transaction is one RPC to a coordinator daemon — ctl.apply (a
// three-leg transfer, one int per daemon) or ctl.blob_set (a fresh 96 KB
// value on each daemon) — which then runs a real cross-process 2PC. The
// same client loop drives the multi-process cluster and the in-process
// traced cluster, so both runs send byte-identical requests.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/mcad/daemon.h"
#include "dist/rpc.h"
#include "net/cluster.h"

namespace clusterbench {

using mca::NodeId;
using Clock = std::chrono::steady_clock;

inline constexpr NodeId kNodes[] = {1, 2, 3};
inline constexpr NodeId kDriverId = 100;

enum class Kind { Transfer, Hotspot, Blob };

struct Workload {
  std::string_view name;
  Kind kind;
  int clients;
  // Transactions per round (all clients together) in the timed phase. A
  // round always starts from fresh data directories: the cost of a commit
  // grows with the commits since boot, so rounds are fixed commit counts,
  // never fixed durations.
  int round_txns;
  int warmup_txns;  // per client, before the timed phase
};

// nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

// Objects each daemon hosts, with their seed-drawn initial values.
struct ClusterInputs {
  std::map<NodeId, std::map<std::uint32_t, std::int64_t>> ints;  // node → key → initial
  std::map<NodeId, std::vector<std::uint32_t>> blobs;             // node → blob keys
};
[[nodiscard]] ClusterInputs make_inputs(const Workload& w, std::uint64_t seed);

struct Txn {
  NodeId coordinator = 1;
  std::vector<mca::apps::TransferLeg> legs;  // transfer and hotspot
  std::uint64_t blob_tag = 0;                // blob: seeds this transaction's values
};

// One client's transaction stream; the same seed and client give the same
// transactions.
class ClientStream {
 public:
  ClientStream(const Workload& w, std::uint64_t seed, int client);
  [[nodiscard]] Txn next();
  [[nodiscard]] int client() const { return client_; }

 private:
  const Workload* w_;
  int client_;
  std::uint64_t rng_;
};

// A transaction's fate as its client saw it.
struct Outcome {
  bool replied = false;  // false: timeout / no reply
  bool committed = false;
  mca::Uid action = mca::Uid::nil();
  std::string error;
};

struct ClientLog {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // abort, AppError, timeout, missing reply
  std::vector<double> latencies_ms;  // committed transactions only
  std::vector<std::string> errors;   // the first few, for the report
};

// What committed, for the correctness checks.
struct Expected {
  std::map<std::pair<NodeId, std::uint32_t>, std::int64_t> ints;  // (node, key) → value
  std::map<int, std::uint64_t> last_blob_tag;                     // client → tag
  bool ambiguous = false;  // a transaction without a reply: outcome unknown
};
[[nodiscard]] Expected initial_expectation(const ClusterInputs& inputs);

// Called after every transaction with its send and reply times.
using TxnHook = std::function<void(const Outcome&, Clock::time_point sent, Clock::time_point done)>;

// Runs one closed-loop thread per stream, `per_client` transactions each,
// and folds what committed into `expected`.
[[nodiscard]] ClientLog run_clients(mca::RpcEndpoint& rpc, const Workload& w,
                                    std::vector<ClientStream>& streams, int per_client,
                                    Expected& expected, const TxnHook& hook = {});

// Durable state checks against `expected`. `peek` / `probe` read one
// daemon's durable int / blob (nullopt: absent or unreachable). Returns the
// problems found.
using PeekFn = std::function<std::optional<std::int64_t>(NodeId, std::uint32_t)>;
using ProbeFn = std::function<std::optional<mca::net::BlobProbe>(NodeId, std::uint32_t)>;
[[nodiscard]] std::vector<std::string> check_state(const Workload& w, const Expected& expected,
                                                   const PeekFn& peek, const ProbeFn& probe);

// FNV-1a/64 of `value`, the digest ctl.blob_probe reports.
[[nodiscard]] std::uint64_t blob_digest(const std::string& value);

}  // namespace clusterbench
