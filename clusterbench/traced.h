// The traced run: the same workload against three nodes hosted inside this
// process, with timing decorators around each node's Transport and
// ObjectStore seams. It splits every commit into phases at the coordinator
// and reads the per-layer Stats the library already keeps (LockManager,
// Executor, WalStore, Runtime action counts).
//
// The nodes are built from the library code mcad runs — DistNode over a
// UdpTransport on loopback, a WalStore in a fresh directory, RecoverableInt /
// RecoverableString objects and the ctl.apply / ctl.blob_set transaction
// bodies — so the run differs from the multi-process one only in hosting
// all three nodes in one process and in the decorators. Its own end-to-end
// numbers are reported next to the untraced run's to show that difference.
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "workload.h"

namespace clusterbench {

struct TracedResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // failed correctness checks
  std::map<std::string, Metric> metrics;
  std::vector<std::string> report;    // human-readable breakdown lines
};

[[nodiscard]] TracedResult run_traced(const Workload& w, std::uint64_t seed,
                                      const std::filesystem::path& root, int txns);

}  // namespace clusterbench
