#include "sim/consistency_check.h"

#include <sstream>

#include "dist/node.h"
#include "storage/wal_store.h"

namespace mca {

std::string ConsistencyReport::to_string() const {
  std::ostringstream os;
  for (const std::string& v : violations) os << v << '\n';
  return os.str();
}

namespace consistency {
namespace {

void add(ConsistencyReport& report, NodeId node, const std::string& what) {
  report.violations.push_back("node " + std::to_string(node) + ": " + what);
}

}  // namespace

void check_node(DistNode& node, ConsistencyReport& report) {
  Runtime& rt = node.runtime();
  ObjectStore& store = rt.default_store();

  if (const std::size_t n = node.in_doubt_count(); n > 0) {
    add(report, node.id(), std::to_string(n) + " in-doubt prepared marker(s) unresolved");
  }
  if (const std::size_t n = rt.lock_manager().locked_object_count(); n > 0) {
    add(report, node.id(), std::to_string(n) + " object(s) still hold locks");
  }
  if (const std::size_t n = node.participants().mirror_count(); n > 0) {
    add(report, node.id(), std::to_string(n) + " live mirror action(s) after quiescence");
  }
  if (const auto shadows = store.shadow_uids(); !shadows.empty()) {
    add(report, node.id(),
        std::to_string(shadows.size()) + " orphan shadow state(s) in the store");
  }
  for (const Uid& uid : store.uids()) {
    const auto state = store.read(uid);
    if (!state) continue;  // removed since uids() listed it
    if (state->type_name() == kPreparedMarkerType) {
      add(report, node.id(), "prepared marker survived for record " + uid.to_string());
    }
  }

  if (auto* wal = dynamic_cast<WalStore*>(&store)) {
    // Post-recovery the log must walk cleanly: any torn tail was truncated
    // and a corrupt checkpoint quarantined, so fsck hits mean replay let
    // damage through.
    for (const auto& path : wal->fsck()) {
      add(report, node.id(), "corrupt durable state: " + path.filename().string());
    }
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(wal->directory(), ec)) {
      if (entry.path().filename().string().ends_with(".tmp")) {
        add(report, node.id(), "stale temp file: " + entry.path().filename().string());
      }
    }
  }
}

namespace {

void check_outcome_against(bool committed, const Uid& action,
                           const std::vector<ValueObservation>& observations,
                           ConsistencyReport& report) {
  const char* outcome = committed ? "committed" : "aborted";
  for (const ValueObservation& o : observations) {
    const std::int64_t expected = committed ? o.if_committed : o.if_aborted;
    if (o.observed != expected) {
      report.violations.push_back("atomicity: action " + action.to_string() + " is " + outcome +
                                  " but " + o.label + " = " + std::to_string(o.observed) +
                                  " (expected " + std::to_string(expected) + ")");
    }
  }
}

}  // namespace

void check_atomic_outcome(bool committed, const Uid& action,
                          const std::vector<ValueObservation>& observations,
                          ConsistencyReport& report) {
  check_outcome_against(committed, action, observations, report);
}

void check_atomic_outcome(Runtime& coordinator_rt, const Uid& action,
                          const std::vector<ValueObservation>& observations,
                          ConsistencyReport& report) {
  check_outcome_against(CoordinatorLogParticipant::committed(coordinator_rt, action), action,
                        observations, report);
}

void check_atomic_outcome(Runtime& coordinator_rt, const std::vector<Runtime*>& witness_rts,
                          const Uid& action, const std::vector<ValueObservation>& observations,
                          ConsistencyReport& report) {
  bool committed = CoordinatorLogParticipant::committed(coordinator_rt, action);
  for (Runtime* w : witness_rts) {
    if (w != nullptr && WitnessLog::has_decision(*w, action)) {
      committed = true;
      break;
    }
  }
  check_outcome_against(committed, action, observations, report);
}

}  // namespace consistency
}  // namespace mca
