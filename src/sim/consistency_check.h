// Post-recovery invariant checker for the crash-point sweep.
//
// After a kill-anywhere experiment the surviving system must converge to a
// state indistinguishable from "the transaction either happened everywhere
// or happened nowhere". Two layers of checking:
//
//   check_node      quiescence invariants on one node once recovery has
//                   drained: no in-doubt prepared markers, no locks held, no
//                   live mirrors, no shadow states, no stray protocol
//                   records (coordinator log records are legitimate
//                   leftovers — presumed abort never garbage-collects them
//                   here), and — for a WalStore — every log segment and
//                   the checkpoint walk cleanly (fsck) with no orphaned
//                   ".tmp".
//
//   check_atomic_outcome
//                   cross-node all-or-nothing: the coordinator's durable log
//                   record decides the outcome, and every observed value
//                   must equal its if-committed or if-aborted expectation
//                   accordingly. Catches the half-applied transfer a broken
//                   marker ordering would produce.
//
// Checks report violations instead of asserting, so a sweep case can print
// every broken invariant of a failed window at once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/uid.h"

namespace mca {

class DistNode;
class Runtime;

struct ConsistencyReport {
  std::vector<std::string> violations;
  [[nodiscard]] bool ok() const { return violations.empty(); }
  // One violation per line, for test failure messages.
  [[nodiscard]] std::string to_string() const;
};

namespace consistency {

// One value read back after convergence, with both expected outcomes.
struct ValueObservation {
  std::string label;  // e.g. "a@node2"
  std::int64_t observed = 0;
  std::int64_t if_aborted = 0;
  std::int64_t if_committed = 0;
};

void check_node(DistNode& node, ConsistencyReport& report);

// `coordinator_rt` is the runtime holding (or not holding) the commit log
// record for `action`; its presence decides which expectation applies to
// every observation — mixed results are the atomicity violation.
// Transport-agnostic variant: the caller already knows the decided outcome
// (e.g. the multi-process harness, which reads coordinator/witness logs over
// ctl.* RPC instead of touching a Runtime in its own address space).
void check_atomic_outcome(bool committed, const Uid& action,
                          const std::vector<ValueObservation>& observations,
                          ConsistencyReport& report);

void check_atomic_outcome(Runtime& coordinator_rt, const Uid& action,
                          const std::vector<ValueObservation>& observations,
                          ConsistencyReport& report);

// Witness-aware variant for mirrored coordinator logs: the transaction
// committed iff the coordinator sealed its record OR any witness holds a
// mirrored copy (a coordinator killed mid-fan-out leaves a pending local
// record while a witness already carries the decision).
void check_atomic_outcome(Runtime& coordinator_rt, const std::vector<Runtime*>& witness_rts,
                          const Uid& action, const std::vector<ValueObservation>& observations,
                          ConsistencyReport& report);

}  // namespace consistency
}  // namespace mca
