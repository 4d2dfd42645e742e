// The fault plan's one format and one channel. The parent encodes a test's
// specs into fixed-size FsPlanEntry records (exec/feedback_block.h) once and
// writes them into the test's feedback block before the test runs: a fresh
// block in spawn mode, the plan region of the mapped block in persistent
// mode. The LD_PRELOADed interposer's ArmPlans is the only routine that
// arms them, and it reads them only from the block: in a spawned process
// and in every image a target exec()s (its constructor), in the server
// before each fork, and in a persistent child before each iteration. A plan
// is written and read within one test by code built from the same tree, so
// it carries no version. Zero entries is a valid plan (run without
// injection — the Phi_coreutils call-label-0 convention).
#ifndef AFEX_EXEC_FAULT_PLAN_H_
#define AFEX_EXEC_FAULT_PLAN_H_

#include <vector>

#include "exec/feedback_block.h"
#include "injection/fault_bus.h"

namespace afex {
namespace exec {

// Encodes `specs`. Rejects what the interposer could never honour
// (ValidPlanEntry: functions it does not wrap — injecting them could never
// trigger, which would silently bias a campaign — bad ordinal windows, kinds
// that do not apply to the function, a negative short_write count) and plans
// wider than its fixed table (kFsMaxPlans).
bool EncodePlanEntries(const std::vector<FaultSpec>& specs,
                       std::vector<FsPlanEntry>& out);

// Inverse, for tests and tooling round-trips; accepts exactly what the
// interposer's ArmPlans accepts.
bool DecodePlanEntries(const std::vector<FsPlanEntry>& entries,
                       std::vector<FaultSpec>& out);

}  // namespace exec
}  // namespace afex

#endif  // AFEX_EXEC_FAULT_PLAN_H_
