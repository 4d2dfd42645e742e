// The fault plan's one wire format. The parent encodes a test's specs into
// fixed-size FsPlanEntry records (exec/forkserver_protocol.h) once, and every
// exec mode hands those same bytes to the LD_PRELOADed interposer, whose
// ArmPlans is the only routine that arms them:
//   spawn                  — hex-encoded in AFEX_PLAN (HexEncodePlanEntries);
//                            the constructor of every process image in the
//                            target's tree decodes and arms it;
//   forkserver, persistent — raw, behind an FsRequest header on the control
//                            pipe.
// A plan is written and read within one test by code built from the same
// tree, so it carries no version. Zero entries is a valid plan (run without
// injection — the Phi_coreutils call-label-0 convention).
#ifndef AFEX_EXEC_FAULT_PLAN_H_
#define AFEX_EXEC_FAULT_PLAN_H_

#include <string>
#include <vector>

#include "exec/forkserver_protocol.h"
#include "injection/fault_bus.h"

namespace afex {
namespace exec {

// Encodes `specs`. Rejects what the interposer could never honour: functions
// it does not wrap (injecting them could never trigger, which would silently
// bias a campaign), bad ordinal windows, kinds that do not apply to the
// function, a negative short_write count, and plans wider than its fixed
// table (kFsMaxPlans).
bool EncodePlanEntries(const std::vector<FaultSpec>& specs,
                       std::vector<FsPlanEntry>& out);

// Inverse, for tests and tooling round-trips; accepts exactly what the
// interposer's ArmPlans accepts.
bool DecodePlanEntries(const std::vector<FsPlanEntry>& entries,
                       std::vector<FaultSpec>& out);

// The AFEX_PLAN value for spawn mode: the entries' raw bytes as lowercase
// hex, two digits per byte in memory order, no separators.
std::string HexEncodePlanEntries(const std::vector<FsPlanEntry>& entries);

}  // namespace exec
}  // namespace afex

#endif  // AFEX_EXEC_FAULT_PLAN_H_
