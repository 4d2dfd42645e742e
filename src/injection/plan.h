// Mapping between abstract faults (points in a FaultSpace) and concrete
// injection plans (a test to run + a FaultSpec to arm) — the role of the
// node manager's plugins in the prototype (paper §6.1): "each plugin adapts
// a subspace of the fault space to the particulars of its associated
// injector".
//
// The canonical evaluation spaces use axes named
//   test      — which test of the target's suite to run (1-based labels)
//   function  — which libc function fails
//   call      — the call number at which it fails; the label "0" (when the
//               axis includes it) means "no injection", matching the
//               Phi_coreutils definition in §7
// and optionally
//   errno     — the errno to set (defaults to the function's first profiled
//               errno)
//   retval    — the error return (defaults to the function's profiled one)
//   mode      — the storage-failure class (FaultKind label: "errno",
//               "short_write", "drop_sync", "kill_at",
//               "crash_after_rename"); for short_write the retval axis
//               doubles as K, the byte count actually written
#ifndef AFEX_INJECTION_PLAN_H_
#define AFEX_INJECTION_PLAN_H_

#include <optional>
#include <string>

#include "core/fault.h"
#include "core/fault_space.h"
#include "injection/fault_bus.h"

namespace afex {

struct InjectionPlan {
  size_t test_id = 0;                  // 0-based test index
  std::optional<FaultSpec> spec;       // nullopt = run with no injection
};

// Decodes faults of one space using the axis-name conventions above. Axis
// roles are resolved and every axis label parsed once up front (a function
// label through FindLibcFn), so the per-test decode — which the harness
// runs before every single execution — is table lookups. The constructor
// throws std::invalid_argument when the space lacks a "test" axis or a
// label doesn't parse or names no libc table row.
class FaultDecoder {
 public:
  explicit FaultDecoder(const FaultSpace& space);

  InjectionPlan Decode(const Fault& fault) const;

 private:
  struct AxisRoles {
    std::optional<size_t> test;
    std::optional<size_t> function;
    std::optional<size_t> call;
    std::optional<size_t> errno_axis;
    std::optional<size_t> retval;
    std::optional<size_t> mode;
  };

  AxisRoles roles_;
  std::vector<size_t> test_id_by_value_;
  std::vector<uint64_t> call_by_value_;
  // Per function-axis value: spec template with the row's function, retval
  // and errno (call window filled per decode).
  std::vector<FaultSpec> spec_by_function_;
  std::vector<int> errno_by_value_;
  std::vector<int64_t> retval_by_value_;
  std::vector<FaultKind> kind_by_value_;
};

// One-slot FaultDecoder cache for the harness hot path: one campaign
// drives one space, so Decode builds a FaultDecoder for the space on first
// use and reuses it until a different space arrives. Address identity
// alone is not enough (a different space could be reconstructed at the
// same address), so name, axis geometry, and axis labels — which carry the
// decode semantics — are all compared before reuse.
class CachedFaultDecoder {
 public:
  InjectionPlan Decode(const FaultSpace& space, const Fault& fault);

 private:
  bool Matches(const FaultSpace& space) const;

  const FaultSpace* space_ = nullptr;
  std::string space_name_;
  std::vector<Axis> axes_;  // full axis copies, labels included
  std::optional<FaultDecoder> decoder_;
};

// Renders the plan in the paper's Fig. 5 scenario form, e.g.
// "function malloc errno ENOMEM retval 0 callNumber 23".
std::string FormatPlan(const InjectionPlan& plan);

}  // namespace afex

#endif  // AFEX_INJECTION_PLAN_H_
