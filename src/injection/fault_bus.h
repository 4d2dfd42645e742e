// FaultBus: the injection mechanism at the application-library boundary —
// our stand-in for LFI [16]. Every simulated-libc call is routed through the
// bus, which maintains per-function call counters and fails calls matching
// an armed FaultSpec (function + call-number window + error return +
// errno). This exposes exactly the parameter space the paper's fault spaces
// are built from: <function, callNumber, retval, errno>.
//
// Multiple specs can be armed at once (multi-fault scenarios, paper §6:
// "inject an EINTR error in the third read call, and an ENOMEM error in the
// seventh malloc call").
//
// Counting runs once per libc call, so the counters are flat: a function is
// its LibcFn (injection/libc_table.h), the per-bus counter table is an array
// the table sizes at compile time, indexed by that enumerator, and a spec
// names its function by the same enumerator, so the steady state is one
// array increment and an integer spec compare — no name, no hashing, no
// allocation.
//
// Counting and matching are frozen by committed goldens
// (sim_equivalence_test's BusCountersAndWindows transcript and the sim
// record digests of bench/perf_sim). A change that alters them on purpose
// copies the printed transcript or digest into the golden and explains why
// in CHANGES.md.
#ifndef AFEX_INJECTION_FAULT_BUS_H_
#define AFEX_INJECTION_FAULT_BUS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "injection/libc_table.h"

namespace afex {

// The one place a libc function's name becomes its identity: a scan of
// kLibcTable, run only where names enter from outside the program (fault
// space labels, a binary's imports). nullopt for a name outside the table.
std::optional<LibcFn> FindLibcFn(std::string_view name);

// Spellings of the sim_errno constants (injection/libc_table.h).
namespace sim_errno {
std::string Name(int err);
// Reverse lookup; nullopt for unknown names.
std::optional<int> ValueFromName(const std::string& name);
}  // namespace sim_errno

// FaultKind and its one applicability rule live in injection/libc_table.h.

// Axis-label spellings (kFaultKindNames).
const char* FaultKindName(FaultKind kind);
std::optional<FaultKind> FaultKindFromName(std::string_view name);

// KindAppliesTo for a libc function (e.g. drop_sync only applies to
// fsync/fdatasync). Incompatible (kind, function) points decode but are
// never armed — the harness runs them fault-free.
constexpr bool FaultKindAppliesTo(FaultKind kind, LibcFn function) {
  return KindAppliesTo(static_cast<int>(kind), LibcRow(function).storage_kinds);
}

struct FaultSpec {
  LibcFn function = LibcFn::malloc;
  // Inject when the 1-based call count to `function` falls in
  // [call_lo, call_hi]. A single-point injection has call_lo == call_hi;
  // sub-interval axes ("<lo,hi>" in the description language) arm windows.
  int call_lo = 1;
  int call_hi = 1;
  // Value the failed call returns (e.g. -1, or 0 for a NULL pointer).
  int64_t retval = -1;
  // errno the failed call sets (0 = none).
  int errno_value = 0;
  // Storage-failure class; kErrno reproduces the original behavior.
  FaultKind kind = FaultKind::kErrno;
  // Kind parameter: for kShortWrite, the byte (write) / item (fwrite)
  // count actually performed. Unused by the other kinds.
  int64_t param = 0;
};

class FaultBus {
 public:
  // Arms a fault. Counters are NOT reset; arm before running the target.
  void Arm(const FaultSpec& spec) { specs_.push_back(spec); }

  // Clears armed faults, counters, and trigger records.
  void Reset();

  // Called by the simulated libc on entry to `function`. Increments the
  // call counter and returns the matching armed spec if this call must
  // fail, nullptr otherwise. At most one spec fires per call (first match).
  // Inline: it runs once per simulated libc call.
  const FaultSpec* OnCall(LibcFn function) {
    const size_t count = ++counts_[static_cast<size_t>(function)];
    for (const FaultSpec& spec : specs_) {
      if (spec.function == function && count >= static_cast<size_t>(spec.call_lo) &&
          count <= static_cast<size_t>(spec.call_hi)) {
        ++trigger_count_;
        return &spec;
      }
    }
    return nullptr;
  }

  // Calls observed so far to `function` (the ltrace-style profile).
  size_t CallCount(LibcFn function) const { return counts_[static_cast<size_t>(function)]; }

  // Injection bookkeeping.
  bool triggered() const { return trigger_count_ > 0; }
  size_t trigger_count() const { return trigger_count_; }

  const std::vector<FaultSpec>& armed() const { return specs_; }

 private:
  std::vector<FaultSpec> specs_;
  size_t trigger_count_ = 0;
  std::array<size_t, kLibcFnCount> counts_{};
};

}  // namespace afex

#endif  // AFEX_INJECTION_FAULT_BUS_H_
