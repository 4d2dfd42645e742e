// FaultBus: the injection mechanism at the application-library boundary —
// our stand-in for LFI [16]. Every simulated-libc call is routed through the
// bus, which maintains per-function call counters and fails calls matching
// an armed FaultSpec (function name + call-number window + error return +
// errno). This exposes exactly the parameter space the paper's fault spaces
// are built from: <function, callNumber, retval, errno>.
//
// Multiple specs can be armed at once (multi-fault scenarios, paper §6:
// "inject an EINTR error in the third read call, and an ENOMEM error in the
// seventh malloc call").
//
// Counting runs once per libc call, so the default counters are flat: the
// profiled libc functions have process-wide dense ids (libc_profile), the
// per-bus counter table is a fixed array indexed by that id, and the hot
// `const char*` entry point resolves names through a thread-local cache
// keyed by the literal's pointer identity (SimLibc passes string literals),
// so the steady state is one probe, one array increment, and an integer
// spec compare — no hashing, no allocation, no per-run table build. Names
// outside the profile (only tests arm those) fall back to a name-keyed
// overflow map. The original ordered-map counters are retained behind the
// constructor's `reference_counters` flag (SimEnvConfig::
// reference_structures plumbs it) as the equivalence oracle and benchmark
// baseline.
#ifndef AFEX_INJECTION_FAULT_BUS_H_
#define AFEX_INJECTION_FAULT_BUS_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "injection/libc_profile.h"

namespace afex {

// FaultKind and its one applicability rule live in injection/libc_table.h.

// Axis-label spellings (kFaultKindNames).
const char* FaultKindName(FaultKind kind);
std::optional<FaultKind> FaultKindFromName(std::string_view name);

// KindAppliesTo for a libc function by name (e.g. drop_sync only applies
// to fsync/fdatasync); a name outside the table takes errno and kill_at
// only. Incompatible (kind, function) points decode but are never armed —
// the harness runs them fault-free.
bool FaultKindAppliesTo(FaultKind kind, std::string_view function);

struct FaultSpec {
  std::string function;
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
  explicit FaultBus(bool reference_counters = false) : reference_(reference_counters) {}

  // Ordered so the ltrace-style profile report iterates functions
  // deterministically; the reference mode maintains it per call, the flat
  // mode materializes it on demand (call_counts()).
  using CountMap = std::map<std::string, size_t, std::less<>>;

  // Arms a fault. Counters are NOT reset; arm before running the target.
  void Arm(FaultSpec spec);

  // Clears armed faults, counters, and trigger records.
  void Reset();

  // Called by the simulated libc on entry to `function`. Increments the
  // call counter and returns the matching armed spec if this call must
  // fail, nullptr otherwise. At most one spec fires per call (first match).
  const FaultSpec* OnCall(std::string_view function);

  // Hot lane for SimLibc: `function` MUST be a string literal (or another
  // pointer that is never reused for a different spelling) — resolution is
  // cached by pointer identity in a never-invalidated thread-local table.
  // Deliberately a separate name, not an OnCall overload, so a stray
  // `.c_str()` caller binds to the safe string_view entry point above.
  // Inline: it runs once per simulated libc call.
  const FaultSpec* OnCallLiteral(const char* function) {
    if (reference_) {
      return OnCall(std::string_view(function));
    }
    uint32_t id = CachedLibcFunctionId(function);
    if (id == kUnknownLibcFn) {
      return OnUnprofiledCall(function);
    }
    return MatchSpec(id, ++counts_vec_[id]);
  }

  // Calls observed so far, per function (the ltrace-style profile).
  size_t CallCount(std::string_view function) const;
  CountMap call_counts() const;

  // Injection bookkeeping.
  bool triggered() const { return trigger_count_ > 0; }
  size_t trigger_count() const { return trigger_count_; }

  const std::vector<FaultSpec>& armed() const { return specs_; }

 private:
  // First armed spec whose function id matches and whose window covers
  // `count`, else nullptr.
  const FaultSpec* MatchSpec(uint32_t id, size_t count) {
    for (size_t i = 0; i < specs_.size(); ++i) {
      if (spec_ids_[i] == id && count >= static_cast<size_t>(specs_[i].call_lo) &&
          count <= static_cast<size_t>(specs_[i].call_hi)) {
        ++trigger_count_;
        return &specs_[i];
      }
    }
    return nullptr;
  }
  // Pointer-identity cache for the hot const char* entry point (SimLibc
  // passes string literals): thread-local, so entries survive across the
  // millions of short-lived envs a campaign creates. Defined in the .cc.
  static uint32_t CachedLibcFunctionId(const char* function);
  // Name-keyed count-and-match lane: the reference-mode counters, doubling
  // as the flat mode's overflow for names outside the libc profile.
  const FaultSpec* OnUnprofiledCall(std::string_view function);

  bool reference_;
  std::vector<FaultSpec> specs_;
  std::vector<uint32_t> spec_ids_;  // parallel to specs_; flat mode only
  size_t trigger_count_ = 0;

  // ---- flat counters (default): indexed by process-wide function id ----
  std::array<size_t, kMaxLibcFunctions> counts_vec_{};

  // ---- reference counters; doubles as the flat overflow map ----
  CountMap counts_;
};

}  // namespace afex

#endif  // AFEX_INJECTION_FAULT_BUS_H_
