#include "exec/fault_plan.h"

#include "exec/feedback_block.h"

namespace afex {
namespace exec {

namespace {

// Shared validity check for both directions of the codec: the interposer must
// wrap the function, the ordinal window must be sane, and the kind must
// apply to the function (a drop_sync on read() could never mean anything).
bool ValidSpec(const FaultSpec& spec) {
  if (InterposedSlot(spec.function.c_str()) < 0 || spec.call_lo < 1 ||
      spec.call_hi < spec.call_lo) {
    return false;
  }
  if (!FaultKindAppliesTo(spec.kind, spec.function)) {
    return false;
  }
  if (spec.kind == FaultKind::kShortWrite && spec.param < 0) {
    return false;
  }
  return true;
}

}  // namespace

bool EncodePlanEntries(const std::vector<FaultSpec>& specs,
                       std::vector<FsPlanEntry>& out) {
  if (specs.size() > kFsMaxPlans) {
    return false;
  }
  out.clear();
  out.reserve(specs.size());
  for (const FaultSpec& spec : specs) {
    if (!ValidSpec(spec)) {
      return false;
    }
    FsPlanEntry entry;
    entry.slot = InterposedSlot(spec.function.c_str());
    entry.errno_value = spec.errno_value;
    entry.call_lo = static_cast<uint64_t>(spec.call_lo);
    entry.call_hi = static_cast<uint64_t>(spec.call_hi);
    entry.retval = spec.retval;
    entry.kind = static_cast<int32_t>(spec.kind);
    entry.param = spec.param;
    out.push_back(entry);
  }
  return true;
}

bool DecodePlanEntries(const std::vector<FsPlanEntry>& entries,
                       std::vector<FaultSpec>& out) {
  if (entries.size() > kFsMaxPlans) {
    return false;
  }
  out.clear();
  out.reserve(entries.size());
  for (const FsPlanEntry& entry : entries) {
    if (entry.slot < 0 ||
        entry.slot >= static_cast<int32_t>(kInterposedFunctionCount) ||
        entry.call_lo < 1 || entry.call_hi < entry.call_lo ||
        entry.kind < static_cast<int32_t>(FaultKind::kErrno) ||
        entry.kind > static_cast<int32_t>(FaultKind::kCrashAfterRename)) {
      return false;
    }
    FaultSpec spec;
    spec.function = kInterposedFunctions[entry.slot];
    spec.call_lo = static_cast<int>(entry.call_lo);
    spec.call_hi = static_cast<int>(entry.call_hi);
    spec.retval = entry.retval;
    spec.errno_value = entry.errno_value;
    spec.kind = static_cast<FaultKind>(entry.kind);
    spec.param = entry.param;
    if (!ValidSpec(spec)) {
      return false;
    }
    out.push_back(spec);
  }
  return true;
}

std::string HexEncodePlanEntries(const std::vector<FsPlanEntry>& entries) {
  static constexpr char kDigits[] = "0123456789abcdef";
  const auto* bytes = reinterpret_cast<const unsigned char*>(entries.data());
  const size_t size = entries.size() * sizeof(FsPlanEntry);
  std::string hex;
  hex.reserve(2 * size);
  for (size_t i = 0; i < size; ++i) {
    hex += kDigits[bytes[i] >> 4];
    hex += kDigits[bytes[i] & 0xF];
  }
  return hex;
}

}  // namespace exec
}  // namespace afex
