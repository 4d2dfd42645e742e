#include "exec/fault_plan.h"

namespace afex {
namespace exec {

bool EncodePlanEntries(const std::vector<FaultSpec>& specs,
                       std::vector<FsPlanEntry>& out) {
  if (specs.size() > kFsMaxPlans) {
    return false;
  }
  out.clear();
  out.reserve(specs.size());
  for (const FaultSpec& spec : specs) {
    FsPlanEntry entry;
    entry.slot = LibcRow(spec.function).slot;
    entry.errno_value = spec.errno_value;
    // A negative ordinal becomes 0, which no valid window holds, instead of
    // wrapping to a huge unsigned one.
    entry.call_lo = static_cast<uint64_t>(spec.call_lo < 0 ? 0 : spec.call_lo);
    entry.call_hi = static_cast<uint64_t>(spec.call_hi < 0 ? 0 : spec.call_hi);
    entry.retval = spec.retval;
    entry.kind = static_cast<int32_t>(spec.kind);
    entry.param = spec.param;
    if (!ValidPlanEntry(entry)) {
      return false;
    }
    out.push_back(entry);
  }
  return true;
}

}  // namespace exec
}  // namespace afex
