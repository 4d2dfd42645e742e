#include "injection/fault_bus.h"

namespace afex {

const char* FaultKindName(FaultKind kind) {
  const int k = static_cast<int>(kind);
  return k >= 0 && k < kFaultKindCount ? kFaultKindNames[k] : kFaultKindNames[0];
}

std::optional<FaultKind> FaultKindFromName(std::string_view name) {
  for (int k = 0; k < kFaultKindCount; ++k) {
    if (name == kFaultKindNames[k]) {
      return static_cast<FaultKind>(k);
    }
  }
  return std::nullopt;
}

bool FaultKindAppliesTo(FaultKind kind, std::string_view function) {
  // Function ids are table row numbers (LibcProfile::Default is built in
  // table order).
  const uint32_t id = LibcFunctionId(function);
  return KindAppliesTo(static_cast<int>(kind),
                       id == kUnknownLibcFn ? 0 : kLibcTable[id].storage_kinds);
}

uint32_t FaultBus::CachedLibcFunctionId(const char* function) {
  struct Entry {
    const char* ptr = nullptr;
    uint32_t id = 0;
  };
  constexpr size_t kSlots = 256;  // power of two, far above distinct call sites
  thread_local std::array<Entry, kSlots> cache{};
  size_t slot = (reinterpret_cast<uintptr_t>(function) >> 3) & (kSlots - 1);
  for (size_t probes = 0; probes < 8; ++probes, slot = (slot + 1) & (kSlots - 1)) {
    Entry& entry = cache[slot];
    if (entry.ptr == function) {
      return entry.id;
    }
    if (entry.ptr == nullptr) {
      entry.ptr = function;
      entry.id = LibcFunctionId(function);
      return entry.id;
    }
  }
  return LibcFunctionId(function);  // cache saturated; resolve uncached
}

void FaultBus::Arm(FaultSpec spec) {
  spec_ids_.push_back(reference_ ? 0 : LibcFunctionId(spec.function));
  specs_.push_back(std::move(spec));
}

void FaultBus::Reset() {
  specs_.clear();
  spec_ids_.clear();
  counts_.clear();
  counts_vec_.fill(0);
  trigger_count_ = 0;
}

const FaultSpec* FaultBus::OnUnprofiledCall(std::string_view function) {
  auto it = counts_.find(function);
  if (it == counts_.end()) {
    it = counts_.emplace(std::string(function), 0).first;
  }
  size_t count = ++it->second;
  for (const FaultSpec& spec : specs_) {
    if (spec.function == function && count >= static_cast<size_t>(spec.call_lo) &&
        count <= static_cast<size_t>(spec.call_hi)) {
      ++trigger_count_;
      return &spec;
    }
  }
  return nullptr;
}

const FaultSpec* FaultBus::OnCall(std::string_view function) {
  if (!reference_) {
    uint32_t id = LibcFunctionId(function);
    if (id == kUnknownLibcFn) {
      return OnUnprofiledCall(function);
    }
    return MatchSpec(id, ++counts_vec_[id]);
  }
  // Reference counting is exactly the name-keyed slow lane.
  return OnUnprofiledCall(function);
}

size_t FaultBus::CallCount(std::string_view function) const {
  if (!reference_) {
    uint32_t id = LibcFunctionId(function);
    if (id != kUnknownLibcFn) {
      return counts_vec_[id];
    }
  }
  auto it = counts_.find(function);
  return it == counts_.end() ? 0 : it->second;
}

FaultBus::CountMap FaultBus::call_counts() const {
  CountMap out = counts_;  // reference counters, or the flat overflow names
  if (!reference_) {
    for (uint32_t id = 0; id < LibcFunctionCount(); ++id) {
      if (counts_vec_[id] > 0) {
        out.emplace(LibcFunctionName(id), counts_vec_[id]);
      }
    }
  }
  return out;
}

}  // namespace afex
