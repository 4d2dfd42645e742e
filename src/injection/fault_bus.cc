#include "injection/fault_bus.h"

#include <utility>

namespace afex {

std::optional<LibcFn> FindLibcFn(std::string_view name) {
  for (size_t row = 0; row < kLibcFnCount; ++row) {
    if (name == kLibcTable[row].name) {
      return static_cast<LibcFn>(row);
    }
  }
  return std::nullopt;
}

namespace sim_errno {
namespace {
constexpr std::pair<const char*, int> kNames[] = {
    {"ENOMEM", kENOMEM}, {"EINTR", kEINTR},   {"EIO", kEIO},
    {"EACCES", kEACCES}, {"ENOENT", kENOENT}, {"EAGAIN", kEAGAIN},
    {"ENOSPC", kENOSPC}, {"EBADF", kEBADF},   {"EMFILE", kEMFILE},
    {"ECONNRESET", kECONNRESET}, {"EEXIST", kEEXIST},
};
}  // namespace

std::string Name(int err) {
  if (err == 0) {
    return "OK";
  }
  for (const auto& [n, v] : kNames) {
    if (err == v) {
      return n;
    }
  }
  return "E" + std::to_string(err);
}

std::optional<int> ValueFromName(const std::string& name) {
  for (const auto& [n, v] : kNames) {
    if (name == n) {
      return v;
    }
  }
  return std::nullopt;
}

}  // namespace sim_errno

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

void FaultBus::Reset() {
  specs_.clear();
  counts_.fill(0);
  trigger_count_ = 0;
}

}  // namespace afex
