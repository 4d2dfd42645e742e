#include "injection/libc_profile.h"

#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <utility>

namespace afex {

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

const LibcProfile& LibcProfile::Default() {
  static const LibcProfile* profile = [] {
    using namespace sim_errno;
    auto* p = new LibcProfile();
#define AFEX_PROFILE_ROW(name, retval, errnos, category, wrapped, kinds, ...) \
  p->functions_.push_back({#name, retval, AFEX_LIBC_LIST errnos, #category});
    AFEX_LIBC_TABLE(AFEX_PROFILE_ROW)
#undef AFEX_PROFILE_ROW
    return p;
  }();
  return *profile;
}

namespace {
const std::unordered_map<std::string_view, uint32_t>& FunctionIdMap() {
  static const auto* map = [] {
    auto* m = new std::unordered_map<std::string_view, uint32_t>();
    const auto& functions = LibcProfile::Default().functions();
    if (functions.size() > kMaxLibcFunctions) {
      // FaultBus counters are a fixed array sized kMaxLibcFunctions; a
      // larger profile would make every call to the overflow functions an
      // out-of-bounds write. Fail loudly at first use, in every build.
      std::fprintf(stderr, "libc profile has %zu functions; raise kMaxLibcFunctions (%zu)\n",
                   functions.size(), kMaxLibcFunctions);
      std::abort();
    }
    for (uint32_t id = 0; id < functions.size(); ++id) {
      // Keys view into the profile's strings, which live for the process.
      m->emplace(functions[id].function, id);
    }
    return m;
  }();
  return *map;
}
}  // namespace

size_t LibcFunctionCount() { return LibcProfile::Default().functions().size(); }

uint32_t LibcFunctionId(std::string_view name) {
  const auto& map = FunctionIdMap();
  auto it = map.find(name);
  return it == map.end() ? kUnknownLibcFn : it->second;
}

const std::string& LibcFunctionName(uint32_t id) {
  return LibcProfile::Default().functions().at(id).function;
}

std::optional<FunctionErrorProfile> LibcProfile::Find(const std::string& function) const {
  for (const FunctionErrorProfile& f : functions_) {
    if (f.function == function) {
      return f;
    }
  }
  return std::nullopt;
}

std::vector<std::string> LibcProfile::FunctionNames() const {
  std::vector<std::string> names;
  names.reserve(functions_.size());
  for (const FunctionErrorProfile& f : functions_) {
    names.push_back(f.function);
  }
  return names;
}

std::vector<std::string> LibcProfile::FunctionNames(const std::string& category) const {
  std::vector<std::string> names;
  for (const FunctionErrorProfile& f : functions_) {
    if (f.category == category) {
      names.push_back(f.function);
    }
  }
  return names;
}

}  // namespace afex
