// Per-function error profiles — the equivalent of LFI's callsite analyzer
// applied to libc.so (paper §7, "Fault Space Definition Methodology"): for
// each profiled function, the plausible error return value and the errno
// codes it can set. Fault spaces and injectors consult this so they only
// inject faults the real library interface could produce (holes in the
// fault space correspond to impossible combinations, paper §2). The rows
// themselves live in injection/libc_table.h, which every layer — the
// interposer included — derives its view of the function set from.
#ifndef AFEX_INJECTION_LIBC_PROFILE_H_
#define AFEX_INJECTION_LIBC_PROFILE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "injection/libc_table.h"

namespace afex {

struct FunctionErrorProfile {
  std::string function;
  int64_t error_retval = -1;       // what a failed call returns
  std::vector<int> errnos;         // plausible errno values
  std::string category;            // memory | file | dir | net | misc
};

// The profile of every row of AFEX_LIBC_TABLE, in table order (grouped by
// category, so function axes keep their neighbour-similarity).
class LibcProfile {
 public:
  // Profile table covering every function SimLibc implements.
  static const LibcProfile& Default();

  const std::vector<FunctionErrorProfile>& functions() const { return functions_; }
  std::optional<FunctionErrorProfile> Find(const std::string& function) const;

  // All function names in table order (used to build Xfunc axes).
  std::vector<std::string> FunctionNames() const;
  // Names restricted to a category.
  std::vector<std::string> FunctionNames(const std::string& category) const;

 private:
  std::vector<FunctionErrorProfile> functions_;
};

// Process-wide dense ids for the profiled libc functions, in table order.
// The set is closed (the profile covers every function SimLibc implements),
// so per-call counters can live in a fixed array indexed by id instead of a
// per-run name-keyed map. Thread-safe: built once, read-only afterwards.
inline constexpr uint32_t kUnknownLibcFn = 0xffffffffu;
inline constexpr size_t kMaxLibcFunctions = 64;
size_t LibcFunctionCount();
// kUnknownLibcFn when `name` is not in the profile.
uint32_t LibcFunctionId(std::string_view name);
const std::string& LibcFunctionName(uint32_t id);

// Spellings of the sim_errno constants (injection/libc_table.h).
namespace sim_errno {
std::string Name(int err);
// Reverse lookup; nullopt for unknown names.
std::optional<int> ValueFromName(const std::string& name);
}  // namespace sim_errno

}  // namespace afex

#endif  // AFEX_INJECTION_LIBC_PROFILE_H_
