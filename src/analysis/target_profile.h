// Static target analysis (paper §7, "Fault Space Definition Methodology"):
// before a real-backend campaign runs a single test, profile the target/libc
// boundary LFI-style from the binary alone — which interposable libc
// functions the target actually imports, and how many call sites reference
// each — and derive from that a pruned, prioritized fault space. Campaigns
// then only inject faults the target can actually experience: a fault on a
// function the binary never imports is a structural hole, and exploring it
// is pure waste.
//
// Three consumers:
//   * afex_cli --backend=real --auto-space — explores the derived space and
//     seeds FitnessExplorer priorities proportional to callsite counts;
//   * afex_cli --backend=real --space=FILE — fails fast when the space
//     names functions the binary never imports;
//   * tools/afex_analyze — standalone human/JSON report plus round-trippable
//     space-DSL text.
#ifndef AFEX_ANALYSIS_TARGET_PROFILE_H_
#define AFEX_ANALYSIS_TARGET_PROFILE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault_space.h"
#include "core/fitness_explorer.h"
#include "core/space_lang.h"

namespace afex {
namespace analysis {

// One imported function, under its logical name (LP64 aliases such as
// open64/fopen64/lseek64 are folded, matching the interposer's slots).
struct ImportedFunction {
  std::string name;
  // `call`/`jmp` sites in .text that target this import's PLT stub or GOT
  // slot — a static estimate of how often the target can reach the
  // function, used to prioritize exploration. 0 when the scan did not run
  // (non-x86-64 binary) or genuinely found none.
  uint64_t callsites = 0;
  bool profiled = false;      // a row of the libc table
  bool interposable = false;  // wrapped by libafex_interpose.so
};

struct TargetProfile {
  std::string path;
  std::vector<std::string> needed;        // DT_NEEDED libraries
  std::vector<ImportedFunction> imports;  // undefined FUNC dynamic symbols
  bool callsites_scanned = false;         // x86-64 .text scan ran
  // The binary was built with -fsanitize-coverage and carries the AFEX
  // sancov hand-off symbol (or raw __sanitizer_cov_* callbacks) in its
  // dynamic symbol table — the interposer can stream real edge coverage
  // from it. Drives afex_cli's --coverage=auto resolution.
  bool sancov_instrumented = false;

  const ImportedFunction* Find(std::string_view name) const;
  bool Imports(std::string_view name) const { return Find(name) != nullptr; }

  // Names of the interposable imports, in libc table (category) order —
  // the pruned function axis. Subset of exec::InterposableFunctions().
  std::vector<std::string> InterposableImports() const;
  // Sum of callsites over the interposable imports.
  uint64_t InterposableCallsites() const;
};

// Statically analyzes the binary at `path`. Returns nullopt and a reason in
// `error` for unreadable or non-ELF64 inputs; a well-formed binary with no
// imports (static executable, stripped dynsym) yields an empty import set,
// which is a result, not an error.
std::optional<TargetProfile> AnalyzeTargetBinary(const std::string& path,
                                                 std::string& error);

// Stable fingerprint over the import set and callsite weights (FNV-1a).
// Recorded in CampaignMeta: resuming or warm-starting against a rebuilt
// binary whose boundary profile changed is refused instead of silently
// replaying a journal the new binary cannot reproduce.
uint64_t TargetProfileFingerprint(const TargetProfile& profile);

// The derived fault space as a space-DSL spec: the canonical
// <test, function, call> product with the function axis pruned to the
// binary's interposable imports. Round-trips through
// FormatSpaceSpec/ParseFaultSpaceDescription/BuildFaultSpace.
SpaceSpec AutoSpaceSpec(const TargetProfile& profile, size_t num_tests, size_t max_call);

// Function-axis labels of `space` that the binary does not import (after
// alias folding). Non-empty means the space explores faults the target can
// never experience — campaign setup should fail fast.
std::vector<std::string> UnimportedSpaceFunctions(const TargetProfile& profile,
                                                  const FaultSpace& space);

// Seeds the explorer's priority pool with one hint per function-axis value
// whose function the profile saw callsites for, fitness proportional to the
// callsite share (scaled so the strongest hint is `max_fitness`). Returns
// the number of hints seeded. Hints do not mark points issued — they bias
// parent selection until real results displace them.
size_t SeedExplorerFromProfile(FitnessExplorer& explorer, const FaultSpace& space,
                               const TargetProfile& profile, double max_fitness = 10.0);

}  // namespace analysis
}  // namespace afex

#endif  // AFEX_ANALYSIS_TARGET_PROFILE_H_
