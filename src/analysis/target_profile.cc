#include "analysis/target_profile.h"

#include <algorithm>
#include <unordered_map>

#include "analysis/elf_reader.h"
#include "injection/fault_bus.h"
#include "util/fnv1a.h"

namespace afex {
namespace analysis {

namespace {

// The libc table's LP64 aliases, which the interposer counts in their row's
// slot; the analyzer must fold the same way or an LFS-built binary
// (importing open64) would look like it never calls open. Fortified aliases
// (__read_chk, ...) are deliberately not in the table: the interposer does
// not wrap them, so a fault on the logical name would never trigger through
// them.
std::string_view FoldAlias(std::string_view name) {
  for (const LibcTableRow& row : kLibcTable) {
    if (*row.alias != '\0' && name == row.alias) {
      return row.name;
    }
  }
  return name;
}

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '_';
}

// A space-DSL subtype tag must lex as an identifier; binary names can carry
// dots and dashes.
std::string SanitizeIdent(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    out.push_back(IsIdentChar(c) ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), 't');
  }
  return out;
}

int32_t SignExtend32(uint32_t v) { return static_cast<int32_t>(v); }

uint32_t ReadU32At(const std::vector<uint8_t>& b, size_t off) {
  return b[off] | (static_cast<uint32_t>(b[off + 1]) << 8) |
         (static_cast<uint32_t>(b[off + 2]) << 16) |
         (static_cast<uint32_t>(b[off + 3]) << 24);
}

// Counts `call`/`jmp` instructions in .text that resolve to an imported
// function, either directly through a PLT stub (e8/e9 rel32) or indirectly
// through its GOT slot (ff /2, ff /4 with RIP-relative operand, the -fno-plt
// shape). A linear byte scan, not a disassembler: an occasional opcode byte
// inside an immediate can alias a call, so the result is a per-function
// *weight*, not an exact census — exactly what priority seeding needs.
void CountCallsites(const ElfReader& elf,
                    std::unordered_map<uint64_t, uint32_t>& counts_by_symbol) {
  // GOT slot vaddr -> dynamic symbol index, from both relocation flavours.
  std::unordered_map<uint64_t, uint32_t> got_to_symbol;
  for (const ElfRelocation& reloc : elf.plt_relocations()) {
    if (reloc.type == kRX8664JumpSlot) {
      got_to_symbol.emplace(reloc.offset, reloc.symbol);
    }
  }
  for (const ElfRelocation& reloc : elf.dyn_relocations()) {
    if (reloc.type == kRX8664GlobDat) {
      got_to_symbol.emplace(reloc.offset, reloc.symbol);
    }
  }
  if (got_to_symbol.empty()) {
    return;
  }

  // PLT stub vaddr -> symbol index: each stub entry ends in a
  // `jmp *disp(%rip)` (ff 25 disp32) through a relocated GOT slot. Entry 0
  // of .plt is the resolver trampoline; its GOT+0x10 target has no
  // relocation, so it drops out without special-casing.
  std::unordered_map<uint64_t, uint32_t> stub_to_symbol;
  for (const char* section_name : {".plt", ".plt.sec", ".plt.got", ".plt.bnd"}) {
    const ElfSection* section = elf.FindSection(section_name);
    if (section == nullptr) {
      continue;
    }
    std::vector<uint8_t> bytes = elf.SectionBytes(*section);
    size_t entsize = section->entsize >= 8 ? static_cast<size_t>(section->entsize) : 16;
    for (size_t entry = 0; entry + entsize <= bytes.size(); entry += entsize) {
      for (size_t i = entry; i + 6 <= entry + entsize && i + 6 <= bytes.size(); ++i) {
        if (bytes[i] != 0xff || bytes[i + 1] != 0x25) {
          continue;
        }
        uint64_t target = section->addr + i + 6 +
                          static_cast<int64_t>(SignExtend32(ReadU32At(bytes, i + 2)));
        auto it = got_to_symbol.find(target);
        if (it != got_to_symbol.end()) {
          stub_to_symbol.emplace(section->addr + entry, it->second);
          break;  // one stub, one symbol
        }
      }
    }
  }

  const ElfSection* text = elf.FindSection(".text");
  if (text == nullptr) {
    return;
  }
  std::vector<uint8_t> bytes = elf.SectionBytes(*text);
  for (size_t i = 0; i + 5 <= bytes.size(); ++i) {
    uint8_t op = bytes[i];
    if (op == 0xe8 || op == 0xe9) {  // call/jmp rel32 (tail calls count too)
      uint64_t target = text->addr + i + 5 +
                        static_cast<int64_t>(SignExtend32(ReadU32At(bytes, i + 1)));
      auto it = stub_to_symbol.find(target);
      if (it != stub_to_symbol.end()) {
        ++counts_by_symbol[it->second];
      }
    } else if (op == 0xff && i + 6 <= bytes.size() &&
               (bytes[i + 1] == 0x15 || bytes[i + 1] == 0x25)) {
      // call/jmp *disp(%rip): the -fno-plt form, straight through the GOT.
      uint64_t target = text->addr + i + 6 +
                        static_cast<int64_t>(SignExtend32(ReadU32At(bytes, i + 2)));
      auto it = got_to_symbol.find(target);
      if (it != got_to_symbol.end()) {
        ++counts_by_symbol[it->second];
      }
    }
  }
}

}  // namespace

const ImportedFunction* TargetProfile::Find(std::string_view name) const {
  std::string_view folded = FoldAlias(name);
  for (const ImportedFunction& fn : imports) {
    if (fn.name == folded) {
      return &fn;
    }
  }
  return nullptr;
}

std::vector<std::string> TargetProfile::InterposableImports() const {
  // Slot (table) order, so the pruned axis keeps the neighbour similarity
  // the Gaussian mutation exploits — same order as the full axis.
  std::vector<std::string> names;
  for (const LibcTableRow& row : kLibcTable) {
    if (row.slot >= 0 && Imports(row.name)) {
      names.push_back(row.name);
    }
  }
  return names;
}

uint64_t TargetProfile::InterposableCallsites() const {
  uint64_t total = 0;
  for (const ImportedFunction& fn : imports) {
    if (fn.interposable) {
      total += fn.callsites;
    }
  }
  return total;
}

std::optional<TargetProfile> AnalyzeTargetBinary(const std::string& path,
                                                 std::string& error) {
  std::optional<ElfReader> elf = ElfReader::Load(path, error);
  if (!elf.has_value()) {
    return std::nullopt;
  }

  TargetProfile profile;
  profile.path = path;
  profile.needed = elf->needed_libraries();

  // Imports: undefined FUNC entries of the dynamic symbol table, folded to
  // logical names and deduplicated (a binary can import open and open64).
  std::unordered_map<std::string, size_t> index_by_name;
  for (const ElfSymbol& symbol : elf->dynamic_symbols()) {
    // Sancov detection scans every dynsym entry, not just undefined FUNCs:
    // the hand-off symbol the instrumented builds carry
    // (afex_sancov_region) is a *weak undefined* non-FUNC import, and a
    // binary exporting raw __sanitizer_cov_* callbacks counts too.
    if (symbol.name == "afex_sancov_region" ||
        symbol.name.starts_with("__sanitizer_cov_")) {
      profile.sancov_instrumented = true;
    }
    if (!symbol.IsUndefined() || !symbol.IsFunction() || symbol.name.empty()) {
      continue;
    }
    std::string name(FoldAlias(symbol.name));
    if (index_by_name.contains(name)) {
      continue;
    }
    ImportedFunction fn;
    fn.name = name;
    const std::optional<LibcFn> row = FindLibcFn(fn.name);
    fn.profiled = row.has_value();
    fn.interposable = row.has_value() && LibcRow(*row).slot >= 0;
    profile.imports.push_back(std::move(fn));
    index_by_name.emplace(std::move(name), profile.imports.size() - 1);
  }

  // Callsite weights (x86-64 only; other machines keep zero weights, which
  // downstream treats as "no prioritization signal").
  if (elf->machine() == kEmX8664) {
    profile.callsites_scanned = true;
    std::unordered_map<uint64_t, uint32_t> counts_by_symbol;
    CountCallsites(*elf, counts_by_symbol);
    const std::vector<ElfSymbol>& symbols = elf->dynamic_symbols();
    for (const auto& [symbol_index, count] : counts_by_symbol) {
      if (symbol_index >= symbols.size()) {
        continue;
      }
      auto it = index_by_name.find(std::string(FoldAlias(symbols[symbol_index].name)));
      if (it != index_by_name.end()) {
        profile.imports[it->second].callsites += count;
      }
    }
  }
  return profile;
}

uint64_t TargetProfileFingerprint(const TargetProfile& profile) {
  // Path deliberately excluded: the identity is the boundary profile, not
  // where the binary happens to live.
  Fnv1aHasher hasher;
  for (const std::string& lib : profile.needed) {
    hasher.Mix(lib);
  }
  hasher.Mix("|imports");
  for (const ImportedFunction& fn : profile.imports) {
    hasher.Mix(fn.name);
    hasher.Mix(std::to_string(fn.callsites));
  }
  return hasher.value();
}

SpaceSpec AutoSpaceSpec(const TargetProfile& profile, size_t num_tests, size_t max_call) {
  SpaceSpec spec;
  spec.subtypes = {"auto", SanitizeIdent(Basename(profile.path))};
  ParamSpec test;
  test.name = "test";
  test.kind = AxisKind::kInterval;
  test.lo = 1;
  test.hi = static_cast<int64_t>(num_tests);
  spec.params.push_back(std::move(test));
  ParamSpec function;
  function.name = "function";
  function.kind = AxisKind::kSet;
  function.set_values = profile.InterposableImports();
  spec.params.push_back(std::move(function));
  ParamSpec call;
  call.name = "call";
  call.kind = AxisKind::kInterval;
  call.lo = 1;
  call.hi = static_cast<int64_t>(max_call);
  spec.params.push_back(std::move(call));
  return spec;
}

std::vector<std::string> UnimportedSpaceFunctions(const TargetProfile& profile,
                                                  const FaultSpace& space) {
  std::vector<std::string> missing;
  for (size_t i = 0; i < space.dimensions(); ++i) {
    const Axis& axis = space.axis(i);
    if (axis.name() != "function" || axis.kind() != AxisKind::kSet) {
      continue;
    }
    for (const std::string& label : axis.labels()) {
      if (!profile.Imports(label)) {
        missing.push_back(label);
      }
    }
  }
  return missing;
}

size_t SeedExplorerFromProfile(FitnessExplorer& explorer, const FaultSpace& space,
                               const TargetProfile& profile, double max_fitness) {
  std::optional<size_t> function_axis = space.AxisIndexByName("function");
  if (!function_axis.has_value() ||
      space.axis(*function_axis).kind() != AxisKind::kSet) {
    return 0;
  }
  const Axis& axis = space.axis(*function_axis);

  uint64_t heaviest = 0;
  for (const std::string& label : axis.labels()) {
    const ImportedFunction* fn = profile.Find(label);
    if (fn != nullptr) {
      heaviest = std::max(heaviest, fn->callsites);
    }
  }
  if (heaviest == 0) {
    return 0;  // no callsite signal — nothing to prioritize by
  }

  std::optional<Fault> representative = space.FirstValid();
  if (!representative.has_value()) {
    return 0;
  }
  size_t seeded = 0;
  for (size_t value = 0; value < axis.cardinality(); ++value) {
    const ImportedFunction* fn = profile.Find(axis.Label(value));
    if (fn == nullptr || fn->callsites == 0) {
      continue;
    }
    // One hint per function: the lexicographically-first point of that
    // function's slice, weighted by its share of the heaviest import.
    Fault hint = *representative;
    hint[*function_axis] = value;
    if (!space.InBounds(hint) || !space.IsValid(hint)) {
      continue;
    }
    explorer.SeedPriorityHint(
        hint, max_fitness * static_cast<double>(fn->callsites) /
                  static_cast<double>(heaviest));
    ++seeded;
  }
  return seeded;
}

}  // namespace analysis
}  // namespace afex
