// Static target analysis: the ELF reader's hostile-input edges (truncated,
// garbage, wrong-class objects must produce error strings, never UB), alias
// folding and profile derivation over synthetic ELF objects, and ground
// truth against the real afex_walutil binary this build produced.
#include <cstdint>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/elf_reader.h"
#include "analysis/target_profile.h"
#include "campaign/serde.h"
#include "core/fitness_explorer.h"
#include "core/space_lang.h"
#include "exec/feedback_block.h"
#include "exec/real_target_harness.h"
#include "injection/fault_bus.h"

namespace afex {
namespace analysis {
namespace {

// ---- synthetic ELF64 builder -------------------------------------------
// Just enough to fabricate hostile and edge-case objects: an ELF header,
// user sections (contents laid out after the header), and a trailing
// .shstrtab + section header table.

void PutU16(std::vector<uint8_t>& b, uint16_t v) {
  b.push_back(static_cast<uint8_t>(v));
  b.push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>& b, uint32_t v) {
  PutU16(b, static_cast<uint16_t>(v));
  PutU16(b, static_cast<uint16_t>(v >> 16));
}

void PutU64(std::vector<uint8_t>& b, uint64_t v) {
  PutU32(b, static_cast<uint32_t>(v));
  PutU32(b, static_cast<uint32_t>(v >> 32));
}

struct SynthSection {
  std::string name;
  uint32_t type = 0;
  std::vector<uint8_t> bytes;
  uint32_t link = 0;
  uint64_t entsize = 0;
  uint64_t addr = 0;
};

constexpr uint32_t kShtStrtab = 3;

// Section indices as seen by the reader: 0 is SHN_UNDEF, user sections are
// 1..N, .shstrtab is N+1.
std::vector<uint8_t> BuildElf(const std::vector<SynthSection>& user,
                              uint16_t machine = kEmX8664) {
  std::vector<SynthSection> sections;
  sections.push_back(SynthSection{});  // null section
  for (const SynthSection& s : user) {
    sections.push_back(s);
  }
  SynthSection shstrtab;
  shstrtab.name = ".shstrtab";
  shstrtab.type = kShtStrtab;
  shstrtab.bytes.push_back(0);
  std::vector<uint32_t> name_offsets;
  for (const SynthSection& s : sections) {
    if (s.name.empty()) {
      name_offsets.push_back(0);
      continue;
    }
    name_offsets.push_back(static_cast<uint32_t>(shstrtab.bytes.size()));
    for (char c : s.name) {
      shstrtab.bytes.push_back(static_cast<uint8_t>(c));
    }
    shstrtab.bytes.push_back(0);
  }
  name_offsets.push_back(static_cast<uint32_t>(shstrtab.bytes.size()));
  for (char c : shstrtab.name) {
    shstrtab.bytes.push_back(static_cast<uint8_t>(c));
  }
  shstrtab.bytes.push_back(0);
  sections.push_back(shstrtab);

  constexpr size_t kEhdrSize = 64;
  constexpr size_t kShdrSize = 64;
  std::vector<size_t> offsets;
  size_t cursor = kEhdrSize;
  for (const SynthSection& s : sections) {
    offsets.push_back(cursor);
    cursor += s.bytes.size();
  }
  size_t shoff = cursor;

  std::vector<uint8_t> out;
  out.reserve(shoff + sections.size() * kShdrSize);
  // e_ident (explicit push_back: gcc-12 -O2 misdiagnoses an insert of an
  // initializer_list here as a stringop-overflow)
  const uint8_t ident[8] = {0x7f, 'E', 'L', 'F', 2 /*ELFCLASS64*/, 1 /*LSB*/, 1, 0};
  for (uint8_t c : ident) {
    out.push_back(c);
  }
  out.resize(16, 0);
  PutU16(out, 3);        // e_type ET_DYN
  PutU16(out, machine);  // e_machine
  PutU32(out, 1);        // e_version
  PutU64(out, 0);        // e_entry
  PutU64(out, 0);        // e_phoff
  PutU64(out, shoff);    // e_shoff
  PutU32(out, 0);        // e_flags
  PutU16(out, kEhdrSize);
  PutU16(out, 0);  // e_phentsize
  PutU16(out, 0);  // e_phnum
  PutU16(out, kShdrSize);
  PutU16(out, static_cast<uint16_t>(sections.size()));
  PutU16(out, static_cast<uint16_t>(sections.size() - 1));  // e_shstrndx
  for (const SynthSection& s : sections) {
    out.insert(out.end(), s.bytes.begin(), s.bytes.end());
  }
  for (size_t i = 0; i < sections.size(); ++i) {
    const SynthSection& s = sections[i];
    PutU32(out, name_offsets[i]);  // sh_name
    PutU32(out, s.type);
    PutU64(out, 0);  // sh_flags
    PutU64(out, s.addr);
    PutU64(out, i == 0 ? 0 : offsets[i]);
    PutU64(out, s.bytes.size());
    PutU32(out, s.link);
    PutU32(out, 0);  // sh_info
    PutU64(out, 0);  // sh_addralign
    PutU64(out, s.entsize);
  }
  return out;
}

// .dynstr from names (offset of each name returned in `offsets`).
SynthSection MakeStrtab(const std::vector<std::string>& names,
                        std::vector<uint32_t>& offsets) {
  SynthSection s;
  s.name = ".dynstr";
  s.type = kShtStrtab;
  s.bytes.push_back(0);
  for (const std::string& name : names) {
    offsets.push_back(static_cast<uint32_t>(s.bytes.size()));
    for (char c : name) {
      s.bytes.push_back(static_cast<uint8_t>(c));
    }
    s.bytes.push_back(0);
  }
  return s;
}

// .dynsym with a null symbol plus one undefined GLOBAL FUNC per name offset.
SynthSection MakeDynsym(const std::vector<uint32_t>& name_offsets, uint32_t strtab_index) {
  SynthSection s;
  s.name = ".dynsym";
  s.type = kShtDynsym;
  s.link = strtab_index;
  s.entsize = 24;
  s.bytes.resize(24, 0);  // null symbol
  for (uint32_t off : name_offsets) {
    PutU32(s.bytes, off);
    s.bytes.push_back(0x12);  // st_info: GLOBAL | FUNC
    s.bytes.push_back(0);     // st_other
    PutU16(s.bytes, 0);       // st_shndx = SHN_UNDEF
    PutU64(s.bytes, 0);       // st_value
    PutU64(s.bytes, 0);       // st_size
  }
  return s;
}

std::string WriteTemp(const std::string& name, const std::vector<uint8_t>& bytes) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return path;
}

std::string Walutil() { return AFEX_WALUTIL_PATH; }

// ---- ElfReader hostile inputs ------------------------------------------

TEST(ElfReaderTest, RejectsEmptyAndTruncatedFiles) {
  std::string error;
  EXPECT_FALSE(ElfReader::Parse({}, error).has_value());
  EXPECT_NE(error.find("too small"), std::string::npos);

  std::vector<uint8_t> eight = {0x7f, 'E', 'L', 'F', 2, 1, 1, 0};
  EXPECT_FALSE(ElfReader::Parse(eight, error).has_value());

  // Valid ident, but the file ends before the 64-byte header does.
  std::vector<uint8_t> forty(40, 0);
  forty[0] = 0x7f; forty[1] = 'E'; forty[2] = 'L'; forty[3] = 'F';
  forty[4] = 2; forty[5] = 1;
  EXPECT_FALSE(ElfReader::Parse(forty, error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos);
}

TEST(ElfReaderTest, RejectsBadMagic) {
  std::vector<uint8_t> bytes(64, 0);
  bytes[0] = 'M'; bytes[1] = 'Z';  // a PE, say
  std::string error;
  EXPECT_FALSE(ElfReader::Parse(bytes, error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(ElfReaderTest, RejectsElfClass32) {
  std::vector<uint8_t> bytes = BuildElf({});
  bytes[4] = 1;  // ELFCLASS32
  std::string error;
  EXPECT_FALSE(ElfReader::Parse(bytes, error).has_value());
  EXPECT_NE(error.find("64-bit"), std::string::npos);
}

TEST(ElfReaderTest, RejectsBigEndian) {
  std::vector<uint8_t> bytes = BuildElf({});
  bytes[5] = 2;  // ELFDATA2MSB
  std::string error;
  EXPECT_FALSE(ElfReader::Parse(bytes, error).has_value());
  EXPECT_NE(error.find("little-endian"), std::string::npos);
}

TEST(ElfReaderTest, AcceptsSectionlessObject) {
  // shnum = 0 / shoff = 0: legitimate (fully stripped); zero imports.
  std::vector<uint8_t> bytes = BuildElf({});
  // Rewrite e_shoff/e_shnum to zero.
  for (size_t i = 40; i < 48; ++i) bytes[i] = 0;
  bytes[60] = bytes[61] = 0;
  std::string error;
  auto reader = ElfReader::Parse(bytes, error);
  ASSERT_TRUE(reader.has_value()) << error;
  EXPECT_TRUE(reader->sections().empty());
  EXPECT_TRUE(reader->dynamic_symbols().empty());
  EXPECT_TRUE(reader->needed_libraries().empty());
}

TEST(ElfReaderTest, RejectsSectionTablePastEndOfFile) {
  std::vector<uint8_t> bytes = BuildElf({});
  // e_shoff -> just past the end.
  uint64_t bogus = bytes.size() + 1;
  for (size_t i = 0; i < 8; ++i) bytes[40 + i] = static_cast<uint8_t>(bogus >> (8 * i));
  std::string error;
  EXPECT_FALSE(ElfReader::Parse(bytes, error).has_value());
  EXPECT_NE(error.find("past end"), std::string::npos);
}

TEST(ElfReaderTest, RejectsDynsymPastEndOfFile) {
  std::vector<uint32_t> offs;
  SynthSection strtab = MakeStrtab({"read"}, offs);
  SynthSection dynsym = MakeDynsym(offs, 1);
  std::vector<uint8_t> bytes = BuildElf({strtab, dynsym});
  // Corrupt the dynsym section header's sh_size (section index 2; headers
  // start at e_shoff, entry 2, sh_size at +32).
  size_t shoff = 0;
  for (size_t i = 0; i < 8; ++i) shoff |= static_cast<size_t>(bytes[40 + i]) << (8 * i);
  size_t size_field = shoff + 2 * 64 + 32;
  bytes[size_field] = 0xff;
  bytes[size_field + 1] = 0xff;
  bytes[size_field + 2] = 0xff;
  std::string error;
  EXPECT_FALSE(ElfReader::Parse(bytes, error).has_value());
  EXPECT_NE(error.find("symbol table"), std::string::npos);
}

TEST(ElfReaderTest, HostileStringOffsetsYieldEmptyNames) {
  std::vector<uint32_t> offs;
  SynthSection strtab = MakeStrtab({"read"}, offs);
  SynthSection dynsym = MakeDynsym({offs[0], 0xffffff00u}, 1);  // second is wild
  std::vector<uint8_t> bytes = BuildElf({strtab, dynsym});
  std::string error;
  auto reader = ElfReader::Parse(bytes, error);
  ASSERT_TRUE(reader.has_value()) << error;
  ASSERT_EQ(reader->dynamic_symbols().size(), 3u);  // null + 2
  EXPECT_EQ(reader->dynamic_symbols()[1].name, "read");
  EXPECT_EQ(reader->dynamic_symbols()[2].name, "");
}

TEST(ElfReaderTest, GarbageSectionValuesDoNotCrash) {
  // Fuzz-shaped determinism: take a valid object and splat patterned bytes
  // over the section header table; any outcome is fine except UB.
  std::vector<uint32_t> offs;
  SynthSection strtab = MakeStrtab({"read", "write"}, offs);
  SynthSection dynsym = MakeDynsym(offs, 1);
  std::vector<uint8_t> pristine = BuildElf({strtab, dynsym});
  size_t shoff = 0;
  for (size_t i = 0; i < 8; ++i) shoff |= static_cast<size_t>(pristine[40 + i]) << (8 * i);
  for (uint8_t pattern : {0x00, 0x7f, 0xa5, 0xff}) {
    std::vector<uint8_t> bytes = pristine;
    for (size_t i = shoff; i < bytes.size(); ++i) {
      bytes[i] ^= static_cast<uint8_t>(pattern + i % 13);
    }
    std::string error;
    (void)ElfReader::Parse(bytes, error);
  }
  SUCCEED();
}

TEST(ElfReaderTest, LoadReportsMissingFile) {
  std::string error;
  EXPECT_FALSE(ElfReader::Load("/nonexistent/afex/binary", error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(ElfReaderTest, ReadsNeededLibraries) {
  std::vector<uint32_t> offs;
  SynthSection strtab = MakeStrtab({"libc.so.6", "libm.so.6"}, offs);
  SynthSection dynamic;
  dynamic.name = ".dynamic";
  dynamic.type = kShtDynamic;
  dynamic.link = 1;
  dynamic.entsize = 16;
  for (uint32_t off : offs) {
    PutU64(dynamic.bytes, 1);  // DT_NEEDED
    PutU64(dynamic.bytes, off);
  }
  PutU64(dynamic.bytes, 0);  // DT_NULL
  PutU64(dynamic.bytes, 0);
  std::vector<uint8_t> bytes = BuildElf({strtab, dynamic});
  std::string error;
  auto reader = ElfReader::Parse(bytes, error);
  ASSERT_TRUE(reader.has_value()) << error;
  EXPECT_EQ(reader->needed_libraries(),
            (std::vector<std::string>{"libc.so.6", "libm.so.6"}));
}

// ---- TargetProfile -----------------------------------------------------

TEST(TargetProfileTest, FoldsLp64AliasesToInterposerNames) {
  std::vector<uint32_t> offs;
  SynthSection strtab = MakeStrtab({"open64", "fopen64", "lseek64", "read"}, offs);
  SynthSection dynsym = MakeDynsym(offs, 1);
  std::string path = WriteTemp("aliases.so", BuildElf({strtab, dynsym}));
  std::string error;
  auto profile = AnalyzeTargetBinary(path, error);
  ASSERT_TRUE(profile.has_value()) << error;
  std::set<std::string> names;
  for (const ImportedFunction& fn : profile->imports) {
    names.insert(fn.name);
  }
  EXPECT_EQ(names, (std::set<std::string>{"open", "fopen", "lseek", "read"}));
  for (const ImportedFunction& fn : profile->imports) {
    EXPECT_TRUE(fn.interposable) << fn.name;
    EXPECT_TRUE(fn.profiled) << fn.name;
  }
  // Both the alias and the logical name resolve to the same import.
  EXPECT_EQ(profile->Find("open64"), profile->Find("open"));
}

TEST(TargetProfileTest, ZeroImportStaticBinaryIsAResultNotAnError) {
  std::string path = WriteTemp("static.bin", BuildElf({}));
  std::string error;
  auto profile = AnalyzeTargetBinary(path, error);
  ASSERT_TRUE(profile.has_value()) << error;
  EXPECT_TRUE(profile->imports.empty());
  EXPECT_TRUE(profile->InterposableImports().empty());
  EXPECT_EQ(profile->InterposableCallsites(), 0u);
}

TEST(TargetProfileTest, WalutilImportsExactlyTheInterposableSet) {
  // Ground truth for the acceptance criterion: the sample WAL target calls
  // exactly these 15 of the interposer's 24 functions. If walutil gains or
  // loses a libc call, this list is the one to update.
  std::string error;
  auto profile = AnalyzeTargetBinary(Walutil(), error);
  ASSERT_TRUE(profile.has_value()) << error;
  std::vector<std::string> expected = {
      "malloc", "fopen", "fclose", "fwrite", "fgets", "fflush", "open", "close",
      "read",   "write", "rename", "unlink", "socket", "bind",  "listen"};
  EXPECT_EQ(profile->InterposableImports(), expected);
  // Strictly smaller than the full interposable axis: the pruning is real.
  EXPECT_LT(expected.size(), exec::InterposableFunctions().size());
  bool needs_libc = false;
  for (const std::string& lib : profile->needed) {
    needs_libc |= lib.rfind("libc.so", 0) == 0;
  }
  EXPECT_TRUE(needs_libc);
}

TEST(TargetProfileTest, WalutilCallsiteWeightsArePositive) {
  std::string error;
  auto profile = AnalyzeTargetBinary(Walutil(), error);
  ASSERT_TRUE(profile.has_value()) << error;
  ASSERT_TRUE(profile->callsites_scanned);
  for (const std::string& name : profile->InterposableImports()) {
    const ImportedFunction* fn = profile->Find(name);
    ASSERT_NE(fn, nullptr);
    EXPECT_GE(fn->callsites, 1u) << name;
  }
  EXPECT_GE(profile->InterposableCallsites(), 15u);
}

TEST(TargetProfileTest, FingerprintIsStableAndSensitive) {
  std::string error;
  auto profile = AnalyzeTargetBinary(Walutil(), error);
  ASSERT_TRUE(profile.has_value()) << error;
  uint64_t fp = TargetProfileFingerprint(*profile);
  EXPECT_EQ(fp, TargetProfileFingerprint(*profile));
  TargetProfile mutated = *profile;
  ASSERT_FALSE(mutated.imports.empty());
  mutated.imports[0].callsites += 1;
  EXPECT_NE(TargetProfileFingerprint(mutated), fp);
  TargetProfile renamed = *profile;
  renamed.imports[0].name += "_x";
  EXPECT_NE(TargetProfileFingerprint(renamed), fp);
}

// ---- auto space --------------------------------------------------------

TEST(AutoSpaceTest, EveryFaultIsWithinTheLibcTable) {
  std::string error;
  auto profile = AnalyzeTargetBinary(Walutil(), error);
  ASSERT_TRUE(profile.has_value()) << error;
  SpaceSpec spec = AutoSpaceSpec(*profile, 4, 3);
  FaultSpace space = BuildFaultSpace(spec);
  std::optional<size_t> fn_axis = space.AxisIndexByName("function");
  ASSERT_TRUE(fn_axis.has_value());
  size_t points = 0;
  for (std::optional<Fault> f = space.FirstValid(); f.has_value();
       f = space.NextValid(*f)) {
    const std::string label = space.axis(*fn_axis).Label((*f)[*fn_axis]);
    const std::optional<LibcFn> fn = FindLibcFn(label);
    ASSERT_TRUE(fn.has_value()) << label;
    EXPECT_GE(LibcRow(*fn).slot, 0) << label;
    ++points;
  }
  EXPECT_EQ(points, 4u * profile->InterposableImports().size() * 3u);
}

TEST(AutoSpaceTest, SpecRoundTripsThroughTheDsl) {
  std::string error;
  auto profile = AnalyzeTargetBinary(Walutil(), error);
  ASSERT_TRUE(profile.has_value()) << error;
  SpaceSpec spec = AutoSpaceSpec(*profile, 6, 8);
  FaultSpace direct = BuildFaultSpace(spec);
  std::string text = FormatSpaceSpec(spec);
  UniverseSpec parsed = ParseFaultSpaceDescription(text);
  ASSERT_EQ(parsed.spaces.size(), 1u);
  FaultSpace rebuilt = BuildFaultSpace(parsed.spaces[0]);
  EXPECT_EQ(FaultSpaceFingerprint(direct), FaultSpaceFingerprint(rebuilt));
  EXPECT_EQ(direct.TotalPoints(), rebuilt.TotalPoints());
}

TEST(AutoSpaceTest, SanitizesHostileBinaryNamesIntoSubtypeTags) {
  TargetProfile profile;
  profile.path = "/tmp/2nd-target.v1.5";
  profile.imports.push_back(ImportedFunction{"read", 1, true, true});
  SpaceSpec spec = AutoSpaceSpec(profile, 2, 2);
  // Must parse: the tag is an identifier even though the name was not.
  std::string text = FormatSpaceSpec(spec);
  EXPECT_NO_THROW(ParseFaultSpaceDescription(text)) << text;
}

TEST(AutoSpaceTest, UnimportedSpaceFunctionsFlagsOnlyMissingNames) {
  std::string error;
  auto profile = AnalyzeTargetBinary(Walutil(), error);
  ASSERT_TRUE(profile.has_value()) << error;
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("test", 1, 2));
  axes.push_back(Axis::MakeSet("function", {"accept", "read", "connect", "open64"}));
  axes.push_back(Axis::MakeInterval("call", 1, 2));
  FaultSpace space(std::move(axes), "hand");
  // walutil imports read (and open64 folds to the imported open); it never
  // imports accept/connect.
  EXPECT_EQ(UnimportedSpaceFunctions(*profile, space),
            (std::vector<std::string>{"accept", "connect"}));
}

TEST(AutoSpaceTest, SeedsPriorityHintsWithoutIssuing) {
  std::string error;
  auto profile = AnalyzeTargetBinary(Walutil(), error);
  ASSERT_TRUE(profile.has_value()) << error;
  FaultSpace space = BuildFaultSpace(AutoSpaceSpec(*profile, 4, 4));
  FitnessExplorerConfig config;
  config.seed = 7;
  FitnessExplorer explorer(space, config);
  size_t seeded = SeedExplorerFromProfile(explorer, space, *profile);
  // Every interposable import of walutil has at least one callsite.
  EXPECT_EQ(seeded, profile->InterposableImports().size());
  EXPECT_EQ(explorer.issued_count(), 0u);  // hints are priors, not results
  EXPECT_EQ(explorer.priority_queue_size(), seeded);
  // The search still runs and can issue every point, including the hinted
  // ones (they were never marked issued).
  std::optional<Fault> first = explorer.NextCandidate();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(explorer.issued_count(), 1u);
}

TEST(AutoSpaceTest, SeedingIsANoOpWithoutCallsiteSignal) {
  TargetProfile profile;
  profile.path = "x";
  profile.imports.push_back(ImportedFunction{"read", 0, true, true});
  FaultSpace space = BuildFaultSpace(AutoSpaceSpec(profile, 2, 2));
  FitnessExplorer explorer(space, {});
  EXPECT_EQ(SeedExplorerFromProfile(explorer, space, profile), 0u);
  EXPECT_EQ(explorer.priority_queue_size(), 0u);
}

}  // namespace
}  // namespace analysis
}  // namespace afex
