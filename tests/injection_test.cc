#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exec/feedback_block.h"
#include "injection/fault_bus.h"
#include "injection/plan.h"

namespace afex {
namespace {

// ---- FaultBus ----

TEST(FaultBusTest, CountsCallsPerFunction) {
  FaultBus bus;
  bus.OnCall(LibcFn::read);
  bus.OnCall(LibcFn::read);
  bus.OnCall(LibcFn::write);
  EXPECT_EQ(bus.CallCount(LibcFn::read), 2u);
  EXPECT_EQ(bus.CallCount(LibcFn::write), 1u);
  EXPECT_EQ(bus.CallCount(LibcFn::open), 0u);
}

TEST(FaultBusTest, FiresOnMatchingCallNumber) {
  FaultBus bus;
  bus.Arm({.function = LibcFn::read, .call_lo = 2, .call_hi = 2, .retval = -1, .errno_value = 5});
  EXPECT_EQ(bus.OnCall(LibcFn::read), nullptr);
  const FaultSpec* spec = bus.OnCall(LibcFn::read);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->retval, -1);
  EXPECT_EQ(bus.OnCall(LibcFn::read), nullptr);
  EXPECT_TRUE(bus.triggered());
  EXPECT_EQ(bus.trigger_count(), 1u);
}

TEST(FaultBusTest, DifferentFunctionUnaffected) {
  FaultBus bus;
  bus.Arm({.function = LibcFn::read, .call_lo = 1, .call_hi = 1});
  EXPECT_EQ(bus.OnCall(LibcFn::write), nullptr);
  EXPECT_FALSE(bus.triggered());
}

TEST(FaultBusTest, MultiFaultScenario) {
  FaultBus bus;
  bus.Arm({.function = LibcFn::read, .call_lo = 1, .call_hi = 1, .retval = -1, .errno_value = 4});
  bus.Arm({.function = LibcFn::malloc, .call_lo = 2, .call_hi = 2, .retval = 0, .errno_value = 12});
  EXPECT_NE(bus.OnCall(LibcFn::read), nullptr);
  EXPECT_EQ(bus.OnCall(LibcFn::malloc), nullptr);
  EXPECT_NE(bus.OnCall(LibcFn::malloc), nullptr);
  EXPECT_EQ(bus.trigger_count(), 2u);
}

TEST(FaultBusTest, ResetClearsEverything) {
  FaultBus bus;
  bus.Arm({.function = LibcFn::read, .call_lo = 1, .call_hi = 1});
  bus.OnCall(LibcFn::read);
  bus.Reset();
  EXPECT_FALSE(bus.triggered());
  EXPECT_EQ(bus.CallCount(LibcFn::read), 0u);
  EXPECT_EQ(bus.OnCall(LibcFn::read), nullptr);  // spec gone too
}

// ---- the libc function table ----

TEST(LibcTableTest, KnownFunctionsPresent) {
  const std::optional<LibcFn> malloc_fn = FindLibcFn("malloc");
  ASSERT_TRUE(malloc_fn.has_value());
  EXPECT_EQ(*malloc_fn, LibcFn::malloc);
  const LibcTableRow& row = LibcRow(LibcFn::malloc);
  EXPECT_STREQ(row.name, "malloc");
  EXPECT_EQ(row.error_retval, 0);
  EXPECT_EQ(row.default_errno, sim_errno::kENOMEM);
  EXPECT_STREQ(row.category, "memory");
  EXPECT_FALSE(FindLibcFn("nonexistent_fn").has_value());
  EXPECT_EQ(LibcRow(LibcFn::ferror).default_errno, 0);  // a row without errnos
}

std::vector<std::string> CategoryMembers(std::string_view category) {
  std::vector<std::string> names;
  for (const LibcTableRow& row : kLibcTable) {
    if (row.category == category) {
      names.push_back(row.name);
    }
  }
  return names;
}

TEST(LibcTableTest, CategoryGrouping) {
  EXPECT_EQ(CategoryMembers("memory"),
            (std::vector<std::string>{"malloc", "calloc", "realloc", "strdup"}));
  EXPECT_FALSE(CategoryMembers("file").empty());
  EXPECT_FALSE(CategoryMembers("net").empty());
}

TEST(LibcTableTest, OrderGroupsCategories) {
  // Functions of the same category must be contiguous, giving the function
  // axis the neighbour structure the Gaussian mutation exploits.
  std::string last_category;
  std::vector<std::string> seen_categories;
  for (const LibcTableRow& row : kLibcTable) {
    if (row.category != last_category) {
      EXPECT_EQ(std::count(seen_categories.begin(), seen_categories.end(), row.category), 0)
          << "category " << row.category << " is not contiguous";
      seen_categories.push_back(row.category);
      last_category = row.category;
    }
  }
}

TEST(LibcTableTest, ErrnoNames) {
  EXPECT_EQ(sim_errno::Name(sim_errno::kENOMEM), "ENOMEM");
  EXPECT_EQ(sim_errno::Name(0), "OK");
  EXPECT_EQ(sim_errno::ValueFromName("EINTR"), std::optional<int>(sim_errno::kEINTR));
  EXPECT_EQ(sim_errno::ValueFromName("EWHAT"), std::nullopt);
}

TEST(LibcTableTest, EnumeratorsAreRowsAndNamesFindThem) {
  ASSERT_EQ(kLibcFnCount, std::size(kLibcTable));
  for (size_t row = 0; row < kLibcFnCount; ++row) {
    EXPECT_EQ(FindLibcFn(kLibcTable[row].name), std::optional<LibcFn>(static_cast<LibcFn>(row)))
        << kLibcTable[row].name;
  }
  // Aliases fold in the analyzer, not here: open64 is not a row.
  EXPECT_FALSE(FindLibcFn("open64").has_value());
  EXPECT_STREQ(LibcRow(LibcFn::open).alias, "open64");
}

TEST(LibcTableTest, KindMatrixAndSlotOrder) {
  // errno and kill_at apply to every function; each storage kind only to
  // the functions listed here.
  const std::map<std::string, FaultKind> storage_kind = {
      {"write", FaultKind::kShortWrite},     {"fwrite", FaultKind::kShortWrite},
      {"fsync", FaultKind::kDropSync},       {"fdatasync", FaultKind::kDropSync},
      {"rename", FaultKind::kCrashAfterRename},
  };
  for (size_t row = 0; row < kLibcFnCount; ++row) {
    const LibcFn fn = static_cast<LibcFn>(row);
    const std::string name = kLibcTable[row].name;
    const auto it = storage_kind.find(name);
    for (int k = 0; k < kFaultKindCount; ++k) {
      const FaultKind kind = static_cast<FaultKind>(k);
      const bool expected = kind == FaultKind::kErrno || kind == FaultKind::kKillAt ||
                            (it != storage_kind.end() && it->second == kind);
      EXPECT_EQ(FaultKindAppliesTo(kind, fn), expected) << name << " x " << FaultKindName(kind);
    }
  }
  EXPECT_FALSE(KindAppliesTo(-1, ~0u));
  EXPECT_FALSE(KindAppliesTo(kFaultKindCount, ~0u));

  // Wrapped functions take consecutive slots in table order, and each slot
  // maps back to its row.
  int last_slot = -1;
  for (size_t row = 0; row < kLibcFnCount; ++row) {
    const int slot = kLibcTable[row].slot;
    if (slot < 0) {
      continue;
    }
    EXPECT_EQ(slot, last_slot + 1) << kLibcTable[row].name;
    EXPECT_EQ(exec::kInterposedFunctions[slot], static_cast<LibcFn>(row)) << slot;
    last_slot = slot;
  }
  EXPECT_EQ(last_slot + 1, static_cast<int>(exec::kInterposedFunctionCount));
  EXPECT_EQ(LibcRow(LibcFn::open).slot, 9);
  EXPECT_EQ(LibcRow(LibcFn::strdup).slot, -1);
}

// ---- plan decoding ----

FaultSpace MakeCanonicalSpace() {
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("test", 1, 29));
  axes.push_back(Axis::MakeSet("function", {"malloc", "read", "close"}));
  axes.push_back(Axis::MakeInterval("call", 0, 2));
  return FaultSpace(std::move(axes), "canonical");
}

TEST(PlanTest, DecodesTestFunctionCall) {
  FaultSpace space = MakeCanonicalSpace();
  // test index 4 -> label "5" -> test_id 4; function 1 -> read; call index
  // 2 -> label "2".
  InjectionPlan plan = FaultDecoder(space).Decode(Fault({4, 1, 2}));
  EXPECT_EQ(plan.test_id, 4u);
  ASSERT_TRUE(plan.spec.has_value());
  EXPECT_EQ(plan.spec->function, LibcFn::read);
  EXPECT_EQ(plan.spec->call_lo, 2);
  EXPECT_EQ(plan.spec->retval, -1);
  EXPECT_EQ(plan.spec->errno_value, sim_errno::kEINTR);  // read's first errno
}

TEST(PlanTest, CallZeroMeansNoInjection) {
  FaultSpace space = MakeCanonicalSpace();
  InjectionPlan plan = FaultDecoder(space).Decode(Fault({0, 0, 0}));
  EXPECT_EQ(plan.test_id, 0u);
  EXPECT_FALSE(plan.spec.has_value());
}

TEST(PlanTest, MallocProfileDefaults) {
  FaultSpace space = MakeCanonicalSpace();
  InjectionPlan plan = FaultDecoder(space).Decode(Fault({0, 0, 1}));
  ASSERT_TRUE(plan.spec.has_value());
  EXPECT_EQ(plan.spec->retval, 0);  // NULL
  EXPECT_EQ(plan.spec->errno_value, sim_errno::kENOMEM);
}

TEST(PlanTest, ExplicitErrnoAndRetvalAxes) {
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("test", 1, 3));
  axes.push_back(Axis::MakeSet("function", {"read"}));
  axes.push_back(Axis::MakeInterval("call", 1, 5));
  axes.push_back(Axis::MakeSet("errno", {"EINTR", "EIO"}));
  axes.push_back(Axis::MakeSet("retval", {"-1"}));
  FaultSpace space(std::move(axes), "full");
  InjectionPlan plan = FaultDecoder(space).Decode(Fault({0, 0, 0, 1, 0}));
  ASSERT_TRUE(plan.spec.has_value());
  EXPECT_EQ(plan.spec->errno_value, sim_errno::kEIO);
  EXPECT_EQ(plan.spec->retval, -1);
}

TEST(PlanTest, ModeAxisShortWriteUsesRetvalAsByteCount) {
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("test", 1, 3));
  axes.push_back(Axis::MakeSet("function", {"write"}));
  axes.push_back(Axis::MakeInterval("call", 1, 5));
  axes.push_back(Axis::MakeSet("mode", {"errno", "short_write"}));
  axes.push_back(Axis::MakeSet("retval", {"20", "-1"}));
  FaultSpace space(std::move(axes), "modes");
  FaultDecoder decoder(space);

  InjectionPlan plan = decoder.Decode(Fault({0, 0, 0, 1, 0}));
  ASSERT_TRUE(plan.spec.has_value());
  EXPECT_EQ(plan.spec->kind, FaultKind::kShortWrite);
  EXPECT_EQ(plan.spec->param, 20);
  EXPECT_EQ(plan.spec->retval, 20);
  EXPECT_EQ(plan.spec->errno_value, 0);

  // A negative retval label clamps K to a 0-byte write.
  plan = decoder.Decode(Fault({0, 0, 0, 1, 1}));
  ASSERT_TRUE(plan.spec.has_value());
  EXPECT_EQ(plan.spec->param, 0);
  EXPECT_EQ(plan.spec->retval, 0);

  std::vector<Axis> bad_axes = space.axes();
  bad_axes[3] = Axis::MakeSet("mode", {"errno", "torn_page"});
  FaultSpace bad(std::move(bad_axes), "bad-mode");
  EXPECT_THROW(FaultDecoder{bad}, std::invalid_argument);
}

TEST(PlanTest, MissingTestAxisThrows) {
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeSet("function", {"read"}));
  FaultSpace space(std::move(axes), "broken");
  EXPECT_THROW(FaultDecoder{space}, std::invalid_argument);
}

TEST(PlanTest, UnknownFunctionLabelThrows) {
  // A label outside the libc table names no function; the decoder refuses
  // it as it refuses unknown errno and mode labels.
  std::vector<Axis> axes = MakeCanonicalSpace().axes();
  axes[1] = Axis::MakeSet("function", {"malloc", "nosuchfn"});
  FaultSpace space(std::move(axes), "bad-function");
  try {
    FaultDecoder decoder(space);
    FAIL() << "decoded a space naming nosuchfn";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown function label 'nosuchfn'");
  }
}

TEST(PlanTest, UnparsableRetvalLabelThrows) {
  for (const char* label : {"abc", "5x", "99999999999999999999"}) {
    std::vector<Axis> axes = MakeCanonicalSpace().axes();
    axes.push_back(Axis::MakeSet("retval", {"-1", label}));
    FaultSpace space(std::move(axes), "bad-retval");
    EXPECT_THROW(FaultDecoder{space}, std::invalid_argument) << label;
  }
}

TEST(PlanTest, PermutedAxesStillDecodeByLabel) {
  FaultSpace space = MakeCanonicalSpace();
  // Shuffle the test axis: position 0 now carries label "3" (original
  // index 2).
  std::vector<Axis> axes = space.axes();
  axes[0] = axes[0].Permuted({2, 0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                              15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28});
  FaultSpace shuffled(std::move(axes), "shuffled");
  InjectionPlan plan = FaultDecoder(shuffled).Decode(Fault({0, 0, 1}));
  EXPECT_EQ(plan.test_id, 2u);  // label "3" -> test_id 2
}

TEST(PlanTest, FormatMatchesPaperShape) {
  FaultSpace space = MakeCanonicalSpace();
  InjectionPlan plan = FaultDecoder(space).Decode(Fault({22, 0, 1}));
  std::string rendered = FormatPlan(plan);
  EXPECT_NE(rendered.find("function malloc"), std::string::npos);
  EXPECT_NE(rendered.find("errno ENOMEM"), std::string::npos);
  EXPECT_NE(rendered.find("retval 0"), std::string::npos);
  EXPECT_NE(rendered.find("callNumber 1"), std::string::npos);
}

}  // namespace
}  // namespace afex
