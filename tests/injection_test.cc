#include <gtest/gtest.h>

#include <map>

#include "exec/feedback_block.h"
#include "injection/fault_bus.h"
#include "injection/libc_profile.h"
#include "injection/plan.h"
#include "sim/env.h"
#include "sim/simlibc.h"
#include "sim/tracer.h"
#include "targets/coreutils/suite.h"

namespace afex {
namespace {

// ---- FaultBus ----

TEST(FaultBusTest, CountsCallsPerFunction) {
  FaultBus bus;
  bus.OnCall("read");
  bus.OnCall("read");
  bus.OnCall("write");
  EXPECT_EQ(bus.CallCount("read"), 2u);
  EXPECT_EQ(bus.CallCount("write"), 1u);
  EXPECT_EQ(bus.CallCount("open"), 0u);
}

TEST(FaultBusTest, FiresOnMatchingCallNumber) {
  FaultBus bus;
  bus.Arm({.function = "read", .call_lo = 2, .call_hi = 2, .retval = -1, .errno_value = 5});
  EXPECT_EQ(bus.OnCall("read"), nullptr);
  const FaultSpec* spec = bus.OnCall("read");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->retval, -1);
  EXPECT_EQ(bus.OnCall("read"), nullptr);
  EXPECT_TRUE(bus.triggered());
  EXPECT_EQ(bus.trigger_count(), 1u);
}

TEST(FaultBusTest, DifferentFunctionUnaffected) {
  FaultBus bus;
  bus.Arm({.function = "read", .call_lo = 1, .call_hi = 1});
  EXPECT_EQ(bus.OnCall("write"), nullptr);
  EXPECT_FALSE(bus.triggered());
}

TEST(FaultBusTest, MultiFaultScenario) {
  FaultBus bus;
  bus.Arm({.function = "read", .call_lo = 1, .call_hi = 1, .retval = -1, .errno_value = 4});
  bus.Arm({.function = "malloc", .call_lo = 2, .call_hi = 2, .retval = 0, .errno_value = 12});
  EXPECT_NE(bus.OnCall("read"), nullptr);
  EXPECT_EQ(bus.OnCall("malloc"), nullptr);
  EXPECT_NE(bus.OnCall("malloc"), nullptr);
  EXPECT_EQ(bus.trigger_count(), 2u);
}

TEST(FaultBusTest, ResetClearsEverything) {
  FaultBus bus;
  bus.Arm({.function = "read", .call_lo = 1, .call_hi = 1});
  bus.OnCall("read");
  bus.Reset();
  EXPECT_FALSE(bus.triggered());
  EXPECT_EQ(bus.CallCount("read"), 0u);
  EXPECT_EQ(bus.OnCall("read"), nullptr);  // spec gone too
}

// ---- LibcProfile ----

TEST(LibcProfileTest, KnownFunctionsPresent) {
  const LibcProfile& profile = LibcProfile::Default();
  auto malloc_profile = profile.Find("malloc");
  ASSERT_TRUE(malloc_profile.has_value());
  EXPECT_EQ(malloc_profile->error_retval, 0);
  EXPECT_EQ(malloc_profile->errnos, (std::vector<int>{sim_errno::kENOMEM}));
  EXPECT_EQ(malloc_profile->category, "memory");
  EXPECT_FALSE(profile.Find("nonexistent_fn").has_value());
}

TEST(LibcProfileTest, CategoryGrouping) {
  const LibcProfile& profile = LibcProfile::Default();
  auto memory = profile.FunctionNames("memory");
  EXPECT_EQ(memory, (std::vector<std::string>{"malloc", "calloc", "realloc", "strdup"}));
  EXPECT_FALSE(profile.FunctionNames("file").empty());
  EXPECT_FALSE(profile.FunctionNames("net").empty());
}

TEST(LibcProfileTest, OrderGroupsCategories) {
  // Functions of the same category must be contiguous, giving the function
  // axis the neighbour structure the Gaussian mutation exploits.
  const LibcProfile& profile = LibcProfile::Default();
  std::string last_category;
  std::vector<std::string> seen_categories;
  for (const auto& fn : profile.functions()) {
    if (fn.category != last_category) {
      EXPECT_EQ(std::count(seen_categories.begin(), seen_categories.end(), fn.category), 0)
          << "category " << fn.category << " is not contiguous";
      seen_categories.push_back(fn.category);
      last_category = fn.category;
    }
  }
}

TEST(LibcProfileTest, ErrnoNames) {
  EXPECT_EQ(sim_errno::Name(sim_errno::kENOMEM), "ENOMEM");
  EXPECT_EQ(sim_errno::Name(0), "OK");
  EXPECT_EQ(sim_errno::ValueFromName("EINTR"), std::optional<int>(sim_errno::kEINTR));
  EXPECT_EQ(sim_errno::ValueFromName("EWHAT"), std::nullopt);
}

// ---- the libc function table ----

TEST(LibcTableTest, KindMatrixAndSlotOrder) {
  // errno and kill_at apply to every function; each storage kind only to
  // the functions listed here.
  const std::map<std::string, FaultKind> storage_kind = {
      {"write", FaultKind::kShortWrite},     {"fwrite", FaultKind::kShortWrite},
      {"fsync", FaultKind::kDropSync},       {"fdatasync", FaultKind::kDropSync},
      {"rename", FaultKind::kCrashAfterRename},
  };
  for (const FunctionErrorProfile& fn : LibcProfile::Default().functions()) {
    const auto it = storage_kind.find(fn.function);
    for (int k = 0; k < kFaultKindCount; ++k) {
      const FaultKind kind = static_cast<FaultKind>(k);
      const bool expected = kind == FaultKind::kErrno || kind == FaultKind::kKillAt ||
                            (it != storage_kind.end() && it->second == kind);
      EXPECT_EQ(FaultKindAppliesTo(kind, fn.function), expected)
          << fn.function << " x " << FaultKindName(kind);
    }
  }
  EXPECT_FALSE(KindAppliesTo(-1, ~0u));
  EXPECT_FALSE(KindAppliesTo(kFaultKindCount, ~0u));

  // Wrapped functions take consecutive slots in profile order, and the
  // slot-level kinds agree with the by-name rule.
  int last_slot = -1;
  for (const FunctionErrorProfile& fn : LibcProfile::Default().functions()) {
    const int slot = exec::InterposedSlot(fn.function.c_str());
    if (slot < 0) {
      continue;
    }
    EXPECT_EQ(slot, last_slot + 1) << fn.function;
    last_slot = slot;
    for (int k = 0; k < kFaultKindCount; ++k) {
      EXPECT_EQ(KindAppliesTo(k, exec::kInterposedStorageKinds[slot]),
                FaultKindAppliesTo(static_cast<FaultKind>(k), fn.function))
          << fn.function << " x " << k;
    }
  }
  EXPECT_EQ(last_slot + 1, static_cast<int>(exec::kInterposedFunctionCount));
  EXPECT_EQ(exec::InterposedSlot("open"), 9);
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
  EXPECT_EQ(plan.spec->function, "read");
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

// ---- Tracer ----

TEST(TracerTest, TracesCoreutilsSuite) {
  TargetSuite suite = coreutils::MakeSuite();
  auto traces = Tracer::TraceSuite(suite.run_test, suite.num_tests);
  ASSERT_EQ(traces.size(), coreutils::kNumTests);
  // Without injection the whole suite passes.
  for (const TraceResult& t : traces) {
    EXPECT_EQ(t.exit_code, 0) << "test " << t.test_id << " fails without injection";
  }
  // Every ln/mv test calls malloc exactly twice (Table 6's 28 scenarios
  // depend on this).
  const auto& utilities = coreutils::TestUtilities();
  for (const TraceResult& t : traces) {
    if (utilities[t.test_id] == "ln" || utilities[t.test_id] == "mv") {
      auto it = t.call_counts.find("malloc");
      ASSERT_NE(it, t.call_counts.end()) << "test " << t.test_id;
      EXPECT_EQ(it->second, 2u) << "test " << t.test_id;
    }
  }
}

TEST(TracerTest, UsedFunctionsInProfileOrder) {
  TargetSuite suite = coreutils::MakeSuite();
  auto traces = Tracer::TraceSuite(suite.run_test, suite.num_tests);
  auto used = Tracer::UsedFunctions(traces);
  EXPECT_FALSE(used.empty());
  // The 19 functions the suite axis declares must all be observed in use.
  for (const std::string& fn : suite.functions) {
    if (fn == "strdup") {
      continue;  // declared on the axis but unused by these utilities
    }
    EXPECT_NE(std::find(used.begin(), used.end(), fn), used.end()) << fn;
  }
}

TEST(TracerTest, MaxCallCount) {
  TargetSuite suite = coreutils::MakeSuite();
  auto traces = Tracer::TraceSuite(suite.run_test, suite.num_tests);
  EXPECT_GE(Tracer::MaxCallCount(traces, "fopen"), 1u);
  EXPECT_EQ(Tracer::MaxCallCount(traces, "bogus_function"), 0u);
}

}  // namespace
}  // namespace afex
