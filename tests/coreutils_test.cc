#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "injection/fault_bus.h"
#include "sim/env.h"
#include "sim/process.h"
#include "sim/simlibc.h"
#include "targets/coreutils/suite.h"
#include "targets/coreutils/utils.h"
#include "targets/harness.h"

namespace afex {
namespace {

using namespace coreutils;

void AddStdout(SimEnv& env) { env.AddFile("/dev/stdout", ""); }

std::string Stdout(SimEnv& env) { return env.Find("/dev/stdout")->content; }

// ---- individual utilities ----

TEST(CoreutilsLsTest, ListsAndSorts) {
  SimEnv env;
  AddStdout(env);
  env.AddDir("/d");
  env.AddFile("/d/b", "");
  env.AddFile("/d/a", "");
  EXPECT_EQ(LsMain(env, "/d", false, true), 0);
  EXPECT_EQ(Stdout(env), "a\nb\n");
}

TEST(CoreutilsLsTest, MissingDirExitsTwo) {
  SimEnv env;
  AddStdout(env);
  EXPECT_EQ(LsMain(env, "/nope", false, false), 2);
  EXPECT_NE(Stdout(env).find("cannot access"), std::string::npos);
}

TEST(CoreutilsLsTest, StatFailureKeepsListing) {
  SimEnv env;
  AddStdout(env);
  env.AddDir("/d");
  env.AddFile("/d/a", "1");
  env.AddFile("/d/b", "2");
  env.bus().Arm({.function = LibcFn::stat, .call_lo = 1, .call_hi = 1, .retval = -1,
                 .errno_value = sim_errno::kEACCES});
  int rc = LsMain(env, "/d", /*long_format=*/true, false);
  EXPECT_EQ(rc, 1);  // error reported but listing continued
  EXPECT_NE(Stdout(env).find("- 1 b"), std::string::npos);
}

TEST(CoreutilsLsTest, MallocFailureOnSortFatal) {
  SimEnv env;
  AddStdout(env);
  env.AddDir("/d");
  env.AddFile("/d/a", "");
  env.bus().Arm({.function = LibcFn::malloc, .call_lo = 1, .call_hi = 1, .retval = 0,
                 .errno_value = sim_errno::kENOMEM});
  EXPECT_EQ(LsMain(env, "/d", false, /*sort_entries=*/true), 2);
}

TEST(CoreutilsCatTest, ConcatenatesFiles) {
  SimEnv env;
  AddStdout(env);
  env.AddFile("/1", "a\n");
  env.AddFile("/2", "b\n");
  EXPECT_EQ(CatMain(env, {"/1", "/2"}), 0);
  EXPECT_EQ(Stdout(env), "a\nb\n");
}

TEST(CoreutilsCatTest, MissingFileContinues) {
  SimEnv env;
  AddStdout(env);
  env.AddFile("/1", "a\n");
  EXPECT_EQ(CatMain(env, {"/missing", "/1"}), 1);
  EXPECT_NE(Stdout(env).find("a\n"), std::string::npos);
}

TEST(CoreutilsCatTest, EintrRetryRecovers) {
  SimEnv env;
  AddStdout(env);
  env.AddFile("/1", "content\n");
  // Fail the first fgets with EINTR; cat retries once and succeeds.
  env.bus().Arm({.function = LibcFn::fgets, .call_lo = 1, .call_hi = 1, .retval = 0,
                 .errno_value = sim_errno::kEINTR});
  EXPECT_EQ(CatMain(env, {"/1"}), 0);
  EXPECT_NE(Stdout(env).find("content"), std::string::npos);
  EXPECT_TRUE(env.coverage().Contains(kCatRecovery + 3));  // retry path taken
}

TEST(CoreutilsLnTest, HardLinkSharesContent) {
  SimEnv env;
  AddStdout(env);
  env.AddFile("/f", "data");
  EXPECT_EQ(LnMain(env, "/f", "/g", false, false), 0);
  EXPECT_EQ(env.Find("/g")->content, "data");
}

TEST(CoreutilsLnTest, MallocFailureExitsTwo) {
  SimEnv env;
  AddStdout(env);
  env.AddFile("/f", "x");
  for (int call = 1; call <= 2; ++call) {
    SimEnv fresh;
    AddStdout(fresh);
    fresh.AddFile("/f", "x");
    fresh.bus().Arm({.function = LibcFn::malloc, .call_lo = call, .call_hi = call, .retval = 0,
                     .errno_value = sim_errno::kENOMEM});
    EXPECT_EQ(LnMain(fresh, "/f", "/g", false, false), 2) << "call " << call;
    EXPECT_FALSE(fresh.Exists("/g"));
  }
}

TEST(CoreutilsLnTest, MissingSourceExitsOne) {
  SimEnv env;
  AddStdout(env);
  EXPECT_EQ(LnMain(env, "/nope", "/g", false, false), 1);
}

TEST(CoreutilsMvTest, RenamePath) {
  SimEnv env;
  AddStdout(env);
  env.AddDir("/a");
  env.AddFile("/a/f", "m");
  EXPECT_EQ(MvMain(env, "/a/f", "/a/g", false), 0);
  EXPECT_FALSE(env.Exists("/a/f"));
  EXPECT_EQ(env.Find("/a/g")->content, "m");
}

TEST(CoreutilsMvTest, CrossDeviceFallbackCopies) {
  SimEnv env;
  AddStdout(env);
  env.AddDir("/a");
  env.AddDir("/mnt");
  env.AddFile("/a/f", "payload");
  EXPECT_EQ(MvMain(env, "/a/f", "/mnt/f", false), 0);
  EXPECT_FALSE(env.Exists("/a/f"));
  EXPECT_EQ(env.Find("/mnt/f")->content, "payload");
  EXPECT_TRUE(env.coverage().Contains(kMvBase + 2));  // fallback path used
}

TEST(CoreutilsMvTest, FallbackWriteFailureLeavesSource) {
  SimEnv env;
  AddStdout(env);
  env.AddDir("/a");
  env.AddDir("/mnt");
  env.AddFile("/a/f", "payload");
  env.bus().Arm({.function = LibcFn::write, .call_lo = 1, .call_hi = 1, .retval = -1,
                 .errno_value = sim_errno::kENOSPC});
  EXPECT_EQ(MvMain(env, "/a/f", "/mnt/f", false), 1);
  EXPECT_TRUE(env.Exists("/a/f"));  // source must survive a failed move
}

TEST(CoreutilsCpTest, CopiesContent) {
  SimEnv env;
  AddStdout(env);
  env.AddFile("/src", std::string(100, 'x'));  // multiple read chunks
  EXPECT_EQ(CpMain(env, "/src", "/dst"), 0);
  EXPECT_EQ(env.Find("/dst")->content, std::string(100, 'x'));
}

TEST(CoreutilsCpTest, ReadEintrRetry) {
  SimEnv env;
  AddStdout(env);
  env.AddFile("/src", "abc");
  env.bus().Arm({.function = LibcFn::read, .call_lo = 1, .call_hi = 1, .retval = -1,
                 .errno_value = sim_errno::kEINTR});
  EXPECT_EQ(CpMain(env, "/src", "/dst"), 0);
  EXPECT_EQ(env.Find("/dst")->content, "abc");
}

TEST(CoreutilsRmTest, ForceIgnoresMissing) {
  SimEnv env;
  AddStdout(env);
  env.AddFile("/x", "");
  EXPECT_EQ(RmMain(env, {"/x", "/missing"}, true), 0);
  EXPECT_EQ(RmMain(env, {"/missing"}, false), 1);
}

TEST(CoreutilsTouchMkdirTest, CreatePaths) {
  SimEnv env;
  AddStdout(env);
  EXPECT_EQ(TouchMain(env, "/new"), 0);
  EXPECT_TRUE(env.Exists("/new"));
  EXPECT_EQ(MkdirMain(env, "/p/q", true), 0);
  EXPECT_TRUE(env.IsDir("/p/q"));
  EXPECT_EQ(MkdirMain(env, "/p", false), 1);  // already exists
}

TEST(CoreutilsHeadWcSortTest, TextPipeline) {
  SimEnv env;
  AddStdout(env);
  env.AddFile("/t", "b\na\nc\n");
  EXPECT_EQ(SortMain(env, "/t"), 0);
  EXPECT_EQ(Stdout(env), "a\nb\nc\n");

  SimEnv env2;
  AddStdout(env2);
  env2.AddFile("/t", "1\n2\n3\n");
  EXPECT_EQ(HeadMain(env2, "/t", 2), 0);
  EXPECT_EQ(Stdout(env2), "1\n2\n");

  SimEnv env3;
  AddStdout(env3);
  env3.AddFile("/t", "one two\nthree\n");
  EXPECT_EQ(WcMain(env3, "/t"), 0);
  EXPECT_NE(Stdout(env3).find("2 3 14"), std::string::npos);
}

TEST(CoreutilsDuTest, SumsSizesAcrossSubdir) {
  SimEnv env;
  AddStdout(env);
  env.AddDir("/t");
  env.AddFile("/t/a", "12");
  env.AddDir("/t/s");
  env.AddFile("/t/s/b", "345");
  EXPECT_EQ(DuMain(env, "/t"), 0);
  EXPECT_NE(Stdout(env).find("5\t/t"), std::string::npos);
}

// ---- suite & harness ----

TEST(CoreutilsSuiteTest, AllTestsPassWithoutInjection) {
  TargetHarness harness(MakeSuite());
  EXPECT_EQ(harness.RunSuiteWithoutInjection(), 0u);
}

TEST(CoreutilsSuiteTest, SpaceMatchesPaperDimensions) {
  TargetHarness harness(MakeSuite());
  FaultSpace space = harness.MakeSpace(2, /*include_zero_call=*/true);
  EXPECT_EQ(space.TotalPoints(), 1653u);  // 29 x 19 x 3, as in the paper
  EXPECT_EQ(space.dimensions(), 3u);
}

TEST(CoreutilsSuiteTest, TestUtilitiesCover29Tests) {
  const auto& utilities = TestUtilities();
  EXPECT_EQ(utilities.size(), 29u);
  EXPECT_EQ(TestsForUtility("ln").size(), 7u);
  EXPECT_EQ(TestsForUtility("mv").size(), 7u);
  EXPECT_EQ(TestsForUtility("ls").size(), 5u);
}

TEST(CoreutilsSuiteTest, HarnessDetectsInjectedFailure) {
  TargetHarness harness(MakeSuite());
  FaultSpace space = harness.MakeSpace(2, true);
  // Fault: test 6 (ln simple, 0-based id 5 -> label "6"), malloc, call 1.
  size_t test_axis_index = 5;
  size_t malloc_index = *space.axis(1).IndexOf("malloc");
  size_t call1_index = *space.axis(2).IndexOf("1");
  TestOutcome outcome = harness.RunFault(space, Fault({test_axis_index, malloc_index, call1_index}));
  EXPECT_TRUE(outcome.test_failed);
  EXPECT_TRUE(outcome.fault_triggered);
  EXPECT_FALSE(outcome.injection_stack.empty());
}

TEST(CoreutilsSuiteTest, NoInjectionPointPasses) {
  TargetHarness harness(MakeSuite());
  FaultSpace space = harness.MakeSpace(2, true);
  size_t call0_index = *space.axis(2).IndexOf("0");
  for (size_t t = 0; t < 29; ++t) {
    TestOutcome outcome = harness.RunFault(space, Fault({t, 0, call0_index}));
    EXPECT_FALSE(outcome.test_failed) << "test " << t + 1;
    EXPECT_FALSE(outcome.fault_triggered);
  }
}

TEST(CoreutilsSuiteTest, Exactly28MallocFaultsFailLnMv) {
  // The ground truth behind paper Table 6.
  TargetHarness harness(MakeSuite());
  FaultSpace space = harness.MakeSpace(2, true);
  size_t malloc_index = *space.axis(1).IndexOf("malloc");
  const auto& utilities = TestUtilities();
  size_t failing = 0;
  for (size_t t = 0; t < 29; ++t) {
    if (utilities[t] != "ln" && utilities[t] != "mv") {
      continue;
    }
    for (size_t call = 1; call <= 2; ++call) {
      size_t call_index = *space.axis(2).IndexOf(std::to_string(call));
      TestOutcome outcome = harness.RunFault(space, Fault({t, malloc_index, call_index}));
      if (outcome.test_failed) {
        ++failing;
      }
    }
  }
  EXPECT_EQ(failing, 28u);
}

TEST(CoreutilsSuiteTest, FaultFreeCallProfileMatchesTheAxis) {
  // The ltrace-style profile the space is defined from (paper §7): every
  // axis function but strdup is called by some test, and every ln/mv test
  // calls malloc exactly twice (Table 6's 28 scenarios depend on it).
  TargetSuite suite = MakeSuite();
  const auto& utilities = TestUtilities();
  std::vector<bool> used(kLibcFnCount, false);
  for (size_t t = 0; t < suite.num_tests; ++t) {
    SimEnv env;
    RunOutcome outcome = RunProgram(env, [&](SimEnv& e) { return suite.run_test(e, t); });
    EXPECT_EQ(outcome.exit_code, 0) << "test " << t;
    if (utilities[t] == "ln" || utilities[t] == "mv") {
      EXPECT_EQ(env.bus().CallCount(LibcFn::malloc), 2u) << "test " << t;
    }
    for (size_t row = 0; row < kLibcFnCount; ++row) {
      used[row] = used[row] || env.bus().CallCount(static_cast<LibcFn>(row)) > 0;
    }
  }
  for (const std::string& fn : suite.functions) {
    if (fn != "strdup") {
      EXPECT_TRUE(used[static_cast<size_t>(*FindLibcFn(fn))]) << fn;
    }
  }
}

TEST(CoreutilsSuiteTest, InjectionRunsAreDeterministic) {
  TargetSuite suite = MakeSuite();
  TargetHarness a(suite, 99);
  TargetHarness b(suite, 99);
  FaultSpace space = a.MakeSpace(2, true);
  Fault fault({3, 5, 1});
  TestOutcome oa = a.RunFault(space, fault);
  TestOutcome ob = b.RunFault(space, fault);
  EXPECT_EQ(oa.test_failed, ob.test_failed);
  EXPECT_EQ(oa.exit_code, ob.exit_code);
  EXPECT_EQ(oa.injection_stack, ob.injection_stack);
  EXPECT_EQ(oa.new_blocks_covered, ob.new_blocks_covered);
}

TEST(CoreutilsSuiteTest, RecoveryCoverageGrowsUnderInjection) {
  TargetHarness baseline(MakeSuite());
  baseline.RunSuiteWithoutInjection();
  double without = baseline.RecoveryCoverageFraction();

  TargetHarness injected(MakeSuite());
  injected.RunSuiteWithoutInjection();
  FaultSpace space = injected.MakeSpace(2, true);
  // Exhaustively inject every (test, function, call) point.
  for (auto f = space.FirstValid(); f.has_value(); f = space.NextValid(*f)) {
    injected.RunFault(space, *f);
  }
  EXPECT_GT(injected.RecoveryCoverageFraction(), without);
  EXPECT_GT(injected.RecoveryCoverageFraction(), 0.5);
}

}  // namespace
}  // namespace afex
