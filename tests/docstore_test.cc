#include <gtest/gtest.h>

#include "injection/fault_bus.h"
#include "sim/env.h"
#include "sim/process.h"
#include "sim/simlibc.h"
#include "targets/docstore/docstore.h"
#include "targets/docstore/suite.h"
#include "targets/harness.h"

namespace afex {
namespace {

using namespace docstore;



// ---- V08 ----

TEST(DocStoreV08Test, PutGetRemove) {
  SimEnv env;
  InstallFixture(env);
  DocStoreV08 store(env);
  EXPECT_EQ(store.Put("a", "{1}"), 0);
  std::string doc;
  EXPECT_EQ(store.Get("a", doc), 0);
  EXPECT_EQ(doc, "{1}");
  EXPECT_EQ(store.Remove("a"), 0);
  EXPECT_EQ(store.Get("a", doc), 1);
  EXPECT_EQ(store.Remove("a"), 1);
}

TEST(DocStoreV08Test, SnapshotRoundTrip) {
  SimEnv env;
  InstallFixture(env);
  DocStoreV08 store(env);
  store.Put("x", "{10}");
  store.Put("y", "{20}");
  ASSERT_EQ(store.Save(), 0);
  DocStoreV08 other(env);
  ASSERT_EQ(other.Load(), 0);
  EXPECT_EQ(other.size(), 2u);
  std::string doc;
  EXPECT_EQ(other.Get("y", doc), 0);
  EXPECT_EQ(doc, "{20}");
}

TEST(DocStoreV08Test, OomOnPutIsGraceful) {
  SimEnv env;
  InstallFixture(env);
  env.bus().Arm({.function = LibcFn::malloc, .call_lo = 1, .call_hi = 1, .retval = 0,
                 .errno_value = sim_errno::kENOMEM});
  DocStoreV08 store(env);
  EXPECT_EQ(store.Put("a", "{1}"), -1);
  EXPECT_EQ(store.size(), 0u);
}

TEST(DocStoreV08Test, SaveWriteFailureReported) {
  SimEnv env;
  InstallFixture(env);
  DocStoreV08 store(env);
  store.Put("a", "{1}");
  env.bus().Arm({.function = LibcFn::fwrite, .call_lo = 1, .call_hi = 1, .retval = 0,
                 .errno_value = sim_errno::kENOSPC});
  EXPECT_EQ(store.Save(), -1);
}

// ---- V20 ----

TEST(DocStoreV20Test, JournaledPutSurvivesReplay) {
  SimEnv env;
  InstallFixture(env);
  DocStoreV20 store(env);
  ASSERT_EQ(store.Open(), 0);
  ASSERT_EQ(store.Put("a", "{1}"), 0);
  ASSERT_EQ(store.Put("b", "{2}"), 0);
  ASSERT_EQ(store.Remove("a"), 0);

  DocStoreV20 recovered(env);
  ASSERT_EQ(recovered.Open(), 0);
  ASSERT_EQ(recovered.ReplayJournal(), 0);
  EXPECT_EQ(recovered.size(), 1u);
  std::string doc;
  EXPECT_EQ(recovered.Get("b", doc), 0);
  EXPECT_EQ(doc, "{2}");
}

TEST(DocStoreV20Test, SnapshotIsAtomic) {
  SimEnv env;
  InstallFixture(env);
  DocStoreV20 store(env);
  ASSERT_EQ(store.Open(), 0);
  store.Put("a", "{1}");
  ASSERT_EQ(store.Save(), 0);
  std::string before = env.Find("/data/store.snap")->content;

  // A failed re-save must leave the previous snapshot intact.
  store.Put("b", "{2}");
  size_t writes = env.bus().CallCount(LibcFn::write);
  env.bus().Arm({.function = LibcFn::write,
                 .call_lo = static_cast<int>(writes + 2),
                 .call_hi = static_cast<int>(writes + 2),
                 .retval = -1,
                 .errno_value = sim_errno::kENOSPC});
  EXPECT_EQ(store.Save(), -1);
  EXPECT_EQ(env.Find("/data/store.snap")->content, before);
}

TEST(DocStoreV20Test, CompactTruncatesJournal) {
  SimEnv env;
  InstallFixture(env);
  DocStoreV20 store(env);
  ASSERT_EQ(store.Open(), 0);
  store.Put("a", "{1}");
  EXPECT_GT(env.Find("/data/journal.wal")->content.size(), 0u);
  ASSERT_EQ(store.Compact(), 0);
  EXPECT_EQ(env.Find("/data/journal.wal")->content.size(), 0u);
  // New puts still journal correctly after compaction.
  EXPECT_EQ(store.Put("b", "{2}"), 0);
  EXPECT_GT(env.Find("/data/journal.wal")->content.size(), 0u);
}

TEST(DocStoreV20Test, StatsReportsSnapshot) {
  SimEnv env;
  InstallFixture(env);
  DocStoreV20 store(env);
  ASSERT_EQ(store.Open(), 0);
  store.Put("a", "{1}");
  ASSERT_EQ(store.Save(), 0);
  size_t documents = 0;
  size_t bytes = 0;
  EXPECT_EQ(store.Stats(documents, bytes), 0);
  EXPECT_EQ(documents, 1u);
  EXPECT_GT(bytes, 0u);
}

TEST(DocStoreV20Test, EncodeOomIsGraceful) {
  SimEnv env;
  InstallFixture(env);
  DocStoreV20 store(env);
  ASSERT_EQ(store.Open(), 0);
  env.bus().Arm({.function = LibcFn::realloc, .call_lo = 1, .call_hi = 1, .retval = 0,
                 .errno_value = sim_errno::kENOMEM});
  EXPECT_EQ(store.Put("a", "{1}"), -1);
  EXPECT_EQ(store.size(), 0u);
}

// The seeded v2.0 crash: the replay index allocation is unchecked.
TEST(DocStoreV20Test, ReplayIndexOomCrashes) {
  SimEnv env;
  InstallFixture(env);
  DocStoreV20 store(env);
  ASSERT_EQ(store.Open(), 0);
  ASSERT_EQ(store.Put("a", "{1}"), 0);
  DocStoreV20 recovered(env);
  ASSERT_EQ(recovered.Open(), 0);
  size_t mallocs = env.bus().CallCount(LibcFn::malloc);
  env.bus().Arm({.function = LibcFn::malloc,
                 .call_lo = static_cast<int>(mallocs + 1),
                 .call_hi = static_cast<int>(mallocs + 1),
                 .retval = 0,
                 .errno_value = sim_errno::kENOMEM});
  EXPECT_THROW(recovered.ReplayJournal(), SimCrash);
}

// ---- suites ----

TEST(DocStoreSuiteTest, BothVersionsPassWithoutInjection) {
  TargetHarness v08(MakeSuiteV08());
  EXPECT_EQ(v08.RunSuiteWithoutInjection(), 0u);
  TargetHarness v20(MakeSuiteV20());
  EXPECT_EQ(v20.RunSuiteWithoutInjection(), 0u);
}

TEST(DocStoreSuiteTest, V20UsesMoreLibcCallsThanV08) {
  // §7.6's premise: the mature version interacts more with its environment.
  auto count_calls = [](const TargetSuite& suite) {
    size_t total = 0;
    for (size_t t = 0; t < suite.num_tests; ++t) {
      SimEnv env;
      RunProgram(env, [&](SimEnv& e) { return suite.run_test(e, t); });
      for (size_t row = 0; row < kLibcFnCount; ++row) {
        total += env.bus().CallCount(static_cast<LibcFn>(row));
      }
    }
    return total;
  };
  EXPECT_GT(count_calls(MakeSuiteV20()), count_calls(MakeSuiteV08()) * 2);
}

TEST(DocStoreSuiteTest, CrashReachableOnlyInV20) {
  // Exhaustively inject malloc faults at low call numbers in both versions:
  // v2.0 crashes (replay index), v0.8 never does.
  auto count_crashes = [](TargetSuite suite) {
    TargetHarness harness(std::move(suite));
    FaultSpace space = harness.MakeSpace(10, false);
    size_t malloc_index = *space.axis(1).IndexOf("malloc");
    size_t crashes = 0;
    for (size_t t = 0; t < kNumTests; ++t) {
      for (size_t c = 0; c < 10; ++c) {
        TestOutcome outcome = harness.RunFault(space, Fault({t, malloc_index, c}));
        crashes += outcome.crashed ? 1 : 0;
      }
    }
    return crashes;
  };
  EXPECT_EQ(count_crashes(MakeSuiteV08()), 0u);
  EXPECT_GT(count_crashes(MakeSuiteV20()), 0u);
}

}  // namespace
}  // namespace afex
