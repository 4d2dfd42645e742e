#include <gtest/gtest.h>

#include "injection/fault_bus.h"
#include "sim/env.h"
#include "sim/process.h"
#include "sim/simlibc.h"
#include "targets/harness.h"
#include "targets/minidb/minidb.h"
#include "targets/minidb/suite.h"

namespace afex {
namespace {

using namespace minidb;



// ---- storage engine basics ----

TEST(MiniDbTest, BootstrapSucceedsOnCleanFixture) {
  SimEnv env;
  InstallFixture(env);
  MiniDb db(env);
  EXPECT_EQ(db.Bootstrap(), 0);
}

TEST(MiniDbTest, CreateInsertSelect) {
  SimEnv env;
  InstallFixture(env);
  MiniDb db(env);
  ASSERT_EQ(db.Bootstrap(), 0);
  ASSERT_EQ(db.CreateTable("t"), 0);
  EXPECT_TRUE(db.TableExists("t"));
  EXPECT_EQ(db.Insert("t", {1, "one"}), 0);
  EXPECT_EQ(db.Insert("t", {2, "two"}), 0);
  Row row;
  EXPECT_EQ(db.Select("t", 1, row), 0);
  EXPECT_EQ(row.value, "one");
  EXPECT_EQ(db.Select("t", 99, row), 1);  // not found
}

TEST(MiniDbTest, DuplicateKeyRejected) {
  SimEnv env;
  InstallFixture(env);
  MiniDb db(env);
  ASSERT_EQ(db.Bootstrap(), 0);
  ASSERT_EQ(db.CreateTable("t"), 0);
  EXPECT_EQ(db.Insert("t", {1, "a"}), 0);
  EXPECT_EQ(db.Insert("t", {1, "b"}), -1);
  Row row;
  EXPECT_EQ(db.Select("t", 1, row), 0);
  EXPECT_EQ(row.value, "a");  // original row intact
}

TEST(MiniDbTest, UpdateAndDelete) {
  SimEnv env;
  InstallFixture(env);
  MiniDb db(env);
  ASSERT_EQ(db.Bootstrap(), 0);
  ASSERT_EQ(db.CreateTable("t"), 0);
  ASSERT_EQ(db.Insert("t", {1, "a"}), 0);
  EXPECT_EQ(db.Update("t", {1, "b"}), 0);
  Row row;
  EXPECT_EQ(db.Select("t", 1, row), 0);
  EXPECT_EQ(row.value, "b");
  EXPECT_EQ(db.Delete("t", 1), 0);
  EXPECT_EQ(db.Select("t", 1, row), 1);
  EXPECT_EQ(db.Update("t", {1, "c"}), -1);  // row gone
}

TEST(MiniDbTest, WalRecordsAndCheckpoint) {
  SimEnv env;
  InstallFixture(env);
  MiniDb db(env);
  ASSERT_EQ(db.Bootstrap(), 0);
  ASSERT_EQ(db.CreateTable("t"), 0);
  db.Insert("t", {1, "a"});
  db.Insert("t", {2, "b"});
  EXPECT_EQ(db.wal_records(), 2u);
  EXPECT_EQ(db.Checkpoint(), 0);
  EXPECT_EQ(db.wal_records(), 0u);
  EXPECT_EQ(env.Find("/db/wal.log")->content, "");
}

TEST(MiniDbTest, RecoveryReplaysWal) {
  SimEnv env;
  InstallFixture(env);
  MiniDb db(env);
  ASSERT_EQ(db.Bootstrap(), 0);
  ASSERT_EQ(db.CreateTable("t"), 0);
  env.FindMutable("/db/wal.log")->content =
      "ins|t|5|recovered\nins|t|6|also\ndel|t|6\nins|t";  // torn tail
  EXPECT_EQ(db.Recover(), 0);
  Row row;
  EXPECT_EQ(db.Select("t", 5, row), 0);
  EXPECT_EQ(row.value, "recovered");
  EXPECT_EQ(db.Select("t", 6, row), 1);  // deleted during replay
}

TEST(MiniDbTest, FormatErrorResolvesCatalog) {
  SimEnv env;
  InstallFixture(env);
  MiniDb db(env);
  ASSERT_EQ(db.Bootstrap(), 0);
  EXPECT_NE(db.FormatError(3).find("duplicate key"), std::string::npos);
  EXPECT_NE(db.FormatError(99).find("unknown error"), std::string::npos);
}

// ---- Bug 1: double unlock (paper Fig. 6, MySQL #53268) ----

TEST(MiniDbBug1Test, CloseFailureDuringCreateAborts) {
  SimEnv env;
  InstallFixture(env);
  MiniDb db(env);
  ASSERT_EQ(db.Bootstrap(), 0);
  // The mi_create path's close is the first close after bootstrap's
  // errmsg close; count the calls to find its number.
  SimEnv probe;
  InstallFixture(probe);
  MiniDb probe_db(probe);
  probe_db.Bootstrap();
  size_t closes_before = probe.bus().CallCount(LibcFn::close);

  env.bus().Arm({.function = LibcFn::close,
                 .call_lo = static_cast<int>(closes_before + 1),
                 .call_hi = static_cast<int>(closes_before + 1),
                 .retval = -1,
                 .errno_value = sim_errno::kEIO});
  EXPECT_THROW(db.CreateTable("t"), SimAbort);
}

TEST(MiniDbBug1Test, EarlierFailuresRecoverCorrectly) {
  // A write failure inside mi_create hits the same recovery label while
  // the mutex is still held: handled correctly, no crash.
  SimEnv env;
  InstallFixture(env);
  MiniDb db(env);
  ASSERT_EQ(db.Bootstrap(), 0);
  env.bus().Arm({.function = LibcFn::write, .call_lo = 1, .call_hi = 1, .retval = -1,
                 .errno_value = sim_errno::kEIO});
  EXPECT_EQ(db.CreateTable("t"), -1);
  EXPECT_FALSE(db.TableExists("t"));           // cleanup removed the file
  EXPECT_FALSE(env.MutexLocked("THR_LOCK_myisam"));
}

// ---- Bug 2: errmsg.sys (MySQL #25097) ----

TEST(MiniDbBug2Test, FailedErrmsgReadCrashesInParse) {
  SimEnv env;
  InstallFixture(env);
  // With the default fixture, bootstrap reads the config in calls 1-2; the
  // errmsg read is call 3.
  env.bus().Arm({.function = LibcFn::read, .call_lo = 3, .call_hi = 3, .retval = -1,
                 .errno_value = sim_errno::kEIO});
  MiniDb db(env);
  EXPECT_THROW(db.Bootstrap(), SimCrash);
  // The recovery code DID log before the buggy parse step ran.
  EXPECT_NE(env.Find("/db/server.log")->content.find("cannot read errmsg.sys"),
            std::string::npos);
}

TEST(MiniDbBug2Test, ConfigReadFailureIsGraceful) {
  // Unlike the errmsg path, a failed config read degrades to defaults.
  SimEnv env;
  InstallFixture(env);
  env.bus().Arm({.function = LibcFn::read, .call_lo = 1, .call_hi = 1, .retval = -1,
                 .errno_value = sim_errno::kEIO});
  MiniDb db(env);
  EXPECT_EQ(db.Bootstrap(), 0);
  EXPECT_NE(env.Find("/db/server.log")->content.find("using defaults"), std::string::npos);
}

TEST(MiniDbBug2Test, FailedErrmsgOpenAlsoCrashes) {
  SimEnv env;
  InstallFixture(env);
  // Fail every open: the config open failure is handled, the errmsg open
  // failure leads into the buggy parse.
  env.bus().Arm({.function = LibcFn::open, .call_lo = 1, .call_hi = 20, .retval = -1,
                 .errno_value = sim_errno::kEACCES});
  MiniDb db(env);
  EXPECT_THROW(db.Bootstrap(), SimCrash);
}

TEST(MiniDbBug2Test, InjectionStackIdentifiesErrmsgPath) {
  SimEnv env;
  InstallFixture(env);
  env.bus().Arm({.function = LibcFn::read, .call_lo = 3, .call_hi = 3, .retval = -1,
                 .errno_value = sim_errno::kEIO});
  MiniDb db(env);
  RunOutcome out = RunProgram(env, [&db](SimEnv&) { return db.Bootstrap(); });
  EXPECT_TRUE(out.crashed);
  // The stack at the injection point names the errmsg initialization.
  const auto& stack = env.injection_stack();
  EXPECT_NE(std::find(stack.begin(), stack.end(), "init_errmessage"), stack.end());
}

// ---- suite & harness ----

TEST(MiniDbSuiteTest, SampleTestsPassWithoutInjection) {
  TargetSuite suite = MakeSuite();
  // Spot-check one test from each family (running all 1147 is the
  // integration suite's job).
  for (size_t id : {0u, 160u, 360u, 560u, 710u, 810u, 960u, 1100u}) {
    SimEnv env;
    RunOutcome out = RunProgram(env, [&](SimEnv& e) { return suite.run_test(e, id); });
    EXPECT_EQ(out.exit_code, 0) << "test " << id << " (" << TestFamily(id) << ")";
    EXPECT_FALSE(out.crashed) << "test " << id;
  }
}

TEST(MiniDbSuiteTest, SpaceMatchesPaperDimensions) {
  TargetHarness harness(MakeSuite());
  FaultSpace space = harness.MakeSpace(100, /*include_zero_call=*/false);
  EXPECT_EQ(space.TotalPoints(), 2179300u);  // 1147 x 19 x 100, as in the paper
}

TEST(MiniDbSuiteTest, FamilyBoundaries) {
  EXPECT_EQ(TestFamily(0), "create");
  EXPECT_EQ(TestFamily(149), "create");
  EXPECT_EQ(TestFamily(150), "insert");
  EXPECT_EQ(TestFamily(549), "select");
  EXPECT_EQ(TestFamily(699), "update");
  EXPECT_EQ(TestFamily(799), "delete");
  EXPECT_EQ(TestFamily(949), "wal");
  EXPECT_EQ(TestFamily(1046), "recovery");
  EXPECT_EQ(TestFamily(1146), "admin");
}

TEST(MiniDbSuiteTest, HarnessCatchesBug2Crash) {
  // The errmsg read's call number varies per test (config size differs);
  // scan the read column of one test and require exactly one SIGSEGV.
  TargetHarness harness(MakeSuite());
  FaultSpace space = harness.MakeSpace(100, false);
  size_t read_index = *space.axis(1).IndexOf("read");
  size_t crashes = 0;
  for (size_t call = 0; call < 10; ++call) {
    TestOutcome outcome = harness.RunFault(space, Fault({42, read_index, call}));
    if (outcome.crashed) {
      ++crashes;
      EXPECT_NE(outcome.detail.find("SIGSEGV"), std::string::npos);
    }
  }
  EXPECT_EQ(crashes, 1u);
}

TEST(MiniDbSuiteTest, MutexUnlockInjectionLeadsToDeadlockHang) {
  // An injected pthread_mutex_unlock failure leaves the engine mutex held;
  // the next lock self-deadlocks, which the watchdog reports as a hang —
  // a realistic failure mode distinct from Bug 1's abort.
  TargetHarness harness(MakeSuite());
  FaultSpace space = harness.MakeSpace(100, false);
  size_t unlock_index = *space.axis(1).IndexOf("pthread_mutex_unlock");
  size_t call1 = *space.axis(2).IndexOf("1");
  // Test id 2 creates three tables, so a second lock attempt follows.
  TestOutcome outcome = harness.RunFault(space, Fault({2, unlock_index, call1}));
  EXPECT_TRUE(outcome.hung);
  EXPECT_NE(outcome.detail.find("deadlock"), std::string::npos);
}

TEST(MiniDbSuiteTest, MutexLockInjectionIsGracefulInNewCode) {
  // drop/checkpoint check the lock result; a lock failure there fails the
  // operation without crashing. Admin-family test ids start at 1047.
  TargetHarness harness(MakeSuite());
  FaultSpace space = harness.MakeSpace(100, false);
  size_t lock_index = *space.axis(1).IndexOf("pthread_mutex_lock");
  size_t call2 = *space.axis(2).IndexOf("2");  // checkpoint's lock
  TestOutcome outcome = harness.RunFault(space, Fault({1050, lock_index, call2}));
  EXPECT_FALSE(outcome.crashed);
  EXPECT_TRUE(outcome.test_failed);  // the operation was refused
}

TEST(MiniDbSuiteTest, WalWriteFailureIsGraceful) {
  // A failed WAL append must fail the operation but not crash the engine.
  SimEnv env;
  InstallFixture(env);
  MiniDb db(env);
  ASSERT_EQ(db.Bootstrap(), 0);
  ASSERT_EQ(db.CreateTable("t"), 0);
  // Count writes used so far, then fail the next one (the WAL record).
  size_t writes = env.bus().CallCount(LibcFn::write);
  env.bus().Arm({.function = LibcFn::write,
                 .call_lo = static_cast<int>(writes + 1),
                 .call_hi = static_cast<int>(writes + 1),
                 .retval = -1,
                 .errno_value = sim_errno::kENOSPC});
  EXPECT_EQ(db.Insert("t", {1, "x"}), -1);
  Row row;
  EXPECT_EQ(db.Select("t", 1, row), 1);  // insert was refused, not half-done
}

}  // namespace
}  // namespace afex
