#include <gtest/gtest.h>

#include "injection/fault_bus.h"
#include "sim/env.h"
#include "sim/process.h"
#include "sim/simlibc.h"

namespace afex {
namespace {

// ---- filesystem ----

TEST(SimEnvTest, FileFixtures) {
  SimEnv env;
  env.AddFile("/a/b.txt", "hello");
  env.AddDir("/a");
  EXPECT_TRUE(env.Exists("/a/b.txt"));
  EXPECT_TRUE(env.IsDir("/a"));
  EXPECT_FALSE(env.IsDir("/a/b.txt"));
  EXPECT_EQ(env.Find("/a/b.txt")->content, "hello");
  env.Remove("/a/b.txt");
  EXPECT_FALSE(env.Exists("/a/b.txt"));
}

TEST(SimEnvTest, ListDirDirectChildrenOnly) {
  SimEnv env;
  env.AddDir("/d");
  env.AddFile("/d/one", "");
  env.AddFile("/d/two", "");
  env.AddDir("/d/sub");
  env.AddFile("/d/sub/nested", "");
  auto entries = env.ListDir("/d");
  EXPECT_EQ(entries, (std::vector<std::string>{"one", "sub", "two"}));
}

// ---- heap handles ----

TEST(SimEnvTest, HandleLifecycle) {
  SimEnv env;
  uint64_t h = env.AllocHandle(64);
  EXPECT_NE(h, 0u);
  EXPECT_TRUE(env.HandleValid(h));
  EXPECT_EQ(env.Deref(h, "test"), h);
  env.FreeHandle(h);
  EXPECT_FALSE(env.HandleValid(h));
}

TEST(SimEnvTest, NullDerefCrashes) {
  SimEnv env;
  EXPECT_THROW(env.Deref(0, "null test"), SimCrash);
}

TEST(SimEnvTest, DanglingDerefCrashes) {
  SimEnv env;
  uint64_t h = env.AllocHandle(8);
  env.FreeHandle(h);
  EXPECT_THROW(env.Deref(h, "dangling"), SimCrash);
}

TEST(SimEnvTest, HandlePayload) {
  SimEnv env;
  uint64_t h = env.AllocHandle(16);
  env.SetHandlePayload(h, "payload");
  EXPECT_EQ(env.HandlePayload(h), "payload");
}

// ---- mutexes ----

TEST(SimEnvTest, MutexLockUnlock) {
  SimEnv env;
  env.MutexLock("m");
  EXPECT_TRUE(env.MutexLocked("m"));
  env.MutexUnlock("m");
  EXPECT_FALSE(env.MutexLocked("m"));
}

TEST(SimEnvTest, DoubleUnlockAborts) {
  SimEnv env;
  env.MutexLock("m");
  env.MutexUnlock("m");
  EXPECT_THROW(env.MutexUnlock("m"), SimAbort);
}

TEST(SimEnvTest, UnlockNeverLockedAborts) {
  SimEnv env;
  EXPECT_THROW(env.MutexUnlock("never"), SimAbort);
}

TEST(SimEnvTest, RelockDeadlocksAsHang) {
  SimEnv env;
  env.MutexLock("m");
  EXPECT_THROW(env.MutexLock("m"), SimHang);
}

// ---- watchdog & stack ----

TEST(SimEnvTest, WatchdogFires) {
  SimEnv env(1, /*step_budget=*/10);
  for (int i = 0; i < 10; ++i) {
    env.Tick();
  }
  EXPECT_THROW(env.Tick(), SimHang);
}

TEST(SimEnvTest, StackFrameRaii) {
  SimEnv env;
  {
    StackFrame a(env, "outer");
    {
      StackFrame b(env, "inner");
      EXPECT_EQ(env.CaptureStack(), (std::vector<std::string>{"outer", "inner"}));
    }
    EXPECT_EQ(env.CaptureStack(), (std::vector<std::string>{"outer"}));
  }
  EXPECT_TRUE(env.CaptureStack().empty());
}

TEST(SimEnvTest, InjectionStackCapturedOnce) {
  SimEnv env;
  env.bus().Arm({.function = LibcFn::malloc, .call_lo = 1, .call_hi = 1, .retval = 0,
                 .errno_value = sim_errno::kENOMEM});
  {
    StackFrame a(env, "first_site");
    EXPECT_EQ(env.libc().Malloc(8), 0u);
  }
  {
    StackFrame b(env, "second_site");
    EXPECT_NE(env.libc().Malloc(8), 0u);  // only call 1 fails
  }
  // The failing libc function is appended as the innermost frame.
  EXPECT_EQ(env.injection_stack(), (std::vector<std::string>{"first_site", "malloc"}));
  EXPECT_TRUE(env.fault_triggered());
}

// ---- SimLibc happy paths ----

TEST(SimLibcTest, MallocFreeStrdup) {
  SimEnv env;
  SimLibc& libc = env.libc();
  uint64_t m = libc.Malloc(32);
  EXPECT_NE(m, 0u);
  libc.Free(m);
  uint64_t s = libc.Strdup("text");
  ASSERT_NE(s, 0u);
  EXPECT_EQ(env.HandlePayload(s), "text");
}

TEST(SimLibcTest, StreamRoundTrip) {
  SimEnv env;
  SimLibc& libc = env.libc();
  uint64_t w = libc.Fopen("/f.txt", "w");
  ASSERT_NE(w, 0u);
  EXPECT_EQ(libc.Fwrite(w, "line1\nline2\n"), 12u);
  EXPECT_EQ(libc.Fclose(w), 0);

  uint64_t r = libc.Fopen("/f.txt", "r");
  ASSERT_NE(r, 0u);
  std::string line;
  EXPECT_TRUE(libc.Fgets(r, line));
  EXPECT_EQ(line, "line1\n");
  EXPECT_TRUE(libc.Fgets(r, line));
  EXPECT_EQ(line, "line2\n");
  EXPECT_FALSE(libc.Fgets(r, line));  // EOF
  EXPECT_EQ(libc.Ferror(r), 0);
  EXPECT_EQ(libc.Fclose(r), 0);
}

TEST(SimLibcTest, FopenMissingFileSetsEnoent) {
  SimEnv env;
  EXPECT_EQ(env.libc().Fopen("/missing", "r"), 0u);
  EXPECT_EQ(env.sim_errno(), sim_errno::kENOENT);
}

TEST(SimLibcTest, FdReadWriteLseek) {
  SimEnv env;
  SimLibc& libc = env.libc();
  int fd = libc.Open("/data", kWrOnly | kCreate);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(libc.Write(fd, "0123456789"), 10);
  EXPECT_EQ(libc.Lseek(fd, 2, 0), 2);
  std::string out;
  EXPECT_EQ(libc.Read(fd, out, 4), 4);
  EXPECT_EQ(out, "2345");
  EXPECT_EQ(libc.Close(fd), 0);
}

TEST(SimLibcTest, AppendMode) {
  SimEnv env;
  SimLibc& libc = env.libc();
  env.AddFile("/log", "a");
  uint64_t s = libc.Fopen("/log", "a");
  libc.Fwrite(s, "b");
  libc.Fclose(s);
  EXPECT_EQ(env.Find("/log")->content, "ab");
}

TEST(SimLibcTest, StatRenameUnlink) {
  SimEnv env;
  SimLibc& libc = env.libc();
  env.AddFile("/x", "12345");
  StatBuf st;
  EXPECT_EQ(libc.Stat("/x", st), 0);
  EXPECT_EQ(st.size, 5u);
  EXPECT_FALSE(st.is_dir);
  EXPECT_EQ(libc.Rename("/x", "/y"), 0);
  EXPECT_FALSE(env.Exists("/x"));
  EXPECT_EQ(libc.Unlink("/y"), 0);
  EXPECT_FALSE(env.Exists("/y"));
  EXPECT_EQ(libc.Unlink("/y"), -1);
  EXPECT_EQ(env.sim_errno(), sim_errno::kENOENT);
}

TEST(SimLibcTest, DirectoryWalk) {
  SimEnv env;
  SimLibc& libc = env.libc();
  env.AddDir("/d");
  env.AddFile("/d/a", "");
  env.AddFile("/d/b", "");
  uint64_t dirp = libc.Opendir("/d");
  ASSERT_NE(dirp, 0u);
  std::string name;
  EXPECT_TRUE(libc.Readdir(dirp, name));
  EXPECT_EQ(name, "a");
  EXPECT_TRUE(libc.Readdir(dirp, name));
  EXPECT_EQ(name, "b");
  EXPECT_FALSE(libc.Readdir(dirp, name));
  EXPECT_EQ(env.sim_errno(), 0);  // end, not error
  EXPECT_EQ(libc.Closedir(dirp), 0);
}

TEST(SimLibcTest, ChdirGetcwd) {
  SimEnv env;
  SimLibc& libc = env.libc();
  env.AddDir("/home");
  EXPECT_EQ(libc.Chdir("/home"), 0);
  uint64_t cwd = libc.Getcwd();
  ASSERT_NE(cwd, 0u);
  EXPECT_EQ(env.HandlePayload(cwd), "/home");
  EXPECT_EQ(libc.Chdir("/missing"), -1);
}

TEST(SimLibcTest, SocketLifecycle) {
  SimEnv env;
  SimLibc& libc = env.libc();
  int s = libc.Socket();
  ASSERT_GE(s, 0);
  EXPECT_EQ(libc.Bind(s, "0.0.0.0:80"), 0);
  EXPECT_EQ(libc.Listen(s), 0);
  ASSERT_NE(env.FindSocket(s), nullptr);
  env.FindSocket(s)->inbox = "GET / HTTP/1.1";
  int conn = libc.Accept(s);
  ASSERT_GE(conn, 0);
  std::string req;
  EXPECT_EQ(libc.Recv(conn, req, 64), 14);
  EXPECT_EQ(req, "GET / HTTP/1.1");
  EXPECT_GE(libc.Send(conn, "HTTP/1.1 200 OK"), 0);
  EXPECT_EQ(libc.Close(conn), 0);
}

TEST(SimLibcTest, StrtolParsesAndFlags) {
  SimEnv env;
  bool ok = false;
  EXPECT_EQ(env.libc().Strtol("-42", ok), -42);
  EXPECT_TRUE(ok);
  EXPECT_EQ(env.libc().Strtol("abc", ok), 0);
  EXPECT_FALSE(ok);
  EXPECT_EQ(env.libc().Strtol("123xyz", ok), 123);
  EXPECT_TRUE(ok);
}

// ---- injection through SimLibc ----

TEST(SimLibcTest, InjectedMallocFails) {
  SimEnv env;
  env.bus().Arm({.function = LibcFn::malloc, .call_lo = 2, .call_hi = 2, .retval = 0,
                 .errno_value = sim_errno::kENOMEM});
  EXPECT_NE(env.libc().Malloc(8), 0u);  // call 1 succeeds
  EXPECT_EQ(env.libc().Malloc(8), 0u);  // call 2 fails
  EXPECT_EQ(env.sim_errno(), sim_errno::kENOMEM);
  EXPECT_NE(env.libc().Malloc(8), 0u);  // call 3 succeeds
}

TEST(SimLibcTest, StrdupFailsWhenInnerMallocInjected) {
  SimEnv env;
  // Arm malloc, not strdup: strdup allocates through malloc internally.
  env.bus().Arm({.function = LibcFn::malloc, .call_lo = 1, .call_hi = 1, .retval = 0,
                 .errno_value = sim_errno::kENOMEM});
  EXPECT_EQ(env.libc().Strdup("x"), 0u);
  EXPECT_EQ(env.sim_errno(), sim_errno::kENOMEM);
}

TEST(SimLibcTest, InjectedReadFailsOnce) {
  SimEnv env;
  env.AddFile("/f", "data");
  int fd = env.libc().Open("/f", kRdOnly);
  env.bus().Reset();  // forget the open() call count
  env.bus().Arm({.function = LibcFn::read, .call_lo = 1, .call_hi = 1, .retval = -1,
                 .errno_value = sim_errno::kEINTR});
  std::string out;
  EXPECT_EQ(env.libc().Read(fd, out, 4), -1);
  EXPECT_EQ(env.sim_errno(), sim_errno::kEINTR);
  EXPECT_EQ(env.libc().Read(fd, out, 4), 4);  // retry succeeds
  EXPECT_EQ(out, "data");
}

TEST(SimLibcTest, CallWindowInjectsWholeRange) {
  SimEnv env;
  env.bus().Arm({.function = LibcFn::malloc, .call_lo = 2, .call_hi = 4, .retval = 0,
                 .errno_value = sim_errno::kENOMEM});
  EXPECT_NE(env.libc().Malloc(1), 0u);
  EXPECT_EQ(env.libc().Malloc(1), 0u);
  EXPECT_EQ(env.libc().Malloc(1), 0u);
  EXPECT_EQ(env.libc().Malloc(1), 0u);
  EXPECT_NE(env.libc().Malloc(1), 0u);
}

TEST(SimLibcTest, FcloseInjectionInvalidatesStream) {
  SimEnv env;
  uint64_t s = env.libc().Fopen("/f", "w");
  env.bus().Arm({.function = LibcFn::fclose, .call_lo = 1, .call_hi = 1, .retval = -1,
                 .errno_value = sim_errno::kEIO});
  EXPECT_EQ(env.libc().Fclose(s), -1);
  EXPECT_FALSE(env.HasOpenFile(static_cast<int>(s)));
}

// ---- RunProgram ----

TEST(RunProgramTest, NormalExit) {
  SimEnv env;
  RunOutcome out = RunProgram(env, [](SimEnv&) { return 3; });
  EXPECT_EQ(out.exit_code, 3);
  EXPECT_FALSE(out.crashed);
  EXPECT_FALSE(out.hung);
}

TEST(RunProgramTest, CatchesCrash) {
  SimEnv env;
  RunOutcome out = RunProgram(env, [](SimEnv& e) {
    e.Deref(0, "boom");
    return 0;
  });
  EXPECT_TRUE(out.crashed);
  EXPECT_FALSE(out.aborted);
  EXPECT_EQ(out.exit_code, 139);
  EXPECT_NE(out.termination_detail.find("SIGSEGV"), std::string::npos);
}

TEST(RunProgramTest, CatchesAbort) {
  SimEnv env;
  RunOutcome out = RunProgram(env, [](SimEnv& e) {
    e.MutexUnlock("nope");
    return 0;
  });
  EXPECT_TRUE(out.crashed);
  EXPECT_TRUE(out.aborted);
  EXPECT_EQ(out.exit_code, 134);
}

TEST(RunProgramTest, CatchesHang) {
  SimEnv env(1, 5);
  RunOutcome out = RunProgram(env, [](SimEnv& e) {
    while (true) {
      e.Tick();
    }
    return 0;
  });
  EXPECT_TRUE(out.hung);
  EXPECT_EQ(out.exit_code, 124);
}

TEST(RunProgramTest, CatchesSimExit) {
  SimEnv env;
  RunOutcome out = RunProgram(env, [](SimEnv&) -> int { throw SimExit(7); });
  EXPECT_EQ(out.exit_code, 7);
  EXPECT_FALSE(out.crashed);
}

// ---- coverage ----

TEST(CoverageTest, MergeCountsNewBlocks) {
  CoverageAccumulator acc(100, 80);
  CoverageSet run1;
  run1.Hit(1);
  run1.Hit(2);
  EXPECT_EQ(acc.Merge(run1), 2u);
  CoverageSet run2;
  run2.Hit(2);
  run2.Hit(3);
  EXPECT_EQ(acc.Merge(run2), 1u);
  EXPECT_EQ(acc.covered(), 3u);
  EXPECT_DOUBLE_EQ(acc.Fraction(), 0.03);
}

TEST(CoverageTest, RecoveryFraction) {
  CoverageAccumulator acc(100, 80);
  CoverageSet run;
  run.Hit(10);   // normal
  run.Hit(85);   // recovery
  run.Hit(90);   // recovery
  acc.Merge(run);
  EXPECT_EQ(acc.recovery_total(), 20u);
  EXPECT_EQ(acc.recovery_covered(), 2u);
  EXPECT_DOUBLE_EQ(acc.RecoveryFraction(), 0.1);
}

TEST(CoverageTest, NoRecoveryMarking) {
  CoverageAccumulator acc(100, 0);
  EXPECT_EQ(acc.recovery_total(), 0u);
  EXPECT_DOUBLE_EQ(acc.RecoveryFraction(), 0.0);
}

}  // namespace
}  // namespace afex
