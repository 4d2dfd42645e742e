// Tests for the real-process execution backend (src/exec): fault-plan
// round trips, the fork/exec process runner (exit codes, crash-signal
// classification, event-driven reaping — on exit, not at pipe EOF or
// timeout, with or without a pidfd, per-thread under concurrency), the
// forkserver client, the KillLadder's SIGTERM → SIGKILL escalation and fd
// hygiene in every exec mode, the LD_PRELOAD interposer observed end to end
// through a real child (counts, injected errno, feedback block, the crash
// model's undo log on disk), the RealTargetHarness outcome translation, a
// campaign journal + resume leg over the real backend, and the answers the
// harness gives for provable no-ops instead of running them.
//
// The build injects the artifact locations:
//   AFEX_INTERPOSER_PATH — libafex_interpose.so
//   AFEX_WALUTIL_PATH    — the sample real target
//   AFEX_TXENGINE_PATH   — the WAL/transaction-engine crash-recovery target
//   AFEX_PERSISTENT_FIXTURE_PATH — a persistent-mode target that closes its
//                                  stdio, hangs past SIGTERM, calls libc
//                                  ahead of the hook, opens an O_TMPFILE
//                                  file, runs the storage scenarios the
//                                  undo log is checked on, or fails with
//                                  its pid (not deterministic)
#include <errno.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <linux/audit.h>
#include <linux/filter.h>
#include <linux/seccomp.h>
#include <signal.h>
#include <stddef.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/target_profile.h"
#include "campaign/store.h"
#include "core/fitness_explorer.h"
#include "exec/fault_plan.h"
#include "exec/feedback_block.h"
#include "exec/forkserver.h"
#include "exec/process_runner.h"
#include "exec/real_target_harness.h"
#include "obs/telemetry.h"

namespace afex {
namespace exec {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kMs = 1000 * 1000;  // ProcessResult::wait_ns per millisecond

// This process's scratch root: one mkdtemp directory under the gtest temp
// dir, so two exec_test processes at once (an ASan build's beside a Release
// one) never remove each other's sandboxes. Removed at exit by the process
// that made it, never by a forked child.
const fs::path& TempRoot() {
  static const struct Root {
    fs::path path;
    pid_t owner = ::getpid();
    Root() {
      std::string pattern = (fs::path(::testing::TempDir()) / "afex_exec_XXXXXX").string();
      if (::mkdtemp(pattern.data()) == nullptr) {
        throw std::runtime_error("mkdtemp failed under " + ::testing::TempDir());
      }
      path = pattern;
    }
    ~Root() {
      if (::getpid() == owner) {
        std::error_code ec;
        fs::remove_all(path, ec);
      }
    }
  } root;
  return root.path;
}

// An empty directory `name` under this process's root (emptied if a
// previous call handed it out).
std::string TempDir(const std::string& name) {
  fs::path dir = TempRoot() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// ---------------------------------------------------------------------------
// Plan serialization
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, EntriesRoundTrip) {
  std::vector<FaultSpec> specs = {
      {.function = "open", .call_lo = 3, .call_hi = 3, .retval = -1, .errno_value = 13},
      {.function = "malloc", .call_lo = 1, .call_hi = 7, .retval = 0, .errno_value = 12},
  };
  std::vector<FsPlanEntry> entries;
  ASSERT_TRUE(EncodePlanEntries(specs, entries));
  ASSERT_EQ(entries.size(), 2u);
  std::vector<FaultSpec> back;
  ASSERT_TRUE(DecodePlanEntries(entries, back));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].function, "open");
  EXPECT_EQ(back[0].call_lo, 3);
  EXPECT_EQ(back[0].errno_value, 13);
  EXPECT_EQ(back[1].function, "malloc");
  EXPECT_EQ(back[1].retval, 0);

  // Rejected: functions the interposer does not wrap (strtol is in the libc
  // profile, but arming it could never trigger) and plans wider than the
  // interposer's fixed table.
  EXPECT_FALSE(EncodePlanEntries({{.function = "strtol"}}, entries));
  std::vector<FaultSpec> wide(kFsMaxPlans + 1,
                              {.function = "open", .call_lo = 1, .call_hi = 1});
  EXPECT_FALSE(EncodePlanEntries(wide, entries));
}

TEST(FaultPlanTest, ModeFieldsRoundTrip) {
  std::vector<FaultSpec> specs = {
      {.function = "write", .call_lo = 2, .call_hi = 2, .retval = 40, .errno_value = 0,
       .kind = FaultKind::kShortWrite, .param = 40},
      {.function = "fsync", .call_lo = 1, .call_hi = 1, .kind = FaultKind::kDropSync},
      {.function = "close", .call_lo = 3, .call_hi = 3, .kind = FaultKind::kKillAt},
      {.function = "rename", .call_lo = 1, .call_hi = 1,
       .kind = FaultKind::kCrashAfterRename},
  };
  std::vector<FsPlanEntry> entries;
  ASSERT_TRUE(EncodePlanEntries(specs, entries));
  std::vector<FaultSpec> back;
  ASSERT_TRUE(DecodePlanEntries(entries, back));
  ASSERT_EQ(back.size(), 4u);
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].kind, specs[i].kind) << i;
    EXPECT_EQ(back[i].param, specs[i].param) << i;
    EXPECT_EQ(back[i].function, specs[i].function) << i;
  }
}

TEST(FaultPlanTest, RejectsHostileModeDirectives) {
  std::vector<FsPlanEntry> entries;
  // short_write with a negative K.
  EXPECT_FALSE(EncodePlanEntries(
      {{.function = "write", .kind = FaultKind::kShortWrite, .param = -1}}, entries));
  // Kind incompatible with the function.
  EXPECT_FALSE(EncodePlanEntries(
      {{.function = "read", .kind = FaultKind::kShortWrite, .param = 4}}, entries));
  EXPECT_FALSE(EncodePlanEntries(
      {{.function = "write", .kind = FaultKind::kDropSync}}, entries));
  EXPECT_FALSE(EncodePlanEntries(
      {{.function = "fsync", .kind = FaultKind::kCrashAfterRename}}, entries));

  // The decoder refuses a kind number outside FaultKind.
  ASSERT_TRUE(EncodePlanEntries({{.function = "write", .call_lo = 1, .call_hi = 1}}, entries));
  entries[0].kind = static_cast<int32_t>(FaultKind::kCrashAfterRename) + 1;
  std::vector<FaultSpec> back;
  EXPECT_FALSE(DecodePlanEntries(entries, back));
}

TEST(FeedbackBlockTest, CreateAndReadBackRejectsUnattached) {
  std::string path = TempDir("fb") + "/fb.bin";
  ASSERT_TRUE(CreateFeedbackFile(path.c_str()));
  FeedbackBlock block;
  // Zero-filled file: no magic — the interposer never attached.
  EXPECT_FALSE(ReadFeedbackBlock(path.c_str(), block));
}

// The whole block file, whatever its header says.
std::unique_ptr<FeedbackBlock> RawBlock(const std::string& path) {
  auto block = std::make_unique<FeedbackBlock>();
  std::ifstream in(path, std::ios::binary);
  in.read(reinterpret_cast<char*>(block.get()), sizeof(FeedbackBlock));
  EXPECT_EQ(in.gcount(), static_cast<std::streamsize>(sizeof(FeedbackBlock))) << path;
  return block;
}

TEST(FeedbackBlockTest, PlanLandsInTheBlockAndRewritesInPlace) {
  const std::string path = TempDir("fb_plan") + "/fb.bin";
  std::vector<FsPlanEntry> two;
  ASSERT_TRUE(EncodePlanEntries(
      {{.function = "open", .call_lo = 2, .call_hi = 2, .retval = -1, .errno_value = 13},
       {.function = "fsync", .call_lo = 1, .call_hi = 1, .kind = FaultKind::kDropSync}},
      two));
  ASSERT_TRUE(CreateFeedbackFile(path.c_str(), two));
  std::unique_ptr<FeedbackBlock> block = RawBlock(path);
  EXPECT_EQ(block->magic, 0u);
  ASSERT_EQ(block->plan_count, 2u);
  EXPECT_EQ(std::memcmp(block->plan, two.data(), 2 * sizeof(FsPlanEntry)), 0);

  // Persistent mode's write: the plan region only, into a live block whose
  // header and counters stay as they are; unused slots hold default entries.
  std::ofstream(path, std::ios::binary | std::ios::in | std::ios::out)
      .write(reinterpret_cast<const char*>(&kFeedbackMagic), sizeof(kFeedbackMagic));
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(WriteFeedbackPlan(fd, std::span(two).first(1)));
  EXPECT_FALSE(WriteFeedbackPlan(fd, std::vector<FsPlanEntry>(kFsMaxPlans + 1, two[0])));
  ::close(fd);
  EXPECT_EQ(fs::file_size(path), sizeof(FeedbackBlock));
  block = RawBlock(path);
  EXPECT_EQ(block->magic, kFeedbackMagic);
  ASSERT_EQ(block->plan_count, 1u);
  EXPECT_EQ(std::memcmp(&block->plan[0], &two[0], sizeof(FsPlanEntry)), 0);
  EXPECT_EQ(block->plan[1].slot, -1);
  EXPECT_FALSE(CreateFeedbackFile(path.c_str(),
                                  std::vector<FsPlanEntry>(kFsMaxPlans + 1, two[0])));
}

// ---------------------------------------------------------------------------
// Process runner
// ---------------------------------------------------------------------------

TEST(ProcessRunnerTest, CapturesExitCodeAndOutput) {
  ProcessRequest request;
  request.argv = {"/bin/sh", "-c", "echo hello-from-child; exit 7"};
  ProcessResult result = RunProcess(request);
  ASSERT_TRUE(result.started);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.exit_code, 7);
  EXPECT_FALSE(result.timed_out);
  EXPECT_NE(result.output.find("hello-from-child"), std::string::npos);
}

TEST(ProcessRunnerTest, ReapsOnExitNotAtPipeEofOrTimeout) {
  // The pipe reports EOF at once; the child lives on for 300 ms. It must be
  // reaped when it exits: not at EOF (no status yet), not at the timeout.
  // The wait clock starts only after fork() returns in the parent, by which
  // time a loaded host may already have run part of the child's sleep, so
  // the lifetime bound counts from spawn_start_ns (taken before the fork).
  ProcessRequest request;
  request.argv = {"/bin/sh", "-c", "exec 1>&- 2>&-; sleep 0.3; exit 0"};
  request.timeout_ms = 5000;
  ProcessResult result = RunProcess(request);
  ASSERT_TRUE(result.started);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_FALSE(result.timed_out);
  EXPECT_GE(result.spawn_ns + result.wait_ns, 300 * kMs);
  EXPECT_LT(result.wait_ns, 2500 * kMs);
  EXPECT_TRUE(result.output.empty()) << result.output;
}

TEST(ProcessRunnerTest, GrandchildHoldingThePipeDoesNotDelayTheReap) {
  // The backgrounded sleep inherits the pipe and keeps it open for 5 s; the
  // shell's exit alone ends the wait, with its output already captured.
  ProcessRequest request;
  request.argv = {"/bin/sh", "-c", "echo hi; sleep 5 & exit 3"};
  request.timeout_ms = 10000;
  ProcessResult result = RunProcess(request);
  ASSERT_TRUE(result.started);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.exit_code, 3);
  EXPECT_FALSE(result.timed_out);
  EXPECT_NE(result.output.find("hi"), std::string::npos) << result.output;
  EXPECT_LT(result.wait_ns, 2500 * kMs);
}

TEST(ProcessRunnerTest, ConcurrentRunsEachReapOnlyTheirOwnChild) {
  // The --jobs case: several threads in RunProcess at once. Children exit
  // in the reverse of their start order, so a runner that reaped or read
  // another thread's child would report the wrong code or output.
  constexpr int kThreads = 4;
  for (int round = 0; round < 3; ++round) {
    std::vector<ProcessResult> results(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([i, &results] {
        ProcessRequest request;
        const std::string delay = "0.0" + std::to_string(2 * (kThreads - i));
        request.argv = {"/bin/sh", "-c",
                        "sleep " + delay + "; echo tag-" + std::to_string(i) + "; exit " +
                            std::to_string(10 + i)};
        request.timeout_ms = 10000;
        results[i] = RunProcess(request);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    for (int i = 0; i < kThreads; ++i) {
      ASSERT_TRUE(results[i].started);
      EXPECT_TRUE(results[i].exited) << "thread " << i;
      EXPECT_EQ(results[i].exit_code, 10 + i) << "thread " << i;
      EXPECT_EQ(results[i].output, "tag-" + std::to_string(i) + "\n") << "thread " << i;
      EXPECT_FALSE(results[i].timed_out);
    }
  }
}

#if defined(__x86_64__) && defined(__NR_pidfd_open)
// Installs a seccomp filter that fails pidfd_open with ENOSYS, the way an
// old kernel or a container policy would. False when seccomp is refused.
bool DenyPidfdOpen() {
  struct sock_filter filter[] = {
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(struct seccomp_data, arch)),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, AUDIT_ARCH_X86_64, 1, 0),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(struct seccomp_data, nr)),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, __NR_pidfd_open, 0, 1),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ERRNO | (ENOSYS & SECCOMP_RET_DATA)),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
  };
  struct sock_fprog prog = {static_cast<unsigned short>(sizeof(filter) / sizeof(filter[0])),
                            filter};
  return ::prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) == 0 &&
         ::prctl(PR_SET_SECCOMP, SECCOMP_MODE_FILTER, &prog) == 0;
}

TEST(ProcessRunnerTest, WithoutPidfdStillReapsAndEscalates) {
  // The filter is process-wide and irreversible, so the checks run in a
  // forked child; its exit code names the first failed check.
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (!DenyPidfdOpen()) {
      ::_exit(99);
    }
    if (::syscall(__NR_pidfd_open, ::getpid(), 0) >= 0 || errno != ENOSYS) {
      ::_exit(1);
    }
    ProcessRequest quick;
    quick.argv = {"/bin/sh", "-c", "echo hi; exit 4"};
    ProcessResult r = RunProcess(quick);
    if (!r.exited || r.exit_code != 4 || r.output != "hi\n") {
      ::_exit(2);
    }
    ProcessRequest late;
    late.argv = {"/bin/sh", "-c", "exec 1>&- 2>&-; sleep 0.2; exit 0"};
    r = RunProcess(late);
    // Lifetime counted from before the fork (see ReapsOnExitNotAtPipeEofOrTimeout).
    if (!r.exited || r.exit_code != 0 || r.spawn_ns + r.wait_ns < 200 * kMs ||
        r.wait_ns > 2500 * kMs) {
      ::_exit(3);
    }
    ProcessRequest stuck;
    stuck.argv = {"/bin/sh", "-c", "trap '' TERM; sleep 30"};
    stuck.timeout_ms = 200;
    r = RunProcess(stuck);
    if (!r.timed_out || !r.kill_escalated || r.term_signal != SIGKILL ||
        r.wait_ns < (200 + KillLadder::kKillGraceMs) * kMs || r.wait_ns > 10000 * kMs) {
      ::_exit(4);
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  if (WEXITSTATUS(status) == 99) {
    GTEST_SKIP() << "seccomp unavailable";
  }
  EXPECT_EQ(WEXITSTATUS(status), 0) << "fallback check " << WEXITSTATUS(status) << " failed";
}
#endif

TEST(ProcessRunnerTest, ClassifiesAbortSignal) {
  ProcessRequest request;
  request.argv = {"/bin/sh", "-c", "kill -ABRT $$"};
  ProcessResult result = RunProcess(request);
  ASSERT_TRUE(result.started);
  EXPECT_FALSE(result.exited);
  EXPECT_EQ(result.term_signal, SIGABRT);
  EXPECT_TRUE(IsCrashSignal(result.term_signal));
  EXPECT_FALSE(result.timed_out);
}

TEST(ProcessRunnerTest, RunsInWorkingDirWithEnv) {
  std::string dir = TempDir("cwd");
  ProcessRequest request;
  request.argv = {"/bin/sh", "-c", "pwd; echo $AFEX_PROBE"};
  request.working_dir = dir;
  request.env = {{"AFEX_PROBE", "probe-value"}};
  ProcessResult result = RunProcess(request);
  ASSERT_TRUE(result.started);
  EXPECT_NE(result.output.find(fs::canonical(dir).string() + "\n"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("probe-value"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Interposer end to end
// ---------------------------------------------------------------------------

// The plan entries for `specs`; the calling test fails if they do not encode.
std::vector<FsPlanEntry> Entries(const std::vector<FaultSpec>& specs) {
  std::vector<FsPlanEntry> entries;
  EXPECT_TRUE(EncodePlanEntries(specs, entries));
  return entries;
}

// Runs `argv` under the interposer in `dir`/sandbox, the way spawn mode
// does, with `plan` in a fresh feedback block; returns the process result
// and fills `block`.
ProcessResult RunPreloaded(const std::string& dir, std::vector<std::string> argv,
                           const std::vector<FsPlanEntry>& plan, FeedbackBlock& block) {
  std::string feedback_path = dir + "/fb.bin";
  std::string sandbox = dir + "/sandbox";
  fs::create_directories(sandbox);
  EXPECT_TRUE(CreateFeedbackFile(feedback_path.c_str(), plan));

  ProcessRequest request;
  request.argv = std::move(argv);
  request.working_dir = sandbox;
  request.preload = AFEX_INTERPOSER_PATH;
  request.env = {{"AFEX_FEEDBACK", feedback_path}};
  request.timeout_ms = 10000;
  ProcessResult result = RunProcess(request);
  EXPECT_TRUE(ReadFeedbackBlock(feedback_path.c_str(), block));
  return result;
}

// Runs walutil scenario `test_id` under the interposer with `specs` armed.
ProcessResult RunWalutil(const std::string& dir, int test_id,
                         const std::vector<FaultSpec>& specs, FeedbackBlock& block) {
  return RunPreloaded(dir, {AFEX_WALUTIL_PATH, std::to_string(test_id)}, Entries(specs), block);
}

TEST(InterposerTest, CountsCallsWithoutInjection) {
  FeedbackBlock block;
  ProcessResult result = RunWalutil(TempDir("count"), /*copy*/ 1, {}, block);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(block.attached, 1u);
  EXPECT_EQ(block.plans_loaded, 0u);
  EXPECT_EQ(block.injected_total, 0u);
  // Scenario 1 (fd copy): fixture write + source open/read/write/close.
  int open_slot = InterposedSlot("open");
  int read_slot = InterposedSlot("read");
  int write_slot = InterposedSlot("write");
  ASSERT_GE(open_slot, 0);
  EXPECT_GE(block.calls[open_slot], 3u);  // fixture + source + dest
  EXPECT_GE(block.calls[read_slot], 1u);
  EXPECT_GE(block.calls[write_slot], 2u);
}

TEST(InterposerTest, InjectedErrnoObservedByChild) {
  // Fail the second open (the copy's source open; call 1 creates the
  // fixture) with EACCES and verify the child saw exactly that errno.
  FeedbackBlock block;
  ProcessResult result = RunWalutil(
      TempDir("inject"), /*copy*/ 1,
      {{.function = "open", .call_lo = 2, .call_hi = 2, .retval = -1, .errno_value = 13}},
      block);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("copy open source failed: errno=13"), std::string::npos)
      << result.output;
  EXPECT_EQ(block.plans_loaded, 1u);
  EXPECT_EQ(block.injected_total, 1u);
  int open_slot = InterposedSlot("open");
  EXPECT_EQ(block.injected[open_slot], 1u);
  EXPECT_EQ(block.first_injected_slot, static_cast<uint32_t>(open_slot));
  EXPECT_EQ(block.first_injected_call, 2u);
}

TEST(InterposerTest, ExecedImageRearmsThePlanFromTheBlock) {
  // The spawned tree shares one plan: the shell exec()s walutil, whose
  // constructor arms the block's plan again and fires the same open #2 fault.
  FeedbackBlock block;
  ProcessResult result = RunPreloaded(
      TempDir("inject_exec"),
      {"/bin/sh", "-c", std::string("exec ") + AFEX_WALUTIL_PATH + " 1"},
      Entries({{.function = "open", .call_lo = 2, .call_hi = 2, .retval = -1,
                .errno_value = 13}}),
      block);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("copy open source failed: errno=13"), std::string::npos)
      << result.output;
  EXPECT_EQ(block.plans_loaded, 1u);
  EXPECT_EQ(block.injected_total, 1u);
}

TEST(InterposerTest, HostilePlanValuesArmNothing) {
  // Each plan region is a damaged form of a plan that would fail walutil's
  // second open; an interposer that salvaged any entry would make the run
  // fail. The regions are written into the block byte for byte, past the
  // checks the parent's writer makes.
  const FsPlanEntry open2 = Entries({{.function = "open", .call_lo = 2, .call_hi = 2,
                                      .retval = -1, .errno_value = 13}})[0];
  FsPlanEntry bad_slot = open2;
  bad_slot.slot = static_cast<int32_t>(kInterposedFunctionCount);
  FsPlanEntry bad_kind = open2;
  bad_kind.kind = static_cast<int32_t>(FaultKind::kCrashAfterRename) + 1;
  FsPlanEntry wrong_kind = open2;
  wrong_kind.kind = static_cast<int32_t>(FaultKind::kDropSync);
  FsPlanEntry zero_lo = open2;
  zero_lo.call_lo = 0;
  FsPlanEntry negative_short = Entries({{.function = "write", .call_lo = 1, .call_hi = 1,
                                         .kind = FaultKind::kShortWrite, .param = 4}})[0];
  negative_short.param = -1;
  struct Region {
    const char* name;
    uint64_t count;
    FsPlanEntry entry;  // in every slot
  };
  const Region regions[] = {
      {"more than kFsMaxPlans entries", kFsMaxPlans + 1, open2},
      {"a count no table holds", UINT64_MAX, open2},
      {"slot out of range", 1, bad_slot},
      {"kind out of range", 1, bad_kind},
      {"kind that does not apply to the slot", 1, wrong_kind},
      {"call_lo == 0", 1, zero_lo},
      {"short_write with a negative param", 1, negative_short},
  };
  for (const Region& region : regions) {
    SCOPED_TRACE(region.name);
    const std::string dir = TempDir("hostile_plan");
    auto initial = std::make_unique<FeedbackBlock>();
    initial->plan_count = region.count;
    std::fill(std::begin(initial->plan), std::end(initial->plan), region.entry);
    fs::create_directories(dir + "/sandbox");
    std::ofstream(dir + "/fb.bin", std::ios::binary)
        .write(reinterpret_cast<const char*>(initial.get()), sizeof(FeedbackBlock));
    ProcessRequest request;
    request.argv = {AFEX_WALUTIL_PATH, "1"};
    request.working_dir = dir + "/sandbox";
    request.preload = AFEX_INTERPOSER_PATH;
    request.env = {{"AFEX_FEEDBACK", dir + "/fb.bin"}};
    request.timeout_ms = 10000;
    ProcessResult result = RunProcess(request);
    FeedbackBlock block;
    ASSERT_TRUE(ReadFeedbackBlock((dir + "/fb.bin").c_str(), block));
    EXPECT_TRUE(result.exited);
    EXPECT_EQ(result.exit_code, 0) << result.output;
    EXPECT_EQ(block.attached, 1u);
    EXPECT_EQ(block.plans_loaded, 0u);
    EXPECT_EQ(block.injected_total, 0u);
  }
}

TEST(InterposerTest, TmpfileOpenKeepsItsMode) {
  // glibc reads open's variadic mode for O_TMPFILE as it does for O_CREAT;
  // a wrapper that passed 0 instead would create the file with mode 000.
  FeedbackBlock block;
  ProcessResult result = RunPreloaded(TempDir("tmpfile"), {AFEX_PERSISTENT_FIXTURE_PATH, "5"},
                                      {}, block);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("tmpfile mode 600"), std::string::npos) << result.output;
  EXPECT_EQ(block.calls[InterposedSlot("open")], 1u);
}

TEST(InterposerTest, CatalogReadFaultCrashesChild) {
  // The walutil catalog scenario carries the MySQL #25097 pattern: the
  // failed read is detected and logged, then the never-initialized buffer
  // is parsed anyway — SIGSEGV.
  FeedbackBlock block;
  ProcessResult result = RunWalutil(
      TempDir("crash"), /*catalog*/ 4,
      {{.function = "read", .call_lo = 1, .call_hi = 1, .retval = -1, .errno_value = 5}},
      block);
  EXPECT_FALSE(result.exited);
  EXPECT_EQ(result.term_signal, SIGSEGV);
  EXPECT_TRUE(IsCrashSignal(result.term_signal));
  EXPECT_NE(result.output.find("cannot read errmsg.sys (errno=5)"), std::string::npos)
      << result.output;
  EXPECT_EQ(block.injected_total, 1u);
}

// ---------------------------------------------------------------------------
// Storage-failure fault classes, each in isolation through a real child
// ---------------------------------------------------------------------------

// Runs `afex_txengine workload 1` under the interposer with `specs` armed;
// fills `block` and returns the sandbox path via `sandbox_out` so tests can
// inspect the crash state the run left on disk.
ProcessResult RunTxengine(const std::string& dir, const std::vector<FaultSpec>& specs,
                          FeedbackBlock& block, std::string& sandbox_out) {
  sandbox_out = dir + "/sandbox";
  return RunPreloaded(dir, {AFEX_TXENGINE_PATH, "workload", "1"}, Entries(specs), block);
}

std::string SlurpFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(StorageFaultTest, ShortWriteObservedByChild) {
  // walutil's fixture write checks its return value: a short_write torn to
  // 4 bytes must surface there, with errno untouched.
  FeedbackBlock block;
  ProcessResult result = RunWalutil(
      TempDir("short_write"), /*copy*/ 1,
      {{.function = "write", .call_lo = 1, .call_hi = 1, .retval = 0, .errno_value = 0,
        .kind = FaultKind::kShortWrite, .param = 4}},
      block);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("fixture write failed: errno=0"), std::string::npos)
      << result.output;
  int write_slot = InterposedSlot("write");
  ASSERT_GE(write_slot, 0);
  EXPECT_EQ(block.injected_total, 1u);
  EXPECT_EQ(block.injected[write_slot], 1u);
  EXPECT_EQ(block.first_injected_call, 1u);
}

TEST(StorageFaultTest, ShortWriteBeyondCountInjectsNothing) {
  // K >= the write's byte count cannot tear anything: the call runs in
  // full and no injection is recorded — the campaign sees a baseline run.
  FeedbackBlock block;
  ProcessResult result = RunWalutil(
      TempDir("short_write_big"), /*copy*/ 1,
      {{.function = "write", .call_lo = 1, .call_hi = 1, .retval = 0, .errno_value = 0,
        .kind = FaultKind::kShortWrite, .param = 1 << 20}},
      block);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(block.plans_loaded, 1u);
  EXPECT_EQ(block.injected_total, 0u);
}

TEST(StorageFaultTest, KillAtFiresAtTheExactOrdinal) {
  FeedbackBlock block;
  std::string sandbox;
  ProcessResult result = RunTxengine(
      TempDir("kill_at"),
      {{.function = "write", .call_lo = 5, .call_hi = 5, .kind = FaultKind::kKillAt}},
      block, sandbox);
  ASSERT_TRUE(result.started);
  EXPECT_FALSE(result.exited);
  EXPECT_EQ(result.term_signal, SIGKILL);
  int write_slot = InterposedSlot("write");
  ASSERT_GE(write_slot, 0);
  // The matched call is counted, recorded, and never returns.
  EXPECT_EQ(block.calls[write_slot], 5u);
  EXPECT_EQ(block.injected_total, 1u);
  EXPECT_EQ(block.first_injected_slot, static_cast<uint32_t>(write_slot));
  EXPECT_EQ(block.first_injected_call, 5u);
}

TEST(StorageFaultTest, DropSyncLeavesLogStaleAfterKill) {
  // The lying-drive scenario end to end: txengine's first commit fsync
  // reports success but the log records are undone; a later power cut
  // (kill_at) undoes the next ones too. The oracle line — stdio, flushed
  // through libc-internal writes the undo log never sees — survives, which
  // is exactly the contradiction the verifier later flags.
  FeedbackBlock block;
  std::string sandbox;
  ProcessResult result = RunTxengine(
      TempDir("drop_sync"),
      {{.function = "fsync", .call_lo = 1, .call_hi = 1, .kind = FaultKind::kDropSync},
       {.function = "write", .call_lo = 14, .call_hi = 14, .kind = FaultKind::kKillAt}},
      block, sandbox);
  ASSERT_TRUE(result.started);
  EXPECT_EQ(result.term_signal, SIGKILL);
  EXPECT_EQ(block.injected_total, 2u);
  // wal.log exists but holds nothing: txn 17's records were undone by the
  // dropped sync, txn 18's by the power cut.
  fs::path wal = fs::path(sandbox) / "wal.log";
  ASSERT_TRUE(fs::exists(wal));
  EXPECT_EQ(fs::file_size(wal), 0u);
  // The engine acknowledged txn 17 before the cut.
  EXPECT_NE(SlurpFile(fs::path(sandbox) / "oracle.txt").find("commit 17"),
            std::string::npos);
}

TEST(StorageFaultTest, CrashAfterRenamePerformsTheRenameFirst) {
  // txengine's first checkpoint renames meta.tmp over meta.chk; the fault
  // kills the process immediately after the rename lands, so the new
  // checkpoint must be on disk (its close retired the writes from the undo
  // log).
  FeedbackBlock block;
  std::string sandbox;
  ProcessResult result = RunTxengine(
      TempDir("crash_rename"),
      {{.function = "rename", .call_lo = 1, .call_hi = 1,
        .kind = FaultKind::kCrashAfterRename}},
      block, sandbox);
  ASSERT_TRUE(result.started);
  EXPECT_EQ(result.term_signal, SIGKILL);
  EXPECT_EQ(block.injected_total, 1u);
  // txns 17..20 wrote 12 WAL records before the checkpoint fired.
  EXPECT_EQ(SlurpFile(fs::path(sandbox) / "meta.chk"), "ckpt 12\n");
  EXPECT_FALSE(fs::exists(fs::path(sandbox) / "meta.tmp"));
}

TEST(StorageFaultTest, FsyncErrnoFaultGoesUnnoticedByTheEngine) {
  // fsync is now on the interposable axis; txengine ignores its result
  // (the fsyncgate pattern), so the classic errno fault injects cleanly
  // and the run still "succeeds".
  FeedbackBlock block;
  std::string sandbox;
  ProcessResult result = RunTxengine(
      TempDir("fsync_errno"),
      {{.function = "fsync", .call_lo = 1, .call_hi = 1, .retval = -1,
        .errno_value = 5}},
      block, sandbox);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(block.injected_total, 1u);
  int fsync_slot = InterposedSlot("fsync");
  ASSERT_GE(fsync_slot, 0);
  EXPECT_EQ(block.injected[fsync_slot], 1u);
}

// ---------------------------------------------------------------------------
// RealTargetHarness
// ---------------------------------------------------------------------------

uint64_t CounterValue(const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& [counter, value] : snapshot.counters) {
    if (counter == name) {
      return value;
    }
  }
  return 0;
}

RealTargetConfig WalutilConfig(const std::string& work_root) {
  RealTargetConfig config;
  config.target_argv = {AFEX_WALUTIL_PATH, "{test}"};
  config.num_tests = 6;
  config.interposer_path = AFEX_INTERPOSER_PATH;
  config.work_root = work_root;
  config.timeout_ms = 10000;
  return config;
}

// Fault <test, function, call> built against `space` by label values.
Fault MakeFault(const FaultSpace& space, size_t test_1based, const std::string& function,
                size_t call_1based) {
  size_t function_index = 0;
  const Axis& axis = space.axis(1);
  for (size_t i = 0; i < axis.cardinality(); ++i) {
    if (axis.Label(i) == function) {
      function_index = i;
      break;
    }
  }
  return Fault(std::vector<size_t>{test_1based - 1, function_index, call_1based - 1});
}

TEST(RealTargetHarnessTest, TranslatesOutcomeAndCoverage) {
  RealTargetHarness harness(WalutilConfig(TempDir("harness")));
  FaultSpace space = harness.MakeSpace(/*max_call=*/8);

  // Clean run: no injection possible at call ordinals the run never
  // reaches — use the stdio copy scenario at an unreachable write ordinal.
  TestOutcome clean = harness.RunFault(space, MakeFault(space, 6, "send", 8));
  EXPECT_FALSE(clean.test_failed);
  EXPECT_FALSE(clean.fault_triggered);
  EXPECT_GT(clean.new_blocks_covered, 0u);  // first run: every touched fn is new

  // Injected run: second open fails in the fd-copy scenario.
  TestOutcome injected = harness.RunFault(space, MakeFault(space, 1, "open", 2));
  EXPECT_TRUE(injected.test_failed);
  EXPECT_TRUE(injected.fault_triggered);
  EXPECT_FALSE(injected.crashed);
  EXPECT_EQ(injected.exit_code, 1);
  ASSERT_EQ(injected.injection_stack.size(), 4u);
  EXPECT_EQ(injected.injection_stack[2], "open");
  EXPECT_EQ(injected.injection_stack[3], "call2");

  // Crash run: catalog read fault → SIGSEGV, classified as a crash.
  TestOutcome crashed = harness.RunFault(space, MakeFault(space, 4, "read", 1));
  EXPECT_TRUE(crashed.crashed);
  EXPECT_TRUE(crashed.test_failed);
  EXPECT_TRUE(crashed.fault_triggered);
  EXPECT_EQ(harness.tests_run(), 3u);
}

// ---------------------------------------------------------------------------
// Forkserver client
// ---------------------------------------------------------------------------

// Options for a walutil forkserver rooted at `dir` (sandbox + feedback file
// are created here; the client maps the feedback file server-side).
ForkserverOptions WalutilFsOptions(const std::string& dir) {
  fs::create_directories(dir + "/sandbox");
  EXPECT_TRUE(CreateFeedbackFile((dir + "/fb.bin").c_str()));
  ForkserverOptions opts;
  opts.argv = {AFEX_WALUTIL_PATH, "{test}"};
  opts.working_dir = dir + "/sandbox";
  opts.preload = AFEX_INTERPOSER_PATH;
  opts.env = {{"AFEX_FEEDBACK", dir + "/fb.bin"}};
  opts.timeout_ms = 10000;
  return opts;
}

// Writes `specs` into the plan region of the block at `dir`/fb.bin, as the
// harness does before each server-mode test: the plan stays armed for every
// later test until the next write.
void WritePlan(const std::string& dir, const std::vector<FaultSpec>& specs) {
  const int fd = ::open((dir + "/fb.bin").c_str(), O_WRONLY | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(WriteFeedbackPlan(fd, Entries(specs)));
  ::close(fd);
}

TEST(ForkserverClientTest, RunsTestsAndClassifiesOutcomesInOneServer) {
  std::string dir = TempDir("fs_basic");
  ForkserverClient client(WalutilFsOptions(dir));

  ProcessResult clean = client.RunTest(1, 1);
  ASSERT_TRUE(clean.started) << clean.error;
  EXPECT_TRUE(clean.exited);
  EXPECT_EQ(clean.exit_code, 0);
  EXPECT_NE(clean.output.find("copied source.tbl"), std::string::npos) << clean.output;
  const pid_t child = client.child_pid();
  ASSERT_GT(child, 0);

  // A crashing iteration takes only its child down; the same server forks
  // the next test's child.
  WritePlan(dir, {{.function = "read", .call_lo = 1, .call_hi = 1, .retval = -1,
                   .errno_value = 5}});
  ProcessResult crashed = client.RunTest(4, 2);
  ASSERT_TRUE(crashed.started) << crashed.error;
  EXPECT_FALSE(crashed.exited);
  EXPECT_EQ(crashed.term_signal, SIGSEGV);

  WritePlan(dir, {});
  ProcessResult after = client.RunTest(1, 3);
  ASSERT_TRUE(after.started) << after.error;
  EXPECT_EQ(after.exit_code, 0);
  EXPECT_GT(client.child_pid(), 0);
  EXPECT_NE(client.child_pid(), child);

  WritePlan(dir, {{.function = "open", .call_lo = 2, .call_hi = 2, .retval = -1,
                   .errno_value = 13}});
  ProcessResult injected = client.RunTest(1, 4);
  ASSERT_TRUE(injected.started) << injected.error;
  EXPECT_EQ(injected.exit_code, 1);
  EXPECT_NE(injected.output.find("copy open source failed: errno=13"), std::string::npos)
      << injected.output;

  // One server incarnation carried all four tests, crash included.
  EXPECT_EQ(client.restarts(), 0u);
  EXPECT_EQ(client.generations(), 1u);
}

TEST(ForkserverClientTest, FeedbackBlockRearmedBetweenChildren) {
  // The re-arm satellite: the server zeroes and version-stamps the shared
  // feedback block BEFORE each fork, so a crashed child's counts can never
  // leak into the next test's attribution.
  std::string dir = TempDir("fs_rearm");
  ForkserverClient client(WalutilFsOptions(dir));
  std::string fb = dir + "/fb.bin";

  WritePlan(dir, {{.function = "read", .call_lo = 1, .call_hi = 1, .retval = -1,
                   .errno_value = 5}});
  ProcessResult crashed = client.RunTest(4, 1);
  ASSERT_TRUE(crashed.started) << crashed.error;
  EXPECT_EQ(crashed.term_signal, SIGSEGV);
  FeedbackBlock block;
  ASSERT_TRUE(ReadFeedbackBlock(fb.c_str(), block));
  EXPECT_EQ(block.test_seq, 1u);
  EXPECT_EQ(block.injected_total, 1u);

  WritePlan(dir, {});
  ProcessResult clean = client.RunTest(1, 2);
  ASSERT_TRUE(clean.started) << clean.error;
  EXPECT_EQ(clean.exit_code, 0);
  ASSERT_TRUE(ReadFeedbackBlock(fb.c_str(), block));
  EXPECT_EQ(block.test_seq, 2u);
  EXPECT_EQ(block.injected_total, 0u) << "stale injection counts survived the re-arm";
  EXPECT_EQ(block.attached, 1u);
}

TEST(ForkserverClientTest, HandshakeFailsOnDeadServerAndWrongMagic) {
  // A server that exits without ever speaking the protocol (no preload, so
  // the interposer loop never runs).
  ForkserverOptions dead = WalutilFsOptions(TempDir("fs_dead"));
  dead.argv = {"/bin/true"};
  dead.preload.clear();
  ForkserverClient dead_client(dead);
  std::string error;
  EXPECT_FALSE(dead_client.EnsureServer(error));
  EXPECT_FALSE(error.empty());

  // A server that writes 16 bytes of garbage where the Hello should be.
  ForkserverOptions noise = WalutilFsOptions(TempDir("fs_noise"));
  noise.argv = {"/bin/sh", "-c", "printf 'ABCDEFGHIJKLMNOP' >&199; sleep 1"};
  noise.preload.clear();
  ForkserverClient noise_client(noise);
  error.clear();
  EXPECT_FALSE(noise_client.EnsureServer(error));
  EXPECT_FALSE(error.empty());
}

TEST(ForkserverClientTest, TimeoutKillsChildAndClassifies) {
  // The server is parked in waitpid while the child runs, so timeout kills
  // are delivered by the *client* to the child pid from kChildPid.
  ForkserverOptions opts = WalutilFsOptions(TempDir("fs_timeout"));
  opts.argv = {"/bin/sh", "-c", "sleep 30"};
  opts.timeout_ms = 300;
  ForkserverClient client(opts);
  pid_t pid = -1;
  ProcessResult result = client.RunTest(1, 1);
  ASSERT_TRUE(result.started) << result.error;
  EXPECT_TRUE(result.timed_out);
  EXPECT_FALSE(result.exited);
  EXPECT_EQ(result.term_signal, SIGTERM);
  pid = client.server_pid();

  // The server survived its child's killing and serves the next test.
  ProcessResult after = client.RunTest(1, 2);
  ASSERT_TRUE(after.started) << after.error;
  EXPECT_TRUE(after.timed_out);
  EXPECT_EQ(client.restarts(), 0u);
  EXPECT_EQ(client.server_pid(), pid);
}

TEST(ForkserverClientTest, TornRequestOrServerDeathRestartsAtOnce) {
  // Two ways to lose the server mid-campaign, a SIGKILL and request bytes
  // with a bad magic, each with and without a live child. Without one (the
  // fixture's pre-hook open keeps it from adopting the hook) the server dies
  // alone, or reads the bytes and exits by contract. Walutil's live child
  // holds the status pipe's write end but dies with its server, so that
  // death still reads as EOF; the bytes it reads itself, and answers the
  // next test with a stale seq. Each time the next test runs on a new
  // server at once instead of waiting out a timeout.
  for (bool kill_server : {true, false}) {
    for (bool live_child : {false, true}) {
      const std::string label =
          std::string(kill_server ? "fs_killed" : "fs_torn") + (live_child ? "_live" : "");
      SCOPED_TRACE(label);
      ForkserverOptions opts = WalutilFsOptions(TempDir(label));
      if (!live_child) {
        opts.argv = {AFEX_PERSISTENT_FIXTURE_PATH, "{test}", "open-first"};
      }
      ForkserverClient client(opts);
      ProcessResult first = client.RunTest(1, 1);
      ASSERT_TRUE(first.started) << first.error;
      ASSERT_EQ(client.child_pid() > 0, live_child);
      const pid_t old_pid = client.server_pid();
      ASSERT_GT(old_pid, 0);
      if (kill_server) {
        ASSERT_EQ(::kill(old_pid, SIGKILL), 0);
        // Wait for the death without reaping it: a child's death signal is
        // sent as the server exits, so no iteration can answer after this.
        siginfo_t info{};
        ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(old_pid), &info, WEXITED | WNOWAIT), 0);
      } else {
        ASSERT_EQ(::write(client.ctl_fd(), "garbage", 7), 7);
      }

      const uint64_t start = obs::NowNs();
      ProcessResult second = client.RunTest(1, 2);
      const uint64_t elapsed_ns = obs::NowNs() - start;
      ASSERT_TRUE(second.started) << second.error;
      EXPECT_EQ(second.exit_code, 0);
      EXPECT_FALSE(second.timed_out);
      EXPECT_LT(elapsed_ns, 5000 * kMs);
      EXPECT_EQ(client.restarts(), 1u);
      EXPECT_NE(client.server_pid(), old_pid);
      if (!live_child) {
        EXPECT_EQ(second.output, "fixture alive\n");
      }
    }
  }
}

TEST(ForkserverClientTest, TestIdsWiderThanThePlaceholderAreSubstituted) {
  // "{test}" is six bytes; a seven-digit id must still reach the program.
  ForkserverOptions opts = WalutilFsOptions(TempDir("fs_wide"));
  opts.argv = {"/bin/sh", "-c", "echo \"$0\"", "{test}"};
  ForkserverClient client(opts);
  ProcessResult result = client.RunTest(1000000, 1);
  ASSERT_TRUE(result.started) << result.error;
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, "1000000\n");
}

TEST(ForkserverClientTest, PersistentRunsManyIterationsInOneChild) {
  std::string dir = TempDir("fs_persist");
  ForkserverClient client(WalutilFsOptions(dir));
  uint32_t seq = 0;
  ProcessResult first = client.RunTest(1, ++seq);
  ASSERT_TRUE(first.started) << first.error;
  EXPECT_EQ(first.exit_code, 0);
  EXPECT_NE(first.output.find("copied source.tbl"), std::string::npos) << first.output;
  const pid_t child = client.child_pid();
  ASSERT_GT(child, 0);

  for (int i = 0; i < 20; ++i) {
    ProcessResult r = client.RunTest(static_cast<uint32_t>(1 + (i % 2)), ++seq);
    ASSERT_TRUE(r.started) << r.error;
    EXPECT_EQ(r.exit_code, 0);
  }
  // All iterations ran inside the first child.
  EXPECT_EQ(client.child_pid(), child);
  EXPECT_EQ(client.restarts(), 0u);

  // Injection still works in-process. walutil's Fail() calls exit(), which
  // ends the child with that status; the next test forks a new one.
  WritePlan(dir, {{.function = "open", .call_lo = 2, .call_hi = 2, .retval = -1,
                   .errno_value = 13}});
  ProcessResult injected = client.RunTest(1, ++seq);
  ASSERT_TRUE(injected.started) << injected.error;
  EXPECT_EQ(injected.exit_code, 1);
  EXPECT_NE(injected.output.find("copy open source failed: errno=13"), std::string::npos)
      << injected.output;
  EXPECT_EQ(client.child_pid(), -1);

  WritePlan(dir, {});
  ProcessResult after = client.RunTest(1, ++seq);
  ASSERT_TRUE(after.started) << after.error;
  EXPECT_EQ(after.exit_code, 0);
  EXPECT_GT(client.child_pid(), 0);
  EXPECT_NE(client.child_pid(), child);
  EXPECT_EQ(client.restarts(), 0u);
}

double CpuSeconds() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

TEST(ForkserverClientTest, PersistentIterationClosingStdioDoesNotSpinTheClient) {
  // Once the target closes fds 1 and 2 the output pipe sits at EOF. Left in
  // the poll set, it would wake WaitMsg on every poll for the whole 200 ms
  // the iteration sleeps, burning the client's CPU.
  ForkserverOptions opts = WalutilFsOptions(TempDir("fs_closed_stdio"));
  opts.argv = {AFEX_PERSISTENT_FIXTURE_PATH, "{test}"};
  ForkserverClient client(opts);
  ProcessResult warm = client.RunTest(1, 1);
  ASSERT_TRUE(warm.started) << warm.error;
  EXPECT_EQ(warm.output, "fixture alive\n");
  ASSERT_GT(client.child_pid(), 0);

  const double cpu_before = CpuSeconds();
  const auto wall_before = std::chrono::steady_clock::now();
  ProcessResult closed = client.RunTest(2, 2);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_before).count();
  const double cpu = CpuSeconds() - cpu_before;
  ASSERT_TRUE(closed.started) << closed.error;
  EXPECT_EQ(closed.exit_code, 0);
  EXPECT_GE(wall, 0.2);
  EXPECT_LT(cpu, 0.05) << "client burned " << cpu << " s of CPU over a " << wall
                       << " s iteration";

  // The same incarnation keeps serving; its output simply has nowhere to go.
  ProcessResult after = client.RunTest(1, 3);
  ASSERT_TRUE(after.started) << after.error;
  EXPECT_EQ(after.exit_code, 0);
  EXPECT_EQ(client.restarts(), 0u);
}

TEST(ForkserverClientTest, PersistentNonAdopterRunsAsForkserverChildren) {
  // /bin/sh never calls afex_persistent_run: each test's child runs main to
  // completion and exits, one child per test, on one server. The child
  // holds the protocol fds close-on-exec, so the ls it execs sees neither.
  ForkserverOptions opts = WalutilFsOptions(TempDir("fs_non_adopter"));
  opts.argv = {"/bin/sh", "-c", "echo no-adoption; ls /proc/self/fd"};
  ForkserverClient client(opts);
  ProcessResult result = client.RunTest(1, 1);
  ASSERT_TRUE(result.started) << result.error;
  EXPECT_EQ(result.exit_code, 0);
  // Stdio plus the directory ls reads.
  EXPECT_EQ(result.output, "no-adoption\n0\n1\n2\n3\n");
  EXPECT_EQ(client.child_pid(), -1);
  const pid_t server = client.server_pid();

  ProcessResult next = client.RunTest(1, 2);
  ASSERT_TRUE(next.started) << next.error;
  EXPECT_EQ(next.exit_code, 0);
  EXPECT_EQ(client.child_pid(), -1);
  EXPECT_EQ(client.server_pid(), server);
  EXPECT_EQ(client.restarts(), 0u);
}

// ---------------------------------------------------------------------------
// The crash model's undo log: writes reach the kernel at once, and a crash
// plan rolls back only what was never synced. Checked byte for byte on disk
// through the persistent fixture's storage scenarios (6-11).
// ---------------------------------------------------------------------------

// Both exec modes, spawn (the reference) first.
constexpr ExecMode kAllModes[] = {ExecMode::kSpawn, ExecMode::kPersistent};

std::string ModeLabel(ExecMode mode) {
  return mode == ExecMode::kSpawn ? "spawn mode" : "persistent mode";
}

// One fixture run; in persistent mode `client` keeps the server (and a live
// child) alive while the caller inspects `sandbox`.
struct FixtureRun {
  ProcessResult result;
  fs::path sandbox;
  std::unique_ptr<ForkserverClient> client;
};

FixtureRun RunFixture(ExecMode mode, const std::string& dir, int scenario,
                      const std::vector<FaultSpec>& specs) {
  FixtureRun run;
  run.sandbox = fs::path(dir) / "sandbox";
  if (mode == ExecMode::kSpawn) {
    FeedbackBlock block;
    run.result = RunPreloaded(dir, {AFEX_PERSISTENT_FIXTURE_PATH, std::to_string(scenario)},
                              Entries(specs), block);
    return run;
  }
  ForkserverOptions opts = WalutilFsOptions(dir);
  opts.argv = {AFEX_PERSISTENT_FIXTURE_PATH, "{test}"};
  run.client = std::make_unique<ForkserverClient>(opts);
  WritePlan(dir, specs);
  run.result = run.client->RunTest(static_cast<uint32_t>(scenario), 1);
  return run;
}

// A kill_at on a write ordinal the scenario never reaches: it arms the
// undo log for the whole run and never fires.
const std::vector<FaultSpec> kNeverFiringKill = {
    {.function = "write", .call_lo = 2, .call_hi = 2, .kind = FaultKind::kKillAt}};

TEST(UndoLogTest, ReadsSeeUnsyncedWritesInEveryExecMode) {
  for (ExecMode mode : kAllModes) {
    SCOPED_TRACE(ModeLabel(mode));
    FixtureRun run = RunFixture(
        mode, TempDir("read_back_" + std::to_string(static_cast<int>(mode))), 6,
        kNeverFiringKill);
    ASSERT_TRUE(run.result.started) << run.result.error;
    EXPECT_TRUE(run.result.exited);
    EXPECT_EQ(run.result.exit_code, 0) << "8 = stale read: " << run.result.output;
  }
}

TEST(UndoLogTest, PersistentIterationWritesLandInEveryExecMode) {
  // Scenario 7 returns with p.dat still open: the write is in the file as
  // soon as the test ends, whether or not the process that made it lives on.
  for (ExecMode mode : kAllModes) {
    SCOPED_TRACE(ModeLabel(mode));
    FixtureRun run = RunFixture(
        mode, TempDir("iteration_lands_" + std::to_string(static_cast<int>(mode))), 7,
        kNeverFiringKill);
    ASSERT_TRUE(run.result.started) << run.result.error;
    EXPECT_EQ(run.result.exit_code, 0) << run.result.output;
    if (mode == ExecMode::kPersistent) {
      EXPECT_GT(run.client->child_pid(), 0);  // the iteration's process lives on
    }
    EXPECT_EQ(SlurpFile(run.sandbox / "p.dat"), "left open...\n");
  }
}

TEST(UndoLogTest, KillUndoesAnInPlaceOverwriteThroughEitherAccessMode) {
  // Scenario 8 overwrites through an O_RDWR fd, 9 through an O_WRONLY one,
  // whose pre-image the log can only read through a second descriptor.
  for (int scenario : {8, 9}) {
    SCOPED_TRACE("scenario " + std::to_string(scenario));
    const std::string tag = std::to_string(scenario);
    FixtureRun clean = RunFixture(
        ExecMode::kSpawn, TempDir("overwrite_clean_" + tag), scenario,
        {{.function = "close", .call_lo = 3, .call_hi = 3, .kind = FaultKind::kKillAt}});
    EXPECT_EQ(clean.result.exit_code, 0) << clean.result.output;
    EXPECT_EQ(SlurpFile(clean.sandbox / "u.dat"), "01abcdefghijkl");

    FixtureRun killed = RunFixture(
        ExecMode::kSpawn, TempDir("overwrite_killed_" + tag), scenario,
        {{.function = "close", .call_lo = 2, .call_hi = 2, .kind = FaultKind::kKillAt}});
    EXPECT_EQ(killed.result.term_signal, SIGKILL);
    EXPECT_EQ(SlurpFile(killed.sandbox / "u.dat"), "0123456789");
  }
}

TEST(UndoLogTest, KillCutsAnAppendBackToTheSyncedSize) {
  FixtureRun run = RunFixture(
      ExecMode::kSpawn, TempDir("append_killed"), 10,
      {{.function = "close", .call_lo = 2, .call_hi = 2, .kind = FaultKind::kKillAt}});
  EXPECT_EQ(run.result.term_signal, SIGKILL);
  EXPECT_EQ(SlurpFile(run.sandbox / "a.dat"), "base");
}

TEST(UndoLogTest, DropSyncUndoesOnlyItsOwnFd) {
  // The lied-to fsync undoes d1.dat's write at once; d2.dat's unsynced
  // write stays until the power cut at the first close undoes it too.
  FixtureRun run = RunFixture(
      ExecMode::kSpawn, TempDir("drop_sync_own_fd"), 11,
      {{.function = "fsync", .call_lo = 1, .call_hi = 1, .kind = FaultKind::kDropSync},
       {.function = "close", .call_lo = 1, .call_hi = 1, .kind = FaultKind::kKillAt}});
  EXPECT_NE(run.result.output.find("after fsync: d1.dat=0 d2.dat=4"), std::string::npos)
      << run.result.output;
  EXPECT_EQ(run.result.term_signal, SIGKILL);
  EXPECT_EQ(SlurpFile(run.sandbox / "d1.dat"), "");
  EXPECT_EQ(SlurpFile(run.sandbox / "d2.dat"), "");
}

// ---------------------------------------------------------------------------
// One observation across exec modes: every mode's timeout runs through the
// same KillLadder, and every process AFEX starts holds only its own fds.
// ---------------------------------------------------------------------------

TEST(KillLadderTest, HangEscalatesToSigkillInEveryExecMode) {
  // Fixture scenario 3 ignores SIGTERM, so only the SIGKILL rung ends it.
  constexpr uint64_t kTimeoutMs = 300;
  for (ExecMode mode : kAllModes) {
    SCOPED_TRACE(ModeLabel(mode));
    std::unique_ptr<ForkserverClient> client;
    ProcessResult result;
    uint64_t start = obs::NowNs();
    if (mode == ExecMode::kSpawn) {
      ProcessRequest request;
      request.argv = {AFEX_PERSISTENT_FIXTURE_PATH, "3"};
      request.timeout_ms = kTimeoutMs;
      result = RunProcess(request);
    } else {
      ForkserverOptions opts = WalutilFsOptions(TempDir("hang_persist"));
      opts.argv = {AFEX_PERSISTENT_FIXTURE_PATH, "{test}"};
      opts.timeout_ms = kTimeoutMs;
      client = std::make_unique<ForkserverClient>(opts);
      std::string error;
      ASSERT_TRUE(client->EnsureServer(error)) << error;
      start = obs::NowNs();
      result = client->RunTest(3, 1);
    }
    const uint64_t elapsed_ns = obs::NowNs() - start;
    ASSERT_TRUE(result.started) << result.error;
    EXPECT_TRUE(result.timed_out);
    EXPECT_TRUE(result.kill_escalated);
    EXPECT_FALSE(result.exited);
    EXPECT_EQ(result.term_signal, SIGKILL);
    EXPECT_GE(elapsed_ns, (kTimeoutMs + KillLadder::kKillGraceMs) * kMs);
    EXPECT_LT(elapsed_ns, 10000 * kMs);
    if (mode == ExecMode::kPersistent) {
      // The SIGKILL ended only the child: the same server forks a new one,
      // which stays live for the next iteration.
      ProcessResult next = client->RunTest(1, 2);
      ASSERT_TRUE(next.started) << next.error;
      EXPECT_EQ(next.output, "fixture alive\n");
      EXPECT_EQ(client->restarts(), 0u);
      EXPECT_GT(client->child_pid(), 0);
    }
  }
}

// Targets of /proc/<pid>/fd entries, keyed by fd.
std::map<int, std::string> OpenFds(pid_t pid) {
  std::map<int, std::string> fds;
  std::error_code ec;
  const fs::path dir = "/proc/" + std::to_string(pid) + "/fd";
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    std::error_code link_ec;
    fds[std::stoi(it->path().filename().string())] =
        fs::read_symlink(it->path(), link_ec).string();
  }
  return fds;
}

TEST(ExecFdTest, ChildrenStartWithStdioOnly) {
  // A descriptor this process opened without O_CLOEXEC — the campaign
  // journal is one — must reach neither a spawned target nor a server.
  const std::string dir = TempDir("fd_inherit");
  const std::string journal = dir + "/j.afexj";
  const int fd = ::open(journal.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 3);

  ProcessRequest request;
  request.argv = {"/bin/ls", "-l", "/proc/self/fd"};
  ProcessResult listed = RunProcess(request);
  ASSERT_TRUE(listed.exited) << listed.output;
  EXPECT_EQ(listed.exit_code, 0) << listed.output;
  EXPECT_EQ(listed.output.find(journal), std::string::npos) << listed.output;

  ForkserverClient client(WalutilFsOptions(dir));
  std::string error;
  ASSERT_TRUE(client.EnsureServer(error)) << error;
  for (const auto& [server_fd, target] : OpenFds(client.server_pid())) {
    EXPECT_NE(target, journal) << "server fd " << server_fd;
  }
  ::close(fd);
}

TEST(ExecFdTest, ConcurrentSpawnsAndServersHoldOnlyTheirOwnPipes) {
  // The --jobs shape: one thread cycles servers while another spawns
  // children that list their fds. No child may hold a pipe beyond its
  // stdio, no server one beyond its stdio and the two protocol fds.
  std::atomic<bool> stop{false};
  int handshakes = 0;
  std::string server_leak;
  std::thread cycler([&] {
    const ForkserverOptions opts = WalutilFsOptions(TempDir("fd_stress"));
    while (!stop.load()) {
      ForkserverClient client(opts);
      std::string error;
      if (!client.EnsureServer(error)) {
        continue;
      }
      ++handshakes;
      for (const auto& [fd, target] : OpenFds(client.server_pid())) {
        if (fd > STDERR_FILENO && fd != kForkserverCtlFd && fd != kForkserverStatusFd &&
            target.rfind("pipe:", 0) == 0 && server_leak.empty()) {
          server_leak = "fd " + std::to_string(fd) + " -> " + target;
        }
      }
      client.Shutdown();
    }
  });

  int children = 0;
  std::string child_leak;
  const uint64_t deadline = obs::NowNs() + 4000 * kMs;
  while (children < 3000 && obs::NowNs() < deadline) {
    ProcessRequest request;
    request.argv = {"/bin/ls", "-l", "/proc/self/fd"};
    ProcessResult listed = RunProcess(request);
    ++children;
    std::istringstream lines(listed.output);
    for (std::string line; std::getline(lines, line);) {
      const size_t arrow = line.find(" -> pipe:");
      if (arrow == std::string::npos) {
        continue;
      }
      const int fd = std::stoi(line.substr(line.rfind(' ', arrow - 1) + 1));
      if (fd > STDERR_FILENO && child_leak.empty()) {
        child_leak = line;
      }
    }
  }
  stop = true;
  cycler.join();
  EXPECT_GT(handshakes, 0);
  EXPECT_EQ(child_leak, "") << "after " << children << " children";
  EXPECT_EQ(server_leak, "") << "after " << handshakes << " servers";
}

// ---------------------------------------------------------------------------
// Exec-mode equivalence: the same campaign produces byte-identical records
// in both modes.
// ---------------------------------------------------------------------------

// The serialized records of a seeded fitness campaign of `budget` tests over
// `space`, run through a fresh harness for `config` (its exec mode included).
std::vector<std::string> CampaignRecords(const RealTargetConfig& config, const FaultSpace& space,
                                         uint64_t seed, size_t budget) {
  RealTargetHarness harness(config);
  FitnessExplorerConfig explorer_config;
  explorer_config.seed = seed;
  FitnessExplorer explorer(space, explorer_config);
  ExplorationSession session(explorer, harness, space, SessionConfig{});
  session.Run(SearchTarget{.max_tests = budget});
  std::vector<std::string> serialized;
  for (const SessionRecord& record : session.result().records) {
    serialized.push_back(SerializeRecord(record));
  }
  return serialized;
}

// Runs that campaign in both modes and expects each to give `budget`
// records, persistent's each equal to spawn's; returns spawn's.
std::vector<std::string> ExpectRecordsEqualAcrossModes(RealTargetConfig config,
                                                       const FaultSpace& space, uint64_t seed,
                                                       size_t budget) {
  std::vector<std::string> spawn;
  for (ExecMode mode : kAllModes) {
    config.exec_mode = mode;
    const std::vector<std::string> records = CampaignRecords(config, space, seed, budget);
    EXPECT_EQ(records.size(), budget) << ModeLabel(mode);
    if (mode == ExecMode::kSpawn) {
      spawn = records;
      continue;
    }
    for (size_t i = 0; i < std::min(spawn.size(), records.size()); ++i) {
      EXPECT_EQ(spawn[i], records[i]) << "spawn vs " << ModeLabel(mode) << ", record " << i;
    }
  }
  return spawn;
}

TEST(ExecModeEquivalenceTest, AllModesProduceIdenticalRecordSequences) {
  const RealTargetConfig config = WalutilConfig(TempDir("eq"));
  ExpectRecordsEqualAcrossModes(config, RealTargetHarness(config).MakeSpace(/*max_call=*/6),
                                /*seed=*/23, /*budget=*/30);
}

TEST(ExecModeEquivalenceTest, ExecedImageArmsThePlanInEveryMode) {
  // A start script that exec()s the target, the way a node manager starts
  // the system under test: the shell's image arms the plan, then walutil's
  // image arms it again and fires it, in persistent mode as in spawn.
  const std::string dir = TempDir("exec_wrapper");
  const std::string script = dir + "/wrap.sh";
  std::ofstream(script) << "#!/bin/sh\nexec " << AFEX_WALUTIL_PATH << " \"$1\"\n";
  fs::permissions(script, fs::perms::owner_exec, fs::perm_options::add);
  RealTargetConfig config = WalutilConfig(dir + "/work");
  config.target_argv = {script, "{test}"};
  const FaultSpace space({Axis::MakeInterval("test", 1, 1), Axis::MakeSet("function", {"open"}),
                          Axis::MakeInterval("call", 1, 3)},
                         "real:wrap");
  const std::vector<std::string> spawn =
      ExpectRecordsEqualAcrossModes(config, space, /*seed=*/23, /*budget=*/3);
  // Open #1 is the shell's own (it cannot open the script); #2 and #3 are
  // walutil's, and fail it.
  size_t walutil_fired = 0;
  for (const std::string& record : spawn) {
    EXPECT_NE(record.find("trig=1"), std::string::npos) << record;
    walutil_fired += record.find("detail=walutil") != std::string::npos ? 1 : 0;
  }
  EXPECT_EQ(walutil_fired, 2u);
}

// Serialized outcomes of every point of `space` (test-major order), run in
// order through a fresh harness for `config` in `mode`.
std::vector<std::string> SweepSpace(RealTargetConfig config, ExecMode mode,
                                    const FaultSpace& space) {
  config.exec_mode = mode;
  RealTargetHarness harness(config);
  std::vector<std::string> outcomes;
  for (size_t test = 0; test < space.axis(0).cardinality(); ++test) {
    for (size_t function = 0; function < space.axis(1).cardinality(); ++function) {
      for (size_t call = 0; call < space.axis(2).cardinality(); ++call) {
        outcomes.push_back(SerializeOutcome(
            harness.RunFault(space, Fault(std::vector<size_t>{test, function, call}))));
      }
    }
  }
  return outcomes;
}

TEST(ExecModeEquivalenceTest, UnencodablePlanFailsAlikeInEveryMode) {
  // A call interval past INT_MAX wraps negative in the decoded spec, which
  // no exec mode can arm. Every mode must refuse it with the same record.
  // The persistent leg runs in a forked child under an alarm, so a client
  // that blocks on its live server fails the test instead of hanging it.
  FaultSpace space({Axis::MakeInterval("test", 1, 1), Axis::MakeSet("function", {"open"}),
                    Axis::MakeInterval("call", 2147483648LL, 2147483650LL)},
                   "real:unencodable");
  const std::vector<std::string> spawn =
      SweepSpace(WalutilConfig(TempDir("unencodable_spawn")), ExecMode::kSpawn, space);
  ASSERT_EQ(spawn.size(), 3u);
  for (const std::string& outcome : spawn) {
    EXPECT_NE(outcome.find("failed=1"), std::string::npos) << outcome;
    EXPECT_NE(outcome.find("detail=" + EscapeField("exec: unencodable fault plan")),
              std::string::npos)
        << outcome;
  }

  const std::string dir = TempDir("unencodable_persistent");
  const std::string listing = dir + "/outcomes.txt";
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::alarm(60);
    std::ofstream out(listing);
    for (const std::string& outcome :
         SweepSpace(WalutilConfig(dir + "/w"), ExecMode::kPersistent, space)) {
      out << outcome << '\n';
    }
    out.close();
    ::_exit(out ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "persistent leg hung (killed by signal "
                                 << WTERMSIG(status) << ")";
  ASSERT_EQ(WEXITSTATUS(status), 0);
  std::vector<std::string> persistent;
  std::ifstream in(listing);
  for (std::string line; std::getline(in, line);) {
    persistent.push_back(line);
  }
  EXPECT_EQ(persistent, spawn);
}

// The fixture's open/close scenario behind a main that opens /dev/null
// before it hands over the entry function.
RealTargetConfig OpenFirstFixtureConfig(const std::string& work_root) {
  RealTargetConfig config;
  config.target_argv = {AFEX_PERSISTENT_FIXTURE_PATH, "{test}", "open-first"};
  config.num_tests = 4;
  config.interposer_path = AFEX_INTERPOSER_PATH;
  config.work_root = work_root;
  config.timeout_ms = 10000;
  return config;
}

TEST(ExecModeEquivalenceTest, InterposedCallAheadOfTheHookKeepsSpawnOrdinals) {
  // The pre-hook open is call 1 in a spawned process; a persistent child
  // that counted it declines to iterate, so every mode fires the same open.
  FaultSpace space({Axis::MakeInterval("test", 4, 4), Axis::MakeSet("function", {"open", "close"}),
                    Axis::MakeInterval("call", 1, 2)},
                   "real:open_first");
  const std::vector<std::string> spawn =
      SweepSpace(OpenFirstFixtureConfig(TempDir("open_first_spawn")), ExecMode::kSpawn, space);
  ASSERT_EQ(spawn.size(), 4u);
  EXPECT_NE(spawn[0].find("exit=4"), std::string::npos) << spawn[0];  // open #1: pre-hook
  EXPECT_NE(spawn[1].find("exit=3"), std::string::npos) << spawn[1];  // open #2: scenario
  EXPECT_NE(spawn[2].find("exit=5"), std::string::npos) << spawn[2];  // close #1
  EXPECT_NE(spawn[3].find("trig=0"), std::string::npos) << spawn[3];  // close #2: never
  EXPECT_EQ(SweepSpace(OpenFirstFixtureConfig(TempDir("open_first_pers")),
                       ExecMode::kPersistent, space),
            spawn);
}

// ---------------------------------------------------------------------------
// Campaign journal + resume over the real backend
// ---------------------------------------------------------------------------

TEST(RealCampaignTest, JournalResumeReproducesRecordSequence) {
  const uint64_t seed = 11;
  const size_t interrupted_budget = 8;
  const size_t full_budget = 14;
  std::string dir = TempDir("campaign");
  std::string journal = dir + "/run.afexj";

  auto make_harness = [&](const std::string& leg) {
    return std::make_unique<RealTargetHarness>(WalutilConfig(dir + "/" + leg));
  };
  auto make_explorer = [&](const FaultSpace& space) {
    FitnessExplorerConfig config;
    config.seed = seed;
    return std::make_unique<FitnessExplorer>(space, config);
  };

  CampaignMeta meta;
  meta.target = "real:walutil";
  meta.strategy = "fitness";
  meta.seed = seed;

  // Leg 1: journal an interrupted campaign.
  auto harness1 = make_harness("leg1");
  FaultSpace space1 = harness1->MakeSpace(/*max_call=*/6);
  meta.space_fingerprint = FaultSpaceFingerprint(space1);
  {
    CampaignStore store = CampaignStore::Create(journal, meta);
    auto explorer = make_explorer(space1);
    SessionConfig config;
    config.record_observer = store.MakeObserver();
    ExplorationSession session(*explorer, *harness1, space1, config);
    session.Run(SearchTarget{.max_tests = interrupted_budget});
    EXPECT_EQ(session.result().tests_executed, interrupted_budget);
  }

  // Leg 2: resume and finish.
  auto harness2 = make_harness("leg2");
  FaultSpace space2 = harness2->MakeSpace(/*max_call=*/6);
  SessionResult resumed_result;
  {
    CampaignStore store = CampaignStore::Open(journal, meta);
    ASSERT_EQ(store.records().size(), interrupted_budget);
    // Acceptance: the journal recorded at least one actually-injected site.
    bool any_triggered = false;
    for (const SessionRecord& r : store.records()) {
      any_triggered = any_triggered || r.outcome.fault_triggered;
    }
    EXPECT_TRUE(any_triggered);

    auto explorer = make_explorer(space2);
    SessionConfig config;
    config.record_observer = store.MakeObserver();
    ExplorationSession session(*explorer, *harness2, space2, config);
    for (const SessionRecord& record : store.records()) {
      ASSERT_TRUE(session.Replay(record));
    }
    store.CommitResume(store.records().size());
    harness2->SeedCoverage(store.CoverageIdsForNode(0));
    session.Run(SearchTarget{.max_tests = full_budget});
    resumed_result = session.result();
  }

  // Reference: the same campaign uninterrupted.
  auto harness3 = make_harness("leg3");
  FaultSpace space3 = harness3->MakeSpace(/*max_call=*/6);
  auto explorer = make_explorer(space3);
  ExplorationSession reference(*explorer, *harness3, space3, SessionConfig{});
  reference.Run(SearchTarget{.max_tests = full_budget});

  ASSERT_EQ(resumed_result.records.size(), reference.result().records.size());
  for (size_t i = 0; i < resumed_result.records.size(); ++i) {
    const SessionRecord& a = resumed_result.records[i];
    const SessionRecord& b = reference.result().records[i];
    EXPECT_EQ(SerializeRecord(a), SerializeRecord(b)) << "record " << i;
  }

  // And the rewritten journal holds the full sequence.
  CampaignStore final_store = CampaignStore::Open(journal);
  EXPECT_EQ(final_store.records().size(), full_budget);
}

// ---------------------------------------------------------------------------
// Static target analysis feeding the real backend (acceptance criterion):
// the auto-derived space is strictly smaller than the hand-written full
// interposable space, yet an exhaustive campaign over it finds the same
// planted crashes.
// ---------------------------------------------------------------------------

TEST(StaticAnalysisTest, AutoSpaceFindsTheSameCrashesInAStrictlySmallerSpace) {
  std::string error;
  auto profile = analysis::AnalyzeTargetBinary(AFEX_WALUTIL_PATH, error);
  ASSERT_TRUE(profile.has_value()) << error;

  // Restrict the exhaustive sweep to the two crash-planted scenarios
  // (3: replay divergence SIGABRT, 4: catalog NULL-deref SIGSEGV) at low
  // call ordinals, to keep the fork count test-sized.
  auto make_space = [](std::vector<std::string> functions, const std::string& name) {
    std::vector<Axis> axes;
    axes.push_back(Axis::MakeInterval("test", 3, 4));
    axes.push_back(Axis::MakeSet("function", std::move(functions)));
    axes.push_back(Axis::MakeInterval("call", 1, 2));
    return FaultSpace(std::move(axes), name);
  };
  FaultSpace full_space = make_space(InterposableFunctions(), "hand");
  FaultSpace auto_space = make_space(profile->InterposableImports(), "auto");

  // Strictly smaller: the pruning must be real for this target.
  ASSERT_LT(auto_space.TotalPoints(), full_space.TotalPoints());
  EXPECT_EQ(auto_space.TotalPoints(), 2u * profile->InterposableImports().size() * 2u);

  // Exhaustive sweep of each space; a crash signature is the injected
  // coordinate that produced it, by label (comparable across spaces).
  auto sweep = [](const FaultSpace& space, RealTargetHarness& harness) {
    std::set<std::string> crashes;
    for (std::optional<Fault> f = space.FirstValid(); f.has_value();
         f = space.NextValid(*f)) {
      TestOutcome outcome = harness.RunFault(space, *f);
      if (outcome.crashed) {
        crashes.insert(space.Describe(*f));
      }
    }
    return crashes;
  };
  RealTargetHarness full_harness(WalutilConfig(TempDir("analysis_full")));
  RealTargetHarness auto_harness(WalutilConfig(TempDir("analysis_auto")));
  std::set<std::string> full_crashes = sweep(full_space, full_harness);
  std::set<std::string> auto_crashes = sweep(auto_space, auto_harness);

  // The full space cannot find crashes outside the imported set (faults on
  // never-imported functions never fire), so the pruned space must find
  // exactly the same planted crashes.
  EXPECT_FALSE(auto_crashes.empty());
  EXPECT_EQ(auto_crashes, full_crashes);
}

// ---------------------------------------------------------------------------
// Two-phase crash→recover→verify over afex_txengine
// ---------------------------------------------------------------------------

RealTargetConfig TxengineConfig(const std::string& work_root) {
  RealTargetConfig config;
  config.target_argv = {AFEX_TXENGINE_PATH, "workload", "{test}"};
  config.recovery_argv = {AFEX_TXENGINE_PATH, "recover"};
  config.verify_argv = {AFEX_TXENGINE_PATH, "verify"};
  config.num_tests = 2;
  config.interposer_path = AFEX_INTERPOSER_PATH;
  config.work_root = work_root;
  config.timeout_ms = 10000;
  config.functions = {"write", "fsync", "rename"};
  return config;
}

// <test, function, call, retval, mode> storage-failure space. The retval
// axis is pinned at 20: it doubles as the short_write byte count K, small
// enough to tear any 256-byte page write.
FaultSpace TxengineSpace(int64_t max_call) {
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("test", 1, 2));
  axes.push_back(Axis::MakeSet("function", {"write", "fsync", "rename"}));
  axes.push_back(Axis::MakeInterval("call", 1, max_call));
  axes.push_back(Axis::MakeInterval("retval", 20, 20));
  axes.push_back(
      Axis::MakeSet("mode", {"kill_at", "short_write", "drop_sync", "crash_after_rename"}));
  return FaultSpace(std::move(axes), "txengine-storage");
}

Fault MakeModeFault(const FaultSpace& space, size_t test_1based, const std::string& function,
                    size_t call_1based, const std::string& mode) {
  auto function_index = space.axis(1).IndexOf(function);
  auto mode_index = space.axis(4).IndexOf(mode);
  EXPECT_TRUE(function_index.has_value());
  EXPECT_TRUE(mode_index.has_value());
  return Fault(std::vector<size_t>{test_1based - 1, function_index.value_or(0),
                                   call_1based - 1, 0, mode_index.value_or(0)});
}

TEST(TwoPhaseHarnessTest, CleanRunRecoversAndVerifies) {
  RealTargetHarness harness(TxengineConfig(TempDir("twophase_clean")));
  FaultSpace space = TxengineSpace(/*max_call=*/40);
  // Test 1 makes 39 write calls; ordinal 40 is unreachable, so the workload
  // runs fault-free — and recovery + verify still run and must both pass.
  TestOutcome clean = harness.RunFault(space, MakeModeFault(space, 1, "write", 40, "kill_at"));
  EXPECT_FALSE(clean.fault_triggered);
  EXPECT_FALSE(clean.test_failed);
  EXPECT_FALSE(clean.recovery_failed);
  EXPECT_FALSE(clean.invariant_violated);
}

TEST(TwoPhaseHarnessTest, KillDuringPageWriteExposesRedoSkewAsInvariant) {
  RealTargetHarness harness(TxengineConfig(TempDir("twophase_redo")));
  FaultSpace space = TxengineSpace(/*max_call=*/40);
  // Power cut at write call 12 — txn 17's apply of page 1 (odd id). The
  // commit record is durable (txn 17's fsync flushed the log), recovery
  // succeeds, but the planted redo bug skips odd pages: the verifier sees
  // page 1 diverge from the durable log.
  TestOutcome outcome =
      harness.RunFault(space, MakeModeFault(space, 1, "write", 12, "kill_at"));
  EXPECT_TRUE(outcome.fault_triggered);
  // The simulated power cut is not a target bug: SIGKILL is deliberately
  // not a crash signal (the classification walutil timeouts rely on too).
  EXPECT_FALSE(outcome.crashed);
  EXPECT_EQ(outcome.exit_code, 128 + SIGKILL);
  EXPECT_FALSE(outcome.recovery_failed);
  EXPECT_TRUE(outcome.invariant_violated);
  EXPECT_TRUE(outcome.test_failed);
  EXPECT_NE(outcome.detail.find("invariant violated"), std::string::npos) << outcome.detail;
  EXPECT_NE(outcome.detail.find("diverges"), std::string::npos) << outcome.detail;
}

TEST(TwoPhaseHarnessTest, TornPageBelowCheckpointFailsRecovery) {
  RealTargetHarness harness(TxengineConfig(TempDir("twophase_torn")));
  FaultSpace space = TxengineSpace(/*max_call=*/40);
  // Write call 17 is txn 18's apply of page 2 (lsn 4, never rewritten).
  // K=20 tears it: new header + 4 payload bytes, stale tail. The page's
  // LSN is below the checkpoint, so recovery's checksum pass catches it
  // and refuses to come up — recovery_failed, and verify never runs.
  TestOutcome outcome =
      harness.RunFault(space, MakeModeFault(space, 1, "write", 17, "short_write"));
  EXPECT_TRUE(outcome.fault_triggered);
  EXPECT_FALSE(outcome.crashed);  // the workload itself ignores the short write
  EXPECT_TRUE(outcome.recovery_failed);
  EXPECT_FALSE(outcome.invariant_violated);
  EXPECT_TRUE(outcome.test_failed);
  EXPECT_NE(outcome.detail.find("recovery failed"), std::string::npos) << outcome.detail;
  EXPECT_NE(outcome.detail.find("unrecoverable torn page"), std::string::npos)
      << outcome.detail;
}

TEST(TwoPhaseHarnessTest, TornPageAboveCheckpointSlipsPastRecovery) {
  RealTargetHarness harness(TxengineConfig(TempDir("twophase_torn_high")));
  FaultSpace space = TxengineSpace(/*max_call=*/40);
  // Write call 34 is txn 21's apply of page 0 (lsn 14 > checkpoint 12).
  // The planted recovery bug skips checksum validation above the
  // checkpoint, and redo skips it too (its WAL lsn equals the on-disk
  // header's): recovery reports success, only the verifier notices.
  TestOutcome outcome =
      harness.RunFault(space, MakeModeFault(space, 1, "write", 34, "short_write"));
  EXPECT_TRUE(outcome.fault_triggered);
  EXPECT_FALSE(outcome.recovery_failed);
  EXPECT_TRUE(outcome.invariant_violated);
  EXPECT_NE(outcome.detail.find("torn page"), std::string::npos) << outcome.detail;
}

TEST(TwoPhaseHarnessTest, SandboxRecycledAfterRecoveryAndVerify) {
  // The sandbox is recycled after recovery/verify — empty between tests
  // (the recycling invariant the harness asserts). The second verifier
  // leaves a nested directory behind as well as files.
  for (const char* verify : {"", "mkdir -p nest/deeper && touch nest/deeper/f top"}) {
    SCOPED_TRACE(verify);
    std::string root = TempDir("twophase_recycle");
    RealTargetConfig config = TxengineConfig(root);
    if (*verify != '\0') {
      config.verify_argv = {"/bin/sh", "-c", verify};
    }
    RealTargetHarness harness(config);
    obs::CampaignTelemetry telemetry{obs::TelemetryConfig{}};
    harness.set_metrics_sink(&telemetry);
    FaultSpace space = TxengineSpace(/*max_call=*/40);
    EXPECT_FALSE(
        harness.RunFault(space, MakeModeFault(space, 1, "write", 40, "kill_at")).test_failed);
    std::string sandbox;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (entry.is_directory() && entry.path().filename() == "sandbox") {
        sandbox = entry.path().string();
      }
    }
    ASSERT_FALSE(sandbox.empty());
    EXPECT_TRUE(fs::is_empty(sandbox));
    EXPECT_EQ(CounterValue(telemetry.Snapshot(), "real.recycle_leak"), 0u);
  }
}

TEST(TwoPhaseHarnessTest, StorageFaultCampaignRecordIdenticalAcrossExecModes) {
  // Spawn and persistent must stay record-identical with the storage-failure
  // axes in play — kills, torn writes, dropped syncs and all.
  ExpectRecordsEqualAcrossModes(TxengineConfig(TempDir("tx_eq")), TxengineSpace(/*max_call=*/12),
                                /*seed=*/41, /*budget=*/24);
}

// ---------------------------------------------------------------------------
// FeedbackBlock: hostile decoding. The block is parent-trusted input
// written by an arbitrary (possibly crashed, possibly malicious) child —
// every malformed shape must land in its distinct FeedbackReadStatus.
// ---------------------------------------------------------------------------

void WriteBlockBytes(const std::string& path, const FeedbackBlock& block, size_t bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(&block), static_cast<std::streamsize>(bytes));
}

FeedbackBlock AttachedBlock() {
  FeedbackBlock block;
  block.magic = kFeedbackMagic;
  block.version = kFeedbackVersion;
  block.attached = 1;
  return block;
}

TEST(FeedbackBlockHostileTest, MissingFileReadsMissing) {
  FeedbackBlock block;
  EXPECT_EQ(ReadFeedbackBlockStatus((TempDir("fb_missing") + "/none.bin").c_str(), block),
            FeedbackReadStatus::kMissing);
}

TEST(FeedbackBlockHostileTest, TruncatedBlockReadsShort) {
  std::string path = TempDir("fb_short") + "/fb.bin";
  FeedbackBlock block = AttachedBlock();
  // Cut inside the fixed counter region: unreadable regardless of version.
  WriteBlockBytes(path, block, 100);
  FeedbackBlock out;
  EXPECT_EQ(ReadFeedbackBlockStatus(path.c_str(), out), FeedbackReadStatus::kShort);
  // A block whose edge region is cut off is short too — the interposer
  // always produces the full block, so a partial one is torn output.
  WriteBlockBytes(path, block, offsetof(FeedbackBlock, edges_supported) + 16);
  EXPECT_EQ(ReadFeedbackBlockStatus(path.c_str(), out), FeedbackReadStatus::kShort);
}

TEST(FeedbackBlockHostileTest, BadMagicRejected) {
  std::string path = TempDir("fb_magic") + "/fb.bin";
  FeedbackBlock block = AttachedBlock();
  block.magic = 0x4141414141414141ULL;
  WriteBlockBytes(path, block, sizeof(block));
  FeedbackBlock out;
  EXPECT_EQ(ReadFeedbackBlockStatus(path.c_str(), out), FeedbackReadStatus::kBadMagic);
}

TEST(FeedbackBlockHostileTest, UnknownVersionReadsVersionSkew) {
  std::string path = TempDir("fb_skew") + "/fb.bin";
  FeedbackBlock block = AttachedBlock();
  block.version = kFeedbackVersion + 1;  // from a future interposer
  WriteBlockBytes(path, block, sizeof(block));
  FeedbackBlock out;
  EXPECT_EQ(ReadFeedbackBlockStatus(path.c_str(), out), FeedbackReadStatus::kVersionSkew);
  block.version = 0;
  WriteBlockBytes(path, block, sizeof(block));
  EXPECT_EQ(ReadFeedbackBlockStatus(path.c_str(), out), FeedbackReadStatus::kVersionSkew);
  // A version-1 block (no edge region on disk) can only come from a skewed
  // build: the parent creates the file per test for an interposer built
  // from the same tree.
  block.version = 1;
  WriteBlockBytes(path, block, offsetof(FeedbackBlock, edges_supported));
  EXPECT_EQ(ReadFeedbackBlockStatus(path.c_str(), out), FeedbackReadStatus::kVersionSkew);
}

// ---------------------------------------------------------------------------
// Feedback-health counters end to end: a child that corrupts its own
// feedback block must land in the matching real.feedback_* counter, not
// poison the campaign. The corrupting step always runs exec env LD_PRELOAD=
// so no interposer holds a live mapping of the block while it is mangled.
// ---------------------------------------------------------------------------

double GaugeValue(const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& [gauge, value] : snapshot.gauges) {
    if (gauge == name) {
      return value;
    }
  }
  return -1.0;
}

// Runs one spawn-mode test whose target is `script` (a /bin/sh -c body) and
// returns the telemetry snapshot plus the outcome.
obs::MetricsSnapshot RunShellTarget(const std::string& name, const std::string& script,
                                    TestOutcome* outcome_out = nullptr,
                                    bool use_edges = false) {
  RealTargetConfig config;
  config.target_argv = {"/bin/sh", "-c", script, "afex-feedback-health"};
  config.num_tests = 1;
  config.interposer_path = AFEX_INTERPOSER_PATH;
  config.work_root = TempDir(name);
  config.timeout_ms = 10000;
  config.use_edges = use_edges;
  RealTargetHarness harness(config);
  obs::CampaignTelemetry telemetry{obs::TelemetryConfig{}};
  harness.set_metrics_sink(&telemetry);
  FaultSpace space = harness.MakeSpace(/*max_call=*/2);
  // A fault the shell never reaches (no sockets): the corrupting script
  // must run to completion, unperturbed by injection.
  TestOutcome outcome = harness.RunFault(space, MakeFault(space, 1, "send", 2));
  if (outcome_out != nullptr) {
    *outcome_out = outcome;
  }
  return telemetry.Snapshot();
}

TEST(FeedbackHealthCounterTest, TruncatedBlockCountsShort) {
  obs::MetricsSnapshot snapshot = RunShellTarget(
      "health_short",
      "exec env LD_PRELOAD= /bin/sh -c 'printf AFEX > \"$AFEX_FEEDBACK\"'");
  EXPECT_EQ(CounterValue(snapshot, "real.feedback_short"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "real.feedback_ok"), 0u);
}

TEST(FeedbackHealthCounterTest, ZeroedBlockCountsBadMagic) {
  obs::MetricsSnapshot snapshot = RunShellTarget(
      "health_magic",
      "exec env LD_PRELOAD= /bin/sh -c "
      "'dd if=/dev/zero of=\"$AFEX_FEEDBACK\" bs=600 count=1 conv=notrunc status=none'");
  EXPECT_EQ(CounterValue(snapshot, "real.feedback_bad_magic"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "real.feedback_ok"), 0u);
}

TEST(FeedbackHealthCounterTest, FutureVersionCountsVersionSkew) {
  // Patch the version field to kFeedbackVersion+1 after the interposer
  // stamped it; the parent must refuse the block it cannot decode.
  static_assert(kFeedbackVersion + 1 < 8, "one octal digit");
  std::string script =
      "exec env LD_PRELOAD= /bin/sh -c 'printf \"\\00" + std::to_string(kFeedbackVersion + 1) +
      "\\000\\000\\000\" | dd of=\"$AFEX_FEEDBACK\" bs=1 seek=" +
      std::to_string(offsetof(FeedbackBlock, version)) + " conv=notrunc status=none'";
  obs::MetricsSnapshot snapshot = RunShellTarget("health_skew", script);
  EXPECT_EQ(CounterValue(snapshot, "real.feedback_version"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "real.feedback_ok"), 0u);
}

TEST(FeedbackHealthCounterTest, StaleTestSeqCountsStaleInForkserverMode) {
  // The server stamps test_seq before each fork; a child that mangles it
  // must be counted stale and contribute no coverage.
  RealTargetConfig config;
  config.target_argv = {
      "/bin/sh", "-c",
      "printf '\\177\\177\\177\\177' | dd of=\"$AFEX_FEEDBACK\" bs=1 seek=" +
          std::to_string(offsetof(FeedbackBlock, test_seq)) +
          " conv=notrunc status=none 2>/dev/null",
      "afex-stale-seq"};
  config.num_tests = 1;
  config.interposer_path = AFEX_INTERPOSER_PATH;
  config.work_root = TempDir("health_stale");
  config.timeout_ms = 10000;
  config.exec_mode = ExecMode::kPersistent;
  RealTargetHarness harness(config);
  obs::CampaignTelemetry telemetry{obs::TelemetryConfig{}};
  harness.set_metrics_sink(&telemetry);
  FaultSpace space = harness.MakeSpace(/*max_call=*/2);
  TestOutcome outcome = harness.RunFault(space, MakeFault(space, 1, "send", 2));
  obs::MetricsSnapshot snapshot = telemetry.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "real.feedback_stale"), 1u);
  EXPECT_TRUE(outcome.new_block_ids.empty());
}

TEST(FeedbackHealthCounterTest, HostileEdgeBlockIsClampedNotTrusted) {
  // A crafted v2 block with saturated and out-of-range edge fields: the
  // parent must clamp the entry count, drop wild ids (no multi-hundred-MB
  // bitmap), cap the coverage universe, and count the saturation.
  std::string dir = TempDir("health_edges");
  FeedbackBlock crafted = AttachedBlock();
  crafted.test_seq = 0;  // spawn mode: no expected seq
  crafted.edges_supported = 1;
  crafted.edge_total = UINT64_MAX;
  crafted.edge_hit_count = UINT64_MAX;  // claims more entries than exist
  crafted.edge_overflow = 3;            // per-test new-edge list saturated
  for (uint32_t i = 0; i < kMaxEdgeHits; ++i) {
    crafted.edge_hits[i] = UINT32_MAX;  // wild ids: must all be dropped
  }
  for (uint32_t i = 0; i < 11; ++i) {
    crafted.edge_hits[i] = i;  // ...except these in-range ones
  }
  std::string crafted_path = dir + "/crafted.bin";
  WriteBlockBytes(crafted_path, crafted, sizeof(crafted));

  TestOutcome outcome;
  obs::MetricsSnapshot snapshot = RunShellTarget(
      "health_edges_run",
      "exec env LD_PRELOAD= /bin/sh -c 'dd if=" + crafted_path +
          " of=\"$AFEX_FEEDBACK\" conv=notrunc status=none'",
      &outcome, /*use_edges=*/true);
  EXPECT_EQ(CounterValue(snapshot, "real.feedback_ok"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "real.edge_overflow"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "real.edges_new"), 11u);
  EXPECT_EQ(GaugeValue(snapshot, "real.edges_total"), 11.0);
  // Exactly the in-range edges surface, offset into the edge block range.
  ASSERT_EQ(outcome.new_block_ids.size(), 11u);
  for (uint32_t i = 0; i < 11; ++i) {
    EXPECT_EQ(outcome.new_block_ids[i], kEdgeBlockBase + i);
  }
}

// ---------------------------------------------------------------------------
// No-op answers: once a test id's fault-free run is known, a point whose plan
// cannot fire is answered from it without starting a process. Every answer
// must be the record a live run would have produced.
// ---------------------------------------------------------------------------

// Every point of `space` in enumeration order.
std::vector<Fault> AllPoints(const FaultSpace& space) {
  std::vector<Fault> points;
  std::vector<size_t> coords(space.dimensions(), 0);
  for (;;) {
    points.emplace_back(coords);
    size_t d = space.dimensions();
    while (d > 0 && ++coords[d - 1] == space.axis(d - 1).cardinality()) {
      coords[--d] = 0;
    }
    if (d == 0) {
      return points;
    }
  }
}

// What a sweep answered: whole tests (no-ops) and recover/verify pairs
// (repeated crash states).
struct Answered {
  size_t tests = 0;
  size_t crash_states = 0;
};

// Sweeps `space` on one harness and, for each point, runs a fresh harness
// seeded with the coverage the sweep had reached: the fresh harness runs
// the point live, recover and verify included (its first point of the test
// id and its first crash state), so each of the sweep's outcomes, answered
// or not, must equal it field by field.
Answered ExpectAnswersEqualLiveRuns(const RealTargetConfig& config, const FaultSpace& space) {
  RealTargetHarness warm(config);
  std::vector<uint32_t> covered;
  for (const Fault& point : AllPoints(space)) {
    TestOutcome answer = warm.RunFault(space, point);
    RealTargetHarness fresh(config);
    fresh.SeedCoverage(covered);
    TestOutcome live = fresh.RunFault(space, point);
    EXPECT_EQ(fresh.tests_answered(), 0u);
    EXPECT_EQ(fresh.crash_states_answered(), 0u);
    EXPECT_EQ(SerializeOutcome(answer), SerializeOutcome(live)) << "point " << point.ToString();
    covered.insert(covered.end(), answer.new_block_ids.begin(), answer.new_block_ids.end());
  }
  return {warm.tests_answered(), warm.crash_states_answered()};
}

TEST(NoopAnswerTest, AnsweredOutcomesEqualLiveRunsInEveryMode) {
  // txengine test 1 calls fsync 5 times and rename once: call 6 of either
  // never fires, call 0 injects nothing, short_write applies to neither, and
  // drop_sync not to rename. The two-phase flags and folded detail ride
  // along in every answer.
  FaultSpace space({Axis::MakeInterval("test", 1, 1), Axis::MakeSet("function", {"fsync", "rename"}),
                    Axis::MakeSet("call", {"0", "1", "5", "6"}), Axis::MakeInterval("retval", 20, 20),
                    Axis::MakeSet("mode", {"kill_at", "short_write", "drop_sync"})},
                   "txengine-noop");
  for (ExecMode mode : kAllModes) {
    SCOPED_TRACE(ModeLabel(mode));
    RealTargetConfig config = TxengineConfig(TempDir("noop_equal"));
    config.exec_mode = mode;
    EXPECT_GT(ExpectAnswersEqualLiveRuns(config, space).tests, 0u);
    // A verifier that always objects: every answer must carry the failed
    // test, the invariant flag and the folded verifier line.
    config.verify_argv = {"/bin/sh", "-c", "echo verifier objects to {test}; exit 3"};
    EXPECT_GT(ExpectAnswersEqualLiveRuns(config, space).tests, 0u);
  }
}

TEST(NoopAnswerTest, CallZeroAndKindIncompatiblePointsAreAnsweredOnceWarm) {
  RealTargetConfig config = TxengineConfig(TempDir("noop_kinds"));
  RealTargetHarness harness(config);
  obs::CampaignTelemetry telemetry{obs::TelemetryConfig{}};
  harness.set_metrics_sink(&telemetry);
  FaultSpace space = TxengineSpace(/*max_call=*/6);
  // Fresh harness: even a point that can never fire runs live and becomes
  // test 1's fault-free run.
  harness.RunFault(space, MakeModeFault(space, 1, "rename", 1, "short_write"));
  EXPECT_EQ(harness.tests_answered(), 0u);
  // The first predicted no-op of the test id is the determinism sample.
  harness.RunFault(space, MakeModeFault(space, 1, "fsync", 2, "crash_after_rename"));
  EXPECT_EQ(harness.tests_answered(), 0u);
  EXPECT_EQ(CounterValue(telemetry.Snapshot(), "real.noop_verified"), 1u);
  // Kind-incompatible points from now on: answered.
  harness.RunFault(space, MakeModeFault(space, 1, "fsync", 3, "short_write"));
  harness.RunFault(space, MakeModeFault(space, 1, "rename", 1, "drop_sync"));
  EXPECT_EQ(harness.tests_answered(), 2u);
  // Call 0 is the no-injection point: answered too.
  FaultSpace zero({Axis::MakeInterval("test", 1, 1), Axis::MakeSet("function", {"write"}),
                   Axis::MakeInterval("call", 0, 0)},
                  "txengine-call0");
  TestOutcome call0 = harness.RunFault(zero, Fault(std::vector<size_t>{0, 0, 0}));
  EXPECT_EQ(harness.tests_answered(), 3u);
  EXPECT_FALSE(call0.test_failed);
  const obs::MetricsSnapshot snapshot = telemetry.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "real.noop_answered"), 3u);
  EXPECT_EQ(CounterValue(snapshot, "real.noop_mismatch"), 0u);
  // Answered tests start nothing: only the two live runs counted an exit.
  EXPECT_EQ(CounterValue(snapshot, "real.exit_clean"), 2u);
}

TEST(NoopAnswerTest, APointWhoseWindowReachesTheCachedCountRunsLive) {
  RealTargetHarness harness(TxengineConfig(TempDir("noop_window")));
  obs::CampaignTelemetry telemetry{obs::TelemetryConfig{}};
  harness.set_metrics_sink(&telemetry);
  FaultSpace space = TxengineSpace(/*max_call=*/6);
  // fsync call 5 is test 1's last fsync: the plan fires, so the run is not
  // the test's fault-free run and the point runs every time it comes back.
  for (size_t i = 0; i < 2 * kNoopVerifyEvery; ++i) {
    TestOutcome outcome = harness.RunFault(space, MakeModeFault(space, 1, "fsync", 5, "drop_sync"));
    EXPECT_TRUE(outcome.fault_triggered);
  }
  EXPECT_EQ(harness.tests_answered(), 0u);
  // One past it cannot fire: the first such run is the fault-free run, the
  // second the determinism sample, the third is answered.
  for (int i = 0; i < 3; ++i) {
    harness.RunFault(space, MakeModeFault(space, 1, "fsync", 6, "drop_sync"));
  }
  EXPECT_EQ(harness.tests_answered(), 1u);
  // With the cache warm, call 5 still reaches the cached count: live.
  EXPECT_TRUE(harness.RunFault(space, MakeModeFault(space, 1, "fsync", 5, "kill_at")).fault_triggered);
  EXPECT_EQ(harness.tests_answered(), 1u);
  const obs::MetricsSnapshot snapshot = telemetry.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "real.noop_verified"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "real.noop_mismatch"), 0u);
}

TEST(NoopAnswerTest, NondeterministicTargetTripsMismatchAndRunsLive) {
  // Fixture scenario 12 fails with its pid and run count in the first line:
  // no two runs agree, in any exec mode.
  FaultSpace space({Axis::MakeInterval("test", 12, 12), Axis::MakeSet("function", {"open", "close"}),
                    Axis::MakeInterval("call", 0, 3)},
                   "real:nondeterministic");
  for (ExecMode mode : kAllModes) {
    SCOPED_TRACE(ModeLabel(mode));
    RealTargetConfig config;
    config.target_argv = {AFEX_PERSISTENT_FIXTURE_PATH, "{test}"};
    config.num_tests = 12;
    config.interposer_path = AFEX_INTERPOSER_PATH;
    config.work_root = TempDir("noop_mismatch");
    config.timeout_ms = 10000;
    config.exec_mode = mode;
    RealTargetHarness harness(config);
    obs::CampaignTelemetry telemetry{obs::TelemetryConfig{}};
    harness.set_metrics_sink(&telemetry);
    const TestOutcome baseline = harness.RunFault(space, Fault(std::vector<size_t>{0, 0, 0}));
    ASSERT_TRUE(baseline.test_failed);
    ASSERT_EQ(baseline.detail.rfind("pid ", 0), 0u) << baseline.detail;
    // The sampled no-op disagrees with the cache: the live run is the record.
    const TestOutcome sampled = harness.RunFault(space, Fault(std::vector<size_t>{0, 0, 2}));
    EXPECT_NE(sampled.detail, baseline.detail);
    EXPECT_EQ(CounterValue(telemetry.Snapshot(), "real.noop_mismatch"), 1u);
    // From then on every no-op of the test id runs live.
    const size_t later = 2 * kNoopVerifyEvery;
    for (size_t i = 0; i < later; ++i) {
      harness.RunFault(space, Fault(std::vector<size_t>{0, i % 2, 2 + i % 2}));
    }
    EXPECT_EQ(harness.tests_answered(), 0u);
    const obs::MetricsSnapshot snapshot = telemetry.Snapshot();
    EXPECT_EQ(CounterValue(snapshot, "real.exit_nonzero"), 2 + later);
    EXPECT_EQ(CounterValue(snapshot, "real.noop_mismatch"), 1u);
    EXPECT_EQ(CounterValue(snapshot, "real.noop_answered"), 0u);
  }
}

TEST(NoopAnswerTest, UntriggeredReadBackPointsNeverFailLive) {
  // Fixture scenario 6 writes 13 bytes, seeks back and reads them (exit 8 on
  // a stale read). A crash plan that never fires must leave that run
  // fault-free. A fresh harness per point runs every point live, so the
  // property is checked on real runs, not on answers.
  FaultSpace space({Axis::MakeInterval("test", 6, 6), Axis::MakeSet("function", {"write", "close"}),
                    Axis::MakeInterval("call", 1, 3), Axis::MakeInterval("retval", 20, 20),
                    Axis::MakeSet("mode", {"kill_at", "short_write", "drop_sync",
                                           "crash_after_rename"})},
                   "readback");
  std::vector<std::string> spawn_outcomes;
  for (ExecMode mode : kAllModes) {
    SCOPED_TRACE(ModeLabel(mode));
    RealTargetConfig config;
    config.target_argv = {AFEX_PERSISTENT_FIXTURE_PATH, "{test}"};
    config.num_tests = 6;
    config.interposer_path = AFEX_INTERPOSER_PATH;
    config.work_root = TempDir("noop_readback");
    config.timeout_ms = 10000;
    config.exec_mode = mode;
    std::vector<std::string> outcomes;
    size_t untriggered = 0;
    for (const Fault& point : AllPoints(space)) {
      RealTargetHarness harness(config);
      TestOutcome outcome = harness.RunFault(space, point);
      EXPECT_EQ(harness.tests_answered(), 0u);
      if (!outcome.fault_triggered) {
        ++untriggered;
        EXPECT_FALSE(outcome.test_failed) << point.ToString() << ": " << outcome.detail;
      }
      outcomes.push_back(SerializeOutcome(outcome));
    }
    EXPECT_EQ(outcomes.size(), 24u);
    EXPECT_GT(untriggered, 0u);
    if (mode == ExecMode::kSpawn) {
      spawn_outcomes = outcomes;
    } else {
      EXPECT_EQ(outcomes, spawn_outcomes);
    }
  }
}

// ---------------------------------------------------------------------------
// Crash-state answers: recover and verify are a function of what the
// workload left in the sandbox, so a crash state seen before gets its
// verdict without either process starting. Every answer must be the record
// a live run would have produced.
// ---------------------------------------------------------------------------

TEST(CrashStateAnswerTest, AnsweredOutcomesEqualLiveRunsInEveryMode) {
  // Under the undo log a power cut between two syncs leaves the last
  // synced state, so many kill_at and drop_sync points share a crash state.
  FaultSpace space({Axis::MakeInterval("test", 1, 2), Axis::MakeSet("function", {"write", "fsync"}),
                    Axis::MakeInterval("call", 1, 8), Axis::MakeInterval("retval", 20, 20),
                    Axis::MakeSet("mode", {"kill_at", "drop_sync"})},
                   "txengine-states");
  for (ExecMode mode : kAllModes) {
    SCOPED_TRACE(ModeLabel(mode));
    RealTargetConfig config = TxengineConfig(TempDir("state_equal"));
    config.exec_mode = mode;
    EXPECT_GT(ExpectAnswersEqualLiveRuns(config, space).crash_states, 0u);
    // A verifier that names the test it objects to: an answer for one test
    // id must never come from another's identical crash state.
    config.verify_argv = {"/bin/sh", "-c", "echo verifier objects to {test}; exit 3"};
    EXPECT_GT(ExpectAnswersEqualLiveRuns(config, space).crash_states, 0u);
  }
}

TEST(CrashStateAnswerTest, SameNamesAndSizesWithOtherBytesAreAnotherState) {
  // Fixture scenario 8 writes "0123456789", fsyncs, then overwrites from
  // offset 2. A power cut at that second write rolls u.dat back to
  // "0123456789"; a short write of 8 bytes there leaves "01abcdefgh". Same
  // name, mode and size, other bytes, and the verifier tells them apart.
  FaultSpace space({Axis::MakeInterval("test", 8, 8), Axis::MakeSet("function", {"write"}),
                    Axis::MakeInterval("call", 2, 2), Axis::MakeInterval("retval", 8, 8),
                    Axis::MakeSet("mode", {"kill_at", "short_write"})},
                   "same-size-states");
  const Fault power_cut(std::vector<size_t>{0, 0, 0, 0, 0});
  const Fault torn(std::vector<size_t>{0, 0, 0, 0, 1});
  for (ExecMode mode : kAllModes) {
    SCOPED_TRACE(ModeLabel(mode));
    RealTargetConfig config;
    config.target_argv = {AFEX_PERSISTENT_FIXTURE_PATH, "{test}"};
    config.verify_argv = {"/bin/sh", "-c", "grep -q abc u.dat || { echo no abc; exit 1; }"};
    config.num_tests = 8;
    config.interposer_path = AFEX_INTERPOSER_PATH;
    config.work_root = TempDir("state_bytes");
    config.timeout_ms = 10000;
    config.exec_mode = mode;
    RealTargetHarness harness(config);
    obs::CampaignTelemetry telemetry{obs::TelemetryConfig{}};
    harness.set_metrics_sink(&telemetry);
    // The power-cut state, run live and then sampled once: the next repeat
    // of it would be answered.
    std::vector<uint32_t> covered;
    for (int i = 0; i < 2; ++i) {
      const TestOutcome outcome = harness.RunFault(space, power_cut);
      EXPECT_TRUE(outcome.invariant_violated);
      covered.insert(covered.end(), outcome.new_block_ids.begin(), outcome.new_block_ids.end());
    }
    const TestOutcome answer = harness.RunFault(space, torn);
    EXPECT_FALSE(answer.invariant_violated) << answer.detail;
    RealTargetHarness fresh(config);
    fresh.SeedCoverage(covered);
    EXPECT_EQ(SerializeOutcome(answer), SerializeOutcome(fresh.RunFault(space, torn)));
    EXPECT_EQ(CounterValue(telemetry.Snapshot(), "real.state_mismatch"), 0u);
  }
}

TEST(CrashStateAnswerTest, NondeterministicRecoveryTripsMismatchAndRunsLive) {
  // Every recovery fails with a run count kept outside the sandbox in its
  // first line: no two runs on the same crash state agree.
  for (ExecMode mode : kAllModes) {
    SCOPED_TRACE(ModeLabel(mode));
    const std::string root = TempDir("state_mismatch");
    const std::string counter = (fs::path(root) / "recovery_runs").string();
    RealTargetConfig config = TxengineConfig((fs::path(root) / "work").string());
    config.exec_mode = mode;
    config.recovery_argv = {"/bin/sh", "-c",
                            "n=$(($(cat " + counter + " 2>/dev/null || echo 0) + 1)); echo $n > " +
                                counter + "; echo recovery run $n; exit 1"};
    RealTargetHarness harness(config);
    obs::CampaignTelemetry telemetry{obs::TelemetryConfig{}};
    harness.set_metrics_sink(&telemetry);
    FaultSpace space = TxengineSpace(/*max_call=*/40);
    // The fault fires every time, so the workload always runs live and
    // always leaves the same crash state.
    const Fault point = MakeModeFault(space, 1, "write", 12, "kill_at");
    const TestOutcome first = harness.RunFault(space, point);
    ASSERT_TRUE(first.recovery_failed);
    EXPECT_NE(first.detail.find("recovery failed: recovery run 1"), std::string::npos)
        << first.detail;
    // The first repeat is the determinism sample: it disagrees, and the
    // live verdict is the record.
    const TestOutcome sampled = harness.RunFault(space, point);
    EXPECT_NE(sampled.detail.find("recovery failed: recovery run 2"), std::string::npos)
        << sampled.detail;
    EXPECT_EQ(CounterValue(telemetry.Snapshot(), "real.state_mismatch"), 1u);
    // From then on the state runs recover live every time.
    const size_t later = 2 * kNoopVerifyEvery;
    for (size_t i = 0; i < later; ++i) {
      const TestOutcome outcome = harness.RunFault(space, point);
      EXPECT_NE(outcome.detail.find("recovery run " + std::to_string(3 + i)), std::string::npos)
          << outcome.detail;
    }
    EXPECT_EQ(harness.crash_states_answered(), 0u);
    const obs::MetricsSnapshot snapshot = telemetry.Snapshot();
    EXPECT_EQ(CounterValue(snapshot, "real.recovery_failed"), 2 + later);
    EXPECT_EQ(CounterValue(snapshot, "real.state_mismatch"), 1u);
    EXPECT_EQ(CounterValue(snapshot, "real.state_answered"), 0u);
    EXPECT_EQ(CounterValue(snapshot, "real.state_verified"), 0u);
  }
}

TEST(CrashStateAnswerTest, SandboxWithASubdirectoryOrFifoIsNeverAnswered) {
  // Fixture scenarios 13 and 14 leave a subdirectory or a FIFO beside
  // s.dat; scenario 7 leaves p.dat alone, the control. kill_at on the first
  // write fires every time, so each run leaves the same state.
  for (ExecMode mode : kAllModes) {
    SCOPED_TRACE(ModeLabel(mode));
    for (size_t test : {7, 13, 14}) {
      SCOPED_TRACE("scenario " + std::to_string(test));
      RealTargetConfig config;
      config.target_argv = {AFEX_PERSISTENT_FIXTURE_PATH, "{test}"};
      config.recovery_argv = {"/bin/sh", "-c", test == 7 ? "test -f p.dat" : "test -f s.dat"};
      config.verify_argv = {"/bin/sh", "-c", "ls"};
      config.num_tests = 14;
      config.interposer_path = AFEX_INTERPOSER_PATH;
      config.work_root = TempDir("state_unusual");
      config.timeout_ms = 10000;
      config.exec_mode = mode;
      RealTargetHarness harness(config);
      obs::CampaignTelemetry telemetry{obs::TelemetryConfig{}};
      harness.set_metrics_sink(&telemetry);
      const auto id = static_cast<int64_t>(test);
      FaultSpace space({Axis::MakeInterval("test", id, id), Axis::MakeSet("function", {"write"}),
                        Axis::MakeInterval("call", 1, 1), Axis::MakeInterval("retval", 0, 0),
                        Axis::MakeSet("mode", {"kill_at"})},
                       "unusual-sandbox");
      const Fault point(std::vector<size_t>{0, 0, 0, 0, 0});
      const size_t runs = 1 + kNoopVerifyEvery;
      for (size_t i = 0; i < runs; ++i) {
        const TestOutcome outcome = harness.RunFault(space, point);
        EXPECT_TRUE(outcome.fault_triggered);
        EXPECT_FALSE(outcome.recovery_failed) << outcome.detail;
        EXPECT_FALSE(outcome.invariant_violated) << outcome.detail;
      }
      const obs::MetricsSnapshot snapshot = telemetry.Snapshot();
      if (test == 7) {
        // One live run, then kNoopVerifyEvery repeats: the first is the
        // determinism sample, the rest are answered.
        EXPECT_EQ(harness.crash_states_answered(), runs - 2);
        EXPECT_EQ(CounterValue(snapshot, "real.state_verified"), 1u);
      } else {
        EXPECT_EQ(harness.crash_states_answered(), 0u);
        EXPECT_EQ(CounterValue(snapshot, "real.state_verified"), 0u);
      }
      EXPECT_EQ(CounterValue(snapshot, "real.state_mismatch"), 0u);
      EXPECT_EQ(CounterValue(snapshot, "real.recycle_leak"), 0u);
    }
  }
}

#ifdef AFEX_WALUTIL_COV_PATH

// ---------------------------------------------------------------------------
// SanitizerCoverage end to end: the instrumented walutil build streams real
// edges through the interposer. Gated on the toolchain supporting a
// -fsanitize-coverage mode (AFEX_WALUTIL_COV_PATH defined by CMake).
// ---------------------------------------------------------------------------

RealTargetConfig WalutilCovConfig(const std::string& work_root) {
  RealTargetConfig config = WalutilConfig(work_root);
  config.target_argv = {AFEX_WALUTIL_COV_PATH, "{test}"};
  config.use_edges = true;
  return config;
}

TEST(SancovCoverageTest, InstrumentedTargetStreamsRealEdges) {
  RealTargetHarness harness(WalutilCovConfig(TempDir("sancov_e2e")));
  obs::CampaignTelemetry telemetry{obs::TelemetryConfig{}};
  harness.set_metrics_sink(&telemetry);
  FaultSpace space = harness.MakeSpace(/*max_call=*/8);

  // First run: every edge the scenario touches is new, and all coverage
  // blocks live in the edge range (proxy slots are excluded in edges mode).
  TestOutcome first = harness.RunFault(space, MakeFault(space, 1, "send", 8));
  EXPECT_GT(first.new_blocks_covered, 0u);
  for (uint32_t id : first.new_block_ids) {
    EXPECT_GE(id, kEdgeBlockBase);
  }

  // Same scenario again: the child re-reports its edges (fresh process),
  // but none are new to the session.
  TestOutcome repeat = harness.RunFault(space, MakeFault(space, 1, "send", 8));
  EXPECT_EQ(repeat.new_blocks_covered, 0u);

  // A different scenario reaches different code: coverage keeps growing.
  TestOutcome other = harness.RunFault(space, MakeFault(space, 4, "send", 8));
  EXPECT_GT(other.new_blocks_covered, 0u);

  obs::MetricsSnapshot snapshot = telemetry.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "real.feedback_ok"), 3u);
  EXPECT_EQ(CounterValue(snapshot, "real.edges_missing"), 0u);
  EXPECT_EQ(GaugeValue(snapshot, "real.edges_total"),
            static_cast<double>(first.new_blocks_covered + other.new_blocks_covered));
  // The edge signal sized the coverage universe from the counter region.
  EXPECT_GT(harness.coverage_total_blocks(), kEdgeBlockBase);
}

TEST(SancovCoverageTest, UninstrumentedTargetCountsEdgesMissing) {
  // edges mode against the plain build: the interposer reports
  // edges_supported=0 and the harness counts the mismatch instead of
  // inventing coverage.
  RealTargetConfig config = WalutilConfig(TempDir("sancov_missing"));
  config.use_edges = true;
  RealTargetHarness harness(config);
  obs::CampaignTelemetry telemetry{obs::TelemetryConfig{}};
  harness.set_metrics_sink(&telemetry);
  FaultSpace space = harness.MakeSpace(/*max_call=*/8);
  TestOutcome outcome = harness.RunFault(space, MakeFault(space, 1, "send", 8));
  EXPECT_TRUE(outcome.new_block_ids.empty());
  obs::MetricsSnapshot snapshot = telemetry.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "real.edges_missing"), 1u);
}

TEST(SancovCoverageTest, EdgeFedCampaignRecordIdenticalAcrossExecModes) {
  // Edge-fed records must be identical across spawn and persistent
  // execution — cumulative sancov counters plus the child-side seen-bitmap
  // make persistent iterations report exactly what a fresh spawn would.
  const RealTargetConfig config = WalutilCovConfig(TempDir("sancov_eq"));
  ExpectRecordsEqualAcrossModes(config, RealTargetHarness(config).MakeSpace(/*max_call=*/6),
                                /*seed=*/23, /*budget=*/30);
}

TEST(SancovCoverageTest, AnsweredEdgeOutcomesEqualLiveRuns) {
  // Edge mode caches the fault-free run's edge list: an answer's new edges
  // are those a live run would add to the same coverage.
  FaultSpace space({Axis::MakeInterval("test", 1, 2), Axis::MakeSet("function", {"open", "close"}),
                    Axis::MakeSet("call", {"0", "2", "9"})},
                   "real:walutil_cov");
  for (ExecMode mode : kAllModes) {
    SCOPED_TRACE(ModeLabel(mode));
    RealTargetConfig config = WalutilCovConfig(TempDir("sancov_noop"));
    config.exec_mode = mode;
    EXPECT_GT(ExpectAnswersEqualLiveRuns(config, space).tests, 0u);
  }
}

TEST(SancovCoverageTest, AnalyzerDetectsInstrumentation) {
  std::string error;
  std::optional<analysis::TargetProfile> cov =
      analysis::AnalyzeTargetBinary(AFEX_WALUTIL_COV_PATH, error);
  ASSERT_TRUE(cov.has_value()) << error;
  EXPECT_TRUE(cov->sancov_instrumented);
  std::optional<analysis::TargetProfile> plain =
      analysis::AnalyzeTargetBinary(AFEX_WALUTIL_PATH, error);
  ASSERT_TRUE(plain.has_value()) << error;
  EXPECT_FALSE(plain->sancov_instrumented);
}

#endif  // AFEX_WALUTIL_COV_PATH

}  // namespace
}  // namespace exec
}  // namespace afex
