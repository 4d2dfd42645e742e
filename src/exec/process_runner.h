// Fork/exec runner for real targets — the node manager's "start the system
// under test" script (paper §6.1) as a library. Runs one command in a
// sandbox working directory with LD_PRELOAD and AFEX_FEEDBACK set (the
// block that file holds carries the test's fault plan, exec/fault_plan.h),
// captures combined stdout/stderr, enforces a wall-clock
// timeout through the KillLadder every exec mode shares, and reports how
// the process died (exit code, terminating signal, or timeout) as the
// ProcessResult every exec mode returns.
#ifndef AFEX_EXEC_PROCESS_RUNNER_H_
#define AFEX_EXEC_PROCESS_RUNNER_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace afex {
namespace exec {

// Combined stdout+stderr capture cap of every exec mode; output beyond it
// is read and discarded (the child keeps a writable pipe, so it never
// blocks on a full buffer).
inline constexpr size_t kMaxOutputBytes = 1 << 16;

struct ProcessRequest {
  // argv[0] is the executable (resolved via PATH, execvp semantics).
  std::vector<std::string> argv;
  // Working directory for the child; must exist. Empty = inherit.
  std::string working_dir;
  // Extra environment (AFEX_FEEDBACK, ...), appended to the inherited
  // environment.
  std::vector<std::pair<std::string, std::string>> env;
  // Shared library to LD_PRELOAD into the child ("" = none).
  std::string preload;
  // Wall-clock budget, enforced by a KillLadder. The child starts with
  // stdio only: every other descriptor of this process is closed in it.
  uint64_t timeout_ms = 5000;
};

// How one test's process ended, in every exec mode: RunProcess (spawn),
// and ForkserverClient::RunTest (a server child or a persistent iteration).
struct ProcessResult {
  bool started = false;   // the process (or server round trip) ran
  std::string error;      // why started == false
  bool exited = false;    // terminated via exit(); exit_code valid
  int exit_code = -1;
  int term_signal = 0;    // non-zero when terminated by a signal
  bool timed_out = false; // the ladder had to signal it
  bool kill_escalated = false;  // SIGTERM grace expired; SIGKILL was sent
  std::string output;     // combined stdout+stderr, possibly truncated
  // Spawn-mode timing on the obs::NowNs timebase, filled unconditionally
  // (three clock reads are noise next to a fork): spawn covers env
  // materialization through fork-return, wait covers the child's lifetime
  // until it is reaped.
  uint64_t spawn_start_ns = 0;
  uint64_t spawn_ns = 0;
  uint64_t wait_ns = 0;
};

// Records a waitpid status in `result`: exited + exit_code, or
// term_signal. A negative status (the process was reaped elsewhere) says
// nothing and leaves both unset.
void DecodeWaitStatus(int status, ProcessResult& result);

// The one timeout policy of every exec mode: SIGTERM at timeout_ms,
// SIGKILL kKillGraceMs later, and kWedgedMs after the SIGKILL the victim
// counts as wedged (a forkserver that never reports its child's death).
// Deadlines are on the obs::NowNs timebase, counted from construction.
class KillLadder {
 public:
  static constexpr uint64_t kKillGraceMs = 200;
  static constexpr uint64_t kWedgedMs = 2000;

  explicit KillLadder(uint64_t timeout_ms);

  // Sends `victim` every signal that is due by now and returns the
  // deadline of the next rung: the SIGTERM, the SIGKILL, then the wedge
  // deadline; ChildWatch::kNoDeadline once wedged.
  uint64_t Advance(pid_t victim);
  bool timed_out() const { return rung_ > 0; }
  bool kill_escalated() const { return rung_ > 1; }
  bool wedged() const { return rung_ > 2; }

 private:
  uint64_t deadlines_[3] = {};  // SIGTERM, SIGKILL, wedged
  int rung_ = 0;           // rungs passed
};

ProcessResult RunProcess(const ProcessRequest& request);

// True when `signal` is one of the crash signals (SEGV, ABRT, BUS, FPE,
// ILL, TRAP) — the classification the harness maps to TestOutcome::crashed.
bool IsCrashSignal(int signal);

// Child-environment materialization shared by RunProcess and the forkserver
// client (exec/forkserver.h): inherited environment with `env` overrides
// applied and LD_PRELOAD set to `preload` (when non-empty). Built entirely
// pre-fork because with --jobs the parent is multithreaded and the forked
// child may only touch async-signal-safe calls.
std::vector<std::string> MaterializeEnv(
    const std::vector<std::pair<std::string, std::string>>& env,
    const std::string& preload);

// Event-driven wait on one forked child. A pidfd (pidfd_open, Linux >= 5.3)
// polls readable the moment the child exits, so each Wait is one poll over
// {pidfd, the caller's fd} that sleeps until something actually happens —
// no fixed-interval probing, and the child is reaped on exit rather than at
// pipe EOF (a grandchild may hold the pipe) or at a timeout. Where
// pidfd_open fails (old kernel, seccomp) the pidfd's slot becomes a 1 ms
// reap tick, so a wait can neither hang nor overshoot its deadline.
class ChildWatch {
 public:
  static constexpr uint64_t kNoDeadline = UINT64_MAX;

  explicit ChildWatch(pid_t pid);
  ~ChildWatch();
  ChildWatch(const ChildWatch&) = delete;
  ChildWatch& operator=(const ChildWatch&) = delete;

  // Sleeps until the child exits, `fd` (skipped when negative) turns
  // readable or hangs up, or `deadline_ns` (obs::NowNs timebase) passes.
  // Returns true once the child is reaped; status() then holds its waitpid
  // status (-1 if it was already gone). `fd_ready` reports whether `fd`
  // woke the call.
  bool Wait(int fd, uint64_t deadline_ns, bool& fd_ready);
  int status() const { return status_; }

 private:
  pid_t pid_;
  int pidfd_;
  int status_ = -1;
};

// poll(2) timeout for an obs::NowNs deadline: milliseconds left, rounded
// up and clamped; 0 once the deadline has passed, -1 (no timeout) for
// ChildWatch::kNoDeadline.
int PollTimeoutMs(uint64_t deadline_ns);

// Drains whatever is readable right now from a nonblocking `fd` into `out`,
// up to `cap` total bytes (excess is read and discarded so the writer never
// blocks on a full pipe). Returns false once the pipe reports EOF.
bool DrainAvailable(int fd, std::string& out, size_t cap);

}  // namespace exec
}  // namespace afex

#endif  // AFEX_EXEC_PROCESS_RUNNER_H_
