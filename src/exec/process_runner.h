// Fork/exec runner for real targets — the node manager's "start the system
// under test" script (paper §6.1) as a library. Runs one command in a
// sandbox working directory with LD_PRELOAD and the AFEX control
// environment set, captures combined stdout/stderr, enforces a wall-clock
// timeout with SIGTERM → SIGKILL escalation, and reports how the process
// died (exit code, terminating signal, or timeout).
#ifndef AFEX_EXEC_PROCESS_RUNNER_H_
#define AFEX_EXEC_PROCESS_RUNNER_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace afex {
namespace exec {

struct ProcessRequest {
  // argv[0] is the executable (resolved via PATH, execvp semantics).
  std::vector<std::string> argv;
  // Working directory for the child; must exist. Empty = inherit.
  std::string working_dir;
  // Extra environment (AFEX_PLAN, AFEX_FEEDBACK, ...), appended to the
  // inherited environment.
  std::vector<std::pair<std::string, std::string>> env;
  // Shared library to LD_PRELOAD into the child ("" = none).
  std::string preload;
  // Wall-clock budget. On expiry the child gets SIGTERM; if it is still
  // alive kill_grace_ms later, SIGKILL.
  uint64_t timeout_ms = 5000;
  uint64_t kill_grace_ms = 200;
  // Combined stdout+stderr capture cap; output beyond it is discarded (the
  // child keeps a writable pipe, so it never blocks on a full buffer).
  size_t max_output_bytes = 1 << 16;
};

struct ProcessResult {
  bool started = false;   // fork/exec plumbing succeeded
  bool exited = false;    // terminated via exit(); exit_code valid
  int exit_code = -1;
  int term_signal = 0;    // non-zero when terminated by a signal
  bool timed_out = false; // the runner had to kill it
  bool kill_escalated = false;  // SIGTERM grace expired; SIGKILL was sent
  std::string output;     // combined stdout+stderr, possibly truncated
  double wall_seconds = 0.0;
  // Timing breakdown on the obs::NowNs timebase, filled unconditionally
  // (three clock reads are noise next to a fork): spawn covers env
  // materialization through fork-return, wait covers the child's lifetime
  // until it is reaped.
  uint64_t spawn_start_ns = 0;
  uint64_t spawn_ns = 0;
  uint64_t wait_ns = 0;
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

// Drains whatever is readable right now from a nonblocking `fd` into `out`,
// up to `cap` total bytes (excess is read and discarded so the writer never
// blocks on a full pipe). Returns false once the pipe reports EOF.
bool DrainAvailable(int fd, std::string& out, size_t cap);

}  // namespace exec
}  // namespace afex

#endif  // AFEX_EXEC_PROCESS_RUNNER_H_
