#include "exec/process_runner.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <climits>

#include "exec/forkserver_protocol.h"
#include "obs/metrics.h"

namespace afex {
namespace exec {

namespace {

constexpr uint64_t kNsPerMs = 1000 * 1000;

int OpenPidfd(pid_t pid) {
#ifdef SYS_pidfd_open
  // pidfd_open's fds are close-on-exec, so concurrent spawns never inherit them.
  return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
  (void)pid;
  return -1;
#endif
}

// The child's environment: the inherited one with `env` overrides applied
// and LD_PRELOAD set to `preload` (when non-empty).
std::vector<std::string> MaterializeEnv(
    const std::vector<std::pair<std::string, std::string>>& env, const std::string& preload) {
  std::vector<std::string> out;
  for (char** e = environ; *e != nullptr; ++e) {
    out.emplace_back(*e);
  }
  auto set_var = [&out](const std::string& key, const std::string& value) {
    std::string entry = key + "=" + value;
    const size_t prefix = key.size() + 1;  // "KEY="
    for (std::string& existing : out) {
      if (existing.compare(0, prefix, entry, 0, prefix) == 0) {
        existing = std::move(entry);
        return;
      }
    }
    out.push_back(std::move(entry));
  };
  for (const auto& [key, value] : env) {
    set_var(key, value);
  }
  if (!preload.empty()) {
    set_var("LD_PRELOAD", preload);
  }
  return out;
}

// Where a server's protocol pipe ends are lifted before they are pinned:
// clear of stdio and of kForkserverCtlFd/kForkserverStatusFd.
constexpr int kLiftedFd = 210;
static_assert(kLiftedFd > kForkserverStatusFd &&
              kForkserverStatusFd == kForkserverCtlFd + 1);

}  // namespace

ChildWatch::ChildWatch(pid_t pid) : pid_(pid), pidfd_(OpenPidfd(pid)) {}

ChildWatch::~ChildWatch() {
  if (pidfd_ >= 0) {
    ::close(pidfd_);
  }
}

int PollTimeoutMs(uint64_t deadline_ns) {
  if (deadline_ns == ChildWatch::kNoDeadline) {
    return -1;
  }
  const uint64_t now = obs::NowNs();
  const uint64_t left_ms =
      now >= deadline_ns ? 0 : (deadline_ns - now + kNsPerMs - 1) / kNsPerMs;
  return static_cast<int>(std::min<uint64_t>(left_ms, INT_MAX));
}

void DecodeWaitStatus(int status, ProcessResult& result) {
  if (status >= 0 && WIFEXITED(status)) {
    result.exited = true;
    result.exit_code = WEXITSTATUS(status);
  } else if (status >= 0 && WIFSIGNALED(status)) {
    result.term_signal = WTERMSIG(status);
  }
}

KillLadder::KillLadder(uint64_t timeout_ms) {
  deadlines_[0] = obs::NowNs() + timeout_ms * kNsPerMs;
  deadlines_[1] = deadlines_[0] + kKillGraceMs * kNsPerMs;
  deadlines_[2] = deadlines_[1] + kWedgedMs * kNsPerMs;
}

uint64_t KillLadder::Advance(pid_t victim) {
  const uint64_t now = obs::NowNs();
  for (; rung_ < 3 && now >= deadlines_[rung_]; ++rung_) {
    // The pid can come from a forkserver's message: never let a garbage
    // value reach kill(2) as "every process" or "this process group".
    if (rung_ < 2 && victim > 0) {
      ::kill(victim, rung_ == 0 ? SIGTERM : SIGKILL);
    }
  }
  return rung_ < 3 ? deadlines_[rung_] : ChildWatch::kNoDeadline;
}

bool ChildWatch::Wait(int fd, uint64_t deadline_ns, bool& fd_ready) {
  int timeout_ms = PollTimeoutMs(deadline_ns);
  if (pidfd_ < 0 && (timeout_ms < 0 || timeout_ms > 1)) {
    timeout_ms = 1;  // no exit notification: probe for it on a 1 ms tick
  }
  struct pollfd fds[2] = {{fd, POLLIN, 0}, {pidfd_, POLLIN, 0}};
  const int ready = ::poll(fds, 2, timeout_ms);
  fd_ready = ready > 0 && fds[0].revents != 0;
  if (pidfd_ >= 0 && (ready <= 0 || fds[1].revents == 0)) {
    return false;
  }
  // A readable pidfd means the child is a zombie, so the blocking waitpid
  // returns at once; without a pidfd, probe.
  pid_t reaped = 0;
  do {
    reaped = ::waitpid(pid_, &status_, pidfd_ >= 0 ? 0 : WNOHANG);
  } while (reaped < 0 && errno == EINTR);
  return reaped == pid_ || reaped < 0;  // < 0: nothing left to wait for
}

bool DrainAvailable(int fd, std::string& out, size_t cap) {
  char buf[4096];
  while (true) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      if (out.size() < cap) {
        out.append(buf, buf + std::min<size_t>(static_cast<size_t>(n), cap - out.size()));
      }
      continue;
    }
    if (n == 0) {
      return false;  // EOF: write end fully closed
    }
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }
}

bool IsCrashSignal(int signal) {
  switch (signal) {
    case SIGSEGV:
    case SIGABRT:
    case SIGBUS:
    case SIGFPE:
    case SIGILL:
    case SIGTRAP:
      return true;
    default:
      return false;
  }
}

pid_t LaunchProcess(const ProcessRequest& request, int& output, int server_ctl,
                    int server_status) {
  if (request.argv.empty()) {
    return -1;
  }
  // Everything the child needs is built before vfork: the child shares this
  // process's memory, so it may only make async-signal-safe calls
  // (dup2/chdir/execvpe), with no allocation. Plain locals are safe, with
  // --jobs too: vfork suspends this thread until its child has exec'd or
  // exited.
  std::vector<std::string> env_strings = MaterializeEnv(request.env, request.preload);
  std::vector<char*> envp;
  for (std::string& entry : env_strings) {
    envp.push_back(entry.data());
  }
  envp.push_back(nullptr);
  std::vector<char*> argv;
  for (const std::string& arg : request.argv) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  // Close-on-exec: a concurrent launch's child must not hold this pipe open.
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    return -1;
  }
  // Every signal stays blocked until the child has reset its handlers: a
  // handler run in the child would run on the parent's memory.
  sigset_t all;
  sigset_t old_mask;
  ::sigfillset(&all);
  ::pthread_sigmask(SIG_SETMASK, &all, &old_mask);
  const pid_t pid = ::vfork();
  if (pid == 0) {
    // ---- child: async-signal-safe calls only, on the parent's memory ----
    // Handlers back to SIG_DFL (exec resets them anyway), then the parent's
    // mask again.
    for (int sig = 1; sig < NSIG; ++sig) {
      struct sigaction action = {};
      if (::sigaction(sig, nullptr, &action) == 0 && action.sa_handler != SIG_DFL &&
          action.sa_handler != SIG_IGN) {
        action.sa_handler = SIG_DFL;
        action.sa_flags = 0;
        ::sigaction(sig, &action, nullptr);
      }
    }
    ::pthread_sigmask(SIG_SETMASK, &old_mask, nullptr);
    const bool server = server_ctl >= 0;
    // Lift a server's ends clear of the protocol fds before pinning them, so
    // a pipe() that happened to return 198/199 cannot be clobbered.
    const int ctl = server ? ::fcntl(server_ctl, F_DUPFD, kLiftedFd) : -1;
    const int status = server ? ::fcntl(server_status, F_DUPFD, kLiftedFd) : -1;
    ::dup2(out[1], STDOUT_FILENO);
    ::dup2(out[1], STDERR_FILENO);
    if (server && (ctl < 0 || status < 0 || ::dup2(ctl, kForkserverCtlFd) < 0 ||
                   ::dup2(status, kForkserverStatusFd) < 0)) {
      ::_exit(127);
    }
    // Stdio (and a server's protocol fds) only: descriptors this process
    // opened without O_CLOEXEC (the campaign journal, say) must not leak
    // into the target.
    if (server) {
      ::syscall(SYS_close_range, 3u, kForkserverCtlFd - 1u, 0u);
    }
    ::syscall(SYS_close_range, server ? kForkserverStatusFd + 1u : 3u, ~0u, 0u);
    if (!request.working_dir.empty() && ::chdir(request.working_dir.c_str()) != 0) {
      ::_exit(126);
    }
    ::execvpe(argv[0], argv.data(), envp.data());
    // exec failed: report via the conventional shell status.
    ::_exit(127);
  }

  // ---- parent: resumed once the child has exec'd or exited ----
  ::pthread_sigmask(SIG_SETMASK, &old_mask, nullptr);
  ::close(out[1]);
  if (pid < 0) {
    ::close(out[0]);
    return -1;
  }
  ::fcntl(out[0], F_SETFL, O_NONBLOCK);
  output = out[0];
  return pid;
}

ProcessResult RunProcess(const ProcessRequest& request) {
  ProcessResult result;
  result.spawn_start_ns = obs::NowNs();
  int output = -1;
  const pid_t pid = LaunchProcess(request, output);
  if (pid < 0) {
    result.error = "failed to start " +
                   (request.argv.empty() ? std::string("<empty>") : request.argv[0]);
    return result;
  }
  result.started = true;
  const uint64_t wait_start_ns = obs::NowNs();
  result.spawn_ns = wait_start_ns - result.spawn_start_ns;

  // One poll over {pidfd, output pipe} per wakeup, until the ladder's next
  // rung. Past its last rung the SIGKILLed child is waited for unbounded.
  ChildWatch child(pid);
  KillLadder ladder(request.timeout_ms);
  int pipe_fd = output;  // -1 once the pipe reports EOF
  while (true) {
    bool pipe_ready = false;
    if (child.Wait(pipe_fd, ladder.Advance(pid), pipe_ready)) {
      break;
    }
    if (pipe_ready && !DrainAvailable(pipe_fd, result.output, kMaxOutputBytes)) {
      pipe_fd = -1;
    }
  }

  // Collect output written before exit that we have not read yet. A
  // grandchild may still hold the pipe; it is not waited for.
  if (pipe_fd >= 0) {
    DrainAvailable(pipe_fd, result.output, kMaxOutputBytes);
  }
  ::close(output);

  result.wait_ns = obs::NowNs() - wait_start_ns;
  result.timed_out = ladder.timed_out();
  result.kill_escalated = ladder.kill_escalated();
  DecodeWaitStatus(child.status(), result);
  return result;
}

}  // namespace exec
}  // namespace afex
