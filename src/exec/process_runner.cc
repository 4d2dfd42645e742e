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

std::vector<std::string> MaterializeEnv(
    const std::vector<std::pair<std::string, std::string>>& env,
    const std::string& preload) {
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    env_strings.emplace_back(*e);
  }
  auto set_var = [&env_strings](const std::string& key, const std::string& value) {
    std::string prefix = key + "=";
    for (std::string& entry : env_strings) {
      if (entry.rfind(prefix, 0) == 0) {
        entry = prefix + value;
        return;
      }
    }
    env_strings.push_back(prefix + value);
  };
  for (const auto& [key, value] : env) {
    set_var(key, value);
  }
  if (!preload.empty()) {
    set_var("LD_PRELOAD", preload);
  }
  return env_strings;
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

ProcessResult RunProcess(const ProcessRequest& request) {
  ProcessResult result;
  result.spawn_start_ns = obs::NowNs();
  auto not_started = [&request, &result] {
    result.error = "failed to start " +
                   (request.argv.empty() ? std::string("<empty>") : request.argv[0]);
    return result;
  };
  if (request.argv.empty()) {
    return not_started();
  }

  // Everything the child needs is materialized BEFORE fork: with --jobs the
  // parent is multithreaded, so the child may only touch async-signal-safe
  // calls (dup2/chdir/execvpe) — no setenv, no allocation.
  std::vector<std::string> env_strings = MaterializeEnv(request.env, request.preload);
  std::vector<char*> envp;
  envp.reserve(env_strings.size() + 1);
  for (std::string& entry : env_strings) {
    envp.push_back(entry.data());
  }
  envp.push_back(nullptr);
  std::vector<char*> argv;
  argv.reserve(request.argv.size() + 1);
  for (const std::string& arg : request.argv) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  // Close-on-exec: a concurrent spawn's child must not hold this pipe open.
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return not_started();
  }

  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return not_started();
  }

  if (pid == 0) {
    // ---- child ----
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::dup2(pipe_fds[1], STDERR_FILENO);
    // Stdio only: descriptors this process opened without O_CLOEXEC (the
    // campaign journal, say) must not leak into the target.
    ::syscall(SYS_close_range, 3u, ~0u, 0u);
    if (!request.working_dir.empty() && ::chdir(request.working_dir.c_str()) != 0) {
      ::_exit(126);
    }
    ::execvpe(argv[0], argv.data(), envp.data());
    // exec failed: report via the conventional shell status.
    ::_exit(127);
  }

  // ---- parent ----
  ::close(pipe_fds[1]);
  ::fcntl(pipe_fds[0], F_SETFL, O_NONBLOCK);
  result.started = true;
  const uint64_t wait_start_ns = obs::NowNs();
  result.spawn_ns = wait_start_ns - result.spawn_start_ns;

  // One poll over {pidfd, output pipe} per wakeup, until the ladder's next
  // rung. Past its last rung the SIGKILLed child is waited for unbounded.
  ChildWatch child(pid);
  KillLadder ladder(request.timeout_ms);
  int pipe_fd = pipe_fds[0];  // -1 once the pipe reports EOF
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
  ::close(pipe_fds[0]);

  result.wait_ns = obs::NowNs() - wait_start_ns;
  result.timed_out = ladder.timed_out();
  result.kill_escalated = ladder.kill_escalated();
  DecodeWaitStatus(child.status(), result);
  return result;
}

}  // namespace exec
}  // namespace afex
