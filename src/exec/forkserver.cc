#include "exec/forkserver.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <mutex>

#include "exec/process_runner.h"

namespace afex {
namespace exec {

namespace {

constexpr uint64_t kNsPerMs = 1000 * 1000;

// How long a server gets to exit on control-pipe EOF before SIGKILL.
constexpr uint64_t kShutdownGraceMs = 2000;

// Budget for spawn → Hello (covers execve + ld.so + interposer init) and
// for the server to report a forked child's pid.
constexpr uint64_t kHandshakeTimeoutMs = 10000;

uint64_t HandshakeDeadline() { return obs::NowNs() + kHandshakeTimeoutMs * kNsPerMs; }

// A test that never ran; `why` becomes ProcessResult::error.
ProcessResult NotStarted(std::string why) {
  ProcessResult result;
  result.error = std::move(why);
  return result;
}

bool WriteAll(int fd, const void* buf, size_t len) {
  const char* p = static_cast<const char*>(buf);
  size_t put = 0;
  while (put < len) {
    ssize_t n = ::write(fd, p + put, len - put);
    if (n > 0) {
      put += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

void CloseFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

ForkserverClient::ForkserverClient(ForkserverOptions options)
    : options_(std::move(options)) {}

ForkserverClient::~ForkserverClient() { Shutdown(); }

bool ForkserverClient::SpawnServer(std::string& error) {
  // Request writes race against server death by design; the failure must
  // come back as EPIPE, not as a fatal signal to the campaign process.
  static std::once_flag sigpipe_once;
  std::call_once(sigpipe_once, [] { ::signal(SIGPIPE, SIG_IGN); });

  if (options_.argv.empty()) {
    error = "forkserver: empty target argv";
    return false;
  }
  if (options_.preload.empty()) {
    error = "forkserver: no interposer to preload";
    return false;
  }

  std::vector<std::pair<std::string, std::string>> env = options_.env;
  env.emplace_back(kForkserverEnvVar, kForkserverEnvServe);
  std::vector<std::string> env_strings = MaterializeEnv(env, options_.preload);
  std::vector<char*> envp;
  envp.reserve(env_strings.size() + 1);
  for (std::string& entry : env_strings) {
    envp.push_back(entry.data());
  }
  envp.push_back(nullptr);
  std::vector<char*> argv;
  argv.reserve(options_.argv.size() + 1);
  for (const std::string& arg : options_.argv) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  // Close-on-exec, so a concurrent spawn (another --jobs node) never
  // inherits an end: a status-pipe write end held elsewhere would keep this
  // server's death from ever reading as EOF.
  int ctl[2] = {-1, -1};
  int status[2] = {-1, -1};
  int out[2] = {-1, -1};
  if (::pipe2(ctl, O_CLOEXEC) != 0 || ::pipe2(status, O_CLOEXEC) != 0 ||
      ::pipe2(out, O_CLOEXEC) != 0) {
    for (int fd : {ctl[0], ctl[1], status[0], status[1], out[0], out[1]}) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
    error = "forkserver: pipe() failed";
    return false;
  }

  pid_t pid = ::fork();
  if (pid < 0) {
    for (int fd : {ctl[0], ctl[1], status[0], status[1], out[0], out[1]}) {
      ::close(fd);
    }
    error = "forkserver: fork() failed";
    return false;
  }

  if (pid == 0) {
    // ---- child (the server-to-be): async-signal-safe calls only ----
    // Lift the server ends clear of the protocol fds before pinning them,
    // so a pipe() that happened to return 198/199 cannot be clobbered.
    int ctl_r = ::fcntl(ctl[0], F_DUPFD, 210);
    int status_w = ::fcntl(status[1], F_DUPFD, 210);
    if (ctl_r < 0 || status_w < 0) {
      ::_exit(127);
    }
    ::dup2(out[1], STDOUT_FILENO);
    ::dup2(out[1], STDERR_FILENO);
    if (::dup2(ctl_r, kForkserverCtlFd) < 0 ||
        ::dup2(status_w, kForkserverStatusFd) < 0) {
      ::_exit(127);
    }
    // Stdio and the protocol fds only (exec/forkserver_protocol.h).
    static_assert(kForkserverStatusFd == kForkserverCtlFd + 1);
    ::syscall(SYS_close_range, 3u, kForkserverCtlFd - 1u, 0u);
    ::syscall(SYS_close_range, kForkserverStatusFd + 1u, ~0u, 0u);
    if (!options_.working_dir.empty() &&
        ::chdir(options_.working_dir.c_str()) != 0) {
      ::_exit(126);
    }
    ::execvpe(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }

  // ---- parent ----
  ::close(ctl[0]);
  ::close(status[1]);
  ::close(out[1]);
  ctl_write_ = ctl[1];
  status_read_ = status[0];
  out_read_ = out[0];
  ::fcntl(status_read_, F_SETFL, O_NONBLOCK);
  ::fcntl(out_read_, F_SETFL, O_NONBLOCK);
  server_pid_ = pid;
  msg_have_ = 0;
  return true;
}

void ForkserverClient::DrainOutput() {
  // On EOF (the target closed fds 1 and 2) the pipe leaves the poll set:
  // left in, it would report POLLHUP forever and spin WaitMsg.
  if (out_read_ >= 0 && !DrainAvailable(out_read_, output_, kMaxOutputBytes)) {
    CloseFd(out_read_);
  }
}

ForkserverClient::Wait ForkserverClient::WaitMsg(FsMsg& msg, uint64_t deadline_ns) {
  while (true) {
    ssize_t n = ::read(status_read_, msg_buf_ + msg_have_, sizeof(FsMsg) - msg_have_);
    if (n > 0) {
      msg_have_ += static_cast<size_t>(n);
      if (msg_have_ == sizeof(FsMsg)) {
        std::memcpy(&msg, msg_buf_, sizeof(FsMsg));
        msg_have_ = 0;
        return Wait::kMsg;
      }
      continue;
    }
    if (n == 0) {
      // EOF: the server and its live child hold the write end, and the
      // child dies with the server. A descendant the child fork()ed
      // without exec() also holds it and delays this until it exits.
      return Wait::kDeath;
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return Wait::kDeath;
    }
    const int timeout_ms = PollTimeoutMs(deadline_ns);
    if (timeout_ms == 0) {
      return Wait::kTimeout;
    }
    struct pollfd fds[2] = {{status_read_, POLLIN, 0}, {out_read_, POLLIN, 0}};
    ::poll(fds, 2, timeout_ms);
    // Keep the output pipe moving: a child that writes more than the pipe
    // buffer would otherwise deadlock against the server's waitpid.
    DrainOutput();
  }
}

ForkserverClient::Wait ForkserverClient::AwaitStatus(uint32_t seq, KillLadder& ladder,
                                                     FsMsg& msg) {
  while (true) {
    const uint64_t deadline = ladder.Advance(child_pid_);
    if (ladder.wedged()) {
      KillServer();  // the server itself is stuck; nothing more to learn from it
      return Wait::kTimeout;
    }
    switch (WaitMsg(msg, deadline)) {
      case Wait::kMsg:
        if (msg.magic == kFsMsgMagic && msg.seq == seq &&
            (msg.kind == static_cast<uint32_t>(FsMsgKind::kIterStatus) ||
             msg.kind == static_cast<uint32_t>(FsMsgKind::kChildStatus))) {
          return Wait::kMsg;
        }
        KillServer();
        return Wait::kDesync;
      case Wait::kDeath:
        return Wait::kDeath;
      default:
        break;  // the next rung is due
    }
  }
}

ProcessResult ForkserverClient::Observe(const KillLadder& ladder, int status) {
  ProcessResult result;
  result.started = true;
  result.timed_out = ladder.timed_out();
  result.kill_escalated = ladder.kill_escalated();
  DecodeWaitStatus(status, result);
  DrainOutput();
  result.output = output_;
  return result;
}

bool ForkserverClient::WriteRequest(uint32_t test_id, uint32_t seq) {
  FsRequest req;
  req.magic = kFsRequestMagic;
  req.test_seq = seq;
  req.test_id = test_id;
  return WriteAll(ctl_write_, &req, sizeof(req));
}

int ForkserverClient::NoteServerDeath() {
  int status = -1;
  if (server_pid_ > 0) {
    pid_t r;
    do {
      r = ::waitpid(server_pid_, &status, 0);
    } while (r < 0 && errno == EINTR);
    if (r != server_pid_) {
      status = -1;
    }
  }
  server_pid_ = -1;
  child_pid_ = -1;  // killed with its server (PR_SET_PDEATHSIG)
  CloseFd(ctl_write_);
  CloseFd(status_read_);
  CloseFd(out_read_);
  msg_have_ = 0;
  return status;
}

void ForkserverClient::KillServer() {
  if (server_pid_ > 0) {
    ::kill(server_pid_, SIGKILL);
  }
  NoteServerDeath();
}

void ForkserverClient::Shutdown() {
  if (server_pid_ > 0) {
    // EOF on the control pipe is the graceful-stop signal: a live persistent
    // child returns into the target's main, then the server loop _exits.
    CloseFd(ctl_write_);
    ChildWatch server(server_pid_);
    const uint64_t deadline = obs::NowNs() + kShutdownGraceMs * kNsPerMs;
    bool unused = false;
    while (obs::NowNs() < deadline) {
      if (server.Wait(-1, deadline, unused)) {
        server_pid_ = -1;
        break;
      }
    }
  }
  KillServer();  // no-op when already reaped; closes the remaining fds
}

bool ForkserverClient::EnsureServer(std::string& error) {
  if (server_pid_ > 0) {
    return true;
  }
  obs::PhaseTimer timer(metrics_, obs::Phase::kRealFsRestart);
  const bool respawn = generations_ > 0;
  if (!SpawnServer(error)) {
    return false;
  }
  if (!ReadHello(error)) {
    KillServer();
    return false;
  }
  ++generations_;
  if (respawn) {
    ++restarts_;
    if (metrics_ != nullptr) {
      metrics_->AddCounter("real.fs_restarts", 1);
    }
  }
  return true;
}

bool ForkserverClient::ReadHello(std::string& error) {
  FsMsg msg;
  const Wait w = WaitMsg(msg, HandshakeDeadline());
  if (w == Wait::kDeath) {
    error = "forkserver: server died before handshake (target missing or "
            "interposer not preloaded?)";
    return false;
  }
  if (w == Wait::kTimeout) {
    error = "forkserver: handshake timeout";
    return false;
  }
  if (msg.magic != kFsMsgMagic ||
      msg.kind != static_cast<uint32_t>(FsMsgKind::kHello) ||
      msg.value != static_cast<int32_t>(kForkserverProtocolVersion)) {
    error = "forkserver: bad hello (magic/version mismatch)";
    return false;
  }
  return true;
}

ProcessResult ForkserverClient::RunTest(uint32_t test_id, uint32_t seq) {
  output_.clear();
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::string error;
    if (!EnsureServer(error)) {
      return NotStarted(error);
    }
    if (!WriteRequest(test_id, seq)) {
      KillServer();  // a failed write does not prove the server is gone
      continue;
    }
    if (child_pid_ < 0) {
      // No live child: the server forks one for this request.
      FsMsg msg;
      Wait w = WaitMsg(msg, HandshakeDeadline());
      if (w == Wait::kDeath) {
        NoteServerDeath();
        continue;
      }
      if (w == Wait::kTimeout || msg.magic != kFsMsgMagic || msg.seq != seq) {
        KillServer();
        continue;
      }
      if (msg.kind == static_cast<uint32_t>(FsMsgKind::kChildStatus) && msg.value == -1) {
        return NotStarted("forkserver: server could not fork a child");
      }
      if (msg.kind != static_cast<uint32_t>(FsMsgKind::kChildPid)) {
        KillServer();
        continue;
      }
      child_pid_ = static_cast<pid_t>(msg.value);
    }
    KillLadder ladder(options_.timeout_ms);
    FsMsg msg;
    switch (AwaitStatus(seq, ladder, msg)) {
      case Wait::kMsg:
        if (msg.kind == static_cast<uint32_t>(FsMsgKind::kIterStatus)) {
          return Observe(ladder, W_EXITCODE(msg.value & 0xff, 0));  // child stays live
        }
        child_pid_ = -1;  // reaped by the server
        return Observe(ladder, msg.value);
      case Wait::kDeath:
        NoteServerDeath();
        continue;
      case Wait::kTimeout:
        return Observe(ladder, W_EXITCODE(0, SIGKILL));
      case Wait::kDesync:
        continue;
    }
  }
  return NotStarted("forkserver: unavailable after restart");
}

}  // namespace exec
}  // namespace afex
