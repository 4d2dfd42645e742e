#include "exec/forkserver.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstring>
#include <mutex>

#include "exec/process_runner.h"

namespace afex {
namespace exec {

namespace {

using Clock = std::chrono::steady_clock;

// How long a server gets to exit on control-pipe EOF before SIGKILL.
constexpr uint64_t kShutdownGraceMs = 2000;

uint64_t ElapsedMs(Clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - since)
          .count());
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
  env.emplace_back(kForkserverEnvVar, options_.persistent ? kForkserverEnvPersistent
                                                          : kForkserverEnvFork);
  // Plans travel over the pipe; a leaked AFEX_PLAN from the outer
  // environment must not arm anything.
  env.emplace_back("AFEX_PLAN", "");
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

  int ctl[2] = {-1, -1};
  int status[2] = {-1, -1};
  int out[2] = {-1, -1};
  if (::pipe(ctl) != 0 || ::pipe(status) != 0 || ::pipe(out) != 0) {
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
    for (int fd : {ctl[0], ctl[1], status[0], status[1], out[0], out[1], ctl_r,
                   status_w}) {
      if (fd > STDERR_FILENO && fd != kForkserverCtlFd && fd != kForkserverStatusFd) {
        ::close(fd);
      }
    }
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
  // Future spawns (other workers in this process) must not inherit our ends.
  ::fcntl(ctl_write_, F_SETFD, FD_CLOEXEC);
  ::fcntl(status_read_, F_SETFD, FD_CLOEXEC);
  ::fcntl(out_read_, F_SETFD, FD_CLOEXEC);
  ::fcntl(status_read_, F_SETFL, O_NONBLOCK);
  ::fcntl(out_read_, F_SETFL, O_NONBLOCK);
  server_pid_ = pid;
  msg_have_ = 0;
  persistent_acked_ = false;
  iterations_ = 0;
  death_status_valid_ = false;
  return true;
}

void ForkserverClient::DrainOutput() {
  // On EOF (the target closed fds 1 and 2) the pipe leaves the poll set:
  // left in, it would report POLLHUP forever and spin WaitMsg.
  if (out_read_ >= 0 && !DrainAvailable(out_read_, output_, options_.max_output_bytes)) {
    CloseFd(out_read_);
  }
}

ForkserverClient::Wait ForkserverClient::WaitMsg(FsMsg& msg, uint64_t deadline_ms) {
  const Clock::time_point start = Clock::now();
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
      return Wait::kDeath;  // EOF: only the server holds the write end
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return Wait::kDeath;
    }
    uint64_t elapsed = ElapsedMs(start);
    if (elapsed >= deadline_ms) {
      return Wait::kTimeout;
    }
    uint64_t remaining = deadline_ms - elapsed;
    struct pollfd fds[2] = {{status_read_, POLLIN, 0}, {out_read_, POLLIN, 0}};
    ::poll(fds, 2, static_cast<int>(std::min<uint64_t>(remaining, INT_MAX)));
    // Keep the output pipe moving: a child that writes more than the pipe
    // buffer would otherwise deadlock against the server's waitpid.
    DrainOutput();
  }
}

bool ForkserverClient::WriteRequest(uint32_t test_id, const std::vector<FsPlanEntry>& entries,
                                    uint32_t seq) {
  char buf[sizeof(FsRequest) + kFsMaxPlans * sizeof(FsPlanEntry)];
  FsRequest req;
  req.magic = kFsRequestMagic;
  req.test_seq = seq;
  req.test_id = test_id;
  req.plan_count = static_cast<uint32_t>(entries.size());
  std::memcpy(buf, &req, sizeof(req));
  std::memcpy(buf + sizeof(req), entries.data(), entries.size() * sizeof(FsPlanEntry));
  return WriteAll(ctl_write_, buf, sizeof(req) + entries.size() * sizeof(FsPlanEntry));
}

void ForkserverClient::NoteServerDeath() {
  if (server_pid_ > 0) {
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(server_pid_, &status, 0);
    } while (r < 0 && errno == EINTR);
    if (r == server_pid_) {
      last_death_status_ = status;
      death_status_valid_ = true;
    }
  }
  server_pid_ = -1;
  CloseFd(ctl_write_);
  CloseFd(status_read_);
  CloseFd(out_read_);
  msg_have_ = 0;
  persistent_acked_ = false;
  iterations_ = 0;
}

void ForkserverClient::KillServer() {
  if (server_pid_ > 0) {
    ::kill(server_pid_, SIGKILL);
  }
  NoteServerDeath();
}

void ForkserverClient::Shutdown() {
  if (server_pid_ <= 0) {
    CloseFd(ctl_write_);
    CloseFd(status_read_);
    CloseFd(out_read_);
    return;
  }
  // EOF on the control pipe is the graceful-stop signal: the forkserver
  // loop _exits, the persistent loop returns into the target's main.
  CloseFd(ctl_write_);
  ChildWatch server(server_pid_);
  const uint64_t deadline = obs::NowNs() + kShutdownGraceMs * 1000 * 1000;
  bool unused = false;
  while (true) {
    if (server.Wait(-1, deadline, unused)) {
      last_death_status_ = server.status();
      death_status_valid_ = true;
      server_pid_ = -1;
      break;
    }
    if (obs::NowNs() >= deadline) {
      break;
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
  switch (WaitMsg(msg, options_.handshake_timeout_ms)) {
    case Wait::kMsg:
      break;
    case Wait::kDeath:
      error = "forkserver: server died before handshake (target missing or "
              "interposer not preloaded?)";
      return false;
    case Wait::kTimeout:
      error = "forkserver: handshake timeout";
      return false;
  }
  if (msg.magic != kFsMsgMagic ||
      msg.kind != static_cast<uint32_t>(FsMsgKind::kHello) ||
      msg.value != static_cast<int32_t>(kForkserverProtocolVersion)) {
    error = "forkserver: bad hello (magic/version mismatch)";
    return false;
  }
  const bool hello_persistent = (msg.seq & kFsHelloFlagPersistent) != 0;
  if (hello_persistent != options_.persistent) {
    error = "forkserver: hello mode does not match request";
    return false;
  }
  return true;
}

ForkserverTestResult ForkserverClient::RunTest(uint32_t test_id,
                                               const std::vector<FsPlanEntry>& entries,
                                               uint32_t seq) {
  if (entries.size() > kFsMaxPlans) {
    // Wider than the server's table (and WriteRequest's buffer).
    ForkserverTestResult result;
    result.error = "forkserver: fault plan exceeds kFsMaxPlans entries";
    return result;
  }
  return options_.persistent ? RunPersistent(test_id, entries, seq)
                             : RunForked(test_id, entries, seq);
}

ForkserverTestResult ForkserverClient::RunForked(uint32_t test_id,
                                                 const std::vector<FsPlanEntry>& entries,
                                                 uint32_t seq) {
  ForkserverTestResult result;
  output_.clear();
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::string error;
    if (!EnsureServer(error)) {
      result.error = error;
      return result;
    }
    if (!WriteRequest(test_id, entries, seq)) {
      KillServer();  // a failed write does not prove the server is gone
      result.server_restarted = true;
      continue;
    }
    FsMsg msg;
    Wait w = WaitMsg(msg, options_.handshake_timeout_ms);
    if (w == Wait::kDeath) {
      NoteServerDeath();
      result.server_restarted = true;
      continue;
    }
    if (w == Wait::kTimeout || msg.magic != kFsMsgMagic || msg.seq != seq) {
      KillServer();
      result.server_restarted = true;
      continue;
    }
    if (msg.kind == static_cast<uint32_t>(FsMsgKind::kChildStatus) && msg.value == -1) {
      result.error = "forkserver: server could not fork a child";
      return result;
    }
    if (msg.kind != static_cast<uint32_t>(FsMsgKind::kChildPid)) {
      KillServer();
      result.server_restarted = true;
      continue;
    }
    const pid_t child = static_cast<pid_t>(msg.value);
    const Clock::time_point start = Clock::now();
    bool term_sent = false;
    bool kill_sent = false;
    bool retry = false;
    while (true) {
      uint64_t elapsed = ElapsedMs(start);
      uint64_t slice;
      if (!term_sent) {
        slice = options_.timeout_ms > elapsed ? options_.timeout_ms - elapsed : 0;
      } else if (!kill_sent) {
        uint64_t hard = options_.timeout_ms + options_.kill_grace_ms;
        slice = hard > elapsed ? hard - elapsed : 0;
      } else {
        slice = 2000;  // post-SIGKILL the status message must arrive promptly
      }
      Wait w2 = WaitMsg(msg, slice);
      if (w2 == Wait::kMsg) {
        if (msg.magic != kFsMsgMagic ||
            msg.kind != static_cast<uint32_t>(FsMsgKind::kChildStatus) ||
            msg.seq != seq) {
          KillServer();
          result.server_restarted = true;
          retry = true;
          break;
        }
        int status = msg.value;
        result.ran = true;
        result.timed_out = term_sent;
        result.kill_escalated = kill_sent;
        if (status >= 0 && WIFEXITED(status)) {
          result.exited = true;
          result.exit_code = WEXITSTATUS(status);
        } else if (status >= 0 && WIFSIGNALED(status)) {
          result.term_signal = WTERMSIG(status);
        }
        DrainOutput();
        result.output = output_;
        return result;
      }
      if (w2 == Wait::kDeath) {
        NoteServerDeath();
        result.server_restarted = true;
        retry = true;
        break;
      }
      if (!term_sent) {
        result.timed_out = true;
        ::kill(child, SIGTERM);
        term_sent = true;
      } else if (!kill_sent) {
        ::kill(child, SIGKILL);
        kill_sent = true;
      } else {
        // The server itself is wedged; nothing more to learn from it.
        KillServer();
        result.server_restarted = true;
        result.ran = true;
        result.timed_out = true;
        result.kill_escalated = true;
        result.term_signal = SIGKILL;
        result.output = output_;
        return result;
      }
    }
    if (retry) {
      continue;
    }
  }
  if (result.error.empty()) {
    result.error = "forkserver: unavailable after restart";
  }
  return result;
}

ForkserverTestResult ForkserverClient::RunPersistent(uint32_t test_id,
                                                     const std::vector<FsPlanEntry>& entries,
                                                     uint32_t seq) {
  ForkserverTestResult result;
  output_.clear();
  // Planned recycle: bound the state an exit()-interrupted iteration can
  // leak (fds, heap) by restarting the process every N iterations.
  if (server_pid_ > 0 && iterations_ >= options_.persistent_max_iterations) {
    Shutdown();
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::string error;
    if (!EnsureServer(error)) {
      result.error = error;
      return result;
    }
    if (!WriteRequest(test_id, entries, seq)) {
      KillServer();  // a failed write does not prove the server is gone
      result.server_restarted = true;
      continue;
    }
    if (!persistent_acked_) {
      FsMsg ack;
      Wait w = WaitMsg(ack, options_.handshake_timeout_ms);
      if (w == Wait::kDeath && !ever_acked_) {
        // Died without ever reaching the loop: the target does not adopt
        // afex_persistent_run (or crashes pre-loop, where no fault can be
        // armed). Downgrade permanently and rerun there.
        NoteServerDeath();
        options_.persistent = false;
        if (metrics_ != nullptr) {
          metrics_->AddCounter("real.persistent_fallback", 1);
        }
        ForkserverTestResult forked = RunForked(test_id, entries, seq);
        forked.persistent_fell_back = true;
        forked.server_restarted = forked.server_restarted || result.server_restarted;
        return forked;
      }
      if (w != Wait::kMsg || ack.magic != kFsMsgMagic ||
          ack.kind != static_cast<uint32_t>(FsMsgKind::kPersistentAck)) {
        KillServer();
        result.server_restarted = true;
        continue;
      }
      persistent_acked_ = true;
      ever_acked_ = true;
    }
    const Clock::time_point start = Clock::now();
    bool term_sent = false;
    bool kill_sent = false;
    FsMsg msg;
    while (true) {
      uint64_t elapsed = ElapsedMs(start);
      uint64_t slice;
      if (!term_sent) {
        slice = options_.timeout_ms > elapsed ? options_.timeout_ms - elapsed : 0;
      } else if (!kill_sent) {
        uint64_t hard = options_.timeout_ms + options_.kill_grace_ms;
        slice = hard > elapsed ? hard - elapsed : 0;
      } else {
        slice = 2000;
      }
      Wait w2 = WaitMsg(msg, slice);
      if (w2 == Wait::kMsg) {
        if (msg.magic != kFsMsgMagic ||
            msg.kind != static_cast<uint32_t>(FsMsgKind::kIterStatus) ||
            msg.seq != seq) {
          KillServer();
          result.server_restarted = true;
          break;  // protocol desync: retry on a fresh server
        }
        result.ran = true;
        result.exited = true;
        result.exit_code = msg.value;
        result.timed_out = term_sent;
        result.kill_escalated = kill_sent;
        ++iterations_;
        DrainOutput();
        result.output = output_;
        return result;
      }
      if (w2 == Wait::kDeath) {
        // The iteration took the whole process down: crash (signal), or a
        // direct _exit that bypassed the exit() wrapper. The death status
        // IS the test observation; the next test gets a fresh server.
        NoteServerDeath();
        result.ran = true;
        result.timed_out = term_sent;
        result.kill_escalated = kill_sent;
        if (death_status_valid_ && WIFSIGNALED(last_death_status_) && !term_sent) {
          result.term_signal = WTERMSIG(last_death_status_);
        } else if (death_status_valid_ && WIFEXITED(last_death_status_) && !term_sent) {
          result.exited = true;
          result.exit_code = WEXITSTATUS(last_death_status_);
        } else if (term_sent) {
          result.term_signal = death_status_valid_ && WIFSIGNALED(last_death_status_)
                                   ? WTERMSIG(last_death_status_)
                                   : SIGTERM;
        }
        result.output = output_;
        return result;
      }
      // Timeout: a hung iteration hangs the whole server; kill the process.
      if (!term_sent) {
        result.timed_out = true;
        ::kill(server_pid_, SIGTERM);
        term_sent = true;
      } else if (!kill_sent) {
        ::kill(server_pid_, SIGKILL);
        kill_sent = true;
      } else {
        KillServer();
        result.ran = true;
        result.timed_out = true;
        result.kill_escalated = true;
        result.term_signal = SIGKILL;
        result.output = output_;
        return result;
      }
    }
  }
  if (result.error.empty()) {
    result.error = "forkserver: unavailable after restart";
  }
  return result;
}

}  // namespace exec
}  // namespace afex
