// Parent-side client for the interposer's serve loop
// (exec/forkserver_protocol.h). One client owns one long-lived target
// process: it spawns the target with the control/status pipes dup'd to the
// protocol fds, performs the Hello handshake, and then turns each RunTest
// call into one request. The request carries no plan: the caller has
// already written it into the feedback block the server maps
// (exec/fault_plan.h). The server forks a child per test; a child that
// adopted afex_persistent_run stays live and runs the following requests
// in-process, until exit(), a crash or a timeout ends it and the next test
// forks a new one. This is what collapses the real backend's per-test
// cost from fork+execve+ld.so+libc-init down to a pipe round-trip plus at
// most a bare fork.
//
// Failure policy, in one sentence: any protocol irregularity — short pipe
// read, wrong magic, unexpected sequence number, server death — kills the
// server and transparently respawns it, retrying the in-flight test once.
// Timeouts use the same KillLadder as spawn mode (exec/process_runner.h),
// aimed at the child pid from the kChildPid message. A server that reports
// nothing 2 s after the SIGKILL is wedged: it is killed and the test reads
// as a SIGKILL hang. Every server starts with stdio and the two protocol
// fds only.
//
// The first RunTest installs SIG_IGN for SIGPIPE process-wide (once):
// request writes race against server death by design, and the failed
// write must surface as EPIPE to the retry logic, not kill the campaign.
#ifndef AFEX_EXEC_FORKSERVER_H_
#define AFEX_EXEC_FORKSERVER_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exec/forkserver_protocol.h"
#include "exec/process_runner.h"
#include "obs/metrics.h"

namespace afex {
namespace exec {

struct ForkserverOptions {
  // Target command, with "{test}" placeholders left literal: the server's
  // forked children substitute the per-request test id.
  std::vector<std::string> argv;
  // Working directory for the server (inherited by every child).
  std::string working_dir;
  // libafex_interpose.so — required; the server loop lives inside it.
  std::string preload;
  // Extra environment (AFEX_FEEDBACK, ...). AFEX_FORKSERVER is set by the
  // client.
  std::vector<std::pair<std::string, std::string>> env;
  uint64_t timeout_ms = 5000;
};

class ForkserverClient {
 public:
  explicit ForkserverClient(ForkserverOptions options);
  ~ForkserverClient();

  ForkserverClient(const ForkserverClient&) = delete;
  ForkserverClient& operator=(const ForkserverClient&) = delete;

  // Spawns the server and completes the handshake if one is not already
  // live. False = the target cannot be started (bad path, handshake
  // timeout, wrong protocol magic/version); `error` gets the reason.
  bool EnsureServer(std::string& error);

  // Runs one test: test_id is substituted into the argv placeholders, the
  // plan the caller wrote into the feedback block (WriteFeedbackPlan) is
  // armed, seq stamps the block (FeedbackBlock::test_seq) and sequences the
  // protocol messages. started == false only when the test could not be
  // executed at all (server unstartable even after a respawn); `error` then
  // says why. The spawn-timing fields stay 0.
  ProcessResult RunTest(uint32_t test_id, uint32_t seq);

  // Graceful shutdown: close the control pipe (the server's read loop sees
  // EOF and exits), wait up to 2 s for the exit (exec::ChildWatch), SIGKILL
  // stragglers.
  void Shutdown();

  void set_metrics_sink(obs::MetricsSink* sink) { metrics_ = sink; }

  // The live child's pid, or -1 when none is (test hook). Between tests only
  // a child that adopted the hook stays live.
  pid_t child_pid() const { return child_pid_; }
  // Respawns after the initial spawn.
  uint64_t restarts() const { return restarts_; }
  // Server incarnations that completed a handshake.
  uint64_t generations() const { return generations_; }
  pid_t server_pid() const { return server_pid_; }
  // Test hook: the raw control-pipe fd, for injecting torn/garbage writes.
  int ctl_fd() const { return ctl_write_; }

 private:
  // kDesync only comes from AwaitStatus.
  enum class Wait { kMsg, kDeath, kTimeout, kDesync };

  bool SpawnServer(std::string& error);
  bool ReadHello(std::string& error);
  // Polls the status pipe (draining target output on the side) until a
  // whole message, server death, or `deadline_ns` (obs::NowNs timebase).
  // Sleeps in poll between events; no fixed wakeup interval.
  Wait WaitMsg(FsMsg& msg, uint64_t deadline_ns);
  // Waits for the kIterStatus or kChildStatus message that closes test `seq`
  // while `ladder` signals the live child. kMsg: `msg` holds it. kDeath:
  // the server died (not yet reaped). kDesync: a message out of protocol;
  // kTimeout: the ladder ran out (the server is wedged). Both of the last
  // two kill the server.
  Wait AwaitStatus(uint32_t seq, KillLadder& ladder, FsMsg& msg);
  // The test's observation: the ladder's flags, a waitpid `status`, and
  // the output drained so far.
  ProcessResult Observe(const KillLadder& ladder, int status);
  bool WriteRequest(uint32_t test_id, uint32_t seq);
  void DrainOutput();
  // Reaps the dead server and closes its pipes. Returns its waitpid
  // status, or -1 when there was none to collect.
  int NoteServerDeath();
  void KillServer();  // SIGKILL + NoteServerDeath

  ForkserverOptions options_;
  obs::MetricsSink* metrics_ = nullptr;

  pid_t server_pid_ = -1;
  pid_t child_pid_ = -1;
  int ctl_write_ = -1;
  int status_read_ = -1;
  int out_read_ = -1;

  // Partial-message accumulation (messages can straddle pipe reads).
  char msg_buf_[sizeof(FsMsg)];
  size_t msg_have_ = 0;

  std::string output_;  // current test's drained output

  uint64_t restarts_ = 0;
  uint64_t generations_ = 0;
};

}  // namespace exec
}  // namespace afex

#endif  // AFEX_EXEC_FORKSERVER_H_
