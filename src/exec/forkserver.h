// Parent-side client for the interposer's forkserver / persistent serve
// loop (exec/forkserver_protocol.h). One client owns one long-lived target
// process: it spawns the target with the control/status pipes dup'd to the
// protocol fds, performs the Hello handshake, and then turns each RunTest
// call into one request → one forked child (forkserver mode) or one
// in-process iteration (persistent mode). This is what collapses the real
// backend's per-test cost from fork+execve+ld.so+libc-init down to a pipe
// round-trip plus (in forkserver mode) a bare fork.
//
// Failure policy, in one sentence: any protocol irregularity — short pipe
// read, wrong magic, unexpected sequence number, server death — kills the
// server and transparently respawns it, retrying the in-flight test once.
// Two extra behaviors ride on that machinery:
//  * Timeout kill: the server is blocked in waitpid while a child runs, so
//    the client delivers SIGTERM → SIGKILL to the child pid reported in the
//    kChildPid message, then collects the regular status message.
//  * Persistent fallback: a persistent server that dies before ever
//    sending kPersistentAck never reached afex_persistent_run (the target
//    did not adopt the hook, or crashed pre-loop, where no fault can have
//    been armed) — the client permanently downgrades itself to forkserver
//    mode and reruns the test there.
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
#include "obs/metrics.h"

namespace afex {
namespace exec {

struct ForkserverOptions {
  // Target command, with "{test}" placeholders left literal: the server's
  // forked children substitute the per-request test id in place.
  std::vector<std::string> argv;
  // Working directory for the server (inherited by every child).
  std::string working_dir;
  // libafex_interpose.so — required; the server loop lives inside it.
  std::string preload;
  // Extra environment (AFEX_FEEDBACK, ...). AFEX_FORKSERVER is set by the
  // client; AFEX_PLAN is cleared (plans travel over the pipe).
  std::vector<std::pair<std::string, std::string>> env;
  bool persistent = false;
  uint64_t timeout_ms = 5000;
  uint64_t kill_grace_ms = 200;
  // Budget for spawn → Hello (covers execve + ld.so + interposer init) and
  // for the persistent loop's pre-main + main-to-adoption stretch.
  uint64_t handshake_timeout_ms = 10000;
  size_t max_output_bytes = 1 << 16;
  // Persistent servers are recycled after this many iterations: an
  // exit()-interrupted iteration can leak fds/heap into the process, and
  // the cap bounds the accumulation without measurably denting throughput.
  uint32_t persistent_max_iterations = 256;
};

struct ForkserverTestResult {
  // False only when the test could not be executed at all (server
  // unstartable even after a respawn); `error` says why.
  bool ran = false;
  bool exited = false;  // exit_code valid
  int exit_code = -1;
  int term_signal = 0;  // non-zero when the child/iteration died by signal
  bool timed_out = false;
  bool kill_escalated = false;
  std::string output;  // the test's share of the server's stdout+stderr
  std::string error;
  // Diagnostics for tests/telemetry: a transparent respawn happened while
  // serving this call / this call performed the persistent→forkserver
  // downgrade.
  bool server_restarted = false;
  bool persistent_fell_back = false;
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

  // Runs one test: test_id is substituted into the argv placeholders,
  // entries (EncodePlanEntries, exec/fault_plan.h) are armed as the fault
  // plan, seq stamps the feedback block (FeedbackBlock::test_seq) and
  // sequences the protocol messages. More than kFsMaxPlans entries is
  // refused before anything is written.
  ForkserverTestResult RunTest(uint32_t test_id, const std::vector<FsPlanEntry>& entries,
                               uint32_t seq);

  // Graceful shutdown: close the control pipe (the server's read loop sees
  // EOF and exits), wait up to 2 s for the exit (exec::ChildWatch), SIGKILL
  // stragglers.
  void Shutdown();

  void set_metrics_sink(obs::MetricsSink* sink) { metrics_ = sink; }

  // True until a persistent client downgrades itself to forkserver mode.
  bool persistent_active() const { return options_.persistent; }
  // Respawns after the initial spawn (deaths + generation recycles).
  uint64_t restarts() const { return restarts_; }
  // Server incarnations that completed a handshake.
  uint64_t generations() const { return generations_; }
  pid_t server_pid() const { return server_pid_; }
  // Test hook: the raw control-pipe fd, for injecting torn/garbage writes.
  int ctl_fd() const { return ctl_write_; }

 private:
  enum class Wait { kMsg, kDeath, kTimeout };

  bool SpawnServer(std::string& error);
  bool ReadHello(std::string& error);
  // Polls the status pipe (draining target output on the side) until a
  // whole message, server death, or `deadline_ms` from now. Sleeps in
  // poll between events; no fixed wakeup interval.
  Wait WaitMsg(FsMsg& msg, uint64_t deadline_ms);
  bool WriteRequest(uint32_t test_id, const std::vector<FsPlanEntry>& entries, uint32_t seq);
  void DrainOutput();
  // Reaps the dead server (capturing its waitpid status), closes pipes.
  void NoteServerDeath();
  void KillServer();  // SIGKILL + NoteServerDeath
  ForkserverTestResult RunForked(uint32_t test_id, const std::vector<FsPlanEntry>& entries,
                                 uint32_t seq);
  ForkserverTestResult RunPersistent(uint32_t test_id, const std::vector<FsPlanEntry>& entries,
                                     uint32_t seq);

  ForkserverOptions options_;
  obs::MetricsSink* metrics_ = nullptr;

  pid_t server_pid_ = -1;
  int ctl_write_ = -1;
  int status_read_ = -1;
  int out_read_ = -1;

  // Partial-message accumulation (messages can straddle pipe reads).
  char msg_buf_[sizeof(FsMsg)];
  size_t msg_have_ = 0;

  std::string output_;        // current test's drained output
  int last_death_status_ = 0;  // waitpid status captured by NoteServerDeath
  bool death_status_valid_ = false;

  bool persistent_acked_ = false;  // this incarnation reached the loop
  bool ever_acked_ = false;        // some incarnation did (fallback gate)
  uint32_t iterations_ = 0;        // in the current incarnation
  uint64_t restarts_ = 0;
  uint64_t generations_ = 0;
};

}  // namespace exec
}  // namespace afex

#endif  // AFEX_EXEC_FORKSERVER_H_
