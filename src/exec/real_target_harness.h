// RealTargetHarness: the TargetBackend that runs faults against *real*
// processes — the paper's actual setting (black-box fault injection into
// system processes), where PRs 1–4 only ever simulated targets.
//
// Per test it: decodes the abstract fault through the same FaultDecoder the
// sim backend uses (the libc profile names real functions, so the fault
// space vocabulary transfers verbatim), encodes the fault plan once
// (exec/fault_plan.h) and writes it into the feedback block (spawn: a fresh
// file per test; persistent: the plan region of the block the server
// maps), runs the target under LD_PRELOAD in a recycled scratch sandbox
// (process_runner or the forkserver client, both reporting an
// exec::ProcessResult), reads the feedback block back, and translates it
// into a TestOutcome: per-function call profiles become
// black-box "coverage" (one block per profiled libc function), injected-
// site hits become fault_triggered plus a synthetic injection stack for
// redundancy clustering, and the exit status / terminating signal /
// timeout map onto failed / crashed / hung. Everything downstream —
// fitness, clustering, campaign journaling, resume, --jobs — consumes the
// result unchanged.
//
// Provable no-ops are answered, not run (the paper's ltrace methodology,
// §7, applied per test). The first live run of a test id that started, did
// not hang and left a fresh feedback block with nothing injected *is* that
// test's fault-free run: the harness keeps its per-function call counts,
// its touched coverage set and every other outcome field. From then on a
// point whose plan cannot fire — no injection (call 0), a kind that does
// not apply to the function, or a call window starting past the cached
// count for its function — gets the cached outcome, with coverage merged
// anew so new-block accounting and every record stay byte-identical to a
// live run, and no process is started. This assumes the target is
// deterministic per test id, and the harness checks it: the first predicted
// no-op of each test id and every kNoopVerifyEvery-th after it run live
// anyway; if that run disagrees with the cache (outcome, new blocks or call
// counts), its result is the record, real.noop_mismatch is counted and the
// test id runs live from then on.
//
// Repeated crash states are answered too. With two-phase commands
// configured, recover and verify are a function of what the workload left
// on disk, and many crash points leave the same state. After every started
// workload run the harness digests the sandbox (the test id, then each
// entry in name order: name, mode bits, size, bytes; timed as
// real.state_digest) and keeps, per digest, the recovery/verify flags and
// first lines. A digest seen before gets that verdict folded into the
// outcome — same flags, detail and counters — and neither process starts
// (real.state_answered). A sandbox holding anything but readable regular
// files has no digest and always runs both phases. The sampling rule is the
// no-ops' one: the first repeat of each state and every kNoopVerifyEvery-th
// after it run live (real.state_verified); a disagreement makes the live
// verdict the record, counts real.state_mismatch and stops answering for
// that digest. Both caches live in the harness, so a resumed campaign and
// each --jobs node start cold.
#ifndef AFEX_EXEC_REAL_TARGET_HARNESS_H_
#define AFEX_EXEC_REAL_TARGET_HARNESS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/session.h"
#include "exec/feedback_block.h"
#include "injection/plan.h"
#include "sim/coverage.h"

namespace afex {
namespace exec {

class ForkserverClient;

// How each test becomes a process (README "Execution modes"):
//   kSpawn      — fork+exec the target per test, the reference mode.
//   kPersistent — one long-lived target stopped pre-main forks a child per
//                 test; a child whose main adopts afex_persistent_run
//                 re-runs the target's entry function in-process until
//                 exit(), a crash or a timeout ends it, and a child that
//                 never adopts the hook runs one test and exits.
// Both produce record-identical campaigns for well-behaved targets; they
// differ only in per-test cost.
enum class ExecMode { kSpawn, kPersistent };

// Coverage block ids for the edge signal start here, above the libc-proxy
// slot ids (0..kInterposedFunctionCount-1): an edge id E becomes block
// kEdgeBlockBase + E. The offset keeps the two id spaces disjoint so a
// journal seeded from proxy records can never alias an edge block (and
// vice versa) on resume.
inline constexpr uint32_t kEdgeBlockBase = 32;

// Of each test id's predicted no-ops (and of each crash state's repeats),
// the 1st, (1+N)th, (1+2N)th, ... run live to check the target's
// determinism; the rest are answered.
inline constexpr uint64_t kNoopVerifyEvery = 16;

struct RealTargetConfig {
  // Target command. Every occurrence of "{test}" in any argument is
  // replaced by the 1-based test id; if no argument contains the
  // placeholder, the constructor appends one, so the id becomes the final
  // argument.
  std::vector<std::string> target_argv;
  // Cardinality of the test axis.
  size_t num_tests = 1;
  // Path to libafex_interpose.so.
  std::string interposer_path;
  // Scratch root. Each harness makes one sandbox and one feedback file
  // under it and recycles both between tests: the sandbox is emptied in
  // place after every test (after recovery and verify, which run in it).
  // Empty = a fresh directory under the system temp dir. The harness
  // removes its own scratch when destroyed.
  std::string work_root;
  // Per-process budget of every command the harness runs (target,
  // recovery, verify), enforced by exec::KillLadder; output is captured up
  // to exec::kMaxOutputBytes.
  uint64_t timeout_ms = 5000;
  // Two-phase crash→recover→verify (storage-failure campaigns). When
  // either is non-empty, after every workload run the harness re-runs the
  // target in recovery mode (`recovery_argv`) and then the verifier
  // (`verify_argv`) in the workload's sandbox — no interposer, no fault
  // plan — and folds the results into the same TestOutcome
  // (recovery_failed / invariant_violated). "{test}" substitutes in both;
  // neither gets an id appended. Verify runs after every test, even a
  // cleanly exited workload: silent corruption is exactly the case where
  // only the verifier notices.
  std::vector<std::string> recovery_argv;
  std::vector<std::string> verify_argv;
  // Function axis for MakeSpace. Empty = InterposableFunctions().
  std::vector<std::string> functions;
  ExecMode exec_mode = ExecMode::kSpawn;
  // Feed coverage from SanitizerCoverage edge hits (FeedbackBlock v2)
  // instead of the 26-slot libc-call proxy. Requires an instrumented
  // target; the CLI resolves --coverage=auto|proxy|edges to this via the
  // ELF analyzer's sancov detection. When set, the proxy slots are
  // excluded from coverage (the signals would double-count otherwise);
  // everything else — injection accounting, clustering stacks — is
  // signal-independent.
  bool use_edges = false;
};

// The libc-profile functions the interposer wraps, in profile (category)
// order — the function axis the real backend explores by default.
std::vector<std::string> InterposableFunctions();

class RealTargetHarness : public TargetBackend {
 public:
  explicit RealTargetHarness(RealTargetConfig config);
  ~RealTargetHarness() override;

  RealTargetHarness(const RealTargetHarness&) = delete;
  RealTargetHarness& operator=(const RealTargetHarness&) = delete;

  // Canonical <test, function, call> space, same conventions as
  // TargetHarness::MakeSpace.
  FaultSpace MakeSpace(size_t max_call, bool include_zero_call = false) const;

  TestOutcome RunFault(const FaultSpace& space, const Fault& fault) override;

  void SeedCoverage(const std::vector<uint32_t>& blocks) override {
    coverage_.MergeIds(blocks);
    // Resumed edge blocks count toward real.edges_total, so the gauge is
    // campaign-cumulative, not session-local.
    for (uint32_t id : blocks) {
      if (id >= kEdgeBlockBase) {
        ++edges_total_;
      }
    }
  }
  uint32_t coverage_total_blocks() const override { return coverage_.total_blocks(); }
  uint32_t coverage_recovery_base() const override { return 0; }
  double CoverageFraction() const override { return coverage_.Fraction(); }
  double RecoveryCoverageFraction() const override { return 0.0; }
  size_t tests_run() const override { return tests_run_; }
  size_t tests_answered() const override { return tests_answered_; }
  size_t crash_states_answered() const override { return crash_states_answered_; }
  // Sub-phase timing (spawn: real.plan_write / fork_exec / child_wait;
  // persistent: real.fs_roundtrip / fs_restart; both modes:
  // feedback_read / scratch_cleanup, plus state_digest / recovery_run /
  // verify when the two-phase commands are configured; real.noop_answer
  // for answered tests) plus outcome-breakdown, real.noop_* and
  // real.state_* counters.
  void set_metrics_sink(obs::MetricsSink* sink) override;

  const RealTargetConfig& config() const { return config_; }
  const CoverageAccumulator& coverage() const { return coverage_; }
  // The long-lived server client, once the first persistent-mode test has
  // run (null in spawn mode). Exposed for tests.
  ForkserverClient* forkserver() { return forkserver_.get(); }

 private:
  // One live test: the outcome without its coverage fields, the coverage
  // it touched and the block's call counts.
  struct LiveRun {
    TestOutcome outcome;
    CoverageSet touched;
    std::array<uint64_t, kMaxInterposedFunctions> calls{};
    // Started, did not hang, left a fresh readable block with nothing
    // injected and a complete coverage list: the test's fault-free run.
    bool fault_free = false;
  };
  // The sampling rule both answer caches share: each predicted repeat is
  // counted, the 1st and every kNoopVerifyEvery-th run live, and a live
  // run that disagrees with the cache disables the entry for good.
  struct AnswerSampler {
    uint64_t predicted = 0;
    bool disabled = false;
    // Counts one predicted repeat: true = answer it, false = run it live.
    bool Answer() { return predicted++ % kNoopVerifyEvery != 0; }
    // Records whether a live sample agreed with the cache; a disagreement
    // leaves the entry disabled. Returns `agreed`.
    bool Settle(bool agreed) {
      disabled = !agreed;
      return agreed;
    }
  };
  // A test id's fault-free run, the source of its answered no-ops.
  struct FaultFreeRun {
    LiveRun run;
    AnswerSampler sampler;
  };
  // What recover and verify made of one crash state: the two flags and the
  // first output line of the phase that failed (empty for one that passed).
  struct PhaseVerdict {
    bool recovery_failed = false;
    std::string recovery_line;
    bool invariant_violated = false;
    std::string verify_line;
    bool operator==(const PhaseVerdict&) const = default;
  };
  // A crash state's verdict, the source of its answered recover/verify.
  struct CrashState {
    PhaseVerdict verdict;
    AnswerSampler sampler;
  };

  bool EnsureForkserver(std::string& why);
  LiveRun RunLive(size_t test_id, const std::vector<FsPlanEntry>& entries);
  // The recover/verify verdict on the sandbox the workload left: answered
  // from a seen crash state, or both commands run live.
  PhaseVerdict RecoverAndVerify(size_t test_id, const std::string& test_label);
  PhaseVerdict RunPhasesLive(const std::string& test_label);
  // Merges `touched` into the session coverage, filling the outcome's
  // new-block fields (and the edge counters) exactly as a live run does.
  void MergeTouched(const CoverageSet& touched, TestOutcome& outcome);
  void Count(const char* name);

  RealTargetConfig config_;
  std::string work_root_;       // resolved scratch root
  bool own_work_root_ = false;  // created by us => removed in the dtor
  std::string target_name_;     // basename of argv[0], for injection stacks
  // Per-harness recycled scratch (unique under work_root_, so --jobs nodes
  // sharing one root never collide): one sandbox emptied in place between
  // tests, one feedback file rewritten per test.
  std::string instance_dir_;
  std::string sandbox_dir_;
  std::string feedback_path_;
  int feedback_fd_ = -1;  // persistent: the mapped block, open for plan writes
  std::unique_ptr<ForkserverClient> forkserver_;
  uint32_t next_seq_ = 0;  // FeedbackBlock::test_seq stamps (persistent)
  CoverageAccumulator coverage_;
  // Edge-signal bookkeeping (use_edges): distinct edges merged so far
  // (drives the real.edges_total gauge) and whether the target's region
  // length has sized the coverage universe yet.
  uint64_t edges_total_ = 0;
  bool edge_total_known_ = false;
  CachedFaultDecoder decoder_;  // per-space decode tables, built once
  // Per test id (0-based): its fault-free run, once one was observed.
  std::unordered_map<size_t, FaultFreeRun> fault_free_;
  // Per crash-state digest: its recover/verify verdict.
  std::unordered_map<uint64_t, CrashState> crash_states_;
  size_t tests_run_ = 0;
  size_t tests_answered_ = 0;
  size_t crash_states_answered_ = 0;
  obs::MetricsSink* metrics_ = nullptr;
};

}  // namespace exec
}  // namespace afex

#endif  // AFEX_EXEC_REAL_TARGET_HARNESS_H_
