// RealTargetHarness: the TargetBackend that runs faults against *real*
// processes — the paper's actual setting (black-box fault injection into
// system processes), where PRs 1–4 only ever simulated targets.
//
// Per test it: decodes the abstract fault through the same FaultDecoder the
// sim backend uses (the libc profile names real functions, so the fault
// space vocabulary transfers verbatim), encodes the fault plan once
// (exec/fault_plan.h), creates the feedback file, runs the target under
// LD_PRELOAD in a recycled scratch sandbox (process_runner or the
// forkserver client, both reporting an exec::ProcessResult), reads the
// feedback block back,
// and translates it into a TestOutcome: per-function call profiles become
// black-box "coverage" (one block per profiled libc function), injected-
// site hits become fault_triggered plus a synthetic injection stack for
// redundancy clustering, and the exit status / terminating signal /
// timeout map onto failed / crashed / hung. Everything downstream —
// fitness, clustering, campaign journaling, resume, --jobs — consumes the
// result unchanged.
#ifndef AFEX_EXEC_REAL_TARGET_HARNESS_H_
#define AFEX_EXEC_REAL_TARGET_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/session.h"
#include "injection/plan.h"
#include "sim/coverage.h"

namespace afex {
namespace exec {

class ForkserverClient;

// How each test becomes a process (README "Execution modes"):
//   kSpawn      — fork+exec the target per test (the PR-5 baseline).
//   kForkserver — one long-lived target stopped pre-main; fork per test.
//   kPersistent — same server, but a child whose main adopts
//                 afex_persistent_run re-runs the target's entry function
//                 in-process until exit(), a crash or a timeout ends it;
//                 a target that never adopts the hook runs as kForkserver.
// All three produce record-identical campaigns for well-behaved targets;
// they differ only in per-test cost.
enum class ExecMode { kSpawn, kForkserver, kPersistent };

// Coverage block ids for the edge signal start here, above the libc-proxy
// slot ids (0..kInterposedFunctionCount-1): an edge id E becomes block
// kEdgeBlockBase + E. The offset keeps the two id spaces disjoint so a
// journal seeded from proxy records can never alias an edge block (and
// vice versa) on resume.
inline constexpr uint32_t kEdgeBlockBase = 32;

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
  // neither gets an id appended. Verify runs after every test, even a cleanly exited
  // workload: silent corruption is exactly the case where only the
  // verifier notices.
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
  // Sub-phase timing (spawn: real.plan_write / fork_exec / child_wait;
  // forkserver/persistent: real.fs_roundtrip / fs_restart; all modes:
  // feedback_read / scratch_cleanup, plus recovery_run / verify when the
  // two-phase commands are configured) plus outcome-breakdown counters.
  void set_metrics_sink(obs::MetricsSink* sink) override;

  const RealTargetConfig& config() const { return config_; }
  const CoverageAccumulator& coverage() const { return coverage_; }
  // The long-lived server client, once the first forkserver/persistent
  // test has run (null in spawn mode). Exposed for tests.
  ForkserverClient* forkserver() { return forkserver_.get(); }

 private:
  bool EnsureForkserver(std::string& why);

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
  std::unique_ptr<ForkserverClient> forkserver_;
  uint32_t next_seq_ = 0;  // FeedbackBlock::test_seq stamps (fs modes)
  CoverageAccumulator coverage_;
  // Edge-signal bookkeeping (use_edges): distinct edges merged so far
  // (drives the real.edges_total gauge) and whether the target's region
  // length has sized the coverage universe yet.
  uint64_t edges_total_ = 0;
  bool edge_total_known_ = false;
  CachedFaultDecoder decoder_;  // per-space decode tables, built once
  size_t tests_run_ = 0;
  obs::MetricsSink* metrics_ = nullptr;
};

}  // namespace exec
}  // namespace afex

#endif  // AFEX_EXEC_REAL_TARGET_HARNESS_H_
