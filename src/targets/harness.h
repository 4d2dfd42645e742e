// TargetHarness: binds a TargetSuite to the exploration machinery. It plays
// the role of the node manager's sensor scripts (paper §6.1): run one test
// under one injected fault, observe the outcome (exit code, crash, hang,
// coverage delta, injection stack), and hand a TestOutcome to the session.
//
// Coverage accumulates across all runs of one harness instance, so
// "new blocks covered" is relative to the whole exploration session —
// create a fresh harness per session.
//
// Outcomes are frozen by committed goldens: feedback_perf_test holds the
// record digest of a docstore campaign and bench/perf_sim holds the record
// digest of every benchmark cell on all four targets. A change that alters
// outcomes on purpose copies the printed digest into the golden and
// explains why in CHANGES.md.
#ifndef AFEX_TARGETS_HARNESS_H_
#define AFEX_TARGETS_HARNESS_H_

#include <optional>
#include <string>
#include <string_view>

#include "core/impact.h"
#include "core/session.h"
#include "injection/plan.h"
#include "sim/coverage.h"
#include "sim/env.h"
#include "targets/target.h"

namespace afex {

class TargetHarness : public TargetBackend {
 public:
  explicit TargetHarness(TargetSuite suite, uint64_t seed = 42);

  // The canonical <test, function, call> fault space over the suite's
  // tests and functions (MakeCallSpace).
  FaultSpace MakeSpace(size_t max_call, bool include_zero_call = false) const;

  // Executes the fault and returns the observation. Deterministic: the
  // SimEnv seed derives from the harness seed and the test id only.
  TestOutcome RunFault(const FaultSpace& space, const Fault& fault) override;

  // Runs every suite test once without injection (the "plain test suite"
  // baseline of Table 1); returns the number of failing tests.
  size_t RunSuiteWithoutInjection();

  // Pre-seeds the session coverage with blocks covered before a campaign
  // was interrupted (journaled TestOutcome::new_block_ids), so resumed runs
  // keep counting "new blocks" relative to the whole campaign.
  void SeedCoverage(const std::vector<uint32_t>& blocks) override { coverage_.MergeIds(blocks); }

  const TargetSuite& suite() const { return suite_; }
  const CoverageAccumulator& coverage() const { return coverage_; }
  uint32_t coverage_total_blocks() const override { return suite_.total_blocks; }
  uint32_t coverage_recovery_base() const override { return suite_.recovery_base; }
  double CoverageFraction() const override { return coverage_.Fraction(); }
  double RecoveryCoverageFraction() const override { return coverage_.RecoveryFraction(); }
  size_t tests_run() const override { return tests_run_; }
  // Watchdog steps consumed across all runs — the "simulated instructions
  // executed" counter the CLI reports as sim steps/sec.
  size_t total_sim_steps() const override { return sim_steps_; }
  // Sub-phase timing (sim.decode / sim.run / sim.feedback_merge).
  void set_metrics_sink(obs::MetricsSink* sink) override { metrics_ = sink; }

 private:
  // The env each test runs in: one arena environment reset per run
  // (SimEnv::ResetForRun), so per-test construction, interning, and
  // teardown amortize away.
  SimEnv& EnvForRun(uint64_t seed);

  TargetSuite suite_;
  uint64_t seed_;
  CoverageAccumulator coverage_;
  obs::MetricsSink* metrics_ = nullptr;

  size_t tests_run_ = 0;
  size_t sim_steps_ = 0;
  std::optional<SimEnv> arena_;
  // Decode cache for the space RunFault was last called with (one campaign
  // drives one space; rebuilt transparently if the space changes).
  CachedFaultDecoder decoder_;
};

// A built-in simulated target: its suite and the call-axis shape campaigns
// over it default to.
struct SimTarget {
  const char* name;
  TargetSuite (*make_suite)();
  size_t default_max_call;
  bool zero_call;  // MakeSpace's include_zero_call
};

// The built-in target called `name`, or nullptr.
const SimTarget* FindSimTarget(std::string_view name);

}  // namespace afex

#endif  // AFEX_TARGETS_HARNESS_H_
