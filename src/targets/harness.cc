#include "targets/harness.h"

#include <algorithm>

#include "injection/plan.h"
#include "sim/env.h"
#include "sim/process.h"

namespace afex {

TargetHarness::TargetHarness(TargetSuite suite, uint64_t seed)
    : suite_(std::move(suite)), seed_(seed), coverage_(suite_.total_blocks, suite_.recovery_base) {}

FaultSpace TargetHarness::MakeSpace(size_t max_call, bool include_zero_call) const {
  return MakeCallSpace(suite_.name, suite_.num_tests, suite_.functions, max_call,
                       include_zero_call);
}

SimEnv& TargetHarness::EnvForRun(uint64_t seed) {
  if (!arena_.has_value()) {
    arena_.emplace(seed, suite_.step_budget);
  } else {
    arena_->ResetForRun(seed, suite_.step_budget);
  }
  return *arena_;
}

TestOutcome TargetHarness::RunFault(const FaultSpace& space, const Fault& fault) {
  obs::PhaseTimer decode_timer(metrics_, obs::Phase::kSimDecode);
  InjectionPlan plan = decoder_.Decode(space, fault);
  decode_timer.Finish();
  obs::PhaseTimer run_timer(metrics_, obs::Phase::kSimRun);
  SimEnv& env = EnvForRun(seed_ ^ (0x9e3779b97f4a7c15ULL * (plan.test_id + 1)));
  if (plan.spec.has_value()) {
    env.bus().Arm(*plan.spec);
  }
  RunOutcome run =
      RunProgram(env, [&](SimEnv& e) { return suite_.run_test(e, plan.test_id); });
  run_timer.Finish();

  obs::PhaseTimer merge_timer(metrics_, obs::Phase::kSimFeedbackMerge);
  TestOutcome outcome;
  outcome.exit_code = run.exit_code;
  outcome.crashed = run.crashed;
  outcome.hung = run.hung;
  outcome.test_failed = run.exit_code != 0 || run.crashed || run.hung;
  outcome.fault_triggered = env.fault_triggered();
  outcome.injection_stack = env.TakeInjectionStack();
  // Single pass: merge the run's hits and collect the ones new to the
  // session (the coverage term of the impact metric, and what the campaign
  // journal re-seeds coverage from on resume).
  outcome.new_blocks_covered = coverage_.MergeCollect(env.coverage(), outcome.new_block_ids);
  std::sort(outcome.new_block_ids.begin(), outcome.new_block_ids.end());
  outcome.detail = run.termination_detail;
  ++tests_run_;
  sim_steps_ += env.steps_used();
  merge_timer.Finish();
  return outcome;
}

size_t TargetHarness::RunSuiteWithoutInjection() {
  size_t failed = 0;
  for (size_t t = 0; t < suite_.num_tests; ++t) {
    SimEnv& env = EnvForRun(seed_ ^ (0x9e3779b97f4a7c15ULL * (t + 1)));
    RunOutcome run = RunProgram(env, [&](SimEnv& e) { return suite_.run_test(e, t); });
    if (run.exit_code != 0 || run.crashed || run.hung) {
      ++failed;
    }
    coverage_.Merge(env.coverage());
    ++tests_run_;
    sim_steps_ += env.steps_used();
  }
  return failed;
}

}  // namespace afex
