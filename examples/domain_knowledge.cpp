// Domain example: encoding system-specific knowledge (paper §4 and §7.5).
// Starting from black-box exploration, the developer (a) trims the fault
// space to the functions the target actually calls and (b) supplies a
// statistical environment model; each step roughly halves the time to the
// search target. Also demonstrates multi-fault scenario support in the
// FaultBus and the ltrace-style space-definition methodology (§7).
//
// Build & run:  ./build/examples/domain_knowledge
#include <algorithm>
#include <cstdio>

#include "core/fitness_explorer.h"
#include "core/relevance.h"
#include "core/session.h"
#include "injection/libc_table.h"
#include "sim/env.h"
#include "sim/process.h"
#include "targets/coreutils/suite.h"
#include "targets/coreutils/utils.h"
#include "targets/harness.h"

using namespace afex;

namespace {

// Samples needed to find 10 failing ln/mv scenarios under a configuration.
size_t SamplesToTarget(const FaultSpace& space, const EnvironmentModel* model, uint64_t seed) {
  TargetHarness harness(coreutils::MakeSuite());
  FitnessExplorer explorer(space, {.seed = seed});
  SessionConfig config;
  config.environment_model = model;
  ExplorationSession session(explorer, harness.MakeRunner(space), config);
  SessionResult result = session.Run({.impact_threshold = 10.0, .stop_after_found = 10});
  return result.tests_executed;
}

}  // namespace

int main() {
  TargetSuite suite = coreutils::MakeSuite();

  // ---- methodology step (paper §7): trace the suite to define the space ----
  // Each test runs once without injection; the bus's per-function call
  // counts are the ltrace-equivalent profile.
  size_t max_calls[kLibcFnCount] = {};
  for (size_t t = 0; t < suite.num_tests; ++t) {
    SimEnv env;
    RunProgram(env, [&](SimEnv& e) { return suite.run_test(e, t); });
    for (size_t row = 0; row < kLibcFnCount; ++row) {
      max_calls[row] = std::max(max_calls[row], env.bus().CallCount(static_cast<LibcFn>(row)));
    }
  }
  const size_t used = kLibcFnCount - std::count(max_calls, max_calls + kLibcFnCount, 0u);
  std::printf("ltrace-equivalent found %zu libc functions in use; e.g. fopen called up to %zu"
              " times in one test\n", used, max_calls[static_cast<size_t>(LibcFn::fopen)]);

  // ---- black-box space ----
  TargetHarness space_builder(suite);
  FaultSpace full = space_builder.MakeSpace(2, /*include_zero_call=*/true);

  // ---- trimmed space: only the functions ln/mv call ----
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("test", 1, static_cast<int64_t>(suite.num_tests)));
  axes.push_back(Axis::MakeSet("function", coreutils::LnMvFunctions()));
  axes.push_back(Axis::MakeInterval("call", 0, 2));
  FaultSpace trimmed(std::move(axes), "coreutils-lnmv");

  // ---- environment model (paper §7.5's weights) ----
  EnvironmentModel model;
  model.SetClassWeight("function", "malloc", 0.40);
  for (const char* fn : {"open", "close", "read", "write", "stat", "rename", "unlink"}) {
    model.SetClassWeight("function", fn, 0.50 / 7);
  }
  model.SetClassWeight("function", "getcwd", 0.10);

  std::printf("\nsamples to find 10 high-impact ln/mv faults:\n");
  std::printf("  black-box (%4zu-point space):        %zu\n", full.TotalPoints(),
              SamplesToTarget(full, nullptr, 3));
  std::printf("  trimmed   (%4zu-point space):        %zu\n", trimmed.TotalPoints(),
              SamplesToTarget(trimmed, nullptr, 3));
  std::printf("  trimmed + environment model:         %zu\n",
              SamplesToTarget(trimmed, &model, 3));

  // ---- multi-fault scenario (paper §6's example) ----
  // "inject an EINTR error in the third read call, AND an ENOMEM error in
  // the second malloc call" — both armed on one bus.
  std::printf("\nmulti-fault scenario on cp:\n");
  SimEnv env;
  env.AddFile("/dev/stdout", "");
  env.AddFile("/big", std::string(100, 'z'));
  env.bus().Arm({.function = LibcFn::read, .call_lo = 3, .call_hi = 3, .retval = -1,
                 .errno_value = sim_errno::kEINTR});
  env.bus().Arm({.function = LibcFn::calloc, .call_lo = 1, .call_hi = 1, .retval = 0,
                 .errno_value = sim_errno::kENOMEM});
  RunOutcome out = RunProgram(
      env, [](SimEnv& e) { return coreutils::CpMain(e, "/big", "/copy"); });
  std::printf("  cp exit=%d, faults triggered=%zu (calloc OOM dominates; EINTR never reached)\n",
              out.exit_code, env.bus().trigger_count());
  return 0;
}
