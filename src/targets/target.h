// TargetSuite: the contract every simulated system under test implements —
// a named test suite runnable one test at a time inside a SimEnv, plus the
// metadata the harness needs to define fault spaces (the functions the
// target calls) and to compute coverage percentages.
#ifndef AFEX_TARGETS_TARGET_H_
#define AFEX_TARGETS_TARGET_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace afex {

class SimEnv;

struct TargetSuite {
  std::string name;
  // Number of tests in the default suite (the Xtest axis runs 1..num_tests).
  size_t num_tests = 0;
  // Instrumented basic blocks; ids are target-local, [0, total_blocks).
  uint32_t total_blocks = 0;
  // Blocks with id >= recovery_base are recovery/error-handling code
  // (0 = recovery blocks not marked).
  uint32_t recovery_base = 0;
  // libc functions for the Xfunc axis, in libc table (category-grouped)
  // order — the order is part of the fault space's structure.
  std::vector<std::string> functions;
  // Runs one test (0-based); returns 0 on pass. May throw simulated
  // terminations; the harness catches them.
  std::function<int(SimEnv&, size_t)> run_test;
  // Watchdog budget per test.
  size_t step_budget = 1'000'000;
};

}  // namespace afex

#endif  // AFEX_TARGETS_TARGET_H_
