// Tracer: the ltrace stand-in (paper §7, methodology). Runs a target's test
// suite without injection and records per-test libc call counts; from these
// the fault-space definition derives which functions to put on the Xfunc
// axis and how deep the Xcall axis needs to go.
#ifndef AFEX_SIM_TRACER_H_
#define AFEX_SIM_TRACER_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "injection/fault_bus.h"

namespace afex {

class SimEnv;

struct TraceResult {
  size_t test_id = 0;
  int exit_code = 0;
  FaultBus::CountMap call_counts;
};

class Tracer {
 public:
  // Runs tests [0, num_tests) through `run_test`; each test gets a fresh
  // deterministic SimEnv derived from `seed`.
  static std::vector<TraceResult> TraceSuite(
      const std::function<int(SimEnv&, size_t)>& run_test, size_t num_tests, uint64_t seed = 1);

  // Functions observed at least once, ordered as in LibcProfile::Default()
  // (category-grouped, which gives the function axis its structure).
  static std::vector<std::string> UsedFunctions(const std::vector<TraceResult>& traces);

  // Largest call count of `function` across all traces.
  static size_t MaxCallCount(const std::vector<TraceResult>& traces, const std::string& function);
};

}  // namespace afex

#endif  // AFEX_SIM_TRACER_H_
