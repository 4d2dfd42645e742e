#include "sim/tracer.h"

#include "injection/libc_profile.h"
#include "sim/env.h"
#include "sim/process.h"

namespace afex {

std::vector<TraceResult> Tracer::TraceSuite(const std::function<int(SimEnv&, size_t)>& run_test,
                                            size_t num_tests, uint64_t seed) {
  std::vector<TraceResult> traces;
  traces.reserve(num_tests);
  for (size_t t = 0; t < num_tests; ++t) {
    SimEnv env(seed ^ (0x9e3779b9ULL * (t + 1)));
    RunOutcome outcome = RunProgram(env, [&](SimEnv& e) { return run_test(e, t); });
    TraceResult trace;
    trace.test_id = t;
    trace.exit_code = outcome.exit_code;
    trace.call_counts = env.bus().call_counts();
    traces.push_back(std::move(trace));
  }
  return traces;
}

std::vector<std::string> Tracer::UsedFunctions(const std::vector<TraceResult>& traces) {
  std::vector<std::string> used;
  for (const std::string& fn : LibcProfile::Default().FunctionNames()) {
    for (const TraceResult& t : traces) {
      if (t.call_counts.contains(fn)) {
        used.push_back(fn);
        break;
      }
    }
  }
  return used;
}

size_t Tracer::MaxCallCount(const std::vector<TraceResult>& traces, const std::string& function) {
  size_t max_count = 0;
  for (const TraceResult& t : traces) {
    auto it = t.call_counts.find(function);
    if (it != t.call_counts.end() && it->second > max_count) {
      max_count = it->second;
    }
  }
  return max_count;
}

}  // namespace afex
