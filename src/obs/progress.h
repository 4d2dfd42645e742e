// Live campaign progress: one status line every --status-interval seconds
// through AFEX_LOG(kInfo) — the paper's "progress metrics in a log" (§6.4
// step 7) as a heartbeat instead of a single end-of-run printf. Rate is an
// EWMA over emission intervals so a real-backend campaign's line settles
// quickly but still tracks slowdowns; ETA divides the remaining budget by
// that rate.
//
// Driven from ExplorationSession, which scores results serially even with
// several nodes, so no locking is needed. The rate/ETA math is exposed as
// static helpers and an injectable-clock entry point (OnTestExecutedAt) so
// obs_test pins it down without sleeping.
#ifndef AFEX_OBS_PROGRESS_H_
#define AFEX_OBS_PROGRESS_H_

#include <cstdint>
#include <functional>
#include <string>

#include "obs/metrics.h"

namespace afex {
namespace obs {

struct ProgressConfig {
  // Seconds between status lines; <= 0 disables the reporter entirely.
  double interval_seconds = 0.0;
  // Campaign budget (max tests); 0 = unknown (no percentage, no ETA).
  size_t budget = 0;
  // Optional live probes, sampled at emission time. Null = omitted from
  // the line.
  std::function<double()> coverage_fraction;
  std::function<size_t()> pool_size;
};

class ProgressReporter {
 public:
  explicit ProgressReporter(ProgressConfig config);

  // Called once per live executed test; emits a line when the interval
  // elapsed. No-op when the interval is <= 0.
  void OnTestExecuted(const ProgressUpdate& update);
  // Same, with an injected monotonic "now" (seconds) for deterministic
  // tests.
  void OnTestExecutedAt(const ProgressUpdate& update, double now_seconds);

  double ewma_tests_per_sec() const { return ewma_rate_; }
  size_t lines_emitted() const { return lines_emitted_; }

  // The status line the next emission would log (without emitting it).
  std::string ComposeLine(const ProgressUpdate& update) const;

  // ewma' = alpha * sample + (1 - alpha) * ewma.
  static double UpdateEwma(double previous, double sample, double alpha);
  // Seconds to finish `budget - executed` tests at `rate`; < 0 = unknown.
  static double EtaSeconds(size_t executed, size_t budget, double rate);
  // "37s", "4m12s", "2h05m"; "?" for unknown (negative) input.
  static std::string FormatEta(double seconds);

 private:
  ProgressConfig config_;
  bool started_ = false;
  bool have_rate_ = false;
  double last_emit_seconds_ = 0.0;
  size_t last_emit_tests_ = 0;
  double ewma_rate_ = 0.0;
  size_t lines_emitted_ = 0;
};

}  // namespace obs
}  // namespace afex

#endif  // AFEX_OBS_PROGRESS_H_
