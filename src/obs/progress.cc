#include "obs/progress.h"

#include <cmath>
#include <cstdio>

#include "util/log.h"

namespace afex {
namespace obs {
namespace {

// EWMA smoothing factor for the tests/sec rate (weight of the newest
// interval's rate).
constexpr double kEwmaAlpha = 0.3;

}  // namespace

ProgressReporter::ProgressReporter(ProgressConfig config) : config_(std::move(config)) {}

double ProgressReporter::UpdateEwma(double previous, double sample, double alpha) {
  return alpha * sample + (1.0 - alpha) * previous;
}

double ProgressReporter::EtaSeconds(size_t executed, size_t budget, double rate) {
  if (budget == 0 || rate <= 0.0) {
    return -1.0;
  }
  if (executed >= budget) {
    return 0.0;
  }
  return static_cast<double>(budget - executed) / rate;
}

std::string ProgressReporter::FormatEta(double seconds) {
  if (seconds < 0.0) {
    return "?";
  }
  auto total = static_cast<uint64_t>(seconds + 0.5);
  char buf[32];
  if (total < 60) {
    std::snprintf(buf, sizeof(buf), "%llus", static_cast<unsigned long long>(total));
  } else if (total < 3600) {
    std::snprintf(buf, sizeof(buf), "%llum%02llus",
                  static_cast<unsigned long long>(total / 60),
                  static_cast<unsigned long long>(total % 60));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluh%02llum",
                  static_cast<unsigned long long>(total / 3600),
                  static_cast<unsigned long long>((total % 3600) / 60));
  }
  return buf;
}

std::string ProgressReporter::ComposeLine(const ProgressUpdate& update) const {
  char buf[96];
  std::string line = "progress: " + std::to_string(update.tests_executed);
  if (config_.budget > 0) {
    std::snprintf(buf, sizeof(buf), "/%zu tests (%.1f%%)", config_.budget,
                  100.0 * static_cast<double>(update.tests_executed) /
                      static_cast<double>(config_.budget));
    line += buf;
  } else {
    line += " tests";
  }
  if (have_rate_) {
    std::snprintf(buf, sizeof(buf), ", %.1f t/s", ewma_rate_);
    line += buf;
    std::string eta =
        FormatEta(EtaSeconds(update.tests_executed, config_.budget, ewma_rate_));
    if (eta != "?") {
      line += ", eta " + eta;
    }
  }
  std::snprintf(buf, sizeof(buf), ", %zu crashes, %zu failed, %zu clusters",
                update.crashes, update.failed_tests, update.clusters);
  line += buf;
  // Two-phase discovery facets appear once the campaign produces them —
  // campaigns without recovery/verify phases keep the shorter line.
  if (update.recovery_failures > 0 || update.invariant_violations > 0) {
    std::snprintf(buf, sizeof(buf), ", %zu recfail, %zu inv",
                  update.recovery_failures, update.invariant_violations);
    line += buf;
  }
  if (update.covered_blocks > 0) {
    std::snprintf(buf, sizeof(buf), ", %zu blocks", update.covered_blocks);
    line += buf;
  }
  if (config_.coverage_fraction) {
    std::snprintf(buf, sizeof(buf), ", coverage %.1f%%", 100.0 * config_.coverage_fraction());
    line += buf;
  }
  if (config_.pool_size) {
    std::snprintf(buf, sizeof(buf), ", pool %zu", config_.pool_size());
    line += buf;
  }
  return line;
}

void ProgressReporter::OnTestExecuted(const ProgressUpdate& update) {
  OnTestExecutedAt(update, static_cast<double>(NowNs()) * 1e-9);
}

void ProgressReporter::OnTestExecutedAt(const ProgressUpdate& update, double now_seconds) {
  if (config_.interval_seconds <= 0.0) {
    return;
  }
  if (!started_) {
    started_ = true;
    last_emit_seconds_ = now_seconds;
    last_emit_tests_ = update.tests_executed > 0 ? update.tests_executed - 1 : 0;
    return;
  }
  double elapsed = now_seconds - last_emit_seconds_;
  if (elapsed < config_.interval_seconds) {
    return;
  }
  double rate =
      static_cast<double>(update.tests_executed - last_emit_tests_) / elapsed;
  ewma_rate_ = have_rate_ ? UpdateEwma(ewma_rate_, rate, kEwmaAlpha) : rate;
  have_rate_ = true;
  AFEX_LOG(kInfo) << ComposeLine(update);
  ++lines_emitted_;
  last_emit_seconds_ = now_seconds;
  last_emit_tests_ = update.tests_executed;
}

}  // namespace obs
}  // namespace afex
