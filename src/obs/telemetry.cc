#include "obs/telemetry.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace afex {
namespace obs {

namespace {

std::string FormatNs(double ns) {
  char buf[32];
  if (ns >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  }
  return buf;
}

}  // namespace

CampaignTelemetry::CampaignTelemetry(TelemetryConfig config)
    : config_(std::move(config)),
      progress_(config_.progress) {}

void CampaignTelemetry::RecordPhase(Phase phase, uint64_t start_ns, uint64_t duration_ns) {
  registry_.RecordLatencyNs(phase, duration_ns);
  if (config_.trace) {
    trace_.Append(phase, start_ns, duration_ns);
  }
}

void CampaignTelemetry::AddCounter(Counter counter, uint64_t delta) {
  registry_.AddCounter(counter, delta);
}

void CampaignTelemetry::SetGauge(Gauge gauge, double value) {
  registry_.SetGauge(gauge, value);
}

void CampaignTelemetry::OnTestExecuted(const ProgressUpdate& update) {
  if (update.covered_blocks > 0) {
    std::lock_guard<std::mutex> lock(coverage_mutex_);
    if (coverage_curve_.empty() ||
        update.covered_blocks > coverage_curve_.back().covered) {
      coverage_curve_.push_back(
          {static_cast<uint64_t>(update.tests_executed),
           static_cast<uint64_t>(update.covered_blocks)});
      // Bound the curve: halve its resolution when it doubles past 1024
      // points. Growth curves are read for their shape, not per-test
      // detail, and the final point always survives (it was just pushed).
      if (coverage_curve_.size() > 2048) {
        std::vector<CoveragePoint> kept;
        kept.reserve(coverage_curve_.size() / 2 + 1);
        for (size_t i = 0; i < coverage_curve_.size(); i += 2) {
          kept.push_back(coverage_curve_[i]);
        }
        if (kept.back().covered != coverage_curve_.back().covered) {
          kept.push_back(coverage_curve_.back());
        }
        coverage_curve_ = std::move(kept);
      }
    }
  }
  progress_.OnTestExecuted(update);
}

MetricsSnapshot CampaignTelemetry::Snapshot() const {
  MetricsSnapshot snapshot = registry_.Snapshot();
  {
    std::lock_guard<std::mutex> lock(coverage_mutex_);
    snapshot.coverage_growth = coverage_curve_;
  }
  return snapshot;
}

bool CampaignTelemetry::WriteMetricsFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  Snapshot().WriteJson(out);
  out << "\n";
  out.flush();
  return static_cast<bool>(out);
}

bool CampaignTelemetry::WriteTraceFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  trace_.WriteJson(out);
  out.flush();
  return static_cast<bool>(out);
}

std::string CampaignTelemetry::SynopsisLine() const {
  MetricsSnapshot snapshot = Snapshot();
  // Top-level pipeline phases are disjoint spans of the per-test loop, so
  // their shares of the summed time are meaningful; sub-phases (real.*,
  // sim.*) nest inside backend.run and are reported in the metrics file.
  const Phase kPipeline[] = {Phase::kExplorerNext, Phase::kBackendRun, Phase::kClusterObserve,
                             Phase::kJournalAppend, Phase::kJournalFlush};
  auto find = [&snapshot](Phase phase) -> const HistogramSummary* {
    for (const HistogramSummary& h : snapshot.histograms) {
      if (h.name == PhaseName(phase)) {
        return &h;
      }
    }
    return nullptr;
  };
  uint64_t total_ns = 0;
  for (Phase phase : kPipeline) {
    if (const HistogramSummary* h = find(phase)) {
      total_ns += h->sum_ns;
    }
  }
  if (total_ns == 0) {
    return "telemetry: no timed phases recorded";
  }
  std::string line = "telemetry: pipeline";
  const HistogramSummary* dominant = nullptr;
  for (Phase phase : kPipeline) {
    const HistogramSummary* h = find(phase);
    if (h == nullptr) {
      continue;
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %s %.1f%%", h->name.c_str(),
                  100.0 * static_cast<double>(h->sum_ns) / static_cast<double>(total_ns));
    line += buf;
    if (dominant == nullptr || h->sum_ns > dominant->sum_ns) {
      dominant = h;
    }
  }
  line += "; " + dominant->name + " p50=" + FormatNs(dominant->p50_ns) +
          " p99=" + FormatNs(dominant->p99_ns);
  if (!snapshot.coverage_growth.empty()) {
    const CoveragePoint& last = snapshot.coverage_growth.back();
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "; coverage %llu blocks by test %llu (%zu growth points)",
                  static_cast<unsigned long long>(last.covered),
                  static_cast<unsigned long long>(last.tests),
                  snapshot.coverage_growth.size());
    line += buf;
  }
  return line;
}

}  // namespace obs
}  // namespace afex
