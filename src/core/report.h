// Result reporting (paper §6.3): rank the result set by severity, pick a
// representative per redundancy cluster, and generate self-contained
// reproduction test cases — the artifacts a developer would check into a
// regression suite.
#ifndef AFEX_CORE_REPORT_H_
#define AFEX_CORE_REPORT_H_

#include <string>
#include <vector>

#include "core/fault_space.h"
#include "core/precision.h"
#include "core/session.h"

namespace afex {

// One ranked finding.
struct Finding {
  Fault fault;
  std::string description;  // axis=value rendering
  double impact = 0.0;
  size_t cluster_id = 0;
  size_t cluster_size = 0;  // how many tests hit the same behaviour
  bool crashed = false;
  bool test_failed = false;
  bool hung = false;
  std::vector<std::string> injection_stack;
  PrecisionReport precision;  // populated only when re-runs were requested
};

struct Report {
  std::vector<Finding> findings;     // ranked by impact, descending
  std::vector<Finding> representatives;  // one per cluster, highest impact
  // Operational synopsis (paper §6.3: search algorithm, #explored, ...).
  std::string synopsis;
};

class ReportBuilder {
 public:
  ReportBuilder(const FaultSpace& space, std::string algorithm_name)
      : space_(&space), algorithm_name_(std::move(algorithm_name)) {}

  // Optional telemetry lines (CampaignTelemetry::SynopsisLine, the share of
  // tests the backend answered without running them) appended to the
  // synopsis.
  void set_telemetry_note(std::string note) { telemetry_note_ = std::move(note); }

  // Builds the ranked report from a finished session. `min_impact` filters
  // out zero-interest tests; cluster sizes come from the session's
  // clusterer.
  Report Build(const SessionResult& result, const RedundancyClusterer& clusterer,
               double min_impact = 0.0) const;

  // Optionally measure impact precision for the top `k` findings by
  // re-running each fault `trials` times through `runner` and `policy`.
  void MeasurePrecisionForTop(Report& report, size_t k, size_t trials,
                              const std::function<TestOutcome(const Fault&)>& runner,
                              const ImpactPolicy& policy) const;

  // Renders one finding as a self-contained reproduction "script": the
  // fault scenario in the description-language attribute=value form plus
  // the expected observation (paper Fig. 5 shape).
  std::string GenerateReproScript(const Finding& finding) const;

  // Renders the whole report as a human-readable table.
  std::string Render(const Report& report) const;

 private:
  const FaultSpace* space_;
  std::string algorithm_name_;
  std::string telemetry_note_;
};

}  // namespace afex

#endif  // AFEX_CORE_REPORT_H_
