// Simulated-target campaign benchmark: times whole fitness campaigns
// (redundancy feedback on) across the four simulated targets, serial and
// cluster-mode (--jobs), and checks the two retained reference
// implementations against the library defaults. Every cell runs the same
// seeded campaign three times:
//
//   optimized          — the library defaults: flat interned-path SimEnv
//                        tables and pointer-cached bus counters, the
//                        interned/memoized clusterer, and the incremental
//                        explorer;
//   sim_reference      — the std::map-backed SimEnv tables and map-backed
//                        fault-bus counters on every node
//                        (SimEnvConfig::reference_structures: the sim layer
//                        as originally shipped);
//   feedback_reference — the original feedback-path algorithms (naive
//                        unpruned clustering sweeps, per-attempt weight
//                        rebuilds, eager aging, from-scratch fallback scans:
//                        FitnessExplorerConfig::reference_algorithms plus
//                        ClusterConfig::naive_reference).
//
// Each reference leg must reproduce the optimized campaign exactly — the
// same totals, sim steps, and bench::DigestRecords digest over every
// record's fault, fitness bits, cluster id, and full outcome — or the run
// exits 1 naming the leg and cell, so every benchmark run doubles as an
// equivalence check of both optimized paths against their oracles. The
// feedback reference consumes the RNG stream identically by construction;
// value equality of its trajectory additionally rests on floating-point
// reformulations (lazy decay scaling, prefix-sum selection) staying on the
// same side of every comparison, which this check and feedback_perf_test
// verify empirically.
//
// Each target/jobs cell runs at two Qpriority capacities: the library
// default (64, interactive-scale) and a campaign-scale pool (--pool,
// default = the budget) — the paper's "does not discard any tests, rather
// only prioritizes their execution" (§3) reading. Budgets are not capped
// at the space size, so the coreutils and webserver cells run to
// exhaustion and exercise the fallback scan. The headline is the serial
// docstore-v2.0 campaign at the campaign-scale pool; its optimized campaign
// is re-run with a CampaignTelemetry sink attached, which must not change
// the records. Results are emitted as machine-readable JSON (BENCH_sim.json).
//
// Usage: perf_sim [--out=FILE] [--budget=N] [--jobs=N] [--pool=N] [--quick]
//   --quick shrinks the budget so CI can smoke-run it in a few seconds;
//   published numbers come from the default Release configuration.
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/host_info.h"
#include "core/fitness_explorer.h"
#include "core/session.h"
#include "obs/telemetry.h"
#include "targets/coreutils/suite.h"
#include "targets/docstore/suite.h"
#include "targets/harness.h"
#include "targets/minidb/suite.h"
#include "targets/webserver/suite.h"

namespace afex {
namespace {

struct TargetSpec {
  const char* name;
  TargetSuite (*make)();
  size_t max_call;
  bool zero_call;
};

enum class Leg { kOptimized, kSimReference, kFeedbackReference };
constexpr Leg kReferenceLegs[] = {Leg::kSimReference, Leg::kFeedbackReference};

const char* LegName(Leg leg) {
  switch (leg) {
    case Leg::kOptimized:
      return "optimized";
    case Leg::kSimReference:
      return "sim_reference";
    case Leg::kFeedbackReference:
      return "feedback_reference";
  }
  return "?";
}

struct LegResult {
  double seconds = 0.0;
  size_t tests = 0;
  size_t failed = 0;
  size_t crashes = 0;
  size_t clusters = 0;
  size_t unique_failures = 0;
  size_t unique_crashes = 0;
  size_t sim_steps = 0;
  uint64_t record_digest = 0;

  double tests_per_sec() const { return seconds > 0.0 ? tests / seconds : 0.0; }
  double steps_per_sec() const { return seconds > 0.0 ? sim_steps / seconds : 0.0; }
  double SlowdownVs(const LegResult& optimized) const {
    return optimized.seconds > 0.0 ? seconds / optimized.seconds : 0.0;
  }
  bool SameCampaignAs(const LegResult& o) const {
    return tests == o.tests && failed == o.failed && crashes == o.crashes &&
           clusters == o.clusters && unique_failures == o.unique_failures &&
           unique_crashes == o.unique_crashes && sim_steps == o.sim_steps &&
           record_digest == o.record_digest;
  }
};

LegResult RunCampaign(const TargetSpec& spec, size_t budget, size_t jobs, size_t pool, Leg leg,
                      uint64_t seed, obs::MetricsSink* metrics = nullptr) {
  const bool feedback_reference = leg == Leg::kFeedbackReference;
  TargetSuite suite = spec.make();
  std::vector<std::unique_ptr<TargetHarness>> harnesses;
  for (size_t i = 0; i < jobs; ++i) {
    harnesses.push_back(
        std::make_unique<TargetHarness>(suite, seed ^ 0x5eed, leg == Leg::kSimReference));
  }
  harnesses[0]->set_metrics_sink(metrics);
  FaultSpace space = harnesses[0]->MakeSpace(spec.max_call, spec.zero_call);

  FitnessExplorerConfig explorer_config;
  explorer_config.seed = seed;
  explorer_config.priority_capacity = pool;
  explorer_config.reference_algorithms = feedback_reference;
  FitnessExplorer explorer(space, explorer_config);

  SessionConfig session_config;
  session_config.redundancy_feedback = true;
  session_config.cluster_config.naive_reference = feedback_reference;
  session_config.metrics = metrics;

  auto started = std::chrono::steady_clock::now();
  std::vector<Runner> runners;
  for (const auto& harness : harnesses) {
    runners.push_back(harness->MakeRunner(space));
  }
  ExplorationSession session(explorer, std::move(runners), session_config);
  const SessionResult& result = session.Run({.max_tests = budget});
  LegResult r;
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  for (const auto& harness : harnesses) {
    r.sim_steps += harness->total_sim_steps();
  }
  r.tests = result.tests_executed;
  r.failed = result.failed_tests;
  r.crashes = result.crashes;
  r.clusters = result.clusters;
  r.unique_failures = result.unique_failures;
  r.unique_crashes = result.unique_crashes;
  r.record_digest = bench::DigestRecords(result);
  return r;
}

// Writes one leg's JSON object; reference legs also carry their slowdown
// against `optimized` and whether they reproduced it.
void EmitLeg(std::ofstream& out, Leg leg, const LegResult& m, const LegResult& optimized) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "      \"%s\": {\"seconds\": %.6f, \"tests\": %zu, \"tests_per_sec\": %.1f, "
                "\"sim_steps\": %zu, \"sim_steps_per_sec\": %.0f, \"failed\": %zu, "
                "\"crashes\": %zu, \"clusters\": %zu, \"unique_failures\": %zu, "
                "\"unique_crashes\": %zu, \"record_digest\": \"%016llx\"",
                LegName(leg), m.seconds, m.tests, m.tests_per_sec(), m.sim_steps,
                m.steps_per_sec(), m.failed, m.crashes, m.clusters, m.unique_failures,
                m.unique_crashes, static_cast<unsigned long long>(m.record_digest));
  out << buf;
  if (leg != Leg::kOptimized) {
    std::snprintf(buf, sizeof(buf), ", \"slowdown\": %.2f, \"equivalent\": %s",
                  m.SlowdownVs(optimized),
                  m.SameCampaignAs(optimized) ? "true" : "false");
    out << buf;
  }
  out << "}";
}

}  // namespace
}  // namespace afex

int main(int argc, char** argv) {
  using namespace afex;

  std::string out_path = "BENCH_sim.json";
  size_t budget = 20000;
  size_t cluster_jobs = 4;
  size_t pool = 0;  // 0 = size to the budget (campaign-scale Qpriority)
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--budget=", 0) == 0) {
      budget = static_cast<size_t>(std::strtoull(arg.c_str() + 9, nullptr, 10));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      cluster_jobs = static_cast<size_t>(std::strtoull(arg.c_str() + 7, nullptr, 10));
    } else if (arg.rfind("--pool=", 0) == 0) {
      pool = static_cast<size_t>(std::strtoull(arg.c_str() + 7, nullptr, 10));
    } else if (arg == "--quick") {
      budget = 2000;
    } else {
      std::fprintf(stderr,
                   "usage: perf_sim [--out=FILE] [--budget=N] [--jobs=N] [--pool=N] [--quick]\n");
      return 2;
    }
  }
  if (budget == 0 || cluster_jobs == 0) {
    std::fprintf(stderr, "--budget and --jobs must be positive\n");
    return 2;
  }
  if (pool == 0) {
    pool = budget;  // never-evict: every executed test stays prioritized
  }
  const size_t kDefaultPool = FitnessExplorerConfig{}.priority_capacity;

  // docstore-v2.0 is the headline: max_call sized so the space (840 tests x
  // functions x calls) holds the full 20k-test campaign.
  const TargetSpec targets[] = {
      {"coreutils", &coreutils::MakeSuite, 2, true},
      {"minidb", &minidb::MakeSuite, 100, false},
      {"webserver", &webserver::MakeSuite, 10, false},
      {"docstore-v2.0", &docstore::MakeSuiteV20, 24, false},
  };
  const TargetSpec& headline_spec = targets[3];
  const uint64_t seed = 7;

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  out << "{\n  \"benchmark\": \"sim_campaign\",\n";
  out << "  " << bench::HostJson() << ",\n";
  out << "  \"config\": {\"strategy\": \"fitness\", \"feedback\": true, \"budget\": " << budget
      << ", \"cluster_jobs\": " << cluster_jobs << ", \"default_pool\": " << kDefaultPool
      << ", \"campaign_pool\": " << pool << ", \"seed\": " << seed << "},\n";
  out << "  \"results\": [\n";

  std::array<LegResult, 3> headline;  // indexed by Leg
  bool all_equivalent = true;
  bool first = true;
  std::vector<size_t> jobs_list = {1};
  if (cluster_jobs != 1) {
    jobs_list.push_back(cluster_jobs);
  }
  std::vector<size_t> pool_list = {kDefaultPool};
  if (pool != kDefaultPool) {
    pool_list.push_back(pool);
  }
  for (const TargetSpec& spec : targets) {
    for (size_t jobs : jobs_list) {
      for (size_t pool_size : pool_list) {
        std::printf("%-14s jobs=%zu pool=%-6zu optimized ", spec.name, jobs, pool_size);
        std::fflush(stdout);
        std::array<LegResult, 3> legs;  // indexed by Leg
        legs[0] = RunCampaign(spec, budget, jobs, pool_size, Leg::kOptimized, seed);
        std::printf("%8.0f t/s", legs[0].tests_per_sec());
        if (!first) {
          out << ",\n";
        }
        first = false;
        out << "    {\"target\": \"" << spec.name << "\", \"jobs\": " << jobs
            << ", \"pool\": " << pool_size << ",\n";
        EmitLeg(out, Leg::kOptimized, legs[0], legs[0]);
        for (Leg leg : kReferenceLegs) {
          std::printf("  %s ", LegName(leg));
          std::fflush(stdout);
          LegResult& r = legs[static_cast<size_t>(leg)];
          r = RunCampaign(spec, budget, jobs, pool_size, leg, seed);
          const bool equivalent = r.SameCampaignAs(legs[0]);
          all_equivalent = all_equivalent && equivalent;
          std::printf("%8.0f t/s (%5.2fx)%s", r.tests_per_sec(), r.SlowdownVs(legs[0]),
                      equivalent ? "" : " [MISMATCH]");
          if (!equivalent) {
            std::fprintf(stderr, "\nFATAL: %s diverged from optimized on %s jobs=%zu pool=%zu\n",
                         LegName(leg), spec.name, jobs, pool_size);
          }
          out << ",\n";
          EmitLeg(out, leg, r, legs[0]);
        }
        std::printf("\n");
        out << "\n    }";
        if (&spec == &headline_spec && jobs == 1 && pool_size == pool) {
          headline = legs;
        }
      }
    }
  }
  out << "\n  ],\n";

  // Telemetry A/B guard + embedded snapshot: the headline campaign re-run
  // with a CampaignTelemetry sink must reproduce the identical campaign
  // (telemetry may cost time but never change results).
  std::printf("%-14s jobs=1 pool=%-6zu telemetry-attached ", headline_spec.name, pool);
  std::fflush(stdout);
  obs::CampaignTelemetry telemetry;
  LegResult instrumented =
      RunCampaign(headline_spec, budget, 1, pool, Leg::kOptimized, seed, &telemetry);
  const bool telemetry_equivalent = instrumented.SameCampaignAs(headline[0]);
  all_equivalent = all_equivalent && telemetry_equivalent;
  std::printf("%8.0f t/s  digest %s\n", instrumented.tests_per_sec(),
              telemetry_equivalent ? "unchanged" : "DIVERGED");
  if (!telemetry_equivalent) {
    std::fprintf(stderr, "FATAL: attaching telemetry changed the %s campaign's records\n",
                 headline_spec.name);
  }
  out << "  \"telemetry_equivalent\": " << (telemetry_equivalent ? "true" : "false") << ",\n";
  out << "  \"telemetry\": ";
  telemetry.Snapshot().WriteJson(out, 2);
  out << ",\n";
  const double sim_slowdown = headline[1].SlowdownVs(headline[0]);
  const double feedback_slowdown = headline[2].SlowdownVs(headline[0]);
  {
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "  \"headline\": {\"target\": \"%s\", \"jobs\": 1, \"pool\": %zu, "
                  "\"budget\": %zu, \"optimized_tests_per_sec\": %.1f, "
                  "\"sim_reference_slowdown\": %.2f, \"feedback_reference_slowdown\": %.2f},\n",
                  headline_spec.name, pool, budget, headline[0].tests_per_sec(), sim_slowdown,
                  feedback_slowdown);
    out << buf;
  }
  out << "  \"all_legs_equivalent\": " << (all_equivalent ? "true" : "false") << "\n}\n";
  out.close();
  std::printf(
      "\nheadline: %s serial (pool %zu) %.0f t/s; sim_reference %.2fx, feedback_reference "
      "%.2fx slower -> %s\n",
      headline_spec.name, pool, headline[0].tests_per_sec(), sim_slowdown, feedback_slowdown,
      out_path.c_str());
  return all_equivalent ? 0 : 1;
}
