// Simulated-target campaign benchmark: times whole fitness campaigns
// (redundancy feedback on) across the four simulated targets, serial and
// in cluster mode (four nodes), and checks every cell's record digest
// against a committed golden table.
//
// Each target/jobs cell runs at two Qpriority capacities: the library
// default (64, interactive-scale) and a campaign-scale pool (the budget) —
// the paper's "does not discard any tests, rather only prioritizes their
// execution" (§3) reading. Budgets are not capped at the space size, so the
// coreutils and webserver cells run to exhaustion and exercise the fallback
// scan. The headline is the serial docstore-v2.0 campaign at the
// campaign-scale pool; it is re-run with a CampaignTelemetry sink attached,
// which must not change the records. Results are emitted as
// machine-readable JSON (BENCH_sim.json).
//
// Frozen-golden contract: kGoldenCells holds the DigestRecords digest
// (every record's fault, fitness bits, cluster id, and full outcome) of
// every cell of both configurations. A cell whose digest differs, or a
// telemetry-attached headline that differs from the plain one, makes the
// run exit 1 after printing the cell, the expected digest and the observed
// digest. Timing never fails a run. A change that alters campaign records
// on purpose copies the printed digest into kGoldenCells and explains why
// in CHANGES.md.
//
// Usage: perf_sim [--out=FILE] [--quick]
//   --quick shrinks the budget so CI can smoke-run it in a few seconds;
//   published numbers come from the default Release configuration.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/host_info.h"
#include "core/fitness_explorer.h"
#include "core/session.h"
#include "obs/telemetry.h"
#include "targets/harness.h"

namespace afex {
namespace {

struct CellResult {
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
};

constexpr size_t kDefaultBudget = 20000;
constexpr size_t kQuickBudget = 2000;
constexpr size_t kClusterJobs = 4;  // nodes of the cluster-mode cells

// Frozen record digest of every cell perf_sim runs: both budgets, every
// target, serial and kClusterJobs nodes, the default and the campaign-scale
// pool. A cell whose digest differs fails the run. A change that alters
// campaign records on purpose copies the printed digest here and explains
// why in CHANGES.md.
struct GoldenCell {
  size_t budget;
  const char* target;
  size_t jobs;
  size_t pool;
  uint64_t digest;
};
constexpr GoldenCell kGoldenCells[] = {
    {2000, "coreutils", 1, 64, 0xe086b4df90c7f0feULL},
    {2000, "coreutils", 1, 2000, 0x16405e337a14a3c7ULL},
    {2000, "coreutils", 4, 64, 0xc41a771d0bb0b883ULL},
    {2000, "coreutils", 4, 2000, 0xfef815ad05f74776ULL},
    {2000, "minidb", 1, 64, 0xe6b67866915912c6ULL},
    {2000, "minidb", 1, 2000, 0x1648a592c1c1195aULL},
    {2000, "minidb", 4, 64, 0xe325bb2de7f2d734ULL},
    {2000, "minidb", 4, 2000, 0xf0feba16963912d8ULL},
    {2000, "webserver", 1, 64, 0xdc77e5744dcd40b0ULL},
    {2000, "webserver", 1, 2000, 0x99a2093d88972b11ULL},
    {2000, "webserver", 4, 64, 0x192f2f388b184beeULL},
    {2000, "webserver", 4, 2000, 0x667a3f57e047f5cfULL},
    {2000, "docstore-v2.0", 1, 64, 0xe2f2180364c54699ULL},
    {2000, "docstore-v2.0", 1, 2000, 0xca23a503a7e81e0aULL},
    {2000, "docstore-v2.0", 4, 64, 0x75ed8bc3c0ba61abULL},
    {2000, "docstore-v2.0", 4, 2000, 0x37b8f57126a1e3fdULL},
    {20000, "coreutils", 1, 64, 0xe086b4df90c7f0feULL},
    {20000, "coreutils", 1, 20000, 0x16405e337a14a3c7ULL},
    {20000, "coreutils", 4, 64, 0xc41a771d0bb0b883ULL},
    {20000, "coreutils", 4, 20000, 0xfef815ad05f74776ULL},
    {20000, "minidb", 1, 64, 0x548e5abbbabba30bULL},
    {20000, "minidb", 1, 20000, 0x1c8c2d0386565f80ULL},
    {20000, "minidb", 4, 64, 0x08f7f23f4788f03cULL},
    {20000, "minidb", 4, 20000, 0xef6aa152fb35cf0bULL},
    {20000, "webserver", 1, 64, 0x063a0a4397bb2c75ULL},
    {20000, "webserver", 1, 20000, 0x5ed44a3ee76141faULL},
    {20000, "webserver", 4, 64, 0x171bfbca5e23232dULL},
    {20000, "webserver", 4, 20000, 0x45140baad7cdfa82ULL},
    {20000, "docstore-v2.0", 1, 64, 0x4161e0bdac6c2170ULL},
    {20000, "docstore-v2.0", 1, 20000, 0x3f0c5d8c759265e5ULL},
    {20000, "docstore-v2.0", 4, 64, 0xc8bdee04e6c65612ULL},
    {20000, "docstore-v2.0", 4, 20000, 0xfd71a7fa078efa43ULL},
};

// The committed digest of a cell, or nullopt if the table has none.
std::optional<uint64_t> GoldenDigest(size_t budget, const char* target, size_t jobs,
                                     size_t pool) {
  for (const GoldenCell& cell : kGoldenCells) {
    if (cell.budget == budget && std::strcmp(cell.target, target) == 0 && cell.jobs == jobs &&
        cell.pool == pool) {
      return cell.digest;
    }
  }
  return std::nullopt;
}

// docstore-v2.0 is the headline: a max_call of 24 (its registry default is
// 10) sizes the space (840 tests x functions x calls) to hold the full
// 20k-test campaign.
constexpr const char* kHeadlineTarget = "docstore-v2.0";
constexpr size_t kHeadlineMaxCall = 24;

CellResult RunCampaign(const SimTarget& spec, size_t budget, size_t jobs, size_t pool,
                       uint64_t seed, obs::MetricsSink* metrics = nullptr) {
  TargetSuite suite = spec.make_suite();
  std::vector<std::unique_ptr<TargetHarness>> harnesses;
  for (size_t i = 0; i < jobs; ++i) {
    harnesses.push_back(std::make_unique<TargetHarness>(suite, seed ^ 0x5eed));
  }
  harnesses[0]->set_metrics_sink(metrics);
  const size_t max_call =
      std::strcmp(spec.name, kHeadlineTarget) == 0 ? kHeadlineMaxCall : spec.default_max_call;
  FaultSpace space = harnesses[0]->MakeSpace(max_call, spec.zero_call);

  FitnessExplorerConfig explorer_config;
  explorer_config.seed = seed;
  explorer_config.priority_capacity = pool;
  FitnessExplorer explorer(space, explorer_config);

  SessionConfig session_config;
  session_config.redundancy_feedback = true;
  session_config.metrics = metrics;

  auto started = std::chrono::steady_clock::now();
  std::vector<Runner> runners;
  for (const auto& harness : harnesses) {
    runners.push_back(harness->MakeRunner(space));
  }
  ExplorationSession session(explorer, std::move(runners), session_config);
  const SessionResult& result = session.Run({.max_tests = budget});
  CellResult r;
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
  r.record_digest = DigestRecords(result);
  return r;
}

// Writes one cell's JSON object.
void EmitCell(std::ofstream& out, const char* target, size_t jobs, size_t pool,
              const CellResult& m, bool golden) {
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "    {\"target\": \"%s\", \"jobs\": %zu, \"pool\": %zu, \"seconds\": %.6f, "
                "\"tests\": %zu, \"tests_per_sec\": %.1f, \"sim_steps\": %zu, "
                "\"sim_steps_per_sec\": %.0f, \"failed\": %zu, \"crashes\": %zu, "
                "\"clusters\": %zu, \"unique_failures\": %zu, \"unique_crashes\": %zu, "
                "\"record_digest\": \"%016llx\", \"golden\": %s}",
                target, jobs, pool, m.seconds, m.tests, m.tests_per_sec(), m.sim_steps,
                m.steps_per_sec(), m.failed, m.crashes, m.clusters, m.unique_failures,
                m.unique_crashes, static_cast<unsigned long long>(m.record_digest),
                golden ? "true" : "false");
  out << buf;
}

}  // namespace
}  // namespace afex

int main(int argc, char** argv) {
  using namespace afex;

  std::string out_path = "BENCH_sim.json";
  size_t budget = kDefaultBudget;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--quick") {
      budget = kQuickBudget;
    } else {
      std::fprintf(stderr, "usage: perf_sim [--out=FILE] [--quick]\n");
      return 2;
    }
  }
  const size_t pool = budget;  // never-evict: every executed test stays prioritized
  const size_t kDefaultPool = FitnessExplorerConfig{}.priority_capacity;

  const SimTarget* targets[] = {FindSimTarget("coreutils"), FindSimTarget("minidb"),
                                FindSimTarget("webserver"), FindSimTarget(kHeadlineTarget)};
  const SimTarget& headline_spec = *targets[3];
  const uint64_t seed = 7;

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  out << "{\n  \"benchmark\": \"sim_campaign\",\n";
  out << "  " << bench::HostJson() << ",\n";
  out << "  \"config\": {\"strategy\": \"fitness\", \"feedback\": true, \"budget\": " << budget
      << ", \"cluster_jobs\": " << kClusterJobs << ", \"default_pool\": " << kDefaultPool
      << ", \"campaign_pool\": " << pool << ", \"seed\": " << seed << "},\n";
  out << "  \"results\": [\n";

  CellResult headline;
  bool all_golden = true;
  bool first = true;
  for (const SimTarget* target : targets) {
    const SimTarget& spec = *target;
    for (size_t jobs : {size_t{1}, kClusterJobs}) {
      for (size_t pool_size : {kDefaultPool, pool}) {
        std::printf("%-14s jobs=%zu pool=%-6zu ", spec.name, jobs, pool_size);
        std::fflush(stdout);
        CellResult r = RunCampaign(spec, budget, jobs, pool_size, seed);
        const std::optional<uint64_t> golden = GoldenDigest(budget, spec.name, jobs, pool_size);
        const bool matches = golden == r.record_digest;
        all_golden = all_golden && matches;
        std::printf("%8.0f t/s  digest %016llx%s\n", r.tests_per_sec(),
                    static_cast<unsigned long long>(r.record_digest),
                    matches ? "" : " [MISMATCH]");
        std::fflush(stdout);
        if (!matches) {
          std::fprintf(stderr,
                       "FATAL: %s budget=%zu jobs=%zu pool=%zu: expected digest %016llx, "
                       "observed %016llx\n",
                       spec.name, budget, jobs, pool_size,
                       static_cast<unsigned long long>(golden.value_or(0)),
                       static_cast<unsigned long long>(r.record_digest));
        }
        out << (first ? "" : ",\n");
        first = false;
        EmitCell(out, spec.name, jobs, pool_size, r, matches);
        if (&spec == &headline_spec && jobs == 1 && pool_size == pool) {
          headline = r;
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
  CellResult instrumented = RunCampaign(headline_spec, budget, 1, pool, seed, &telemetry);
  const bool telemetry_equivalent = instrumented.record_digest == headline.record_digest &&
                                    instrumented.sim_steps == headline.sim_steps;
  std::printf("%8.0f t/s  digest %s\n", instrumented.tests_per_sec(),
              telemetry_equivalent ? "unchanged" : "DIVERGED");
  if (!telemetry_equivalent) {
    std::fprintf(stderr,
                 "FATAL: attaching telemetry changed the %s campaign: expected digest %016llx, "
                 "observed %016llx\n",
                 headline_spec.name, static_cast<unsigned long long>(headline.record_digest),
                 static_cast<unsigned long long>(instrumented.record_digest));
  }
  out << "  \"telemetry_equivalent\": " << (telemetry_equivalent ? "true" : "false") << ",\n";
  out << "  \"telemetry\": ";
  telemetry.Snapshot().WriteJson(out, 2);
  out << ",\n";
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"headline\": {\"target\": \"%s\", \"jobs\": 1, \"pool\": %zu, "
                  "\"budget\": %zu, \"tests_per_sec\": %.1f},\n",
                  headline_spec.name, pool, budget, headline.tests_per_sec());
    out << buf;
  }
  out << "  \"all_cells_match_golden\": " << (all_golden ? "true" : "false") << "\n}\n";
  out.close();
  std::printf("\nheadline: %s serial (pool %zu) %.0f t/s; %s -> %s\n", headline_spec.name, pool,
              headline.tests_per_sec(),
              all_golden ? "every cell matches its golden digest" : "GOLDEN MISMATCH",
              out_path.c_str());
  return all_golden && telemetry_equivalent ? 0 : 1;
}
