// Real-backend execution-mode benchmark: times identical seeded fitness
// campaigns against the sample real targets in each exec mode —
//
//   spawn      — fork+exec per test, and
//   persistent — one target process stopped pre-main, one bare fork per
//                test, the plan armed from the feedback block and the test
//                started over a pipe; walutil's child re-runs its entry
//                function in-process via the afex_persistent_run hook until
//                exit() or a crash ends it and the next test forks a new
//                one, while txengine, which never calls the hook, runs one
//                test per child.
//
// Two campaigns are timed in both modes, each cell built from a Recipe (the
// definition afex_cli wires campaigns from): walutil over its default
// space, and txengine's two-phase crash→recover→verify campaign over
// recovery_smoke's storage-failure space. Each two-phase test runs the
// workload in the chosen mode plus two plain spawned processes (recover,
// verify), so those cells carry real.recovery_run/real.verify.
//
// Within a campaign every mode must produce the identical record sequence
// (checked with DigestRecords, the digest perf_sim uses), and that sequence
// must match the golden digest committed below for the --quick and the
// default budgets — the run exits 1 on divergence or on a mismatch, printing
// the cell, the expected and the observed digest, so each benchmark run
// doubles as the determinism acceptance check for the exec modes and
// catches drift that hits every mode alike. Each cell runs with a
// CampaignTelemetry sink attached and its phase snapshot is embedded in
// the JSON, so the artifact shows where backend.run goes, not just the
// end-to-end speedup.
//
// Usage: perf_real [--out=FILE] [--budget=N] [--quick]
//   --quick shrinks the budgets so CI can smoke-run it in a few seconds;
//   published numbers come from the default Release configuration.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "bench/host_info.h"
#include "campaign/recipe.h"
#include "core/session.h"
#include "exec/forkserver.h"
#include "exec/real_target_harness.h"
#include "obs/telemetry.h"

namespace afex {
namespace {

// A cell's recipe: a seeded fitness search with redundancy feedback over a
// real target command, spawned per test until a cell picks its exec mode.
Recipe CellRecipe(std::string target_cmd, uint64_t seed) {
  Recipe recipe;
  recipe.backend = "real";
  recipe.target_cmd = std::move(target_cmd);
  recipe.timeout_ms = 10000;
  recipe.seed = seed;
  recipe.feedback = true;
  return recipe;
}

// Frozen record digest of each timed campaign at the --quick and the
// default budget, in every exec mode. A change that alters campaign records
// on purpose copies the printed digest here and explains why in
// CHANGES.md. A custom --budget has no golden; its modes are still compared.
// The coverage A/B cell has none either: its records depend on the
// toolchain's sancov mode.
struct GoldenCell {
  const char* campaign;
  size_t budget;
  uint64_t digest;
};
constexpr GoldenCell kGoldenCells[] = {
    {"walutil", 300, 0x89db6453dc114e59ULL},
    {"txengine", 60, 0x1aeae6b354ec78baULL},
    {"walutil", 2000, 0xa1b7c4689d4233afULL},
    {"txengine", 240, 0xb05be3a48fdff6d1ULL},
};

// The committed digest of a campaign at `budget`, or nullopt if the table
// has none.
std::optional<uint64_t> GoldenDigest(const char* campaign, size_t budget) {
  for (const GoldenCell& cell : kGoldenCells) {
    if (std::strcmp(cell.campaign, campaign) == 0 && cell.budget == budget) {
      return cell.digest;
    }
  }
  return std::nullopt;
}

struct ModeResult {
  double seconds = 0.0;
  size_t tests = 0;
  double tests_per_sec = 0.0;
  size_t failed = 0;
  size_t crashes = 0;
  size_t clusters = 0;
  size_t covered_blocks = 0;
  uint64_t record_digest = 0;
  uint64_t server_restarts = 0;
};

// Times the recipe's campaign with `telemetry` attached, run to `budget`
// capped at half the space: a budget near the space size degenerates into
// the fallback-scan path.
ModeResult RunRecipe(const Recipe& recipe, size_t budget, obs::CampaignTelemetry& telemetry) {
  std::unique_ptr<Campaign> campaign = recipe.Build(AFEX_INTERPOSER_PATH, nullptr);
  auto& harness = static_cast<exec::RealTargetHarness&>(*campaign->nodes[0]);
  harness.set_metrics_sink(&telemetry);
  SessionConfig session_config;
  session_config.redundancy_feedback = recipe.feedback;
  session_config.metrics = &telemetry;
  auto started = std::chrono::steady_clock::now();
  ExplorationSession session(*campaign->explorer, std::move(campaign->runners), session_config);
  const SessionResult& outcome = session.Run(
      SearchTarget{.max_tests = std::min(budget, campaign->space.TotalPoints() / 2)});
  ModeResult result;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  result.tests = outcome.tests_executed;
  result.tests_per_sec = result.seconds > 0.0 ? result.tests / result.seconds : 0.0;
  result.failed = outcome.failed_tests;
  result.crashes = outcome.crashes;
  result.clusters = outcome.clusters;
  result.covered_blocks = outcome.blocks_covered;
  result.record_digest = DigestRecords(outcome);
  if (harness.forkserver() != nullptr) {
    result.server_restarts = harness.forkserver()->restarts();
  }
  return result;
}

#ifdef AFEX_WALUTIL_COV_PATH
// Proxy-vs-edges coverage A/B cell: identical seeded fitness campaigns on
// the sancov-instrumented walutil, once with the libc proxy signal and
// once with real edge coverage. The number that matters is where the
// coverage-growth curve stops — the proxy's block universe (one block per
// interposed libc call) saturates after a few dozen tests, while the edge
// signal keeps paying fitness feedback well past that wall.
struct CoverageCell {
  ModeResult run;
  uint64_t last_growth_test = 0;  // last test index where coverage grew
  size_t growth_points = 0;
  double edges_total = 0.0;  // gauge real.edges_total; stays 0 in proxy mode
};

CoverageCell RunCoverageCell(bool use_edges, size_t budget, uint64_t seed) {
  Recipe recipe = CellRecipe(AFEX_WALUTIL_COV_PATH " {test}", seed);
  recipe.exec_mode = "persistent";
  recipe.max_call = 6;
  recipe.coverage = use_edges ? "edges" : "proxy";
  obs::CampaignTelemetry telemetry;
  CoverageCell cell;
  cell.run = RunRecipe(recipe, budget, telemetry);
  obs::MetricsSnapshot snapshot = telemetry.Snapshot();
  cell.growth_points = snapshot.coverage_growth.size();
  if (!snapshot.coverage_growth.empty()) {
    cell.last_growth_test = snapshot.coverage_growth.back().tests;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == obs::GaugeName(obs::Gauge::kRealEdgesTotal)) {
      cell.edges_total = value;
    }
  }
  return cell;
}

void EmitCoverageCell(std::ofstream& out, const char* key, const CoverageCell& c) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "    \"%s\": {\"seconds\": %.6f, \"tests\": %zu, "
                "\"covered_blocks\": %zu, \"last_growth_test\": %llu, "
                "\"growth_points\": %zu, \"edges_total\": %.0f, "
                "\"crashes\": %zu, \"clusters\": %zu}",
                key, c.run.seconds, c.run.tests, c.run.covered_blocks,
                static_cast<unsigned long long>(c.last_growth_test), c.growth_points,
                c.edges_total, c.run.crashes, c.run.clusters);
  out << buf;
}
#endif  // AFEX_WALUTIL_COV_PATH

// txengine's <test, function, call, retval, mode> storage-failure space, the
// recovery smoke test's: 480 points. retval is pinned at 20, the
// short_write byte count K.
constexpr char kTxengineStorageSpace[] =
    "txstorage\ntest : [1,1]\nfunction : { write, fsync, rename }\ncall : [1,40]\n"
    "retval : [20,20]\nmode : { kill_at, short_write, drop_sync, crash_after_rename }\n;\n";

// Runs `campaign`'s `recipe` in spawn mode, the baseline, and in persistent
// mode, which must match it record for record; prints one line per mode and
// writes one JSON object per mode into `out`. `speedup` is persistent's over
// spawn. Returns false when the persistent records diverged from spawn's;
// clears `all_golden` when a mode's digest differs from the campaign's
// golden.
bool RunModes(const char* campaign, Recipe recipe, size_t budget, std::ofstream& out,
              double& speedup, bool& all_golden) {
  constexpr const char* kModes[] = {"spawn", "persistent"};
  const std::optional<uint64_t> golden = GoldenDigest(campaign, budget);
  ModeResult baseline;
  bool equivalent = true;
  for (size_t i = 0; i < 2; ++i) {
    const char* mode = kModes[i];
    std::printf("%-11s ", mode);
    std::fflush(stdout);
    obs::CampaignTelemetry telemetry;
    recipe.exec_mode = mode;
    ModeResult result = RunRecipe(recipe, budget, telemetry);
    speedup = 1.0;
    if (i == 0) {
      baseline = result;
    } else {
      speedup = result.seconds > 0.0 ? baseline.seconds / result.seconds : 0.0;
      equivalent = result.record_digest == baseline.record_digest &&
                   result.tests == baseline.tests && result.crashes == baseline.crashes &&
                   result.clusters == baseline.clusters;
    }
    const bool matches_golden = !golden.has_value() || *golden == result.record_digest;
    all_golden = all_golden && matches_golden;
    std::printf("%8.0f tests/s  (%.3fs, %zu crashes, %zu clusters)  speedup %5.2fx  "
                "digest %016llx%s%s\n",
                result.tests_per_sec, result.seconds, result.crashes, result.clusters, speedup,
                static_cast<unsigned long long>(result.record_digest),
                equivalent ? "" : "  [RECORDS DIVERGED]", matches_golden ? "" : "  [GOLDEN]");
    if (!equivalent) {
      std::fprintf(stderr, "FATAL: persistent mode diverged from spawn-mode records\n");
    }
    if (!matches_golden) {
      std::fprintf(stderr,
                   "FATAL: %s %s budget=%zu: expected digest %016llx, observed %016llx\n",
                   campaign, mode, budget, static_cast<unsigned long long>(*golden),
                   static_cast<unsigned long long>(result.record_digest));
    }
    if (i > 0) {
      out << ",\n";
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    \"%s\": {\"seconds\": %.6f, \"tests\": %zu, "
                  "\"tests_per_sec\": %.1f, \"failed\": %zu, \"crashes\": %zu, "
                  "\"clusters\": %zu, \"speedup_vs_spawn\": %.2f, "
                  "\"server_restarts\": %llu, \"record_digest\": \"%016llx\", "
                  "\"equivalent_to_spawn\": %s, \"golden\": %s,\n      \"telemetry\": ",
                  mode, result.seconds, result.tests, result.tests_per_sec,
                  result.failed, result.crashes, result.clusters, speedup,
                  static_cast<unsigned long long>(result.server_restarts),
                  static_cast<unsigned long long>(result.record_digest),
                  equivalent ? "true" : "false", matches_golden ? "true" : "false");
    out << buf;
    telemetry.Snapshot().WriteJson(out, 3);
    out << "\n    }";
  }
  return equivalent;
}

}  // namespace
}  // namespace afex

int main(int argc, char** argv) {
  using namespace afex;

  std::string out_path = "BENCH_real.json";
  size_t budget = 2000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--budget=", 0) == 0) {
      budget = static_cast<size_t>(std::strtoull(arg.c_str() + 9, nullptr, 10));
    } else if (arg == "--quick") {
      budget = 300;
      quick = true;
    } else {
      std::fprintf(stderr, "usage: perf_real [--out=FILE] [--budget=N] [--quick]\n");
      return 2;
    }
  }
  if (budget == 0) {
    std::fprintf(stderr, "--budget must be positive\n");
    return 2;
  }
  const uint64_t seed = 7;
  // Two-phase tests cost three processes each; the campaign's own cap (half
  // of the 480-point space) keeps the default run to a few seconds.
  const size_t two_phase_budget = std::min<size_t>(budget, quick ? 60 : 240);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  out << "{\n  \"benchmark\": \"real_exec_modes\",\n";
  out << "  " << bench::HostJson() << ",\n";
  out << "  \"config\": {\"target\": \"walutil\", \"strategy\": \"fitness\", "
         "\"feedback\": true, \"budget\": "
      << budget << ", \"num_tests\": 6, \"max_call\": 6, \"seed\": " << seed << "},\n";
  out << "  \"results\": {\n";
  Recipe walutil = CellRecipe(AFEX_WALUTIL_PATH " {test}", seed);
  walutil.max_call = 6;
  double persistent_speedup = 0.0;
  bool all_golden = true;
  bool all_equivalent =
      RunModes("walutil", walutil, budget, out, persistent_speedup, all_golden);
  out << "\n  },\n";

  std::printf("two-phase txengine (budget %zu):\n", two_phase_budget);
  out << "  \"two_phase\": {\"target\": \"txengine\", \"space\": \"txengine-storage\", "
         "\"points\": 480, \"strategy\": \"fitness\", \"feedback\": true, \"budget\": "
      << two_phase_budget << ", \"seed\": " << seed << ",\n";
  Recipe txengine = CellRecipe(AFEX_TXENGINE_PATH " workload {test}", seed);
  txengine.recovery_cmd = AFEX_TXENGINE_PATH " recover";
  txengine.verify_cmd = AFEX_TXENGINE_PATH " verify";
  txengine.space = kTxengineStorageSpace;
  double two_phase_persistent_speedup = 0.0;
  all_equivalent = RunModes("txengine", txengine, two_phase_budget, out,
                            two_phase_persistent_speedup, all_golden) &&
                   all_equivalent;
  out << "\n  },\n";
#ifdef AFEX_WALUTIL_COV_PATH
  {
    // Fixed A/B budget regardless of --budget/--quick: the cell exists to
    // show where each signal's growth curve stops, and 120 tests is well
    // past the proxy's saturation wall while staying CI-smoke cheap.
    const size_t cov_budget = 120;
    std::printf("coverage A/B (budget %zu): proxy... ", cov_budget);
    std::fflush(stdout);
    CoverageCell proxy_cell = RunCoverageCell(/*use_edges=*/false, cov_budget, seed);
    std::printf("%zu blocks, growth stops at test %llu  edges... ",
                proxy_cell.run.covered_blocks,
                static_cast<unsigned long long>(proxy_cell.last_growth_test));
    std::fflush(stdout);
    CoverageCell edges_cell = RunCoverageCell(/*use_edges=*/true, cov_budget, seed);
    std::printf("%.0f edges, growth through test %llu\n", edges_cell.edges_total,
                static_cast<unsigned long long>(edges_cell.last_growth_test));
    out << "  \"coverage_ab\": {\n"
        << "    \"target\": \"walutil_cov\", \"strategy\": \"fitness\", \"budget\": "
        << cov_budget << ", \"seed\": " << seed << ",\n";
    EmitCoverageCell(out, "proxy", proxy_cell);
    out << ",\n";
    EmitCoverageCell(out, "edges", edges_cell);
    out << "\n  },\n";
  }
#else
  // Toolchain without -fsanitize-coverage support: no instrumented walutil
  // variant to A/B against.
  out << "  \"coverage_ab\": null,\n";
#endif
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"headline\": {\"persistent_speedup\": %.2f, "
                  "\"two_phase_persistent_speedup\": %.2f, \"budget\": %zu},\n",
                  persistent_speedup, two_phase_persistent_speedup, budget);
    out << buf;
  }
  out << "  \"all_modes_equivalent\": " << (all_equivalent ? "true" : "false") << ",\n";
  out << "  \"all_cells_match_golden\": " << (all_golden ? "true" : "false") << "\n}\n";
  out.close();
  std::printf("\nheadline: persistent %.2fx over spawn; two-phase persistent %.2fx -> %s\n",
              persistent_speedup, two_phase_persistent_speedup, out_path.c_str());
  return all_equivalent && all_golden ? 0 : 1;
}
