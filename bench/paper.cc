// Reproduces the paper's §7 evidence in one run: Tables 1-6, Figs. 1, 8 and
// 9, and three ablations of the fitness explorer's design choices. Every
// campaign is seeded, so the transcript is byte for byte reproducible; the
// paper_golden CTest compares it with bench/paper_golden.txt.
#include <sys/types.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "core/fitness_explorer.h"
#include "core/session.h"
#include "injection/plan.h"
#include "targets/coreutils/suite.h"
#include "targets/docstore/suite.h"
#include "targets/harness.h"
#include "targets/minidb/suite.h"
#include "targets/webserver/suite.h"
#include "util/rng.h"

using namespace afex;

namespace {

// One row of a strategy comparison.
struct Row {
  const char* label;     // as the table prints it
  const char* strategy;  // MakeExplorer's name
  size_t budget;
};

struct Campaign {
  SessionResult session;
  double coverage = 0.0;
  double recovery_coverage = 0.0;
};

// Runs one campaign of `row` against a fresh harness for `suite`.
Campaign Run(const TargetSuite& suite, const FaultSpace& space, const Row& row, uint64_t seed,
             const SessionConfig& config = {}) {
  TargetHarness harness(suite);
  auto explorer = MakeExplorer(row.strategy, space, seed);
  ExplorationSession session(*explorer, harness.MakeRunner(space), config);
  Campaign campaign;
  campaign.session = session.Run({.max_tests = row.budget});
  campaign.coverage = harness.CoverageFraction();
  campaign.recovery_coverage = harness.RecoveryCoverageFraction();
  return campaign;
}

// The paper's headline comparison: fitness-guided vs random search at an
// equal budget.
std::vector<Row> FitnessVsRandom(size_t budget) {
  return {{"fitness-guided", "fitness", budget}, {"random", "random", budget}};
}

double Ratio(size_t numerator, size_t denominator) {
  return denominator ? static_cast<double>(numerator) / denominator : 0.0;
}

void PrintFailedAndCrashRatios(const Campaign& fitness, const Campaign& random,
                               const char* paper_failed, const char* paper_crashes) {
  std::printf("\nfailed-test ratio fitness/random: %.2fx (paper: %s)\n",
              Ratio(fitness.session.failed_tests, random.session.failed_tests), paper_failed);
  std::printf("crash ratio fitness/random:       %.2fx (paper: %s)\n",
              Ratio(fitness.session.crashes, random.session.crashes), paper_crashes);
}

void PrintHeader(const char* title) { std::printf("\n==== %s ====\n", title); }

// Table 1: MySQL (here MiniDb) on Phi_MySQL (1,147 tests x 19 functions x
// 100 calls). The paper ran each strategy for 24 hours; both get an equal
// 4,000 samples here. Paper: the plain suite finds nothing, fitness finds
// ~3x the failed tests and ~9x the crashes of random, coverage is similar.
void Table1() {
  const size_t kBudget = 4000;
  TargetSuite suite = minidb::MakeSuite();
  FaultSpace space = TargetHarness(suite).MakeSpace(100, /*include_zero_call=*/false);

  PrintHeader("Table 1: MiniDb (MySQL stand-in), equal-budget comparison");
  std::printf("fault space: %zu points, budget: %zu tests per strategy\n\n", space.TotalPoints(),
              kBudget);
  TargetHarness suite_harness(suite);
  size_t suite_failed = suite_harness.RunSuiteWithoutInjection();
  std::printf("%-16s %10s %10s %10s %12s\n", "strategy", "tests", "failed", "crashes", "coverage");
  std::printf("%-16s %10zu %10zu %10d %11.2f%%\n", "test suite", suite.num_tests, suite_failed, 0,
              100 * suite_harness.CoverageFraction());

  // Paper §7: "we use a similar impact metric to that in coreutils, but we
  // also factor in crashes, which we consider to be worth emphasizing in
  // the case of MySQL."
  SessionConfig config;
  config.policy.points_per_crash = 100.0;
  config.policy.points_per_hang = 50.0;
  std::vector<Campaign> runs;
  for (const Row& row : FitnessVsRandom(kBudget)) {
    runs.push_back(Run(suite, space, row, 424242, config));
    const SessionResult& r = runs.back().session;
    std::printf("%-16s %10zu %10zu %10zu %11.2f%%\n", row.label, r.tests_executed, r.failed_tests,
                r.crashes, 100 * runs.back().coverage);
  }
  PrintFailedAndCrashRatios(runs[0], runs[1], "2.92x", "9.10x");
}

// A crash manifests the paper's Fig. 7 strdup/malloc NULL dereference when
// the injection-point stack names the module-registration path.
size_t CountFig7Manifestations(const SessionResult& result) {
  size_t count = 0;
  for (const SessionRecord& r : result.records) {
    if (r.outcome.crashed &&
        std::find(r.outcome.injection_stack.begin(), r.outcome.injection_stack.end(),
                  "ap_add_module") != r.outcome.injection_stack.end()) {
      ++count;
    }
  }
  return count;
}

// Table 2: Apache httpd (here WebServer) on Phi_Apache (58 x 19 x 10) at
// 1,000 iterations. Paper: failed 736 vs 238, crashes 246 vs 21, Fig. 7
// bug hit 27 times by fitness and never by random.
void Table2() {
  TargetSuite suite = webserver::MakeSuite();
  FaultSpace space = TargetHarness(suite).MakeSpace(10, /*include_zero_call=*/false);

  PrintHeader("Table 2: WebServer (Apache stand-in), 1,000 test iterations");
  std::printf("fault space: %zu points\n\n", space.TotalPoints());
  std::printf("%-16s %10s %10s %16s\n", "strategy", "failed", "crashes", "fig7-bug-hits");
  std::vector<Campaign> runs;
  for (const Row& row : FitnessVsRandom(1000)) {
    runs.push_back(Run(suite, space, row, 7));
    const SessionResult& r = runs.back().session;
    std::printf("%-16s %10zu %10zu %16zu\n", row.label, r.failed_tests, r.crashes,
                CountFig7Manifestations(r));
  }
  PrintFailedAndCrashRatios(runs[0], runs[1], "3.09x", "11.71x");
}

// Table 3 and the §7.2 recovery-coverage analysis: 250 sampled faults of
// Phi_coreutils (1,653 points), exhaustive search as the completeness
// baseline. Paper: coverage 36.14 / 35.84 / 36.17%, failed tests 74 / 32 /
// 205, and fitness covers 95% of the recovery code exhaustive search does.
void Table3() {
  TargetSuite suite = coreutils::MakeSuite();
  FaultSpace space = TargetHarness(suite).MakeSpace(2, /*include_zero_call=*/true);

  PrintHeader("Table 3: coreutils, 250 sampled faults (of 1,653)");
  TargetHarness baseline(suite);
  baseline.RunSuiteWithoutInjection();
  std::printf("suite-only coverage (no injection): %.2f%%\n\n", 100 * baseline.CoverageFraction());

  std::printf("%-16s %10s %10s %12s %18s\n", "strategy", "tests", "failed", "coverage",
              "recovery-coverage");
  std::vector<Row> rows = FitnessVsRandom(250);
  rows.push_back({"exhaustive", "exhaustive", 1653});
  std::vector<Campaign> runs;
  for (const Row& row : rows) {
    runs.push_back(Run(suite, space, row, 2012));
    const Campaign& c = runs.back();
    std::printf("%-16s %10zu %10zu %11.2f%% %17.2f%%\n", row.label, c.session.tests_executed,
                c.session.failed_tests, 100 * c.coverage, 100 * c.recovery_coverage);
  }
  const Campaign& fitness = runs[0];
  const Campaign& exhaustive = runs[2];
  std::printf("\nfitness/random failed-test ratio: %.2fx (paper: 2.31x)\n",
              Ratio(fitness.session.failed_tests, runs[1].session.failed_tests));
  std::printf("exhaustive/fitness failed-test ratio: %.2fx at %.2fx the tests (paper: 2.77x at 6.61x)\n",
              Ratio(exhaustive.session.failed_tests, fitness.session.failed_tests),
              1653.0 / 250.0);
  std::printf("\nrecovery code covered by fitness at 15%% sampling: %.0f%% (paper: 95%%)\n",
              100 * fitness.recovery_coverage / exhaustive.recovery_coverage);
}

FaultSpace ShuffleAxis(const FaultSpace& space, size_t axis_index, uint64_t seed) {
  std::vector<Axis> axes = space.axes();
  std::vector<size_t> perm(axes[axis_index].cardinality());
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed);
  rng.Shuffle(perm);
  axes[axis_index] = axes[axis_index].Permuted(perm);
  return FaultSpace(std::move(axes), space.name() + "-shuffled");
}

// Table 4: efficiency when one axis's structure is destroyed by shuffling
// its values (WebServer, 1,000 iterations). Paper: failed 73 / 59 / 43 /
// 48 / 23%; every shuffle hurts, the function axis most.
void Table4() {
  const size_t kBudget = 1000;
  TargetSuite suite = webserver::MakeSuite();
  FaultSpace original = TargetHarness(suite).MakeSpace(10, false);

  PrintHeader("Table 4: efficiency under structure loss (WebServer, 1,000 iterations)");
  std::printf("%-20s %12s %12s\n", "configuration", "failed %", "crashes %");
  struct Config {
    Row row;
    int shuffle_axis;  // -1 = none
  };
  const Config configs[] = {
      {{"original structure", "fitness", kBudget}, -1},
      {{"randomized test", "fitness", kBudget}, 0},
      {{"randomized func", "fitness", kBudget}, 1},
      {{"randomized call", "fitness", kBudget}, 2},
      {{"random search", "random", kBudget}, -1},
  };
  // Each configuration is averaged over several session seeds and shuffle
  // permutations: a single 1,000-iteration run is noisy.
  const uint64_t kSeeds[] = {7, 17, 27, 37, 47, 57, 67, 77};
  for (const Config& config : configs) {
    double failed = 0.0;
    double crashes = 0.0;
    for (uint64_t seed : kSeeds) {
      FaultSpace space =
          config.shuffle_axis >= 0
              ? ShuffleAxis(original, static_cast<size_t>(config.shuffle_axis), 99 + seed)
              : original;
      SessionResult r = Run(suite, space, config.row, seed).session;
      failed += 100.0 * r.failed_tests / r.tests_executed;
      crashes += 100.0 * r.crashes / r.tests_executed;
    }
    std::printf("%-20s %11.0f%% %11.0f%%\n", config.row.label, failed / std::size(kSeeds),
                crashes / std::size(kSeeds));
  }
  std::printf("\n(paper: 73/59/43/48/23%% failed, 25/22/13/17/2%% crashes)\n");
}

// Table 5: the online redundancy-feedback loop on unique failures
// (WebServer, 1,000 iterations). Paper: unique failures 249 -> 348 (+40%)
// with feedback, random 190.
void Table5() {
  const size_t kBudget = 1000;
  TargetSuite suite = webserver::MakeSuite();
  FaultSpace space = TargetHarness(suite).MakeSpace(10, false);

  PrintHeader("Table 5: redundancy feedback (WebServer, 1,000 iterations)");
  std::printf("%-26s %10s %16s %16s\n", "strategy", "failed", "unique-failures",
              "unique-crashes");
  struct Config {
    Row row;
    bool feedback;
  };
  const Config configs[] = {
      {{"fitness-guided", "fitness", kBudget}, false},
      {{"fitness-guided+feedback", "fitness", kBudget}, true},
      {{"random search", "random", kBudget}, false},
  };
  size_t unique[std::size(configs)] = {};
  for (size_t i = 0; i < std::size(configs); ++i) {
    SessionConfig session_config;
    session_config.redundancy_feedback = configs[i].feedback;
    SessionResult r = Run(suite, space, configs[i].row, 7, session_config).session;
    std::printf("%-26s %10zu %16zu %16zu\n", configs[i].row.label, r.failed_tests,
                r.unique_failures, r.unique_crashes);
    unique[i] = r.unique_failures;
  }
  std::printf("\nunique-failure gain from feedback: %+.0f%% (paper: +40%%)\n",
              unique[0] ? 100.0 * (static_cast<double>(unique[1]) - unique[0]) / unique[0] : 0.0);
}

// Key identifying a Table 6 scenario independent of which space it came from.
std::string ScenarioKey(const FaultDecoder& decoder, const Fault& fault) {
  InjectionPlan plan = decoder.Decode(fault);
  if (!plan.spec.has_value()) {
    return "";
  }
  return std::to_string(plan.test_id) + "|" + LibcRow(plan.spec->function).name + "|" +
         std::to_string(plan.spec->call_lo);
}

// The 28 ground-truth scenarios: ln/mv test x malloc x call {1,2}.
std::set<std::string> LnMvMallocScenarios() {
  std::set<std::string> targets;
  const auto& utilities = coreutils::TestUtilities();
  for (size_t t = 0; t < utilities.size(); ++t) {
    if (utilities[t] != "ln" && utilities[t] != "mv") {
      continue;
    }
    for (int call = 1; call <= 2; ++call) {
      targets.insert(std::to_string(t) + "|malloc|" + std::to_string(call));
    }
  }
  return targets;
}

// Samples `strategy` needs on `space` until every ln/mv malloc scenario has
// been sampled, or the space size if the space ran out first.
size_t SamplesToFindAll(const TargetSuite& suite, const FaultSpace& space, const char* strategy,
                        const EnvironmentModel* model, uint64_t seed) {
  std::set<std::string> remaining = LnMvMallocScenarios();
  TargetHarness harness(suite);
  auto explorer = MakeExplorer(strategy, space, seed);
  SessionConfig config;
  config.environment_model = model;
  ExplorationSession session(*explorer, harness.MakeRunner(space), config);
  const FaultDecoder decoder(space);
  size_t samples = 0;
  while (!remaining.empty() && session.Step()) {
    ++samples;
    remaining.erase(ScenarioKey(decoder, session.result().records.back().fault));
  }
  return samples;
}

// Table 6: how much system-specific knowledge speeds up finding all 28
// malloc failures of ln and mv in Phi_coreutils: black box on the full
// 1,653 points, the function axis trimmed to the 9 functions ln/mv call
// (29 x 9 x 3 = 783 points, the paper's 783), and trimmed plus an
// environment model. Paper: fitness 417 / 213 / 103, random 836 / 391,
// exhaustive 1,653 / 783.
void Table6() {
  TargetSuite suite = coreutils::MakeSuite();
  FaultSpace full = TargetHarness(suite).MakeSpace(2, /*include_zero_call=*/true);
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("test", 1, static_cast<int64_t>(suite.num_tests)));
  axes.push_back(Axis::MakeSet("function", coreutils::LnMvFunctions()));
  axes.push_back(Axis::MakeInterval("call", 0, 2));
  FaultSpace trimmed(std::move(axes), "coreutils-trimmed");

  // §7.5's environment model: malloc 40%, file operations 50% combined,
  // directory operations 10% combined.
  EnvironmentModel model;
  model.SetClassWeight("function", "malloc", 0.40);
  const char* file_ops[] = {"open", "close", "read", "write", "stat", "rename", "unlink"};
  for (const char* fn : file_ops) {
    model.SetClassWeight("function", fn, 0.50 / 7);
  }
  model.SetClassWeight("function", "getcwd", 0.10);

  PrintHeader("Table 6: samples to find all 28 ln/mv malloc-failure scenarios");
  std::printf("full space: %zu points, trimmed space: %zu points\n\n", full.TotalPoints(),
              trimmed.TotalPoints());
  std::printf("%-28s %14s %10s %12s\n", "knowledge level", "fitness", "random", "exhaustive");

  // The stochastic strategies are averaged over several seeds for stability.
  const uint64_t kSeeds[] = {11, 22, 33, 44, 55};
  auto averaged = [&](const FaultSpace& space, const char* strategy, const EnvironmentModel* m) {
    size_t total = 0;
    for (uint64_t seed : kSeeds) {
      total += SamplesToFindAll(suite, space, strategy, m, seed);
    }
    return total / std::size(kSeeds);
  };
  size_t bb = averaged(full, "fitness", nullptr);
  size_t bb_random = averaged(full, "random", nullptr);
  size_t bb_exhaustive = SamplesToFindAll(suite, full, "exhaustive", nullptr, 1);
  std::printf("%-28s %14zu %10zu %12zu\n", "black-box", bb, bb_random, bb_exhaustive);

  size_t tr = averaged(trimmed, "fitness", nullptr);
  size_t tr_random = averaged(trimmed, "random", nullptr);
  size_t tr_exhaustive = SamplesToFindAll(suite, trimmed, "exhaustive", nullptr, 1);
  std::printf("%-28s %14zu %10zu %12zu\n", "trimmed fault space", tr, tr_random, tr_exhaustive);

  size_t env = averaged(trimmed, "fitness", &model);
  std::printf("%-28s %14zu %10zu %12zu\n", "trimmed + environment model", env, tr_random,
              tr_exhaustive);

  std::printf("\n(paper: fitness 417/213/103, random 836/391, exhaustive 1653/783)\n");
  std::printf("speedup of full knowledge vs black-box fitness: %.1fx (paper: ~4x)\n",
              Ratio(bb, env));
  std::printf("speedup vs random on same space:                %.1fx (paper: >3.8x)\n",
              Ratio(tr_random, env));
}

// Fig. 1: the fault-space map of the coreutils suite when the first call to
// each libc function fails. Its row/column banding is the structure AFEX
// exploits.
void Fig1() {
  TargetSuite suite = coreutils::MakeSuite();
  TargetHarness harness(suite);
  FaultSpace space = harness.MakeSpace(2, /*include_zero_call=*/true);
  size_t call1 = *space.axis(2).IndexOf("1");

  PrintHeader("Fig. 1: fault-space map (coreutils suite, first-call injection)");
  std::printf("rows: tests 1..29 (grouped by utility), columns: libc functions\n\n");
  for (size_t f = 0; f < suite.functions.size(); ++f) {
    std::printf("  col %2zu: %s\n", f, suite.functions[f].c_str());
  }
  std::printf("\n        ");
  for (size_t f = 0; f < suite.functions.size(); ++f) {
    std::printf("%zu", f % 10);
  }
  std::printf("\n");

  const auto& utilities = coreutils::TestUtilities();
  size_t error_cells = 0;
  for (size_t t = 0; t < suite.num_tests; ++t) {
    std::printf("%-6s%2zu ", utilities[t].c_str(), t + 1);
    for (size_t f = 0; f < suite.functions.size(); ++f) {
      bool error = harness.RunFault(space, Fault({t, f, call1})).test_failed;
      error_cells += error ? 1 : 0;
      std::printf("%c", error ? '#' : '.');
    }
    std::printf("\n");
  }
  std::printf("\n'#' = test fails when the first call to the function fails; '.' = no error\n");
  const size_t cells = suite.num_tests * suite.functions.size();
  std::printf("error cells: %zu / %zu (%.1f%%)\n", error_cells, cells,
              100.0 * error_cells / cells);
}

std::vector<size_t> FailureCurve(const TargetSuite& suite, const FaultSpace& space,
                                 const char* strategy, size_t iterations, uint64_t seed) {
  TargetHarness harness(suite);
  auto explorer = MakeExplorer(strategy, space, seed);
  ExplorationSession session(*explorer, harness.MakeRunner(space));
  std::vector<size_t> curve;
  while (curve.size() < iterations && session.Step()) {
    curve.push_back(session.result().failed_tests);
  }
  return curve;
}

// Fig. 8: cumulative failure-inducing injections against iterations on
// Phi_coreutils. Paper: the curves diverge and the gap widens as the guided
// search learns the space's structure.
void Fig8() {
  TargetSuite suite = coreutils::MakeSuite();
  FaultSpace space = TargetHarness(suite).MakeSpace(2, true);
  const size_t kIterations = 500;
  const std::vector<size_t> fitness = FailureCurve(suite, space, "fitness", kIterations, 42);
  const std::vector<size_t> random = FailureCurve(suite, space, "random", kIterations, 42);
  // Either search may run out of space early; it then stays at its total.
  auto at = [](const std::vector<size_t>& curve, size_t i) {
    return curve[std::min(i, curve.size() - 1)];
  };
  auto gap_at = [&](size_t i) {
    return static_cast<ssize_t>(at(fitness, i)) - static_cast<ssize_t>(at(random, i));
  };

  PrintHeader("Fig. 8: failures vs iterations (coreutils)");
  std::printf("%10s %16s %10s %8s\n", "iteration", "fitness-guided", "random", "gap");
  for (size_t i = 24; i < kIterations; i += 25) {
    std::printf("%10zu %16zu %10zu %8zd\n", i + 1, at(fitness, i), at(random, i), gap_at(i));
  }
  std::printf("\ngap at 100 iterations: %zd, gap at %zu iterations: %zd (must widen)\n",
              gap_at(99), fitness.size(), gap_at(kIterations - 1));
}

// Fig. 9 (§7.6): efficiency across development stages, DocStore v0.8
// (pre-production) against v2.0 (industrial strength), 250 samples per
// strategy. Paper: fitness/random 2.37x on v0.8 and 1.43x on v2.0, more
// failures in v2.0, and a crash in v2.0 only.
void Fig9() {
  PrintHeader("Fig. 9: DocStore v0.8 vs v2.0, 250 samples per strategy");
  std::printf("%-16s %-16s %10s %10s\n", "version", "strategy", "failed", "crashes");
  // [version][row] means over seeds: 250 samples on a small target is noisy.
  const uint64_t kSeeds[] = {3, 7, 13, 29};
  size_t failed[2][2] = {};
  size_t crashes[2][2] = {};
  const TargetSuite suites[2] = {docstore::MakeSuiteV08(), docstore::MakeSuiteV20()};
  for (int v = 0; v < 2; ++v) {
    FaultSpace space = TargetHarness(suites[v]).MakeSpace(10, /*include_zero_call=*/false);
    const std::vector<Row> rows = FitnessVsRandom(250);
    for (size_t i = 0; i < rows.size(); ++i) {
      for (uint64_t seed : kSeeds) {
        SessionResult r = Run(suites[v], space, rows[i], seed).session;
        failed[v][i] += r.failed_tests;
        crashes[v][i] += r.crashes;
      }
      failed[v][i] /= std::size(kSeeds);
      crashes[v][i] /= std::size(kSeeds);
      std::printf("%-16s %-16s %10zu %10zu\n", suites[v].name.c_str(), rows[i].label,
                  failed[v][i], crashes[v][i]);
    }
  }
  std::printf("\nfitness/random ratio v0.8: %.2fx (paper: 2.37x)\n",
              Ratio(failed[0][0], failed[0][1]));
  std::printf("fitness/random ratio v2.0: %.2fx (paper: 1.43x)\n",
              Ratio(failed[1][0], failed[1][1]));
  std::printf("absolute failures higher in v2.0: %s (paper: yes)\n",
              failed[1][0] > failed[0][0] ? "yes" : "NO");
  std::printf("crash found in v2.0 only: %s (paper: yes)\n",
              crashes[1][0] > 0 && crashes[0][0] == 0 ? "yes" : "NO");
}

SessionResult RunFitness(const TargetSuite& suite, const FaultSpace& space,
                         const FitnessExplorerConfig& config, size_t budget) {
  TargetHarness harness(suite);
  FitnessExplorer explorer(space, config);
  ExplorationSession session(explorer, harness.MakeRunner(space));
  return session.Run({.max_tests = budget});
}

// Ablation 1: without aging the search camps on an exhausted vicinity (the
// paper's §3 motivation for the mechanism).
void AblationAging() {
  TargetSuite suite = webserver::MakeSuite();
  FaultSpace space = TargetHarness(suite).MakeSpace(10, false);
  PrintHeader("Ablation 1: aging (WebServer, 1,000 iterations)");
  std::printf("%-24s %10s %16s\n", "config", "failed", "unique-failures");
  struct Config {
    const char* name;
    double decay;
    double retirement;
  };
  const Config configs[] = {
      {"aging on (default)", 0.98, 0.05},
      {"aging off", 1.0, 0.0},
      {"aggressive aging", 0.90, 0.20},
  };
  for (const Config& config : configs) {
    SessionResult r = RunFitness(
        suite, space,
        {.seed = 7, .aging_decay = config.decay, .retirement_fraction = config.retirement}, 1000);
    std::printf("%-24s %10zu %16zu\n", config.name, r.failed_tests, r.unique_failures);
  }
}

// Ablation 2: the Gaussian mutation width (the paper uses |A_i|/5).
void AblationSigma() {
  TargetSuite suite = coreutils::MakeSuite();
  FaultSpace space = TargetHarness(suite).MakeSpace(2, true);
  PrintHeader("Ablation 2: mutation sigma (coreutils, 250 iterations)");
  std::printf("%-24s %10s\n", "sigma fraction", "failed");
  for (double fraction : {0.05, 0.2, 0.5, 1.0}) {
    SessionResult r = RunFitness(suite, space, {.seed = 11, .sigma_fraction = fraction}, 250);
    std::printf("sigma = %.2f * |A_i| %8zu\n", fraction, r.failed_tests);
  }
  std::printf("(the paper's choice is 0.20; very wide sigma degenerates toward random)\n");
}

// Ablation 3: the per-axis credit window that steers axis choice.
void AblationSensitivity() {
  TargetSuite suite = webserver::MakeSuite();
  FaultSpace space = TargetHarness(suite).MakeSpace(10, false);
  PrintHeader("Ablation 3: sensitivity window (WebServer, 1,000 iterations)");
  std::printf("%-24s %10s %10s\n", "window", "failed", "crashes");
  for (size_t window : {size_t{1}, size_t{8}, size_t{32}, size_t{128}}) {
    SessionResult r = RunFitness(suite, space, {.seed = 13, .sensitivity_window = window}, 1000);
    std::printf("last %-4zu mutations   %10zu %10zu\n", window, r.failed_tests, r.crashes);
  }
}

}  // namespace

int main() {
  Table1();
  Table2();
  Table3();
  Table4();
  Table5();
  Table6();
  Fig1();
  Fig8();
  Fig9();
  AblationAging();
  AblationSigma();
  AblationSensitivity();
  return 0;
}
