// Reproduces paper Table 6: how much system-specific knowledge speeds up
// the search. Target: find ALL 28 malloc-failure scenarios that make the
// ln and mv utilities fail inside Phi_coreutils. Three knowledge levels:
//   1. black-box AFEX on the full 1,653-point space;
//   2. trimmed fault space — Xfunc reduced to the 9 functions ln/mv call
//      (29 x 9 x 3 = 783 points, exactly the paper's 783);
//   3. trimmed space + statistical environment model (malloc 40%, file ops
//      50% combined, directory ops 10%) weighing measured impact.
// For comparison: random and exhaustive on both spaces.
//
// Paper's numbers (samples needed): fitness 417 / 213 / 103; random
// 836 / 391; exhaustive 1,653 / 783. Shape: trimming ~halves the cost, the
// environment model halves it again; knowledge-equipped AFEX is ~8x faster
// than random and ~16x faster than exhaustive.
#include <cstdio>
#include <set>
#include <string>

#include "bench/bench_common.h"
#include "injection/plan.h"
#include "targets/coreutils/suite.h"

using namespace afex;
using bench::Strategy;

namespace {

// Key identifying a target scenario independent of which space it came from.
std::string ScenarioKey(const FaultDecoder& decoder, const Fault& fault) {
  InjectionPlan plan = decoder.Decode(fault);
  if (!plan.spec.has_value()) {
    return "";
  }
  return std::to_string(plan.test_id) + "|" + plan.spec->function + "|" +
         std::to_string(plan.spec->call_lo);
}

// The 28 ground-truth scenarios: ln/mv test x malloc x call {1,2}.
std::set<std::string> TargetScenarios() {
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

// Runs `strategy` over `space` until every target scenario has been
// sampled; returns the number of samples needed (or the space size if some
// were unreachable, which would be a bug).
size_t SamplesToFindAll(const TargetSuite& suite, const FaultSpace& space, Strategy strategy,
                        const EnvironmentModel* model, uint64_t seed) {
  std::set<std::string> remaining = TargetScenarios();
  TargetHarness harness(suite);
  auto explorer = bench::MakeExplorer(strategy, space, seed);
  SessionConfig config;
  config.environment_model = model;
  ExplorationSession session(*explorer, harness.MakeRunner(space), config);
  const FaultDecoder decoder(space);
  size_t samples = 0;
  while (!remaining.empty()) {
    if (!session.Step()) {
      break;  // space exhausted
    }
    ++samples;
    remaining.erase(ScenarioKey(decoder, session.result().records.back().fault));
  }
  return samples;
}

FaultSpace TrimmedSpace(const TargetSuite& suite) {
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("test", 1, static_cast<int64_t>(suite.num_tests)));
  axes.push_back(Axis::MakeSet("function", coreutils::LnMvFunctions()));
  axes.push_back(Axis::MakeInterval("call", 0, 2));
  return FaultSpace(std::move(axes), "coreutils-trimmed");
}

}  // namespace

int main() {
  TargetSuite suite = coreutils::MakeSuite();
  FaultSpace full = TargetHarness(suite).MakeSpace(2, /*include_zero_call=*/true);
  FaultSpace trimmed = TrimmedSpace(suite);

  // §7.5's environment model: malloc 40%, file operations 50% combined,
  // directory operations 10% combined.
  EnvironmentModel model;
  model.SetClassWeight("function", "malloc", 0.40);
  const char* file_ops[] = {"open", "close", "read", "write", "stat", "rename", "unlink"};
  for (const char* fn : file_ops) {
    model.SetClassWeight("function", fn, 0.50 / 7);
  }
  model.SetClassWeight("function", "getcwd", 0.10);

  bench::PrintHeader("Table 6: samples to find all 28 ln/mv malloc-failure scenarios");
  std::printf("full space: %zu points, trimmed space: %zu points\n\n", full.TotalPoints(),
              trimmed.TotalPoints());
  std::printf("%-28s %14s %10s %12s\n", "knowledge level", "fitness", "random", "exhaustive");

  // Average the stochastic strategies over several seeds for stability.
  const uint64_t kSeeds[] = {11, 22, 33, 44, 55};
  auto averaged = [&](const FaultSpace& space, Strategy strategy, const EnvironmentModel* m) {
    size_t total = 0;
    for (uint64_t seed : kSeeds) {
      total += SamplesToFindAll(suite, space, strategy, m, seed);
    }
    return total / std::size(kSeeds);
  };

  size_t bb = averaged(full, Strategy::kFitness, nullptr);
  size_t bb_random = averaged(full, Strategy::kRandom, nullptr);
  size_t bb_exhaustive = SamplesToFindAll(suite, full, Strategy::kExhaustive, nullptr, 1);
  std::printf("%-28s %14zu %10zu %12zu\n", "black-box", bb, bb_random, bb_exhaustive);

  size_t tr = averaged(trimmed, Strategy::kFitness, nullptr);
  size_t tr_random = averaged(trimmed, Strategy::kRandom, nullptr);
  size_t tr_exhaustive = SamplesToFindAll(suite, trimmed, Strategy::kExhaustive, nullptr, 1);
  std::printf("%-28s %14zu %10zu %12zu\n", "trimmed fault space", tr, tr_random, tr_exhaustive);

  size_t env = averaged(trimmed, Strategy::kFitness, &model);
  std::printf("%-28s %14zu %10zu %12zu\n", "trimmed + environment model", env, tr_random,
              tr_exhaustive);

  std::printf("\n(paper: fitness 417/213/103, random 836/391, exhaustive 1653/783)\n");
  std::printf("speedup of full knowledge vs black-box fitness: %.1fx (paper: ~4x)\n",
              env ? static_cast<double>(bb) / env : 0.0);
  std::printf("speedup vs random on same space:                %.1fx (paper: >3.8x)\n",
              env ? static_cast<double>(tr_random) / env : 0.0);
  return 0;
}
