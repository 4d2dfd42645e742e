// Shared helpers for the table/figure reproduction binaries. Each bench is
// a standalone executable that prints the same rows/series the paper
// reports; all randomness is seeded so output is reproducible.
#ifndef AFEX_BENCH_BENCH_COMMON_H_
#define AFEX_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "core/exhaustive_explorer.h"
#include "core/fitness_explorer.h"
#include "core/random_explorer.h"
#include "core/session.h"
#include "targets/harness.h"

namespace afex {
namespace bench {

enum class Strategy { kFitness, kRandom, kExhaustive };

inline const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kFitness:
      return "fitness-guided";
    case Strategy::kRandom:
      return "random";
    case Strategy::kExhaustive:
      return "exhaustive";
  }
  return "?";
}

inline std::unique_ptr<Explorer> MakeExplorer(Strategy strategy, const FaultSpace& space,
                                              uint64_t seed) {
  switch (strategy) {
    case Strategy::kFitness: {
      FitnessExplorerConfig config;
      config.seed = seed;
      return std::make_unique<FitnessExplorer>(space, config);
    }
    case Strategy::kRandom:
      return std::make_unique<RandomExplorer>(space, seed);
    case Strategy::kExhaustive:
      return std::make_unique<ExhaustiveExplorer>(space);
  }
  return nullptr;
}

struct CampaignResult {
  SessionResult session;
  double coverage_fraction = 0.0;
  double recovery_coverage = 0.0;
};

// Runs one exploration campaign of `max_tests` samples of `space` against a
// fresh harness for `suite`.
inline CampaignResult RunCampaign(const TargetSuite& suite, const FaultSpace& space,
                                  Strategy strategy, size_t max_tests, uint64_t seed,
                                  SessionConfig config = {}) {
  TargetHarness harness(suite);
  auto explorer = MakeExplorer(strategy, space, seed);
  ExplorationSession session(*explorer, harness.MakeRunner(space), std::move(config));
  CampaignResult result;
  result.session = session.Run({.max_tests = max_tests});
  result.coverage_fraction = harness.CoverageFraction();
  result.recovery_coverage = harness.RecoveryCoverageFraction();
  return result;
}

inline void PrintHeader(const char* title) {
  std::printf("\n==== %s ====\n", title);
}

}  // namespace bench
}  // namespace afex

#endif  // AFEX_BENCH_BENCH_COMMON_H_
