// Shared helpers for the table/figure reproduction binaries. Each bench is
// a standalone executable that prints the same rows/series the paper
// reports; all randomness is seeded so output is reproducible.
#ifndef AFEX_BENCH_BENCH_COMMON_H_
#define AFEX_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
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

// FNV-1a over every record's fault indices, fitness bits, cluster id, and
// full outcome, two-phase verdict flags included (always zero on simulated
// targets). Two campaigns agree on this iff their record sequences, and the
// target observations inside them, are identical.
inline uint64_t DigestRecords(const SessionResult& result) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      h = (h ^ ((v >> shift) & 0xff)) * 0x100000001b3ULL;
    }
  };
  auto mix_string = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h = (h ^ c) * 0x100000001b3ULL;
    }
    h = (h ^ 0xff) * 0x100000001b3ULL;  // terminator: "ab","c" != "a","bc"
  };
  for (const SessionRecord& r : result.records) {
    for (size_t i = 0; i < r.fault.dimensions(); ++i) {
      mix(r.fault[i]);
    }
    uint64_t fitness_bits;
    static_assert(sizeof(fitness_bits) == sizeof(r.fitness));
    std::memcpy(&fitness_bits, &r.fitness, sizeof(fitness_bits));
    mix(fitness_bits);
    mix(r.cluster_id);
    const TestOutcome& o = r.outcome;
    mix(static_cast<uint64_t>(o.exit_code) ^ (o.test_failed ? 0x100 : 0) ^
        (o.crashed ? 0x200 : 0) ^ (o.hung ? 0x400 : 0) ^ (o.fault_triggered ? 0x800 : 0) ^
        (o.recovery_failed ? 0x1000 : 0) ^ (o.invariant_violated ? 0x2000 : 0));
    mix(o.new_blocks_covered);
    for (uint32_t block : o.new_block_ids) {
      mix(block);
    }
    for (const std::string& frame : o.injection_stack) {
      mix_string(frame);
    }
    mix_string(o.detail);
  }
  return h;
}

inline void PrintHeader(const char* title) {
  std::printf("\n==== %s ====\n", title);
}

}  // namespace bench
}  // namespace afex

#endif  // AFEX_BENCH_BENCH_COMMON_H_
