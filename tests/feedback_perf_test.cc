// Golden suite for the optimized per-test feedback path: the
// interned/memoized/banded clusterer and the incremental fitness explorer
// are checked against committed digests of their outputs (cluster ids,
// similarity bits, and whole-campaign record sequences). Also covers the
// primitives the optimized path is built from (bounded token distance,
// Fenwick descents, incremental coverage counts).
//
// The goldens freeze observable behaviour. A change that alters it on
// purpose updates the golden from the printed digest and explains why in
// CHANGES.md.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "core/clustering.h"
#include "core/fitness_explorer.h"
#include "core/session.h"
#include "sim/coverage.h"
#include "targets/docstore/suite.h"
#include "targets/harness.h"
#include "util/fenwick.h"
#include "util/fnv1a.h"
#include "util/interner.h"
#include "util/levenshtein.h"
#include "util/rng.h"

namespace afex {
namespace {

// ---- bounded/banded token edit distance ----

std::vector<uint32_t> RandomTokenSeq(Rng& rng, size_t max_len, uint32_t vocab) {
  std::vector<uint32_t> seq(rng.NextBelow(max_len + 1));
  for (auto& t : seq) {
    t = static_cast<uint32_t>(rng.NextBelow(vocab));
  }
  return seq;
}

size_t NaiveTokenDistance(const std::vector<uint32_t>& a, const std::vector<uint32_t>& b) {
  // Reuse the string-token reference implementation by spelling ids out.
  std::vector<std::string> sa, sb;
  for (uint32_t t : a) sa.push_back(std::to_string(t));
  for (uint32_t t : b) sb.push_back(std::to_string(t));
  return LevenshteinDistanceTokens(sa, sb);
}

TEST(BoundedLevenshteinTest, MatchesNaiveWithinLimitElseReportsOver) {
  Rng rng(42);
  for (int trial = 0; trial < 400; ++trial) {
    auto a = RandomTokenSeq(rng, 10, 6);
    auto b = RandomTokenSeq(rng, 10, 6);
    size_t exact = NaiveTokenDistance(a, b);
    for (size_t limit = 0; limit <= 10; ++limit) {
      size_t bounded = BoundedLevenshteinDistanceTokens(a, b, limit);
      if (exact <= limit) {
        ASSERT_EQ(bounded, exact) << "limit " << limit;
      } else {
        ASSERT_GT(bounded, limit);
      }
    }
  }
}

TEST(BoundedLevenshteinTest, EdgeCases) {
  std::vector<uint32_t> empty;
  std::vector<uint32_t> abc = {1, 2, 3};
  EXPECT_EQ(BoundedLevenshteinDistanceTokens(empty, empty, 0), 0u);
  EXPECT_EQ(BoundedLevenshteinDistanceTokens(empty, abc, 3), 3u);
  EXPECT_EQ(BoundedLevenshteinDistanceTokens(abc, empty, 2), 3u);  // over limit
  EXPECT_EQ(BoundedLevenshteinDistanceTokens(abc, abc, 0), 0u);
}

// ---- string interner ----

TEST(InternerTest, InternLookupRoundTrip) {
  StringInterner interner;
  uint32_t a = interner.Intern("main");
  uint32_t b = interner.Intern("parse");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern("main"), a);
  EXPECT_EQ(interner.Lookup("parse"), b);
  EXPECT_EQ(interner.Lookup("never-seen"), StringInterner::kUnknown);
  EXPECT_EQ(interner.Spelling(a), "main");
  EXPECT_EQ(interner.size(), 2u);
}

// ---- Fenwick trees and the weighted-selection descent ----

TEST(FenwickTest, PushAddPrefixMatchNaiveSums) {
  Rng rng(7);
  Fenwick<double> tree;
  std::vector<double> values;
  for (int step = 0; step < 500; ++step) {
    if (values.empty() || rng.NextBernoulli(0.4)) {
      double v = rng.NextDouble() * 10.0;
      values.push_back(v);
      tree.Push(v);
    } else {
      size_t i = rng.NextBelow(values.size());
      double delta = rng.NextDouble() - 0.5;
      values[i] += delta;
      tree.Add(i, delta);
    }
    size_t count = rng.NextBelow(values.size() + 1);
    double naive = 0.0;
    for (size_t i = 0; i < count; ++i) {
      naive += values[i];
    }
    ASSERT_NEAR(tree.Prefix(count), naive, 1e-9) << "step " << step;
  }
}

TEST(FenwickTest, SelectByWeightMatchesLinearScan) {
  // The affine weight form used by the explorer: a*f[i] + b*live[i].
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = 1 + rng.NextBelow(40);
    Fenwick<double> f;
    Fenwick<int64_t> live;
    std::vector<double> fitness(n);
    std::vector<int64_t> liveness(n);
    for (size_t i = 0; i < n; ++i) {
      bool is_live = rng.NextBernoulli(0.8);
      fitness[i] = is_live ? rng.NextDouble() * 5.0 : 0.0;
      liveness[i] = is_live ? 1 : 0;
      f.Push(fitness[i]);
      live.Push(liveness[i]);
    }
    double a = rng.NextDouble();
    double b = rng.NextDouble() + 0.01;
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += a * fitness[i] + b * static_cast<double>(liveness[i]);
    }
    double r = rng.NextDouble() * total;
    // First index whose cumulative weight strictly exceeds r.
    size_t expected = n - 1;
    double cum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      cum += a * fitness[i] + b * static_cast<double>(liveness[i]);
      if (cum > r) {
        expected = i;
        break;
      }
    }
    ASSERT_EQ(SelectByWeight(f, live, a, b, r), expected) << "trial " << trial;
  }
}

TEST(FenwickTest, MaxTreeTracksMaxUnderUpdates) {
  Rng rng(13);
  MaxTree tree;
  std::vector<double> values;
  for (int step = 0; step < 400; ++step) {
    if (values.empty() || rng.NextBernoulli(0.3)) {
      values.push_back(rng.NextDouble());
      tree.Push(values.back());
    } else {
      size_t i = rng.NextBelow(values.size());
      values[i] = rng.NextBernoulli(0.2) ? -std::numeric_limits<double>::infinity()
                                         : rng.NextDouble() * 3.0;
      tree.Update(i, values[i]);
    }
    double naive = -std::numeric_limits<double>::infinity();
    for (double v : values) {
      naive = std::max(naive, v);
    }
    ASSERT_EQ(tree.Max(), naive) << "step " << step;
  }
}

// ---- clusterer goldens ----

std::vector<std::string> RandomStack(Rng& rng, size_t max_depth, size_t vocab) {
  std::vector<std::string> stack(rng.NextBelow(max_depth + 1));
  for (auto& frame : stack) {
    frame = "frame" + std::to_string(rng.NextBelow(vocab));
  }
  return stack;
}

struct ClusterGolden {
  size_t threshold;
  uint64_t digest;
  size_t clusters;
};

TEST(ClustererEquivalenceTest, RandomizedStacksMatchGoldens) {
  // One digest per threshold over every observation's cluster id and
  // similarity bits (bit-exact, not nearly-equal) and every const probe's
  // similarity bits, followed by the final cluster sizes.
  constexpr ClusterGolden kGoldens[] = {
      {0, 0x76d321fff95c3d4dULL, 746},
      {1, 0x32f6829efdb7bf42ULL, 317},
      {2, 0x201ea2fc35d80c1dULL, 99},
      {3, 0xeaae043408191738ULL, 21},
  };
  for (const ClusterGolden& golden : kGoldens) {
    RedundancyClusterer clusterer(ClusterConfig{.distance_threshold = golden.threshold});
    Rng rng(1000 + golden.threshold);
    Fnv1aHasher digest;
    for (int i = 0; i < 1500; ++i) {
      std::vector<std::string> stack = RandomStack(rng, 6, 5);
      bool want_similarity = rng.NextBernoulli(0.7);
      ClusterObservation obs = clusterer.Observe(stack, want_similarity);
      digest.U64(obs.cluster_id);
      digest.U64(std::bit_cast<uint64_t>(obs.similarity));
      std::vector<std::string> probe = RandomStack(rng, 6, 5);
      digest.U64(std::bit_cast<uint64_t>(clusterer.NearestSimilarity(probe)));
    }
    for (size_t size : clusterer.cluster_sizes()) {
      digest.U64(size);
    }
    EXPECT_EQ(clusterer.cluster_count(), golden.clusters) << "threshold " << golden.threshold;
    EXPECT_EQ(digest.value(), golden.digest)
        << "threshold " << golden.threshold << ": observed 0x" << std::hex << digest.value();
  }
}

TEST(ClustererEquivalenceTest, RepeatStacksHitTheMemoWithExactResults) {
  RedundancyClusterer clusterer;
  std::vector<std::string> stack = {"main", "io", "write"};
  size_t first = clusterer.Assign(stack);
  // Every repeat must land in the same cluster with similarity exactly 1.0.
  for (int i = 0; i < 10; ++i) {
    ClusterObservation obs = clusterer.Observe(stack, /*want_similarity=*/true);
    ASSERT_EQ(obs.cluster_id, first);
    ASSERT_EQ(obs.similarity, 1.0);
  }
  EXPECT_EQ(clusterer.cluster_sizes()[first], 11u);
}

// ---- explorer + whole-campaign goldens ----

// Synthetic deterministic runner: cheap, covers triggered/untriggered,
// failures, crashes, and a variety of stacks, so the whole feedback path
// (similarity weighting, clustering, sensitivity updates, aging) runs.
TestOutcome SyntheticOutcome(const Fault& fault) {
  uint64_t h = FaultHash{}(fault);
  TestOutcome outcome;
  outcome.fault_triggered = (h % 4) != 0;
  if (outcome.fault_triggered) {
    static const char* kFrames[] = {"boot", "parse", "exec", "io", "net", "disk"};
    outcome.injection_stack.push_back("main");
    outcome.injection_stack.push_back(kFrames[h % 6]);
    outcome.injection_stack.push_back(kFrames[(h / 7) % 6]);
    outcome.test_failed = (h % 5) == 0;
    outcome.crashed = (h % 11) == 0;
    outcome.new_blocks_covered = h % 3;
  }
  outcome.exit_code = outcome.test_failed ? 1 : 0;
  return outcome;
}

SessionResult RunSyntheticCampaign(size_t budget, size_t pool) {
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("test", 1, 40));
  axes.push_back(Axis::MakeInterval("function", 1, 8));
  axes.push_back(Axis::MakeInterval("call", 1, 6));
  FaultSpace space(std::move(axes), "synthetic");
  FitnessExplorerConfig config;
  config.seed = 77;
  config.priority_capacity = pool;
  FitnessExplorer explorer(space, config);
  SessionConfig session_config;
  session_config.redundancy_feedback = true;
  ExplorationSession session(explorer, SyntheticOutcome, session_config);
  return session.Run({.max_tests = budget});
}

// Checks a campaign against its committed record count and record digest.
void ExpectGoldenCampaign(const SessionResult& result, size_t records, uint64_t digest,
                          const std::string& what = "") {
  EXPECT_EQ(result.records.size(), records) << what;
  EXPECT_EQ(DigestRecords(result), digest)
      << what << " observed 0x" << std::hex << DigestRecords(result);
}

struct PoolGolden {
  size_t pool;
  size_t records;
  uint64_t digest;
};

TEST(ExplorerEquivalenceTest, SeededCampaignMatchesGoldens) {
  // Small and large pools: the large-pool path exercises retirement-heavy
  // steady state (the Fenwick pool's tombstone queue and compaction), the
  // small pools hammer the eviction descent.
  constexpr PoolGolden kGoldens[] = {
      {4, 1200, 0x53768a8e0771222fULL},
      {16, 1200, 0xd6740123d150bfaaULL},
      {64, 1200, 0x04a282af6913c51cULL},
      {512, 1200, 0xbef677b67b9705f4ULL},
  };
  for (const PoolGolden& golden : kGoldens) {
    ExpectGoldenCampaign(RunSyntheticCampaign(1200, golden.pool), golden.records, golden.digest,
                         "pool " + std::to_string(golden.pool));
  }
}

TEST(ExplorerEquivalenceTest, RetirementHeavySteadyStateMatchesGolden) {
  // Long enough that every early entry ages past the retirement threshold
  // many times over (default decay retires an entry ~150 results after
  // insertion), so the insertion-order retirement queue, slot tombstones,
  // and compaction all churn continuously.
  ExpectGoldenCampaign(RunSyntheticCampaign(2500, 256), 1920, 0x372685193133ea9fULL);
}

TEST(ExplorerEquivalenceTest, SpaceExhaustionThroughTheFallbackScanMatchesGolden) {
  // Budget above the space size: the campaign runs through mutation
  // failure, random-sampling failure, and the cursor-cached lexicographic
  // fallback scan to full exhaustion.
  SessionResult result = RunSyntheticCampaign(3000, 32);
  EXPECT_TRUE(result.space_exhausted);
  ExpectGoldenCampaign(result, 1920, 0xcafee9e623c66ab7ULL);
}

TEST(ExplorerEquivalenceTest, RealTargetCampaignMatchesGolden) {
  // At distance_threshold 0 distinct representatives never tie, so the
  // second campaign clusters with a nonzero threshold: there a stack can
  // sit equally close to two representatives, and the clusterer's
  // tie-break (the earlier one wins) shapes every later cluster id.
  struct ThresholdGolden {
    size_t threshold;
    uint64_t digest;
  };
  constexpr ThresholdGolden kGoldens[] = {
      {0, 0x01f603bbab4c8ff9ULL},
      {2, 0xa0aa862b1982fc86ULL},
  };
  for (const ThresholdGolden& golden : kGoldens) {
    TargetSuite suite = docstore::MakeSuiteV20();
    TargetHarness harness(suite, 0x5eed);
    FaultSpace space = harness.MakeSpace(10, false);
    FitnessExplorerConfig config;
    config.seed = 7;
    FitnessExplorer explorer(space, config);
    SessionConfig session_config;
    session_config.redundancy_feedback = true;
    session_config.cluster_config.distance_threshold = golden.threshold;
    ExplorationSession session(explorer, harness.MakeRunner(space), session_config);
    ExpectGoldenCampaign(session.Run({.max_tests = 800}), 800, golden.digest,
                         "threshold " + std::to_string(golden.threshold));
  }
}

TEST(ExplorerEquivalenceTest, WarmStartMatchesGolden) {
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("test", 1, 40));
  axes.push_back(Axis::MakeInterval("function", 1, 8));
  axes.push_back(Axis::MakeInterval("call", 1, 6));
  FaultSpace space(std::move(axes), "synthetic");
  FitnessExplorerConfig config;
  config.seed = 5;
  FitnessExplorer explorer(space, config);
  explorer.WarmStart(Fault({3, 2, 1}), 25.0);
  explorer.WarmStart(Fault({10, 5, 4}), 12.0);
  SessionConfig session_config;
  session_config.redundancy_feedback = true;
  ExplorationSession session(explorer, SyntheticOutcome, session_config);
  ExpectGoldenCampaign(session.Run({.max_tests = 500}), 500, 0xce18856d554e4937ULL);
}

// ---- incremental coverage counts ----

TEST(CoverageIncrementalTest, RecoveryCountMaintainedAcrossMergePaths) {
  CoverageAccumulator acc(100, 80);
  CoverageSet run;
  run.Hit(10);
  run.Hit(85);
  run.Hit(90);
  run.Hit(85);  // duplicate within the run
  EXPECT_EQ(acc.Merge(run), 3u);
  EXPECT_EQ(acc.recovery_covered(), 2u);
  EXPECT_EQ(acc.MergeIds({85, 95, 12}), 2u);  // one recovery, one normal, one dup
  EXPECT_EQ(acc.recovery_covered(), 3u);
  std::vector<uint32_t> fresh;
  CoverageSet run2;
  run2.Hit(95);
  run2.Hit(99);
  run2.Hit(12);
  EXPECT_EQ(acc.MergeCollect(run2, fresh), 1u);
  EXPECT_EQ(fresh, std::vector<uint32_t>{99});
  EXPECT_EQ(acc.recovery_covered(), 4u);
  EXPECT_EQ(acc.covered(), 6u);
  EXPECT_DOUBLE_EQ(acc.RecoveryFraction(), 4.0 / 20.0);
}

TEST(CoverageIncrementalTest, NoRecoveryBaseMeansZeroRecoveryCount) {
  CoverageAccumulator acc(50, 0);
  EXPECT_EQ(acc.MergeIds({1, 2, 49}), 3u);
  EXPECT_EQ(acc.recovery_covered(), 0u);
  EXPECT_DOUBLE_EQ(acc.RecoveryFraction(), 0.0);
}

}  // namespace
}  // namespace afex
