// Property-style parameterized suites (TEST_P) over the library's
// invariants: explorer novelty/coverage across seeds, Gaussian bounds
// across axis shapes, Levenshtein metric axioms, fault-space geometry, and
// session accounting across explorers.
#include <gtest/gtest.h>

#include <set>

#include "core/fitness_explorer.h"
#include "core/random_explorer.h"
#include "core/session.h"
#include "util/gaussian.h"
#include "util/levenshtein.h"
#include "util/rng.h"

namespace afex {
namespace {

// ---- explorer invariants across seeds ----

class ExplorerSeedProperty : public ::testing::TestWithParam<uint64_t> {};

FaultSpace MakePropertySpace() {
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("a", 0, 11));
  axes.push_back(Axis::MakeInterval("b", 0, 11));
  axes.push_back(Axis::MakeSet("c", {"x", "y", "z"}));
  return FaultSpace(std::move(axes), "prop");  // 432 points
}

TEST_P(ExplorerSeedProperty, FitnessNeverRepeatsAndStaysInBounds) {
  FaultSpace space = MakePropertySpace();
  FitnessExplorer explorer(space, {.seed = GetParam()});
  std::set<std::vector<size_t>> seen;
  for (int i = 0; i < 200; ++i) {
    auto f = explorer.NextCandidate();
    ASSERT_TRUE(f.has_value());
    EXPECT_TRUE(space.InBounds(*f));
    EXPECT_TRUE(seen.insert(f->indices()).second);
    explorer.ReportResult(*f, static_cast<double>((*f)[0]));
  }
}

TEST_P(ExplorerSeedProperty, RandomDrainsWholeSpace) {
  FaultSpace space = MakePropertySpace();
  RandomExplorer explorer(space, GetParam());
  size_t count = 0;
  while (explorer.NextCandidate().has_value()) {
    ++count;
  }
  EXPECT_EQ(count, 432u);
}

TEST_P(ExplorerSeedProperty, FitnessDrainsWholeSpaceEventually) {
  FaultSpace space = MakePropertySpace();
  FitnessExplorer explorer(space, {.seed = GetParam()});
  size_t count = 0;
  while (true) {
    auto f = explorer.NextCandidate();
    if (!f.has_value()) {
      break;
    }
    explorer.ReportResult(*f, 1.0);
    ++count;
  }
  EXPECT_EQ(count, 432u);  // prioritization never discards tests (paper §3)
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExplorerSeedProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---- discrete Gaussian across axis shapes ----

struct GaussianCase {
  size_t center;
  double sigma;
  size_t cardinality;
};

class GaussianProperty : public ::testing::TestWithParam<GaussianCase> {};

TEST_P(GaussianProperty, AlwaysInBoundsAndExcludesCenter) {
  const GaussianCase& c = GetParam();
  Rng rng(c.center * 7919 + c.cardinality);
  for (int i = 0; i < 500; ++i) {
    size_t v = SampleDiscreteGaussian(rng, c.center, c.sigma, c.cardinality);
    EXPECT_LT(v, c.cardinality);
    if (c.cardinality > 1) {
      size_t w = SampleDiscreteGaussianExcludingCenter(rng, c.center, c.sigma, c.cardinality);
      EXPECT_LT(w, c.cardinality);
      EXPECT_NE(w, c.center);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GaussianProperty,
                         ::testing::Values(GaussianCase{0, 1.0, 2},      // edge center
                                           GaussianCase{0, 20.0, 100},   // huge sigma at edge
                                           GaussianCase{99, 20.0, 100},  // other edge
                                           GaussianCase{50, 0.1, 101},   // tiny sigma
                                           GaussianCase{5, 2.0, 11},
                                           GaussianCase{0, 0.4, 2},
                                           GaussianCase{1000, 200.0, 2001}));

// ---- Levenshtein metric axioms ----

class LevenshteinProperty
    : public ::testing::TestWithParam<std::tuple<std::string, std::string, std::string>> {};

std::vector<std::string> Tokens(const std::string& s) {
  std::vector<std::string> out;
  for (char c : s) {
    out.emplace_back(1, c);
  }
  return out;
}

TEST_P(LevenshteinProperty, MetricAxioms) {
  auto [a, b, c] = GetParam();
  auto ta = Tokens(a);
  auto tb = Tokens(b);
  auto tc = Tokens(c);
  size_t ab = LevenshteinDistanceTokens(ta, tb);
  size_t ba = LevenshteinDistanceTokens(tb, ta);
  size_t ac = LevenshteinDistanceTokens(ta, tc);
  size_t bc = LevenshteinDistanceTokens(tb, tc);
  EXPECT_EQ(ab, ba);                                  // symmetry
  EXPECT_EQ(LevenshteinDistanceTokens(ta, ta), 0u);   // identity
  EXPECT_LE(ac, ab + bc);                             // triangle inequality
  EXPECT_LE(ab, std::max(a.size(), b.size()));        // upper bound
  if (a != b) {
    EXPECT_GE(ab, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Triples, LevenshteinProperty,
    ::testing::Values(std::make_tuple("kitten", "sitting", "mitten"),
                      std::make_tuple("", "abc", "ab"),
                      std::make_tuple("aaaa", "aa", "aaa"),
                      std::make_tuple("abc", "cba", "bca"),
                      std::make_tuple("main.parse", "main.write", "main"),
                      std::make_tuple("xyz", "xyz", "xyz")));

// ---- fault-space geometry across dimensionalities ----

class VicinityProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(VicinityProperty, VicinityMatchesBruteForce) {
  size_t d = GetParam();
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("x", 0, 6));
  axes.push_back(Axis::MakeInterval("y", 0, 6));
  axes.push_back(Axis::MakeInterval("z", 0, 4));
  FaultSpace space(std::move(axes), "vicinity");
  Fault center({3, 1, 2});

  std::set<std::vector<size_t>> visited;
  space.ForEachInVicinity(center, d, [&](const Fault& f) {
    EXPECT_TRUE(visited.insert(f.indices()).second) << "duplicate " << f.ToString();
    return true;
  });
  size_t brute = 0;
  for (auto f = space.FirstValid(); f.has_value(); f = space.NextValid(*f)) {
    if (center.ManhattanDistanceTo(*f) <= d) {
      ++brute;
      EXPECT_TRUE(visited.contains(f->indices())) << "missing " << f->ToString();
    }
  }
  EXPECT_EQ(visited.size(), brute);
}

INSTANTIATE_TEST_SUITE_P(Radii, VicinityProperty, ::testing::Values(0, 1, 2, 3, 5, 20));

// ---- session accounting holds for every explorer ----

class SessionAccountingProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(SessionAccountingProperty, CountsAreConsistent) {
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("x", 0, 14));
  axes.push_back(Axis::MakeInterval("y", 0, 14));
  FaultSpace space(std::move(axes), "acct");
  auto runner = [](const Fault& f) {
    TestOutcome o;
    o.fault_triggered = f[0] % 2 == 0;
    if (o.fault_triggered) {
      o.injection_stack = {"s" + std::to_string(f[0] % 4)};
    }
    o.test_failed = f[0] == 4;
    o.crashed = f[0] == 4 && f[1] == 4;
    o.hung = f[0] == 8 && f[1] == 0;
    return o;
  };

  std::unique_ptr<Explorer> explorer = MakeExplorer(GetParam(), space, 42);
  ExplorationSession session(*explorer, runner);
  SessionResult result = session.Run({});  // drain the space

  EXPECT_EQ(result.tests_executed, 225u);
  EXPECT_EQ(result.records.size(), 225u);
  EXPECT_EQ(result.failed_tests, 15u);  // column x==4
  EXPECT_EQ(result.crashes, 1u);
  EXPECT_EQ(result.hangs, 1u);
  EXPECT_TRUE(result.space_exhausted);

  size_t failed = 0;
  for (const SessionRecord& r : result.records) {
    failed += r.outcome.test_failed ? 1 : 0;
    EXPECT_DOUBLE_EQ(r.impact, ImpactPolicy{}.Score(r.outcome));
  }
  EXPECT_EQ(failed, result.failed_tests);
}

INSTANTIATE_TEST_SUITE_P(AllExplorers, SessionAccountingProperty,
                         ::testing::Values("fitness", "random", "exhaustive"));

// ---- impact policy linearity ----

class ImpactPolicyProperty : public ::testing::TestWithParam<int> {};

TEST_P(ImpactPolicyProperty, ScoreIsMonotoneInEveryComponent) {
  int blocks = GetParam();
  ImpactPolicy policy;
  TestOutcome base;
  base.new_blocks_covered = static_cast<size_t>(blocks);
  double s0 = policy.Score(base);
  TestOutcome failed = base;
  failed.test_failed = true;
  TestOutcome crashed = failed;
  crashed.crashed = true;
  TestOutcome hung = crashed;
  hung.hung = true;
  EXPECT_LT(s0, policy.Score(failed));
  EXPECT_LT(policy.Score(failed), policy.Score(crashed));
  EXPECT_LT(policy.Score(crashed), policy.Score(hung));
}

INSTANTIATE_TEST_SUITE_P(BlockCounts, ImpactPolicyProperty, ::testing::Values(0, 1, 5, 100));

}  // namespace
}  // namespace afex
