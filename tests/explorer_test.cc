#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <unordered_set>

#include "core/exhaustive_explorer.h"
#include "core/fitness_explorer.h"
#include "core/random_explorer.h"

namespace afex {
namespace {

FaultSpace MakeSmallSpace() {
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("x", 0, 4));
  axes.push_back(Axis::MakeInterval("y", 0, 4));
  return FaultSpace(std::move(axes), "small");
}

FaultSpace MakeBigSpace() {
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("x", 0, 49));
  axes.push_back(Axis::MakeInterval("y", 0, 49));
  return FaultSpace(std::move(axes), "big");
}

// Drains an explorer completely, reporting the given impact function.
template <typename Impact>
std::vector<Fault> Drain(Explorer& explorer, Impact impact, size_t max_tests) {
  std::vector<Fault> visited;
  for (size_t i = 0; i < max_tests; ++i) {
    auto f = explorer.NextCandidate();
    if (!f.has_value()) {
      break;
    }
    explorer.ReportResult(*f, impact(*f));
    visited.push_back(std::move(*f));
  }
  return visited;
}

// ---- ExhaustiveExplorer ----

TEST(ExhaustiveExplorerTest, VisitsEveryPointExactlyOnce) {
  FaultSpace space = MakeSmallSpace();
  ExhaustiveExplorer explorer(space);
  auto visited = Drain(explorer, [](const Fault&) { return 0.0; }, 1000);
  EXPECT_EQ(visited.size(), 25u);
  std::set<std::vector<size_t>> unique;
  for (const Fault& f : visited) {
    unique.insert(f.indices());
  }
  EXPECT_EQ(unique.size(), 25u);
  EXPECT_EQ(explorer.NextCandidate(), std::nullopt);
}

TEST(ExhaustiveExplorerTest, LexicographicOrder) {
  FaultSpace space = MakeSmallSpace();
  ExhaustiveExplorer explorer(space);
  auto first = explorer.NextCandidate();
  auto second = explorer.NextCandidate();
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(first->indices(), (std::vector<size_t>{0, 0}));
  EXPECT_EQ(second->indices(), (std::vector<size_t>{0, 1}));
}

TEST(ExhaustiveExplorerTest, SkipsHoles) {
  FaultSpace space = MakeSmallSpace();
  space.SetValidity([](const FaultSpace&, const Fault& f) { return f[0] != 2; });
  ExhaustiveExplorer explorer(space);
  auto visited = Drain(explorer, [](const Fault&) { return 0.0; }, 1000);
  EXPECT_EQ(visited.size(), 20u);
  for (const Fault& f : visited) {
    EXPECT_NE(f[0], 2u);
  }
}

// ---- RandomExplorer ----

TEST(RandomExplorerTest, NoRepeatsAndFullCoverage) {
  FaultSpace space = MakeSmallSpace();
  RandomExplorer explorer(space, 7);
  auto visited = Drain(explorer, [](const Fault&) { return 0.0; }, 1000);
  EXPECT_EQ(visited.size(), 25u);
  std::set<std::vector<size_t>> unique;
  for (const Fault& f : visited) {
    unique.insert(f.indices());
  }
  EXPECT_EQ(unique.size(), 25u);
  EXPECT_EQ(explorer.NextCandidate(), std::nullopt);
}

TEST(RandomExplorerTest, DeterministicPerSeed) {
  FaultSpace space = MakeBigSpace();
  RandomExplorer a(space, 11);
  RandomExplorer b(space, 11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.NextCandidate(), b.NextCandidate());
  }
}

TEST(RandomExplorerTest, DifferentSeedsDifferentOrder) {
  FaultSpace space = MakeBigSpace();
  RandomExplorer a(space, 1);
  RandomExplorer b(space, 2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.NextCandidate() == b.NextCandidate()) {
      ++same;
    }
  }
  EXPECT_LT(same, 10);
}

// ---- FitnessExplorer ----

TEST(FitnessExplorerTest, NeverRepeatsCandidates) {
  FaultSpace space = MakeBigSpace();
  FitnessExplorer explorer(space, {.seed = 3});
  std::set<std::vector<size_t>> unique;
  for (int i = 0; i < 500; ++i) {
    auto f = explorer.NextCandidate();
    ASSERT_TRUE(f.has_value());
    EXPECT_TRUE(unique.insert(f->indices()).second) << "repeated " << f->ToString();
    explorer.ReportResult(*f, (*f)[0] == 25 ? 10.0 : 0.0);
  }
}

TEST(FitnessExplorerTest, ExhaustsSmallSpaceCompletely) {
  FaultSpace space = MakeSmallSpace();
  FitnessExplorer explorer(space, {.seed = 5});
  auto visited = Drain(explorer, [](const Fault&) { return 1.0; }, 1000);
  EXPECT_EQ(visited.size(), 25u);
  EXPECT_EQ(explorer.NextCandidate(), std::nullopt);
}

TEST(FitnessExplorerTest, RespectsHoles) {
  FaultSpace space = MakeSmallSpace();
  space.SetValidity([](const FaultSpace&, const Fault& f) { return (f[0] + f[1]) % 2 == 0; });
  FitnessExplorer explorer(space, {.seed = 9});
  auto visited = Drain(explorer, [](const Fault&) { return 1.0; }, 1000);
  for (const Fault& f : visited) {
    EXPECT_EQ((f[0] + f[1]) % 2, 0u);
  }
  EXPECT_EQ(visited.size(), 13u);  // ceil(25/2)
}

// The headline behaviour: on a structured impact surface the fitness-guided
// search concentrates its samples on the high-impact ridge far more than
// uniform random sampling would (paper §3's Battleship analogy).
TEST(FitnessExplorerTest, ConcentratesOnRidge) {
  FaultSpace space = MakeBigSpace();
  // Ridge: column x == 30 has impact 10; everything else 0. The ridge is
  // 2% of the space.
  auto impact = [](const Fault& f) { return f[0] == 30 ? 10.0 : 0.0; };

  FitnessExplorer fitness(space, {.seed = 21});
  auto fitness_visited = Drain(fitness, impact, 400);
  size_t fitness_hits = 0;
  for (const Fault& f : fitness_visited) {
    fitness_hits += f[0] == 30 ? 1 : 0;
  }

  RandomExplorer random(space, 21);
  auto random_visited = Drain(random, impact, 400);
  size_t random_hits = 0;
  for (const Fault& f : random_visited) {
    random_hits += f[0] == 30 ? 1 : 0;
  }

  // Uniform sampling expects ~8 hits in 400 draws; the guided search should
  // find several times that.
  EXPECT_GT(fitness_hits, random_hits * 2);
}

TEST(FitnessExplorerTest, SensitivityLearnsStructuredAxis) {
  // Large space so the high-impact stripe cannot be mined out within the
  // iteration budget (once a structure is exhausted the sensitivity window
  // correctly decays back to baseline).
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("x", 0, 199));
  axes.push_back(Axis::MakeInterval("y", 0, 199));
  FaultSpace space(std::move(axes), "huge");
  // Impact depends only on x: mutations along y of a high-impact parent
  // stay high-impact, so axis y accumulates fitness gain and its
  // sensitivity should dominate.
  auto impact = [](const Fault& f) { return f[0] >= 95 && f[0] <= 105 ? 5.0 : 0.0; };
  FitnessExplorer explorer(space, {.seed = 33});
  Drain(explorer, impact, 600);
  std::vector<double> sensitivity = explorer.NormalizedSensitivity();
  ASSERT_EQ(sensitivity.size(), 2u);
  EXPECT_GT(sensitivity[1], sensitivity[0]);
}

TEST(FitnessExplorerTest, PriorityQueueBounded) {
  FaultSpace space = MakeBigSpace();
  FitnessExplorerConfig config;
  config.seed = 4;
  config.priority_capacity = 8;
  FitnessExplorer explorer(space, config);
  Drain(explorer, [](const Fault&) { return 1.0; }, 300);
  EXPECT_LE(explorer.priority_queue_size(), 8u);
}

TEST(FitnessExplorerTest, AgingRetiresStaleTests) {
  FaultSpace space = MakeBigSpace();
  FitnessExplorerConfig config;
  config.seed = 6;
  config.aging_decay = 0.5;          // aggressive aging
  config.retirement_fraction = 0.4;  // retire after ~2 generations
  FitnessExplorer explorer(space, config);
  Drain(explorer, [](const Fault&) { return 1.0; }, 200);
  // With decay 0.5 and retirement at 40% of original impact, an entry
  // survives at most two reports; the queue stays tiny.
  EXPECT_LE(explorer.priority_queue_size(), 4u);
}

TEST(FitnessExplorerTest, DeterministicPerSeed) {
  FaultSpace space = MakeBigSpace();
  FitnessExplorer a(space, {.seed = 77});
  FitnessExplorer b(space, {.seed = 77});
  auto impact = [](const Fault& f) { return static_cast<double>(f[0] % 7); };
  for (int i = 0; i < 200; ++i) {
    auto fa = a.NextCandidate();
    auto fb = b.NextCandidate();
    ASSERT_EQ(fa, fb);
    a.ReportResult(*fa, impact(*fa));
    b.ReportResult(*fb, impact(*fb));
  }
}

TEST(FitnessExplorerTest, InitialBatchIsUnbiased) {
  FaultSpace space = MakeBigSpace();
  FitnessExplorerConfig config;
  config.seed = 15;
  config.initial_batch = 50;
  FitnessExplorer explorer(space, config);
  // During the initial batch no results have been reported, so all
  // candidates are random draws; just verify they are novel and in bounds.
  std::set<std::vector<size_t>> unique;
  for (size_t i = 0; i < config.initial_batch; ++i) {
    auto f = explorer.NextCandidate();
    ASSERT_TRUE(f.has_value());
    EXPECT_TRUE(space.InBounds(*f));
    EXPECT_TRUE(unique.insert(f->indices()).second);
  }
}

TEST(MakeExplorerTest, RejectsUnknownStrategy) {
  FaultSpace space = MakeSmallSpace();
  EXPECT_THROW(MakeExplorer("guided", space, 1), std::invalid_argument);
}

}  // namespace
}  // namespace afex
