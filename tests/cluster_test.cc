// Multi-node ExplorationSession: one explorer feeding N runners in rounds
// (paper §6.1), plus the round semantics journal replay depends on.
#include <gtest/gtest.h>

#include <atomic>

#include "core/fitness_explorer.h"
#include "core/random_explorer.h"
#include "core/session.h"
#include "targets/coreutils/suite.h"
#include "targets/harness.h"

namespace afex {
namespace {

FaultSpace MakeSpace() {
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("x", 0, 19));
  axes.push_back(Axis::MakeInterval("y", 0, 19));
  return FaultSpace(std::move(axes), "synthetic");
}

TestOutcome SyntheticRunner(const Fault& f) {
  TestOutcome outcome;
  outcome.fault_triggered = true;
  outcome.injection_stack = {"main", "site" + std::to_string(f[0] % 3)};
  if (f[0] == 5) {
    outcome.test_failed = true;
  }
  if (f[0] == 9) {
    outcome.test_failed = true;
    outcome.crashed = true;
  }
  return outcome;
}

std::vector<Runner> MakeNodes(size_t n) { return std::vector<Runner>(n, SyntheticRunner); }

// Synthetic nodes that count every execution across all of them.
std::vector<Runner> CountingNodes(size_t n, std::atomic<size_t>& executions) {
  std::vector<Runner> nodes;
  for (size_t i = 0; i < n; ++i) {
    nodes.push_back([&executions](const Fault& f) {
      ++executions;
      return SyntheticRunner(f);
    });
  }
  return nodes;
}

void ExpectSameRecords(const std::vector<SessionRecord>& a, const std::vector<SessionRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a[i].fault, b[i].fault);
    EXPECT_EQ(a[i].outcome.test_failed, b[i].outcome.test_failed);
    EXPECT_EQ(a[i].outcome.crashed, b[i].outcome.crashed);
    EXPECT_EQ(a[i].outcome.injection_stack, b[i].outcome.injection_stack);
    EXPECT_DOUBLE_EQ(a[i].impact, b[i].impact);
    EXPECT_DOUBLE_EQ(a[i].fitness, b[i].fitness);
    EXPECT_EQ(a[i].cluster_id, b[i].cluster_id);
  }
}

TEST(MultiNodeSessionTest, ExecutesExactlyMaxTests) {
  FaultSpace space = MakeSpace();
  RandomExplorer explorer(space, 1);
  ExplorationSession session(explorer, MakeNodes(4));
  SessionResult result = session.Run({.max_tests = 50});
  EXPECT_EQ(result.tests_executed, 50u);
}

TEST(MultiNodeSessionTest, MatchesSerialCountsOnFullSpace) {
  // Over the whole space the counts must agree with a serial session,
  // regardless of execution order.
  FaultSpace space = MakeSpace();
  RandomExplorer parallel_explorer(space, 7);
  ExplorationSession parallel(parallel_explorer, MakeNodes(8));
  SessionResult pr = parallel.Run({.max_tests = 400});

  RandomExplorer serial_explorer(space, 7);
  ExplorationSession serial(serial_explorer, SyntheticRunner);
  SessionResult sr = serial.Run({.max_tests = 400});

  EXPECT_EQ(pr.tests_executed, sr.tests_executed);
  EXPECT_EQ(pr.failed_tests, sr.failed_tests);
  EXPECT_EQ(pr.crashes, sr.crashes);
  EXPECT_EQ(pr.unique_crashes, sr.unique_crashes);
}

TEST(MultiNodeSessionTest, DeterministicForFixedNodeCount) {
  FaultSpace space = MakeSpace();
  auto run_once = [&] {
    RandomExplorer explorer(space, 3);
    ExplorationSession session(explorer, MakeNodes(4));
    SessionResult result = session.Run({.max_tests = 100});
    std::vector<std::vector<size_t>> order;
    for (const SessionRecord& r : result.records) {
      order.push_back(r.fault.indices());
    }
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(MultiNodeSessionTest, StopsOnCrashTarget) {
  FaultSpace space = MakeSpace();
  RandomExplorer explorer(space, 5);
  ExplorationSession session(explorer, MakeNodes(4));
  SessionResult result = session.Run({.stop_after_crashes = 2});
  EXPECT_GE(result.crashes, 2u);
  // At most one extra round beyond the target.
  EXPECT_LE(result.crashes, 2u + 4u);
}

TEST(MultiNodeSessionTest, WorksWithFitnessExplorer) {
  FaultSpace space = MakeSpace();
  FitnessExplorer explorer(space, {.seed = 11});
  ExplorationSession session(explorer, MakeNodes(4));
  SessionResult result = session.Run({.max_tests = 200});
  EXPECT_EQ(result.tests_executed, 200u);
  EXPECT_GT(result.failed_tests, 0u);
}

TEST(MultiNodeSessionTest, RealTargetOnPerNodeHarnesses) {
  // End-to-end: coreutils harnesses as nodes. Each node gets its own
  // harness (its own coverage accumulator), as on a real cluster.
  TargetSuite suite = coreutils::MakeSuite();
  TargetHarness shared_space_harness(suite);
  FaultSpace space = shared_space_harness.MakeSpace(2, true);

  std::vector<std::unique_ptr<TargetHarness>> harnesses;
  std::vector<Runner> nodes;
  for (size_t i = 0; i < 3; ++i) {
    harnesses.push_back(std::make_unique<TargetHarness>(suite));
    nodes.push_back(harnesses.back()->MakeRunner(space));
  }
  RandomExplorer explorer(space, 13);
  ExplorationSession session(explorer, std::move(nodes));
  SessionResult result = session.Run({.max_tests = 120});
  EXPECT_EQ(result.tests_executed, 120u);
  EXPECT_GT(result.failed_tests, 0u);  // ~12% of the space fails
}

TEST(MultiNodeSessionTest, BlocksCoveredCountsABlockOnce) {
  // Every node's accumulator sees block 7 as new; the session counts the
  // distinct union.
  FaultSpace space = MakeSpace();
  RandomExplorer explorer(space, 2);
  Runner node = [](const Fault&) {
    TestOutcome outcome;
    outcome.new_block_ids = {7};
    outcome.new_blocks_covered = 1;
    return outcome;
  };
  ExplorationSession session(explorer, std::vector<Runner>{node, node});
  SessionResult result = session.Run({.max_tests = 2});
  EXPECT_EQ(result.tests_executed, 2u);
  EXPECT_EQ(result.blocks_covered, 1u);
}

TEST(MultiNodeSessionTest, StepRunsOneRound) {
  FaultSpace space = MakeSpace();
  RandomExplorer explorer(space, 4);
  std::atomic<size_t> executions{0};
  ExplorationSession session(explorer, CountingNodes(3, executions));
  EXPECT_EQ(session.node_count(), 3u);
  EXPECT_TRUE(session.Step());
  EXPECT_EQ(executions.load(), 3u);
  EXPECT_EQ(session.result().tests_executed, 3u);
  EXPECT_EQ(explorer.issued_count(), 3u);
}

TEST(MultiNodeSessionTest, PartialRoundReplayReExecutesAtHeadOfNextRound) {
  FaultSpace space = MakeSpace();
  FitnessExplorer baseline_explorer(space, {.seed = 21});
  ExplorationSession baseline(baseline_explorer, MakeNodes(3));
  const std::vector<SessionRecord> expected = baseline.Run({.max_tests = 9}).records;

  // A journal cut after 7 records: two whole rounds plus one record of the
  // third.
  FitnessExplorer explorer(space, {.seed = 21});
  std::atomic<size_t> executions{0};
  ExplorationSession session(explorer, CountingNodes(3, executions));
  for (size_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(session.Replay(expected[i]));
  }
  EXPECT_EQ(session.result().tests_executed, 6u);
  EXPECT_EQ(executions.load(), 0u);

  // The pending candidate runs first, then two fresh ones complete the round.
  EXPECT_TRUE(session.Step());
  EXPECT_EQ(executions.load(), 3u);
  ExpectSameRecords(session.result().records, expected);

  // A journal from a different seed fails on its first record.
  FitnessExplorer foreign(space, {.seed = 22});
  ExplorationSession mismatched(foreign, MakeNodes(3));
  EXPECT_FALSE(mismatched.Replay(expected.front()));
}

TEST(MultiNodeSessionTest, ClampedLastRoundReExecutesOnResume) {
  // budget 40 on 3 nodes ends with a one-test round; the resumed session
  // replays the 13 whole rounds and re-executes the clamped one.
  FaultSpace space = MakeSpace();
  FitnessExplorer baseline_explorer(space, {.seed = 31});
  ExplorationSession baseline(baseline_explorer, MakeNodes(3));
  const std::vector<SessionRecord> expected = baseline.Run({.max_tests = 40}).records;
  ASSERT_EQ(expected.size(), 40u);

  FitnessExplorer explorer(space, {.seed = 31});
  std::atomic<size_t> executions{0};
  ExplorationSession session(explorer, CountingNodes(3, executions));
  for (const SessionRecord& record : expected) {
    ASSERT_TRUE(session.Replay(record));
  }
  EXPECT_EQ(session.result().tests_executed, 39u);
  const SessionResult& resumed = session.Run({.max_tests = 40});
  EXPECT_EQ(executions.load(), 1u);
  ExpectSameRecords(resumed.records, expected);
}

}  // namespace
}  // namespace afex
