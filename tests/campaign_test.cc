// Tests for the durable campaign store: serde round trips, journal crash
// tolerance, resume equivalence (interrupt + resume == uninterrupted, for
// every strategy, serial and parallel), config-mismatch refusal, warm
// start, and the CSV/JSON exporters.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "campaign/export.h"
#include "campaign/journal.h"
#include "campaign/recipe.h"
#include "campaign/serde.h"
#include "campaign/store.h"
#include "core/fitness_explorer.h"
#include "core/random_explorer.h"
#include "targets/coreutils/suite.h"
#include "targets/harness.h"
#include "util/rng.h"

namespace afex {
namespace {

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "afex_campaign_" + name;
  std::remove(path.c_str());  // Create refuses to overwrite leftovers
  return path;
}

void ExpectOutcomesEqual(const TestOutcome& a, const TestOutcome& b) {
  EXPECT_EQ(a.test_failed, b.test_failed);
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_EQ(a.hung, b.hung);
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.new_blocks_covered, b.new_blocks_covered);
  EXPECT_EQ(a.new_block_ids, b.new_block_ids);
  EXPECT_EQ(a.fault_triggered, b.fault_triggered);
  EXPECT_EQ(a.injection_stack, b.injection_stack);
  EXPECT_EQ(a.detail, b.detail);
}

void ExpectRecordsEqual(const SessionRecord& a, const SessionRecord& b) {
  EXPECT_EQ(a.fault.indices(), b.fault.indices());
  EXPECT_EQ(a.impact, b.impact);
  EXPECT_EQ(a.fitness, b.fitness);
  EXPECT_EQ(a.cluster_id, b.cluster_id);
  ExpectOutcomesEqual(a.outcome, b.outcome);
}

void ExpectResultsEqual(const SessionResult& a, const SessionResult& b) {
  EXPECT_EQ(a.tests_executed, b.tests_executed);
  EXPECT_EQ(a.failed_tests, b.failed_tests);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.hangs, b.hangs);
  EXPECT_EQ(a.clusters, b.clusters);
  EXPECT_EQ(a.unique_failures, b.unique_failures);
  EXPECT_EQ(a.unique_crashes, b.unique_crashes);
  EXPECT_EQ(a.total_impact, b.total_impact);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    ExpectRecordsEqual(a.records[i], b.records[i]);
  }
}

// --- serde -----------------------------------------------------------------

TEST(SerdeTest, FaultRoundTrip) {
  for (const Fault& fault : {Fault(), Fault({0}), Fault({3, 0, 141, 7})}) {
    Fault parsed;
    ASSERT_TRUE(ParseFault(SerializeFault(fault), parsed));
    EXPECT_EQ(parsed.indices(), fault.indices());
  }
}

TEST(SerdeTest, EscapeRoundTripsHostileBytes) {
  std::string hostile;
  for (int c = 0; c < 256; ++c) {
    hostile += static_cast<char>(c);
  }
  std::string escaped = EscapeField(hostile);
  EXPECT_EQ(escaped.find(' '), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  std::string back;
  ASSERT_TRUE(UnescapeField(escaped, back));
  EXPECT_EQ(back, hostile);
}

// Property test: randomly generated records (hostile strings, extreme
// doubles, empty and separator-laden stack frames) round-trip exactly.
TEST(SerdeTest, RecordRoundTripProperty) {
  Rng rng(2026);
  const std::string pool("ab z%|=:,\n\t\r\"'\\-\x01\x7f", 19);
  auto random_string = [&] {
    std::string s;
    size_t len = rng.NextBelow(10);
    for (size_t i = 0; i < len; ++i) {
      s += pool[rng.NextBelow(pool.size())];
    }
    return s;
  };
  const double doubles[] = {0.0,   1.0,        19.0,  0.1,      1.0 / 3.0, 1e-17,
                            1e300, 123.456789, 1e-300, 0.999999, 42.5,     7e22};

  for (int trial = 0; trial < 300; ++trial) {
    SessionRecord record;
    std::vector<size_t> indices;
    size_t dims = rng.NextBelow(5);
    for (size_t i = 0; i < dims; ++i) {
      indices.push_back(static_cast<size_t>(rng.NextBelow(1000)));
    }
    record.fault = Fault(std::move(indices));
    record.impact = doubles[rng.NextBelow(std::size(doubles))];
    record.fitness = doubles[rng.NextBelow(std::size(doubles))];
    record.cluster_id = static_cast<size_t>(rng.NextBelow(100));
    record.outcome.test_failed = rng.NextBernoulli(0.5);
    record.outcome.crashed = rng.NextBernoulli(0.5);
    record.outcome.hung = rng.NextBernoulli(0.5);
    record.outcome.exit_code = static_cast<int>(rng.NextInRange(-200, 200));
    record.outcome.fault_triggered = rng.NextBernoulli(0.5);
    record.outcome.new_blocks_covered = static_cast<size_t>(rng.NextBelow(50));
    size_t n_blocks = rng.NextBelow(6);
    for (size_t i = 0; i < n_blocks; ++i) {
      record.outcome.new_block_ids.push_back(static_cast<uint32_t>(rng.NextBelow(10000)));
    }
    size_t frames = rng.NextBelow(4);
    for (size_t i = 0; i < frames; ++i) {
      record.outcome.injection_stack.push_back(random_string());
    }
    record.outcome.detail = random_string();

    std::string line = SerializeRecord(record);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    SessionRecord parsed;
    ASSERT_TRUE(ParseRecord(line, parsed)) << line;
    ExpectRecordsEqual(parsed, record);
  }
}

TEST(SerdeTest, MetaRoundTrip) {
  CampaignMeta meta;
  meta.target = "docstore-v0.8";
  meta.strategy = "fitness";
  meta.seed = 0xdeadbeefcafeULL;
  meta.space_fingerprint = 0x0123456789abcdefULL;
  meta.jobs = 16;
  meta.feedback = true;
  meta.warm_fingerprint = 0xfeed5eed0000ffffULL;
  meta.analysis_fingerprint = 0x24dfe2f30004db42ULL;
  meta.recipe = {"--backend=real", "--target-cmd=./bin {test} |x", "--space=s\nf : { a, b }\n;\n"};
  CampaignMeta parsed;
  ASSERT_TRUE(ParseMeta(SerializeMeta(meta), parsed));
  EXPECT_EQ(parsed.version, meta.version);
  EXPECT_EQ(parsed.target, meta.target);
  EXPECT_EQ(parsed.strategy, meta.strategy);
  EXPECT_EQ(parsed.seed, meta.seed);
  EXPECT_EQ(parsed.space_fingerprint, meta.space_fingerprint);
  EXPECT_EQ(parsed.jobs, meta.jobs);
  EXPECT_EQ(parsed.feedback, meta.feedback);
  EXPECT_EQ(parsed.warm_fingerprint, meta.warm_fingerprint);
  EXPECT_EQ(parsed.analysis_fingerprint, meta.analysis_fingerprint);
  EXPECT_EQ(parsed.recipe, meta.recipe);
}

TEST(SerdeTest, MetaVersioningGatesTheAnalysisField) {
  // A v1 line (no analysis field) still parses: the fingerprint defaults
  // to 0 = "no analysis recorded".
  CampaignMeta v1;
  v1.version = 1;
  v1.target = "minidb";
  v1.strategy = "fitness";
  std::string v1_line = SerializeMeta(v1);
  EXPECT_EQ(v1_line.find("analysis="), std::string::npos);
  CampaignMeta parsed;
  ASSERT_TRUE(ParseMeta(v1_line, parsed));
  EXPECT_EQ(parsed.version, 1);
  EXPECT_EQ(parsed.analysis_fingerprint, 0u);

  // Strictness both ways: v1 must not carry the field, v2 must.
  EXPECT_FALSE(ParseMeta(v1_line + " analysis=0000000000000001", parsed));
  CampaignMeta v2;
  v2.version = 2;
  v2.target = "minidb";
  v2.strategy = "fitness";
  std::string v2_line = SerializeMeta(v2);
  ASSERT_NE(v2_line.find("analysis="), std::string::npos);
  ASSERT_TRUE(ParseMeta(v2_line, parsed));
  size_t field = v2_line.find(" analysis=");
  EXPECT_FALSE(ParseMeta(v2_line.substr(0, field), parsed));
}

TEST(SerdeTest, ParseRejectsMalformedRecords) {
  SessionRecord record;
  EXPECT_FALSE(ParseRecord("", record));                       // missing keys
  EXPECT_FALSE(ParseRecord("f=1,2 impact=1", record));         // incomplete
  EXPECT_FALSE(ParseRecord("not a record at all", record));    // no key=value
  SessionRecord valid;
  valid.fault = Fault({1, 2});
  std::string line = SerializeRecord(valid);
  EXPECT_TRUE(ParseRecord(line, record));
  EXPECT_FALSE(ParseRecord(line + " bogus=1", record));        // unknown key
  EXPECT_FALSE(ParseRecord(line + " impact=abc", record));     // junk value
}

TEST(SerdeTest, FingerprintDistinguishesSpaces) {
  auto make = [](const std::string& name, const std::string& axis, int64_t hi) {
    std::vector<Axis> axes;
    axes.push_back(Axis::MakeInterval(axis, 0, hi));
    axes.push_back(Axis::MakeSet("function", {"malloc", "read"}));
    return FaultSpace(std::move(axes), name);
  };
  FaultSpace base = make("s", "call", 9);
  EXPECT_EQ(FaultSpaceFingerprint(base), FaultSpaceFingerprint(make("s", "call", 9)));
  EXPECT_NE(FaultSpaceFingerprint(base), FaultSpaceFingerprint(make("t", "call", 9)));
  EXPECT_NE(FaultSpaceFingerprint(base), FaultSpaceFingerprint(make("s", "tick", 9)));
  EXPECT_NE(FaultSpaceFingerprint(base), FaultSpaceFingerprint(make("s", "call", 10)));

  std::vector<Axis> reordered;
  reordered.push_back(Axis::MakeSet("function", {"read", "malloc"}));
  EXPECT_NE(FaultSpaceFingerprint(FaultSpace({Axis::MakeSet("function", {"malloc", "read"})})),
            FaultSpaceFingerprint(FaultSpace(std::move(reordered))));
}

// --- journal ---------------------------------------------------------------

CampaignMeta TestMeta(const std::string& strategy, uint64_t seed, const FaultSpace& space,
                      size_t jobs = 1, bool feedback = false) {
  CampaignMeta meta;
  meta.target = "coreutils";
  meta.strategy = strategy;
  meta.seed = seed;
  meta.space_fingerprint = FaultSpaceFingerprint(space);
  meta.jobs = jobs;
  meta.feedback = feedback;
  return meta;
}

SessionRecord MakeRecord(size_t i) {
  SessionRecord record;
  record.fault = Fault({i, i + 1});
  record.impact = static_cast<double>(i) * 1.5;
  record.fitness = record.impact;
  record.outcome.test_failed = (i % 2) == 0;
  record.outcome.injection_stack = {"main", "frame" + std::to_string(i)};
  record.outcome.new_block_ids = {static_cast<uint32_t>(i), static_cast<uint32_t>(100 + i)};
  record.outcome.new_blocks_covered = 2;
  return record;
}

TEST(JournalTest, TornTailIsDropped) {
  const std::string path = TempPath("torn_tail.afexj");
  FaultSpace space({Axis::MakeInterval("x", 0, 9)}, "synthetic");
  {
    CampaignStore store = CampaignStore::Create(path, TestMeta("random", 1, space));
    for (size_t i = 0; i < 5; ++i) {
      store.Append(MakeRecord(i));
    }
  }
  // Simulate a kill mid-write: a final line with no terminating newline.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "R f=9,9 impact=1 fitn";
  }
  CampaignStore reloaded = CampaignStore::Open(path);
  ASSERT_EQ(reloaded.records().size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    SCOPED_TRACE(i);
    ExpectRecordsEqual(reloaded.records()[i], MakeRecord(i));
  }

  // Resuming rewrites the journal without the torn bytes; appending then
  // yields a fully clean journal.
  reloaded.CommitResume(5);
  reloaded.Append(MakeRecord(5));
  CampaignStore again = CampaignStore::Open(path);
  EXPECT_EQ(again.records().size(), 6u);
}

TEST(JournalTest, MalformedFinalLineIsDroppedButMiddleCorruptionThrows) {
  const std::string path = TempPath("corrupt.afexj");
  FaultSpace space({Axis::MakeInterval("x", 0, 9)}, "synthetic");
  {
    CampaignStore store = CampaignStore::Create(path, TestMeta("random", 1, space));
    store.Append(MakeRecord(0));
    store.Append(MakeRecord(1));
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "R complete line but garbage\n";
  }
  EXPECT_EQ(CampaignStore::Open(path).records().size(), 2u);

  // The same garbage followed by a valid record is mid-journal corruption.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "R " << SerializeRecord(MakeRecord(2)) << "\n";
  }
  EXPECT_THROW(CampaignStore::Open(path), CampaignError);
}

TEST(JournalTest, OpenRejectsNonJournalsAndNewerVersions) {
  const std::string path = TempPath("not_a_journal.afexj");
  {
    std::ofstream out(path, std::ios::binary);
    out << "something else entirely\n";
  }
  EXPECT_THROW(CampaignStore::Open(path), CampaignError);
  {
    std::ofstream out(path, std::ios::binary);
    out << "AFEXJ v=999 target=x strategy=y seed=1 space=0000000000000000 jobs=1 feedback=0 "
           "warm=0000000000000000 newfield=1\n";
  }
  try {
    CampaignStore::Open(path);
    FAIL() << "a newer journal format was accepted";
  } catch (const CampaignError& e) {
    EXPECT_NE(std::string(e.what()).find("has format version 999"), std::string::npos) << e.what();
  }
  EXPECT_THROW(CampaignStore::Open(TempPath("does_not_exist.afexj")), CampaignError);
}

TEST(StoreTest, RefusesResumeOnConfigMismatch) {
  const std::string path = TempPath("mismatch.afexj");
  FaultSpace space({Axis::MakeInterval("x", 0, 9)}, "synthetic");
  FaultSpace other_space({Axis::MakeInterval("x", 0, 10)}, "synthetic");
  CampaignMeta meta = TestMeta("fitness", 7, space);
  { CampaignStore store = CampaignStore::Create(path, meta); }

  EXPECT_NO_THROW(CampaignStore::Open(path, meta));
  CampaignMeta wrong = meta;
  wrong.seed = 8;
  EXPECT_THROW(CampaignStore::Open(path, wrong), CampaignError);
  wrong = meta;
  wrong.strategy = "random";
  EXPECT_THROW(CampaignStore::Open(path, wrong), CampaignError);
  wrong = meta;
  wrong.space_fingerprint = FaultSpaceFingerprint(other_space);
  EXPECT_THROW(CampaignStore::Open(path, wrong), CampaignError);
  wrong = meta;
  wrong.jobs = 4;
  EXPECT_THROW(CampaignStore::Open(path, wrong), CampaignError);
  wrong = meta;
  wrong.feedback = true;
  EXPECT_THROW(CampaignStore::Open(path, wrong), CampaignError);
  wrong = meta;
  wrong.warm_fingerprint = 0x1234;
  EXPECT_THROW(CampaignStore::Open(path, wrong), CampaignError);
  // Rebuilt target binary: the static-analysis fingerprint changed, so the
  // journaled faults may no longer be reachable — refuse the resume.
  wrong = meta;
  wrong.analysis_fingerprint = 0xabcdef;
  EXPECT_THROW(CampaignStore::Open(path, wrong), CampaignError);
}

TEST(StoreTest, CreateRefusesToOverwriteAnExistingJournal) {
  const std::string path = TempPath("no_clobber.afexj");
  FaultSpace space({Axis::MakeInterval("x", 0, 9)}, "synthetic");
  CampaignMeta meta = TestMeta("random", 1, space);
  {
    CampaignStore store = CampaignStore::Create(path, meta);
    store.Append(MakeRecord(0));
  }
  EXPECT_THROW(CampaignStore::Create(path, meta), CampaignError);
  EXPECT_EQ(CampaignStore::Open(path).records().size(), 1u);  // untouched
}

// --- resume equivalence ----------------------------------------------------
//
// The acceptance bar: a campaign interrupted after k tests and resumed from
// its journal produces the same SessionResult (counters and every record)
// as an uninterrupted run with the same seed — for all three strategies,
// serial and parallel.

class ResumeEquivalenceTest : public ::testing::TestWithParam<const char*> {
 protected:
  TargetSuite suite_ = coreutils::MakeSuite();
  static constexpr uint64_t kSeed = 21;
  static constexpr size_t kBudget = 40;
};

TEST_P(ResumeEquivalenceTest, SerialInterruptAndResumeMatchesUninterrupted) {
  const std::string strategy = GetParam();
  SessionConfig config;
  config.redundancy_feedback = true;

  TargetHarness baseline_harness(suite_, kSeed);
  FaultSpace space = baseline_harness.MakeSpace(2, /*include_zero_call=*/true);
  auto baseline_explorer = MakeExplorer(strategy, space, kSeed);
  ExplorationSession baseline(*baseline_explorer, baseline_harness.MakeRunner(space), config);
  SessionResult expected = baseline.Run({.max_tests = kBudget});

  CampaignMeta meta = TestMeta(strategy, kSeed, space, 1, /*feedback=*/true);
  for (size_t k : {size_t{0}, size_t{1}, size_t{17}}) {
    SCOPED_TRACE("interrupt after " + std::to_string(k));
    const std::string path = TempPath("serial_" + strategy + std::to_string(k) + ".afexj");

    // First leg: journal every test, stop ("die") after k.
    {
      CampaignStore store = CampaignStore::Create(path, meta);
      TargetHarness harness(suite_, kSeed);
      auto explorer = MakeExplorer(strategy, space, kSeed);
      SessionConfig journaling = config;
      journaling.record_observer = store.MakeObserver();
      ExplorationSession session(*explorer, harness.MakeRunner(space), journaling);
      if (k > 0) {  // max_tests = 0 would mean "unbounded", not "none"
        session.Run({.max_tests = k});
      }
    }

    // Second leg: resume from the journal and run to the full budget.
    // The observer is bound up front — Replay never fires it, and appends
    // only start after CommitResume reopens the journal.
    CampaignStore store = CampaignStore::Open(path, meta);
    TargetHarness harness(suite_, kSeed);
    auto explorer = MakeExplorer(strategy, space, kSeed);
    SessionConfig journaling = config;
    journaling.record_observer = store.MakeObserver();
    ExplorationSession session(*explorer, harness.MakeRunner(space), journaling);
    for (const SessionRecord& record : store.records()) {
      ASSERT_TRUE(session.Replay(record));
    }
    store.CommitResume(store.records().size());
    harness.SeedCoverage(store.CoverageIdsForNode(0));
    SessionResult resumed = session.Run({.max_tests = kBudget});

    ExpectResultsEqual(resumed, expected);
    // The journal now holds the whole campaign and reloads cleanly.
    EXPECT_EQ(CampaignStore::Open(path, meta).records().size(), kBudget);
  }
}

TEST_P(ResumeEquivalenceTest, ParallelInterruptMidRoundAndResumeMatchesUninterrupted) {
  const std::string strategy = GetParam();
  constexpr size_t kJobs = 3;
  const SearchTarget target{.max_tests = kBudget};

  TargetHarness space_harness(suite_, kSeed);
  FaultSpace space = space_harness.MakeSpace(2, /*include_zero_call=*/true);

  auto make_session = [&](std::vector<std::unique_ptr<TargetHarness>>& harnesses,
                          Explorer& explorer, const SessionConfig& config) {
    std::vector<Runner> nodes;
    for (size_t i = 0; i < kJobs; ++i) {
      harnesses.push_back(std::make_unique<TargetHarness>(suite_, kSeed));
      nodes.push_back(harnesses.back()->MakeRunner(space));
    }
    return std::make_unique<ExplorationSession>(explorer, std::move(nodes), config);
  };

  std::vector<std::unique_ptr<TargetHarness>> baseline_harnesses;
  auto baseline_explorer = MakeExplorer(strategy, space, kSeed);
  auto baseline = make_session(baseline_harnesses, *baseline_explorer, {});
  SessionResult expected = baseline->Run(target);

  CampaignMeta meta = TestMeta(strategy, kSeed, space, kJobs);
  // k = 7 is deliberately not a multiple of kJobs: the journal ends with an
  // incomplete round that resume must drop and re-execute.
  const size_t k = 7;
  const std::string path = TempPath("parallel_" + strategy + ".afexj");
  {
    CampaignStore store = CampaignStore::Create(path, meta);
    SessionConfig journaling;
    journaling.record_observer = store.MakeObserver();
    std::vector<std::unique_ptr<TargetHarness>> harnesses;
    auto explorer = MakeExplorer(strategy, space, kSeed);
    auto session = make_session(harnesses, *explorer, journaling);
    session->Run({.max_tests = k});
  }

  CampaignStore store = CampaignStore::Open(path, meta);
  ASSERT_EQ(store.records().size(), k);
  std::vector<std::unique_ptr<TargetHarness>> harnesses;
  auto explorer = MakeExplorer(strategy, space, kSeed);
  auto session = make_session(harnesses, *explorer, {});
  for (const SessionRecord& record : store.records()) {
    ASSERT_TRUE(session->Replay(record));
  }
  const size_t consumed = session->result().tests_executed;
  EXPECT_EQ(consumed, 6u);  // two full rounds of 3; the partial round stays pending
  store.CommitResume(consumed);
  for (size_t i = 0; i < kJobs; ++i) {
    harnesses[i]->SeedCoverage(store.CoverageIdsForNode(i));
  }
  SessionResult resumed = session->Run(target);

  ExpectResultsEqual(resumed, expected);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ResumeEquivalenceTest,
                         ::testing::Values("fitness", "random", "exhaustive"));

TEST(ResumeTest, ReplayRejectsForeignJournal) {
  TargetSuite suite = coreutils::MakeSuite();
  TargetHarness harness(suite, 3);
  FaultSpace space = harness.MakeSpace(2, true);
  const std::string path = TempPath("foreign.afexj");
  {
    CampaignStore store = CampaignStore::Create(path, TestMeta("random", 3, space));
    TargetHarness run_harness(suite, 3);
    RandomExplorer explorer(space, 3);
    SessionConfig config;
    config.record_observer = store.MakeObserver();
    ExplorationSession session(explorer, run_harness.MakeRunner(space), config);
    session.Run({.max_tests = 10});
  }
  // Replaying against a different seed diverges at the first candidate.
  CampaignStore store = CampaignStore::Open(path);
  RandomExplorer explorer(space, 4);
  ExplorationSession session(explorer, harness.MakeRunner(space), {});
  EXPECT_FALSE(session.Replay(store.records().front()));
}

// A warm-started campaign's journal resumes only when the same seeds are
// re-applied: the warm fingerprint is part of the campaign identity, and
// with the seeds restored the replayed candidate sequence matches exactly.
TEST(ResumeTest, WarmStartedJournalResumesWithSameSeedsAndRefusesWithout) {
  TargetSuite suite = coreutils::MakeSuite();
  TargetHarness donor_harness(suite, 1);
  FaultSpace space = donor_harness.MakeSpace(2, true);

  // Donor campaign whose records supply the warm knowledge.
  FitnessExplorer donor(space, {.seed = 1});
  ExplorationSession donor_session(donor, donor_harness.MakeRunner(space), {});
  std::vector<SessionRecord> knowledge = donor_session.Run({.max_tests = 40}).records;
  const uint64_t warm = WarmStartFingerprint(space, knowledge);

  auto warmed_explorer = [&] {
    auto explorer = std::make_unique<FitnessExplorer>(space, FitnessExplorerConfig{.seed = 2});
    WarmStartFromRecords(*explorer, knowledge);
    return explorer;
  };

  CampaignMeta meta = TestMeta("fitness", 2, space);
  meta.warm_fingerprint = warm;
  const std::string path = TempPath("warm_resume.afexj");
  {
    CampaignStore store = CampaignStore::Create(path, meta);
    TargetHarness harness(suite, 2);
    auto explorer = warmed_explorer();
    SessionConfig config;
    config.record_observer = store.MakeObserver();
    ExplorationSession session(*explorer, harness.MakeRunner(space), config);
    session.Run({.max_tests = 15});
  }

  // Without the warm seeds the identity check refuses up front.
  CampaignMeta cold = meta;
  cold.warm_fingerprint = 0;
  EXPECT_THROW(CampaignStore::Open(path, cold), CampaignError);

  // With them, replay matches and the campaign continues.
  CampaignStore store = CampaignStore::Open(path, meta);
  TargetHarness harness(suite, 2);
  auto explorer = warmed_explorer();
  ExplorationSession session(*explorer, harness.MakeRunner(space), {});
  for (const SessionRecord& record : store.records()) {
    ASSERT_TRUE(session.Replay(record));
  }
  store.CommitResume(store.records().size());
  harness.SeedCoverage(store.CoverageIdsForNode(0));
  SessionResult resumed = session.Run({.max_tests = 30});
  EXPECT_EQ(resumed.tests_executed, 30u);
}

// --- warm start ------------------------------------------------------------

TEST(WarmStartTest, SeedsPriorityPoolAndSuppressesReexecution) {
  TargetSuite suite = coreutils::MakeSuite();
  TargetHarness harness(suite, 5);
  FaultSpace space = harness.MakeSpace(2, true);
  FitnessExplorer first(space, {.seed = 5});
  ExplorationSession session(first, harness.MakeRunner(space), {});
  SessionResult prior = session.Run({.max_tests = 60});

  FitnessExplorer warmed(space, {.seed = 99});
  size_t seeded = WarmStartFromRecords(warmed, prior.records);
  ASSERT_GT(seeded, 0u);
  EXPECT_GT(warmed.priority_queue_size(), 0u);

  std::unordered_set<Fault, FaultHash> seeded_faults;
  for (const SessionRecord& r : prior.records) {
    if (r.fitness > 0.0) {
      seeded_faults.insert(r.fault);
    }
  }
  EXPECT_EQ(seeded, seeded_faults.size());
  // Seeded faults are marked issued: the warmed explorer never re-issues
  // them, and issuing still works.
  for (int i = 0; i < 100; ++i) {
    auto candidate = warmed.NextCandidate();
    ASSERT_TRUE(candidate.has_value());
    EXPECT_FALSE(seeded_faults.contains(*candidate));
    warmed.ReportResult(*candidate, 0.0);
  }
}

TEST(WarmStartTest, SkipsRecordsFromIncompatibleSpaces) {
  FaultSpace space({Axis::MakeInterval("x", 0, 9), Axis::MakeInterval("y", 0, 9)}, "2d");
  FitnessExplorer explorer(space, {.seed = 1});
  std::vector<SessionRecord> records;
  SessionRecord wrong_dims;
  wrong_dims.fault = Fault({1});
  wrong_dims.fitness = 10.0;
  records.push_back(wrong_dims);
  SessionRecord out_of_bounds;
  out_of_bounds.fault = Fault({3, 25});
  out_of_bounds.fitness = 10.0;
  records.push_back(out_of_bounds);
  SessionRecord zero_fitness;
  zero_fitness.fault = Fault({1, 2});
  records.push_back(zero_fitness);
  EXPECT_EQ(WarmStartFromRecords(explorer, records), 0u);
  EXPECT_EQ(explorer.priority_queue_size(), 0u);

  SessionRecord good;
  good.fault = Fault({4, 4});
  good.fitness = 5.0;
  records.push_back(good);
  EXPECT_EQ(WarmStartFromRecords(explorer, records), 1u);
  EXPECT_EQ(explorer.priority_queue_size(), 1u);
}

// --- export ----------------------------------------------------------------

TEST(ExportTest, CsvHasHeaderAndOneRowPerRecord) {
  TargetSuite suite = coreutils::MakeSuite();
  TargetHarness harness(suite, 11);
  FaultSpace space = harness.MakeSpace(2, true);
  RandomExplorer explorer(space, 11);
  ExplorationSession session(explorer, harness.MakeRunner(space), {});
  SessionResult result = session.Run({.max_tests = 25});

  std::ostringstream out;
  ExportCsv(space, result, out);
  std::istringstream lines(out.str());
  std::string line;
  size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
  }
  EXPECT_EQ(count, 26u);
  EXPECT_EQ(out.str().substr(0, 5), "test,");
  EXPECT_NE(out.str().find("impact,fitness,cluster"), std::string::npos);
}

TEST(ExportTest, JsonCarriesMetaSummaryAndRecords) {
  TargetSuite suite = coreutils::MakeSuite();
  TargetHarness harness(suite, 11);
  FaultSpace space = harness.MakeSpace(2, true);
  RandomExplorer explorer(space, 11);
  ExplorationSession session(explorer, harness.MakeRunner(space), {});
  SessionResult result = session.Run({.max_tests = 10});

  CampaignMeta meta = TestMeta("random", 11, space);
  std::ostringstream out;
  ExportJson(meta, space, result, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"target\": \"coreutils\""), std::string::npos);
  EXPECT_NE(json.find("\"tests_executed\": 10"), std::string::npos);
  size_t record_objects = 0;
  for (size_t pos = json.find("{\"test\":"); pos != std::string::npos;
       pos = json.find("{\"test\":", pos + 1)) {
    ++record_objects;
  }
  EXPECT_EQ(record_objects, 10u);
}

// --- journal == in-memory result ------------------------------------------

TEST(StoreTest, JournalReloadsExactlyWhatTheSessionRecorded) {
  TargetSuite suite = coreutils::MakeSuite();
  TargetHarness harness(suite, 8);
  FaultSpace space = harness.MakeSpace(2, true);
  const std::string path = TempPath("exact.afexj");
  CampaignMeta meta = TestMeta("fitness", 8, space);
  SessionResult result;
  {
    CampaignStore store = CampaignStore::Create(path, meta);
    FitnessExplorer explorer(space, {.seed = 8});
    SessionConfig config;
    config.record_observer = store.MakeObserver();
    ExplorationSession session(explorer, harness.MakeRunner(space), config);
    result = session.Run({.max_tests = 30});
  }
  CampaignStore reloaded = CampaignStore::Open(path, meta);
  ASSERT_EQ(reloaded.records().size(), result.records.size());
  for (size_t i = 0; i < result.records.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    ExpectRecordsEqual(reloaded.records()[i], result.records[i]);
  }
}

// --- recipe ------------------------------------------------------------------

TEST(RecipeTest, CanonicalArgsRoundTripAndResumeChecksConflicts) {
  const std::string space_path = TempPath("recipe_space.afex");
  {
    std::ofstream out(space_path);
    out << "sp # comment\ntest : [1,3]\nfunction : { malloc, read }\ncall : [1,2]\n;\n";
  }
  Recipe recipe = Recipe::FromArgs(
      {"--target=minidb", "--space=" + space_path, "--seed=9", "--feedback", "--budget=40"});
  std::vector<std::string> args = recipe.ToArgs();
  EXPECT_EQ(args.front(), "--backend=sim");
  EXPECT_EQ(args.back(), "--budget=40");
  Recipe restored = Recipe::FromArgs(args, /*files_inline=*/true);
  EXPECT_EQ(restored.ToArgs(), args);
  EXPECT_EQ(restored.space,
            "sp\ntest : [ 1 , 3 ]\nfunction : { malloc, read }\ncall : [ 1 , 2 ]\n;\n");

  // A resume may raise the budget and repeat stored values; anything else
  // names the flag and both values.
  Recipe resumed = Recipe::Resume(restored, {"--budget=80", "--seed=9", "--feedback"});
  EXPECT_EQ(resumed.budget, 80u);
  try {
    Recipe::Resume(restored, {"--seed=2"});
    FAIL() << "a conflicting --seed was accepted";
  } catch (const CampaignError& e) {
    EXPECT_STREQ(e.what(),
                 "--seed conflicts with the journal's recipe: journal has '9', command line "
                 "has '2'");
  }
  EXPECT_THROW(Recipe::FromArgs({"--num-tests=3"}), CampaignError);  // real-only flag
  EXPECT_THROW(Recipe::FromArgs({"--budget=0"}), CampaignError);
  EXPECT_THROW(Recipe::FromArgs({"--bogus"}), CampaignError);
}

TEST(RecipeTest, PreRecipeJournalParsesAndResumesFromFullFlags) {
  // A v3 meta line has no recipe= field: it still parses, and carrying
  // the field before v4 is malformed.
  const std::vector<std::string> flags = {"--strategy=random", "--seed=3", "--budget=30"};
  CampaignMeta v3 = Recipe::FromArgs(flags).Build("", nullptr)->meta;
  v3.version = 3;
  const std::string line = SerializeMeta(v3);
  EXPECT_EQ(line.find("recipe="), std::string::npos);
  CampaignMeta parsed;
  ASSERT_TRUE(ParseMeta(line, parsed));
  EXPECT_TRUE(parsed.recipe.empty());
  EXPECT_FALSE(ParseMeta(line + " recipe=1:--seed%3D3", parsed));

  // Journal part of the campaign under the v3 header, then resume it the
  // pre-recipe way: the full flags rebuild a meta whose identity matches.
  const std::string path = TempPath("v3.afexj");
  {
    std::unique_ptr<Campaign> first = Recipe::FromArgs(flags).Build("", nullptr);
    CampaignStore store = CampaignStore::Create(path, v3);
    SessionConfig config;
    config.record_observer = store.MakeObserver();
    ExplorationSession session(*first->explorer, std::move(first->runners), config);
    session.Run({.max_tests = 12});
  }
  std::unique_ptr<Campaign> resumed = Recipe::FromArgs(flags).Build("", nullptr);
  CampaignStore store = CampaignStore::Open(path, resumed->meta);
  EXPECT_EQ(store.records().size(), 12u);
  ExplorationSession session(*resumed->explorer, std::move(resumed->runners));
  for (const SessionRecord& record : store.records()) {
    ASSERT_TRUE(session.Replay(record));
  }
  store.CommitResume(12);
  // The rewritten header is the resumed campaign's: v4, with its recipe.
  EXPECT_EQ(CampaignStore::Open(path).meta().version, kCampaignFormatVersion);
  EXPECT_EQ(CampaignStore::Open(path).meta().recipe, Recipe::FromArgs(flags).ToArgs());
}

TEST(RecipeTest, RetiredForkserverModeResumesAsPersistent) {
  // A v4 journal may name the retired forkserver exec mode: it resumes from
  // the journal alone, in persistent mode, and the new spelling is no
  // conflict. Build starts no process, so this test binary stands in for
  // the target and the interposer.
  const std::string self = std::filesystem::read_symlink("/proc/self/exe").string();
  const std::vector<std::string> journaled = {"--backend=real", "--target-cmd=" + self,
                                              "--exec-mode=forkserver"};
  const Recipe stored = Recipe::FromArgs(journaled, /*files_inline=*/true);
  EXPECT_EQ(stored.ToArgs(), (std::vector<std::string>{journaled[0], journaled[1],
                                                       "--exec-mode=persistent"}));
  CampaignMeta meta = stored.Build(self, nullptr)->meta;
  meta.recipe = journaled;
  const std::string path = TempPath("forkserver.afexj");
  CampaignStore::Create(path, meta);

  CampaignStore store = CampaignStore::Open(path);
  const Recipe resumed = Recipe::Resume(Recipe::FromArgs(store.meta().recipe, true),
                                        {"--exec-mode=persistent", "--budget=600"});
  store.Verify(resumed.Build(self, nullptr)->meta);
  store.CommitResume(0);
  EXPECT_EQ(CampaignStore::Open(path).meta().recipe, resumed.ToArgs());
  EXPECT_EQ(resumed.exec_mode, "persistent");
}

}  // namespace
}  // namespace afex
