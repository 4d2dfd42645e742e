#include "core/session.h"

#include <algorithm>
#include <bit>
#include <unordered_set>

#include "util/fnv1a.h"
#include "util/log.h"

namespace afex {

ExplorationSession::ExplorationSession(Explorer& explorer, std::vector<Runner> nodes,
                                       SessionConfig config)
    : explorer_(&explorer),
      nodes_(std::move(nodes)),
      config_(std::move(config)),
      clusterer_(config_.cluster_config),
      outcomes_(nodes_.size()),
      pool_(nodes_.size() > 1 ? std::make_unique<ThreadPool>(nodes_.size() - 1) : nullptr) {
  round_.reserve(nodes_.size());
}

ExplorationSession::ExplorationSession(Explorer& explorer, Runner runner, SessionConfig config)
    : ExplorationSession(explorer, std::vector<Runner>{std::move(runner)}, std::move(config)) {}

ExplorationSession::ExplorationSession(Explorer& explorer, TargetBackend& backend,
                                       const FaultSpace& space, SessionConfig config)
    : ExplorationSession(explorer, backend.MakeRunner(space), std::move(config)) {}

bool ExplorationSession::Step() { return RunRound(nodes_.size()); }

bool ExplorationSession::RunRound(size_t size) {
  while (round_.size() < size) {
    obs::PhaseTimer next_timer(config_.metrics, obs::Phase::kExplorerNext);
    auto candidate = explorer_->NextCandidate();
    next_timer.Finish();
    if (!candidate.has_value()) {
      result_.space_exhausted = true;
      break;
    }
    round_.push_back(std::move(*candidate));
  }
  for (size_t i = 1; i < round_.size(); ++i) {
    pool_->Submit([this, i] { Execute(i); });
  }
  if (!round_.empty()) {
    Execute(0);
  }
  if (round_.size() > 1) {
    pool_->Wait();
  }
  ScoreRound(/*notify_observer=*/true);
  return !result_.space_exhausted;
}

void ExplorationSession::ScoreRound(bool notify_observer) {
  for (size_t i = 0; i < round_.size(); ++i) {
    Process(round_[i], std::move(outcomes_[i]), notify_observer);
  }
  round_.clear();
}

void ExplorationSession::Execute(size_t node) {
  // Timed on the executing thread: each node's events land on its own
  // registry shard and trace track.
  obs::PhaseTimer run_timer(config_.metrics, obs::Phase::kBackendRun);
  outcomes_[node] = nodes_[node](round_[node]);
}

bool ExplorationSession::Replay(const SessionRecord& record) {
  auto candidate = explorer_->NextCandidate();
  if (!candidate.has_value() || !(*candidate == record.fault)) {
    return false;
  }
  outcomes_[round_.size()] = record.outcome;
  round_.push_back(std::move(*candidate));
  if (round_.size() == nodes_.size()) {
    ScoreRound(/*notify_observer=*/false);
  }
  return true;
}

void ExplorationSession::Process(const Fault& fault, TestOutcome outcome, bool notify_observer) {
  SessionRecord record;
  record.fault = fault;
  record.outcome = std::move(outcome);
  record.impact = config_.policy.Score(record.outcome);
  record.fitness = record.impact;

  if (config_.environment_model != nullptr) {
    record.fitness *= config_.environment_model->Relevance(explorer_->space(), record.fault);
  }
  // Feedback weighting and cluster assignment share one sweep over the
  // cluster representatives (the observation measures similarity against
  // the representatives as they stood before this stack was assigned).
  static const std::vector<std::string> kNoStack;
  const bool want_similarity = config_.redundancy_feedback && record.outcome.fault_triggered;
  obs::PhaseTimer observe_timer(config_.metrics, obs::Phase::kClusterObserve);
  ClusterObservation observation = clusterer_.Observe(
      record.outcome.fault_triggered ? record.outcome.injection_stack : kNoStack,
      want_similarity);
  observe_timer.Finish();
  if (want_similarity) {
    // Paper §7.4: 100% stack similarity zeroes the fitness, 0% leaves it as
    // is; linear in between.
    record.fitness *= (1.0 - observation.similarity);
  }
  record.cluster_id = observation.cluster_id;

  explorer_->ReportResult(record.fault, record.fitness);

  ++result_.tests_executed;
  if (record.outcome.test_failed) {
    ++result_.failed_tests;
  }
  if (record.outcome.crashed) {
    ++result_.crashes;
  }
  if (record.outcome.hung) {
    ++result_.hangs;
  }
  if (record.outcome.recovery_failed) {
    ++result_.recovery_failures;
  }
  if (record.outcome.invariant_violated) {
    ++result_.invariant_violations;
  }
  covered_blocks_.insert(record.outcome.new_block_ids.begin(),
                         record.outcome.new_block_ids.end());
  result_.blocks_covered = covered_blocks_.size();
  result_.total_impact += record.impact;
  result_.records.push_back(std::move(record));
  if (notify_observer && config_.record_observer) {
    config_.record_observer(result_.records.back());
  }
  // Progress fires only for live executions — replayed records already
  // counted in the original run and would skew the rate.
  if (notify_observer && config_.metrics != nullptr) {
    obs::ProgressUpdate update;
    update.tests_executed = result_.tests_executed;
    update.failed_tests = result_.failed_tests;
    update.crashes = result_.crashes;
    update.hangs = result_.hangs;
    update.clusters = clusterer_.cluster_count();
    update.recovery_failures = result_.recovery_failures;
    update.invariant_violations = result_.invariant_violations;
    update.covered_blocks = result_.blocks_covered;
    config_.metrics->OnTestExecuted(update);
  }
}

const SessionResult& ExplorationSession::Run(const SearchTarget& target) {
  // Progress toward the stop criteria is re-derived from the records
  // already present so a session resumed from a journal stops exactly where
  // the uninterrupted one would have.
  size_t found_above_threshold = 0;
  size_t crashes_found = 0;
  for (const SessionRecord& r : result_.records) {
    if (r.impact >= target.impact_threshold) {
      ++found_above_threshold;
    }
    if (r.outcome.crashed) {
      ++crashes_found;
    }
  }
  while (true) {
    if (target.max_tests > 0 && result_.tests_executed >= target.max_tests) {
      break;
    }
    if (target.stop_after_found > 0 && found_above_threshold >= target.stop_after_found) {
      break;
    }
    if (target.stop_after_crashes > 0 && crashes_found >= target.stop_after_crashes) {
      break;
    }
    size_t round = nodes_.size();
    if (target.max_tests > 0) {
      round = std::min(round, target.max_tests - result_.tests_executed);
    }
    const size_t before = result_.records.size();
    const bool more = RunRound(round);
    for (size_t i = before; i < result_.records.size(); ++i) {
      const SessionRecord& r = result_.records[i];
      if (r.impact >= target.impact_threshold) {
        ++found_above_threshold;
      }
      if (r.outcome.crashed) {
        ++crashes_found;
      }
    }
    if (result_.tests_executed / 1000 != before / 1000) {
      AFEX_LOG(kInfo) << "session: " << result_.tests_executed << " tests, "
                      << result_.failed_tests << " failed, " << result_.crashes << " crashes";
    }
    if (!more) {
      break;
    }
  }

  // Final quality characterization: count distinct behaviour clusters among
  // failures and crashes (paper Table 5's "unique" rows).
  std::unordered_set<size_t> failure_clusters;
  std::unordered_set<size_t> crash_clusters;
  for (const SessionRecord& r : result_.records) {
    if (!r.outcome.fault_triggered) {
      continue;
    }
    if (r.outcome.test_failed) {
      failure_clusters.insert(r.cluster_id);
    }
    if (r.outcome.crashed) {
      crash_clusters.insert(r.cluster_id);
    }
  }
  result_.clusters = clusterer_.cluster_count();
  result_.unique_failures = failure_clusters.size();
  result_.unique_crashes = crash_clusters.size();
  return result_;
}

uint64_t DigestRecords(const SessionResult& result) {
  Fnv1aHasher h;
  auto mix_string = [&h](const std::string& s) {
    h.Bytes(s);
    h.Byte(0xff);  // terminator: "ab","c" != "a","bc"
  };
  for (const SessionRecord& r : result.records) {
    for (size_t i = 0; i < r.fault.dimensions(); ++i) {
      h.U64(r.fault[i]);
    }
    h.U64(std::bit_cast<uint64_t>(r.fitness));
    h.U64(r.cluster_id);
    const TestOutcome& o = r.outcome;
    h.U64(static_cast<uint64_t>(o.exit_code) ^ (o.test_failed ? 0x100 : 0) ^
          (o.crashed ? 0x200 : 0) ^ (o.hung ? 0x400 : 0) ^ (o.fault_triggered ? 0x800 : 0) ^
          (o.recovery_failed ? 0x1000 : 0) ^ (o.invariant_violated ? 0x2000 : 0));
    h.U64(o.new_blocks_covered);
    for (uint32_t block : o.new_block_ids) {
      h.U64(block);
    }
    for (const std::string& frame : o.injection_stack) {
      mix_string(frame);
    }
    mix_string(o.detail);
  }
  return h.value();
}

}  // namespace afex
