// ExplorationSession: drives one fault-exploration run end to end (paper
// §6): pull candidates from an Explorer, execute each on a node runner,
// score the outcome with the ImpactPolicy, optionally weigh fitness by
// environment relevance (§7.5) and by online redundancy feedback (§7.4),
// report fitness back to the explorer, and stop when the search target is
// met.
//
// A runner abstracts one node manager (start scripts, injectors, sensors);
// for the simulated targets it is a closure around a sim harness. One
// explorer feeds one or more runners (paper §6.1): a serial campaign is the
// one-node case, and --jobs=N is N runners.
#ifndef AFEX_CORE_SESSION_H_
#define AFEX_CORE_SESSION_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/clustering.h"
#include "core/explorer.h"
#include "core/impact.h"
#include "core/relevance.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace afex {

// Stopping criteria (paper §6.4 step 6: time, number of tests, thresholds on
// coverage / bugs found). Zero-valued fields are "no constraint"; the
// session stops at the first criterion met, or when the explorer exhausts
// the space.
struct SearchTarget {
  size_t max_tests = 0;
  // Stop once `stop_after_found` faults with impact >= impact_threshold have
  // been found (e.g. "find 3 disk faults that hang the DBMS").
  double impact_threshold = 0.0;
  size_t stop_after_found = 0;
  // Stop once this many crash-inducing faults have been found.
  size_t stop_after_crashes = 0;
};

// One executed test, in execution order.
struct SessionRecord {
  Fault fault;
  TestOutcome outcome;
  double impact = 0.0;   // ImpactPolicy score
  double fitness = 0.0;  // impact after relevance / redundancy weighting
  size_t cluster_id = 0;
};

struct SessionConfig {
  ImpactPolicy policy;
  // Online redundancy feedback (paper §7.4): scale fitness linearly by
  // (1 - similarity to nearest previously seen injection stack trace).
  bool redundancy_feedback = false;
  ClusterConfig cluster_config;
  // Optional environment relevance model (paper §7.5); fitness is weighted
  // by the fault's relevance before being reported to the explorer.
  const EnvironmentModel* environment_model = nullptr;
  // Called with every *executed* record, in report order, right after it is
  // appended to the result. Replayed records (campaign resume) do not fire
  // it. The campaign journal hooks in here.
  std::function<void(const SessionRecord&)> record_observer;
  // Optional telemetry sink (obs/telemetry.h). Null disables every
  // instrumentation site at the cost of one predicted branch per phase.
  obs::MetricsSink* metrics = nullptr;
};

// One node's test execution: run this fault, observe the outcome. Must be
// deterministic in the fault for campaign resume to hold.
using Runner = std::function<TestOutcome(const Fault&)>;

// TargetBackend: the execution side of a campaign — "run this fault against
// this space, observe the outcome" — plus the coverage bookkeeping the
// campaign store needs for resume and reporting. The simulated harness
// (targets/harness.h) and the real-process harness
// (exec/real_target_harness.h) both implement it, so the sessions, the
// campaign layer, and the CLI are backend-agnostic: the sim stays the fast
// path, real processes are an opt-in backend with identical semantics.
class TargetBackend {
 public:
  virtual ~TargetBackend() = default;

  // Executes one fault-injection test. Must be deterministic in `fault`
  // (and the backend's own seed) for campaign resume to hold.
  virtual TestOutcome RunFault(const FaultSpace& space, const Fault& fault) = 0;

  // Session runner bound to `space`; both must outlive it.
  Runner MakeRunner(const FaultSpace& space) {
    return [this, &space](const Fault& fault) { return RunFault(space, fault); };
  }

  // Pre-seeds session coverage from journaled new-block ids, so a resumed
  // campaign keeps counting "new" relative to the whole campaign.
  virtual void SeedCoverage(const std::vector<uint32_t>& blocks) = 0;

  // Coverage accounting for reports. total_blocks == 0 means the backend
  // cannot enumerate blocks (coverage fractions read 0).
  virtual uint32_t coverage_total_blocks() const = 0;
  virtual uint32_t coverage_recovery_base() const = 0;
  virtual double CoverageFraction() const = 0;
  virtual double RecoveryCoverageFraction() const = 0;
  virtual size_t tests_run() const = 0;
  // Simulated instruction counter; real-process backends have none.
  virtual size_t total_sim_steps() const { return 0; }

  // Attaches a telemetry sink for backend-internal sub-phase timing
  // (sim decode/run/merge, real plan-write/fork-exec/...). Backends that
  // don't instrument themselves ignore it. Null detaches.
  virtual void set_metrics_sink(obs::MetricsSink* /*sink*/) {}
};

struct SessionResult {
  std::vector<SessionRecord> records;

  size_t tests_executed = 0;
  size_t failed_tests = 0;
  size_t crashes = 0;
  size_t hangs = 0;
  // Equivalence classes among *triggered* faults (paper §5); "unique"
  // counts are distinct clusters containing at least one failure / crash.
  size_t clusters = 0;
  size_t unique_failures = 0;
  size_t unique_crashes = 0;
  // Two-phase crash→recover→verify facets (real backend) and cumulative
  // distinct coverage blocks across all records — the discovery counters
  // the progress line and report surface alongside throughput.
  size_t recovery_failures = 0;
  size_t invariant_violations = 0;
  size_t blocks_covered = 0;
  double total_impact = 0.0;
  bool space_exhausted = false;
};

// FNV-1a over every record's fault indices, fitness bits, cluster id, and
// full outcome, two-phase verdict flags included (always zero on simulated
// targets). Two campaigns agree on this iff their record sequences, and the
// target observations inside them, are identical; the benchmarks and the
// golden campaign tests compare it against committed values.
uint64_t DigestRecords(const SessionResult& result);

class ExplorationSession {
 public:
  // One runner per node; `nodes` must be non-empty. Each round issues one
  // candidate per node, runs node 0 on the calling thread and the others on
  // a pool of nodes - 1 workers, then scores the results in node order.
  // Round-batching keeps a campaign deterministic for a fixed node count
  // (at the cost of a barrier per round) and gives journal replay a
  // reproducible issue / report interleaving.
  ExplorationSession(Explorer& explorer, std::vector<Runner> nodes, SessionConfig config = {});

  // One-node forms. The backend one runs every candidate through
  // `backend.RunFault(space, fault)`; both must outlive the session.
  ExplorationSession(Explorer& explorer, Runner runner, SessionConfig config = {});
  ExplorationSession(Explorer& explorer, TargetBackend& backend, const FaultSpace& space,
                     SessionConfig config = {});

  // Runs rounds until the target is met or the space is exhausted; the last
  // round is clamped to the remaining test budget. Returns the accumulated
  // result (also available via result()).
  const SessionResult& Run(const SearchTarget& target);

  // Runs exactly one more round (one test per node); returns false once the
  // space is exhausted. Exposed so callers can interleave their own
  // bookkeeping (the figure benches sample the failure curve every
  // iteration this way).
  bool Step();

  // Rebuilds session state from one journaled record without executing it:
  // pulls the next candidate from the explorer and verifies it matches
  // `record.fault`. The journaled outcome is held until a whole round of
  // node_count() records has arrived, then the round is routed through the
  // normal scoring / clustering / feedback path, so the issue / report
  // interleaving is the one Run used. Impact and fitness are recomputed,
  // so a resumed session is bit-identical to the uninterrupted one.
  //
  // Candidates of a trailing partial round stay pending: they re-execute at
  // the head of the next round Run or Step runs (execution is
  // deterministic), and result().tests_executed counts only the records
  // consumed. With one node nothing is ever pending.
  //
  // Returns false when the explorer is exhausted or produces a different
  // candidate — i.e. the journal was not written by a session with this
  // explorer, seed, node count, and config. Does not fire the record
  // observer.
  bool Replay(const SessionRecord& record);

  const SessionResult& result() const { return result_; }
  const RedundancyClusterer& clusterer() const { return clusterer_; }
  size_t node_count() const { return nodes_.size(); }

 private:
  // Fills the round with up to `size` candidates (pending ones first),
  // executes them, and scores them in node order. Returns false once the
  // space is exhausted.
  bool RunRound(size_t size);
  // Runs round_[node] on node `node` into outcomes_[node].
  void Execute(size_t node);
  // Processes the round's outcomes in node order and empties the round.
  void ScoreRound(bool notify_observer);
  // The scoring pipeline every executed or replayed test runs through:
  // score the outcome, weigh fitness by relevance and redundancy, cluster,
  // report to the explorer, update the result counters, append the record,
  // and — for live executions only — fire the record observer and progress.
  void Process(const Fault& fault, TestOutcome outcome, bool notify_observer);

  Explorer* explorer_;
  std::vector<Runner> nodes_;
  SessionConfig config_;
  RedundancyClusterer clusterer_;
  SessionResult result_;
  // Distinct block ids across all records: each node's new_block_ids are
  // new only to that node's accumulator.
  std::unordered_set<uint32_t> covered_blocks_;
  // Round buffers, reused across rounds: the round's candidates (a replayed
  // partial round's stay pending here) and one outcome slot per node.
  std::vector<Fault> round_;
  std::vector<TestOutcome> outcomes_;
  // Workers for nodes 1..N-1; null with one node. Declared last so its
  // workers are joined before the buffers they write are destroyed.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace afex

#endif  // AFEX_CORE_SESSION_H_
