// Campaign telemetry substrate (paper §6.4 step 7: the node manager
// "provides progress metrics in a log"). This layer is the measurement side
// of that promise: a process-wide registry of counters, gauges, and
// log-bucketed latency histograms, plus the metric vocabulary and the RAII
// timer the per-test pipeline is instrumented with.
//
// Design constraints, in order:
//   * Off means off. Every instrumentation site is a `sink != nullptr`
//     check — one predicted branch when telemetry is disabled. The bench
//     guard in bench/perf_sim.cc holds this to record-digest equivalence.
//   * Hot-path writes never contend. Counters and histograms are sharded
//     across kShards cacheline-aligned shards; a thread picks its shard
//     from a thread-local slot, so `--jobs` workers touch disjoint
//     cachelines and synchronize only through relaxed atomics.
//   * One declared vocabulary. Every phase, counter and gauge is a row of
//     one of the three tables below; a metric that is not a row does not
//     compile. Shard storage is sized by the tables and never resizes, so
//     readers (Snapshot) race only against relaxed updates.
//
// Per-event paths are array indexing plus one relaxed atomic add.
// Snapshot() merges the shards into plain structs with derived quantiles —
// that is the only place bucket math turns into milliseconds.
#ifndef AFEX_OBS_METRICS_H_
#define AFEX_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace afex {
namespace obs {

// Monotonic nanoseconds since the first call in this process. All phase
// timestamps (histograms and trace events) share this epoch, so a Chrome
// trace lines up across threads.
uint64_t NowNs();

// Stable small integer for the calling thread (registration order across
// the process). Shard selection and trace-event tids both use it, so one
// thread's events stay on one trace track.
uint32_t ThreadSlot();

// The metric vocabulary: three tables with one row shape — enumerator,
// dotted metric/trace name, what it times or counts. The row order fixes
// the ids, which index the sinks' arrays, and the snapshot lists metrics in
// that order; adding a metric is one row.

// The instrumented pipeline phases; each feeds a latency histogram.
#define AFEX_OBS_PHASES(X)                                                                     \
  X(kExplorerNext, "explorer.next")               /* Explorer::NextCandidate */                \
  X(kBackendRun, "backend.run")                   /* TargetBackend::RunFault, whole call */    \
  X(kClusterObserve, "cluster.observe")           /* RedundancyClusterer::Observe */           \
  X(kJournalAppend, "journal.append")             /* journal: serialize + buffered write */    \
  X(kJournalFlush, "journal.flush")               /* journal: flush to the OS */               \
  X(kSimDecode, "sim.decode")                     /* sim backend: fault decode */              \
  X(kSimRun, "sim.run")                           /* sim: env setup + program execution */     \
  X(kSimFeedbackMerge, "sim.feedback_merge")      /* sim: outcome fill + coverage merge */     \
  X(kRealPlanWrite, "real.plan_write")            /* real spawn: sandbox + block reset */      \
  X(kRealForkExec, "real.fork_exec")              /* real: env + vfork until exec'd */         \
  X(kRealChildWait, "real.child_wait")            /* real: exec'd child until reaped */        \
  X(kRealFeedbackRead, "real.feedback_read")      /* real: block read + translation */         \
  X(kRealScratchCleanup, "real.scratch_cleanup")  /* real: per-run sandbox removal */          \
  X(kRealFsRoundtrip, "real.fs_roundtrip")        /* real: plan + request → status read */     \
  X(kRealFsRestart, "real.fs_restart")            /* real: server (re)spawn + handshake */     \
  X(kRealRecoveryRun, "real.recovery_run")        /* real: two-phase recovery command */       \
  X(kRealVerify, "real.verify")                   /* real: two-phase verifier command */       \
  X(kRealEdgeMerge, "real.edge_merge")            /* real: sancov edge translation */          \
  X(kRealNoopAnswer, "real.noop_answer")          /* real: no-op answered, no process */       \
  X(kRealStateDigest, "real.state_digest")        /* real: post-crash sandbox digest */

// Event counters. Every live real run lands in exactly one of the first six
// (the outcome partition) and in exactly one of the five read statuses
// feedback_ok..feedback_version; the rest count on top.
#define AFEX_OBS_COUNTERS(X)                                                                   \
  X(kRealStartFailed, "real.start_failed")             /* live run: process never started */   \
  X(kRealHang, "real.hang")                            /* live run: timed out */               \
  X(kRealCrashSignal, "real.crash_signal")             /* live run: crash signal */            \
  X(kRealSignalExit, "real.signal_exit")               /* live run: other fatal signal */      \
  X(kRealExitNonzero, "real.exit_nonzero")             /* live run: exit status != 0 */        \
  X(kRealExitClean, "real.exit_clean")                 /* live run: exit status 0 */           \
  X(kRealKillEscalated, "real.kill_escalated")         /* live run: ladder reached SIGKILL */  \
  X(kRealFeedbackOk, "real.feedback_ok")               /* block read back whole */             \
  X(kRealFeedbackMissing, "real.feedback_missing")     /* block unreadable */                  \
  X(kRealFeedbackShort, "real.feedback_short")         /* block truncated */                   \
  X(kRealFeedbackBadMagic, "real.feedback_bad_magic")  /* block header not ours */             \
  X(kRealFeedbackVersion, "real.feedback_version")     /* block of another version */          \
  X(kRealFeedbackStale, "real.feedback_stale")         /* ok block of an earlier test */       \
  X(kRealFeedbackRecreated, "real.feedback_recreated") /* file unlinked, made anew */          \
  X(kRealKindIncompatible, "real.kind_incompatible")   /* kind cannot apply, ran plain */      \
  X(kRealNoopVerified, "real.noop_verified")           /* no-op sample agreed */               \
  X(kRealNoopMismatch, "real.noop_mismatch")           /* no-op sample disagreed */            \
  X(kRealEdgesNew, "real.edges_new")                   /* edges first seen (sum) */            \
  X(kRealEdgesMissing, "real.edges_missing")           /* edge run with no counter region */   \
  X(kRealEdgeOverflow, "real.edge_overflow")           /* per-test edge list saturated */      \
  X(kRealRecoveryFailed, "real.recovery_failed")       /* recovery command failed */           \
  X(kRealInvariantViolated, "real.invariant_violated") /* verifier command failed */           \
  X(kRealRecycleLeak, "real.recycle_leak")             /* sandbox not empty after recycle */   \
  X(kRealStateAnswered, "real.state_answered")         /* recover/verify answered */           \
  X(kRealStateVerified, "real.state_verified")         /* crash-state sample agreed */         \
  X(kRealStateMismatch, "real.state_mismatch")         /* crash-state sample disagreed */      \
  X(kRealFsRestarts, "real.fs_restarts")               /* server respawns after the first */

// Last-writer-wins values.
#define AFEX_OBS_GAUGES(X) \
  X(kRealEdgesTotal, "real.edges_total")  /* distinct edges merged, resumed ones included */

#define AFEX_OBS_ID(id, name) id,
enum class Phase : uint8_t { AFEX_OBS_PHASES(AFEX_OBS_ID) };
enum class Counter : uint8_t { AFEX_OBS_COUNTERS(AFEX_OBS_ID) };
enum class Gauge : uint8_t { AFEX_OBS_GAUGES(AFEX_OBS_ID) };
#undef AFEX_OBS_ID

#define AFEX_OBS_NAME(id, name) name,
inline constexpr const char* kPhaseNames[] = {AFEX_OBS_PHASES(AFEX_OBS_NAME)};
inline constexpr const char* kCounterNames[] = {AFEX_OBS_COUNTERS(AFEX_OBS_NAME)};
inline constexpr const char* kGaugeNames[] = {AFEX_OBS_GAUGES(AFEX_OBS_NAME)};
#undef AFEX_OBS_NAME

inline constexpr size_t kPhaseCount = std::size(kPhaseNames);
inline constexpr size_t kCounterCount = std::size(kCounterNames);
inline constexpr size_t kGaugeCount = std::size(kGaugeNames);

// Dotted metric name of a row, e.g. "real.fork_exec".
inline const char* PhaseName(Phase phase) { return kPhaseNames[static_cast<size_t>(phase)]; }
inline const char* CounterName(Counter counter) {
  return kCounterNames[static_cast<size_t>(counter)];
}
inline const char* GaugeName(Gauge gauge) { return kGaugeNames[static_cast<size_t>(gauge)]; }

// ---- log-bucketed histogram math -------------------------------------------
//
// Buckets cover [0, 2^42) ns (~73 minutes) with 8 sub-buckets per
// power-of-two octave: values 0..7 are exact, larger values land in a
// bucket whose width is 1/8 of its magnitude, so any quantile read off the
// merged buckets carries at most ~12.5% relative error. Exposed as free
// functions so obs_test can check the boundaries directly.
inline constexpr uint32_t kHistogramSubBuckets = 8;  // per octave
inline constexpr uint32_t kHistogramMaxExponent = 42;
inline constexpr size_t kHistogramBuckets =
    kHistogramSubBuckets + (kHistogramMaxExponent - 3) * kHistogramSubBuckets;

size_t HistogramBucketIndex(uint64_t value);
// Smallest value mapping to `index`; the bucket spans up to
// HistogramBucketLowerBound(index + 1) - 1.
uint64_t HistogramBucketLowerBound(size_t index);

// ---- snapshot --------------------------------------------------------------

struct HistogramSummary {
  std::string name;
  uint64_t count = 0;
  uint64_t sum_ns = 0;
  uint64_t min_ns = 0;
  uint64_t max_ns = 0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p90_ns = 0.0;
  double p99_ns = 0.0;
};

// One point on the campaign's coverage-growth curve: after `tests`
// executed tests, `covered` distinct coverage blocks were known.
struct CoveragePoint {
  uint64_t tests = 0;
  uint64_t covered = 0;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;  // only those that counted
  std::vector<std::pair<std::string, double>> gauges;      // only those that were set
  std::vector<HistogramSummary> histograms;                // only those with samples
  // Coverage-growth curve, recorded by CampaignTelemetry whenever covered
  // grows (decimated to a bounded point count). Empty when the campaign
  // produced no coverage signal; omitted from the JSON then.
  std::vector<CoveragePoint> coverage_growth;

  // Pretty-printed JSON object {"counters": {...}, "gauges": {...},
  // "histograms": {...}[, "coverage_growth": [...]]} with `indent` leading
  // spaces on every line after the first (so it embeds into a larger
  // document); no trailing newline.
  void WriteJson(std::ostream& out, int indent = 0) const;
};

// ---- registry --------------------------------------------------------------

class MetricsRegistry {
 public:
  static constexpr size_t kShards = 16;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Hot-path updates: relaxed atomics on the calling thread's shard.
  void AddCounter(Counter counter, uint64_t delta = 1);
  void SetGauge(Gauge gauge, double value);
  void RecordLatencyNs(Phase phase, uint64_t ns);

  // Merges every shard into plain values, in table order: the counters that
  // counted, the gauges that were set, the phases with samples. Safe to call
  // concurrently with updates (the result is a consistent-enough live read:
  // each cell is atomically loaded, cross-cell skew is bounded by in-flight
  // updates).
  MetricsSnapshot Snapshot() const;

 private:
  struct Shard;

  Shard& ShardForThisThread();
  Shard* ShardAt(size_t index) const;

  std::array<std::atomic<Shard*>, kShards> shards_;
  // Gauges are last-writer-wins and written off the per-test fast path;
  // they live unsharded in the registry.
  std::array<std::atomic<double>, kGaugeCount> gauges_;
  std::array<std::atomic<bool>, kGaugeCount> gauge_set_;

  std::mutex shard_mutex_;  // guards shard allocation
};

// ---- sink + timer ----------------------------------------------------------

// Aggregate progress counters, fired once per live executed test from
// ExplorationSession (serially even with several nodes: a round's results
// are scored in node order on the calling thread).
struct ProgressUpdate {
  size_t tests_executed = 0;
  size_t failed_tests = 0;
  size_t crashes = 0;
  size_t hangs = 0;
  size_t clusters = 0;
  // Discovery facets (PR-9 two-phase outcomes + coverage): long real
  // campaigns are throughput-flat but discovery-active, and the progress
  // line should show the latter.
  size_t recovery_failures = 0;
  size_t invariant_violations = 0;
  size_t covered_blocks = 0;  // cumulative distinct coverage blocks
};

// What the instrumented layers talk to. The one concrete implementation is
// CampaignTelemetry (obs/telemetry.h); the indirection keeps core/ and
// campaign/ free of any dependency on the trace/progress machinery.
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  virtual void RecordPhase(Phase phase, uint64_t start_ns, uint64_t duration_ns) = 0;
  virtual void AddCounter(Counter counter, uint64_t delta) = 0;
  virtual void SetGauge(Gauge gauge, double value) = 0;
  virtual void OnTestExecuted(const ProgressUpdate& update) = 0;
};

// RAII phase timer. With a null sink, construction and destruction each
// cost one predicted-not-taken branch — the whole disabled-telemetry tax.
class PhaseTimer {
 public:
  PhaseTimer(MetricsSink* sink, Phase phase) : sink_(sink), phase_(phase) {
    if (sink_ != nullptr) {
      start_ = NowNs();
    }
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  ~PhaseTimer() { Finish(); }

  // Ends the phase early (idempotent; the destructor becomes a no-op).
  void Finish() {
    if (sink_ != nullptr) {
      sink_->RecordPhase(phase_, start_, NowNs() - start_);
      sink_ = nullptr;
    }
  }

 private:
  MetricsSink* sink_;
  Phase phase_;
  uint64_t start_ = 0;
};

}  // namespace obs
}  // namespace afex

#endif  // AFEX_OBS_METRICS_H_
