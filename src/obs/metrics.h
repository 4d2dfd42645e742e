// Campaign telemetry substrate (paper §6.4 step 7: the node manager
// "provides progress metrics in a log"). This layer is the measurement side
// of that promise: a process-wide registry of named counters, gauges, and
// log-bucketed latency histograms, plus the phase vocabulary and RAII timer
// the per-test pipeline is instrumented with.
//
// Design constraints, in order:
//   * Off means off. Every instrumentation site is a `sink != nullptr`
//     check — one predicted branch when telemetry is disabled. The bench
//     guard in bench/perf_sim.cc holds this to record-digest equivalence.
//   * Hot-path writes never contend. Counters and histograms are sharded
//     across kShards cacheline-aligned shards; a thread picks its shard
//     from a thread-local slot, so `--jobs` workers touch disjoint
//     cachelines and synchronize only through relaxed atomics.
//   * Fixed capacity. Metric registration is bounded (kMaxCounters, ...)
//     and shard storage never resizes, so readers (Snapshot) race only
//     against relaxed counter updates, never against reallocation.
//
// Registration returns a dense id; per-event paths are array indexing plus
// one relaxed atomic add. Snapshot() merges the shards into plain structs
// with derived quantiles — that is the only place bucket math turns into
// milliseconds.
#ifndef AFEX_OBS_METRICS_H_
#define AFEX_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
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

// The instrumented pipeline phases, one row each: enumerator, dotted
// metric/trace name, what it times. The row order fixes the ids, which index
// arrays in the sink implementations; adding a phase is one row.
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

enum class Phase : uint8_t {
#define AFEX_OBS_PHASE_ID(id, name) id,
  AFEX_OBS_PHASES(AFEX_OBS_PHASE_ID)
#undef AFEX_OBS_PHASE_ID
};
#define AFEX_OBS_PHASE_ONE(id, name) +1
inline constexpr size_t kPhaseCount = 0 AFEX_OBS_PHASES(AFEX_OBS_PHASE_ONE);
#undef AFEX_OBS_PHASE_ONE

// Dotted metric name for a phase, e.g. "real.fork_exec".
const char* PhaseName(Phase phase);

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
  std::vector<std::pair<std::string, uint64_t>> counters;  // registration order
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSummary> histograms;  // only those with samples
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
  static constexpr size_t kMaxCounters = 64;
  static constexpr size_t kMaxGauges = 32;
  static constexpr size_t kMaxHistograms = 32;
  static constexpr uint32_t kInvalidMetric = UINT32_MAX;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration is mutex-guarded and idempotent per name; do it at setup
  // time, not per event. Returns kInvalidMetric when the fixed capacity is
  // exhausted (updates against it are dropped, never UB).
  uint32_t RegisterCounter(std::string_view name);
  uint32_t RegisterGauge(std::string_view name);
  uint32_t RegisterHistogram(std::string_view name);

  // Hot-path updates: relaxed atomics on the calling thread's shard.
  void AddCounter(uint32_t id, uint64_t delta = 1);
  void SetGauge(uint32_t id, double value);
  void RecordLatencyNs(uint32_t id, uint64_t ns);

  // Merges every shard into plain values. Safe to call concurrently with
  // updates (the result is a consistent-enough live read: each cell is
  // atomically loaded, cross-cell skew is bounded by in-flight updates).
  MetricsSnapshot Snapshot() const;

 private:
  struct Shard;

  Shard& ShardForThisThread();
  Shard* ShardAt(size_t index) const;

  std::array<std::atomic<Shard*>, kShards> shards_;
  // Gauges are last-writer-wins and written off the per-test fast path;
  // they live unsharded in the registry.
  std::array<std::atomic<double>, kMaxGauges> gauges_;
  std::array<std::atomic<bool>, kMaxGauges> gauge_set_;

  mutable std::mutex names_mutex_;  // guards registration + shard allocation
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
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
  virtual void AddCounter(std::string_view name, uint64_t delta) = 0;
  virtual void SetGauge(std::string_view name, double value) = 0;
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
