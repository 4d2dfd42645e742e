// campaign_bench: the measuring process of the repo benchmark (see
// benchmark/README.md). One invocation runs one workload — a fixed number
// of independent seeded campaigns, serially, in this one process — and
// prints one JSON line with every campaign's digest and timings plus the
// run's per-layer totals. benchmark/run.py builds this binary, pins it to
// one CPU, gives it an in-memory sandbox directory, checks the digests
// against benchmark/golden.json, and reduces the line to the benchmark's
// metrics.
//
// Layers are measured from the outside only: a decorator around the
// Explorer, a decorator around TargetBackend::RunFault, a record observer
// around CampaignStore::Append, and timers around CampaignStore::Open,
// ExplorationSession::Replay/Step, analysis::AnalyzeTargetBinary, and
// getrusage. Untraced campaigns run with no decorator at all.
//
// Usage: campaign_bench --workload=NAME --seed=N --seconds=S --trace=0|1
//                       --work-dir=DIR [--trace-dir=DIR]
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/target_profile.h"
#include "campaign/store.h"
#include "core/fitness_explorer.h"
#include "core/session.h"
#include "core/space_lang.h"
#include "exec/forkserver.h"
#include "exec/real_target_harness.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "targets/docstore/suite.h"
#include "targets/harness.h"

namespace afex {
namespace bench {
namespace {

namespace fs = std::filesystem;

// ---- spans -----------------------------------------------------------------

// Layer boundaries that get one span per test. kStep and kReplay are the
// per-test parents; the others nest inside them under the same id.
enum Layer : uint8_t {
  kStep = 0,
  kReplay,
  kExplorerNext,
  kExplorerReport,
  kBackendRun,
  kJournalAppend,
  kLayerCount,
};

// 16 bytes: start relative to the run origin, duration, and the test id
// (the run-global test index) with the layer in the low byte.
struct Span {
  uint64_t start_ns;
  uint32_t dur_ns;
  uint32_t id_layer;
};
static_assert(sizeof(Span) == 16);

class SpanLog {
 public:
  SpanLog() : origin_(obs::NowNs()) {}

  // Starts a new test id; the next spans belong to it.
  void NextTest() { ++test_id_; }

  // Durations saturate at UINT32_MAX ns (4.29 s), so a hung test's span
  // reads as 4.29 s instead of wrapping.
  void Add(Layer layer, uint64_t start_ns, uint64_t end_ns) {
    const uint64_t dur = std::min<uint64_t>(end_ns - start_ns, UINT32_MAX);
    spans_.push_back(
        Span{start_ns - origin_, static_cast<uint32_t>(dur), (test_id_ << 8) | layer});
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t origin_;
  uint32_t test_id_ = 0;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(SpanLog* log, Layer layer) : log_(log), layer_(layer) {
    if (log_ != nullptr) {
      start_ = obs::NowNs();
    }
  }
  ~SpanScope() {
    if (log_ != nullptr) {
      log_->Add(layer_, start_, obs::NowNs());
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  Layer layer_;
  uint64_t start_ = 0;
};

// ---- decorators ------------------------------------------------------------

class TimedExplorer : public Explorer {
 public:
  TimedExplorer(Explorer& inner, SpanLog& log) : inner_(inner), log_(log) {}
  const FaultSpace& space() const override { return inner_.space(); }
  std::optional<Fault> NextCandidate() override {
    SpanScope span(&log_, kExplorerNext);
    return inner_.NextCandidate();
  }
  void ReportResult(const Fault& fault, double fitness) override {
    SpanScope span(&log_, kExplorerReport);
    inner_.ReportResult(fault, fitness);
  }
  size_t issued_count() const override { return inner_.issued_count(); }

 private:
  Explorer& inner_;
  SpanLog& log_;
};

class TimedBackend : public TargetBackend {
 public:
  TimedBackend(TargetBackend& inner, SpanLog& log) : inner_(inner), log_(log) {}
  TestOutcome RunFault(const FaultSpace& space, const Fault& fault) override {
    SpanScope span(&log_, kBackendRun);
    return inner_.RunFault(space, fault);
  }
  void SeedCoverage(const std::vector<uint32_t>& blocks) override {
    inner_.SeedCoverage(blocks);
  }
  uint32_t coverage_total_blocks() const override { return inner_.coverage_total_blocks(); }
  uint32_t coverage_recovery_base() const override { return inner_.coverage_recovery_base(); }
  double CoverageFraction() const override { return inner_.CoverageFraction(); }
  double RecoveryCoverageFraction() const override { return inner_.RecoveryCoverageFraction(); }
  size_t tests_run() const override { return inner_.tests_run(); }
  size_t total_sim_steps() const override { return inner_.total_sim_steps(); }
  void set_metrics_sink(obs::MetricsSink* sink) override { inner_.set_metrics_sink(sink); }

 private:
  TargetBackend& inner_;
  SpanLog& log_;
};

// What a session talks to: the explorer and backend themselves, or their
// span-recording decorators in a traced campaign.
class Wiring {
 public:
  Wiring(Explorer& explorer, TargetBackend& backend, SpanLog* log)
      : explorer(&explorer), backend(&backend) {
    if (log != nullptr) {
      this->explorer = &timed_explorer_.emplace(explorer, *log);
      this->backend = &timed_backend_.emplace(backend, *log);
    }
  }
  Wiring(const Wiring&) = delete;
  Wiring& operator=(const Wiring&) = delete;

  Explorer* explorer;
  TargetBackend* backend;

 private:
  std::optional<TimedExplorer> timed_explorer_;
  std::optional<TimedBackend> timed_backend_;
};

// ---- digest ----------------------------------------------------------------

// FNV-1a over every record's fault indices, fitness bits, cluster id, and
// full outcome: the record digest scheme of bench/perf_real and perf_sim,
// plus the two-phase facets (recovery_failed, invariant_violated).
uint64_t DigestRecords(const std::vector<SessionRecord>& records) {
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
    h = (h ^ 0xff) * 0x100000001b3ULL;
  };
  for (const SessionRecord& r : records) {
    for (size_t i = 0; i < r.fault.dimensions(); ++i) {
      mix(r.fault[i]);
    }
    uint64_t fitness_bits;
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

// ---- planted bugs ----------------------------------------------------------

// A workload's planted bugs: a record confirms bug i when matches[i] says so.
// time_to_bugs is the live wall time until every bug has been confirmed.
struct BugSet {
  std::vector<std::function<bool(const TestOutcome&)>> matches;
};

bool DetailHas(const TestOutcome& o, const char* text) {
  return o.detail.find(text) != std::string::npos;
}

BugSet DocstoreBugs() {
  // docstore v2.0's unchecked journal-index allocation crash.
  return {{[](const TestOutcome& o) { return o.crashed; }}};
}

BugSet WalutilBugs() {
  // catalog parse SIGSEGV and post-commit replay SIGABRT.
  return {{[](const TestOutcome& o) { return o.crashed && DetailHas(o, "Segmentation"); },
           [](const TestOutcome& o) { return o.crashed && DetailHas(o, "Aborted"); }}};
}

BugSet TxengineBugs() {
  // The three signatures recovery_smoke_test greps, each confirmed by the
  // verifier that flagged it.
  return {{[](const TestOutcome& o) {
             return o.invariant_violated && DetailHas(o, "lost committed txn");
           },
           [](const TestOutcome& o) {
             return o.invariant_violated && DetailHas(o, "txengine-verify: torn page");
           },
           [](const TestOutcome& o) {
             return o.invariant_violated && DetailHas(o, "diverges");
           }}};
}

class BugTracker {
 public:
  explicit BugTracker(BugSet bugs) : bugs_(std::move(bugs)), found_(bugs_.matches.size()) {}

  // Marks the bugs `outcome` confirms; true when this record completed the set.
  bool Observe(const TestOutcome& outcome) {
    if (all_found()) {
      return false;
    }
    for (size_t i = 0; i < found_.size(); ++i) {
      if (!found_[i] && bugs_.matches[i](outcome)) {
        found_[i] = true;
        ++found_count_;
      }
    }
    return all_found();
  }
  bool all_found() const { return found_count_ == found_.size(); }

 private:
  BugSet bugs_;
  std::vector<bool> found_;
  size_t found_count_ = 0;
};

// ---- per-campaign and per-run accounting -----------------------------------

struct CampaignResult {
  uint64_t seed = 0;
  bool traced = false;
  bool panel = false;
  uint64_t digest = 0;
  bool resume_matches = true;  // sim-docstore-resume: resumed == uninterrupted
  size_t tests = 0;            // live tests executed
  double live_s = 0.0;         // wall time of live campaign work
  double setup_s = 0.0;        // wall time before the first test (all legs)
  double time_to_bugs_s = -1.0;  // < 0: not every planted bug was confirmed
  size_t unique_failures = 0;
  size_t failed_ops = 0;  // tests AFEX could not run or observe
};

struct LayerTotals {
  double open_s = 0.0;
  double replay_loop_s = 0.0;
  size_t replayed = 0;
  double analysis_s = 0.0;
  double afex_cpu_s = 0.0;
  double target_cpu_s = 0.0;
  uint64_t forkserver_restarts = 0;
  size_t timeouts = 0;
  size_t start_errors = 0;
  size_t triggered = 0;
  size_t tests = 0;
  uint64_t journal_bytes = 0;
  size_t journal_records = 0;
  uint64_t sim_steps = 0;
};

double Seconds(std::chrono::steady_clock::time_point a, std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double CpuSeconds(int who) {
  struct rusage ru {};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// Failed operations per the benchmark's definition: a start error or a
// harness timeout. Crashes, failed checks, recfail and inv are findings.
size_t CountFailedOps(const std::vector<SessionRecord>& records, size_t from,
                      LayerTotals* totals) {
  size_t failed = 0;
  for (size_t i = from; i < records.size(); ++i) {
    const TestOutcome& o = records[i].outcome;
    const bool start_error = o.detail.rfind("exec:", 0) == 0;
    if (totals != nullptr) {
      totals->start_errors += start_error ? 1 : 0;
      totals->timeouts += o.hung ? 1 : 0;
      totals->triggered += o.fault_triggered ? 1 : 0;
    }
    failed += (start_error || o.hung) ? 1 : 0;
  }
  return failed;
}

// Finalizes the session's cluster counts without running another test.
const SessionResult& Finish(ExplorationSession& session) {
  return session.Run(SearchTarget{.max_tests = session.result().tests_executed});
}

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  uint64_t size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

// Runs session steps until `budget` tests or until the bug set completes
// (`stop_on_bugs`), recording the campaign-relative time of completion.
void StepLoop(ExplorationSession& session, size_t budget, SpanLog* log, bool stop_on_bugs,
              BugTracker& bugs, double elapsed_before, double& time_to_bugs,
              std::chrono::steady_clock::time_point started) {
  while (session.result().tests_executed < budget) {
    if (log != nullptr) {
      log->NextTest();
    }
    bool more;
    {
      SpanScope span(log, kStep);
      more = session.Step();
    }
    if (!more) {
      break;
    }
    if (bugs.Observe(session.result().records.back().outcome)) {
      time_to_bugs = elapsed_before + Seconds(started, std::chrono::steady_clock::now());
      if (stop_on_bugs) {
        break;
      }
    }
  }
}

SessionConfig MakeSessionConfig(bool feedback, CampaignStore* store, SpanLog* log) {
  SessionConfig config;
  config.redundancy_feedback = feedback;
  if (store != nullptr) {
    config.record_observer = [store, log](const SessionRecord& record) {
      SpanScope span(log, kJournalAppend);
      store->Append(record);
    };
  }
  return config;
}

// ---- workloads -------------------------------------------------------------

struct Paths {
  std::string work_dir;
  std::string interposer = AFEX_BENCH_INTERPOSER;
  std::string walutil = AFEX_BENCH_WALUTIL;
  std::string txengine = AFEX_BENCH_TXENGINE;
};

// sim-docstore-resume: an interrupted user's campaign. Leg 1 journals the
// first half; leg 2 re-opens the journal, replays it, re-seeds coverage,
// and runs the second half. An uninterrupted campaign on the same seed
// must produce the same record digest. It runs (untimed) the first time a
// seed comes up in the run; `reference_digests` keeps its digest for the
// seed's later campaigns.
constexpr size_t kSimBudget = 4000;

CampaignResult RunSimResume(uint64_t seed, const Paths& paths, SpanLog* log,
                            LayerTotals& totals,
                            std::map<uint64_t, uint64_t>& reference_digests) {
  using Clock = std::chrono::steady_clock;
  CampaignResult c;
  c.seed = seed;
  const std::string journal = paths.work_dir + "/sim-" + std::to_string(seed) + ".afexj";
  fs::remove(journal);
  BugTracker bugs(DocstoreBugs());
  double leg1_live = 0.0;
  auto make_meta = [seed](const FaultSpace& space) {
    CampaignMeta meta;
    meta.target = "docstore-v2.0";
    meta.strategy = "fitness";
    meta.seed = seed;
    meta.space_fingerprint = FaultSpaceFingerprint(space);
    meta.feedback = true;
    return meta;
  };
  FitnessExplorerConfig explorer_config;
  explorer_config.seed = seed;
  {
    // Leg 1: fresh campaign, journaled.
    auto t0 = Clock::now();
    TargetHarness harness(docstore::MakeSuiteV20(), seed ^ 0x5eed);
    FaultSpace space = harness.MakeSpace(/*max_call=*/10);
    FitnessExplorer explorer(space, explorer_config);
    CampaignStore store = CampaignStore::Create(journal, make_meta(space));
    Wiring wiring(explorer, harness, log);
    ExplorationSession session(*wiring.explorer, *wiring.backend, space,
                               MakeSessionConfig(true, &store, log));
    auto t1 = Clock::now();
    StepLoop(session, kSimBudget / 2, log, false, bugs, 0.0, c.time_to_bugs_s, t1);
    auto t2 = Clock::now();
    c.setup_s += Seconds(t0, t1);
    leg1_live = Seconds(t1, t2);
    c.tests += session.result().tests_executed;
    CountFailedOps(session.result().records, 0, log != nullptr ? &totals : nullptr);
    if (log != nullptr) {
      totals.sim_steps += harness.total_sim_steps();
    }
  }
  {
    // Leg 2: a new process's view — fresh harness, space and explorer.
    auto t0 = Clock::now();
    TargetHarness harness(docstore::MakeSuiteV20(), seed ^ 0x5eed);
    FaultSpace space = harness.MakeSpace(/*max_call=*/10);
    FitnessExplorer explorer(space, explorer_config);
    auto open_start = Clock::now();
    CampaignStore store = CampaignStore::Open(journal, make_meta(space));
    auto open_end = Clock::now();
    Wiring wiring(explorer, harness, log);
    ExplorationSession session(*wiring.explorer, *wiring.backend, space,
                               MakeSessionConfig(true, &store, log));
    for (const SessionRecord& record : store.records()) {
      if (log != nullptr) {
        log->NextTest();
      }
      SpanScope span(log, kReplay);
      if (!session.Replay(record)) {
        c.resume_matches = false;
        break;
      }
    }
    auto replay_end = Clock::now();
    const size_t replayed = session.result().tests_executed;
    store.CommitResume(replayed);
    wiring.backend->SeedCoverage(store.CoverageIdsForNode(0));
    for (size_t i = 0; i < replayed; ++i) {
      bugs.Observe(session.result().records[i].outcome);
    }
    auto t1 = Clock::now();
    StepLoop(session, kSimBudget, log, false, bugs, leg1_live, c.time_to_bugs_s, t1);
    auto t2 = Clock::now();
    c.setup_s += Seconds(t0, t1);
    c.live_s = leg1_live + Seconds(t1, t2);
    const SessionResult& result = Finish(session);
    c.tests += result.tests_executed - replayed;
    c.unique_failures = result.unique_failures;
    c.digest = DigestRecords(result.records);
    c.failed_ops = CountFailedOps(result.records, replayed, log != nullptr ? &totals : nullptr);
    if (log != nullptr) {
      totals.sim_steps += harness.total_sim_steps();
      totals.open_s += Seconds(open_start, open_end);
      totals.replay_loop_s += Seconds(open_end, replay_end);
      totals.replayed += replayed;
      totals.tests += c.tests;
      totals.journal_bytes += FileSize(journal);
      totals.journal_records += result.records.size();
    }
  }
  fs::remove(journal);
  if (reference_digests.count(seed) == 0) {
    // The uninterrupted reference campaign (untimed, untraced).
    TargetHarness harness(docstore::MakeSuiteV20(), seed ^ 0x5eed);
    FaultSpace space = harness.MakeSpace(/*max_call=*/10);
    FitnessExplorer explorer(space, explorer_config);
    ExplorationSession session(explorer, harness, space,
                               MakeSessionConfig(true, nullptr, nullptr));
    const SessionResult& result = session.Run(SearchTarget{.max_tests = kSimBudget});
    reference_digests[seed] = DigestRecords(result.records);
  }
  if (reference_digests[seed] != c.digest) {
    c.resume_matches = false;
  }
  if (!c.resume_matches) {
    c.failed_ops = c.tests;
  }
  return c;
}

// Real-backend campaign shared by both real workloads: static analysis,
// harness, space and explorer construction count as set-up (a lazy
// forkserver start lands in the first test); `journaled` adds a flushed
// append per record.
struct RealCampaignSpec {
  exec::RealTargetConfig config;
  std::string binary;
  std::string space_text;  // space DSL; empty = MakeSpace(max_call)
  size_t max_call = 6;
  size_t budget = 0;
  bool stop_on_bugs = false;
  bool journaled = false;
  BugSet bugs;
};

CampaignResult RunRealCampaign(uint64_t seed, const RealCampaignSpec& spec, const Paths& paths,
                               SpanLog* log, obs::MetricsSink* telemetry,
                               LayerTotals& totals) {
  using Clock = std::chrono::steady_clock;
  CampaignResult c;
  c.seed = seed;
  BugTracker bugs(spec.bugs);
  const std::string journal = paths.work_dir + "/real-" + std::to_string(seed) + ".afexj";
  fs::remove(journal);
  const double children_before = CpuSeconds(RUSAGE_CHILDREN);
  double self_cpu = 0.0;
  {
    auto t0 = Clock::now();
    std::string error;
    auto analysis_start = Clock::now();
    std::optional<analysis::TargetProfile> profile =
        analysis::AnalyzeTargetBinary(spec.binary, error);
    auto analysis_end = Clock::now();
    exec::RealTargetHarness harness(spec.config);
    FaultSpace space;
    if (spec.space_text.empty()) {
      space = harness.MakeSpace(spec.max_call);
    } else {
      space = BuildFaultSpace(ParseFaultSpaceDescription(spec.space_text).spaces.at(0), "real");
    }
    FitnessExplorerConfig explorer_config;
    explorer_config.seed = seed;
    FitnessExplorer explorer(space, explorer_config);
    std::optional<CampaignStore> store;
    if (spec.journaled) {
      CampaignMeta meta;
      meta.target = "real:" + spec.binary;
      meta.strategy = "fitness";
      meta.seed = seed;
      meta.space_fingerprint = FaultSpaceFingerprint(space);
      meta.feedback = false;  // the CLI default: no --feedback
      if (profile.has_value()) {
        meta.analysis_fingerprint = analysis::TargetProfileFingerprint(*profile);
      }
      store.emplace(CampaignStore::Create(journal, meta));
    }
    Wiring wiring(explorer, harness, log);
    if (log != nullptr) {
      harness.set_metrics_sink(telemetry);
    }
    ExplorationSession session(*wiring.explorer, *wiring.backend, space,
                               MakeSessionConfig(/*feedback=*/false,
                                                 store.has_value() ? &*store : nullptr, log));
    auto t1 = Clock::now();
    const double self_before = CpuSeconds(RUSAGE_SELF);
    StepLoop(session, spec.budget, log, spec.stop_on_bugs, bugs, 0.0, c.time_to_bugs_s, t1);
    auto t2 = Clock::now();
    self_cpu = CpuSeconds(RUSAGE_SELF) - self_before;
    c.setup_s = Seconds(t0, t1);
    c.live_s = Seconds(t1, t2);
    const SessionResult& result = Finish(session);
    c.tests = result.tests_executed;
    c.unique_failures = result.unique_failures;
    c.digest = DigestRecords(result.records);
    c.failed_ops = CountFailedOps(result.records, 0, log != nullptr ? &totals : nullptr);
    if (log != nullptr) {
      totals.analysis_s += Seconds(analysis_start, analysis_end);
      totals.tests += c.tests;
      totals.forkserver_restarts +=
          harness.forkserver() != nullptr ? harness.forkserver()->restarts() : 0;
      if (store.has_value()) {
        totals.journal_bytes += FileSize(journal);
        totals.journal_records += result.records.size();
      }
    }
  }  // harness destroyed: the forkserver is reaped and counted as a child
  if (log != nullptr) {
    totals.afex_cpu_s += self_cpu;
    totals.target_cpu_s += CpuSeconds(RUSAGE_CHILDREN) - children_before;
  }
  fs::remove(journal);
  return c;
}

// The storage-failure space of tests/recovery_smoke_test.cmake.
constexpr const char* kTxStorageSpace =
    "txstorage\n"
    "test : [1,1]\n"
    "function : { write, fsync, rename }\n"
    "call : [1,40]\n"
    "retval : [20,20]\n"
    "mode : { kill_at, short_write, drop_sync, crash_after_rename }\n"
    ";\n";

RealCampaignSpec WalutilSpec(const Paths& paths) {
  RealCampaignSpec spec;
  spec.binary = paths.walutil;
  spec.config.target_argv = {paths.walutil, "{test}"};
  spec.config.num_tests = 6;
  spec.config.interposer_path = paths.interposer;
  spec.config.work_root = paths.work_dir;
  spec.config.exec_mode = exec::ExecMode::kPersistent;
  spec.max_call = 6;
  spec.budget = 468;  // half of the 936-point default space
  spec.bugs = WalutilBugs();
  return spec;
}

RealCampaignSpec TxengineSpec(const Paths& paths) {
  RealCampaignSpec spec;
  spec.binary = paths.txengine;
  spec.config.target_argv = {paths.txengine, "workload", "{test}"};
  spec.config.recovery_argv = {paths.txengine, "recover"};
  spec.config.verify_argv = {paths.txengine, "verify"};
  spec.config.num_tests = 1;
  spec.config.interposer_path = paths.interposer;
  spec.config.work_root = paths.work_dir;
  spec.config.timeout_ms = 10000;
  spec.config.exec_mode = exec::ExecMode::kSpawn;
  spec.space_text = kTxStorageSpace;
  spec.budget = 240;
  spec.stop_on_bugs = true;
  spec.journaled = true;
  spec.bugs = TxengineBugs();
  return spec;
}

// ---- per-layer reduction ---------------------------------------------------

struct LayerSums {
  double total_s[kLayerCount] = {};
  size_t count[kLayerCount] = {};
  double step_self_s = 0.0;
  std::vector<uint32_t> backend_ns;
};

// Self time per layer from the spans: a Step's self time is its duration
// minus the child spans that carry its id.
LayerSums ReduceSpans(const std::vector<Span>& spans) {
  LayerSums sums;
  uint32_t current_id = UINT32_MAX;
  bool current_is_step = false;
  double children_s = 0.0;
  double parent_s = 0.0;
  auto close = [&] {
    if (current_is_step) {
      sums.step_self_s += parent_s - children_s;
    }
  };
  for (const Span& span : spans) {
    const uint32_t id = span.id_layer >> 8;
    const auto layer = static_cast<Layer>(span.id_layer & 0xff);
    const double s = span.dur_ns / 1e9;
    if (id != current_id) {
      close();
      current_id = id;
      current_is_step = false;
      children_s = 0.0;
      parent_s = 0.0;
    }
    sums.total_s[layer] += s;
    ++sums.count[layer];
    if (layer == kStep || layer == kReplay) {
      // Parents close after their children, so they come last per id.
      current_is_step = layer == kStep;
      parent_s = s;
    } else {
      children_s += s;
    }
    if (layer == kBackendRun) {
      sums.backend_ns.push_back(span.dur_ns);
    }
  }
  close();
  return sums;
}

double Quantile(std::vector<uint32_t> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::binary);
  const char header[16] = "AFEXSPANS1";
  out.write(header, sizeof(header));
  out.write(reinterpret_cast<const char*>(spans.data()),
            static_cast<std::streamsize>(spans.size() * sizeof(Span)));
  return static_cast<bool>(out);
}

// ---- output ----------------------------------------------------------------

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string FsType(const std::string& dir) {
  struct statfs st {};
  if (::statfs(dir.c_str(), &st) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext4";
    default:
      return "fs-magic-" + Hex(static_cast<uint64_t>(st.f_type));
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args& args, Paths& paths) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return false;
    }
    std::string key = arg.substr(2, eq - 2);
    std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      args.workload = value;
    } else if (key == "seed") {
      args.seed = std::stoull(value);
    } else if (key == "seconds") {
      args.seconds = std::stod(value);
    } else if (key == "trace") {
      args.trace = value == "1";
    } else if (key == "work-dir") {
      paths.work_dir = value;
    } else if (key == "trace-dir") {
      args.trace_dir = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && !paths.work_dir.empty() && args.seconds > 0.0;
}

// Campaigns per run: fixed work, sized from --seconds so that a run lasts
// about that long on the reference host. Two of every three campaigns form
// the workload's reference panel: campaign seeds 1 to kPanelSeeds, cycled,
// the same in every run, so search-luck metrics compare across runs and
// each panel seed is timed several times per run. The third comes from
// --seed (seeds 1000 * seed + i). README "Campaign seeds".
constexpr uint64_t kPanelSeeds = 10;

struct PlannedCampaign {
  uint64_t seed;
  bool panel;
};

std::vector<PlannedCampaign> MakePlan(const Args& args) {
  const double per_second = args.workload == "sim-docstore-resume"       ? 16.0
                            : args.workload == "real-walutil-persistent" ? 14.0
                                                                         : 0.6;
  const size_t n = std::clamp<size_t>(
      static_cast<size_t>(std::lround(args.seconds * per_second)), 3, 999);
  std::vector<PlannedCampaign> plan;
  uint64_t panel_count = 0;
  uint64_t next_seeded = args.seed * 1000;
  for (size_t i = 0; i < n; ++i) {
    const bool panel = i % 3 != 2;
    plan.push_back({panel ? panel_count++ % kPanelSeeds + 1 : next_seeded++, panel});
  }
  return plan;
}

int Main(int argc, char** argv) {
  Args args;
  Paths paths;
  if (!ParseArgs(argc, argv, args, paths)) {
    std::fprintf(stderr,
                 "usage: campaign_bench --workload=NAME --seed=N --seconds=S --trace=0|1 "
                 "--work-dir=DIR [--trace-dir=DIR]\n");
    return 2;
  }
  const bool sim = args.workload == "sim-docstore-resume";
  std::optional<RealCampaignSpec> real_spec;
  if (args.workload == "real-walutil-persistent") {
    real_spec = WalutilSpec(paths);
  } else if (args.workload == "real-txengine-recovery") {
    real_spec = TxengineSpec(paths);
  } else if (!sim) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  fs::create_directories(paths.work_dir);

  const std::vector<PlannedCampaign> plan = MakePlan(args);
  SpanLog log;
  obs::CampaignTelemetry telemetry;
  LayerTotals totals;
  std::vector<CampaignResult> campaigns;
  std::map<uint64_t, uint64_t> reference_digests;
  for (size_t i = 0; i < plan.size(); ++i) {
    // Traced runs alternate untraced and traced campaigns, so the trace's
    // own overhead is measured in the same run.
    SpanLog* span_log = args.trace && i % 2 == 1 ? &log : nullptr;
    CampaignResult c = sim ? RunSimResume(plan[i].seed, paths, span_log, totals,
                                          reference_digests)
                           : RunRealCampaign(plan[i].seed, *real_spec, paths, span_log,
                                             &telemetry, totals);
    c.traced = span_log != nullptr;
    c.panel = plan[i].panel;
    campaigns.push_back(c);
  }
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::ostringstream out;
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"peak_rss_mb\": " << Num(peak_rss_mb)
      << ", \"sandbox_fs\": \"" << FsType(paths.work_dir) << "\", \"campaigns\": [";
  for (size_t i = 0; i < campaigns.size(); ++i) {
    const CampaignResult& c = campaigns[i];
    out << (i ? ", " : "") << "{\"seed\": " << c.seed << ", \"panel\": " << c.panel
        << ", \"traced\": " << c.traced
        << ", \"digest\": \"" << Hex(c.digest) << "\", \"resume_matches\": "
        << (c.resume_matches ? "true" : "false") << ", \"tests\": " << c.tests
        << ", \"live_s\": " << Num(c.live_s) << ", \"setup_s\": " << Num(c.setup_s)
        << ", \"time_to_bugs_s\": " << Num(c.time_to_bugs_s)
        << ", \"unique_failures\": " << c.unique_failures << ", \"failed_ops\": " << c.failed_ops
        << "}";
  }
  out << "]";
  if (args.trace) {
    const LayerSums sums = ReduceSpans(log.spans());
    if (!args.trace_dir.empty()) {
      fs::create_directories(args.trace_dir);
      WriteSpans(args.trace_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) +
                     ".spans",
                 log.spans());
    }
    const double backend_s = sums.total_s[kBackendRun];
    std::map<std::string, double> layer;
    layer["core.session.step_s"] = sums.total_s[kStep];
    layer["core.session.other_s"] = sums.step_self_s;
    layer["core.explorer.next_s"] = sums.total_s[kExplorerNext];
    layer["core.explorer.report_s"] = sums.total_s[kExplorerReport];
    layer["core.explorer.calls"] =
        static_cast<double>(sums.count[kExplorerNext] + sums.count[kExplorerReport]);
    layer["core.trigger_share"] =
        totals.tests ? static_cast<double>(totals.triggered) / totals.tests : 0.0;
    layer["sim.run_s"] = sim ? backend_s : 0.0;
    layer["sim.steps_per_s"] =
        sim && backend_s > 0 ? static_cast<double>(totals.sim_steps) / backend_s : 0.0;
    layer["exec.run_s"] = sim ? 0.0 : backend_s;
    layer["exec.run_p50_ms"] = sim ? 0.0 : Quantile(sums.backend_ns, 0.50) / 1e6;
    layer["exec.run_p99_ms"] = sim ? 0.0 : Quantile(sums.backend_ns, 0.99) / 1e6;
    layer["exec.run_samples"] = sim ? 0.0 : static_cast<double>(sums.backend_ns.size());
    layer["exec.afex_cpu_s"] = totals.afex_cpu_s;
    layer["exec.target_cpu_s"] = totals.target_cpu_s;
    layer["exec.forkserver_restarts"] = static_cast<double>(totals.forkserver_restarts);
    layer["exec.timeouts"] = static_cast<double>(totals.timeouts);
    layer["exec.start_errors"] = static_cast<double>(totals.start_errors);
    layer["campaign.append_s"] = sums.total_s[kJournalAppend];
    layer["campaign.append_calls"] = static_cast<double>(sums.count[kJournalAppend]);
    layer["campaign.bytes_per_record"] =
        totals.journal_records ? static_cast<double>(totals.journal_bytes) /
                                     static_cast<double>(totals.journal_records)
                               : 0.0;
    layer["campaign.open_s"] = totals.open_s;
    layer["campaign.replay_s"] = totals.replay_loop_s;
    layer["campaign.replay_records_per_s"] =
        totals.replay_loop_s > 0 ? static_cast<double>(totals.replayed) / totals.replay_loop_s
                                 : 0.0;
    layer["analysis.profile_s"] = totals.analysis_s;
    // Backend-internal real.* sub-phases from the telemetry sink. They
    // overlap (fs_restart runs inside fs_roundtrip): a drill-down, never
    // a partition.
    static const char* kPhases[] = {"plan_write",      "fork_exec",    "child_wait",
                                    "feedback_read",   "scratch_cleanup", "fs_roundtrip",
                                    "fs_restart",      "recovery_run", "verify"};
    obs::MetricsSnapshot snapshot = telemetry.Snapshot();
    for (const char* phase : kPhases) {
      double s = 0.0;
      for (const obs::HistogramSummary& h : snapshot.histograms) {
        if (h.name == std::string("real.") + phase) {
          s = static_cast<double>(h.sum_ns) / 1e9;
        }
      }
      layer[std::string("exec.phase.") + phase + "_s"] = s;
    }
    out << ", \"layers\": {";
    bool first = true;
    for (const auto& [name, value] : layer) {
      out << (first ? "" : ", ") << "\"" << name << "\": " << Num(value);
      first = false;
    }
    out << "}";
  }
  out << "}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace afex

int main(int argc, char** argv) {
  try {
    return afex::bench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
}
