// Feedback-path throughput benchmark: times whole fitness campaigns with
// redundancy feedback enabled, serial and cluster-mode (--jobs), across the
// four simulated targets, in two modes per configuration:
//
//   baseline  — the retained reference algorithms (naive unpruned
//               clustering sweeps, per-attempt weight rebuilds, eager
//               aging, from-scratch fallback scans: the per-test feedback
//               path as originally shipped), and
//   optimized — the interned/memoized clusterer and the incremental
//               explorer that are the library defaults.
//
// Both modes run the identical seeded campaign and must produce identical
// record sequences (checked via a digest over every record) — the run
// aborts loudly if they diverge, so every benchmark run doubles as an
// equivalence check. The two modes consume the RNG stream identically by
// construction; value equality of the trajectories additionally rests on
// floating-point reformulations (lazy decay scaling, prefix-sum selection)
// staying on the same side of every comparison, which this check and the
// feedback_perf_test campaigns verify empirically.
// Results are emitted as machine-readable JSON (BENCH_feedback.json) for
// CI artifact tracking; the headline number is the serial 20k-test
// docstore-v2.0 campaign speedup.
//
// Each target/jobs cell runs at two Qpriority capacities: the library
// default (64, interactive-scale) and a campaign-scale pool sized to the
// budget — the paper's "does not discard any tests, rather only
// prioritizes their execution" (§3) reading, under which the seed's
// per-attempt O(pool) rebuilds and from-scratch fallback scans are exactly
// the costs that throttle long campaigns. The headline row is the serial
// 20k-test docstore-v2.0 campaign at the campaign-scale pool.
//
// Usage: perf_feedback [--out=FILE] [--budget=N] [--jobs=N] [--pool=N]
//                      [--quick]
//   --quick shrinks the budget so CI can smoke-run it in a few seconds;
//   published numbers come from the default Release configuration.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/host_info.h"
#include "core/fitness_explorer.h"
#include "core/session.h"
#include "obs/telemetry.h"
#include "targets/coreutils/suite.h"
#include "targets/docstore/suite.h"
#include "targets/harness.h"
#include "targets/minidb/suite.h"
#include "targets/webserver/suite.h"

namespace afex {
namespace {

struct TargetSpec {
  const char* name;
  TargetSuite (*make)();
  size_t max_call;
  bool zero_call;
};

struct ModeResult {
  double seconds = 0.0;
  size_t tests = 0;
  double tests_per_sec = 0.0;
  size_t failed = 0;
  size_t crashes = 0;
  size_t clusters = 0;
  size_t unique_failures = 0;
  size_t unique_crashes = 0;
  // FNV-1a over every record's fault indices, fitness bit pattern, and
  // cluster id: two campaigns agree on this iff their record sequences are
  // identical, which is what "equivalent" must mean.
  uint64_t record_digest = 0;
};

uint64_t DigestRecords(const SessionResult& result) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      h = (h ^ ((v >> shift) & 0xff)) * 0x100000001b3ULL;
    }
  };
  for (const SessionRecord& r : result.records) {
    for (size_t i = 0; i < r.fault.dimensions(); ++i) {
      mix(r.fault[i]);
    }
    uint64_t fitness_bits;
    static_assert(sizeof(fitness_bits) == sizeof(r.fitness));
    std::memcpy(&fitness_bits, &r.fitness, sizeof(fitness_bits));
    mix(fitness_bits);
    mix(r.cluster_id);
  }
  return h;
}

ModeResult RunCampaign(const TargetSpec& spec, size_t budget, size_t jobs, size_t pool,
                       bool reference, uint64_t seed, obs::MetricsSink* metrics = nullptr) {
  TargetSuite suite = spec.make();
  const uint64_t harness_seed = seed ^ 0x5eed;
  TargetHarness harness(suite, harness_seed);
  harness.set_metrics_sink(metrics);
  FaultSpace space = harness.MakeSpace(spec.max_call, spec.zero_call);

  FitnessExplorerConfig explorer_config;
  explorer_config.seed = seed;
  explorer_config.priority_capacity = pool;
  explorer_config.reference_algorithms = reference;
  FitnessExplorer explorer(space, explorer_config);

  SessionConfig session_config;
  session_config.redundancy_feedback = true;
  session_config.cluster_config.naive_reference = reference;
  session_config.metrics = metrics;

  const SearchTarget target{.max_tests = budget};
  ModeResult mode;
  auto started = std::chrono::steady_clock::now();
  // Node 0 is `harness`; every other node gets its own.
  std::vector<std::unique_ptr<TargetHarness>> node_harnesses;
  std::vector<Runner> runners{harness.MakeRunner(space)};
  for (size_t i = 1; i < jobs; ++i) {
    node_harnesses.push_back(std::make_unique<TargetHarness>(suite, harness_seed));
    runners.push_back(node_harnesses.back()->MakeRunner(space));
  }
  ExplorationSession session(explorer, std::move(runners), session_config);
  const SessionResult& result = session.Run(target);
  mode.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  mode.tests = result.tests_executed;
  mode.tests_per_sec = mode.seconds > 0.0 ? mode.tests / mode.seconds : 0.0;
  mode.failed = result.failed_tests;
  mode.crashes = result.crashes;
  mode.clusters = result.clusters;
  mode.unique_failures = result.unique_failures;
  mode.unique_crashes = result.unique_crashes;
  mode.record_digest = DigestRecords(result);
  return mode;
}

void EmitMode(std::ofstream& out, const char* key, const ModeResult& m) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "      \"%s\": {\"seconds\": %.6f, \"tests\": %zu, \"tests_per_sec\": %.1f, "
                "\"failed\": %zu, \"crashes\": %zu, \"clusters\": %zu}",
                key, m.seconds, m.tests, m.tests_per_sec, m.failed, m.crashes, m.clusters);
  out << buf;
}

}  // namespace
}  // namespace afex

int main(int argc, char** argv) {
  using namespace afex;

  std::string out_path = "BENCH_feedback.json";
  size_t budget = 20000;
  size_t cluster_jobs = 4;
  size_t pool = 0;  // 0 = size to the budget (campaign-scale Qpriority)
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--budget=", 0) == 0) {
      budget = static_cast<size_t>(std::strtoull(arg.c_str() + 9, nullptr, 10));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      cluster_jobs = static_cast<size_t>(std::strtoull(arg.c_str() + 7, nullptr, 10));
    } else if (arg.rfind("--pool=", 0) == 0) {
      pool = static_cast<size_t>(std::strtoull(arg.c_str() + 7, nullptr, 10));
    } else if (arg == "--quick") {
      budget = 2000;
    } else {
      std::fprintf(stderr,
                   "usage: perf_feedback [--out=FILE] [--budget=N] [--jobs=N] [--pool=N] "
                   "[--quick]\n");
      return 2;
    }
  }
  if (budget == 0 || cluster_jobs == 0) {
    std::fprintf(stderr, "--budget and --jobs must be positive\n");
    return 2;
  }
  if (pool == 0) {
    pool = budget;  // never-evict: every executed test stays prioritized
  }
  const size_t kDefaultPool = FitnessExplorerConfig{}.priority_capacity;

  // docstore-v2.0 is the headline: max_call sized so the space (840 tests x
  // functions x calls) holds the full 20k-test campaign.
  const TargetSpec targets[] = {
      {"coreutils", &coreutils::MakeSuite, 2, true},
      {"minidb", &minidb::MakeSuite, 100, false},
      {"webserver", &webserver::MakeSuite, 10, false},
      {"docstore-v2.0", &docstore::MakeSuiteV20, 24, false},
  };
  const uint64_t seed = 7;

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  out << "{\n  \"benchmark\": \"feedback_path\",\n";
  out << "  " << bench::HostJson() << ",\n";
  out << "  \"config\": {\"strategy\": \"fitness\", \"feedback\": true, \"budget\": " << budget
      << ", \"cluster_jobs\": " << cluster_jobs << ", \"default_pool\": " << kDefaultPool
      << ", \"campaign_pool\": " << pool << ", \"seed\": " << seed << "},\n";
  out << "  \"results\": [\n";

  double headline_speedup = 0.0;
  ModeResult headline_base, headline_opt;
  bool all_equivalent = true;
  bool first = true;
  std::vector<size_t> jobs_list = {1};
  if (cluster_jobs != 1) {
    jobs_list.push_back(cluster_jobs);
  }
  std::vector<size_t> pool_list = {kDefaultPool};
  if (pool != kDefaultPool) {
    pool_list.push_back(pool);
  }
  for (const TargetSpec& spec : targets) {
    for (size_t jobs : jobs_list) {
      for (size_t pool_size : pool_list) {
        std::printf("%-14s jobs=%zu pool=%-6zu baseline... ", spec.name, jobs, pool_size);
        std::fflush(stdout);
        ModeResult base = RunCampaign(spec, budget, jobs, pool_size, /*reference=*/true, seed);
        std::printf("%8.0f t/s  optimized... ", base.tests_per_sec);
        std::fflush(stdout);
        ModeResult opt = RunCampaign(spec, budget, jobs, pool_size, /*reference=*/false, seed);
        double speedup = base.seconds > 0.0 ? base.seconds / opt.seconds : 0.0;
        // Identical record sequences (via digest), not just matching
        // aggregate counters.
        bool equivalent = base.tests == opt.tests && base.failed == opt.failed &&
                          base.crashes == opt.crashes && base.clusters == opt.clusters &&
                          base.unique_failures == opt.unique_failures &&
                          base.unique_crashes == opt.unique_crashes &&
                          base.record_digest == opt.record_digest;
        all_equivalent = all_equivalent && equivalent;
        std::printf("%8.0f t/s  speedup %5.2fx%s\n", opt.tests_per_sec, speedup,
                    equivalent ? "" : "  [MISMATCH]");
        if (!equivalent) {
          std::fprintf(stderr,
                       "FATAL: baseline and optimized campaigns diverged on %s jobs=%zu "
                       "pool=%zu\n",
                       spec.name, jobs, pool_size);
        }
        if (std::strcmp(spec.name, "docstore-v2.0") == 0 && jobs == 1 && pool_size == pool) {
          headline_speedup = speedup;
          headline_base = base;
          headline_opt = opt;
        }
        if (!first) {
          out << ",\n";
        }
        first = false;
        out << "    {\"target\": \"" << spec.name << "\", \"jobs\": " << jobs
            << ", \"pool\": " << pool_size << ",\n";
        EmitMode(out, "baseline", base);
        out << ",\n";
        EmitMode(out, "optimized", opt);
        char buf[128];
        std::snprintf(buf, sizeof(buf), ",\n      \"speedup\": %.2f, \"equivalent\": %s\n    }",
                      speedup, equivalent ? "true" : "false");
        out << buf;
      }
    }
  }
  out << "\n  ],\n";

  // Telemetry A/B guard + embedded snapshot: the headline campaign re-run
  // with a CampaignTelemetry sink must reproduce the identical record
  // digest (telemetry may cost time but never change results).
  std::printf("docstore-v2.0  jobs=1 pool=%-6zu telemetry-attached... ", pool);
  std::fflush(stdout);
  obs::CampaignTelemetry telemetry;
  const TargetSpec& headline_spec = targets[3];
  ModeResult instrumented =
      RunCampaign(headline_spec, budget, 1, pool, /*reference=*/false, seed, &telemetry);
  bool telemetry_equivalent = instrumented.record_digest == headline_opt.record_digest &&
                              instrumented.tests == headline_opt.tests;
  all_equivalent = all_equivalent && telemetry_equivalent;
  std::printf("%8.0f t/s  digest %s\n", instrumented.tests_per_sec,
              telemetry_equivalent ? "unchanged" : "DIVERGED");
  if (!telemetry_equivalent) {
    std::fprintf(stderr,
                 "FATAL: attaching telemetry changed the docstore-v2.0 campaign's records\n");
  }
  out << "  \"telemetry_equivalent\": " << (telemetry_equivalent ? "true" : "false") << ",\n";
  out << "  \"telemetry\": ";
  telemetry.Snapshot().WriteJson(out, 2);
  out << ",\n";
  {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "  \"headline\": {\"target\": \"docstore-v2.0\", \"jobs\": 1, \"pool\": %zu, "
                  "\"budget\": %zu, "
                  "\"baseline_tests_per_sec\": %.1f, \"optimized_tests_per_sec\": %.1f, "
                  "\"speedup\": %.2f},\n",
                  pool, budget, headline_base.tests_per_sec, headline_opt.tests_per_sec,
                  headline_speedup);
    out << buf;
  }
  out << "  \"all_modes_equivalent\": " << (all_equivalent ? "true" : "false") << "\n}\n";
  out.close();
  std::printf("\nheadline: docstore-v2.0 serial (pool %zu) speedup %.2fx -> %s\n", pool,
              headline_speedup, out_path.c_str());
  return all_equivalent ? 0 : 1;
}
