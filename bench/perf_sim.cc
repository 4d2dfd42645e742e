// Sim-layer throughput benchmark: times whole fitness campaigns (redundancy
// feedback on, the default optimized explorer/clusterer in BOTH modes) with
// the simulated environment running in two structure modes per cell:
//
//   reference — the retained std::map-backed SimEnv tables and map-backed
//               fault-bus counters (SimEnvConfig::reference_structures: the
//               sim layer as originally shipped), and
//   optimized — the flat interned-path tables, dense fd/heap slot vectors,
//               pointer-cached bus counters, and allocation-free SimLibc
//               that are the library defaults.
//
// Both modes run the identical seeded campaign and must produce identical
// record sequences and outcomes (checked via a digest over every record's
// fault, fitness bits, cluster id, and full outcome — exit code, crash/hang
// flags, trigger flag, new-block ids, and injection stack) — the run aborts
// loudly on divergence, so every benchmark run doubles as an equivalence
// check of the flat structures against the map oracle.
//
// Cells run at the default Qpriority pool (64): the non-saturated regime
// where PR 3 left simulated-target execution as the dominant cost, which is
// exactly what this PR attacks. Results are emitted as machine-readable
// JSON (BENCH_sim.json) for CI artifact tracking; the headline number is
// the best serial speedup across the four targets.
//
// Usage: perf_sim [--out=FILE] [--budget=N] [--jobs=N] [--quick]
//   --quick shrinks the budget so CI can smoke-run it in a few seconds;
//   published numbers come from the default Release configuration.
#include <algorithm>
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
  size_t sim_steps = 0;
  double steps_per_sec = 0.0;
  // FNV-1a over every record's fault indices, fitness bit pattern, cluster
  // id, and full outcome: two campaigns agree on this iff their record
  // sequences (and the sim-layer observations inside them) are identical.
  uint64_t record_digest = 0;
};

uint64_t DigestRecords(const SessionResult& result) {
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
    h = (h ^ 0xff) * 0x100000001b3ULL;  // terminator: "ab","c" != "a","bc"
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
    const TestOutcome& o = r.outcome;
    mix(static_cast<uint64_t>(o.exit_code) ^ (o.test_failed ? 0x100 : 0) ^
        (o.crashed ? 0x200 : 0) ^ (o.hung ? 0x400 : 0) ^ (o.fault_triggered ? 0x800 : 0));
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

ModeResult RunCampaign(const TargetSpec& spec, size_t budget, size_t jobs, bool reference,
                       uint64_t seed, obs::MetricsSink* metrics = nullptr) {
  TargetSuite suite = spec.make();
  const uint64_t harness_seed = seed ^ 0x5eed;
  TargetHarness harness(suite, harness_seed, reference);
  harness.set_metrics_sink(metrics);
  FaultSpace space = harness.MakeSpace(spec.max_call, spec.zero_call);
  // Keep every cell in the non-saturated regime this benchmark measures: a
  // budget near the space size degenerates into the exhaustion/fallback-scan
  // path, which is the feedback layer's territory, not the sim layer's.
  budget = std::min(budget, space.TotalPoints() / 2);

  // The feedback path runs the library-default optimized algorithms in both
  // modes: this benchmark isolates the simulated-target execution cost.
  FitnessExplorerConfig explorer_config;
  explorer_config.seed = seed;
  FitnessExplorer explorer(space, explorer_config);

  SessionConfig session_config;
  session_config.redundancy_feedback = true;
  session_config.metrics = metrics;

  const SearchTarget target{.max_tests = budget};
  ModeResult mode;
  auto started = std::chrono::steady_clock::now();
  // Node 0 is `harness`; every other node gets its own.
  std::vector<std::unique_ptr<TargetHarness>> node_harnesses;
  std::vector<Runner> runners{harness.MakeRunner(space)};
  for (size_t i = 1; i < jobs; ++i) {
    node_harnesses.push_back(std::make_unique<TargetHarness>(suite, harness_seed, reference));
    runners.push_back(node_harnesses.back()->MakeRunner(space));
  }
  ExplorationSession session(explorer, std::move(runners), session_config);
  const SessionResult& result = session.Run(target);
  mode.sim_steps = harness.total_sim_steps();
  for (const auto& h : node_harnesses) {
    mode.sim_steps += h->total_sim_steps();
  }
  mode.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  mode.tests = result.tests_executed;
  mode.tests_per_sec = mode.seconds > 0.0 ? mode.tests / mode.seconds : 0.0;
  mode.steps_per_sec = mode.seconds > 0.0 ? mode.sim_steps / mode.seconds : 0.0;
  mode.failed = result.failed_tests;
  mode.crashes = result.crashes;
  mode.clusters = result.clusters;
  mode.record_digest = DigestRecords(result);
  return mode;
}

void EmitMode(std::ofstream& out, const char* key, const ModeResult& m) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "      \"%s\": {\"seconds\": %.6f, \"tests\": %zu, \"tests_per_sec\": %.1f, "
                "\"sim_steps\": %zu, \"sim_steps_per_sec\": %.0f, "
                "\"failed\": %zu, \"crashes\": %zu, \"clusters\": %zu}",
                key, m.seconds, m.tests, m.tests_per_sec, m.sim_steps, m.steps_per_sec,
                m.failed, m.crashes, m.clusters);
  out << buf;
}

}  // namespace
}  // namespace afex

int main(int argc, char** argv) {
  using namespace afex;

  std::string out_path = "BENCH_sim.json";
  size_t budget = 20000;
  size_t cluster_jobs = 4;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--budget=", 0) == 0) {
      budget = static_cast<size_t>(std::strtoull(arg.c_str() + 9, nullptr, 10));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      cluster_jobs = static_cast<size_t>(std::strtoull(arg.c_str() + 7, nullptr, 10));
    } else if (arg == "--quick") {
      budget = 2000;
    } else {
      std::fprintf(stderr, "usage: perf_sim [--out=FILE] [--budget=N] [--jobs=N] [--quick]\n");
      return 2;
    }
  }
  if (budget == 0 || cluster_jobs == 0) {
    std::fprintf(stderr, "--budget and --jobs must be positive\n");
    return 2;
  }
  const size_t pool = FitnessExplorerConfig{}.priority_capacity;

  // Same canonical spaces as perf_feedback; docstore-v2.0's call axis is
  // sized so the space holds the full 20k-test campaign.
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
  out << "{\n  \"benchmark\": \"sim_layer\",\n";
  out << "  " << bench::HostJson() << ",\n";
  out << "  \"config\": {\"strategy\": \"fitness\", \"feedback\": true, \"budget\": " << budget
      << ", \"cluster_jobs\": " << cluster_jobs << ", \"pool\": " << pool
      << ", \"seed\": " << seed << "},\n";
  out << "  \"results\": [\n";

  double headline_speedup = 0.0;
  const char* headline_target = "";
  const TargetSpec* headline_spec = &targets[0];
  ModeResult headline_base, headline_opt;
  bool all_equivalent = true;
  bool first = true;
  std::vector<size_t> jobs_list = {1};
  if (cluster_jobs != 1) {
    jobs_list.push_back(cluster_jobs);
  }
  for (const TargetSpec& spec : targets) {
    for (size_t jobs : jobs_list) {
      std::printf("%-14s jobs=%zu reference... ", spec.name, jobs);
      std::fflush(stdout);
      ModeResult base = RunCampaign(spec, budget, jobs, /*reference=*/true, seed);
      std::printf("%8.0f t/s  optimized... ", base.tests_per_sec);
      std::fflush(stdout);
      ModeResult opt = RunCampaign(spec, budget, jobs, /*reference=*/false, seed);
      double speedup = opt.seconds > 0.0 ? base.seconds / opt.seconds : 0.0;
      bool equivalent = base.tests == opt.tests && base.failed == opt.failed &&
                        base.crashes == opt.crashes && base.clusters == opt.clusters &&
                        base.sim_steps == opt.sim_steps &&
                        base.record_digest == opt.record_digest;
      all_equivalent = all_equivalent && equivalent;
      std::printf("%8.0f t/s  speedup %5.2fx%s\n", opt.tests_per_sec, speedup,
                  equivalent ? "" : "  [MISMATCH]");
      if (!equivalent) {
        std::fprintf(stderr,
                     "FATAL: reference and optimized sim structures diverged on %s jobs=%zu\n",
                     spec.name, jobs);
      }
      if (jobs == 1 && speedup > headline_speedup) {
        headline_speedup = speedup;
        headline_target = spec.name;
        headline_spec = &spec;
        headline_base = base;
        headline_opt = opt;
      }
      if (!first) {
        out << ",\n";
      }
      first = false;
      out << "    {\"target\": \"" << spec.name << "\", \"jobs\": " << jobs << ",\n";
      EmitMode(out, "reference", base);
      out << ",\n";
      EmitMode(out, "optimized", opt);
      char buf[128];
      std::snprintf(buf, sizeof(buf), ",\n      \"speedup\": %.2f, \"equivalent\": %s\n    }",
                    speedup, equivalent ? "true" : "false");
      out << buf;
    }
  }
  out << "\n  ],\n";

  // Telemetry A/B guard: re-run the headline target's optimized serial
  // campaign with a full CampaignTelemetry sink attached and require the
  // identical record digest — "off means off" has a converse: "on must not
  // change results". The snapshot is embedded so CI artifacts carry the
  // phase-latency breakdown alongside the throughput numbers.
  std::printf("%-14s jobs=1 telemetry-attached... ", headline_target);
  std::fflush(stdout);
  obs::CampaignTelemetry telemetry;
  ModeResult instrumented = RunCampaign(*headline_spec, budget, 1, /*reference=*/false, seed,
                                        &telemetry);
  bool telemetry_equivalent = instrumented.record_digest == headline_opt.record_digest &&
                              instrumented.tests == headline_opt.tests;
  all_equivalent = all_equivalent && telemetry_equivalent;
  std::printf("%8.0f t/s  digest %s\n", instrumented.tests_per_sec,
              telemetry_equivalent ? "unchanged" : "DIVERGED");
  if (!telemetry_equivalent) {
    std::fprintf(stderr, "FATAL: attaching telemetry changed the %s campaign's records\n",
                 headline_target);
  }
  out << "  \"telemetry_equivalent\": " << (telemetry_equivalent ? "true" : "false") << ",\n";
  out << "  \"telemetry\": ";
  telemetry.Snapshot().WriteJson(out, 2);
  out << ",\n";
  {
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "  \"headline\": {\"target\": \"%s\", \"jobs\": 1, \"pool\": %zu, "
                  "\"budget\": %zu, "
                  "\"reference_tests_per_sec\": %.1f, \"optimized_tests_per_sec\": %.1f, "
                  "\"speedup\": %.2f},\n",
                  headline_target, pool, budget, headline_base.tests_per_sec,
                  headline_opt.tests_per_sec, headline_speedup);
    out << buf;
  }
  out << "  \"all_modes_equivalent\": " << (all_equivalent ? "true" : "false") << "\n}\n";
  out.close();
  std::printf("\nheadline: %s serial (pool %zu) speedup %.2fx -> %s\n", headline_target, pool,
              headline_speedup, out_path.c_str());
  return all_equivalent ? 0 : 1;
}
