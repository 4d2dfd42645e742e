// afex_cli: command-line driver for exploration campaigns — the shape a
// user-facing release of the prototype (paper §6) takes. A campaign is a
// recipe (campaign/recipe.h): a built-in simulated target or a real
// --target-cmd, its fault space and the search settings, given as flags.
// The CLI builds it, runs it, and prints the ranked report.
//
// --journal writes the recipe and every executed test to an append-only
// log before the next test starts. `--resume --journal=FILE` rebuilds the
// campaign from that recipe and continues where it stopped; only --budget
// (to extend it) and output flags need accompany it, and a recipe flag
// given with --resume must equal its journaled value (a v1–v3 journal,
// which has no recipe, resumes with every flag repeated). --warm-start
// seeds a fitness search with a prior journal's results (paper §7), and
// --export dumps every record as CSV or JSON.
//
// Usage: afex_cli [recipe flags] [output flags]; --help lists both.
//   afex_cli --target=minidb --strategy=random --budget=500 --jobs=8
//   afex_cli --target=minidb --budget=5000 --journal=run.afexj
//   afex_cli --resume --journal=run.afexj --budget=8000
//   afex_cli --target=minidb --budget=500 --warm-start=run.afexj --export=csv
//   afex_cli --backend=real --target-cmd='./afex_walutil {test}' --exec-mode=persistent
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/export.h"
#include "campaign/recipe.h"
#include "campaign/store.h"
#include "core/fitness_explorer.h"
#include "core/report.h"
#include "core/session.h"
#include "obs/telemetry.h"
#include "sim/coverage.h"
#include "util/log.h"
#include "util/strings.h"

using namespace afex;

namespace {

// The flags outside the recipe: where the campaign's files go and how the
// report reads. None of them changes a record.
struct CliFlags {
  std::string interposer;  // "" = $AFEX_INTERPOSE, else the build tree's
  std::string journal;
  bool resume = false;
  std::string export_format;
  std::string export_file = "-";  // "-" = stdout
  std::string metrics_file;       // final MetricsSnapshot JSON ("" = off)
  std::string trace_file;         // Chrome-trace JSON ("" = off)
  double status_interval = 0.0;   // seconds between progress lines (0 = off)
  std::string log_level;          // "" = warn, or info with --verbose
  bool verbose = false;
  bool crashes_only = false;
  size_t top = 10;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: afex_cli [recipe flags] [output flags]\n\n"
               "recipe flags (journaled with the campaign):\n%s\n"
               "output flags:\n"
               "  --interposer=SO       libafex_interpose.so (default: $AFEX_INTERPOSE, else "
               "the build tree's)\n"
               "  --journal=FILE        journals the recipe and every executed test\n"
               "  --resume              continues the journal's campaign; recipe flags given "
               "with it must match\n"
               "  --export=csv|json     dumps every record to --export-file=FILE (default: "
               "stdout)\n"
               "  --metrics-file=FILE   final telemetry snapshot (counters, gauges, phase "
               "histograms)\n"
               "  --trace-file=FILE     Chrome-trace (Perfetto) timeline of every pipeline "
               "phase\n"
               "  --status-interval=SEC progress line (tests/sec, ETA, crashes, clusters, "
               "coverage)\n"
               "  --log-level=debug|info|warn|error|off, --verbose (= --log-level=info)\n"
               "  --crashes-only, --top=N: report only crashes, at most N findings\n",
               Recipe::Usage().c_str());
}

bool Value(const std::string& arg, const char* name, std::string& out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  out = arg.substr(prefix.size());
  return true;
}

// Takes `arg` if it is an output flag; anything else is left for the
// recipe. Throws CampaignError on a bad value.
bool TakeCliFlag(const std::string& arg, CliFlags& f) {
  std::string value;
  if (Value(arg, "interposer", f.interposer) || Value(arg, "journal", f.journal) ||
      Value(arg, "export", f.export_format) || Value(arg, "export-file", f.export_file) ||
      Value(arg, "metrics-file", f.metrics_file) || Value(arg, "trace-file", f.trace_file) ||
      Value(arg, "log-level", f.log_level)) {
    return true;
  }
  if (Value(arg, "top", value)) {
    uint64_t top = 0;
    if (!ParseUint(value, top)) {
      throw CampaignError("--top expects an integer >= 0, got '" + value + "'");
    }
    f.top = static_cast<size_t>(top);
  } else if (Value(arg, "status-interval", value)) {
    char* end = nullptr;
    f.status_interval = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || !(f.status_interval > 0.0)) {
      throw CampaignError("--status-interval expects seconds > 0, got '" + value + "'");
    }
  } else if (arg == "--resume") {
    f.resume = true;
  } else if (arg == "--crashes-only") {
    f.crashes_only = true;
  } else if (arg == "--verbose") {
    f.verbose = true;
  } else {
    return false;
  }
  return true;
}

// Checks the output flags; returns the log level they select.
LogLevel CheckCliFlags(const CliFlags& f) {
  if (f.resume && f.journal.empty()) {
    throw CampaignError("--resume requires --journal=FILE");
  }
  if (!f.export_format.empty() && f.export_format != "csv" && f.export_format != "json") {
    throw CampaignError("--export expects 'csv' or 'json', got '" + f.export_format + "'");
  }
  if (f.export_file != "-" && f.export_format.empty()) {
    throw CampaignError("--export-file requires --export=csv|json");
  }
  // --status-interval without an explicit level would emit into the void,
  // so it raises the default to info, as --verbose does.
  LogLevel level = f.verbose || f.status_interval > 0.0 ? LogLevel::kInfo : LogLevel::kWarn;
  if (!f.log_level.empty() && !ParseLogLevel(f.log_level, level)) {
    throw CampaignError("--log-level expects debug|info|warn|error|off, got '" + f.log_level +
                        "'");
  }
  if (!f.log_level.empty() && f.verbose && f.log_level != "info") {
    throw CampaignError("--verbose is an alias for --log-level=info; it conflicts with "
                        "--log-level=" + f.log_level);
  }
  return level;
}

// Builds and runs the campaign, prints the report and writes the outputs.
// Throws CampaignError on any failure.
void Run(const CliFlags& flags, const std::vector<std::string>& recipe_args, Recipe recipe) {
  // Declared before the session, which refers to the campaign's explorer
  // and node backends and to the store (observer); the telemetry's
  // progress callbacks read the session.
  std::unique_ptr<Campaign> campaign;
  std::optional<CampaignStore> store;
  std::optional<ExplorationSession> session;
  if (flags.resume) {
    // The journal's recipe is the campaign; a journal without one
    // (format v1–v3) resumes from the full flags.
    store = CampaignStore::Open(flags.journal);
    const std::vector<std::string>& stored = store->meta().recipe;
    recipe = stored.empty()
                 ? Recipe::FromArgs(recipe_args)
                 : Recipe::Resume(Recipe::FromArgs(stored, /*files_inline=*/true), recipe_args);
  }
  if (!flags.interposer.empty() && recipe.backend != "real") {
    throw CampaignError("--interposer only applies to --backend=real");
  }
  campaign = recipe.Build(flags.interposer, stdout);
  const FaultSpace& space = campaign->space;
  TargetBackend* backend = campaign->nodes[0].get();

  // Campaign telemetry (src/obs): constructed only when one of the three
  // observability flags asked for it — otherwise every instrumentation site
  // keeps its null sink and the campaign runs exactly as before.
  std::optional<obs::CampaignTelemetry> telemetry;
  if (!flags.metrics_file.empty() || !flags.trace_file.empty() || flags.status_interval > 0.0) {
    obs::TelemetryConfig telemetry_config;
    telemetry_config.trace = !flags.trace_file.empty();
    telemetry_config.progress.interval_seconds = flags.status_interval;
    telemetry_config.progress.budget = recipe.budget;
    // The session's distinct-block count is the cross-node union.
    telemetry_config.progress.coverage_fraction = [backend, &session]() -> double {
      uint32_t total = backend->coverage_total_blocks();
      return total == 0 ? 0.0
                        : static_cast<double>(session->result().blocks_covered) / total;
    };
    if (recipe.strategy == "fitness") {
      auto* fitness = static_cast<FitnessExplorer*>(campaign->explorer.get());
      telemetry_config.progress.pool_size = [fitness] {
        return fitness->priority_queue_size();
      };
    }
    telemetry.emplace(std::move(telemetry_config));
  }
  obs::MetricsSink* metrics_sink = telemetry.has_value() ? &*telemetry : nullptr;
  for (const std::unique_ptr<TargetBackend>& node : campaign->nodes) {
    node->set_metrics_sink(metrics_sink);
  }

  if (flags.resume) {
    store->Verify(campaign->meta);
  } else if (!flags.journal.empty()) {
    store = CampaignStore::Create(flags.journal, campaign->meta);
  }
  const size_t journaled = store.has_value() ? store->records().size() : 0;
  if (flags.resume && journaled > recipe.budget) {
    // A smaller budget would truncate completed results out of the journal
    // (and over-run the requested budget on replay).
    throw CampaignError("--budget=" + std::to_string(recipe.budget) + " is smaller than the " +
                        std::to_string(journaled) + " tests already journaled in '" +
                        flags.journal + "'; resume with --budget >= " +
                        std::to_string(journaled));
  }

  SessionConfig session_config;
  session_config.redundancy_feedback = recipe.feedback;
  session_config.metrics = metrics_sink;
  if (store.has_value()) {
    session_config.record_observer = store->MakeObserver();
    store->SetMetricsSink(metrics_sink);
  }
  session.emplace(*campaign->explorer, std::move(campaign->runners), session_config);
  size_t replayed_tests = 0;  // journal records consumed by --resume
  if (flags.resume) {
    for (const SessionRecord& record : store->records()) {
      if (!session->Replay(record)) {
        throw CampaignError("journal '" + flags.journal +
                            "' does not replay against this configuration (was it written "
                            "by a different build?)");
      }
    }
    replayed_tests = session->result().tests_executed;
    store->CommitResume(replayed_tests);
    for (size_t i = 0; i < campaign->nodes.size(); ++i) {
      campaign->nodes[i]->SeedCoverage(store->CoverageIdsForNode(i));
    }
    std::printf("resumed %zu journaled tests from %s", replayed_tests, flags.journal.c_str());
    if (journaled > replayed_tests) {
      std::printf(" (%zu from an incomplete round will re-execute)", journaled - replayed_tests);
    }
    std::printf("\n");
  }
  auto started = std::chrono::steady_clock::now();
  const SessionResult& result = session->Run({.max_tests = recipe.budget});
  const double campaign_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();

  std::printf("\nexecuted %zu tests: %zu failed, %zu crashed, %zu hung; "
              "%zu behaviour clusters (%zu failure, %zu crash)\n",
              result.tests_executed, result.failed_tests, result.crashes, result.hangs,
              result.clusters, result.unique_failures, result.unique_crashes);
  // Campaign throughput, so tests/sec is visible without the bench
  // binaries. Replayed (resumed) records are bookkeeping, not executions,
  // and are excluded from the rate.
  size_t live_tests = result.tests_executed - replayed_tests;
  size_t sim_steps = 0;
  for (const std::unique_ptr<TargetBackend>& node : campaign->nodes) {
    sim_steps += node->total_sim_steps();
  }
  std::printf("campaign wall time %.3f s", campaign_seconds);
  if (campaign_seconds > 0.0 && live_tests > 0) {
    std::printf(", %.0f tests/sec (%zu executed this run)",
                static_cast<double>(live_tests) / campaign_seconds, live_tests);
    if (sim_steps > 0) {
      // Watchdog steps are the simulated instruction counter, so this is
      // the sim layer's own throughput alongside the campaign's.
      std::printf(", %.2fM sim steps/sec",
                  static_cast<double>(sim_steps) / campaign_seconds / 1e6);
    }
  }
  std::printf("\n");
  // Every covered block was new to its node exactly once, so the union of
  // per-record new-block ids is every block covered on any node.
  CoverageAccumulator covered(backend->coverage_total_blocks(),
                              backend->coverage_recovery_base());
  for (const SessionRecord& r : result.records) {
    covered.MergeIds(r.outcome.new_block_ids);
  }
  std::printf("coverage %.1f%% (recovery %.1f%%)", 100 * covered.Fraction(),
              100 * covered.RecoveryFraction());
  if (recipe.jobs > 1) {
    std::printf(" across %zu nodes", recipe.jobs);
  }
  std::printf("\n");

  // Telemetry outputs: snapshot file, trace file, and the phase-share note
  // folded into the report synopsis (and the JSON export below).
  std::optional<obs::MetricsSnapshot> metrics_snapshot;
  if (telemetry.has_value()) {
    metrics_snapshot = telemetry->Snapshot();
    if (!flags.metrics_file.empty()) {
      if (!telemetry->WriteMetricsFile(flags.metrics_file)) {
        throw CampaignError("cannot write metrics file '" + flags.metrics_file + "'");
      }
      std::printf("wrote metrics snapshot to %s\n", flags.metrics_file.c_str());
    }
    if (!flags.trace_file.empty()) {
      if (!telemetry->WriteTraceFile(flags.trace_file)) {
        throw CampaignError("cannot write trace file '" + flags.trace_file + "'");
      }
      std::printf("wrote %llu trace events to %s (load in Perfetto or chrome://tracing)\n",
                  static_cast<unsigned long long>(telemetry->trace().total_events()),
                  flags.trace_file.c_str());
    }
  }

  ReportBuilder builder(space, recipe.strategy);
  std::string note = telemetry.has_value() ? telemetry->SynopsisLine() : "";
  size_t answered = 0;
  size_t states_answered = 0;
  for (const std::unique_ptr<TargetBackend>& node : campaign->nodes) {
    answered += node->tests_answered();
    states_answered += node->crash_states_answered();
  }
  if (answered > 0) {
    // tests/sec above counts these too; they started no process.
    note += (note.empty() ? "" : "\n") + std::to_string(answered) + " of " +
            std::to_string(live_tests) + " tests answered from fault-free call counts";
  }
  if (states_answered > 0) {
    note += (note.empty() ? "" : "\n") + std::to_string(states_answered) +
            " recover/verify pairs answered from crash-state digests";
  }
  builder.set_telemetry_note(note);
  Report report = builder.Build(result, session->clusterer(),
                                /*min_impact=*/flags.crashes_only ? 20.0 : 10.0);
  std::printf("\n%s", builder.Render(report).c_str());
  std::printf("\ntop findings (one representative per behaviour cluster):\n");
  size_t shown = 0;
  for (const Finding& f : report.representatives) {
    if (flags.crashes_only && !f.crashed) {
      continue;
    }
    std::printf("\n%s", builder.GenerateReproScript(f).c_str());
    if (++shown >= flags.top) {
      break;
    }
  }
  if (shown == 0) {
    std::printf("  (none above the impact threshold)\n");
  }

  if (flags.export_format.empty()) {
    return;
  }
  std::ofstream file;
  const bool to_stdout = flags.export_file == "-";
  if (!to_stdout) {
    file.open(flags.export_file);
    if (!file) {
      throw CampaignError("cannot open export file '" + flags.export_file + "'");
    }
  }
  std::ostream& out = to_stdout ? std::cout : file;
  if (flags.export_format == "csv") {
    ExportCsv(space, result, out);
  } else {
    ExportJson(campaign->meta, space, result, out,
               metrics_snapshot.has_value() ? &*metrics_snapshot : nullptr);
  }
  out.flush();
  if (!out) {
    throw CampaignError("error writing export to '" + flags.export_file + "'");
  }
  if (!to_stdout) {
    std::printf("\nexported %s to %s\n", flags.export_format.c_str(), flags.export_file.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  std::vector<std::string> recipe_args;
  Recipe recipe;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        PrintUsage();
        return 2;
      }
      if (!TakeCliFlag(arg, flags)) {
        recipe_args.push_back(arg);
      }
    }
    SetLogLevel(CheckCliFlags(flags));
    if (!flags.resume) {
      recipe = Recipe::FromArgs(recipe_args);
    }
  } catch (const CampaignError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    PrintUsage();
    return 2;
  }
  try {
    Run(flags, recipe_args, std::move(recipe));
  } catch (const CampaignError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  return 0;
}
