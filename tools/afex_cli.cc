// afex_cli: command-line driver for exploration campaigns — the shape a
// user-facing release of the prototype (paper §6) takes. Points a search
// strategy at one of the built-in simulated targets, optionally with a
// fault-space description file, redundancy feedback, and an environment
// model, and prints the ranked report.
//
// Campaigns can be made durable: --journal writes every executed test to an
// append-only record log before the next test starts, --resume replays that
// log to continue an interrupted campaign exactly where it stopped, and
// --warm-start seeds a fresh fitness search with a prior campaign's results
// (paper §7 knowledge reuse). --jobs runs the campaign through the
// cluster-mode parallel session; --export dumps the full record set as CSV
// or JSON for offline analysis.
//
// Usage:
//   afex_cli --target=<coreutils|minidb|webserver|docstore-v0.8|docstore-v2.0>
//            [--strategy=<fitness|random|exhaustive>] [--budget=N] [--jobs=N]
//            [--seed=N] [--max-call=N] [--space=FILE] [--feedback]
//            [--journal=FILE] [--resume] [--warm-start=FILE]
//            [--export=csv|json] [--export-file=FILE]
//            [--crashes-only] [--top=N] [--log-level=debug|info|warn|error|off]
//            [--metrics-file=FILE] [--trace-file=FILE] [--status-interval=SEC]
//
// Examples:
//   afex_cli --target=webserver --budget=1000 --feedback
//   afex_cli --target=minidb --strategy=random --budget=500 --jobs=8
//   afex_cli --target=coreutils --space=my_space.afex --top=5
//   afex_cli --target=minidb --budget=5000 --journal=run.afexj
//   afex_cli --target=minidb --budget=5000 --journal=run.afexj --resume
//   afex_cli --target=minidb --budget=500 --warm-start=run.afexj
//   afex_cli --target=minidb --budget=500 --export=csv --export-file=run.csv
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <filesystem>

#include "analysis/target_profile.h"
#include "campaign/export.h"
#include "campaign/store.h"
#include "exec/feedback_block.h"
#include "exec/real_target_harness.h"
#include "core/exhaustive_explorer.h"
#include "core/fitness_explorer.h"
#include "core/random_explorer.h"
#include "core/report.h"
#include "core/session.h"
#include "core/space_lang.h"
#include "obs/telemetry.h"
#include "sim/coverage.h"
#include "targets/coreutils/suite.h"
#include "targets/docstore/suite.h"
#include "targets/harness.h"
#include "targets/minidb/suite.h"
#include "targets/webserver/suite.h"
#include "util/log.h"
#include "util/strings.h"

using namespace afex;

namespace {

struct Options {
  std::string target = "coreutils";
  std::string strategy = "fitness";
  std::string space_file;
  size_t budget = 500;
  size_t jobs = 1;
  uint64_t seed = 1;
  size_t max_call = 0;  // 0 = per-target default
  bool feedback = false;
  bool crashes_only = false;
  size_t top = 10;
  bool verbose = false;          // legacy alias for --log-level=info
  std::string log_level;         // "" = default (warn, or info with --verbose)
  std::string metrics_file;      // final MetricsSnapshot JSON ("" = off)
  std::string trace_file;        // Chrome-trace JSON ("" = off)
  double status_interval = 0.0;  // seconds between progress lines (0 = off)
  std::string journal;
  bool resume = false;
  std::string warm_start;
  std::string export_format;
  std::string export_file = "-";  // "-" = stdout
  // Real-process backend (src/exec). "sim" explores the built-in simulated
  // targets; "real" forks the --target-cmd binary per test under the
  // LD_PRELOAD interposer.
  std::string backend = "sim";
  std::string target_cmd;   // command line, space-separated; {test} = test id
  // Two-phase crash→recover→verify (README "Crash-recovery scenarios"):
  // after every workload run, re-exec the target in recovery mode, then run
  // the verifier, both in the workload's sandbox without the interposer.
  std::string recovery_cmd;
  std::string verify_cmd;
  std::string interposer;   // libafex_interpose.so ("" = auto-discover)
  uint64_t timeout_ms = 5000;
  size_t num_tests = 6;     // test-axis cardinality for the real backend
  // How the real backend turns tests into processes: fork+exec per test
  // (spawn), an AFL-style forkserver, or persistent iterations inside the
  // forkserver's child. README "Execution modes".
  std::string exec_mode = "spawn";
  // Derive the fault space from static analysis of the target binary: the
  // function axis is pruned to the interposable libc functions the binary
  // actually imports, and fitness priorities are seeded from callsite
  // weights (paper §7 fault-space definition methodology).
  bool auto_space = false;
  // Which coverage signal feeds fitness on the real backend: the libc call
  // proxy (every interposed libc call = one block), real sancov edge
  // coverage from an instrumented build, or auto (edges when the static
  // analyzer finds sancov instrumentation, proxy otherwise).
  std::string coverage = "auto";
  // Explicit-use tracking, so flags belonging to the other backend are
  // rejected instead of silently ignored.
  bool target_set = false;
  bool timeout_ms_set = false;
  bool num_tests_set = false;
  bool exec_mode_set = false;
  bool coverage_set = false;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: afex_cli --target=<coreutils|minidb|webserver|docstore-v0.8|"
               "docstore-v2.0>\n"
               "                [--strategy=<fitness|random|exhaustive>] [--budget=N]\n"
               "                [--jobs=N] [--seed=N] [--max-call=N] [--space=FILE]\n"
               "                [--feedback] [--journal=FILE] [--resume]\n"
               "                [--warm-start=FILE] [--export=csv|json]\n"
               "                [--export-file=FILE] [--crashes-only] [--top=N] [--verbose]\n"
               "                [--backend=<sim|real>] [--target-cmd='BIN ARGS...']\n"
               "                [--recovery-cmd='BIN ARGS...'] [--verify-cmd='BIN ARGS...']\n"
               "                [--interposer=SO] [--timeout-ms=N] [--num-tests=N]\n"
               "                [--exec-mode=<spawn|forkserver|persistent>]\n"
               "                [--coverage=<auto|proxy|edges>]\n"
               "                [--auto-space] [--log-level=debug|info|warn|error|off]\n"
               "                [--metrics-file=FILE] [--trace-file=FILE]\n"
               "                [--status-interval=SEC]\n"
               "\n"
               "observability: --metrics-file dumps the campaign's final telemetry\n"
               "snapshot (counters, gauges, phase latency histograms) as JSON,\n"
               "--trace-file writes a Chrome-trace (Perfetto-loadable) timeline of\n"
               "every pipeline phase, and --status-interval logs a progress line\n"
               "(tests/sec EWMA, ETA, crashes, clusters, coverage) every SEC\n"
               "seconds. --verbose is an alias for --log-level=info.\n"
               "\n"
               "real-process backend: --backend=real --target-cmd='path/to/bin {test}'\n"
               "runs the command per test under the libafex_interpose.so fault\n"
               "injector ({test} = 1-based test id; appended when omitted).\n"
               "--auto-space statically analyzes the target ELF binary and prunes\n"
               "the function axis to the interposable libc functions it imports,\n"
               "seeding fitness priorities from per-function callsite counts.\n"
               "--exec-mode picks how tests become processes: spawn (fork+exec per\n"
               "test, the default), forkserver (one target stopped pre-main, one\n"
               "bare fork per test), or persistent (the forkserver's child runs\n"
               "in-process iterations via the afex_persistent_run hook until\n"
               "exit(), a crash or a timeout ends it; a target that never adopts\n"
               "the hook runs as forkserver children). All modes produce\n"
               "identical records.\n"
               "--coverage picks the fitness coverage signal: proxy (one block per\n"
               "interposed libc call), edges (real SanitizerCoverage edges streamed\n"
               "from a -fsanitize-coverage build, e.g. the afex_*_cov variants), or\n"
               "auto (edges when static analysis detects instrumentation; default).\n"
               "\n"
               "crash-recovery campaigns: --recovery-cmd re-runs the target in\n"
               "recovery mode after every workload run, and --verify-cmd then checks\n"
               "invariants — both in the workload's sandbox, without the interposer\n"
               "({test} substitutes as in --target-cmd). A non-zero recovery exit\n"
               "marks the record recfail=1; a non-zero verifier exit marks inv=1.\n");
}

bool ParseFlag(const std::string& arg, const std::string& name, std::string& out) {
  std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  out = arg.substr(prefix.size());
  return true;
}

// Validated numeric flag parsing: rejects empty, non-numeric, negative, and
// out-of-range values instead of silently reading them as 0 (the bare-atoll
// failure mode). `min_value` expresses per-flag floors, e.g. --budget >= 1.
bool ParseSizeFlag(const std::string& name, const std::string& value, uint64_t min_value,
                   uint64_t& out) {
  if (!ParseUint(value, out) || out < min_value) {
    std::fprintf(stderr, "--%s expects an integer >= %llu, got '%s'\n", name.c_str(),
                 static_cast<unsigned long long>(min_value), value.c_str());
    return false;
  }
  return true;
}

bool ParseOptions(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    uint64_t number = 0;
    if (ParseFlag(arg, "target", value)) {
      options.target = value;
      options.target_set = true;
    } else if (ParseFlag(arg, "strategy", value)) {
      options.strategy = value;
    } else if (ParseFlag(arg, "space", value)) {
      options.space_file = value;
    } else if (ParseFlag(arg, "budget", value)) {
      // SearchTarget treats max_tests == 0 as "no constraint"; from the CLI
      // that would loop forever, so insist on an explicit positive budget.
      if (!ParseSizeFlag("budget", value, 1, number)) {
        return false;
      }
      options.budget = static_cast<size_t>(number);
    } else if (ParseFlag(arg, "jobs", value)) {
      if (!ParseSizeFlag("jobs", value, 1, number)) {
        return false;
      }
      options.jobs = static_cast<size_t>(number);
    } else if (ParseFlag(arg, "seed", value)) {
      if (!ParseSizeFlag("seed", value, 0, number)) {
        return false;
      }
      options.seed = number;
    } else if (ParseFlag(arg, "max-call", value)) {
      if (!ParseSizeFlag("max-call", value, 0, number)) {
        return false;
      }
      options.max_call = static_cast<size_t>(number);
    } else if (ParseFlag(arg, "top", value)) {
      if (!ParseSizeFlag("top", value, 0, number)) {
        return false;
      }
      options.top = static_cast<size_t>(number);
    } else if (ParseFlag(arg, "backend", value)) {
      options.backend = value;
    } else if (ParseFlag(arg, "target-cmd", value)) {
      options.target_cmd = value;
    } else if (ParseFlag(arg, "recovery-cmd", value)) {
      options.recovery_cmd = value;
    } else if (ParseFlag(arg, "verify-cmd", value)) {
      options.verify_cmd = value;
    } else if (ParseFlag(arg, "interposer", value)) {
      options.interposer = value;
    } else if (ParseFlag(arg, "timeout-ms", value)) {
      if (!ParseSizeFlag("timeout-ms", value, 1, number)) {
        return false;
      }
      options.timeout_ms = number;
      options.timeout_ms_set = true;
    } else if (ParseFlag(arg, "num-tests", value)) {
      if (!ParseSizeFlag("num-tests", value, 1, number)) {
        return false;
      }
      options.num_tests = static_cast<size_t>(number);
      options.num_tests_set = true;
    } else if (ParseFlag(arg, "exec-mode", value)) {
      options.exec_mode = value;
      options.exec_mode_set = true;
    } else if (ParseFlag(arg, "coverage", value)) {
      options.coverage = value;
      options.coverage_set = true;
    } else if (ParseFlag(arg, "log-level", value)) {
      options.log_level = value;
    } else if (ParseFlag(arg, "metrics-file", value)) {
      options.metrics_file = value;
    } else if (ParseFlag(arg, "trace-file", value)) {
      options.trace_file = value;
    } else if (ParseFlag(arg, "status-interval", value)) {
      char* end = nullptr;
      double seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || end == nullptr || *end != '\0' || !(seconds > 0.0)) {
        std::fprintf(stderr, "--status-interval expects seconds > 0, got '%s'\n",
                     value.c_str());
        return false;
      }
      options.status_interval = seconds;
    } else if (ParseFlag(arg, "journal", value)) {
      options.journal = value;
    } else if (ParseFlag(arg, "warm-start", value)) {
      options.warm_start = value;
    } else if (ParseFlag(arg, "export", value)) {
      options.export_format = value;
    } else if (ParseFlag(arg, "export-file", value)) {
      options.export_file = value;
    } else if (arg == "--auto-space") {
      options.auto_space = true;
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--feedback") {
      options.feedback = true;
    } else if (arg == "--crashes-only") {
      options.crashes_only = true;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (options.backend != "sim" && options.backend != "real") {
    std::fprintf(stderr, "--backend expects 'sim' or 'real', got '%s'\n",
                 options.backend.c_str());
    return false;
  }
  if (options.backend == "real" && options.target_cmd.empty()) {
    std::fprintf(stderr, "--backend=real requires --target-cmd='BIN ARGS...'\n");
    return false;
  }
  if (options.backend != "real" &&
      (!options.target_cmd.empty() || !options.interposer.empty() ||
       !options.recovery_cmd.empty() || !options.verify_cmd.empty() ||
       options.timeout_ms_set || options.num_tests_set || options.exec_mode_set ||
       options.coverage_set)) {
    std::fprintf(stderr,
                 "--target-cmd/--recovery-cmd/--verify-cmd/--interposer/--timeout-ms/"
                 "--num-tests/--exec-mode/--coverage only apply to --backend=real\n");
    return false;
  }
  if (options.exec_mode != "spawn" && options.exec_mode != "forkserver" &&
      options.exec_mode != "persistent") {
    std::fprintf(stderr,
                 "--exec-mode expects 'spawn', 'forkserver', or 'persistent', got '%s'\n",
                 options.exec_mode.c_str());
    return false;
  }
  if (options.coverage != "auto" && options.coverage != "proxy" &&
      options.coverage != "edges") {
    std::fprintf(stderr, "--coverage expects 'auto', 'proxy', or 'edges', got '%s'\n",
                 options.coverage.c_str());
    return false;
  }
  if (options.auto_space && options.backend != "real") {
    std::fprintf(stderr, "--auto-space only applies to --backend=real\n");
    return false;
  }
  if (options.auto_space && !options.space_file.empty()) {
    std::fprintf(stderr,
                 "--auto-space derives the fault space from the binary; it conflicts "
                 "with --space\n");
    return false;
  }
  if (options.backend == "real" && options.target_set) {
    std::fprintf(stderr,
                 "--target names a built-in simulated target; with --backend=real the "
                 "system under test is --target-cmd\n");
    return false;
  }
  if (options.resume && options.journal.empty()) {
    std::fprintf(stderr, "--resume requires --journal=FILE\n");
    return false;
  }
  if (!options.warm_start.empty() && options.strategy != "fitness") {
    std::fprintf(stderr, "--warm-start only applies to --strategy=fitness\n");
    return false;
  }
  if (!options.export_format.empty() && options.export_format != "csv" &&
      options.export_format != "json") {
    std::fprintf(stderr, "--export expects 'csv' or 'json', got '%s'\n",
                 options.export_format.c_str());
    return false;
  }
  if (options.export_file != "-" && options.export_format.empty()) {
    std::fprintf(stderr, "--export-file requires --export=csv|json\n");
    return false;
  }
  if (!options.log_level.empty()) {
    LogLevel parsed;
    if (!ParseLogLevel(options.log_level, parsed)) {
      std::fprintf(stderr, "--log-level expects debug|info|warn|error|off, got '%s'\n",
                   options.log_level.c_str());
      return false;
    }
    if (options.verbose && options.log_level != "info") {
      std::fprintf(stderr, "--verbose is an alias for --log-level=info; it conflicts "
                           "with --log-level=%s\n",
                   options.log_level.c_str());
      return false;
    }
  }
  return true;
}

bool MakeTarget(const std::string& name, TargetSuite& suite, size_t& default_max_call,
                bool& zero_call) {
  if (name == "coreutils") {
    suite = coreutils::MakeSuite();
    default_max_call = 2;
    zero_call = true;
    return true;
  }
  if (name == "minidb") {
    suite = minidb::MakeSuite();
    default_max_call = 100;
    zero_call = false;
    return true;
  }
  if (name == "webserver") {
    suite = webserver::MakeSuite();
    default_max_call = 10;
    zero_call = false;
    return true;
  }
  if (name == "docstore-v0.8") {
    suite = docstore::MakeSuiteV08();
    default_max_call = 10;
    zero_call = false;
    return true;
  }
  if (name == "docstore-v2.0") {
    suite = docstore::MakeSuiteV20();
    default_max_call = 10;
    zero_call = false;
    return true;
  }
  std::fprintf(stderr, "unknown target '%s'\n", name.c_str());
  return false;
}

// Splits --target-cmd on spaces (no quoting: target commands are simple
// "binary arg..." lines; anything richer belongs in a wrapper script).
std::vector<std::string> SplitCommand(const std::string& cmd) {
  std::vector<std::string> argv;
  std::istringstream in(cmd);
  std::string word;
  while (in >> word) {
    argv.push_back(word);
  }
  return argv;
}

// Resolves the interposer .so: the explicit flag, else $AFEX_INTERPOSE,
// else the build-tree location relative to this executable.
std::string ResolveInterposer(const Options& options, const char* argv0) {
  namespace fs = std::filesystem;
  if (!options.interposer.empty()) {
    return options.interposer;
  }
  if (const char* env = std::getenv("AFEX_INTERPOSE"); env != nullptr && *env != '\0') {
    return env;
  }
  std::error_code ec;
  fs::path exe = fs::weakly_canonical(fs::path(argv0), ec);
  if (!ec) {
    fs::path candidate =
        exe.parent_path().parent_path() / "src" / "exec" / "libafex_interpose.so";
    if (fs::exists(candidate, ec)) {
      return candidate.string();
    }
  }
  return "";
}

// Resolves the target command's binary to an existing executable file:
// paths (anything with a '/') must exist as given; bare names get the same
// $PATH search execvp would do. Rejecting a missing binary here — before
// the campaign starts — beats the old behaviour of every single test
// failing with "exec: failed to start".
bool ResolveTargetBinary(const std::string& name, std::string& resolved) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (name.find('/') != std::string::npos) {
    if (!fs::is_regular_file(name, ec)) {
      return false;
    }
    resolved = fs::absolute(name, ec).string();
    return true;
  }
  const char* path = std::getenv("PATH");
  std::istringstream dirs(path != nullptr ? path : "");
  std::string dir;
  while (std::getline(dirs, dir, ':')) {
    if (dir.empty()) {
      continue;
    }
    fs::path candidate = fs::path(dir) / name;
    if (fs::is_regular_file(candidate, ec) && ::access(candidate.c_str(), X_OK) == 0) {
      resolved = candidate.string();
      return true;
    }
  }
  return false;
}

bool MakeRealConfig(const Options& options, const char* argv0,
                    exec::RealTargetConfig& config, std::string& target_binary) {
  config.target_argv = SplitCommand(options.target_cmd);
  if (config.target_argv.empty()) {
    std::fprintf(stderr, "--target-cmd is empty after splitting\n");
    return false;
  }
  if (!ResolveTargetBinary(config.target_argv[0], target_binary)) {
    std::fprintf(stderr, "--target-cmd binary '%s' does not exist%s\n",
                 config.target_argv[0].c_str(),
                 config.target_argv[0].find('/') == std::string::npos ? " in $PATH" : "");
    return false;
  }
  // The two-phase commands get the same split + binary resolution as the
  // target command: a typo'd verifier path should fail before the campaign,
  // not silently mark every record invariant_violated.
  struct PhaseCmd {
    const char* flag;
    const std::string* cmd;
    std::vector<std::string>* argv;
  } phase_cmds[] = {
      {"recovery-cmd", &options.recovery_cmd, &config.recovery_argv},
      {"verify-cmd", &options.verify_cmd, &config.verify_argv},
  };
  for (const PhaseCmd& phase : phase_cmds) {
    if (phase.cmd->empty()) {
      continue;
    }
    *phase.argv = SplitCommand(*phase.cmd);
    if (phase.argv->empty()) {
      std::fprintf(stderr, "--%s is empty after splitting\n", phase.flag);
      return false;
    }
    std::string resolved;
    if (!ResolveTargetBinary((*phase.argv)[0], resolved)) {
      std::fprintf(stderr, "--%s binary '%s' does not exist%s\n", phase.flag,
                   (*phase.argv)[0].c_str(),
                   (*phase.argv)[0].find('/') == std::string::npos ? " in $PATH" : "");
      return false;
    }
    (*phase.argv)[0] = resolved;
  }
  config.num_tests = options.num_tests;
  config.timeout_ms = options.timeout_ms;
  config.exec_mode = options.exec_mode == "forkserver"
                         ? exec::ExecMode::kForkserver
                         : options.exec_mode == "persistent"
                               ? exec::ExecMode::kPersistent
                               : exec::ExecMode::kSpawn;
  config.interposer_path = ResolveInterposer(options, argv0);
  if (config.interposer_path.empty()) {
    std::fprintf(stderr,
                 "cannot locate libafex_interpose.so; pass --interposer=PATH "
                 "(without it no fault is ever injected)\n");
    return false;
  }
  if (!std::filesystem::is_regular_file(config.interposer_path)) {
    std::fprintf(stderr, "--interposer '%s' does not exist\n",
                 config.interposer_path.c_str());
    return false;
  }
  return true;
}

std::unique_ptr<Explorer> MakeExplorer(const Options& options, const FaultSpace& space) {
  if (options.strategy == "fitness") {
    FitnessExplorerConfig config;
    config.seed = options.seed;
    return std::make_unique<FitnessExplorer>(space, config);
  }
  if (options.strategy == "random") {
    return std::make_unique<RandomExplorer>(space, options.seed);
  }
  if (options.strategy == "exhaustive") {
    return std::make_unique<ExhaustiveExplorer>(space);
  }
  std::fprintf(stderr, "unknown strategy '%s'\n", options.strategy.c_str());
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, options)) {
    PrintUsage();
    return 2;
  }
  LogLevel log_level = LogLevel::kWarn;
  if (!options.log_level.empty()) {
    ParseLogLevel(options.log_level, log_level);  // validated in ParseOptions
  } else if (options.verbose || options.status_interval > 0.0) {
    // --status-interval without an explicit level would emit into the void;
    // raise the default so the progress lines are visible.
    log_level = LogLevel::kInfo;
  }
  SetLogLevel(log_level);

  // Execution backend: the simulated harness for the built-in targets, or
  // the real-process harness forking --target-cmd under the interposer.
  // Everything downstream sees only the TargetBackend interface.
  TargetSuite suite;
  size_t default_max_call = 2;
  bool zero_call = false;
  const uint64_t harness_seed = options.seed ^ 0x5eed;
  const bool real_backend = options.backend == "real";
  std::unique_ptr<TargetHarness> sim_harness;
  std::unique_ptr<exec::RealTargetHarness> real_harness;
  exec::RealTargetConfig real_config;
  TargetBackend* backend = nullptr;
  std::optional<analysis::TargetProfile> profile;
  if (real_backend) {
    std::string target_binary;
    if (!MakeRealConfig(options, argv[0], real_config, target_binary)) {
      return 2;
    }
    // Static target analysis (paper §7): profile the binary's libc boundary
    // up front. --auto-space depends on it; for hand-written spaces it backs
    // the unimported-function fail-fast and the CampaignMeta fingerprint
    // that lets resume detect a rebuilt target. A non-ELF64 target command
    // (a script, say) is only fatal when --auto-space asked for analysis.
    std::string analysis_error;
    profile = analysis::AnalyzeTargetBinary(target_binary, analysis_error);
    if (!profile.has_value() && options.auto_space) {
      std::fprintf(stderr, "--auto-space: cannot analyze '%s': %s\n",
                   target_binary.c_str(), analysis_error.c_str());
      return 2;
    }
    if (!profile.has_value()) {
      std::fprintf(stderr,
                   "warning: static analysis of '%s' unavailable (%s); space/import "
                   "checks skipped\n",
                   target_binary.c_str(), analysis_error.c_str());
    }
    if (options.auto_space) {
      std::vector<std::string> imported = profile->InterposableImports();
      if (imported.empty()) {
        std::fprintf(stderr,
                     "--auto-space: '%s' imports none of the %zu interposable libc "
                     "functions; there is no fault space to explore\n",
                     target_binary.c_str(), exec::InterposableFunctions().size());
        return 2;
      }
      real_config.functions = std::move(imported);
    }
    // Coverage signal resolution (README "Coverage feedback"): edge coverage
    // needs a sancov-instrumented build, which the static analyzer detects
    // from the hand-off symbol in the binary's dynsym. `edges` against a
    // provably uninstrumented target fails here rather than running a whole
    // campaign whose every record counts real.edges_missing.
    const bool sancov = profile.has_value() && profile->sancov_instrumented;
    if (options.coverage == "edges") {
      if (profile.has_value() && !sancov) {
        std::fprintf(stderr,
                     "--coverage=edges: '%s' is not sancov-instrumented (build the "
                     "target with -fsanitize-coverage, e.g. the afex_*_cov variants), "
                     "or use --coverage=proxy\n",
                     target_binary.c_str());
        return 2;
      }
      real_config.use_edges = true;  // analysis unavailable: trust the caller
    } else if (options.coverage == "auto") {
      real_config.use_edges = sancov;
    }
    AFEX_LOG(kInfo) << "coverage signal: "
                    << (real_config.use_edges ? "sancov edges" : "libc proxy");
    real_harness = std::make_unique<exec::RealTargetHarness>(real_config);
    backend = real_harness.get();
    default_max_call = 8;
  } else {
    if (!MakeTarget(options.target, suite, default_max_call, zero_call)) {
      return 2;
    }
    sim_harness = std::make_unique<TargetHarness>(suite, harness_seed);
    backend = sim_harness.get();
  }

  // Fault space: from the description file if given, else the canonical
  // <test, function, call> space of the target.
  FaultSpace space;
  if (!options.space_file.empty()) {
    std::ifstream in(options.space_file);
    if (!in) {
      std::fprintf(stderr, "cannot open space file '%s'\n", options.space_file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      UniverseSpec spec = ParseFaultSpaceDescription(text.str());
      if (spec.spaces.size() != 1) {
        std::fprintf(stderr,
                     "space file describes %zu subspaces; afex_cli explores one at a time\n",
                     spec.spaces.size());
        return 2;
      }
      space = BuildFaultSpace(spec.spaces[0], real_backend ? "real" : options.target);
    } catch (const SpaceLangError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  } else {
    size_t max_call = options.max_call > 0 ? options.max_call : default_max_call;
    space = real_backend ? real_harness->MakeSpace(max_call, zero_call)
                         : sim_harness->MakeSpace(max_call, zero_call);
  }
  // Fail fast on a custom space whose function axis names functions the
  // interposer cannot wrap: every such point would report as a test
  // failure, and the fitness loop would steer the whole campaign toward
  // permanently-uninjectable faults.
  if (real_backend) {
    for (size_t i = 0; i < space.dimensions(); ++i) {
      const Axis& axis = space.axis(i);
      if (axis.name() != "function") {
        continue;
      }
      for (const std::string& label : axis.labels()) {
        if (exec::InterposedSlot(label.c_str()) < 0) {
          std::fprintf(stderr,
                       "space function axis names '%s', which the real-process "
                       "interposer does not wrap (see src/exec/feedback_block.h)\n",
                       label.c_str());
          return 2;
        }
      }
    }
    // Second fail-fast, against the binary rather than the interposer: a
    // user-written space naming functions the target never imports would
    // spend its whole budget on faults the target cannot experience (the
    // call never happens, so the injection never fires). Only user spaces
    // are checked — the default full axis deliberately explores blind.
    if (profile.has_value() && !options.space_file.empty()) {
      std::vector<std::string> unimported =
          analysis::UnimportedSpaceFunctions(*profile, space);
      if (!unimported.empty()) {
        std::string joined;
        for (const std::string& name : unimported) {
          joined += (joined.empty() ? "" : ", ") + name;
        }
        std::fprintf(stderr,
                     "space function axis names %zu function(s) the target binary "
                     "never imports: %s\n(re-run with --auto-space, or check "
                     "afex_analyze output for the importable set)\n",
                     unimported.size(), joined.c_str());
        return 2;
      }
    }
  }
  if (options.auto_space) {
    // Print both sizes so the pruning is visible (and assertable): the
    // derived space vs. the full interposable space the same flags would
    // have explored without analysis.
    size_t full_functions = exec::InterposableFunctions().size();
    size_t pruned_functions = real_config.functions.size();
    size_t full_points = (space.TotalPoints() / pruned_functions) * full_functions;
    std::printf("auto-space: pruned function axis to %zu of %zu interposable "
                "functions; %zu of %zu points\n",
                pruned_functions, full_functions, space.TotalPoints(), full_points);
  }
  const std::string target_label =
      real_backend ? "real:" + options.target_cmd : options.target;
  std::printf("target %s, space '%s' with %zu points, strategy %s, budget %zu, seed %llu"
              ", jobs %zu\n",
              target_label.c_str(), space.name().c_str(), space.TotalPoints(),
              options.strategy.c_str(), options.budget,
              static_cast<unsigned long long>(options.seed), options.jobs);

  std::unique_ptr<Explorer> explorer = MakeExplorer(options, space);
  if (explorer == nullptr) {
    return 2;
  }
  if (options.auto_space && options.strategy == "fitness" && profile.has_value()) {
    // Callsite-weight priors: bias the first parent selections toward the
    // functions the target calls from the most places. Hints are not
    // results — they age out as real fitness arrives.
    size_t seeded = analysis::SeedExplorerFromProfile(
        static_cast<FitnessExplorer&>(*explorer), space, *profile);
    if (seeded > 0) {
      std::printf("auto-space: seeded %zu priority hints from callsite weights\n", seeded);
    }
  }

  CampaignMeta meta;
  meta.target = target_label;
  meta.strategy = options.strategy;
  meta.seed = options.seed;
  meta.space_fingerprint = FaultSpaceFingerprint(space);
  meta.jobs = options.jobs;
  meta.feedback = options.feedback;
  if (profile.has_value()) {
    meta.analysis_fingerprint = analysis::TargetProfileFingerprint(*profile);
  }

  const SearchTarget search_target{.max_tests = options.budget};
  size_t replayed_tests = 0;   // journal records consumed by --resume
  double campaign_seconds = 0.0;

  // Declared at function scope: the report section below reads the
  // session's result and clusterer, and the session holds references to
  // the store (observer) and the node backends (runners). Node 0 is
  // `backend`; nodes 1..jobs-1 each get their own backend (its own coverage
  // accumulator, and for real targets its own scratch root), as on a real
  // cluster where every machine observes coverage locally.
  std::optional<CampaignStore> store;
  std::vector<std::unique_ptr<TargetBackend>> extra_backends;
  std::vector<TargetBackend*> nodes{backend};
  std::optional<ExplorationSession> session;

  // Campaign telemetry (src/obs): constructed only when one of the three
  // observability flags asked for it — otherwise every instrumentation site
  // keeps its null sink and the campaign runs exactly as before.
  std::optional<obs::CampaignTelemetry> telemetry;
  if (!options.metrics_file.empty() || !options.trace_file.empty() ||
      options.status_interval > 0.0) {
    obs::TelemetryConfig telemetry_config;
    telemetry_config.trace = !options.trace_file.empty();
    telemetry_config.progress.interval_seconds = options.status_interval;
    telemetry_config.progress.budget = options.budget;
    // The session's distinct-block count is the cross-node union.
    telemetry_config.progress.coverage_fraction = [backend, &session]() -> double {
      uint32_t total = backend->coverage_total_blocks();
      return total == 0 ? 0.0
                        : static_cast<double>(session->result().blocks_covered) / total;
    };
    if (options.strategy == "fitness") {
      auto* fitness = static_cast<FitnessExplorer*>(explorer.get());
      telemetry_config.progress.pool_size = [fitness] {
        return fitness->priority_queue_size();
      };
    }
    telemetry.emplace(std::move(telemetry_config));
  }
  obs::MetricsSink* metrics_sink = telemetry.has_value() ? &*telemetry : nullptr;
  backend->set_metrics_sink(metrics_sink);

  try {
    // Warm start (paper §7 knowledge reuse): seed the fitness search with a
    // prior campaign's measured fitness before the first candidate. The
    // seeded knowledge is part of the campaign identity — a warm-started
    // journal only resumes with the same --warm-start file, since the seeds
    // determine the candidate sequence being replayed.
    if (!options.warm_start.empty()) {
      CampaignStore prior = CampaignStore::Open(options.warm_start);
      meta.warm_fingerprint = WarmStartFingerprint(space, prior.records());
      size_t seeded =
          WarmStartFromRecords(static_cast<FitnessExplorer&>(*explorer), prior.records());
      std::printf("warm-start: seeded %zu of %zu prior results from %s\n", seeded,
                  prior.records().size(), options.warm_start.c_str());
    }

    if (!options.journal.empty()) {
      store = options.resume ? CampaignStore::Open(options.journal, meta)
                             : CampaignStore::Create(options.journal, meta);
    }
    if (options.resume && store->records().size() > options.budget) {
      // A smaller budget would truncate completed results out of the
      // journal (and over-run the requested budget on replay).
      std::fprintf(stderr,
                   "--budget=%zu is smaller than the %zu tests already journaled in '%s'; "
                   "resume with --budget >= %zu\n",
                   options.budget, store->records().size(), options.journal.c_str(),
                   store->records().size());
      return 2;
    }

    SessionConfig session_config;
    session_config.redundancy_feedback = options.feedback;
    session_config.metrics = metrics_sink;
    if (store.has_value()) {
      session_config.record_observer = store->MakeObserver();
      store->SetMetricsSink(metrics_sink);
    }

    auto print_replay_mismatch = [&options] {
      std::fprintf(stderr,
                   "journal '%s' does not replay against this configuration "
                   "(was it written by a different build?)\n",
                   options.journal.c_str());
    };

    for (size_t i = 1; i < options.jobs; ++i) {
      if (real_backend) {
        extra_backends.push_back(std::make_unique<exec::RealTargetHarness>(real_config));
      } else {
        extra_backends.push_back(std::make_unique<TargetHarness>(suite, harness_seed));
      }
      extra_backends.back()->set_metrics_sink(metrics_sink);
      nodes.push_back(extra_backends.back().get());
    }
    std::vector<Runner> runners;
    for (TargetBackend* node : nodes) {
      runners.push_back(node->MakeRunner(space));
    }
    session.emplace(*explorer, std::move(runners), session_config);
    if (options.resume) {
      for (const SessionRecord& record : store->records()) {
        if (!session->Replay(record)) {
          print_replay_mismatch();
          return 2;
        }
      }
      replayed_tests = session->result().tests_executed;
      size_t pending = store->records().size() - replayed_tests;
      store->CommitResume(replayed_tests);
      for (size_t i = 0; i < nodes.size(); ++i) {
        nodes[i]->SeedCoverage(store->CoverageIdsForNode(i));
      }
      std::printf("resumed %zu journaled tests from %s", replayed_tests,
                  options.journal.c_str());
      if (pending > 0) {
        std::printf(" (%zu from an incomplete round will re-execute)", pending);
      }
      std::printf("\n");
    }
    auto started = std::chrono::steady_clock::now();
    const SessionResult& result = session->Run(search_target);
    campaign_seconds =
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
    for (const TargetBackend* node : nodes) {
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
    // Every covered block was new to its node exactly once, so the union
    // of per-record new-block ids is every block covered on any node.
    CoverageAccumulator covered(backend->coverage_total_blocks(),
                                backend->coverage_recovery_base());
    for (const SessionRecord& r : result.records) {
      covered.MergeIds(r.outcome.new_block_ids);
    }
    std::printf("coverage %.1f%% (recovery %.1f%%)", 100 * covered.Fraction(),
                100 * covered.RecoveryFraction());
    if (options.jobs > 1) {
      std::printf(" across %zu nodes", options.jobs);
    }
    std::printf("\n");
  } catch (const CampaignError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  // Telemetry outputs: snapshot file, trace file, and the phase-share note
  // folded into the report synopsis (and the JSON export below).
  std::optional<obs::MetricsSnapshot> metrics_snapshot;
  if (telemetry.has_value()) {
    metrics_snapshot = telemetry->Snapshot();
    if (!options.metrics_file.empty()) {
      if (!telemetry->WriteMetricsFile(options.metrics_file)) {
        std::fprintf(stderr, "cannot write metrics file '%s'\n",
                     options.metrics_file.c_str());
        return 2;
      }
      std::printf("wrote metrics snapshot to %s\n", options.metrics_file.c_str());
    }
    if (!options.trace_file.empty()) {
      if (!telemetry->WriteTraceFile(options.trace_file)) {
        std::fprintf(stderr, "cannot write trace file '%s'\n", options.trace_file.c_str());
        return 2;
      }
      std::printf("wrote %llu trace events to %s (load in Perfetto or "
                  "chrome://tracing)\n",
                  static_cast<unsigned long long>(telemetry->trace().total_events()),
                  options.trace_file.c_str());
    }
  }

  ReportBuilder builder(space, options.strategy);
  if (telemetry.has_value()) {
    builder.set_telemetry_note(telemetry->SynopsisLine());
  }
  Report report = builder.Build(session->result(), session->clusterer(),
                                /*min_impact=*/options.crashes_only ? 20.0 : 10.0);
  std::printf("\n%s", builder.Render(report).c_str());
  std::printf("\ntop findings (one representative per behaviour cluster):\n");
  size_t shown = 0;
  for (const Finding& f : report.representatives) {
    if (options.crashes_only && !f.crashed) {
      continue;
    }
    std::printf("\n%s", builder.GenerateReproScript(f).c_str());
    if (++shown >= options.top) {
      break;
    }
  }
  if (shown == 0) {
    std::printf("  (none above the impact threshold)\n");
  }

  if (!options.export_format.empty()) {
    std::ofstream file;
    bool to_stdout = options.export_file == "-";
    if (!to_stdout) {
      file.open(options.export_file);
      if (!file) {
        std::fprintf(stderr, "cannot open export file '%s'\n", options.export_file.c_str());
        return 2;
      }
    }
    std::ostream& out = to_stdout ? std::cout : file;
    if (options.export_format == "csv") {
      ExportCsv(space, session->result(), out);
    } else {
      ExportJson(meta, space, session->result(), out,
                 metrics_snapshot.has_value() ? &*metrics_snapshot : nullptr);
    }
    out.flush();
    if (!out) {
      std::fprintf(stderr, "error writing export to '%s'\n", options.export_file.c_str());
      return 2;
    }
    if (!to_stdout) {
      std::printf("\nexported %s to %s\n", options.export_format.c_str(),
                  options.export_file.c_str());
    }
  }
  return 0;
}
