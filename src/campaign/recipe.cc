#include "campaign/recipe.h"

#include <unistd.h>

#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <variant>

#include "analysis/target_profile.h"
#include "campaign/store.h"
#include "core/fitness_explorer.h"
#include "core/space_lang.h"
#include "exec/real_target_harness.h"
#include "injection/plan.h"
#include "targets/harness.h"
#include "util/log.h"
#include "util/strings.h"

namespace afex {
namespace {

namespace fs = std::filesystem;

// Which backend a flag belongs to; naming it under the other is an error.
enum class Scope { kAny, kSim, kReal };

// One recipe flag: the table below is its only declaration. A text flag
// whose placeholder reads "<a|b|...>" takes exactly those values.
struct Flag {
  const char* name;
  const char* value;  // usage placeholder; nullptr marks a switch
  const char* help;
  Scope scope;
  std::variant<std::string Recipe::*, uint64_t Recipe::*, bool Recipe::*> field;
  uint64_t min = 0;          // a number's smallest valid value
  bool description = false;  // a fault-space description; a command line names its file
};

const Flag kFlags[] = {
    {"backend", "<sim|real>",
     "sim: a built-in simulated target; real: --target-cmd under the LD_PRELOAD injector",
     Scope::kAny, &Recipe::backend},
    // The names FindSimTarget knows (targets/harness.cc).
    {"target", "<coreutils|minidb|webserver|docstore-v0.8|docstore-v2.0>",
     "built-in simulated target", Scope::kSim, &Recipe::target},
    {"target-cmd", "'BIN ARGS...'", "real target command; {test} = test id (appended if absent)",
     Scope::kReal, &Recipe::target_cmd},
    {"recovery-cmd", "'BIN ARGS...'",
     "after every test, in its sandbox without the interposer; exit != 0 marks recfail=1",
     Scope::kReal, &Recipe::recovery_cmd},
    {"verify-cmd", "'BIN ARGS...'", "checks invariants after recovery; exit != 0 marks inv=1",
     Scope::kReal, &Recipe::verify_cmd},
    {"exec-mode", "<spawn|persistent>",
     "vfork+exec per test, or a pre-main fork server (afex_persistent_run iterations)",
     Scope::kReal, &Recipe::exec_mode},
    {"coverage", "<auto|proxy|edges>",
     "fitness signal: libc-call proxy, sancov edges, or edges if analysis finds them",
     Scope::kReal, &Recipe::coverage},
    {"timeout-ms", "N", "time budget of every process a test runs", Scope::kReal,
     &Recipe::timeout_ms, 1},
    {"num-tests", "N", "test-axis cardinality of the real target", Scope::kReal,
     &Recipe::num_tests, 1},
    {"max-call", "N", "call-axis bound; 0 = the target's default", Scope::kAny,
     &Recipe::max_call},
    {"space", "FILE", "fault-space description (one subspace) to explore", Scope::kAny,
     &Recipe::space, 0, true},
    {"auto-space", nullptr, "function axis = the interposable imports; callsite-weight priors",
     Scope::kReal, &Recipe::auto_space},
    {"strategy", "<fitness|random|exhaustive>", "search strategy", Scope::kAny,
     &Recipe::strategy},
    {"seed", "N", "search seed", Scope::kAny, &Recipe::seed},
    {"jobs", "N", "session nodes; records are deterministic for a fixed N", Scope::kAny,
     &Recipe::jobs, 1},
    {"feedback", nullptr, "online redundancy feedback (paper §7.4)", Scope::kAny,
     &Recipe::feedback},
    {"warm-start", "FILE", "seeds a fitness search with a prior journal's results",
     Scope::kAny, &Recipe::warm_start},
    {"budget", "N", "tests to run; the one flag a --resume may change", Scope::kAny,
     &Recipe::budget, 1},
};

// Parsers: each stores a valid value and returns "", or returns what the
// flag expects.
std::string Parse(const std::string& /*value*/, const Flag& /*flag*/, bool& out) {
  out = true;
  return "";
}

std::string Parse(const std::string& value, const Flag& flag, uint64_t& out) {
  uint64_t parsed = 0;
  if (!ParseUint(value, parsed) || parsed < flag.min) {
    return "expects an integer >= " + std::to_string(flag.min) + ", got '" + value + "'";
  }
  out = parsed;
  return "";
}

std::string Parse(const std::string& value, const Flag& flag, std::string& out) {
  if (flag.description) {
    try {
      UniverseSpec spec = ParseFaultSpaceDescription(value);
      if (spec.spaces.size() != 1) {
        return "describes " + std::to_string(spec.spaces.size()) +
               " subspaces; afex_cli explores one at a time";
      }
      out = FormatSpaceSpec(spec.spaces[0]);
      return "";
    } catch (const SpaceLangError& e) {
      return std::string("description: ") + e.what();
    }
  }
  const std::string_view placeholder = flag.value;
  if (!placeholder.starts_with('<')) {
    out = value;
    return "";
  }
  std::vector<std::string_view> choices =
      SplitViews(placeholder.substr(1, placeholder.size() - 2), '|');
  std::string expected;
  for (size_t i = 0; i < choices.size(); ++i) {
    if (value == choices[i]) {
      out = value;
      return "";
    }
    const char* separator = i + 1 < choices.size() ? ", " : choices.size() > 2 ? ", or " : " or ";
    expected += (i == 0 ? "'" : separator + std::string("'")) + std::string(choices[i]) + "'";
  }
  return "expects " + expected + ", got '" + value + "'";
}

std::string Set(const Flag& flag, Recipe& r, const std::string& value) {
  return std::visit([&](auto field) { return Parse(value, flag, r.*field); }, flag.field);
}

std::string Format(const std::string& v) { return v; }
std::string Format(uint64_t v) { return std::to_string(v); }
std::string Format(bool v) { return v ? "on" : "off"; }

// The flag's canonical value in `r`.
std::string Get(const Flag& flag, const Recipe& r) {
  return std::visit([&r](auto field) { return Format(r.*field); }, flag.field);
}

// Applies one "--name=value" (or "--switch") argument; returns its flag.
// With `file_values` a description flag's value names the file holding it.
const Flag& Apply(Recipe& recipe, std::string_view arg, bool file_values) {
  const size_t eq = arg.find('=');
  for (const Flag& flag : kFlags) {
    const std::string spelling = "--" + std::string(flag.name);
    if (arg.substr(0, eq) != spelling || (flag.value == nullptr) != (eq == arg.npos)) {
      continue;
    }
    std::string value(eq == arg.npos ? "" : arg.substr(eq + 1));
    if (spelling == "--exec-mode" && value == "forkserver") {
      value = "persistent";  // the retired server mode, still named by v4 journals
    }
    if (flag.description && file_values) {
      std::ifstream in(value);
      if (!in) {
        throw CampaignError("cannot open " + spelling + " file '" + value + "'");
      }
      value.assign(std::istreambuf_iterator<char>(in), {});
    }
    if (std::string error = Set(flag, recipe, value); !error.empty()) {
      throw CampaignError(spelling + " " + error);
    }
    return flag;
  }
  throw CampaignError("unknown argument: " + std::string(arg));
}

// The rules between flags: backend scopes, and the pairs that conflict.
void Check(const Recipe& r, const std::vector<const Flag*>& given) {
  const bool real = r.backend == "real";
  for (const Flag* flag : given) {
    if (flag->scope != Scope::kAny && (flag->scope == Scope::kReal) != real) {
      throw CampaignError("--" + std::string(flag->name) + " only applies to --backend=" +
                          (real ? "sim; with --backend=real the system under test is "
                                  "--target-cmd"
                                : "real"));
    }
  }
  if (real && r.target_cmd.empty()) {
    throw CampaignError("--backend=real requires --target-cmd='BIN ARGS...'");
  }
  if (r.auto_space && !r.space.empty()) {
    throw CampaignError(
        "--auto-space derives the fault space from the binary; it conflicts with --space");
  }
  if (!r.warm_start.empty() && r.strategy != "fitness") {
    throw CampaignError("--warm-start only applies to --strategy=fitness");
  }
}

[[gnu::format(printf, 2, 3)]] void Note(std::FILE* out, const char* format, ...) {
  if (out == nullptr) {
    return;
  }
  va_list args;
  va_start(args, format);
  std::vfprintf(out, format, args);
  va_end(args);
}

// Splits a command flag on spaces (no quoting: target commands are simple
// "binary arg..." lines; anything richer belongs in a wrapper script) and
// resolves its binary to an existing executable file: paths (anything with
// a '/') must exist as given, bare names get execvp's $PATH search. A
// missing binary fails here, not as every test's "exec: failed to start".
std::vector<std::string> SplitCommand(const char* flag, const std::string& cmd,
                                      std::string& binary) {
  std::vector<std::string> argv;
  std::istringstream in(cmd);
  for (std::string word; in >> word;) {
    argv.push_back(word);
  }
  if (argv.empty()) {
    throw CampaignError("--" + std::string(flag) + " is empty after splitting");
  }
  std::error_code ec;
  const bool bare = argv[0].find('/') == std::string::npos;
  if (!bare && fs::is_regular_file(argv[0], ec)) {
    binary = fs::absolute(argv[0], ec).string();
    return argv;
  }
  const char* path = std::getenv("PATH");
  std::istringstream dirs(bare && path != nullptr ? path : "");
  for (std::string dir; std::getline(dirs, dir, ':');) {
    fs::path candidate = fs::path(dir) / argv[0];
    if (!dir.empty() && fs::is_regular_file(candidate, ec) &&
        ::access(candidate.c_str(), X_OK) == 0) {
      binary = candidate.string();
      return argv;
    }
  }
  throw CampaignError("--" + std::string(flag) + " binary '" + argv[0] + "' does not exist" +
                      (bare ? " in $PATH" : ""));
}

// The real backend's harness config, with every binary resolved.
exec::RealTargetConfig RealConfig(const Recipe& r, std::string interposer,
                                  std::string& target_binary) {
  exec::RealTargetConfig config;
  config.target_argv = SplitCommand("target-cmd", r.target_cmd, target_binary);
  // The two-phase commands get the same checks: a typo'd verifier path
  // should fail before the campaign, not mark every record inv=1.
  for (auto [flag, cmd, argv] : {std::tuple("recovery-cmd", &r.recovery_cmd, &config.recovery_argv),
                                 std::tuple("verify-cmd", &r.verify_cmd, &config.verify_argv)}) {
    std::string binary;
    if (!cmd->empty()) {
      *argv = SplitCommand(flag, *cmd, binary);
      (*argv)[0] = binary;
    }
  }
  config.num_tests = r.num_tests;
  config.timeout_ms = r.timeout_ms;
  config.exec_mode =
      r.exec_mode == "persistent" ? exec::ExecMode::kPersistent : exec::ExecMode::kSpawn;
  // The interposer: as given, else $AFEX_INTERPOSE, else the build tree's
  // copy relative to this executable.
  std::error_code ec;
  const fs::path built = fs::read_symlink("/proc/self/exe", ec).parent_path().parent_path() /
                         "src/exec/libafex_interpose.so";
  if (const char* env = std::getenv("AFEX_INTERPOSE"); interposer.empty() && env != nullptr) {
    interposer = env;
  }
  if (interposer.empty() && !ec && fs::exists(built, ec)) {
    interposer = built.string();
  }
  if (interposer.empty()) {
    throw CampaignError(
        "cannot locate libafex_interpose.so; pass --interposer=PATH (without it no fault is "
        "ever injected)");
  }
  if (!fs::is_regular_file(interposer, ec)) {
    throw CampaignError("--interposer '" + interposer + "' does not exist");
  }
  config.interposer_path = std::move(interposer);
  return config;
}

// Fails fast on a space whose function axis names functions the
// interposer cannot wrap (every such point would report as a test failure
// and steer the fitness loop toward uninjectable faults), or, for a user
// space, functions the binary never imports (faults it cannot
// experience). The default full axis deliberately explores blind.
void CheckRealSpace(const FaultSpace& space, const analysis::TargetProfile* profile,
                    bool user_space) {
  for (const Axis& axis : space.axes()) {
    if (axis.name() != "function") {
      continue;
    }
    for (const std::string& label : axis.labels()) {
      const std::optional<LibcFn> fn = FindLibcFn(label);
      if (!fn.has_value() || LibcRow(*fn).slot < 0) {
        throw CampaignError("space function axis names '" + label +
                            "', which the real-process interposer does not wrap (see "
                            "src/injection/libc_table.h)");
      }
    }
  }
  std::vector<std::string> unimported;
  if (profile != nullptr && user_space) {
    unimported = analysis::UnimportedSpaceFunctions(*profile, space);
  }
  if (!unimported.empty()) {
    throw CampaignError("space function axis names " + std::to_string(unimported.size()) +
                        " function(s) the target binary never imports: " +
                        Join(unimported, ", ") +
                        "\n(re-run with --auto-space, or check afex_analyze output for the "
                        "importable set)");
  }
}

}  // namespace

Recipe Recipe::FromArgs(const std::vector<std::string>& args, bool files_inline) {
  Recipe recipe;
  std::vector<const Flag*> given;
  for (const std::string& arg : args) {
    given.push_back(&Apply(recipe, arg, /*file_values=*/!files_inline));
  }
  Check(recipe, given);
  return recipe;
}

Recipe Recipe::Resume(const Recipe& stored, const std::vector<std::string>& args) {
  Recipe resumed = stored;
  for (const std::string& arg : args) {
    Recipe probe = resumed;
    const Flag& flag = Apply(probe, arg, /*file_values=*/true);
    if (std::strcmp(flag.name, "budget") == 0) {
      resumed = probe;
    } else if (Get(flag, probe) != Get(flag, stored)) {
      throw CampaignError("--" + std::string(flag.name) +
                          " conflicts with the journal's recipe: journal has '" +
                          Get(flag, stored) + "', command line has '" + Get(flag, probe) + "'");
    }
  }
  return resumed;
}

std::vector<std::string> Recipe::ToArgs() const {
  // The backend always leads, so even an all-default recipe is non-empty.
  const Recipe defaults;
  std::vector<std::string> args;
  for (const Flag& flag : kFlags) {
    const std::string value = Get(flag, *this);
    if (&flag == &kFlags[0] || value != Get(flag, defaults)) {
      args.push_back("--" + std::string(flag.name) + (flag.value == nullptr ? "" : "=" + value));
    }
  }
  return args;
}

std::string Recipe::Usage() {
  std::string out;
  for (const Flag& flag : kFlags) {
    out += "  --" + std::string(flag.name) +
           (flag.value == nullptr ? "" : "=" + std::string(flag.value)) + "\n      " +
           flag.help + "\n";
  }
  return out;
}

std::unique_ptr<Campaign> Recipe::Build(const std::string& interposer, std::FILE* notes) const {
  FromArgs(ToArgs(), /*files_inline=*/true);  // checks a recipe set up in code
  auto campaign = std::make_unique<Campaign>();
  Campaign& c = *campaign;
  const bool real = backend == "real";
  std::function<std::unique_ptr<TargetBackend>()> make_node;
  std::optional<analysis::TargetProfile> profile;
  size_t default_max_call = 8;
  bool zero_call = false;
  if (real) {
    std::string binary;
    exec::RealTargetConfig config = RealConfig(*this, interposer, binary);
    // Static target analysis (paper §7): --auto-space depends on it; for
    // hand-written spaces it backs the unimported-function fail-fast and
    // the meta fingerprint that lets resume detect a rebuilt target. A
    // non-ELF64 target (a script, say) is only fatal under --auto-space.
    std::string error;
    profile = analysis::AnalyzeTargetBinary(binary, error);
    if (!profile.has_value() && auto_space) {
      throw CampaignError("--auto-space: cannot analyze '" + binary + "': " + error);
    }
    if (!profile.has_value()) {
      std::fprintf(stderr,
                   "warning: static analysis of '%s' unavailable (%s); space/import checks "
                   "skipped\n",
                   binary.c_str(), error.c_str());
    }
    if (auto_space) {
      config.functions = profile->InterposableImports();
      if (config.functions.empty()) {
        throw CampaignError("--auto-space: '" + binary + "' imports none of the " +
                            std::to_string(exec::InterposableFunctions().size()) +
                            " interposable libc functions; there is no fault space to explore");
      }
    }
    // Coverage signal (README "Coverage feedback"): edges need a sancov
    // build, which analysis detects; `edges` against a provably
    // uninstrumented target fails here, not after a whole campaign of
    // real.edges_missing records.
    const bool sancov = profile.has_value() && profile->sancov_instrumented;
    if (coverage == "edges" && profile.has_value() && !sancov) {
      throw CampaignError("--coverage=edges: '" + binary +
                          "' is not sancov-instrumented (build the target with "
                          "-fsanitize-coverage, e.g. the afex_*_cov variants), or use "
                          "--coverage=proxy");
    }
    config.use_edges = coverage == "edges" || (coverage == "auto" && sancov);
    AFEX_LOG(kInfo) << "coverage signal: " << (config.use_edges ? "sancov edges" : "libc proxy");
    make_node = [config] { return std::make_unique<exec::RealTargetHarness>(config); };
  } else {
    const SimTarget* sim = FindSimTarget(target);
    if (sim == nullptr) {
      throw CampaignError("--target '" + target + "' is not in the sim-target registry");
    }
    default_max_call = sim->default_max_call;
    zero_call = sim->zero_call;
    make_node = [suite = sim->make_suite(), harness_seed = seed ^ 0x5eed] {
      return std::make_unique<TargetHarness>(suite, harness_seed);
    };
  }
  c.nodes.push_back(make_node());

  const size_t calls = max_call > 0 ? max_call : default_max_call;
  if (!space.empty()) {
    c.space = BuildFaultSpace(ParseFaultSpaceDescription(space).spaces[0],
                              real ? "real" : target);
  } else if (real) {
    c.space = static_cast<exec::RealTargetHarness&>(*c.nodes[0]).MakeSpace(calls, zero_call);
  } else {
    c.space = static_cast<TargetHarness&>(*c.nodes[0]).MakeSpace(calls, zero_call);
  }
  try {
    // Every node decodes with this space; a label it cannot decode fails
    // here, before any test runs or any journal is written.
    FaultDecoder{c.space};
  } catch (const std::invalid_argument& e) {
    throw CampaignError(std::string("--space: ") + e.what());
  }
  if (real) {
    CheckRealSpace(c.space, profile.has_value() ? &*profile : nullptr, !space.empty());
  }
  if (auto_space) {
    // Both sizes, so the pruning is visible: the derived space vs. the
    // full interposable space the same flags explore without analysis.
    const size_t full = exec::InterposableFunctions().size();
    const size_t pruned = profile->InterposableImports().size();
    Note(notes,
         "auto-space: pruned function axis to %zu of %zu interposable functions; %zu of %zu "
         "points\n",
         pruned, full, c.space.TotalPoints(), c.space.TotalPoints() / pruned * full);
  }
  c.meta.target = real ? "real:" + target_cmd : target;
  Note(notes,
       "target %s, space '%s' with %zu points, strategy %s, budget %zu, seed %llu, jobs %zu\n",
       c.meta.target.c_str(), c.space.name().c_str(), c.space.TotalPoints(), strategy.c_str(),
       budget, static_cast<unsigned long long>(seed), jobs);

  c.explorer = MakeExplorer(strategy, c.space, seed);
  if (auto_space && strategy == "fitness") {
    // Callsite-weight priors bias the first parent selections toward the
    // functions called from the most places; they age out as real fitness
    // arrives.
    size_t seeded = analysis::SeedExplorerFromProfile(static_cast<FitnessExplorer&>(*c.explorer),
                                                      c.space, *profile);
    if (seeded > 0) {
      Note(notes, "auto-space: seeded %zu priority hints from callsite weights\n", seeded);
    }
  }
  if (!warm_start.empty()) {
    // Warm start (paper §7 knowledge reuse). The seeds are part of the
    // identity: they determine the candidate sequence a resume replays.
    CampaignStore prior = CampaignStore::Open(warm_start);
    c.meta.warm_fingerprint = WarmStartFingerprint(c.space, prior.records());
    size_t seeded =
        WarmStartFromRecords(static_cast<FitnessExplorer&>(*c.explorer), prior.records());
    Note(notes, "warm-start: seeded %zu of %zu prior results from %s\n", seeded,
         prior.records().size(), warm_start.c_str());
  }

  c.meta.strategy = strategy;
  c.meta.seed = seed;
  c.meta.space_fingerprint = FaultSpaceFingerprint(c.space);
  c.meta.jobs = jobs;
  c.meta.feedback = feedback;
  if (profile.has_value()) {
    c.meta.analysis_fingerprint = analysis::TargetProfileFingerprint(*profile);
  }
  c.meta.recipe = ToArgs();
  while (c.nodes.size() < jobs) {
    c.nodes.push_back(make_node());
  }
  for (const std::unique_ptr<TargetBackend>& node : c.nodes) {
    c.runners.push_back(node->MakeRunner(c.space));
  }
  return campaign;
}

}  // namespace afex
