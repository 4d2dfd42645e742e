// Recipe: a campaign defined once. The paper's prototype (§6) describes a
// campaign by a fault-space description plus the target's start scripts,
// and every node and later session works from that one definition. A
// Recipe holds every setting that shapes a campaign's records; each is a
// flag declared by one row of the table in recipe.cc (spelling, value
// check, help line, canonical value), which afex_cli's parser and usage
// text, the journal's copy (CampaignMeta::recipe) and resume's conflict
// check all read. Deployment paths stay out: the interposer, the journal,
// and the export, metrics and trace files.
#ifndef AFEX_CAMPAIGN_RECIPE_H_
#define AFEX_CAMPAIGN_RECIPE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "campaign/serde.h"
#include "core/explorer.h"
#include "core/fault_space.h"
#include "core/session.h"

namespace afex {

// A campaign wired from a recipe, ready for an ExplorationSession. Pinned
// in memory: the explorer and the runners refer to `space` and `nodes`.
struct Campaign {
  FaultSpace space;
  std::unique_ptr<Explorer> explorer;
  // The identity CampaignStore::Create journals and Open(path, meta) checks.
  CampaignMeta meta;
  // One backend per session node, each with its own coverage accumulator
  // (and scratch root), as on a cluster; runners[i] runs on nodes[i].
  std::vector<std::unique_ptr<TargetBackend>> nodes;
  std::vector<Runner> runners;
};

struct Recipe {
  std::string backend = "sim";       // sim | real
  std::string target = "coreutils";  // built-in simulated target (sim)
  // Real-backend command lines, split on spaces; {test} = 1-based test id.
  std::string target_cmd;
  std::string recovery_cmd;  // two-phase crash→recover→verify
  std::string verify_cmd;
  std::string exec_mode = "spawn";  // spawn | persistent
  std::string coverage = "auto";    // auto | proxy | edges
  uint64_t timeout_ms = 5000;
  uint64_t num_tests = 6;  // real test-axis cardinality
  uint64_t max_call = 0;   // 0 = the target's default
  // Space DSL text in FormatSpaceSpec's rendering; "" = the target's
  // canonical <test, function, call> space.
  std::string space;
  bool auto_space = false;
  std::string strategy = "fitness";  // fitness | random | exhaustive
  uint64_t seed = 1;
  uint64_t jobs = 1;
  bool feedback = false;
  std::string warm_start;  // prior journal seeding the fitness pool
  uint64_t budget = 500;   // the one field a resume may change

  // Parses flags ("--name=value" or "--switch"). On a command line
  // --space names a file, whose description is read here, once; with
  // `files_inline` (ToArgs's form) the value is the description itself.
  // Throws CampaignError on an unknown argument, a bad value, or flags
  // that conflict with each other.
  static Recipe FromArgs(const std::vector<std::string>& args, bool files_inline = false);

  // The recipe a resume runs: `stored` with `args` applied. --budget may
  // change; any other flag must equal the stored value, else CampaignError
  // names the flag and both values.
  static Recipe Resume(const Recipe& stored, const std::vector<std::string>& args);

  // The canonical flags: --backend, then every flag whose value differs
  // from its default, in table order, with the space description inline.
  // FromArgs(args, /*files_inline=*/true) inverts it.
  std::vector<std::string> ToArgs() const;

  // One usage line per recipe flag.
  static std::string Usage();

  // Wires the campaign, in order: static analysis and coverage resolution
  // (real), the space and its fail-fast checks, the explorer with
  // callsite priors and warm start, the meta, and the node backends with
  // their runners. `interposer` is the libafex_interpose.so path; "" means
  // $AFEX_INTERPOSE, else the build tree's copy next to this executable.
  // Progress notes (the campaign header, auto-space and warm-start
  // summaries) go to `notes` when non-null. Throws CampaignError.
  std::unique_ptr<Campaign> Build(const std::string& interposer, std::FILE* notes) const;
};

}  // namespace afex

#endif  // AFEX_CAMPAIGN_RECIPE_H_
