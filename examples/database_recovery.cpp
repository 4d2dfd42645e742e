// Domain example: testing a DBMS's recovery code — the paper's MySQL
// scenario (§7.1). Uses a crash-emphasizing impact metric (as §7 does for
// MySQL) and shows both seeded real-world bugs being found automatically:
// the Fig. 6 double-unlock in table creation (MySQL #53268) and the
// errmsg.sys use-after-failed-read (MySQL #25097).
//
// Build & run:  ./build/examples/database_recovery
#include <cstdio>
#include <map>

#include "core/fitness_explorer.h"
#include "core/session.h"
#include "injection/plan.h"
#include "targets/harness.h"
#include "targets/minidb/suite.h"

using namespace afex;

int main() {
  TargetSuite suite = minidb::MakeSuite();
  TargetHarness harness(suite);
  // Focus on the create/insert families with a moderate call depth; the
  // full Phi_MySQL (2.18M points) is bench/table1_minidb's job.
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("test", 1, 350));
  axes.push_back(Axis::MakeSet("function", suite.functions));
  axes.push_back(Axis::MakeInterval("call", 1, 12));
  FaultSpace space(std::move(axes), "minidb-recovery");

  SessionConfig config;
  config.policy.points_per_crash = 100.0;  // crashes matter most for a DBMS
  config.policy.points_per_hang = 50.0;

  FitnessExplorer explorer(space, {.seed = 5});
  ExplorationSession session(explorer, harness.MakeRunner(space), config);
  SessionResult result = session.Run({.max_tests = 1200});

  std::printf("%zu tests: %zu failed, %zu crashes, %zu hangs\n", result.tests_executed,
              result.failed_tests, result.crashes, result.hangs);

  // Categorize the crash scenarios by what broke.
  std::map<std::string, size_t> categories;
  std::map<std::string, std::string> example;
  for (const SessionRecord& r : result.records) {
    if (!r.outcome.crashed && !r.outcome.hung) {
      continue;
    }
    std::string category;
    if (r.outcome.detail.find("unlocked mutex") != std::string::npos) {
      category = "double unlock in mi_create (paper Fig. 6, MySQL #53268)";
    } else if (r.outcome.detail.find("errmsg") != std::string::npos) {
      category = "errmsg buffer used after failed load (MySQL #25097)";
    } else if (r.outcome.detail.find("divergence") != std::string::npos) {
      category = "deliberate abort: table/log divergence past commit point";
    } else if (r.outcome.detail.find("deadlock") != std::string::npos) {
      category = "engine mutex leak -> self-deadlock (hang)";
    } else {
      category = "other: " + r.outcome.detail;
    }
    if (++categories[category] == 1) {
      example[category] = FormatPlan(FaultDecoder(space).Decode(r.fault));
    }
  }

  std::printf("\ncrash/hang scenario categories found:\n");
  for (const auto& [category, count] : categories) {
    std::printf("  %4zu x %s\n         e.g. %s\n", count, category.c_str(),
                example[category].c_str());
  }

  bool found_bug1 = false;
  bool found_bug2 = false;
  for (const auto& [category, count] : categories) {
    found_bug1 |= category.find("double unlock") != std::string::npos;
    found_bug2 |= category.find("errmsg") != std::string::npos;
  }
  std::printf("\nboth paper bugs found automatically: %s\n",
              found_bug1 && found_bug2 ? "yes" : "no");
  return 0;
}
