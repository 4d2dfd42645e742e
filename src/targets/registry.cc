// FindSimTarget (declared in targets/harness.h). Its own object file, so
// binaries that use TargetHarness without the registry link only the
// suites they name.
#include "targets/coreutils/suite.h"
#include "targets/docstore/suite.h"
#include "targets/harness.h"
#include "targets/minidb/suite.h"
#include "targets/webserver/suite.h"

namespace afex {

const SimTarget* FindSimTarget(std::string_view name) {
  static constexpr SimTarget kTargets[] = {
      {"coreutils", &coreutils::MakeSuite, 2, true},
      {"minidb", &minidb::MakeSuite, 100, false},
      {"webserver", &webserver::MakeSuite, 10, false},
      {"docstore-v0.8", &docstore::MakeSuiteV08, 10, false},
      {"docstore-v2.0", &docstore::MakeSuiteV20, 10, false},
  };
  for (const SimTarget& target : kTargets) {
    if (name == target.name) {
      return &target;
    }
  }
  return nullptr;
}

}  // namespace afex
