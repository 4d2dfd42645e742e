// Reproduces §7.7: (a) the number of tests executed scales linearly with
// the number of node managers (the paper verified 1-14 EC2 nodes with
// virtually no overhead), and (b) the explorer in isolation generates
// thousands of tests per second (the paper measured ~8,500/s on a 2 GHz
// Xeon), so it can keep a large cluster fully busy.
//
// Simulated tests finish in microseconds, which would make queue overhead
// dominate; each node-manager test therefore waits for a fixed duration
// (default 1000us, override with argv[1]) to model the execution time real
// fault-injection tests have (the paper's take ~1 minute, dominated by
// workload wall-clock, not CPU). Latency-modelled tests overlap across
// managers exactly like real tests on separate cluster nodes, so the
// linear-scaling property is measurable even on a single-core host.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/fitness_explorer.h"
#include "core/session.h"
#include "targets/coreutils/suite.h"
#include "targets/harness.h"
#include "targets/minidb/suite.h"

using namespace afex;
using Clock = std::chrono::steady_clock;

namespace {

void SimulateTestDuration(std::chrono::microseconds duration) {
  std::this_thread::sleep_for(duration);
}

}  // namespace

int main(int argc, char** argv) {
  const auto test_cost =
      std::chrono::microseconds(argc > 1 ? std::atoll(argv[1]) : 1000);
  const size_t kTests = 512;

  std::printf("\n==== Scalability (paper 7.7): parallel node managers ====\n");
  std::printf("per-test simulated execution cost: %lldus, %zu tests per run\n\n",
              static_cast<long long>(test_cost.count()), kTests);
  std::printf("%10s %14s %12s %12s\n", "managers", "tests/sec", "speedup", "efficiency");

  TargetSuite suite = coreutils::MakeSuite();
  TargetHarness space_holder(suite);
  FaultSpace space = space_holder.MakeSpace(2, true);

  double base_rate = 0.0;
  for (size_t managers : {1, 2, 4, 8, 14}) {
    std::vector<std::unique_ptr<TargetHarness>> harnesses;
    std::vector<Runner> nodes;
    for (size_t i = 0; i < managers; ++i) {
      harnesses.push_back(std::make_unique<TargetHarness>(suite));
      nodes.push_back([runner = harnesses.back()->MakeRunner(space), test_cost](const Fault& f) {
        SimulateTestDuration(test_cost);
        return runner(f);
      });
    }
    FitnessExplorer explorer(space, {.seed = 1});
    ExplorationSession session(explorer, std::move(nodes));
    auto start = Clock::now();
    session.Run({.max_tests = kTests});
    double seconds = std::chrono::duration<double>(Clock::now() - start).count();
    double rate = kTests / seconds;
    if (managers == 1) {
      base_rate = rate;
    }
    std::printf("%10zu %14.0f %11.2fx %11.0f%%\n", managers, rate, rate / base_rate,
                100.0 * rate / base_rate / managers);
  }

  // Explorer-only throughput on a Phi_MySQL-sized space.
  std::printf("\n==== Explorer-only test generation throughput ====\n");
  TargetSuite db_suite = minidb::MakeSuite();
  FaultSpace db_space = TargetHarness(db_suite).MakeSpace(100, false);
  FitnessExplorer explorer(db_space, {.seed = 2});
  const size_t kGenerate = 200000;
  auto start = Clock::now();
  for (size_t i = 0; i < kGenerate; ++i) {
    auto f = explorer.NextCandidate();
    if (!f.has_value()) {
      break;
    }
    // Report a cheap synthetic fitness so the feedback path is exercised.
    explorer.ReportResult(*f, static_cast<double>(i % 7));
  }
  double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  std::printf("generated+reported %zu tests in %.2fs: %.0f tests/sec (paper: ~8,500/s)\n",
              kGenerate, seconds, kGenerate / seconds);
  return 0;
}
