// Google-benchmark microbenchmarks for the library's hot paths: explorer
// candidate generation, redundancy clustering, simulated-libc calls, and
// whole target tests. These quantify the §6.1 claim that candidate
// generation is orders of magnitude cheaper than test execution. The real
// backend's process launch is measured from a small and a large parent heap.
#include <benchmark/benchmark.h>

#include "core/clustering.h"
#include "core/fitness_explorer.h"
#include "core/random_explorer.h"
#include "exec/process_runner.h"
#include "sim/env.h"
#include "sim/process.h"
#include "sim/simlibc.h"
#include "targets/harness.h"
#include "targets/minidb/suite.h"
#include "targets/webserver/suite.h"
#include "util/levenshtein.h"

namespace afex {
namespace {

FaultSpace MySqlSizedSpace() {
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("test", 1, 1147));
  axes.push_back(Axis::MakeInterval("function", 1, 19));
  axes.push_back(Axis::MakeInterval("call", 1, 100));
  return FaultSpace(std::move(axes), "mysql-sized");
}

void BM_FitnessExplorerGenerate(benchmark::State& state) {
  FaultSpace space = MySqlSizedSpace();
  FitnessExplorer explorer(space, {.seed = 1});
  uint64_t i = 0;
  for (auto _ : state) {
    auto f = explorer.NextCandidate();
    benchmark::DoNotOptimize(f);
    explorer.ReportResult(*f, static_cast<double>(++i % 5));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FitnessExplorerGenerate);

void BM_RandomExplorerGenerate(benchmark::State& state) {
  FaultSpace space = MySqlSizedSpace();
  RandomExplorer explorer(space, 1);
  for (auto _ : state) {
    auto f = explorer.NextCandidate();
    benchmark::DoNotOptimize(f);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RandomExplorerGenerate);

void BM_ClustererAssign(benchmark::State& state) {
  RedundancyClusterer clusterer;
  // Pre-populate with a realistic number of distinct behaviours.
  for (int i = 0; i < 64; ++i) {
    clusterer.Assign({"main", "subsystem" + std::to_string(i % 8),
                      "site" + std::to_string(i)});
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clusterer.Assign(
        {"main", "subsystem" + std::to_string(i % 8), "site" + std::to_string(i % 70)}));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ClustererAssign);

void BM_LevenshteinStackTrace(benchmark::State& state) {
  std::vector<std::string> a = {"main", "ap_read_config", "ap_add_module", "strdup"};
  std::vector<std::string> b = {"main", "ap_read_config", "ap_listen_open", "socket"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(LevenshteinDistanceTokens(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LevenshteinStackTrace);

void BM_SimLibcFileRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    SimEnv env;
    SimLibc& libc = env.libc();
    uint64_t w = libc.Fopen("/f", "w");
    libc.Fwrite(w, "0123456789");
    libc.Fclose(w);
    uint64_t r = libc.Fopen("/f", "r");
    std::string line;
    libc.Fgets(r, line);
    libc.Fclose(r);
    benchmark::DoNotOptimize(line);
  }
}
BENCHMARK(BM_SimLibcFileRoundTrip);

void BM_MiniDbTestExecution(benchmark::State& state) {
  TargetSuite suite = minidb::MakeSuite();
  TargetHarness harness(suite);
  FaultSpace space = harness.MakeSpace(100, false);
  Fault fault({200, 10, 3});  // an insert-family test with a write fault
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness.RunFault(space, fault));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MiniDbTestExecution);

void BM_WebServerTestExecution(benchmark::State& state) {
  TargetSuite suite = webserver::MakeSuite();
  TargetHarness harness(suite);
  FaultSpace space = harness.MakeSpace(10, false);
  Fault fault({12, 4, 2});
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness.RunFault(space, fault));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_WebServerTestExecution);

// Starts /bin/true, as spawn mode starts each target, from a parent that has
// touched state.range(0) MB of heap (a campaign's caches and records): a
// launch that copied the parent's address space would slow down with it.
void BM_RunProcessTrue(benchmark::State& state) {
  std::vector<char> heap(static_cast<size_t>(state.range(0)) << 20, 1);
  exec::ProcessRequest request;
  request.argv = {"/bin/true"};
  for (auto _ : state) {
    const exec::ProcessResult result = exec::RunProcess(request);
    if (!result.exited || result.exit_code != 0) {
      state.SkipWithError("/bin/true did not exit 0");
      break;
    }
  }
  benchmark::DoNotOptimize(heap.data());
}
BENCHMARK(BM_RunProcessTrue)->Arg(4)->Arg(64)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace
}  // namespace afex

BENCHMARK_MAIN();
