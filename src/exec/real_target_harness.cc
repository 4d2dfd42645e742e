#include "exec/real_target_harness.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <stdlib.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <optional>
#include <string_view>
#include <system_error>

#include "exec/fault_plan.h"
#include "exec/feedback_block.h"
#include "exec/forkserver.h"
#include "exec/process_runner.h"
#include "injection/plan.h"
#include "util/fnv1a.h"
#include "util/log.h"

namespace afex {
namespace exec {

namespace {

namespace fs = std::filesystem;

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// First line of the child's output, for the journal's detail field.
std::string FirstLine(const std::string& output) {
  size_t nl = output.find('\n');
  return output.substr(0, nl == std::string::npos ? output.size() : nl);
}

// In-place sandbox recycling: unlink the entries, keep the directory — the
// only option in persistent mode, where the server's working
// directory is pinned at exec time. One fd-relative readdir/unlinkat pass
// (a subdirectory falls back to remove_all); returns whether the directory
// ended empty, which is the harness's recycling invariant.
bool CleanDirInPlace(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return errno == ENOENT;  // a vanished sandbox holds nothing
  }
  const int dir_fd = ::dirfd(handle);
  bool empty = true;
  while (const struct dirent* entry = ::readdir(handle)) {
    const char* name = entry->d_name;
    if (strcmp(name, ".") == 0 || strcmp(name, "..") == 0) {
      continue;
    }
    if (entry->d_type != DT_DIR && ::unlinkat(dir_fd, name, 0) == 0) {
      continue;
    }
    if (entry->d_type == DT_DIR || errno == EISDIR) {
      std::error_code ec;
      fs::remove_all(fs::path(dir) / name, ec);
      if (!ec) {
        continue;
      }
    }
    empty = false;
  }
  ::closedir(handle);
  return empty;
}

// Streams `fd`'s bytes into `hasher`; false unless there were exactly
// `size` of them (a file that grows or shrinks under the read is still
// being written).
bool HashContents(int fd, uint64_t size, Fnv1aHasher& hasher) {
  char buf[16 * 1024];
  uint64_t got = 0;
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return n == 0 && got == size;
    }
    got += static_cast<uint64_t>(n);
    if (got > size) {
      return false;
    }
    hasher.Bytes(std::string_view(buf, static_cast<size_t>(n)));
  }
}

// The crash state a workload left in `dir`, as one digest: the test id,
// then each entry in name order — its name, mode bits, size and bytes.
// An entry that is not a readable regular file (a subdirectory, a FIFO, a
// symlink, a file still being written) means no digest.
std::optional<uint64_t> DigestSandbox(const std::string& dir, size_t test_id) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return std::nullopt;
  }
  const int dir_fd = ::dirfd(handle);
  std::vector<std::string> names;
  bool digestible = true;
  while (const struct dirent* entry = ::readdir(handle)) {
    const char* name = entry->d_name;
    if (strcmp(name, ".") == 0 || strcmp(name, "..") == 0) {
      continue;
    }
    // d_type filters without opening (a FIFO open could block); the fstat
    // below decides for file systems that report DT_UNKNOWN.
    if (entry->d_type != DT_REG && entry->d_type != DT_UNKNOWN) {
      digestible = false;
      break;
    }
    names.emplace_back(name);
  }
  std::sort(names.begin(), names.end());
  Fnv1aHasher hasher;
  hasher.U64(test_id);
  for (size_t i = 0; digestible && i < names.size(); ++i) {
    const int fd =
        ::openat(dir_fd, names[i].c_str(), O_RDONLY | O_NOFOLLOW | O_NONBLOCK | O_CLOEXEC);
    struct stat st{};
    digestible = fd >= 0 && ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
    if (digestible) {
      hasher.Mix(names[i]);
      hasher.U64(st.st_mode & 07777);
      hasher.U64(static_cast<uint64_t>(st.st_size));
      digestible = HashContents(fd, static_cast<uint64_t>(st.st_size), hasher);
    }
    if (fd >= 0) {
      ::close(fd);
    }
  }
  ::closedir(handle);
  return digestible ? std::optional<uint64_t>(hasher.value()) : std::nullopt;
}

// Expands every "{test}" in `argv` to the test's 1-based id.
std::vector<std::string> SubstituteTest(std::vector<std::string> argv,
                                        const std::string& label) {
  for (std::string& arg : argv) {
    size_t pos;
    while ((pos = arg.find("{test}")) != std::string::npos) {
      arg.replace(pos, 6, label);
    }
  }
  return argv;
}

}  // namespace

std::vector<std::string> InterposableFunctions() {
  std::vector<std::string> names;
  for (LibcFn fn : kInterposedFunctions) {
    names.emplace_back(LibcRow(fn).name);
  }
  return names;
}

static_assert(kEdgeBlockBase >= kMaxInterposedFunctions,
              "edge block ids must sit above every possible proxy slot id");

RealTargetHarness::RealTargetHarness(RealTargetConfig config)
    : config_(std::move(config)),
      // Edge mode starts with just the offset as a placeholder universe;
      // the first feedback block carrying edge_total resizes it to the
      // target's real region length.
      coverage_(config_.use_edges ? kEdgeBlockBase : kInterposedFunctionCount,
                /*recovery_base=*/0) {
  if (config_.functions.empty()) {
    config_.functions = InterposableFunctions();
  }
  // The child runs inside the per-run sandbox, so caller-relative paths
  // must be pinned down now. A bare command name (no '/') keeps execvp
  // PATH-lookup semantics.
  std::error_code ec;
  std::vector<std::string>& argv = config_.target_argv;
  if (!argv.empty()) {
    if (argv[0].find('/') != std::string::npos) {
      argv[0] = fs::absolute(argv[0], ec).string();
    }
    target_name_ = Basename(argv[0]);
    // One {test} rule for every exec mode: a command without the
    // placeholder takes the test id as its final argument.
    if (std::none_of(argv.begin(), argv.end(), [](const std::string& arg) {
          return arg.find("{test}") != std::string::npos;
        })) {
      argv.emplace_back("{test}");
    }
  }
  if (!config_.interposer_path.empty()) {
    config_.interposer_path = fs::absolute(config_.interposer_path, ec).string();
  }
  if (config_.work_root.empty()) {
    std::string pattern =
        (fs::temp_directory_path() / "afex_real_XXXXXX").string();
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) != nullptr) {
      work_root_.assign(buf.data());
      own_work_root_ = true;
    } else {
      work_root_ = ".";
    }
  } else {
    work_root_ = config_.work_root;
    std::error_code ec2;
    fs::create_directories(work_root_, ec2);
  }
  // Recycled per-harness scratch: mkdtemp keeps --jobs nodes that share an
  // explicit work root out of each other's sandboxes.
  {
    std::string pattern = (fs::path(work_root_) / "wXXXXXX").string();
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    instance_dir_ = ::mkdtemp(buf.data()) != nullptr ? std::string(buf.data())
                                                     : work_root_;
  }
  sandbox_dir_ = (fs::path(instance_dir_) / "sandbox").string();
  feedback_path_ = (fs::path(instance_dir_) / "feedback.afexfb").string();
  fs::create_directories(sandbox_dir_, ec);
  target_ = {.argv = config_.target_argv,
             .working_dir = sandbox_dir_,
             .env = {{"AFEX_FEEDBACK", feedback_path_}},
             .preload = config_.interposer_path,
             .timeout_ms = config_.timeout_ms};
}

RealTargetHarness::~RealTargetHarness() {
  // Stop the server before its working directory disappears.
  forkserver_.reset();
  if (feedback_fd_ >= 0) {
    ::close(feedback_fd_);
  }
  std::error_code ec;
  if (own_work_root_) {
    fs::remove_all(work_root_, ec);
  } else if (instance_dir_ != work_root_) {
    fs::remove_all(instance_dir_, ec);
  }
}

void RealTargetHarness::set_metrics_sink(obs::MetricsSink* sink) {
  metrics_ = sink;
  if (forkserver_ != nullptr) {
    forkserver_->set_metrics_sink(sink);
  }
}

FaultSpace RealTargetHarness::MakeSpace(size_t max_call, bool include_zero_call) const {
  return MakeCallSpace("real:" + target_name_, config_.num_tests, config_.functions, max_call,
                       include_zero_call);
}

void RealTargetHarness::Count(obs::Counter counter) {
  if (metrics_ != nullptr) {
    metrics_->AddCounter(counter, 1);
  }
}

TestOutcome RealTargetHarness::RunFault(const FaultSpace& space, const Fault& fault) {
  InjectionPlan plan = decoder_.Decode(space, fault);
  TestOutcome outcome;
  ++tests_run_;

  std::vector<FaultSpec> specs;
  if (plan.spec.has_value()) {
    const LibcTableRow& row = LibcRow(plan.spec->function);
    if (row.slot < 0) {
      // A custom space can name table functions the interposer does not
      // wrap; surface it rather than silently running without injection.
      outcome.test_failed = true;
      outcome.detail = std::string("exec: function not interposable: ") + row.name;
      return outcome;
    }
    if (!FaultKindAppliesTo(plan.spec->kind, plan.spec->function)) {
      // A mode axis crossed with the function axis necessarily produces
      // points whose kind cannot mean anything on that function
      // (short_write × read). They run fault-free — the campaign's
      // baseline observations — and are counted, not failed.
      Count(obs::Counter::kRealKindIncompatible);
    } else {
      specs.push_back(*plan.spec);
    }
  }
  // One encoding and one channel for every exec mode: these entries go into
  // the test's feedback block, which every process image of the test maps.
  std::vector<FsPlanEntry> entries;
  if (!EncodePlanEntries(specs, entries)) {
    // E.g. a --space call interval past INT_MAX, wrapped negative on decode.
    outcome.test_failed = true;
    outcome.detail = "exec: unencodable fault plan";
    return outcome;
  }

  // ---- provable no-op: answer from the test's fault-free run ----
  auto cached = fault_free_.find(plan.test_id);
  FaultFreeRun* baseline = cached != fault_free_.end() && !cached->second.sampler.disabled
                               ? &cached->second
                               : nullptr;
  const bool noop =
      baseline != nullptr &&
      std::none_of(entries.begin(), entries.end(), [baseline](const FsPlanEntry& e) {
        return baseline->run.calls[static_cast<size_t>(e.slot)] >= e.call_lo;
      });
  if (noop && baseline->sampler.Answer()) {
    obs::PhaseTimer answer_timer(metrics_, obs::Phase::kRealNoopAnswer);
    outcome = baseline->run.outcome;
    MergeTouched(baseline->run.touched, outcome);
    ++tests_answered_;
    return outcome;
  }

  LiveRun live = RunLive(plan.test_id, entries);
  if (!noop) {
    if (cached == fault_free_.end() && live.fault_free) {
      fault_free_[plan.test_id].run = live;  // outcome still without coverage fields
    }
    MergeTouched(live.touched, live.outcome);
    return std::move(live.outcome);
  }
  // The determinism sample: the blocks the answer would have called new,
  // taken before the live run's own merge changes the session coverage.
  std::vector<uint32_t> predicted_new;
  for (uint32_t id : baseline->run.touched.blocks()) {
    if (!coverage_.Contains(id)) {
      predicted_new.push_back(id);
    }
  }
  std::sort(predicted_new.begin(), predicted_new.end());
  outcome = std::move(live.outcome);
  MergeTouched(live.touched, outcome);
  const TestOutcome& want = baseline->run.outcome;
  if (baseline->sampler.Settle(
          live.fault_free && live.calls == baseline->run.calls &&
          predicted_new == outcome.new_block_ids && outcome.test_failed == want.test_failed &&
          outcome.crashed == want.crashed && outcome.exit_code == want.exit_code &&
          outcome.recovery_failed == want.recovery_failed &&
          outcome.invariant_violated == want.invariant_violated &&
          outcome.detail == want.detail)) {
    Count(obs::Counter::kRealNoopVerified);
  } else {
    // The live result is the record; the cache no longer speaks for this test.
    Count(obs::Counter::kRealNoopMismatch);
    AFEX_LOG(kWarn) << "test " << plan.test_id + 1
                    << " differs from its fault-free run; its no-op points run live from now on";
  }
  return outcome;
}

void RealTargetHarness::MergeTouched(const CoverageSet& touched, TestOutcome& outcome) {
  outcome.new_blocks_covered = coverage_.MergeCollect(touched, outcome.new_block_ids);
  std::sort(outcome.new_block_ids.begin(), outcome.new_block_ids.end());
  if (config_.use_edges) {
    uint64_t edges_new = 0;
    for (uint32_t id : outcome.new_block_ids) {
      if (id >= kEdgeBlockBase) {
        ++edges_new;
      }
    }
    edges_total_ += edges_new;
    if (metrics_ != nullptr) {
      if (edges_new > 0) {
        metrics_->AddCounter(obs::Counter::kRealEdgesNew, edges_new);
      }
      metrics_->SetGauge(obs::Gauge::kRealEdgesTotal, static_cast<double>(edges_total_));
    }
  }
}

RealTargetHarness::LiveRun RealTargetHarness::RunLive(size_t test_id,
                                                      const std::vector<FsPlanEntry>& entries) {
  LiveRun live;
  TestOutcome& outcome = live.outcome;
  const std::string test_label = std::to_string(test_id + 1);
  ProcessResult run;
  uint32_t expect_seq = 0;

  // One feedback file per harness, in both modes: created by the first live
  // test that can (the server maps it once, so it keeps its identity
  // across every test and respawn) and held open for every plan write and
  // block read. A target that unlinked $AFEX_FEEDBACK left the held fd on
  // an inode no later process opens: the file is made anew, and a server
  // still mapping the old one is stopped, so that its respawn maps the new.
  struct stat feedback_stat{};
  if (feedback_fd_ >= 0 && ::fstat(feedback_fd_, &feedback_stat) == 0 &&
      feedback_stat.st_nlink == 0) {
    Count(obs::Counter::kRealFeedbackRecreated);
    ::close(feedback_fd_);
    feedback_fd_ = -1;
    if (forkserver_ != nullptr) {
      forkserver_->Shutdown();
    }
  }
  if (feedback_fd_ < 0 && (feedback_fd_ = OpenFeedbackFile(feedback_path_.c_str())) < 0) {
    outcome.test_failed = true;
    outcome.detail = "exec: cannot create feedback file " + feedback_path_;
    return live;
  }
  if (config_.exec_mode == ExecMode::kSpawn) {
    // ---- spawn: the whole block fresh with the plan, one process per test ----
    obs::PhaseTimer plan_timer(metrics_, obs::Phase::kRealPlanWrite);
    std::error_code ec;
    fs::create_directories(sandbox_dir_, ec);
    if (ec) {
      outcome.test_failed = true;
      outcome.detail = "exec: cannot create sandbox " + sandbox_dir_;
      return live;
    }
    if (!ResetFeedbackBlock(feedback_fd_, entries)) {
      outcome.test_failed = true;
      outcome.detail = "exec: cannot write the fault plan into " + feedback_path_;
      return live;
    }
    plan_timer.Finish();

    ProcessRequest request = target_;
    request.argv = SubstituteTest(std::move(request.argv), test_label);
    run = RunProcess(request);
    if (metrics_ != nullptr) {
      // The runner stamps spawn/wait on the obs::NowNs timebase so the two
      // sub-phases line up with everything else in the trace.
      metrics_->RecordPhase(obs::Phase::kRealForkExec, run.spawn_start_ns, run.spawn_ns);
      if (run.started) {
        metrics_->RecordPhase(obs::Phase::kRealChildWait,
                              run.spawn_start_ns + run.spawn_ns, run.wait_ns);
      }
    }
  } else {
    // ---- persistent: the plan into the mapped block, then one pipe
    // round-trip per test ----
    if (forkserver_ == nullptr) {
      forkserver_ = std::make_unique<ForkserverClient>(target_);
      forkserver_->set_metrics_sink(metrics_);
    }
    expect_seq = ++next_seq_;
    obs::PhaseTimer roundtrip(metrics_, obs::Phase::kRealFsRoundtrip);
    if (!WriteFeedbackPlan(feedback_fd_, entries)) {
      outcome.test_failed = true;
      outcome.detail = "exec: cannot write the fault plan into " + feedback_path_;
      return live;
    }
    run = forkserver_->RunTest(static_cast<uint32_t>(test_id + 1), expect_seq);
    roundtrip.Finish();
  }

  // ---- translate the observation (identical across exec modes) ----
  outcome.hung = run.timed_out;
  outcome.crashed = IsCrashSignal(run.term_signal);
  outcome.exit_code = run.exited ? run.exit_code : 128 + run.term_signal;
  outcome.test_failed =
      !run.started || outcome.exit_code != 0 || outcome.crashed || outcome.hung;

  // Outcome breakdown: every run lands in exactly one of the first six
  // counters; escalation and feedback health are tracked on top.
  if (!run.started) {
    Count(obs::Counter::kRealStartFailed);
  } else if (outcome.hung) {
    Count(obs::Counter::kRealHang);
  } else if (outcome.crashed) {
    Count(obs::Counter::kRealCrashSignal);
  } else if (run.term_signal != 0) {
    Count(obs::Counter::kRealSignalExit);
  } else if (run.exit_code != 0) {
    Count(obs::Counter::kRealExitNonzero);
  } else {
    Count(obs::Counter::kRealExitClean);
  }
  if (run.kill_escalated) {
    Count(obs::Counter::kRealKillEscalated);
  }

  obs::PhaseTimer feedback_timer(metrics_, obs::Phase::kRealFeedbackRead);
  FeedbackBlock block;
  FeedbackReadStatus feedback_status = ReadFeedbackBlockStatus(feedback_fd_, block);
  switch (feedback_status) {
    case FeedbackReadStatus::kOk:
      Count(obs::Counter::kRealFeedbackOk);
      break;
    case FeedbackReadStatus::kMissing:
      Count(obs::Counter::kRealFeedbackMissing);
      break;
    case FeedbackReadStatus::kShort:
      Count(obs::Counter::kRealFeedbackShort);
      break;
    case FeedbackReadStatus::kBadMagic:
      Count(obs::Counter::kRealFeedbackBadMagic);
      break;
    case FeedbackReadStatus::kVersionSkew:
      Count(obs::Counter::kRealFeedbackVersion);
      break;
  }
  // In persistent mode the server stamps test_seq before every fork/iteration; a
  // mismatch means the block was never re-armed for this test (server died
  // between reset and run) and its counts belong to an earlier test —
  // attributing them here would fabricate coverage/trigger signal.
  const bool feedback_stale = feedback_status == FeedbackReadStatus::kOk &&
                              expect_seq != 0 && block.test_seq != expect_seq;
  if (feedback_stale) {
    Count(obs::Counter::kRealFeedbackStale);
  }
  if (feedback_status == FeedbackReadStatus::kOk && !feedback_stale) {
    CoverageSet& touched = live.touched;
    bool coverage_complete = true;
    if (!config_.use_edges) {
      // Each profiled libc function the run touched is one black-box
      // "coverage block": the call profile is the only structural signal a
      // black-box run emits, and it feeds the impact metric's coverage
      // term exactly like basic blocks do for the sim backend.
      uint32_t slots = std::min(block.function_count, kMaxInterposedFunctions);
      for (uint32_t slot = 0; slot < slots; ++slot) {
        if (block.calls[slot] > 0) {
          touched.Hit(slot);
        }
      }
    } else if (block.edges_supported == 0) {
      // Edge signal requested but this run's process never registered a
      // counter region — uninstrumented target, or the preload didn't
      // take. Surfaced per test: a campaign with this counter at its test
      // count is exploring with no coverage signal at all.
      Count(obs::Counter::kRealEdgesMissing);
    } else {
      // Edge ids become coverage blocks above kEdgeBlockBase. The block
      // is hostile input (a crashed child wrote it): entry count and ids
      // are clamped to the interposer's own caps, which also bounds the
      // accumulator's bitmap growth.
      obs::PhaseTimer merge_timer(metrics_, obs::Phase::kRealEdgeMerge);
      if (!edge_total_known_ && block.edge_total > 0) {
        edge_total_known_ = true;
        coverage_.set_total_blocks(
            kEdgeBlockBase + static_cast<uint32_t>(std::min<uint64_t>(
                                 block.edge_total, kMaxSancovEdges)));
      }
      uint64_t hits = std::min<uint64_t>(block.edge_hit_count, kMaxEdgeHits);
      for (uint64_t i = 0; i < hits; ++i) {
        uint32_t id = block.edge_hits[i];
        if (id < kMaxSancovEdges) {
          touched.Hit(kEdgeBlockBase + id);
        }
      }
      if (block.edge_overflow > 0) {
        // The per-test new-edge list saturated; dropped edges re-surface
        // on later tests, so discovery ordering (not totals) degrades.
        Count(obs::Counter::kRealEdgeOverflow);
        coverage_complete = false;
      }
    }
    std::copy(std::begin(block.calls), std::end(block.calls), live.calls.begin());
    outcome.fault_triggered = block.injected_total > 0;
    live.fault_free =
        run.started && !outcome.hung && !outcome.fault_triggered && coverage_complete;
    if (outcome.fault_triggered && block.first_injected_slot < kInterposedFunctionCount) {
      // Synthetic stack for redundancy clustering: target, test, injected
      // function, and the call ordinal that actually fired.
      outcome.injection_stack = {
          target_name_, "test" + test_label,
          LibcRow(kInterposedFunctions[block.first_injected_slot]).name,
          "call" + std::to_string(block.first_injected_call)};
    }
  } else if (feedback_status != FeedbackReadStatus::kOk &&
             !config_.interposer_path.empty()) {
    AFEX_LOG(kWarn) << "no feedback block from " << feedback_path_
                    << " (interposer did not attach?)";
  }
  feedback_timer.Finish();

  if (!run.started) {
    outcome.detail = "exec: " + run.error;
  } else if (outcome.hung) {
    outcome.detail = "timeout after " + std::to_string(config_.timeout_ms) + "ms";
    if (run.kill_escalated) {
      outcome.detail += " (SIGKILL escalation)";
    }
  } else if (run.term_signal != 0) {
    outcome.detail = std::string("signal ") + strsignal(run.term_signal);
  } else if (outcome.test_failed) {
    outcome.detail = FirstLine(run.output);
  }

  // ---- two-phase crash→recover→verify ----
  // Runs after every test (not just crashed ones: silent corruption is
  // invisible until the verifier looks), in the same sandbox the workload
  // ran in, strictly before any recycling — the crash state on disk IS the
  // input to these phases, and a state seen before is answered from its
  // digest (RecoverAndVerify). No interposer, no fault plan: recovery and
  // verification are observed, never faulted.
  if (run.started &&
      (!config_.recovery_argv.empty() || !config_.verify_argv.empty())) {
    const PhaseVerdict verdict = RecoverAndVerify(test_id, test_label);
    auto fold_detail = [&outcome](const std::string& tag, const std::string& line) {
      if (!outcome.detail.empty()) {
        outcome.detail += "; ";
      }
      outcome.detail += tag;
      if (!line.empty()) {
        outcome.detail += ": " + line;
      }
    };
    if (verdict.recovery_failed) {
      outcome.recovery_failed = true;
      Count(obs::Counter::kRealRecoveryFailed);
      fold_detail("recovery failed", verdict.recovery_line);
    }
    if (verdict.invariant_violated) {
      outcome.invariant_violated = true;
      Count(obs::Counter::kRealInvariantViolated);
      fold_detail("invariant violated", verdict.verify_line);
    }
    if (outcome.recovery_failed || outcome.invariant_violated) {
      outcome.test_failed = true;
    }
  }

  // Recycle, don't recreate: drop the test's droppings, keep the sandbox.
  // The recycling invariant: nothing of this test may survive into the
  // next one. A leak here means tests stopped being independent —
  // surfaced, not silently tolerated.
  obs::PhaseTimer cleanup_timer(metrics_, obs::Phase::kRealScratchCleanup);
  if (!CleanDirInPlace(sandbox_dir_)) {
    Count(obs::Counter::kRealRecycleLeak);
    AFEX_LOG(kWarn) << "sandbox not empty after recycle: " << sandbox_dir_;
  }
  return live;
}

RealTargetHarness::PhaseVerdict RealTargetHarness::RecoverAndVerify(
    size_t test_id, const std::string& test_label) {
  obs::PhaseTimer digest_timer(metrics_, obs::Phase::kRealStateDigest);
  const std::optional<uint64_t> digest = DigestSandbox(sandbox_dir_, test_id);
  digest_timer.Finish();
  if (!digest.has_value()) {
    return RunPhasesLive(test_label);
  }
  auto [it, first_seen] = crash_states_.try_emplace(*digest);
  CrashState& state = it->second;
  if (first_seen) {
    state.verdict = RunPhasesLive(test_label);
    return state.verdict;
  }
  if (state.sampler.disabled) {
    return RunPhasesLive(test_label);
  }
  if (state.sampler.Answer()) {
    ++crash_states_answered_;
    Count(obs::Counter::kRealStateAnswered);
    return state.verdict;
  }
  PhaseVerdict live = RunPhasesLive(test_label);
  if (state.sampler.Settle(live == state.verdict)) {
    Count(obs::Counter::kRealStateVerified);
  } else {
    // The live verdict is the record; the cache no longer speaks for this state.
    Count(obs::Counter::kRealStateMismatch);
    AFEX_LOG(kWarn) << "test " << test_id + 1
                    << ": recover/verify disagree with an earlier run on the same crash state;"
                       " that state runs live from now on";
  }
  return live;
}

RealTargetHarness::PhaseVerdict RealTargetHarness::RunPhasesLive(const std::string& test_label) {
  // Runs one phase command; on failure keeps its first output line.
  auto run_phase = [&](const std::vector<std::string>& argv, std::string& failure_line) {
    ProcessRequest req;
    req.argv = SubstituteTest(argv, test_label);
    req.working_dir = sandbox_dir_;
    req.timeout_ms = config_.timeout_ms;
    ProcessResult r = RunProcess(req);
    const bool passed = r.started && r.exited && !r.timed_out && r.term_signal == 0 &&
                        r.exit_code == 0;
    if (!passed) {
      failure_line = FirstLine(r.output);
    }
    return passed;
  };
  PhaseVerdict verdict;
  if (!config_.recovery_argv.empty()) {
    obs::PhaseTimer recovery_timer(metrics_, obs::Phase::kRealRecoveryRun);
    verdict.recovery_failed = !run_phase(config_.recovery_argv, verdict.recovery_line);
  }
  // A store that never came back up has nothing to verify.
  if (!verdict.recovery_failed && !config_.verify_argv.empty()) {
    obs::PhaseTimer verify_timer(metrics_, obs::Phase::kRealVerify);
    verdict.invariant_violated = !run_phase(config_.verify_argv, verdict.verify_line);
  }
  return verdict;
}

}  // namespace exec
}  // namespace afex
