// Shared-memory contract between libafex_interpose.so (running inside a real
// target process) and the parent-side exec layer, and the one channel a
// test's fault plan travels on. The parent creates one feedback file per
// harness and keeps it open; before each test it writes the test's encoded
// plan (exec/fault_plan.h) into it through that fd and points the child at
// it via AFEX_FEEDBACK; the interposer mmaps it MAP_SHARED, arms the plan
// from it and streams per-function call counts and injected-site hits into
// it as the target runs. After the test the parent reads the block back
// through the same fd and translates it into the TestOutcome the
// exploration machinery consumes (real_target_harness.cc).
//
// The layout is a fixed-size POD — no pointers, no lengths to trust — so a
// crashed or SIGKILLed child always leaves a readable block behind: whatever
// was counted up to the moment of death is the observation. This mirrors the
// MetaSys-style cross-layer channel: a thin instrumentation layer exports
// counters; policy stays entirely on the parent side.
//
// This header is included by the interposer, which is built free-standing
// (no gtest, no afex libraries, no sanitizers): keep it to constants, POD
// types, and allocation-free inline helpers.
#ifndef AFEX_EXEC_FEEDBACK_BLOCK_H_
#define AFEX_EXEC_FEEDBACK_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "injection/libc_table.h"

namespace afex {
namespace exec {

// The interposer's slots: the wrapped rows of the libc function table
// (injection/libc_table.h), in table order, so the real backend's function
// axis keeps the category neighbour-similarity the Gaussian mutation
// exploits. Slot = a function's rank among the wrapped rows (its row's slot
// column) = index into FeedbackBlock::calls / ::injected; an LP64 alias
// (open64, ...) counts in its row's slot.
#define AFEX_EXEC_SLOT_FN(name, retval, errnos, category, wrapped, kinds, ...) \
  AFEX_LIBC_IF_##wrapped(LibcFn::name, )
inline constexpr LibcFn kInterposedFunctions[] = {AFEX_LIBC_TABLE(AFEX_EXEC_SLOT_FN)};
#undef AFEX_EXEC_SLOT_FN
inline constexpr uint32_t kInterposedFunctionCount =
    sizeof(kInterposedFunctions) / sizeof(kInterposedFunctions[0]);
// Fixed array size in the block; > kInterposedFunctionCount so the layout
// survives adding a few functions without a version bump.
inline constexpr uint32_t kMaxInterposedFunctions = 32;
static_assert(kInterposedFunctionCount <= kMaxInterposedFunctions);

inline constexpr uint64_t kFeedbackMagic = 0x3130424658454641ULL;  // "AFEXFB01"
// Version 2 added the SanitizerCoverage edge-hit region, version 3 the plan
// region. The parent creates the feedback file and the interposer is built
// from the same tree, so a block of any other version can only come from a
// skewed build.
inline constexpr uint32_t kFeedbackVersion = 3;
// Fixed capacity of the per-test new-edge list. The interposer dedups
// edges child-side (an edge id is reported at most once per process), so
// this bounds *new* edges per test, not total edges per test; overruns
// increment edge_overflow and the dropped ids retry at the next harvest.
inline constexpr uint32_t kMaxEdgeHits = 4096;
// Upper bound on distinct sancov edge ids the interposer tracks. Counter
// regions longer than this are truncated (edge_total still records the
// real length so the parent can see the truncation).
inline constexpr uint32_t kMaxSancovEdges = 65536;

// One armed fault: the plan's only format, written by the parent's plan codec
// (exec/fault_plan.h) into FeedbackBlock::plan. Slot indexes
// kInterposedFunctions.
struct FsPlanEntry {
  int32_t slot = -1;
  int32_t errno_value = 0;
  uint64_t call_lo = 0;
  uint64_t call_hi = 0;
  int64_t retval = -1;
  // Storage-failure class (numeric FaultKind, injection/libc_table.h) and
  // its parameter (short_write: the byte/item count actually performed).
  int32_t kind = 0;
  int32_t pad = 0;  // keep the struct 8-byte aligned, deterministic bytes
  int64_t param = 0;
};

// The interposer's plan table capacity and the block's plan region size; a
// plan_count above it arms nothing.
inline constexpr uint32_t kFsMaxPlans = 8;

// The one rule for an entry the interposer can honour, applied by its
// ArmPlans (which drops anything else) and by the parent's plan codec
// (exec/fault_plan.h): a wrapped slot, a 1-based ordinal window, a kind that
// applies to the slot's function, and a non-negative short_write count.
inline bool ValidPlanEntry(const FsPlanEntry& e) {
  return e.slot >= 0 && e.slot < static_cast<int32_t>(kInterposedFunctionCount) &&
         e.call_lo >= 1 && e.call_hi >= e.call_lo &&
         KindAppliesTo(e.kind, LibcRow(kInterposedFunctions[e.slot]).storage_kinds) &&
         (e.kind != static_cast<int32_t>(FaultKind::kShortWrite) || e.param >= 0);
}

struct FeedbackBlock {
  uint64_t magic = 0;        // kFeedbackMagic once the interposer attached
  uint32_t version = 0;      // kFeedbackVersion
  uint32_t function_count = 0;  // slots in use (= kInterposedFunctionCount)
  // 1 once the interposer's constructor ran inside the child; proves the
  // preload actually took effect (a missing .so fails execve-silently via
  // ld.so warnings only).
  uint64_t attached = 0;
  // Plan entries armed for this test.
  uint64_t plans_loaded = 0;
  // Per-slot call counts and injected-call counts (indexed as
  // kInterposedFunctions).
  uint64_t calls[kMaxInterposedFunctions] = {};
  uint64_t injected[kMaxInterposedFunctions] = {};
  // Total faults injected across all slots.
  uint64_t injected_total = 0;
  // 1-based ordinal of the first injected call in its function's count
  // sequence (0 = nothing injected) — the "site hit" the journal records.
  uint64_t first_injected_call = 0;
  // Slot of the first injected call (valid when first_injected_call > 0).
  uint32_t first_injected_slot = 0;
  // Persistent mode: stamp of the test this block was armed
  // for, written by the server when it resets the block before each child
  // or iteration. The client checks it after the test so a crashed child's
  // stale counts can never be attributed to the next test. Spawn mode
  // rewrites the whole block fresh before each test and leaves this 0.
  uint32_t test_seq = 0;

  // --- version 2: SanitizerCoverage edge feedback ----------------------
  // 1 when the target registered a sancov counter region with the
  // interposer (i.e. the binary is instrumented AND the preload took);
  // 0 means the parent must fall back to the libc proxy.
  uint32_t edges_supported = 0;
  // Count of new-edge append attempts dropped because edge_hits was full.
  // Monotonic per test; dropped edges are retried at later harvests, so a
  // nonzero value means the per-test signal saturated, not that edges
  // were lost for the campaign.
  uint32_t edge_overflow = 0;
  // Length of the registered counter region (edges in the module), before
  // any kMaxSancovEdges truncation — lets the parent size the coverage
  // universe and detect truncation.
  uint64_t edge_total = 0;
  // Number of valid entries in edge_hits (<= kMaxEdgeHits).
  uint64_t edge_hit_count = 0;
  // Edge ids newly touched by this test, in first-hit order. Ids are
  // indices into the module's counter region (or hashed PCs in trace-pc
  // mode); each id appears at most once per child process.
  uint32_t edge_hits[kMaxEdgeHits] = {};

  // --- version 3: the fault plan ---------------------------------------
  // Written by the parent before every test and read only by the
  // interposer's ArmPlans; the server's per-test reset leaves it alone.
  // The first plan_count entries of plan are the test's plan.
  uint64_t plan_count = 0;
  FsPlanEntry plan[kFsMaxPlans] = {};
};

// Parent-side helpers (implemented in feedback_block.cc; not used by the
// interposer, which maps the file itself). A harness creates its feedback
// file once, keeps the fd for its whole life and does every per-test write
// and read through it with one positioned syscall. The writers refuse a
// plan wider than kFsMaxPlans.
//
// Creates (truncating) the feedback file at `path` holding a fresh block
// and returns it open O_RDWR | O_CLOEXEC, or -1.
int OpenFeedbackFile(const char* path);
// Rewrites the whole block of the feedback file open at `fd`: a fresh block
// (zero counters, no magic) whose plan region holds `plan`. Spawn mode's
// per-test reset.
bool ResetFeedbackBlock(int fd, std::span<const FsPlanEntry> plan);
// Rewrites only the plan region of the block at `fd`: persistent mode's
// per-test plan, written while the server (and a live persistent child)
// keep the file mapped and the server resets the rest.
bool WriteFeedbackPlan(int fd, std::span<const FsPlanEntry> plan);

// Why a feedback read failed — the real backend counts these separately
// (real.feedback_missing vs real.feedback_short vs real.feedback_bad_magic)
// because each points at a different misconfiguration: a failed read means
// the file cannot be read at all, a short read means the file was truncated
// mid-write, a bad magic means the interposer never attached (or is
// incompatible).
enum class FeedbackReadStatus {
  kOk = 0,
  kMissing,      // the read failed
  kShort,        // fewer bytes than a whole block
  kBadMagic,     // magic mismatch: the interposer never attached
  kVersionSkew,  // magic ok but not kFeedbackVersion (a skewed build)
};

// Reads the block at `fd` back with one pread after the test, reporting
// what went wrong.
FeedbackReadStatus ReadFeedbackBlockStatus(int fd, FeedbackBlock& out);

}  // namespace exec
}  // namespace afex

#endif  // AFEX_EXEC_FEEDBACK_BLOCK_H_
