// Shared-memory contract between libafex_interpose.so (running inside a real
// target process) and the parent-side exec layer. The parent creates a
// zero-filled feedback file and points the child at it via AFEX_FEEDBACK; the
// interposer mmaps it MAP_SHARED and streams per-function call counts and
// injected-site hits into it as the target runs. After the child exits the
// parent reads the block back and translates it into the TestOutcome the
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
#include <cstring>

namespace afex {
namespace exec {

// The logical libc functions the interposer profiles, in the category order
// of injection/libc_profile.cc (memory, file, dir, net) so the real
// backend's function axis keeps the neighbour-similarity the Gaussian
// mutation exploits. Slot index in this table = index into
// FeedbackBlock::calls / ::injected. LP64 aliases (open64, fopen64,
// lseek64) are folded into their logical slot by the interposer.
inline constexpr const char* kInterposedFunctions[] = {
    "malloc", "calloc",  "realloc",                                // memory
    "fopen",  "fclose",  "fread",  "fwrite", "fgets", "fflush",    // stdio
    "open",   "close",   "read",   "write",  "lseek",              // fd I/O
    "fsync",  "fdatasync",                                         // durability
    "rename", "unlink",  "mkdir",                                  // dir/meta
    "socket", "bind",    "listen", "accept", "connect",            // net
    "send",   "recv",
};
inline constexpr uint32_t kInterposedFunctionCount =
    sizeof(kInterposedFunctions) / sizeof(kInterposedFunctions[0]);
// Fixed array size in the block; > kInterposedFunctionCount so the layout
// survives adding a few functions without a version bump.
inline constexpr uint32_t kMaxInterposedFunctions = 32;

inline constexpr uint64_t kFeedbackMagic = 0x3130424658454641ULL;  // "AFEXFB01"
// Version 2 added the SanitizerCoverage edge-hit region. The parent creates
// the feedback file per test and the interposer is built from the same tree,
// so a block of any other version can only come from a skewed build.
inline constexpr uint32_t kFeedbackVersion = 2;
// Fixed capacity of the per-test new-edge list. The interposer dedups
// edges child-side (an edge id is reported at most once per process), so
// this bounds *new* edges per test, not total edges per test; overruns
// increment edge_overflow and the dropped ids retry at the next harvest.
inline constexpr uint32_t kMaxEdgeHits = 4096;
// Upper bound on distinct sancov edge ids the interposer tracks. Counter
// regions longer than this are truncated (edge_total still records the
// real length so the parent can see the truncation).
inline constexpr uint32_t kMaxSancovEdges = 65536;

// Slot index for a logical function name, or -1 when not interposed.
// Linear scan: called per plan encode/decode on the parent, never per libc
// call.
inline int InterposedSlot(const char* name) {
  for (uint32_t i = 0; i < kInterposedFunctionCount; ++i) {
    if (std::strcmp(kInterposedFunctions[i], name) == 0) {
      return static_cast<int>(i);
    }
  }
  return -1;
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
  // Forkserver/persistent modes: stamp of the test this block was armed
  // for, written by the server when it resets the block before each child
  // or iteration. The client checks it after the test so a crashed child's
  // stale counts can never be attributed to the next test. Spawn mode
  // creates a fresh zero file per test and leaves this 0. (Was `reserved`;
  // same layout, so no version bump.)
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
};

// Parent-side helpers (implemented in feedback_block.cc; not used by the
// interposer, which maps the file itself).
//
// Creates (truncating) a zero-filled feedback file sized for one block.
bool CreateFeedbackFile(const char* path);

// Why a feedback read failed — the real backend counts these separately
// (real.feedback_missing vs real.feedback_short vs real.feedback_bad_magic)
// because each points at a different misconfiguration: a missing file means
// the sandbox vanished, a short read means the file was truncated mid-write,
// a bad magic means the interposer never attached (or is incompatible).
enum class FeedbackReadStatus {
  kOk = 0,
  kMissing,      // open failed
  kShort,        // fewer bytes than a whole block
  kBadMagic,     // magic mismatch: the interposer never attached
  kVersionSkew,  // magic ok but not kFeedbackVersion (a skewed build)
};

// Reads the block back after the child exited, reporting what went wrong.
FeedbackReadStatus ReadFeedbackBlockStatus(const char* path, FeedbackBlock& out);
// Convenience form: true iff the status is kOk.
bool ReadFeedbackBlock(const char* path, FeedbackBlock& out);

}  // namespace exec
}  // namespace afex

#endif  // AFEX_EXEC_FEEDBACK_BLOCK_H_
