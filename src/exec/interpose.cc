// libafex_interpose.so — the real-process injection mechanism (the LFI role
// of paper §6.1, realized as an LD_PRELOAD libc interposer). Wraps the rows
// of injection/libc_table.h marked wrapped: the slots, the real-libc
// pointers and their resolution derive from the table, and only the wrapper
// bodies are written here. Each wrapper counts the call in a mmap'd
// feedback block (exec/feedback_block.h) shared with the parent and, when
// the call ordinal falls inside an armed plan's window, injects the planned
// fault: set errno, return the profiled error value, never enter libc.
//
// One environment variable, set by the parent, names the feedback file
// (AFEX_FEEDBACK), pre-sized by the parent and mmapped here. The test's plan
// lives in that block (exec/feedback_block.h): ArmPlans, the one arming
// routine, copies its valid FsPlanEntry records into a static table in a
// spawned process and in every image a target exec()s (the constructor),
// in the server before each fork, and in a persistent child before each
// iteration.
//
// Engineering constraints, all consequences of living inside an arbitrary
// target process:
//  * No C++ runtime facilities that allocate or throw: a malloc interposer
//    cannot call the allocator it replaces. Plan arming and feedback setup
//    use raw syscalls and fixed buffers.
//  * dlsym(RTLD_NEXT, ...) itself may allocate (dlerror state) before
//    real_malloc is resolved; a small static bump arena serves those
//    bootstrap allocations, and free()/realloc() recognize its range.
//  * Counting starts only once the constructor has run (g_active): loader
//    and pre-main libc initialization calls are excluded, so call ordinals
//    are stable properties of the target program, not of ld.so internals.
//  * Internal calls (mapping feedback, arming the plan) run with
//    g_internal set so they are neither counted nor injected.
//  * Built with -fno-sanitize=all: preloading a sanitized .so into an
//    arbitrary child would require the sanitizer runtime to lead the
//    library list, which no plain target satisfies.
//  * LD_PRELOAD, AFEX_FEEDBACK, and the MAP_SHARED feedback block with its
//    plan are inherited by every process the target spawns, in every exec
//    mode: the whole tree shares one plan and one ordinal space.
//    Deterministic for sequential trees; concurrent children interleave
//    ordinals nondeterministically (per-process counting is future work).
//
// Server mode (exec/forkserver_protocol.h): when AFEX_FORKSERVER=1 the
// constructor does not fall through into the target. It announces itself
// on the status pipe and serves tests, forking one pristine child per
// request (feedback reset and the block's plan armed *before* the fork, so
// the child starts counting from zero exactly like a spawned process). The
// child keeps the protocol fds close-on-exec: once the target's main hands
// its entry function to afex_persistent_run(), the child runs the request
// it was forked for and then reads and runs further requests in-process,
// one iteration each, until it exits or crashes and the server forks the
// next child. A child that never calls the hook runs one test, like a
// spawned process, and no image it exec()s sees the fds. The serve loop
// uses only async-signal-safe primitives (raw g_real_read/g_real_write on
// fixed fds, fork, waitpid, _exit): it runs before main in an arbitrary
// target and forks while holding no locks.
#ifndef _LARGEFILE64_SOURCE
#define _LARGEFILE64_SOURCE 1  // off64_t / lseek64 for the LP64 alias wrappers
#endif

#include <dlfcn.h>
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/syscall.h>
#include <stdarg.h>
#include <stdlib.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "exec/feedback_block.h"
#include "exec/forkserver_protocol.h"

namespace {

using afex::FaultKind;
using afex::exec::FeedbackBlock;
using afex::exec::FsMsg;
using afex::exec::FsMsgKind;
using afex::exec::FsPlanEntry;
using afex::exec::FsRequest;
using afex::exec::kFeedbackMagic;
using afex::exec::kFeedbackVersion;
using afex::exec::kForkserverCtlFd;
using afex::exec::kForkserverEnvServe;
using afex::exec::kForkserverEnvVar;
using afex::exec::kForkserverProtocolVersion;
using afex::exec::kForkserverStatusFd;
using afex::exec::kFsMaxPlans;
using afex::exec::kFsMsgMagic;
using afex::exec::kFsRequestMagic;
using afex::exec::kInterposedFunctionCount;
using afex::exec::kMaxEdgeHits;
using afex::exec::kMaxInterposedFunctions;
using afex::exec::kMaxSancovEdges;
using afex::exec::ValidPlanEntry;

// ---------------------------------------------------------------------------
// Bootstrap allocator: serves allocations made while dlsym resolves the real
// allocator entry points. Never freed; free()/realloc() detect the range.
// ---------------------------------------------------------------------------
// Each chunk is preceded by a 16-byte header holding its usable size, so
// realloc can migrate a bootstrap chunk without over-reading.
alignas(16) char g_boot_heap[64 * 1024];
size_t g_boot_used = 0;

void* BootAlloc(size_t size) {
  size = (size + 15) & ~static_cast<size_t>(15);
  if (g_boot_used + size + 16 > sizeof(g_boot_heap)) {
    return nullptr;
  }
  char* header = g_boot_heap + g_boot_used;
  *reinterpret_cast<size_t*>(header) = size;
  g_boot_used += size + 16;
  return header + 16;
}

bool IsBootPtr(const void* p) {
  return p >= static_cast<const void*>(g_boot_heap) &&
         p < static_cast<const void*>(g_boot_heap + sizeof(g_boot_heap));
}

size_t BootChunkSize(const void* p) {
  return *reinterpret_cast<const size_t*>(static_cast<const char*>(p) - 16);
}

// ---------------------------------------------------------------------------
// Real-function resolution.
// ---------------------------------------------------------------------------
// One pointer per wrapped row and per LP64 alias, typed as the libc
// declaration (g_real_open, g_real_open64, ...). free is wrapped only so
// the bootstrap arena's chunks are never handed to libc: it cannot fail,
// so it has no table row.
#define AFEX_REAL_DECL(sym) decltype(&::sym) g_real_##sym;
#define AFEX_REAL_ROW(name, retval, errnos, category, wrapped, kinds, ...) \
  AFEX_LIBC_IF_##wrapped(AFEX_REAL_DECL(name) __VA_OPT__(AFEX_REAL_DECL(__VA_ARGS__)))
AFEX_LIBC_TABLE(AFEX_REAL_ROW)
AFEX_REAL_DECL(free)
#undef AFEX_REAL_ROW
#undef AFEX_REAL_DECL

// Set while this thread resolves a symbol: its allocator calls route to the
// bootstrap arena. Thread-local so one thread's resolution never misroutes
// another thread's genuine allocations.
__thread int g_resolving = 0;
// Set around the interposer's own libc use (including dlsym, whose dlerror
// state may allocate): count nothing, inject nothing.
__thread int g_internal = 0;
// Set at the end of the constructor: counting/injection live.
int g_active = 0;

template <typename Fn>
void Resolve(Fn& slot, const char* name) {
  if (slot == nullptr) {
    ++g_internal;
    g_resolving = 1;
    slot = reinterpret_cast<Fn>(dlsym(RTLD_NEXT, name));
    g_resolving = 0;
    --g_internal;
  }
}

// ---------------------------------------------------------------------------
// Plan + feedback state.
// ---------------------------------------------------------------------------
// kSlot_<name>: a wrapped row's rank among the wrapped rows, the same
// number InterposedSlot gives the parent.
#define AFEX_SLOT_ROW(name, retval, errnos, category, wrapped, kinds, ...) \
  AFEX_LIBC_IF_##wrapped(kSlot_##name, )
enum Slot : int { AFEX_LIBC_TABLE(AFEX_SLOT_ROW) };
#undef AFEX_SLOT_ROW

// Armed entries passed ValidPlanEntry, so their kind is a FaultKind.
bool Is(const FsPlanEntry* plan, FaultKind kind) {
  return plan->kind == static_cast<int32_t>(kind);
}

// The power cut. The undo log rolls back every unsynced write first, then
// raw syscalls kill the process, so no wrapper, atexit handler, or stdio
// flush runs between the decision to die and death — exactly like losing
// power. The feedback block is MAP_SHARED, so injections recorded before the
// kill survive for the parent to read. Edges touched since the last libc
// call are harvested first — the harvest only writes the shared block, which
// survives the kill exactly like the injection counters do.
void SancovHarvest();
void Undo(int fd);
[[noreturn]] void RawKill() {
  SancovHarvest();
  Undo(-1);
  syscall(SYS_kill, syscall(SYS_getpid), SIGKILL);
  for (;;) {
  }
}

// The armed entries: the block's plan as ArmPlans found it, ValidPlanEntry
// ones only. A copy, so the parent's next plan write never reaches a test
// already under way.
FsPlanEntry g_plans[kFsMaxPlans];
int g_plan_count = 0;

// Local fallback block, replaced by a MAP_SHARED mapping (the AFEX_FEEDBACK
// file, or anonymous memory) so a forked child's counts and test_seq reach
// the server — the wrappers never need a null check.
FeedbackBlock g_local_block;
FeedbackBlock* g_block = &g_local_block;

// ---------------------------------------------------------------------------
// SanitizerCoverage edge feedback. An instrumented target's sancov client
// (exec/sancov_client.cc) hands its byte-counter region to
// afex_sancov_region() from the executable's own initializers — after this
// library's constructor, so the feedback block is already mapped. Counters
// are CUMULATIVE for the life of the process; the seen-bitmap below dedups
// so each edge id is reported exactly once per process. That makes the
// per-test new-edge sets identical across exec modes without any counter
// zeroing: the parent's CoverageAccumulator takes the set difference
// against everything already known, so a persistent process re-reporting
// nothing (already-seen edges stay silent) and a fresh spawn re-reporting
// everything (parent already knows it) produce the same records.
// ---------------------------------------------------------------------------
unsigned char* g_sancov_start = nullptr;
unsigned long g_sancov_len = 0;       // scanned length (<= kMaxSancovEdges)
unsigned long g_sancov_full_len = 0;  // real region length, pre-truncation
unsigned char g_sancov_seen[kMaxSancovEdges / 8];
int g_sancov_lock = 0;

// Scans the counter region and appends edge ids not seen before by this
// process to the block's edge-hit list. Word-at-a-time fast path skips the
// (vast majority of) untouched counters. The seen bit is set only when the
// id actually lands in the list, so ids dropped on a full list retry at
// the next harvest; edge_overflow counts the drops as a saturation signal.
// Contended harvests are skipped — a concurrent thread's edges surface at
// its own next harvest site.
void SancovHarvest() {
  unsigned char* region = __atomic_load_n(&g_sancov_start, __ATOMIC_ACQUIRE);
  if (region == nullptr) {
    return;
  }
  if (__atomic_exchange_n(&g_sancov_lock, 1, __ATOMIC_ACQUIRE) != 0) {
    return;
  }
  FeedbackBlock* b = g_block;
  unsigned long len = g_sancov_len;
  for (unsigned long i = 0; i < len; ++i) {
    if ((i & 7) == 0 && i + 8 <= len) {
      unsigned long word;
      memcpy(&word, region + i, sizeof(word));
      if (word == 0) {
        i += 7;
        continue;
      }
    }
    if (region[i] == 0 || (g_sancov_seen[i >> 3] & (1u << (i & 7))) != 0) {
      continue;
    }
    uint64_t slot = b->edge_hit_count;
    if (slot < kMaxEdgeHits) {
      b->edge_hits[slot] = static_cast<uint32_t>(i);
      b->edge_hit_count = slot + 1;
      g_sancov_seen[i >> 3] |= static_cast<unsigned char>(1u << (i & 7));
    } else {
      ++b->edge_overflow;
    }
  }
  __atomic_store_n(&g_sancov_lock, 0, __ATOMIC_RELEASE);
}

// First armed plan covering call ordinal `n` of `slot`, else null.
const FsPlanEntry* MatchPlan(int slot, unsigned long n) {
  for (int i = 0; i < g_plan_count; ++i) {
    const FsPlanEntry& p = g_plans[i];
    if (p.slot == slot && n >= p.call_lo && n <= p.call_hi) {
      return &p;
    }
  }
  return nullptr;
}

// Count one call to `slot`; returns the matching plan *without* recording
// an injection — the caller decides whether one actually happens (a
// short_write whose K covers the whole buffer is a no-op and must not be
// recorded). Relaxed atomics: counters are monotonic and read only after
// the child exits. g_active is read with acquire to pair with the
// constructor's release store (plan and feedback state are published
// before counting starts).
const FsPlanEntry* OnCallCount(int slot, unsigned long& n) {
  if (!__atomic_load_n(&g_active, __ATOMIC_ACQUIRE) || g_internal) {
    return nullptr;
  }
  // Every interposed libc call is an edge-harvest point: the block always
  // reflects the target's coverage up to its most recent libc boundary, so
  // even a SIGSEGV mid-test leaves the edges that led there readable.
  SancovHarvest();
  n = __atomic_add_fetch(&g_block->calls[slot], 1, __ATOMIC_RELAXED);
  return MatchPlan(slot, n);
}

void RecordInjection(int slot, unsigned long n) {
  __atomic_add_fetch(&g_block->injected[slot], 1, __ATOMIC_RELAXED);
  if (__atomic_add_fetch(&g_block->injected_total, 1, __ATOMIC_RELAXED) == 1) {
    g_block->first_injected_slot = static_cast<uint32_t>(slot);
    g_block->first_injected_call = n;
  }
}

// The common wrapper path: handles the kinds every function can carry
// (errno, kill_at) and returns the plan only for an errno injection. The
// storage-specific kinds (short_write, drop_sync, crash_after_rename) can
// only be armed on their own slots — those wrappers use OnCallCount
// directly and finish the job themselves.
const FsPlanEntry* OnCall(int slot) {
  unsigned long n = 0;
  const FsPlanEntry* plan = OnCallCount(slot, n);
  if (plan == nullptr) {
    return nullptr;
  }
  if (Is(plan, FaultKind::kKillAt)) {
    RecordInjection(slot, n);
    RawKill();
  }
  if (!Is(plan, FaultKind::kErrno)) {
    return nullptr;  // arming validated kind/slot pairs; never reached
  }
  RecordInjection(slot, n);
  return plan;
}

// ---------------------------------------------------------------------------
// Crash model: an undo log. Armed whenever any plan carries a crash-shaped
// kind (drop_sync, kill_at, crash_after_rename): emulating a power cut with
// SIGKILL only works if unsynced data can actually be lost, and the kernel
// page cache survives process death. Writes still reach the kernel unchanged,
// so read, fstat and lseek see them as they would on a real system; only
// durability is modelled, as in ALICE and CrashMonkey. Before each write()
// to a regular file the target open()ed, the bytes the write will overwrite
// and the file's prior size are saved in a static arena.
//
// An fd's entries retire (its data counts as durable) on a successful
// fsync/fdatasync, on close, and under log pressure — a full arena or
// kMaxUndoEntries entries — as the kernel's writeback would. A power cut
// (kill_at, crash_after_rename) undoes every live entry, newest first, just
// before the SIGKILL; a faulted drop_sync reports success and undoes the
// fd's live entries at once, the classic lying drive. Undoing an entry
// writes its pre-image back and then cuts the file to its prior size. A
// process that dies any other way (a signal AFEX did not send, a timeout,
// _exit) keeps its writes, as it would with a real page cache.
//
// Scope (documented limitation): write() only; positioned I/O is not
// interposed. fds opened O_SYNC/O_DSYNC are write-through — the app asked
// for synchronous durability and gets it. stdio streams bypass the model
// entirely (libc's internal write does not cross the PLT), so an oracle
// file written with fwrite+fflush survives the kill — harnesses rely on
// that. The log reads and restores files through raw syscalls, so it counts
// no call ordinal.
// ---------------------------------------------------------------------------
constexpr int kMaxFdTrack = 128;
// Set for an fd the target open()ed while the log is armed, unless it asked
// for O_SYNC/O_DSYNC.
unsigned char g_fd_logged[kMaxFdTrack];

alignas(16) char g_undo_arena[256 * 1024];
size_t g_undo_arena_used = 0;
struct UndoEntry {
  int fd = -1;
  int live = 0;
  long offset = 0;      // where the write lands
  long prior_size = 0;  // the file's size before it
  size_t len = 0;       // pre-image bytes: the part of the write below prior_size
  size_t arena_off = 0;
};
constexpr int kMaxUndoEntries = 512;
UndoEntry g_undo[kMaxUndoEntries];
int g_undo_count = 0;
int g_logging = 0;

void MaybeResetArena() {
  for (int i = 0; i < g_undo_count; ++i) {
    if (g_undo[i].live) {
      return;
    }
  }
  g_undo_count = 0;
  g_undo_arena_used = 0;
}

// `fd`'s entries become durable: nothing will undo them.
void RetireFd(int fd) {
  for (int i = 0; i < g_undo_count; ++i) {
    if (g_undo[i].live && g_undo[i].fd == fd) {
      g_undo[i].live = 0;
    }
  }
  MaybeResetArena();
}

// Rolls back `fd`'s live entries, or every fd's when `fd` < 0, newest first.
void Undo(int fd) {
  for (int i = g_undo_count - 1; i >= 0; --i) {
    UndoEntry& entry = g_undo[i];
    if (!entry.live || (fd >= 0 && entry.fd != fd)) {
      continue;
    }
    const char* data = g_undo_arena + entry.arena_off;
    size_t done = 0;
    while (done < entry.len) {
      const long w = syscall(SYS_pwrite64, entry.fd, data + done, entry.len - done,
                             entry.offset + static_cast<long>(done));
      if (w <= 0) {
        break;
      }
      done += static_cast<size_t>(w);
    }
    syscall(SYS_ftruncate, entry.fd, entry.prior_size);
    entry.live = 0;
  }
  MaybeResetArena();
}

// Writes `v` in decimal to `out` (no terminator); returns the digit count.
int FormatDecimal(uint32_t v, char* out) {
  char rev[10];
  int n = 0;
  do {
    rev[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (int i = 0; i < n; ++i) {
    out[i] = rev[n - 1 - i];
  }
  return n;
}

// Reads `len` bytes at `offset` of `fd`'s file. An O_WRONLY fd cannot read,
// so its bytes come through a read-only reopen of /proc/self/fd/N.
bool ReadPreImage(int fd, bool write_only, char* out, size_t len, long offset) {
  int src = fd;
  if (write_only) {
    char path[32] = "/proc/self/fd/";
    path[14 + FormatDecimal(static_cast<uint32_t>(fd), path + 14)] = '\0';
    src = static_cast<int>(syscall(SYS_openat, AT_FDCWD, path, O_RDONLY | O_CLOEXEC));
    if (src < 0) {
      return false;
    }
  }
  size_t got = 0;
  while (got < len) {
    const long r = syscall(SYS_pread64, src, out + got, len - got,
                           offset + static_cast<long>(got));
    if (r <= 0) {
      break;
    }
    got += static_cast<size_t>(r);
  }
  if (write_only) {
    syscall(SYS_close, src);
  }
  return got == len;
}

// Logs what a write of `count` bytes to `fd` is about to overwrite. An
// O_APPEND write lands at end of file and overwrites nothing. Log pressure
// retires the fd's entries and lets this write through unlogged; so does a
// pre-image that cannot be read, since nothing could undo the write.
void LogWrite(int fd, size_t count) {
  if (!g_logging || fd < 0 || fd >= kMaxFdTrack || !g_fd_logged[fd]) {
    return;
  }
  struct stat st;
  const long flags = syscall(SYS_fcntl, fd, F_GETFL);
  if (flags < 0 || syscall(SYS_fstat, fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    return;
  }
  const long offset =
      (flags & O_APPEND) != 0 ? st.st_size : syscall(SYS_lseek, fd, 0, SEEK_CUR);
  if (offset < 0) {
    return;
  }
  const size_t below_eof = offset < st.st_size ? static_cast<size_t>(st.st_size - offset) : 0;
  const size_t len = count < below_eof ? count : below_eof;
  if (g_undo_count >= kMaxUndoEntries || g_undo_arena_used + len > sizeof(g_undo_arena)) {
    RetireFd(fd);
    return;
  }
  if (len > 0 && !ReadPreImage(fd, (flags & O_ACCMODE) == O_WRONLY,
                               g_undo_arena + g_undo_arena_used, len, offset)) {
    return;
  }
  g_undo[g_undo_count++] = UndoEntry{fd, 1, offset, st.st_size, len, g_undo_arena_used};
  g_undo_arena_used += len;
}

void NoteOpen(int fd, int flags) {
  if (!g_logging || fd < 0 || fd >= kMaxFdTrack) {
    return;
  }
  g_fd_logged[fd] = (flags & (O_SYNC | O_DSYNC)) == 0;
}

// Arms (or disarms) the log for one test and clears all per-test state.
// Runs from ArmPlans — in a server before the fork, so every child starts
// with an empty log.
void ResetLog(int active) {
  g_logging = active;
  g_undo_count = 0;
  g_undo_arena_used = 0;
  memset(g_fd_logged, 0, sizeof(g_fd_logged));
}

void MapFeedback() {
  const char* path = getenv("AFEX_FEEDBACK");
  const int fd = path != nullptr && *path != '\0' ? g_real_open(path, O_RDWR) : -1;
  void* mem = mmap(nullptr, sizeof(FeedbackBlock), PROT_READ | PROT_WRITE,
                   MAP_SHARED | (fd < 0 ? MAP_ANONYMOUS : 0), fd, 0);
  if (fd >= 0) {
    g_real_close(fd);
  }
  if (mem != MAP_FAILED) {
    g_block = static_cast<FeedbackBlock*>(mem);
  }
}

// ---------------------------------------------------------------------------
// Serve loop (exec/forkserver_protocol.h).
// ---------------------------------------------------------------------------
int g_serving = 0;  // 1 in the server and its children, 0 in a plain run
int g_argc = 0;     // captured by the constructor (glibc passes main's args
char** g_argv = nullptr;  // to ELF constructors) for per-child rewriting
int g_persistent_entered = 0;

// The request in flight: read by the server, inherited by the child it forks
// for it; a persistent child reads its later requests into the same slot.
FsRequest g_request;

// Whole-buffer pipe I/O on the raw fds, EINTR-proof. False means the peer is
// gone (EOF / hard error): the server's only correct move is to exit, the
// client's to respawn.
bool ReadFull(int fd, void* buf, size_t len) {
  char* p = static_cast<char*>(buf);
  size_t got = 0;
  while (got < len) {
    ssize_t n = g_real_read(fd, p + got, len - got);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

bool WriteFull(int fd, const void* buf, size_t len) {
  const char* p = static_cast<const char*>(buf);
  size_t put = 0;
  while (put < len) {
    ssize_t n = g_real_write(fd, p + put, len - put);
    if (n > 0) {
      put += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

bool SendMsg(FsMsgKind kind, int32_t value, uint32_t seq) {
  FsMsg msg;
  msg.magic = kFsMsgMagic;
  msg.kind = static_cast<uint32_t>(kind);
  msg.value = value;
  msg.seq = seq;
  return WriteFull(kForkserverStatusFd, &msg, sizeof(msg));
}

// Reads one request. Any violation — short read, wrong magic — is
// indistinguishable from a torn client write, and the server exits rather
// than resynchronize.
bool ReadRequest(FsRequest& req) {
  return ReadFull(kForkserverCtlFd, &req, sizeof(req)) && req.magic == kFsRequestMagic;
}

// Re-arms the shared block for one test: every counter back to zero, the
// request's sequence number stamped in, the parent's plan region untouched.
// A crashed child's stale counts can never leak into the next test because
// the reset happens on the server side, before the child that would read
// them exists.
void ResetFeedbackForTest(uint32_t seq) {
  FeedbackBlock* b = g_block;
  for (uint32_t i = 0; i < kMaxInterposedFunctions; ++i) {
    b->calls[i] = 0;
    b->injected[i] = 0;
  }
  b->injected_total = 0;
  b->first_injected_call = 0;
  b->first_injected_slot = 0;
  b->plans_loaded = 0;
  // The per-test edge-hit list is reset; the process-lifetime sancov
  // counters and seen-bitmap are NOT (see the harvest comment: cumulative
  // counters + child-side dedup is what makes exec modes record-equal).
  // In the server no region is registered yet (the executable's initializers
  // only run in the forked children), so these stamp zero and each child
  // re-stamps at registration time.
  b->edge_hit_count = 0;
  b->edge_overflow = 0;
  b->edges_supported = g_sancov_start != nullptr ? 1 : 0;
  b->edge_total = g_sancov_full_len;
  b->test_seq = seq;
}

// Arms the block's plan for one test; the only arming routine, in every exec
// mode (see the file comment for where it runs). A plan_count above
// kFsMaxPlans arms nothing; entries failing ValidPlanEntry are dropped.
void ArmPlans() {
  const FeedbackBlock* b = g_block;
  const uint64_t count = b->plan_count <= kFsMaxPlans ? b->plan_count : 0;
  g_plan_count = 0;
  int logging = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const FsPlanEntry entry = b->plan[i];
    if (!ValidPlanEntry(entry)) {
      continue;
    }
    g_plans[g_plan_count++] = entry;
    if (entry.kind >= static_cast<int32_t>(FaultKind::kDropSync)) {
      logging = 1;
    }
  }
  g_block->plans_loaded = static_cast<uint64_t>(g_plan_count);
  // Runs in the server before the fork (or between persistent iterations):
  // every test starts with an empty undo log and a clean fd table.
  ResetLog(logging);
}

// Substitutes the request's test id for every "{test}" placeholder in the
// captured argv: each such argument is rebuilt in a fresh buffer and its
// argv slot repointed. Runs in the forked child, which is single-threaded;
// the server's own argv keeps the literal placeholder for the next fork.
void RewriteArgvForTest(uint32_t test_id) {
  char digits[10];
  const int nd = FormatDecimal(test_id, digits);
  for (int a = 0; a < g_argc; ++a) {
    const char* p = g_argv[a];
    if (p == nullptr || strstr(p, "{test}") == nullptr) {
      continue;
    }
    // Each 6-byte placeholder grows to at most 10 digits.
    char* out = static_cast<char*>(g_real_malloc(strlen(p) * 2 + 1));
    if (out == nullptr) {
      continue;
    }
    g_argv[a] = out;
    while (*p != '\0') {
      if (strncmp(p, "{test}", 6) == 0) {
        memcpy(out, digits, static_cast<size_t>(nd));
        out += nd;
        p += 6;
      } else {
        *out++ = *p++;
      }
    }
    *out = '\0';
  }
}

// The serve loop: runs forever in the server and returns only in a forked
// child, which falls back into the constructor and on into the program.
void ServeForkserver() {
  if (!SendMsg(FsMsgKind::kHello, static_cast<int32_t>(kForkserverProtocolVersion), 0)) {
    _exit(0);
  }
  const pid_t server = getpid();
  for (;;) {
    if (!ReadRequest(g_request)) {
      _exit(0);  // client gone or protocol torn: clean shutdown
    }
    ResetFeedbackForTest(g_request.test_seq);
    ArmPlans();
    pid_t pid = fork();
    if (pid == 0) {
      // Die with the server: the child holds the status pipe's write end
      // and, outliving it, would keep its death from reading as EOF on the
      // client side.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      // The child announces its own pid: written before anything else it
      // sends, so it reaches the client ahead of a persistent child's first
      // kIterStatus (a server-side send after fork() could lose that race).
      if (getppid() != server ||
          !SendMsg(FsMsgKind::kChildPid, static_cast<int32_t>(getpid()), g_request.test_seq)) {
        _exit(0);
      }
      // Kept for the iterations, hidden from anything the target execs.
      fcntl(kForkserverCtlFd, F_SETFD, FD_CLOEXEC);
      fcntl(kForkserverStatusFd, F_SETFD, FD_CLOEXEC);
      RewriteArgvForTest(g_request.test_id);
      return;
    }
    if (pid < 0) {
      if (!SendMsg(FsMsgKind::kChildStatus, -1, g_request.test_seq)) {
        _exit(0);
      }
      continue;
    }
    int status = 0;
    for (;;) {
      pid_t r = waitpid(pid, &status, 0);
      if (r == pid) {
        break;
      }
      if (r < 0 && errno == EINTR) {
        continue;
      }
      status = -1;
      break;
    }
    // The block is shared, so its stamp names the test the child died in.
    if (!SendMsg(FsMsgKind::kChildStatus, status, g_block->test_seq)) {
      _exit(0);
    }
  }
}

// Resolves every wrapped symbol up front. The constructor runs while the
// process is still single-threaded (program threads cannot exist before
// preload constructors finish), so after this no wrapper ever writes a
// g_real_* pointer again — multithreaded targets only read them.
#define AFEX_RESOLVE(sym) Resolve(g_real_##sym, #sym);
#define AFEX_RESOLVE_ROW(name, retval, errnos, category, wrapped, kinds, ...) \
  AFEX_LIBC_IF_##wrapped(AFEX_RESOLVE(name) __VA_OPT__(AFEX_RESOLVE(__VA_ARGS__)))
void ResolveAll() {
  AFEX_RESOLVE(free)
  AFEX_LIBC_TABLE(AFEX_RESOLVE_ROW)
}
#undef AFEX_RESOLVE_ROW
#undef AFEX_RESOLVE

// glibc passes main's (argc, argv, envp) to ELF constructors; argv is what
// lets forked children substitute their test id without the server ever
// re-exec'ing.
__attribute__((constructor)) void AfexInterposeInit(int argc, char** argv,
                                                   char** /*envp*/) {
  g_internal = 1;
  g_argc = argc;
  g_argv = argv;
  ResolveAll();
  MapFeedback();
  g_block->magic = kFeedbackMagic;
  g_block->version = kFeedbackVersion;
  g_block->function_count = kInterposedFunctionCount;
  g_block->attached = 1;
  const char* fs = getenv(kForkserverEnvVar);
  if (fs != nullptr && strcmp(fs, kForkserverEnvServe) == 0) {
    g_serving = 1;
    // Consume the variable before any child exists: a test child that
    // exec()s (sh -c, wrappers) re-runs this constructor in the new image,
    // and a leaked AFEX_FORKSERVER would make it serve the protocol on fds
    // that no longer exist instead of running the real program.
    unsetenv(kForkserverEnvVar);
    // Returns in a forked child, its plan and feedback armed by the server
    // before the fork: fall through and activate like a spawned process.
    ServeForkserver();
  } else {
    // A spawned process, or any image a test's process exec()s in any mode:
    // the block already holds this test's plan.
    ArmPlans();
  }
  g_internal = 0;
  __atomic_store_n(&g_active, 1, __ATOMIC_RELEASE);
}

__attribute__((destructor)) void AfexInterposeFini() {
  SancovHarvest();  // edges touched after the last libc call
}

// Inject helper: sets errno and produces the planned return value.
template <typename T>
T Inject(const FsPlanEntry* plan) {
  errno = plan->errno_value;
  return reinterpret_cast<T>(static_cast<intptr_t>(plan->retval));
}
template <>
int Inject<int>(const FsPlanEntry* plan) {
  errno = plan->errno_value;
  return static_cast<int>(plan->retval);
}
template <>
long Inject<long>(const FsPlanEntry* plan) {
  errno = plan->errno_value;
  return plan->retval;
}
template <>
size_t Inject<size_t>(const FsPlanEntry* plan) {
  errno = plan->errno_value;
  return static_cast<size_t>(plan->retval < 0 ? 0 : plan->retval);
}

// The bodies an LP64 alias shares with its row's function (open64, lseek64,
// fopen64): each wrapper resolves its own libc entry and passes it in, and
// both count in the row's slot.

// glibc reads the variadic mode whenever the call can create a file: for
// O_CREAT and for O_TMPFILE (__OPEN_NEEDS_MODE).
int OpenWith(decltype(&::open) real, const char* path, int flags, va_list args) {
  const bool needs_mode = (flags & O_CREAT) != 0 || (flags & O_TMPFILE) == O_TMPFILE;
  const mode_t mode = needs_mode ? va_arg(args, mode_t) : 0;
  if (const FsPlanEntry* plan = OnCall(kSlot_open)) {
    return Inject<int>(plan);
  }
  const int fd = real(path, flags, mode);
  if (fd >= 0 && !g_internal) {
    NoteOpen(fd, flags);
  }
  return fd;
}

// off_t and off64_t are the same type on LP64, so lseek64's entry fits.
off_t LseekWith(decltype(&::lseek) real, int fd, off_t offset, int whence) {
  if (const FsPlanEntry* plan = OnCall(kSlot_lseek)) {
    return Inject<long>(plan);
  }
  return real(fd, offset, whence);
}

FILE* FopenWith(decltype(&::fopen) real, const char* path, const char* mode) {
  if (const FsPlanEntry* plan = OnCall(kSlot_fopen)) {
    return Inject<FILE*>(plan);
  }
  return real(path, mode);
}

// fsync and fdatasync: the same kinds and the same undo-log rules.
int SyncWith(decltype(&::fsync) real, int slot, int fd) {
  unsigned long n = 0;
  const FsPlanEntry* plan = OnCallCount(slot, n);
  if (plan != nullptr) {
    if (Is(plan, FaultKind::kKillAt)) {
      RecordInjection(slot, n);
      RawKill();
    }
    if (Is(plan, FaultKind::kDropSync)) {
      // The lying drive: report durable, undo the fd's unsynced writes at
      // once — they are gone whether or not a crash follows.
      RecordInjection(slot, n);
      Undo(fd);
      return 0;
    }
    if (Is(plan, FaultKind::kErrno)) {
      // Classic fsyncgate injection: the fd's entries stay live (a failed
      // sync promises nothing about durability).
      RecordInjection(slot, n);
      return Inject<int>(plan);
    }
  }
  const int rc = real(fd);
  if (rc == 0 && g_logging && !g_internal) {
    RetireFd(fd);
  }
  return rc;
}

}  // namespace

// ---------------------------------------------------------------------------
// The wrappers. All extern "C" with the exact libc signatures, and the only
// symbols the library exports (it is built with hidden visibility).
// ---------------------------------------------------------------------------
extern "C" {
#pragma GCC visibility push(default)

void* malloc(size_t size) {
  if (g_real_malloc == nullptr) {
    if (g_resolving) {
      return BootAlloc(size);
    }
    Resolve(g_real_malloc, "malloc");
    if (g_real_malloc == nullptr) {
      return BootAlloc(size);
    }
  }
  if (const FsPlanEntry* plan = OnCall(kSlot_malloc)) {
    return Inject<void*>(plan);
  }
  return g_real_malloc(size);
}

void* calloc(size_t nmemb, size_t size) {
  if (g_real_calloc == nullptr) {
    if (g_resolving) {
      void* p = BootAlloc(nmemb * size);
      if (p != nullptr) {
        memset(p, 0, nmemb * size);
      }
      return p;
    }
    Resolve(g_real_calloc, "calloc");
    if (g_real_calloc == nullptr) {
      return nullptr;
    }
  }
  if (const FsPlanEntry* plan = OnCall(kSlot_calloc)) {
    return Inject<void*>(plan);
  }
  return g_real_calloc(nmemb, size);
}

void* realloc(void* ptr, size_t size) {
  Resolve(g_real_realloc, "realloc");
  if (ptr != nullptr && IsBootPtr(ptr)) {
    // Bootstrap storage cannot be resized in place; migrate to the heap.
    Resolve(g_real_malloc, "malloc");
    void* fresh = g_real_malloc(size);
    if (fresh != nullptr) {
      size_t old = BootChunkSize(ptr);
      memcpy(fresh, ptr, old < size ? old : size);
    }
    return fresh;
  }
  if (const FsPlanEntry* plan = OnCall(kSlot_realloc)) {
    return Inject<void*>(plan);
  }
  return g_real_realloc(ptr, size);
}

void free(void* ptr) {
  if (ptr == nullptr || IsBootPtr(ptr)) {
    return;  // bootstrap storage is never reclaimed
  }
  Resolve(g_real_free, "free");
  g_real_free(ptr);
}

int open(const char* path, int flags, ...) {
  Resolve(g_real_open, "open");
  va_list args;
  va_start(args, flags);
  const int fd = OpenWith(g_real_open, path, flags, args);
  va_end(args);
  return fd;
}

int open64(const char* path, int flags, ...) {
  Resolve(g_real_open64, "open64");
  va_list args;
  va_start(args, flags);
  const int fd = OpenWith(g_real_open64, path, flags, args);
  va_end(args);
  return fd;
}

int close(int fd) {
  Resolve(g_real_close, "close");
  if (const FsPlanEntry* plan = OnCall(kSlot_close)) {
    return Inject<int>(plan);
  }
  if (g_logging && !g_internal && fd >= 0 && fd < kMaxFdTrack) {
    // A clean close retires the fd's entries: its data counts as durable,
    // as the page cache would eventually write it back.
    RetireFd(fd);
    g_fd_logged[fd] = 0;
  }
  return g_real_close(fd);
}

ssize_t read(int fd, void* buf, size_t count) {
  Resolve(g_real_read, "read");
  if (const FsPlanEntry* plan = OnCall(kSlot_read)) {
    return Inject<long>(plan);
  }
  return g_real_read(fd, buf, count);
}

ssize_t write(int fd, const void* buf, size_t count) {
  Resolve(g_real_write, "write");
  unsigned long n = 0;
  const FsPlanEntry* plan = OnCallCount(kSlot_write, n);
  if (plan != nullptr) {
    if (Is(plan, FaultKind::kKillAt)) {
      RecordInjection(kSlot_write, n);
      RawKill();
    } else if (Is(plan, FaultKind::kErrno)) {
      RecordInjection(kSlot_write, n);
      return Inject<long>(plan);
    } else if (Is(plan, FaultKind::kShortWrite) &&
               static_cast<unsigned long>(plan->param) < count) {
      // The torn write: only the first K bytes happen. When K covers the
      // whole buffer the call is untouched and no injection is recorded.
      RecordInjection(kSlot_write, n);
      count = static_cast<size_t>(plan->param);
    }
  }
  LogWrite(fd, count);
  return g_real_write(fd, buf, count);
}

off_t lseek(int fd, off_t offset, int whence) {
  Resolve(g_real_lseek, "lseek");
  return LseekWith(g_real_lseek, fd, offset, whence);
}

off64_t lseek64(int fd, off64_t offset, int whence) {
  Resolve(g_real_lseek64, "lseek64");
  return LseekWith(g_real_lseek64, fd, offset, whence);
}

FILE* fopen(const char* path, const char* mode) {
  Resolve(g_real_fopen, "fopen");
  return FopenWith(g_real_fopen, path, mode);
}

FILE* fopen64(const char* path, const char* mode) {
  Resolve(g_real_fopen64, "fopen64");
  return FopenWith(g_real_fopen64, path, mode);
}

int fclose(FILE* stream) {
  Resolve(g_real_fclose, "fclose");
  if (const FsPlanEntry* plan = OnCall(kSlot_fclose)) {
    return Inject<int>(plan);
  }
  return g_real_fclose(stream);
}

size_t fread(void* ptr, size_t size, size_t nmemb, FILE* stream) {
  Resolve(g_real_fread, "fread");
  if (const FsPlanEntry* plan = OnCall(kSlot_fread)) {
    return Inject<size_t>(plan);
  }
  return g_real_fread(ptr, size, nmemb, stream);
}

size_t fwrite(const void* ptr, size_t size, size_t nmemb, FILE* stream) {
  Resolve(g_real_fwrite, "fwrite");
  unsigned long n = 0;
  const FsPlanEntry* plan = OnCallCount(kSlot_fwrite, n);
  if (plan != nullptr) {
    if (Is(plan, FaultKind::kKillAt)) {
      RecordInjection(kSlot_fwrite, n);
      RawKill();
    }
    if (Is(plan, FaultKind::kErrno)) {
      RecordInjection(kSlot_fwrite, n);
      return Inject<size_t>(plan);
    }
    if (Is(plan, FaultKind::kShortWrite) &&
        static_cast<unsigned long>(plan->param) < nmemb) {
      // Torn stdio write: only the first K items happen. K covering all
      // items means the call is untouched and nothing is recorded.
      RecordInjection(kSlot_fwrite, n);
      return g_real_fwrite(ptr, size, static_cast<size_t>(plan->param), stream);
    }
  }
  return g_real_fwrite(ptr, size, nmemb, stream);
}

char* fgets(char* s, int size, FILE* stream) {
  Resolve(g_real_fgets, "fgets");
  if (const FsPlanEntry* plan = OnCall(kSlot_fgets)) {
    return Inject<char*>(plan);
  }
  return g_real_fgets(s, size, stream);
}

int fflush(FILE* stream) {
  Resolve(g_real_fflush, "fflush");
  if (const FsPlanEntry* plan = OnCall(kSlot_fflush)) {
    return Inject<int>(plan);
  }
  return g_real_fflush(stream);
}

int unlink(const char* path) {
  Resolve(g_real_unlink, "unlink");
  if (const FsPlanEntry* plan = OnCall(kSlot_unlink)) {
    return Inject<int>(plan);
  }
  return g_real_unlink(path);
}

int rename(const char* oldpath, const char* newpath) {
  Resolve(g_real_rename, "rename");
  unsigned long n = 0;
  const FsPlanEntry* plan = OnCallCount(kSlot_rename, n);
  if (plan != nullptr) {
    if (Is(plan, FaultKind::kKillAt)) {
      RecordInjection(kSlot_rename, n);
      RawKill();
    }
    if (Is(plan, FaultKind::kErrno)) {
      RecordInjection(kSlot_rename, n);
      return Inject<int>(plan);
    }
    if (Is(plan, FaultKind::kCrashAfterRename)) {
      // The rename reaches the directory; the power dies before anything
      // else does. RawKill undoes every unsynced write first.
      RecordInjection(kSlot_rename, n);
      g_real_rename(oldpath, newpath);
      RawKill();
    }
  }
  return g_real_rename(oldpath, newpath);
}

int fsync(int fd) {
  Resolve(g_real_fsync, "fsync");
  return SyncWith(g_real_fsync, kSlot_fsync, fd);
}

int fdatasync(int fd) {
  Resolve(g_real_fdatasync, "fdatasync");
  return SyncWith(g_real_fdatasync, kSlot_fdatasync, fd);
}

int mkdir(const char* path, mode_t mode) {
  Resolve(g_real_mkdir, "mkdir");
  if (const FsPlanEntry* plan = OnCall(kSlot_mkdir)) {
    return Inject<int>(plan);
  }
  return g_real_mkdir(path, mode);
}

int socket(int domain, int type, int protocol) {
  Resolve(g_real_socket, "socket");
  if (const FsPlanEntry* plan = OnCall(kSlot_socket)) {
    return Inject<int>(plan);
  }
  return g_real_socket(domain, type, protocol);
}

int connect(int sockfd, const struct sockaddr* addr, socklen_t addrlen) {
  Resolve(g_real_connect, "connect");
  if (const FsPlanEntry* plan = OnCall(kSlot_connect)) {
    return Inject<int>(plan);
  }
  return g_real_connect(sockfd, addr, addrlen);
}

int bind(int sockfd, const struct sockaddr* addr, socklen_t addrlen) {
  Resolve(g_real_bind, "bind");
  if (const FsPlanEntry* plan = OnCall(kSlot_bind)) {
    return Inject<int>(plan);
  }
  return g_real_bind(sockfd, addr, addrlen);
}

int listen(int sockfd, int backlog) {
  Resolve(g_real_listen, "listen");
  if (const FsPlanEntry* plan = OnCall(kSlot_listen)) {
    return Inject<int>(plan);
  }
  return g_real_listen(sockfd, backlog);
}

int accept(int sockfd, struct sockaddr* addr, socklen_t* addrlen) {
  Resolve(g_real_accept, "accept");
  if (const FsPlanEntry* plan = OnCall(kSlot_accept)) {
    return Inject<int>(plan);
  }
  return g_real_accept(sockfd, addr, addrlen);
}

ssize_t send(int sockfd, const void* buf, size_t len, int flags) {
  Resolve(g_real_send, "send");
  if (const FsPlanEntry* plan = OnCall(kSlot_send)) {
    return Inject<long>(plan);
  }
  return g_real_send(sockfd, buf, len, flags);
}

ssize_t recv(int sockfd, void* buf, size_t len, int flags) {
  Resolve(g_real_recv, "recv");
  if (const FsPlanEntry* plan = OnCall(kSlot_recv)) {
    return Inject<long>(plan);
  }
  return g_real_recv(sockfd, buf, len, flags);
}

// SanitizerCoverage adoption point. An instrumented target's sancov client
// (exec/sancov_client.cc) declares this weak-undefined and calls it with
// the module's byte-counter region; uninstrumented targets never reference
// it, and instrumented targets run un-preloaded resolve it to null and skip
// the call. First region wins; a re-registration of the same base pointer
// with a longer length (the trace-pc-guard stub grows as guards get
// numbered) extends it. Stores pointers and stamps the shared block only —
// safe from the target's earliest initializers.
void afex_sancov_region(void* begin, void* end) {
  unsigned char* base = static_cast<unsigned char*>(begin);
  unsigned char* stop = static_cast<unsigned char*>(end);
  if (base == nullptr || stop <= base) {
    return;
  }
  unsigned long len = static_cast<unsigned long>(stop - base);
  unsigned char* cur = __atomic_load_n(&g_sancov_start, __ATOMIC_RELAXED);
  if (cur != nullptr && (cur != base || len <= g_sancov_full_len)) {
    return;
  }
  g_sancov_full_len = len;
  g_sancov_len = len > kMaxSancovEdges ? kMaxSancovEdges : len;
  __atomic_store_n(&g_sancov_start, base, __ATOMIC_RELEASE);
  g_block->edges_supported = 1;
  g_block->edge_total = g_sancov_full_len;
}

// The persistent hook (see README "Execution modes"). A target adopts
// it by declaring the symbol weak and, early in main, handing over its
// per-test entry function:
//
//   extern "C" __attribute__((weak)) int afex_persistent_run(int (*)(int));
//   if (afex_persistent_run != nullptr) {
//     int rc = afex_persistent_run(&RunOneTest);
//     if (rc >= 0) return rc;   // loop ran (or plain preload: rc == -1)
//   }
//
// Returns -1 at once outside a server child (plain runs, spawn mode, any
// image a child exec()s), so adopted targets behave identically there. It
// also returns -1 when the target already made an interposed call for the
// in-flight test: later iterations would skip that pre-hook call and so
// shift their ordinals, so the child runs that one test and exits, with
// spawn's records. Otherwise it runs the request the child was forked for,
// then reads, arms and runs requests itself until the client closes the
// control pipe, and returns 0. exit() or a crash inside an iteration ends
// the child; the server forks the next one.
int afex_persistent_run(int (*entry)(int test_id)) {
  if (!g_serving || g_persistent_entered || entry == nullptr) {
    return -1;
  }
  for (uint32_t i = 0; i < kInterposedFunctionCount; ++i) {
    if (g_block->calls[i] != 0) {
      return -1;
    }
  }
  g_persistent_entered = 1;
  for (;;) {
    const int code = entry(static_cast<int>(g_request.test_id)) & 0xff;
    ++g_internal;
    // Final harvest for this iteration: edges touched after the entry's
    // last libc call land in this test's list, not the next one's. Must
    // complete before the status message — the client reads the block as
    // soon as kIterStatus arrives.
    SancovHarvest();
    if (!SendMsg(FsMsgKind::kIterStatus, code, g_request.test_seq) ||
        !ReadRequest(g_request)) {
      --g_internal;
      return 0;
    }
    ResetFeedbackForTest(g_request.test_seq);
    ArmPlans();
    --g_internal;
  }
}

#pragma GCC visibility pop
}  // extern "C"
