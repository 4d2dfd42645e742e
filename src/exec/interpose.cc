// libafex_interpose.so — the real-process injection mechanism (the LFI role
// of paper §6.1, realized as an LD_PRELOAD libc interposer). Wraps the
// profiled libc entry points; each wrapper counts the call in a mmap'd
// feedback block (exec/feedback_block.h) shared with the parent and, when
// the call ordinal falls inside an armed plan's window, injects the planned
// fault: set errno, return the profiled error value, never enter libc.
//
// In spawn mode the per-run plan arrives via two environment variables set by
// the process runner:
//   AFEX_PLAN     — the plan's FsPlanEntry records, hex-encoded
//                   (exec/fault_plan.h), decoded into a static table and
//                   armed by ArmPlans, the routine every exec mode uses
//   AFEX_FEEDBACK — feedback file, pre-sized by the parent, mmapped here
//
// Engineering constraints, all consequences of living inside an arbitrary
// target process:
//  * No C++ runtime facilities that allocate or throw: a malloc interposer
//    cannot call the allocator it replaces. Plan decoding and feedback setup
//    use raw syscalls and fixed buffers.
//  * dlsym(RTLD_NEXT, ...) itself may allocate (dlerror state) before
//    real_malloc is resolved; a small static bump arena serves those
//    bootstrap allocations, and free()/realloc() recognize its range.
//  * Counting starts only once the constructor has run (g_active): loader
//    and pre-main libc initialization calls are excluded, so call ordinals
//    are stable properties of the target program, not of ld.so internals.
//  * Internal calls (decoding the plan, mapping feedback) run with
//    g_internal set so they are neither counted nor injected.
//  * Built with -fno-sanitize=all: preloading a sanitized .so into an
//    arbitrary child would require the sanitizer runtime to lead the
//    library list, which no plain target satisfies.
//  * LD_PRELOAD, AFEX_PLAN, and the MAP_SHARED feedback block are
//    inherited by every process the target spawns: the whole tree shares
//    one ordinal space. Deterministic for sequential trees; concurrent
//    children interleave ordinals nondeterministically (per-process
//    counting is future work).
//
// Execution modes (exec/forkserver_protocol.h): when AFEX_FORKSERVER is set
// the constructor does not fall through into the target. It announces itself
// on the status pipe and serves tests, forking one pristine child per
// request (plan armed and feedback reset *before* the fork, so the child
// starts counting from zero exactly like a spawned process). In persistent
// mode the child keeps the protocol fds: once the target's main hands its
// entry function to afex_persistent_run(), the child runs the request it was
// forked for and then reads and runs further requests in-process, one
// iteration each, until it exits or crashes and the server forks the next
// child. The serve loop uses only async-signal-safe primitives (raw
// g_real_read/g_real_write on fixed fds, fork, waitpid, _exit): it runs
// before main in an arbitrary target and forks while holding no locks.
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

using afex::exec::FeedbackBlock;
using afex::exec::FsMsg;
using afex::exec::FsMsgKind;
using afex::exec::FsPlanEntry;
using afex::exec::FsRequest;
using afex::exec::kFeedbackMagic;
using afex::exec::kFeedbackVersion;
using afex::exec::kForkserverCtlFd;
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
using MallocFn = void* (*)(size_t);
using CallocFn = void* (*)(size_t, size_t);
using ReallocFn = void* (*)(void*, size_t);
using FreeFn = void (*)(void*);
using OpenFn = int (*)(const char*, int, ...);
using CloseFn = int (*)(int);
using ReadFn = ssize_t (*)(int, void*, size_t);
using WriteFn = ssize_t (*)(int, const void*, size_t);
using LseekFn = off_t (*)(int, off_t, int);
using Lseek64Fn = off64_t (*)(int, off64_t, int);
using FsyncFn = int (*)(int);
using FopenFn = FILE* (*)(const char*, const char*);
using FcloseFn = int (*)(FILE*);
using FreadFn = size_t (*)(void*, size_t, size_t, FILE*);
using FwriteFn = size_t (*)(const void*, size_t, size_t, FILE*);
using FgetsFn = char* (*)(char*, int, FILE*);
using FflushFn = int (*)(FILE*);
using UnlinkFn = int (*)(const char*);
using RenameFn = int (*)(const char*, const char*);
using MkdirFn = int (*)(const char*, mode_t);
using SocketFn = int (*)(int, int, int);
using SockaddrFn = int (*)(int, const struct sockaddr*, socklen_t);
using ListenFn = int (*)(int, int);
using AcceptFn = int (*)(int, struct sockaddr*, socklen_t*);
using SendFn = ssize_t (*)(int, const void*, size_t, int);
using RecvFn = ssize_t (*)(int, void*, size_t, int);

MallocFn g_real_malloc;
CallocFn g_real_calloc;
ReallocFn g_real_realloc;
FreeFn g_real_free;
OpenFn g_real_open;
OpenFn g_real_open64;
CloseFn g_real_close;
ReadFn g_real_read;
WriteFn g_real_write;
LseekFn g_real_lseek;
Lseek64Fn g_real_lseek64;
FsyncFn g_real_fsync;
FsyncFn g_real_fdatasync;
FopenFn g_real_fopen;
FopenFn g_real_fopen64;
FcloseFn g_real_fclose;
FreadFn g_real_fread;
FwriteFn g_real_fwrite;
FgetsFn g_real_fgets;
FflushFn g_real_fflush;
UnlinkFn g_real_unlink;
RenameFn g_real_rename;
MkdirFn g_real_mkdir;
SocketFn g_real_socket;
SockaddrFn g_real_connect;
SockaddrFn g_real_bind;
ListenFn g_real_listen;
AcceptFn g_real_accept;
SendFn g_real_send;
RecvFn g_real_recv;

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
// Slot constants, kept in sync with kInterposedFunctions by static_asserts
// on the names that anchor each group.
enum Slot : int {
  kSlotMalloc = 0,
  kSlotCalloc,
  kSlotRealloc,
  kSlotFopen,
  kSlotFclose,
  kSlotFread,
  kSlotFwrite,
  kSlotFgets,
  kSlotFflush,
  kSlotOpen,
  kSlotClose,
  kSlotRead,
  kSlotWrite,
  kSlotLseek,
  kSlotFsync,
  kSlotFdatasync,
  kSlotRename,
  kSlotUnlink,
  kSlotMkdir,
  kSlotSocket,
  kSlotBind,
  kSlotListen,
  kSlotAccept,
  kSlotConnect,
  kSlotSend,
  kSlotRecv,
};
static_assert(afex::exec::kInterposedFunctions[kSlotMalloc][0] == 'm');
static_assert(afex::exec::kInterposedFunctions[kSlotFopen][1] == 'o');
static_assert(afex::exec::kInterposedFunctions[kSlotOpen][0] == 'o');
static_assert(afex::exec::kInterposedFunctions[kSlotFsync][1] == 's');
static_assert(afex::exec::kInterposedFunctions[kSlotRecv][0] == 'r');
static_assert(kSlotRecv + 1 == static_cast<int>(kInterposedFunctionCount));

// Numeric fault kinds, matching injection/fault_bus.h FaultKind (this file
// is freestanding and cannot include it).
enum PlanKind : int {
  kKindErrno = 0,
  kKindShortWrite = 1,
  kKindDropSync = 2,
  kKindKillAt = 3,
  kKindCrashAfterRename = 4,
};

// Per-kind function constraints, the slot-level mirror of
// FaultKindAppliesTo: a drop_sync on read() could never mean anything.
bool KindAllowedForSlot(int kind, int slot) {
  switch (kind) {
    case kKindErrno:
    case kKindKillAt:
      return true;
    case kKindShortWrite:
      return slot == kSlotWrite || slot == kSlotFwrite;
    case kKindDropSync:
      return slot == kSlotFsync || slot == kSlotFdatasync;
    case kKindCrashAfterRename:
      return slot == kSlotRename;
    default:
      return false;
  }
}

// The power cut. Raw syscalls so no wrapper, atexit handler, or stdio flush
// runs between the decision to die and death — exactly like losing power.
// The feedback block is MAP_SHARED, so injections recorded before the kill
// survive for the parent to read. Edges touched since the last libc call
// are harvested first — the harvest only writes the shared block, which
// survives the kill exactly like the injection counters do.
void SancovHarvest();
[[noreturn]] void RawKill() {
  SancovHarvest();
  syscall(SYS_kill, syscall(SYS_getpid), SIGKILL);
  for (;;) {
  }
}

struct Plan {
  int slot = -1;
  int kind = kKindErrno;
  unsigned long call_lo = 0;
  unsigned long call_hi = 0;
  long retval = -1;
  long param = 0;  // short_write: byte (write) / item (fwrite) count kept
  int errno_value = 0;
};

Plan g_plans[kFsMaxPlans];
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
const Plan* MatchPlan(int slot, unsigned long n) {
  for (int i = 0; i < g_plan_count; ++i) {
    const Plan& p = g_plans[i];
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
const Plan* OnCallCount(int slot, unsigned long& n) {
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
const Plan* OnCall(int slot) {
  unsigned long n = 0;
  const Plan* plan = OnCallCount(slot, n);
  if (plan == nullptr) {
    return nullptr;
  }
  if (plan->kind == kKindKillAt) {
    RecordInjection(slot, n);
    RawKill();
  }
  if (plan->kind != kKindErrno) {
    return nullptr;  // arming validated kind/slot pairs; never reached
  }
  RecordInjection(slot, n);
  return plan;
}

// ---------------------------------------------------------------------------
// Deferred-durability write buffer. Armed whenever any plan carries a
// crash-shaped kind (drop_sync, kill_at, crash_after_rename): emulating a
// power cut with SIGKILL only works if unsynced data can actually be lost,
// and the kernel page cache survives process death. So while a crash kind
// is armed, every write() to a target-opened regular file is deferred into
// a static arena and only reaches the file on fsync/fdatasync/close/clean
// exit — the interposer plays the page cache. A SIGKILL (kill_at,
// crash_after_rename) loses whatever is pending, exactly like pulling the
// plug; a faulted drop_sync reports success and discards the fd's pending
// records, the classic lying drive.
//
// Scope (documented limitation): sequential WAL/page-store I/O. Tracked
// fds are those the target open()s; O_APPEND fds flush via plain write,
// others via pwrite at the offset the app saw (shadow-tracked through
// lseek). Reads of not-yet-flushed data return stale bytes. fds opened
// O_SYNC/O_DSYNC are write-through — the app asked for synchronous
// durability and gets it. stdio streams bypass this entirely (libc's
// internal write does not cross the PLT), so an oracle file written with
// fwrite+fflush survives the kill — harnesses rely on that.
// ---------------------------------------------------------------------------
constexpr int kMaxFdTrack = 128;
struct FdInfo {
  unsigned char tracked = 0;       // open()'d by the target while buffering
  unsigned char writethrough = 0;  // O_SYNC/O_DSYNC: app asked for durability
  unsigned char append = 0;        // O_APPEND: flush via plain write
  long offset = 0;                 // shadow file offset (non-append fds)
};
FdInfo g_fd_info[kMaxFdTrack];

alignas(16) char g_write_arena[256 * 1024];
size_t g_write_arena_used = 0;
struct WriteRecord {
  int fd = -1;
  int live = 0;
  long offset = 0;  // -1 = append record
  size_t len = 0;
  size_t arena_off = 0;
};
constexpr int kMaxWriteRecords = 512;
WriteRecord g_write_records[kMaxWriteRecords];
int g_write_record_count = 0;
int g_buffering = 0;

void MaybeResetArena() {
  for (int i = 0; i < g_write_record_count; ++i) {
    if (g_write_records[i].live) {
      return;
    }
  }
  g_write_record_count = 0;
  g_write_arena_used = 0;
}

// Replays `fd`'s pending records, in order. pwrite for positioned records
// so the kernel offset (which deferred writes never advanced) stays
// untouched; plain write for O_APPEND records.
void FlushFd(int fd) {
  for (int i = 0; i < g_write_record_count; ++i) {
    WriteRecord& rec = g_write_records[i];
    if (!rec.live || rec.fd != fd) {
      continue;
    }
    const char* data = g_write_arena + rec.arena_off;
    size_t done = 0;
    while (done < rec.len) {
      long w;
      if (rec.offset < 0) {
        w = g_real_write(fd, data + done, rec.len - done);
      } else {
        w = syscall(SYS_pwrite64, fd, data + done, rec.len - done,
                    static_cast<long>(rec.offset) + static_cast<long>(done));
      }
      if (w <= 0) {
        break;
      }
      done += static_cast<size_t>(w);
    }
    rec.live = 0;
  }
  MaybeResetArena();
}

void FlushAll() {
  for (int fd = 0; fd < kMaxFdTrack; ++fd) {
    if (g_fd_info[fd].tracked) {
      FlushFd(fd);
    }
  }
}

// The lying drive: the fd's pending records vanish as if they were never
// written.
void DiscardFd(int fd) {
  for (int i = 0; i < g_write_record_count; ++i) {
    if (g_write_records[i].live && g_write_records[i].fd == fd) {
      g_write_records[i].live = 0;
    }
  }
  MaybeResetArena();
}

void NoteOpen(int fd, int flags) {
  if (!g_buffering || fd < 0 || fd >= kMaxFdTrack) {
    return;
  }
  FdInfo& info = g_fd_info[fd];
  info.tracked = (flags & O_DIRECTORY) == 0;
  info.writethrough = (flags & (O_SYNC | O_DSYNC)) != 0;
  info.append = (flags & O_APPEND) != 0;
  info.offset = 0;
}

void ClearFd(int fd) {
  if (fd >= 0 && fd < kMaxFdTrack) {
    g_fd_info[fd] = FdInfo{};
  }
}

// True when the write was absorbed into the arena (*result = full count).
// Arena pressure flushes the fd and falls back to write-through — the same
// thing the kernel's writeback does under memory pressure.
bool BufferedWrite(int fd, const void* buf, size_t count, long* result) {
  if (!g_buffering || fd < 0 || fd >= kMaxFdTrack) {
    return false;
  }
  FdInfo& info = g_fd_info[fd];
  if (!info.tracked || info.writethrough) {
    return false;
  }
  if (g_write_record_count >= kMaxWriteRecords ||
      g_write_arena_used + count > sizeof(g_write_arena)) {
    FlushFd(fd);
    return false;
  }
  WriteRecord& rec = g_write_records[g_write_record_count++];
  rec.fd = fd;
  rec.live = 1;
  rec.offset = info.append ? -1 : info.offset;
  rec.len = count;
  rec.arena_off = g_write_arena_used;
  memcpy(g_write_arena + rec.arena_off, buf, count);
  g_write_arena_used += count;
  if (!info.append) {
    info.offset += static_cast<long>(count);
  }
  *result = static_cast<long>(count);
  return true;
}

// Arms (or disarms) buffering for one test and clears all per-test state.
// Runs from ArmPlans — in forkserver mode in the server, before the fork, so
// every child starts with an empty arena.
void ResetBuffering(int active) {
  g_buffering = active;
  g_write_record_count = 0;
  g_write_arena_used = 0;
  for (int fd = 0; fd < kMaxFdTrack; ++fd) {
    g_fd_info[fd] = FdInfo{};
  }
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
// Forkserver / persistent serve loop (exec/forkserver_protocol.h).
// ---------------------------------------------------------------------------
int g_fs_mode = 0;  // 0 = plain run, 1 = forkserver, 2 = persistent
int g_argc = 0;     // captured by the constructor (glibc passes main's args
char** g_argv = nullptr;  // to ELF constructors) for per-child rewriting
int g_persistent_entered = 0;

// The request in flight: read by the server, inherited by the child it forks
// for it; a persistent child reads its later requests into the same slots.
FsRequest g_request;
FsPlanEntry g_request_plans[kFsMaxPlans];

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

// Reads one request (header + plan entries). Any violation — short read,
// wrong magic, impossible plan count — is indistinguishable from a torn
// client write, and the server exits rather than resynchronize.
bool ReadRequest(FsRequest& req, FsPlanEntry* entries) {
  if (!ReadFull(kForkserverCtlFd, &req, sizeof(req))) {
    return false;
  }
  if (req.magic != kFsRequestMagic || req.plan_count > kFsMaxPlans) {
    return false;
  }
  return req.plan_count == 0 ||
         ReadFull(kForkserverCtlFd, entries, req.plan_count * sizeof(FsPlanEntry));
}

// Re-arms the shared block for one test: every counter back to zero, the
// request's sequence number stamped in. A crashed child's stale counts can
// never leak into the next test because the reset happens on the server
// side, before the child that would read them exists.
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
  // In a forkserver server no region is registered yet (the executable's
  // initializers only run in the forked children), so these stamp zero and
  // each child re-stamps at registration time.
  b->edge_hit_count = 0;
  b->edge_overflow = 0;
  b->edges_supported = g_sancov_start != nullptr ? 1 : 0;
  b->edge_total = g_sancov_full_len;
  b->test_seq = seq;
}

// Arms one test's plan; the only arming routine, in every exec mode (spawn:
// LoadPlanFromEnv; forkserver / persistent: each request). Entries with an
// unknown slot or kind, a bad ordinal window, a kind that does not apply to
// the function, or a negative short_write count are dropped.
void ArmPlans(const FsPlanEntry* entries, uint32_t count) {
  g_plan_count = 0;
  uint64_t loaded = 0;
  int buffering = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const FsPlanEntry& e = entries[i];
    if (e.slot < 0 || e.slot >= static_cast<int32_t>(kInterposedFunctionCount) ||
        e.call_lo < 1 || e.call_hi < e.call_lo) {
      continue;
    }
    if (e.kind < kKindErrno || e.kind > kKindCrashAfterRename ||
        !KindAllowedForSlot(e.kind, e.slot) ||
        (e.kind == kKindShortWrite && e.param < 0)) {
      continue;
    }
    Plan& p = g_plans[g_plan_count++];
    p.slot = e.slot;
    p.kind = e.kind;
    p.call_lo = static_cast<unsigned long>(e.call_lo);
    p.call_hi = static_cast<unsigned long>(e.call_hi);
    p.retval = static_cast<long>(e.retval);
    p.param = static_cast<long>(e.param);
    p.errno_value = e.errno_value;
    if (p.kind >= kKindDropSync) {
      buffering = 1;
    }
    ++loaded;
  }
  g_block->plans_loaded = loaded;
  // Runs in the server before the fork (or between persistent iterations):
  // every test starts with an empty arena and a clean fd table.
  ResetBuffering(buffering);
}

// Lowercase only, as HexEncodePlanEntries writes it.
int HexDigit(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  return -1;
}

// Spawn mode: decodes AFEX_PLAN's hex FsPlanEntry records and arms them. A
// child that exec()s inherits the variable and re-arms the same plan in its
// new image. A malformed value — odd length, a non-hex digit, a trailing
// partial entry, more than kFsMaxPlans entries — arms nothing; ArmPlans
// drops any well-formed entry it cannot honour.
void LoadPlanFromEnv() {
  const char* hex = getenv("AFEX_PLAN");
  if (hex == nullptr || *hex == '\0') {
    return;
  }
  static FsPlanEntry entries[kFsMaxPlans];
  constexpr size_t kEntryHex = 2 * sizeof(FsPlanEntry);
  const size_t len = strlen(hex);
  if (len % kEntryHex != 0 || len / kEntryHex > kFsMaxPlans) {
    return;
  }
  unsigned char* out = reinterpret_cast<unsigned char*>(entries);
  for (size_t i = 0; i < len; i += 2) {
    const int hi = HexDigit(hex[i]);
    const int lo = HexDigit(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return;
    }
    out[i / 2] = static_cast<unsigned char>(hi << 4 | lo);
  }
  ArmPlans(entries, static_cast<uint32_t>(len / kEntryHex));
}

// Substitutes the request's test id for every "{test}" placeholder in the
// captured argv: each such argument is rebuilt in a fresh buffer and its
// argv slot repointed. Runs in the forked child, which is single-threaded;
// the server's own argv keeps the literal placeholder for the next fork.
void RewriteArgvForTest(uint32_t test_id) {
  char digits[12];
  int nd = 0;
  uint32_t v = test_id;
  do {
    digits[nd++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (int i = 0; i < nd / 2; ++i) {
    char t = digits[i];
    digits[i] = digits[nd - 1 - i];
    digits[nd - 1 - i] = t;
  }
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
    if (!ReadRequest(g_request, g_request_plans)) {
      _exit(0);  // client gone or protocol torn: clean shutdown
    }
    ResetFeedbackForTest(g_request.test_seq);
    ArmPlans(g_request_plans, g_request.plan_count);
    pid_t pid = fork();
    if (pid == 0) {
      // Die with the server: a persistent child holds the status pipe's
      // write end and, outliving it, would keep its death from reading as
      // EOF on the client side.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      // The child announces its own pid: written before anything else it
      // sends, so it reaches the client ahead of a persistent child's first
      // kIterStatus (a server-side send after fork() could lose that race).
      if (getppid() != server ||
          !SendMsg(FsMsgKind::kChildPid, static_cast<int32_t>(getpid()), g_request.test_seq)) {
        _exit(0);
      }
      if (g_fs_mode == 2) {
        // Kept for the iterations, hidden from anything the target execs.
        fcntl(kForkserverCtlFd, F_SETFD, FD_CLOEXEC);
        fcntl(kForkserverStatusFd, F_SETFD, FD_CLOEXEC);
      } else {
        g_real_close(kForkserverCtlFd);
        g_real_close(kForkserverStatusFd);
      }
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
void ResolveAll() {
  Resolve(g_real_malloc, "malloc");
  Resolve(g_real_calloc, "calloc");
  Resolve(g_real_realloc, "realloc");
  Resolve(g_real_free, "free");
  Resolve(g_real_open, "open");
  Resolve(g_real_open64, "open64");
  Resolve(g_real_close, "close");
  Resolve(g_real_read, "read");
  Resolve(g_real_write, "write");
  Resolve(g_real_lseek, "lseek");
  Resolve(g_real_lseek64, "lseek64");
  Resolve(g_real_fsync, "fsync");
  Resolve(g_real_fdatasync, "fdatasync");
  Resolve(g_real_fopen, "fopen");
  Resolve(g_real_fopen64, "fopen64");
  Resolve(g_real_fclose, "fclose");
  Resolve(g_real_fread, "fread");
  Resolve(g_real_fwrite, "fwrite");
  Resolve(g_real_fgets, "fgets");
  Resolve(g_real_fflush, "fflush");
  Resolve(g_real_unlink, "unlink");
  Resolve(g_real_rename, "rename");
  Resolve(g_real_mkdir, "mkdir");
  Resolve(g_real_socket, "socket");
  Resolve(g_real_connect, "connect");
  Resolve(g_real_bind, "bind");
  Resolve(g_real_listen, "listen");
  Resolve(g_real_accept, "accept");
  Resolve(g_real_send, "send");
  Resolve(g_real_recv, "recv");
}

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
  if (fs != nullptr && (fs[0] == '1' || fs[0] == '2') && fs[1] == '\0') {
    g_fs_mode = fs[0] - '0';
    // Consume the variable before any child exists: a test child that
    // exec()s (sh -c, wrappers) re-runs this constructor in the new image,
    // and a leaked AFEX_FORKSERVER would make it serve the protocol on fds
    // that no longer exist instead of running the real program.
    unsetenv(kForkserverEnvVar);
    // Returns in a forked child, its plan and feedback armed by the server
    // before the fork: fall through and activate like a spawned process.
    ServeForkserver();
  } else {
    LoadPlanFromEnv();
  }
  g_internal = 0;
  __atomic_store_n(&g_active, 1, __ATOMIC_RELEASE);
}

// Clean process shutdown is the writeback path: exit() runs DSO
// destructors, so pending deferred writes reach the file. Only an actual
// kill (SIGKILL from kill_at / crash_after_rename, or a target calling
// _exit directly) loses them — which is the point.
__attribute__((destructor)) void AfexInterposeFini() {
  SancovHarvest();  // edges touched after the last libc call
  if (g_buffering) {
    ++g_internal;
    FlushAll();
    --g_internal;
  }
}

// Inject helper: sets errno and produces the planned return value.
template <typename T>
T Inject(const Plan* plan) {
  errno = plan->errno_value;
  return reinterpret_cast<T>(static_cast<intptr_t>(plan->retval));
}
template <>
int Inject<int>(const Plan* plan) {
  errno = plan->errno_value;
  return static_cast<int>(plan->retval);
}
template <>
long Inject<long>(const Plan* plan) {
  errno = plan->errno_value;
  return plan->retval;
}
template <>
size_t Inject<size_t>(const Plan* plan) {
  errno = plan->errno_value;
  return static_cast<size_t>(plan->retval < 0 ? 0 : plan->retval);
}

}  // namespace

// ---------------------------------------------------------------------------
// The wrappers. All extern "C" with the exact libc signatures.
// ---------------------------------------------------------------------------
extern "C" {

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
  if (const Plan* plan = OnCall(kSlotMalloc)) {
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
  if (const Plan* plan = OnCall(kSlotCalloc)) {
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
  if (const Plan* plan = OnCall(kSlotRealloc)) {
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
  mode_t mode = 0;
  if (flags & O_CREAT) {
    va_list args;
    va_start(args, flags);
    mode = va_arg(args, mode_t);
    va_end(args);
  }
  Resolve(g_real_open, "open");
  if (const Plan* plan = OnCall(kSlotOpen)) {
    return Inject<int>(plan);
  }
  int fd = g_real_open(path, flags, mode);
  if (fd >= 0 && !g_internal) {
    NoteOpen(fd, flags);
  }
  return fd;
}

int open64(const char* path, int flags, ...) {
  mode_t mode = 0;
  if (flags & O_CREAT) {
    va_list args;
    va_start(args, flags);
    mode = va_arg(args, mode_t);
    va_end(args);
  }
  Resolve(g_real_open64, "open64");
  if (const Plan* plan = OnCall(kSlotOpen)) {
    return Inject<int>(plan);
  }
  int fd = g_real_open64(path, flags, mode);
  if (fd >= 0 && !g_internal) {
    NoteOpen(fd, flags);
  }
  return fd;
}

int close(int fd) {
  Resolve(g_real_close, "close");
  if (const Plan* plan = OnCall(kSlotClose)) {
    return Inject<int>(plan);
  }
  if (g_buffering && !g_internal) {
    // A clean close is the writeback path: pending deferred writes reach
    // the file, as the page cache eventually would.
    FlushFd(fd);
    ClearFd(fd);
  }
  return g_real_close(fd);
}

ssize_t read(int fd, void* buf, size_t count) {
  Resolve(g_real_read, "read");
  if (const Plan* plan = OnCall(kSlotRead)) {
    return Inject<long>(plan);
  }
  return g_real_read(fd, buf, count);
}

ssize_t write(int fd, const void* buf, size_t count) {
  Resolve(g_real_write, "write");
  unsigned long n = 0;
  const Plan* plan = OnCallCount(kSlotWrite, n);
  if (plan != nullptr) {
    if (plan->kind == kKindKillAt) {
      RecordInjection(kSlotWrite, n);
      RawKill();
    } else if (plan->kind == kKindErrno) {
      RecordInjection(kSlotWrite, n);
      return Inject<long>(plan);
    } else if (plan->kind == kKindShortWrite &&
               static_cast<unsigned long>(plan->param) < count) {
      // The torn write: only the first K bytes happen. When K covers the
      // whole buffer the call is untouched and no injection is recorded.
      RecordInjection(kSlotWrite, n);
      count = static_cast<size_t>(plan->param);
    }
  }
  long result = 0;
  if (BufferedWrite(fd, buf, count, &result)) {
    return result;
  }
  return g_real_write(fd, buf, count);
}

off_t lseek(int fd, off_t offset, int whence) {
  Resolve(g_real_lseek, "lseek");
  if (const Plan* plan = OnCall(kSlotLseek)) {
    return Inject<long>(plan);
  }
  if (g_buffering && !g_internal && fd >= 0 && fd < kMaxFdTrack) {
    FdInfo& info = g_fd_info[fd];
    if (info.tracked && !info.writethrough && !info.append) {
      if (whence == SEEK_CUR) {
        // Deferred writes never advanced the kernel offset; resolve the
        // relative seek against the shadow offset instead.
        offset += static_cast<off_t>(info.offset);
        whence = SEEK_SET;
      } else if (whence == SEEK_END) {
        FlushFd(fd);  // the logical EOF includes deferred data
      }
      off_t r = g_real_lseek(fd, offset, whence);
      if (r >= 0) {
        info.offset = static_cast<long>(r);
      }
      return r;
    }
  }
  return g_real_lseek(fd, offset, whence);
}

off64_t lseek64(int fd, off64_t offset, int whence) {
  Resolve(g_real_lseek64, "lseek64");
  if (const Plan* plan = OnCall(kSlotLseek)) {
    return Inject<long>(plan);
  }
  if (g_buffering && !g_internal && fd >= 0 && fd < kMaxFdTrack) {
    FdInfo& info = g_fd_info[fd];
    if (info.tracked && !info.writethrough && !info.append) {
      if (whence == SEEK_CUR) {
        offset += static_cast<off64_t>(info.offset);
        whence = SEEK_SET;
      } else if (whence == SEEK_END) {
        FlushFd(fd);
      }
      off64_t r = g_real_lseek64(fd, offset, whence);
      if (r >= 0) {
        info.offset = static_cast<long>(r);
      }
      return r;
    }
  }
  return g_real_lseek64(fd, offset, whence);
}

FILE* fopen(const char* path, const char* mode) {
  Resolve(g_real_fopen, "fopen");
  if (const Plan* plan = OnCall(kSlotFopen)) {
    return Inject<FILE*>(plan);
  }
  return g_real_fopen(path, mode);
}

FILE* fopen64(const char* path, const char* mode) {
  Resolve(g_real_fopen64, "fopen64");
  if (const Plan* plan = OnCall(kSlotFopen)) {
    return Inject<FILE*>(plan);
  }
  return g_real_fopen64(path, mode);
}

int fclose(FILE* stream) {
  Resolve(g_real_fclose, "fclose");
  if (const Plan* plan = OnCall(kSlotFclose)) {
    return Inject<int>(plan);
  }
  return g_real_fclose(stream);
}

size_t fread(void* ptr, size_t size, size_t nmemb, FILE* stream) {
  Resolve(g_real_fread, "fread");
  if (const Plan* plan = OnCall(kSlotFread)) {
    return Inject<size_t>(plan);
  }
  return g_real_fread(ptr, size, nmemb, stream);
}

size_t fwrite(const void* ptr, size_t size, size_t nmemb, FILE* stream) {
  Resolve(g_real_fwrite, "fwrite");
  unsigned long n = 0;
  const Plan* plan = OnCallCount(kSlotFwrite, n);
  if (plan != nullptr) {
    if (plan->kind == kKindKillAt) {
      RecordInjection(kSlotFwrite, n);
      RawKill();
    }
    if (plan->kind == kKindErrno) {
      RecordInjection(kSlotFwrite, n);
      return Inject<size_t>(plan);
    }
    if (plan->kind == kKindShortWrite &&
        static_cast<unsigned long>(plan->param) < nmemb) {
      // Torn stdio write: only the first K items happen. K covering all
      // items means the call is untouched and nothing is recorded.
      RecordInjection(kSlotFwrite, n);
      return g_real_fwrite(ptr, size, static_cast<size_t>(plan->param), stream);
    }
  }
  return g_real_fwrite(ptr, size, nmemb, stream);
}

char* fgets(char* s, int size, FILE* stream) {
  Resolve(g_real_fgets, "fgets");
  if (const Plan* plan = OnCall(kSlotFgets)) {
    return Inject<char*>(plan);
  }
  return g_real_fgets(s, size, stream);
}

int fflush(FILE* stream) {
  Resolve(g_real_fflush, "fflush");
  if (const Plan* plan = OnCall(kSlotFflush)) {
    return Inject<int>(plan);
  }
  return g_real_fflush(stream);
}

int unlink(const char* path) {
  Resolve(g_real_unlink, "unlink");
  if (const Plan* plan = OnCall(kSlotUnlink)) {
    return Inject<int>(plan);
  }
  return g_real_unlink(path);
}

int rename(const char* oldpath, const char* newpath) {
  Resolve(g_real_rename, "rename");
  unsigned long n = 0;
  const Plan* plan = OnCallCount(kSlotRename, n);
  if (plan != nullptr) {
    if (plan->kind == kKindKillAt) {
      RecordInjection(kSlotRename, n);
      RawKill();
    }
    if (plan->kind == kKindErrno) {
      RecordInjection(kSlotRename, n);
      return Inject<int>(plan);
    }
    if (plan->kind == kKindCrashAfterRename) {
      // The rename reaches the directory; the power dies before anything
      // else does. Deferred data (the arena) is lost with the process.
      RecordInjection(kSlotRename, n);
      g_real_rename(oldpath, newpath);
      RawKill();
    }
  }
  return g_real_rename(oldpath, newpath);
}

int fsync(int fd) {
  Resolve(g_real_fsync, "fsync");
  unsigned long n = 0;
  const Plan* plan = OnCallCount(kSlotFsync, n);
  if (plan != nullptr) {
    if (plan->kind == kKindKillAt) {
      RecordInjection(kSlotFsync, n);
      RawKill();
    }
    if (plan->kind == kKindDropSync) {
      // The lying drive: report durable, discard the fd's pending data.
      // Only a later crash exposes it — a clean run flushes nothing stale
      // because the discarded records are gone either way.
      RecordInjection(kSlotFsync, n);
      DiscardFd(fd);
      return 0;
    }
    if (plan->kind == kKindErrno) {
      // Classic fsyncgate injection: the fd's pending data stays pending
      // (a failed fsync promises nothing about durability).
      RecordInjection(kSlotFsync, n);
      return Inject<int>(plan);
    }
  }
  if (g_buffering && !g_internal) {
    FlushFd(fd);
  }
  return g_real_fsync(fd);
}

int fdatasync(int fd) {
  Resolve(g_real_fdatasync, "fdatasync");
  unsigned long n = 0;
  const Plan* plan = OnCallCount(kSlotFdatasync, n);
  if (plan != nullptr) {
    if (plan->kind == kKindKillAt) {
      RecordInjection(kSlotFdatasync, n);
      RawKill();
    }
    if (plan->kind == kKindDropSync) {
      RecordInjection(kSlotFdatasync, n);
      DiscardFd(fd);
      return 0;
    }
    if (plan->kind == kKindErrno) {
      RecordInjection(kSlotFdatasync, n);
      return Inject<int>(plan);
    }
  }
  if (g_buffering && !g_internal) {
    FlushFd(fd);
  }
  return g_real_fdatasync(fd);
}

int mkdir(const char* path, mode_t mode) {
  Resolve(g_real_mkdir, "mkdir");
  if (const Plan* plan = OnCall(kSlotMkdir)) {
    return Inject<int>(plan);
  }
  return g_real_mkdir(path, mode);
}

int socket(int domain, int type, int protocol) {
  Resolve(g_real_socket, "socket");
  if (const Plan* plan = OnCall(kSlotSocket)) {
    return Inject<int>(plan);
  }
  return g_real_socket(domain, type, protocol);
}

int connect(int sockfd, const struct sockaddr* addr, socklen_t addrlen) {
  Resolve(g_real_connect, "connect");
  if (const Plan* plan = OnCall(kSlotConnect)) {
    return Inject<int>(plan);
  }
  return g_real_connect(sockfd, addr, addrlen);
}

int bind(int sockfd, const struct sockaddr* addr, socklen_t addrlen) {
  Resolve(g_real_bind, "bind");
  if (const Plan* plan = OnCall(kSlotBind)) {
    return Inject<int>(plan);
  }
  return g_real_bind(sockfd, addr, addrlen);
}

int listen(int sockfd, int backlog) {
  Resolve(g_real_listen, "listen");
  if (const Plan* plan = OnCall(kSlotListen)) {
    return Inject<int>(plan);
  }
  return g_real_listen(sockfd, backlog);
}

int accept(int sockfd, struct sockaddr* addr, socklen_t* addrlen) {
  Resolve(g_real_accept, "accept");
  if (const Plan* plan = OnCall(kSlotAccept)) {
    return Inject<int>(plan);
  }
  return g_real_accept(sockfd, addr, addrlen);
}

ssize_t send(int sockfd, const void* buf, size_t len, int flags) {
  Resolve(g_real_send, "send");
  if (const Plan* plan = OnCall(kSlotSend)) {
    return Inject<long>(plan);
  }
  return g_real_send(sockfd, buf, len, flags);
}

ssize_t recv(int sockfd, void* buf, size_t len, int flags) {
  Resolve(g_real_recv, "recv");
  if (const Plan* plan = OnCall(kSlotRecv)) {
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

// The persistent-mode hook (see README "Execution modes"). A target adopts
// it by declaring the symbol weak and, early in main, handing over its
// per-test entry function:
//
//   extern "C" __attribute__((weak)) int afex_persistent_run(int (*)(int));
//   if (afex_persistent_run != nullptr) {
//     int rc = afex_persistent_run(&RunOneTest);
//     if (rc >= 0) return rc;   // loop ran (or plain preload: rc == -1)
//   }
//
// Returns -1 at once outside a persistent-mode child (plain runs, spawn
// mode, forkserver children), so adopted targets behave identically there.
// It also returns -1 when the target already made an interposed call for the
// in-flight test: later iterations would skip that pre-hook call and so
// shift their ordinals, so the child finishes as a forkserver child, with
// spawn's records. Otherwise it runs
// the request the child was forked for, then reads, arms and runs requests
// itself until the client closes the control pipe, and returns 0. exit()
// or a crash inside an iteration ends the child, as in forkserver mode.
int afex_persistent_run(int (*entry)(int test_id)) {
  if (g_fs_mode != 2 || g_persistent_entered || entry == nullptr) {
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
        !ReadRequest(g_request, g_request_plans)) {
      --g_internal;
      return 0;
    }
    ResetFeedbackForTest(g_request.test_seq);
    ArmPlans(g_request_plans, g_request.plan_count);
    --g_internal;
  }
}

}  // extern "C"
