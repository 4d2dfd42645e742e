// The one libc function table. Every profiled libc function is one row of
// AFEX_LIBC_TABLE (paper §7, "Fault Space Definition Methodology": the
// per-function error profile the fault space is built from). Each row's
// generated enumerator, LibcFn, is the function's identity everywhere inside
// the program: a FaultSpec names its function by it, the simulated libc
// passes it to the fault bus, the bus indexes its counters by it, and the
// fault-kind rule, the plan encoder and the analyzer read its row of
// kLibcTable (name, error return, default errno, category, storage kinds,
// LP64 alias, interposer slot). Text meets the identity in one place,
// FindLibcFn (injection/fault_bus.h), where names enter from outside the
// program: fault-space labels and a binary's imports. The other views
// derived from the rows are:
//   * exec/feedback_block.h — the interposer's slots (kInterposedFunctions):
//     a function's slot is its rank among the wrapped rows;
//   * exec/interpose.cc — the slot enum, the real-libc pointers and their
//     resolution (the LFI role of paper §6.1);
//   * KindAppliesTo below — which FaultKind a function can take.
// Adding an interposed function is one row here plus one wrapper in
// interpose.cc. Rows must keep their order: enumerators, slot numbers and
// the function axis follow it, and journals and plan bytes record them.
//
// Included by libafex_interpose.so, which is built free-standing (no afex
// libraries, no C++ runtime): keep this header to constants and macros.
#ifndef AFEX_INJECTION_LIBC_TABLE_H_
#define AFEX_INJECTION_LIBC_TABLE_H_

#include <cstddef>
#include <cstdint>

namespace afex {

// Symbolic errno values used throughout the simulation. We define our own
// constants instead of <cerrno> macros so the simulated environment is
// fully host-independent.
namespace sim_errno {
inline constexpr int kENOMEM = 12;
inline constexpr int kEINTR = 4;
inline constexpr int kEIO = 5;
inline constexpr int kEACCES = 13;
inline constexpr int kEEXIST = 17;
inline constexpr int kENOENT = 2;
inline constexpr int kEAGAIN = 11;
inline constexpr int kENOSPC = 28;
inline constexpr int kEBADF = 9;
inline constexpr int kEMFILE = 24;
inline constexpr int kECONNRESET = 104;
inline constexpr int kNone = 0;  // a row without errnos sets none
}  // namespace sim_errno

// What an armed fault *does* at the matched call. kErrno is the classic
// AFEX fault (return error_retval, set errno); the storage-failure kinds
// model the faults recovery code actually dies on. Only the real backend's
// interposer implements the non-errno kinds — the simulated libc treats
// every spec as kErrno. The numbers are the FsPlanEntry::kind wire values.
enum class FaultKind : int {
  kErrno = 0,            // return `retval`, set `errno_value`, skip the call
  kShortWrite = 1,       // write/fwrite only `param` bytes/items, return that
  kDropSync = 2,         // fsync/fdatasync reports success; the fd's
                         //   unsynced writes are undone (lying drive)
  kKillAt = 3,           // SIGKILL at the matched ordinal (power cut)
  kCrashAfterRename = 4, // perform the rename, then SIGKILL
};
inline constexpr int kFaultKindCount = 5;

// Axis-label spelling of each FaultKind, indexed by its number.
inline constexpr const char* kFaultKindNames[kFaultKindCount] = {
    "errno", "short_write", "drop_sync", "kill_at", "crash_after_rename",
};

// Values of a row's storage-kinds column: bit (1 << kind) for each
// function-specific kind the row can take.
inline constexpr uint32_t kShortWriteKind = 1u << static_cast<int>(FaultKind::kShortWrite);
inline constexpr uint32_t kDropSyncKind = 1u << static_cast<int>(FaultKind::kDropSync);
inline constexpr uint32_t kCrashAfterRenameKind =
    1u << static_cast<int>(FaultKind::kCrashAfterRename);

// The one fault-kind rule: errno and kill_at apply to every function (any
// ordinal can fail classically or take a power cut); a storage kind applies
// only where the row's column lists it. `kind` is a wire number, so values
// outside FaultKind are refused here too.
constexpr bool KindAppliesTo(int kind, uint32_t storage_kinds) {
  constexpr uint32_t kEverywhere = (1u << static_cast<int>(FaultKind::kErrno)) |
                                   (1u << static_cast<int>(FaultKind::kKillAt));
  return kind >= 0 && kind < kFaultKindCount &&
         (((kEverywhere | storage_kinds) >> kind) & 1u) != 0;
}

// X(name, error_retval, (errnos...), category, wrapped, storage_kinds[, alias])
//   error_retval  — what a failed call returns;
//   errnos        — plausible errno values (sim_errno names), parenthesized;
//                   the first is what a point without an errno axis sets;
//   category      — memory | file | dir | net | misc;
//   wrapped       — true when libafex_interpose.so wraps it (takes a slot);
//   storage_kinds — k*Kind bits, 0 for errno and kill_at only;
//   alias         — the LP64 alias the interposer also wraps and counts in
//                   this row's slot (omitted when there is none).
// Rows are grouped by category (memory, then file, dir, net, misc), giving
// the function axis the neighbour-similarity that AFEX's Gaussian mutation
// exploits (paper §3: "close is related to open").
#define AFEX_LIBC_TABLE(X)                                                  \
  /* Memory management. A failed allocator returns NULL (0). */            \
  X(malloc, 0, (kENOMEM), memory, true, 0)                                  \
  X(calloc, 0, (kENOMEM), memory, true, 0)                                  \
  X(realloc, 0, (kENOMEM), memory, true, 0)                                 \
  X(strdup, 0, (kENOMEM), memory, false, 0)                                 \
  /* Stream / file descriptor I/O. */                                       \
  X(fopen, 0, (kENOENT, kEACCES, kEMFILE), file, true, 0, fopen64)          \
  X(fclose, -1, (kEIO, kEBADF), file, true, 0)                              \
  X(fread, 0, (kEIO, kEINTR), file, true, 0)                                \
  X(fwrite, 0, (kEIO, kENOSPC), file, true, kShortWriteKind)                \
  X(fgets, 0, (kEIO, kEINTR), file, true, 0)                                \
  X(fflush, -1, (kEIO, kENOSPC), file, true, 0)                             \
  /* ferror: an injected "error indicator set". */                          \
  X(ferror, 1, (), file, false, 0)                                          \
  X(fputc, -1, (kEIO, kENOSPC), file, false, 0)                             \
  X(open, -1, (kENOENT, kEACCES, kEMFILE), file, true, 0, open64)           \
  X(close, -1, (kEIO, kEBADF), file, true, 0)                               \
  X(read, -1, (kEINTR, kEIO, kEAGAIN), file, true, 0)                       \
  X(write, -1, (kEINTR, kEIO, kENOSPC), file, true, kShortWriteKind)        \
  X(lseek, -1, (kEBADF), file, true, 0, lseek64)                            \
  /* Durability calls: drop_sync hangs off these, but they also take */     \
  /* classic errno injection (fsyncgate). */                                \
  X(fsync, -1, (kEIO, kEINTR), file, true, kDropSyncKind)                   \
  X(fdatasync, -1, (kEIO, kEINTR), file, true, kDropSyncKind)               \
  X(stat, -1, (kENOENT, kEACCES), file, false, 0)                           \
  X(rename, -1, (kEACCES, kENOENT), file, true, kCrashAfterRenameKind)      \
  X(unlink, -1, (kENOENT, kEACCES), file, true, 0)                          \
  /* Directory operations. */                                               \
  X(opendir, 0, (kENOENT, kEACCES, kEMFILE), dir, false, 0)                 \
  X(readdir, 0, (kEIO), dir, false, 0)                                      \
  X(closedir, -1, (kEBADF), dir, false, 0)                                  \
  X(chdir, -1, (kENOENT, kEACCES), dir, false, 0)                           \
  X(getcwd, 0, (kENOMEM), dir, false, 0)                                    \
  X(mkdir, -1, (kEACCES, kENOSPC), dir, true, 0)                            \
  /* Networking. */                                                         \
  X(socket, -1, (kEMFILE, kENOMEM), net, true, 0)                           \
  X(bind, -1, (kEACCES), net, true, 0)                                      \
  X(listen, -1, (kEMFILE), net, true, 0)                                    \
  X(accept, -1, (kEINTR, kEMFILE, kECONNRESET), net, true, 0)               \
  X(connect, -1, (kECONNRESET, kEINTR), net, true, 0)                       \
  X(send, -1, (kECONNRESET, kEINTR, kEAGAIN), net, true, 0)                 \
  X(recv, -1, (kECONNRESET, kEINTR, kEAGAIN), net, true, 0)                 \
  X(pipe, -1, (kEMFILE), net, false, 0)                                     \
  /* Miscellaneous. */                                                      \
  X(clock_gettime, -1, (kEINTR), misc, false, 0)                            \
  X(setlocale, 0, (kENOMEM), misc, false, 0)                                \
  X(getrlimit, -1, (kEINTR), misc, false, 0)                                \
  X(setrlimit, -1, (kEACCES), misc, false, 0)                               \
  X(strtol, 0, (), misc, false, 0)                                          \
  X(wait, -1, (kEINTR), misc, false, 0)                                     \
  X(pthread_mutex_lock, -1, (kEAGAIN), misc, false, 0)                      \
  X(pthread_mutex_unlock, -1, (), misc, false, 0)

// Helpers for X macros: AFEX_LIBC_IF_##wrapped(...) keeps its arguments on
// wrapped rows only; `AFEX_LIBC_FIRST errnos` is the parenthesized errno
// column's first name, kNone when the column is empty.
#define AFEX_LIBC_IF_true(...) __VA_ARGS__
#define AFEX_LIBC_IF_false(...)
#define AFEX_LIBC_FIRST(...) AFEX_LIBC_FIRST_(__VA_ARGS__ __VA_OPT__(, ) kNone)
#define AFEX_LIBC_FIRST_(first, ...) first

// One enumerator per row, in table order: LibcFn::malloc, LibcFn::open, ...
#define AFEX_LIBC_ENUM_ROW(name, ...) name,
enum class LibcFn : uint8_t { AFEX_LIBC_TABLE(AFEX_LIBC_ENUM_ROW) };
#undef AFEX_LIBC_ENUM_ROW

#define AFEX_LIBC_WRAPPED_ROW(name, retval, errnos, category, wrapped, ...) wrapped,
inline constexpr bool kLibcWrapped[] = {AFEX_LIBC_TABLE(AFEX_LIBC_WRAPPED_ROW)};
#undef AFEX_LIBC_WRAPPED_ROW
inline constexpr size_t kLibcFnCount = sizeof(kLibcWrapped) / sizeof(kLibcWrapped[0]);

// A wrapped row's interposer slot: its rank among the wrapped rows; -1 for a
// row the interposer does not wrap.
constexpr int LibcSlot(LibcFn fn) {
  const size_t row = static_cast<size_t>(fn);
  int slot = 0;
  for (size_t i = 0; i < row; ++i) {
    slot += kLibcWrapped[i] ? 1 : 0;
  }
  return kLibcWrapped[row] ? slot : -1;
}

struct LibcTableRow {
  const char* name;
  int64_t error_retval;  // what a failed call returns
  int default_errno;     // the errno column's first value; 0 when it is empty
  const char* category;
  uint32_t storage_kinds;
  const char* alias;  // "" when the row has none
  int slot;           // LibcSlot
};

#define AFEX_LIBC_TABLE_ROW(name, retval, errnos, category, wrapped, kinds, ...)         \
  {#name, retval, sim_errno::AFEX_LIBC_FIRST errnos, #category, kinds, #__VA_ARGS__, \
   LibcSlot(LibcFn::name)},
inline constexpr LibcTableRow kLibcTable[] = {AFEX_LIBC_TABLE(AFEX_LIBC_TABLE_ROW)};
#undef AFEX_LIBC_TABLE_ROW

constexpr const LibcTableRow& LibcRow(LibcFn fn) { return kLibcTable[static_cast<size_t>(fn)]; }

}  // namespace afex

#endif  // AFEX_INJECTION_LIBC_TABLE_H_
