// SimEnv: the simulated operating environment one target run executes in —
// virtual filesystem, heap handles, sockets, named mutexes, errno, a
// synthetic call stack, a step-budget watchdog, and the FaultBus that makes
// the environment injectable. One SimEnv per test execution; everything is
// deterministic given the seed.
//
// The environment sits on the hot path of every simulated libc call, so its
// tables are flat: paths and mutex names are interned to dense uint32 ids
// (util/interner) and every table is directly indexed by that id (interned
// ids are dense, so the open-addressed hash degenerates into its
// perfect-hash special case), file descriptors index a dense slot vector,
// and heap handles are a dense slot vector plus a payload free-list. A small
// sorted index of live path ids keeps ListDir/readdir in lexicographic
// order.
//
// Observable behaviour is frozen by committed goldens: sim_equivalence_test
// holds inline transcripts and fuzz-script digests, and bench/perf_sim holds
// every benchmark cell's record digest. A change that alters behaviour on
// purpose copies the printed transcript or digest into the golden and
// explains why in CHANGES.md.
#ifndef AFEX_SIM_ENV_H_
#define AFEX_SIM_ENV_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "injection/fault_bus.h"
#include "sim/coverage.h"
#include "sim/crash.h"
#include "util/interner.h"
#include "util/rng.h"

namespace afex {

class SimLibc;

class SimEnv {
 public:
  explicit SimEnv(uint64_t seed = 1, size_t step_budget = 1'000'000);
  ~SimEnv();

  SimEnv(const SimEnv&) = delete;
  SimEnv& operator=(const SimEnv&) = delete;

  // Rewinds the environment to the pristine post-construction state for a
  // new run while KEEPING warmed capacity: interned path ids (and the node
  // slots sized for them), container buffers, and recycled payload strings
  // survive, so a harness can run millions of tests through one arena env
  // without re-paying construction, interning, or teardown per test. Every
  // observable bit of state (filesystem, fds, sockets, heap, mutexes,
  // errno, stack, coverage, bus counters/specs, RNG, watchdog) is reset —
  // a Reset env behaves identically to a freshly constructed one, which
  // sim_equivalence_test and the perf_sim digest verify.
  void ResetForRun(uint64_t seed, size_t step_budget);

  FaultBus& bus() { return bus_; }
  const FaultBus& bus() const { return bus_; }
  SimLibc& libc() { return *libc_; }
  CoverageSet& coverage() { return coverage_; }
  const CoverageSet& coverage() const { return coverage_; }
  Rng& rng() { return rng_; }

  // ---- errno ----
  int sim_errno() const { return errno_; }
  void set_sim_errno(int err) { errno_ = err; }

  // ---- synthetic call stack (for injection-point traces) ----
  // Frames are stored as raw pointers; callers pass string literals (the
  // StackFrame RAII guard below), so no per-frame string is constructed on
  // the no-fault path. Strings materialize only when a fault triggers.
  void PushFrame(const char* name) { stack_.push_back(name); }
  void PopFrame() { stack_.pop_back(); }
  std::vector<std::string> CaptureStack() const {
    return std::vector<std::string>(stack_.begin(), stack_.end());
  }
  // Stack captured when the first fault triggered this run (empty if none).
  const std::vector<std::string>& injection_stack() const { return injection_stack_; }
  // Moves the captured stack out (the harness hands it to the outcome once
  // the run is over; the env is about to be destroyed anyway).
  std::vector<std::string> TakeInjectionStack() { return std::move(injection_stack_); }
  bool fault_triggered() const { return !injection_stack_.empty() || bus_.triggered(); }
  // Called by SimLibc when an armed fault fires; records the first
  // trigger's stack with the failing libc function as the innermost frame
  // (exactly what a real backtrace at the interposer would show).
  void RecordInjection(const char* function);

  // ---- watchdog ----
  // Consumes `cost` steps; throws SimHang when the budget is exhausted.
  // Inline: this runs once per simulated libc call.
  void Tick(size_t cost = 1) {
    steps_ += cost;
    if (steps_ > step_budget_) {
      ThrowHang();
    }
  }
  size_t steps_used() const { return steps_; }

  // ---- virtual filesystem (fixture side; targets go through SimLibc) ----
  struct FileNode {
    std::string content;
    bool is_dir = false;
    bool readable = true;
    bool writable = true;
  };
  // Content is copied into the node's warm buffer, so re-creating a path an
  // arena env has seen before allocates nothing.
  void AddFile(std::string_view path, std::string_view content);
  void AddDir(std::string_view path);
  bool Exists(std::string_view path) const;
  bool IsDir(std::string_view path) const;
  // nullptr when absent. Returned pointers stay valid until the next
  // AddFile/AddDir/Remove.
  const FileNode* Find(std::string_view path) const;
  FileNode* FindMutable(std::string_view path);
  // erase() semantics: true when the path existed.
  bool Remove(std::string_view path);
  // Paths directly under `dir` (lexicographic order).
  std::vector<std::string> ListDir(std::string_view dir) const;

  // Interned-path fast lane used by SimLibc: open files remember the id, so
  // every later stream/fd operation resolves its node without re-hashing
  // the path.
  static constexpr uint32_t kNoPath = StringInterner::kUnknown;
  uint32_t InternPath(std::string_view path) { return names_.Intern(path); }
  // Inline fast lane: one bounds-checked index.
  const FileNode* FindById(uint32_t path_id) const {
    return path_id < fs_epoch_.size() && fs_epoch_[path_id] == epoch_ ? &fs_nodes_[path_id]
                                                                      : nullptr;
  }
  FileNode* FindMutableById(uint32_t path_id) {
    return const_cast<FileNode*>(static_cast<const SimEnv*>(this)->FindById(path_id));
  }
  // Creates/overwrites the file for an already-interned path: open/fopen
  // resolve the path to an id once and perform every subsequent filesystem
  // touch through it, so one libc call costs one hash at most.
  void AddFileById(uint32_t path_id, std::string_view content);
  bool RemoveById(uint32_t path_id);

  // ---- heap handles ----
  // A "pointer" is an opaque nonzero handle; handle 0 is NULL. Dereferencing
  // NULL or a never-allocated handle raises SimCrash, which is exactly how
  // the paper's Apache bug (Fig. 7) manifests. Handles are never reused.
  uint64_t AllocHandle(size_t bytes);
  void FreeHandle(uint64_t handle);
  bool HandleValid(uint64_t handle) const;
  // Throws SimCrash on NULL/invalid handle; returns the handle for chaining.
  uint64_t Deref(uint64_t handle, const char* what);
  // Payload attached to string allocations (strdup/getcwd). The returned
  // reference stays valid until the next payload-creating libc call or
  // free — copy it out before allocating again.
  void SetHandlePayload(uint64_t handle, std::string_view payload);
  const std::string& HandlePayload(uint64_t handle);
  size_t live_allocations() const;

  // ---- named mutexes ----
  // Unlocking a mutex that is not locked aborts, mirroring glibc's
  // consistency check — the MySQL double-unlock bug's crash mode.
  void MutexLock(std::string_view name);
  void MutexUnlock(std::string_view name);
  bool MutexLocked(std::string_view name) const;

  // ---- fd table (managed by SimLibc) ----
  struct OpenFile {
    uint32_t path_id = kNoPath;
    size_t offset = 0;
    bool append = false;
    bool for_write = false;
    bool error_flag = false;  // ferror()
    std::vector<std::string> dir_entries;  // readdir() snapshot for directories
    size_t dir_index = 0;
  };
  struct Socket {
    bool bound = false;
    bool listening = false;
    bool connected = false;
    std::string peer;
    std::string inbox;  // bytes available to recv
  };

  // Descriptors are handed out monotonically and never reused.
  int NextFd() { return next_fd_++; }
  // Registers fd as an open file and returns the (field-reset) entry for
  // the caller to fill in place; buffers warmed by earlier runs are reused.
  OpenFile& CreateOpenFile(int fd);
  OpenFile* FindOpenFile(int fd) {
    FdEntry* entry = FdAt(fd);
    return entry != nullptr && entry->kind == kFdFile && entry->epoch == epoch_ ? &entry->file
                                                                               : nullptr;
  }
  bool HasOpenFile(int fd) const;
  // erase() semantics: true when the fd was an open file.
  bool RemoveOpenFile(int fd);
  Socket& AddSocket(int fd);
  Socket* FindSocket(int fd) {
    FdEntry* entry = FdAt(fd);
    return entry != nullptr && entry->kind == kFdSocket && entry->epoch == epoch_
               ? &entry->socket
               : nullptr;
  }
  bool RemoveSocket(int fd);

  // Current working directory (affects nothing but chdir/getcwd round-trips).
  const std::string& cwd() const { return cwd_; }
  void set_cwd(std::string cwd) { cwd_ = std::move(cwd); }

 private:
  static constexpr uint64_t kHandleBase = 0x1000;
  static constexpr int kFirstFd = 3;

  struct HeapSlot {
    size_t bytes = 0;
    int32_t payload = -1;  // index into payload_pool_, -1 = none
    bool live = false;
  };
  enum FdKind : uint8_t { kFdEmpty = 0, kFdFile = 1, kFdSocket = 2 };
  struct FdEntry {
    uint8_t kind = kFdEmpty;
    // Entries are valid only when their epoch matches the env's current run
    // epoch, so ResetForRun invalidates the whole table in O(1).
    uint32_t epoch = 0;
    OpenFile file;
    Socket socket;
  };

  FdEntry* FdAt(int fd) {
    if (fd < kFirstFd) {
      return nullptr;
    }
    size_t idx = static_cast<size_t>(fd - kFirstFd);
    return idx < fds_.size() ? &fds_[idx] : nullptr;
  }
  const FdEntry* FdAt(int fd) const { return const_cast<SimEnv*>(this)->FdAt(fd); }
  void EnsureFsSlot(uint32_t id);
  std::string& PayloadSlot(HeapSlot& slot);
  [[noreturn]] void ThrowHang();

  FaultBus bus_;
  CoverageSet coverage_;
  Rng rng_;
  int errno_ = 0;
  std::vector<const char*> stack_;
  std::vector<std::string> injection_stack_;
  size_t steps_ = 0;
  size_t step_budget_;

  // Shared interner for paths and mutex names.
  StringInterner names_;

  // Liveness is epoch-tagged (live iff tag == epoch_) so ResetForRun can
  // invalidate every table without sweeping it.
  uint32_t epoch_ = 1;
  std::vector<FileNode> fs_nodes_;    // indexed by path id
  std::vector<uint32_t> fs_epoch_;    // parallel liveness tags
  std::vector<uint32_t> fs_sorted_;   // live path ids, lexicographic by spelling
  std::vector<FdEntry> fds_;          // indexed by fd - kFirstFd
  std::vector<HeapSlot> heap_slots_;  // indexed by handle - kHandleBase
  // Payload strings are recycled through a free-list; HandlePayload
  // references stay valid until the next payload-creating call or free.
  std::vector<std::string> payload_pool_;
  std::vector<int32_t> payload_free_;
  size_t live_allocs_ = 0;
  std::vector<uint32_t> mutex_epoch_;  // indexed by name id; locked iff == epoch_

  int next_fd_ = kFirstFd;
  uint64_t next_handle_ = kHandleBase;
  std::string cwd_ = "/";
  SimLibc* libc_;  // owned; raw to break the include cycle
};

// RAII frame guard: StackFrame frame(env, "mi_create"); the name must be a
// string literal (or otherwise outlive the frame) — SimEnv keeps the
// pointer, not a copy.
class StackFrame {
 public:
  StackFrame(SimEnv& env, const char* name) : env_(&env) { env_->PushFrame(name); }
  ~StackFrame() { env_->PopFrame(); }
  StackFrame(const StackFrame&) = delete;
  StackFrame& operator=(const StackFrame&) = delete;

 private:
  SimEnv* env_;
};

// Coverage annotation used by every simulated target.
#define AFEX_COV(env, id) (env).coverage().Hit(id)

}  // namespace afex

#endif  // AFEX_SIM_ENV_H_
