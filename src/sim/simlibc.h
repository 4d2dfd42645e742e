// SimLibc: the simulated C library every target runs against. Each entry
// point routes through the FaultBus (one bus call per libc call, counted
// per LibcFn), then either performs the simulated effect or fails
// with the armed error return + errno — the exact failure semantics LFI
// injects at the real application-library boundary.
//
// Conventions:
//  * Pointer-returning functions return an opaque uint64 handle; 0 is NULL.
//  * int/ssize_t-returning functions return the armed retval (usually -1)
//    on injection and set the simulated errno.
//  * Every call consumes one watchdog step, so hangs are detectable even in
//    loops made only of libc calls.
//  * Path and data parameters are std::string_view, so call sites passing
//    literals, strings, or substrings never materialize a temporary.
//  * Read/Recv APPEND into the caller's buffer (the sim analogue of
//    reading into a caller-provided char*): accumulation loops pass their
//    result buffer directly and no intermediate chunk string exists. Fgets
//    overwrites the caller's line buffer in place, reusing its capacity.
#ifndef AFEX_SIM_SIMLIBC_H_
#define AFEX_SIM_SIMLIBC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "injection/libc_table.h"

namespace afex {

class SimEnv;
struct FaultSpec;

// Open flags for the fd-level API (subset of O_*).
enum OpenFlags : int {
  kRdOnly = 0,
  kWrOnly = 1,
  kCreate = 2,
  kAppend = 4,
  kTrunc = 8,
};

struct StatBuf {
  size_t size = 0;
  bool is_dir = false;
};

class SimLibc {
 public:
  explicit SimLibc(SimEnv& env) : env_(&env) {}

  // ---- memory ----
  uint64_t Malloc(size_t bytes);
  uint64_t Calloc(size_t n, size_t bytes);
  uint64_t Realloc(uint64_t handle, size_t bytes);
  void Free(uint64_t handle);
  // strdup allocates via Malloc internally, so an injected malloc failure
  // propagates through it — the mechanism behind the paper's Fig. 7 bug.
  uint64_t Strdup(std::string_view s);

  // ---- stream I/O ----
  uint64_t Fopen(std::string_view path, std::string_view mode);
  int Fclose(uint64_t stream);
  size_t Fwrite(uint64_t stream, std::string_view data);
  // Reads one '\n'-terminated line (newline included) into `line`,
  // overwriting it in place (the caller's buffer is the resident line
  // buffer); false on EOF/error.
  bool Fgets(uint64_t stream, std::string& line);
  int Fflush(uint64_t stream);
  int Ferror(uint64_t stream);
  // clearerr(3): resets the stream's error indicator. Void in C and not
  // interposable by LFI, so not routed through the fault bus.
  void Clearerr(uint64_t stream);

  // ---- fd I/O ----
  int Open(std::string_view path, int flags);
  // Appends up to n bytes to `out`; returns bytes read, 0 at EOF, the armed
  // retval on injection.
  long Read(int fd, std::string& out, size_t n);
  long Write(int fd, std::string_view data);
  int Close(int fd);
  long Lseek(int fd, long offset, int whence);  // whence: 0=SET 1=CUR 2=END
  int Stat(std::string_view path, StatBuf& out);
  int Rename(std::string_view from, std::string_view to);
  int Unlink(std::string_view path);

  // ---- directories ----
  uint64_t Opendir(std::string_view path);
  // False at end-of-directory or on error (errno distinguishes).
  bool Readdir(uint64_t dir, std::string& name);
  int Closedir(uint64_t dir);
  int Chdir(std::string_view path);
  uint64_t Getcwd();  // allocates; payload holds the path
  int Mkdir(std::string_view path);

  // ---- networking ----
  int Socket();
  int Bind(int fd, std::string_view address);
  int Listen(int fd);
  int Accept(int fd);  // pops a pending simulated connection
  long Send(int fd, std::string_view data);
  // Appends up to n bytes to `out`.
  long Recv(int fd, std::string& out, size_t n);
  int Pipe(int& read_fd, int& write_fd);

  // ---- misc ----
  int ClockGettime(long& out);  // simulated nanoseconds = steps used
  uint64_t Setlocale(std::string_view locale);
  // strtol; ok=false on injected failure or unparsable input.
  long Strtol(std::string_view s, bool& ok);
  int Wait(int& status);
  int MutexLock(std::string_view name);
  int MutexUnlock(std::string_view name);

 private:
  // Routes one call through the bus; on a hit records the injection and
  // sets errno. Returns the armed spec or nullptr.
  const FaultSpec* CheckFault(LibcFn function);

  SimEnv* env_;
};

}  // namespace afex

#endif  // AFEX_SIM_SIMLIBC_H_
