#include "injection/libc_table.h"
#include "sim/env.h"
#include "sim/simlibc.h"
#include "targets/coreutils/utils.h"

namespace afex {
namespace coreutils {
namespace {

// Copies a file byte-for-byte through the fd API with EINTR retry — shared
// by cp and by mv's cross-filesystem fallback.
int CopyFile(SimEnv& env, std::string_view source, std::string_view dest,
             uint32_t base_block, uint32_t recovery_block) {
  StackFrame frame(env, "copy_file");
  SimLibc& libc = env.libc();
  AFEX_COV(env, base_block);
  int in = libc.Open(source, kRdOnly);
  if (in < 0) {
    AFEX_COV(env, recovery_block);
    return 1;
  }
  int out = libc.Open(dest, kWrOnly | kCreate | kTrunc);
  if (out < 0) {
    AFEX_COV(env, recovery_block + 1);
    libc.Close(in);
    return 1;
  }
  std::string chunk;
  while (true) {
    chunk.clear();  // reuses capacity; Read appends into it
    long n = libc.Read(in, chunk, 32);
    if (n < 0) {
      if (env.sim_errno() == sim_errno::kEINTR) {
        AFEX_COV(env, recovery_block + 2);
        continue;
      }
      AFEX_COV(env, recovery_block + 3);
      libc.Close(in);
      libc.Close(out);
      return 1;
    }
    if (n == 0) {
      break;
    }
    if (libc.Write(out, chunk) < 0) {
      AFEX_COV(env, recovery_block + 3);
      libc.Close(in);
      libc.Close(out);
      return 1;
    }
  }
  libc.Close(in);
  if (libc.Close(out) != 0) {
    // Close on the written file can report delayed I/O errors; data may be
    // lost, so this is a real failure.
    AFEX_COV(env, recovery_block + 4);
    return 1;
  }
  AFEX_COV(env, base_block + 1);
  return 0;
}

// True when source and dest live on different (simulated) filesystems —
// real mv detects this via rename() failing with EXDEV; the simulated
// filesystem namespaces devices by top-level directory.
bool CrossDevice(std::string_view a, std::string_view b) {
  auto top = [](std::string_view p) {
    size_t start = p.empty() || p[0] != '/' ? 0 : 1;
    size_t slash = p.find('/', start);
    return p.substr(0, slash == std::string_view::npos ? p.size() : slash);
  };
  return top(a) != top(b);
}

}  // namespace

int LnMain(SimEnv& env, std::string_view source, std::string_view dest, bool force,
           bool symbolic) {
  StackFrame frame(env, "ln_main");
  SimLibc& libc = env.libc();
  AFEX_COV(env, kLnBase + 0);

  // Argument processing allocates two buffers (resolved source and dest
  // names), exactly like GNU ln's canonicalization path. Allocation failure
  // is fatal with the "serious" exit code 2 — distinct from operational
  // errors (exit 1), which expected-error tests check for.
  uint64_t source_buf = libc.Malloc(source.size() + 1);
  if (source_buf == 0) {
    AFEX_COV(env, kLnRecovery + 0);
    return 2;
  }
  uint64_t dest_buf = libc.Malloc(dest.size() + 1);
  if (dest_buf == 0) {
    AFEX_COV(env, kLnRecovery + 1);
    libc.Free(source_buf);
    return 2;
  }

  // Relative operands are resolved against the working directory, like GNU
  // ln's canonicalize step; a getcwd failure degrades to using the operand
  // as-is (the simulated filesystem accepts relative keys).
  if (!source.empty() && source[0] != '/') {
    uint64_t cwd = libc.Getcwd();
    if (cwd == 0) {
      AFEX_COV(env, kLnRecovery + 2);
    } else {
      libc.Free(cwd);
    }
  }

  StatBuf st;
  if (!symbolic && libc.Stat(source, st) != 0) {
    AFEX_COV(env, kLnRecovery + 2);
    libc.Free(source_buf);
    libc.Free(dest_buf);
    return 1;  // "No such file or directory"
  }

  // If the destination is an existing directory, link inside it.
  std::string target(dest);
  StatBuf dest_st;
  if (libc.Stat(dest, dest_st) == 0 && dest_st.is_dir) {
    AFEX_COV(env, kLnBase + 1);
    size_t slash = source.find_last_of('/');
    target += '/';
    target += slash == std::string_view::npos ? source : source.substr(slash + 1);
  } else if (env.Exists(target)) {
    if (!force) {
      AFEX_COV(env, kLnRecovery + 3);
      libc.Free(source_buf);
      libc.Free(dest_buf);
      return 1;  // "File exists"
    }
    AFEX_COV(env, kLnBase + 2);
    if (libc.Unlink(target) != 0) {
      AFEX_COV(env, kLnRecovery + 4);
      libc.Free(source_buf);
      libc.Free(dest_buf);
      return 1;
    }
  }

  {
    StackFrame f(env, symbolic ? "ln_make_symlink" : "ln_make_hardlink");
    AFEX_COV(env, kLnBase + 3);
    int fd = libc.Open(target, kWrOnly | kCreate | kTrunc);
    if (fd < 0) {
      AFEX_COV(env, kLnRecovery + 5);
      libc.Free(source_buf);
      libc.Free(dest_buf);
      return 1;
    }
    // A hard link shares the source's content; a symlink stores the
    // referent path (readable by the tests as "-> path").
    std::string payload;
    if (symbolic) {
      payload = "-> ";
      payload += source;
    } else {
      const SimEnv::FileNode* node = env.Find(source);
      payload = node != nullptr ? node->content : "";
    }
    if (libc.Write(fd, payload) < 0) {
      libc.Close(fd);
      libc.Free(source_buf);
      libc.Free(dest_buf);
      return 1;
    }
    libc.Close(fd);
  }

  libc.Free(source_buf);
  libc.Free(dest_buf);
  AFEX_COV(env, kLnBase + 4);
  return 0;
}

int MvMain(SimEnv& env, std::string_view source, std::string_view dest, bool force) {
  StackFrame frame(env, "mv_main");
  SimLibc& libc = env.libc();
  AFEX_COV(env, kMvBase + 0);

  // Same two-buffer argument canonicalization as ln.
  uint64_t source_buf = libc.Malloc(source.size() + 1);
  if (source_buf == 0) {
    AFEX_COV(env, kMvRecovery + 0);
    return 2;
  }
  uint64_t dest_buf = libc.Malloc(dest.size() + 1);
  if (dest_buf == 0) {
    AFEX_COV(env, kMvRecovery + 1);
    libc.Free(source_buf);
    return 2;
  }
  auto cleanup = [&] {
    libc.Free(source_buf);
    libc.Free(dest_buf);
  };

  StatBuf st;
  if (libc.Stat(source, st) != 0) {
    AFEX_COV(env, kMvRecovery + 2);
    cleanup();
    return 1;  // "cannot stat: No such file or directory"
  }

  std::string target(dest);
  StatBuf dest_st;
  if (libc.Stat(dest, dest_st) == 0) {
    if (dest_st.is_dir) {
      AFEX_COV(env, kMvBase + 1);
      size_t slash = source.find_last_of('/');
      target += '/';
      target += slash == std::string_view::npos ? source : source.substr(slash + 1);
    } else if (!force) {
      AFEX_COV(env, kMvRecovery + 3);
      cleanup();
      return 1;
    }
  }

  if (CrossDevice(source, target)) {
    // rename() would fail with EXDEV: fall back to copy + unlink, the
    // classic mv recovery path.
    StackFrame f(env, "mv_copy_fallback");
    AFEX_COV(env, kMvBase + 2);
    if (CopyFile(env, source, target, kMvBase + 3, kMvRecovery + 4) != 0) {
      cleanup();
      return 1;
    }
    if (libc.Unlink(source) != 0) {
      AFEX_COV(env, kMvRecovery + 5);
      cleanup();
      return 1;  // copy succeeded but source lingers: still an error
    }
    cleanup();
    AFEX_COV(env, kMvBase + 5);
    return 0;
  }

  {
    StackFrame f(env, "mv_rename");
    AFEX_COV(env, kMvBase + 6);
    if (libc.Rename(source, target) != 0) {
      AFEX_COV(env, kMvRecovery + 4);
      cleanup();
      return 1;
    }
  }
  cleanup();
  AFEX_COV(env, kMvBase + 7);
  return 0;
}

int CpMain(SimEnv& env, std::string_view source, std::string_view dest) {
  StackFrame frame(env, "cp_main");
  SimLibc& libc = env.libc();
  AFEX_COV(env, kCpBase + 0);

  // cp sizes its copy buffer from the source's size.
  StatBuf st;
  if (libc.Stat(source, st) != 0) {
    AFEX_COV(env, kCpRecovery + 0);
    return 1;
  }
  uint64_t buffer = libc.Calloc(1, st.size + 1);
  if (buffer == 0) {
    AFEX_COV(env, kCpRecovery + 1);
    return 2;
  }
  int rc = CopyFile(env, source, dest, kCpBase + 1, kCpRecovery + 2);
  libc.Free(buffer);
  if (rc == 0) {
    AFEX_COV(env, kCpBase + 3);
  }
  return rc;
}

int RmMain(SimEnv& env, const std::vector<std::string>& paths, bool force) {
  StackFrame frame(env, "rm_main");
  SimLibc& libc = env.libc();
  AFEX_COV(env, kRmBase + 0);
  int exit_code = 0;
  for (const std::string& path : paths) {
    AFEX_COV(env, kRmBase + 1);
    if (libc.Unlink(path) != 0) {
      if (force && env.sim_errno() == sim_errno::kENOENT) {
        AFEX_COV(env, kRmRecovery + 0);  // -f silences missing operands
        continue;
      }
      AFEX_COV(env, kRmRecovery + 1);
      exit_code = 1;
    }
  }
  if (exit_code == 0) {
    AFEX_COV(env, kRmBase + 2);
  }
  return exit_code;
}

int TouchMain(SimEnv& env, std::string_view path) {
  StackFrame frame(env, "touch_main");
  SimLibc& libc = env.libc();
  AFEX_COV(env, kTouchBase + 0);
  int fd = libc.Open(path, kWrOnly | kCreate | kAppend);
  if (fd < 0) {
    AFEX_COV(env, kTouchRecovery + 0);
    return 1;
  }
  if (libc.Close(fd) != 0) {
    return 1;
  }
  AFEX_COV(env, kTouchBase + 1);
  return 0;
}

int MkdirMain(SimEnv& env, std::string_view path, bool parents) {
  StackFrame frame(env, "mkdir_main");
  SimLibc& libc = env.libc();
  AFEX_COV(env, kMkdirBase + 0);
  if (parents) {
    AFEX_COV(env, kMkdirBase + 1);
    // Create each prefix, tolerating already-existing components.
    size_t pos = 1;
    while (true) {
      size_t slash = path.find('/', pos);
      std::string_view prefix = slash == std::string_view::npos ? path : path.substr(0, slash);
      if (!env.IsDir(prefix)) {
        if (libc.Mkdir(prefix) != 0 && !env.IsDir(prefix)) {
          AFEX_COV(env, kMkdirRecovery + 0);
          return 1;
        }
      }
      if (slash == std::string_view::npos) {
        break;
      }
      pos = slash + 1;
    }
    AFEX_COV(env, kMkdirBase + 2);
    return 0;
  }
  if (libc.Mkdir(path) != 0) {
    AFEX_COV(env, kMkdirRecovery + 0);
    return 1;
  }
  AFEX_COV(env, kMkdirBase + 3);
  return 0;
}

}  // namespace coreutils
}  // namespace afex
