#include <algorithm>

#include "injection/libc_table.h"
#include "sim/env.h"
#include "sim/simlibc.h"
#include "targets/coreutils/utils.h"

namespace afex {
namespace coreutils {
namespace {

// Shared program prologue, as in GNU coreutils' main(): locale setup whose
// failure is tolerated (these are the paper's Fig. 1 "no error" columns).
void UtilityInit(SimEnv& env, uint32_t recovery_block) {
  StackFrame frame(env, "initialize_main");
  if (env.libc().Setlocale("") == 0) {
    AFEX_COV(env, recovery_block);  // degraded locale; carry on
  }
  long now = 0;
  (void)env.libc().ClockGettime(now);  // result unused; failure harmless
}

// Opens the simulated stdout stream; returns 0 on failure.
uint64_t OpenStdout(SimEnv& env) {
  StackFrame frame(env, "open_stdout");
  return env.libc().Fopen("/dev/stdout", "w");
}

}  // namespace

// Builds "prefix + operand + suffix" diagnostics without string_view
// concatenation gymnastics at every call site.
namespace {
std::string Diag(std::string_view prefix, std::string_view operand, std::string_view suffix) {
  std::string msg;
  msg.reserve(prefix.size() + operand.size() + suffix.size());
  msg += prefix;
  msg += operand;
  msg += suffix;
  return msg;
}
}  // namespace

int LsMain(SimEnv& env, std::string_view dir, bool long_format, bool sort_entries) {
  StackFrame frame(env, "ls_main");
  SimLibc& libc = env.libc();
  AFEX_COV(env, kLsBase + 0);
  UtilityInit(env, kLsRecovery + 0);

  uint64_t out = OpenStdout(env);
  if (out == 0) {
    AFEX_COV(env, kLsRecovery + 1);
    return 2;
  }

  uint64_t dirp;
  {
    StackFrame f(env, "ls_open_directory");
    AFEX_COV(env, kLsBase + 1);
    dirp = libc.Opendir(dir);
  }
  if (dirp == 0) {
    AFEX_COV(env, kLsRecovery + 2);
    libc.Fwrite(out, Diag("ls: cannot access '", dir, "'\n"));
    libc.Fclose(out);
    return 2;
  }

  std::vector<std::string> entries;
  {
    StackFrame f(env, "ls_read_entries");
    AFEX_COV(env, kLsBase + 2);
    std::string name;
    env.set_sim_errno(0);
    while (libc.Readdir(dirp, name)) {
      entries.push_back(name);
      env.set_sim_errno(0);
    }
    if (env.sim_errno() == sim_errno::kEIO) {
      AFEX_COV(env, kLsRecovery + 3);
      libc.Fwrite(out, "ls: reading directory error\n");
      libc.Closedir(dirp);
      libc.Fclose(out);
      return 2;
    }
  }

  if (sort_entries) {
    StackFrame f(env, "ls_sort_entries");
    AFEX_COV(env, kLsBase + 3);
    // GNU ls allocates a sort vector; a failed allocation is fatal.
    uint64_t buffer = libc.Malloc(entries.size() * 8 + 8);
    if (buffer == 0) {
      AFEX_COV(env, kLsRecovery + 4);
      libc.Closedir(dirp);
      libc.Fclose(out);
      return 2;
    }
    std::sort(entries.begin(), entries.end());
    libc.Free(buffer);
  }

  int exit_code = 0;
  for (const std::string& e : entries) {
    StackFrame f(env, "ls_print_entry");
    AFEX_COV(env, kLsBase + 4);
    if (long_format) {
      AFEX_COV(env, kLsBase + 5);
      StatBuf st;
      std::string full = Diag(dir, "/", e);
      if (libc.Stat(full, st) != 0) {
        AFEX_COV(env, kLsRecovery + 5);
        libc.Fwrite(out, Diag("ls: cannot access '", full, "'\n"));
        exit_code = 1;  // keep listing the rest, like real ls
        continue;
      }
      libc.Fwrite(out, (st.is_dir ? std::string("d ") : std::string("- ")) +
                           std::to_string(st.size) + " " + e + "\n");
    } else {
      if (libc.Fwrite(out, e + "\n") == 0) {
        AFEX_COV(env, kLsRecovery + 6);
        libc.Closedir(dirp);
        libc.Fclose(out);
        return 2;  // write error on stdout is fatal
      }
    }
  }

  if (libc.Closedir(dirp) != 0) {
    AFEX_COV(env, kLsRecovery + 7);  // tolerated, like real ls
  }
  if (libc.Fclose(out) != 0) {
    AFEX_COV(env, kLsBase + 6);
    return 2;
  }
  AFEX_COV(env, kLsBase + 7);
  return exit_code;
}

int CatMain(SimEnv& env, const std::vector<std::string>& files) {
  StackFrame frame(env, "cat_main");
  SimLibc& libc = env.libc();
  AFEX_COV(env, kCatBase + 0);
  UtilityInit(env, kCatRecovery + 0);

  uint64_t out = OpenStdout(env);
  if (out == 0) {
    AFEX_COV(env, kCatRecovery + 1);
    return 2;
  }

  int exit_code = 0;
  for (const std::string& file : files) {
    StackFrame f(env, "cat_one_file");
    AFEX_COV(env, kCatBase + 1);
    uint64_t in = libc.Fopen(file, "r");
    if (in == 0) {
      AFEX_COV(env, kCatRecovery + 2);
      libc.Fwrite(out, Diag("cat: ", file, ": No such file or directory\n"));
      exit_code = 1;
      continue;
    }
    std::string line;
    bool read_error = false;
    while (true) {
      bool got = libc.Fgets(in, line);
      if (!got) {
        if (libc.Ferror(in) != 0 && env.sim_errno() == sim_errno::kEINTR) {
          // Interrupted read: clear the indicator and retry once (classic
          // recovery path, as in GNU cat's interruptible read loop).
          AFEX_COV(env, kCatRecovery + 3);
          libc.Clearerr(in);
          got = libc.Fgets(in, line);
        }
        if (!got) {
          if (libc.Ferror(in) != 0) {
            read_error = true;
          }
          break;
        }
      }
      AFEX_COV(env, kCatBase + 2);
      if (libc.Fwrite(out, line) == 0 && !line.empty()) {
        AFEX_COV(env, kCatRecovery + 4);
        libc.Fclose(in);
        libc.Fclose(out);
        return 2;
      }
    }
    if (read_error) {
      AFEX_COV(env, kCatRecovery + 5);
      exit_code = 1;
    }
    libc.Fclose(in);
  }
  if (libc.Fclose(out) != 0) {
    return 2;
  }
  AFEX_COV(env, kCatBase + 3);
  return exit_code;
}

int HeadMain(SimEnv& env, std::string_view file, size_t max_lines) {
  StackFrame frame(env, "head_main");
  SimLibc& libc = env.libc();
  AFEX_COV(env, kHeadBase + 0);
  UtilityInit(env, kHeadRecovery + 0);

  uint64_t out = OpenStdout(env);
  if (out == 0) {
    AFEX_COV(env, kHeadRecovery + 1);
    return 2;
  }
  uint64_t in = libc.Fopen(file, "r");
  if (in == 0) {
    AFEX_COV(env, kHeadRecovery + 2);
    libc.Fwrite(out, Diag("head: cannot open '", file, "'\n"));
    libc.Fclose(out);
    return 1;
  }
  std::string line;
  for (size_t i = 0; i < max_lines && libc.Fgets(in, line); ++i) {
    AFEX_COV(env, kHeadBase + 1);
    libc.Fwrite(out, line);
  }
  if (libc.Ferror(in) != 0) {
    AFEX_COV(env, kHeadRecovery + 3);
    libc.Fclose(in);
    libc.Fclose(out);
    return 1;
  }
  libc.Fclose(in);
  if (libc.Fclose(out) != 0) {
    return 2;
  }
  AFEX_COV(env, kHeadBase + 2);
  return 0;
}

int WcMain(SimEnv& env, std::string_view file) {
  StackFrame frame(env, "wc_main");
  SimLibc& libc = env.libc();
  AFEX_COV(env, kWcBase + 0);
  UtilityInit(env, kWcRecovery + 0);

  uint64_t out = OpenStdout(env);
  if (out == 0) {
    AFEX_COV(env, kWcRecovery + 1);
    return 2;
  }
  int fd = libc.Open(file, kRdOnly);
  if (fd < 0) {
    AFEX_COV(env, kWcRecovery + 2);
    libc.Fwrite(out, Diag("wc: ", file, ": No such file or directory\n"));
    libc.Fclose(out);
    return 1;
  }
  size_t lines = 0;
  size_t words = 0;
  size_t bytes = 0;
  bool in_word = false;
  std::string chunk;
  while (true) {
    chunk.clear();  // reuses capacity; Read appends into it
    long n = libc.Read(fd, chunk, 64);
    if (n < 0) {
      if (env.sim_errno() == sim_errno::kEINTR) {
        AFEX_COV(env, kWcRecovery + 3);
        continue;  // retry interrupted read
      }
      AFEX_COV(env, kWcRecovery + 4);
      libc.Close(fd);
      libc.Fclose(out);
      return 1;
    }
    if (n == 0) {
      break;
    }
    AFEX_COV(env, kWcBase + 1);
    bytes += static_cast<size_t>(n);
    for (char c : chunk) {
      if (c == '\n') {
        ++lines;
      }
      bool space = c == ' ' || c == '\n' || c == '\t';
      if (!space && !in_word) {
        ++words;
        in_word = true;
      } else if (space) {
        in_word = false;
      }
    }
  }
  libc.Close(fd);
  libc.Fwrite(out, Diag(std::to_string(lines) + " " + std::to_string(words) + " " +
                            std::to_string(bytes) + " ",
                        file, "\n"));
  if (libc.Fclose(out) != 0) {
    return 2;
  }
  AFEX_COV(env, kWcBase + 2);
  return 0;
}

int SortMain(SimEnv& env, std::string_view file) {
  StackFrame frame(env, "sort_main");
  SimLibc& libc = env.libc();
  AFEX_COV(env, kSortBase + 0);
  UtilityInit(env, kSortRecovery + 0);

  uint64_t out = OpenStdout(env);
  if (out == 0) {
    AFEX_COV(env, kSortRecovery + 1);
    return 2;
  }
  uint64_t in = libc.Fopen(file, "r");
  if (in == 0) {
    AFEX_COV(env, kSortRecovery + 2);
    libc.Fwrite(out, Diag("sort: cannot read: ", file, "\n"));
    libc.Fclose(out);
    return 2;
  }

  // Line buffer grows by doubling, as in GNU sort's initbuf/growbuf.
  uint64_t buffer = libc.Malloc(16);
  if (buffer == 0) {
    AFEX_COV(env, kSortRecovery + 3);
    libc.Fclose(in);
    libc.Fclose(out);
    return 2;
  }
  std::vector<std::string> lines;
  std::string line;
  size_t capacity = 16;
  while (libc.Fgets(in, line)) {
    AFEX_COV(env, kSortBase + 1);
    lines.push_back(line);
    if (lines.size() * 8 > capacity) {
      capacity *= 2;
      uint64_t grown = libc.Realloc(buffer, capacity);
      if (grown == 0) {
        AFEX_COV(env, kSortRecovery + 4);
        libc.Free(buffer);
        libc.Fclose(in);
        libc.Fclose(out);
        return 2;
      }
      buffer = grown;
    }
  }
  if (libc.Ferror(in) != 0) {
    AFEX_COV(env, kSortRecovery + 5);
    libc.Free(buffer);
    libc.Fclose(in);
    libc.Fclose(out);
    return 2;
  }
  libc.Fclose(in);
  std::sort(lines.begin(), lines.end());
  for (const std::string& l : lines) {
    AFEX_COV(env, kSortBase + 2);
    if (libc.Fwrite(out, l) == 0 && !l.empty()) {
      AFEX_COV(env, kSortRecovery + 6);
      libc.Free(buffer);
      libc.Fclose(out);
      return 2;
    }
  }
  libc.Free(buffer);
  if (libc.Fclose(out) != 0) {
    return 2;
  }
  AFEX_COV(env, kSortBase + 3);
  return 0;
}

int DuMain(SimEnv& env, std::string_view dir) {
  StackFrame frame(env, "du_main");
  SimLibc& libc = env.libc();
  AFEX_COV(env, kDuBase + 0);
  UtilityInit(env, kDuRecovery + 0);

  uint64_t out = OpenStdout(env);
  if (out == 0) {
    AFEX_COV(env, kDuRecovery + 1);
    return 2;
  }
  // Save the working directory so it can be restored after descending.
  uint64_t cwd = libc.Getcwd();
  if (cwd == 0) {
    AFEX_COV(env, kDuRecovery + 2);
    libc.Fwrite(out, "du: cannot get current directory\n");
    libc.Fclose(out);
    return 1;
  }
  std::string saved_cwd = env.HandlePayload(cwd);

  uint64_t dirp = libc.Opendir(dir);
  if (dirp == 0) {
    AFEX_COV(env, kDuRecovery + 3);
    libc.Fwrite(out, Diag("du: cannot read directory '", dir, "'\n"));
    libc.Free(cwd);
    libc.Fclose(out);
    return 1;
  }
  size_t total = 0;
  int exit_code = 0;
  std::string name;
  env.set_sim_errno(0);
  while (libc.Readdir(dirp, name)) {
    AFEX_COV(env, kDuBase + 1);
    std::string full = Diag(dir, "/", name);
    StatBuf st;
    if (libc.Stat(full, st) != 0) {
      AFEX_COV(env, kDuRecovery + 4);
      exit_code = 1;
      env.set_sim_errno(0);
      continue;
    }
    if (st.is_dir) {
      StackFrame f(env, "du_descend");
      AFEX_COV(env, kDuBase + 2);
      if (libc.Chdir(full) != 0) {
        AFEX_COV(env, kDuRecovery + 5);
        exit_code = 1;
      } else {
        uint64_t sub = libc.Opendir(full);
        if (sub != 0) {
          std::string sub_name;
          while (libc.Readdir(sub, sub_name)) {
            StatBuf sub_st;
            if (libc.Stat(full + "/" + sub_name, sub_st) == 0) {
              total += sub_st.size;
            }
          }
          libc.Closedir(sub);
        }
        libc.Chdir(saved_cwd);
      }
    } else {
      total += st.size;
    }
    env.set_sim_errno(0);
  }
  libc.Closedir(dirp);
  libc.Free(cwd);
  libc.Fwrite(out, Diag(std::to_string(total) + "\t", dir, "\n"));
  if (libc.Fclose(out) != 0) {
    return 2;
  }
  AFEX_COV(env, kDuBase + 3);
  return exit_code;
}

}  // namespace coreutils
}  // namespace afex
