// Minimal persistent-mode target for exec_test's server-mode cases.
// It adopts afex_persistent_run the way afex_walutil does, with scenarios
// that do to the process what a real target may do to it:
//   1 — prints one line and returns 0;
//   2 — closes fds 1 and 2 (the server's only output pipe), sleeps 200 ms,
//       returns 0;
//   3 — hangs: ignores SIGTERM and sleeps 30 s, so only SIGKILL ends it;
//   4 — opens /dev/null and closes it: returns 3 when the open fails, 5
//       when the close does, else 0;
//   5 — creates an unnamed O_TMPFILE file in the working directory with
//       mode 0600 and prints the mode it got: returns 0 when that is 600,
//       6 when the open or fstat fails, else 7;
//   6 — read-your-writes: writes 13 bytes to rb.dat, seeks back and reads
//       them: returns 8 on a stale read, 9 when a call fails, else 0;
//   7 — writes 13 bytes to p.dat and returns 0 (9 when a call fails) with
//       the fd still open;
//   8, 9 — write "0123456789" to u.dat and fsync it, then overwrite from
//       offset 2 with 12 bytes, which also extends the file, and close it
//       (8 through an O_RDWR fd, 9 through an O_WRONLY one);
//   10 — writes "base" to a.dat, fsyncs and closes it, then appends "tail"
//        through an O_APPEND fd and closes that;
//   11 — writes 4 bytes each to d1.dat and d2.dat, fsyncs d1.dat, prints
//        both sizes, then closes both;
//   12 — not deterministic: opens and closes /dev/null, then fails (returns
//        1) with its pid and how often this process ran the scenario in its
//        first output line, which differ between runs in every exec mode;
//   13, 14 — make the subdirectory nest (13) or the FIFO q.fifo (14), then
//            write 13 bytes to s.dat and close it.
// Scenarios 8–11, 13 and 14 return 9 when a call fails, else 0; their
// files hold what a crash plan left on disk.
// A second argument "open-first" makes main open /dev/null before it hands
// over the entry function (returning 4 when that open fails): an interposed
// call ahead of the hook, which must leave every mode with spawn's ordinals.
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

namespace {

// Writes `text` (a string literal's bytes, no terminator) through `fd`.
bool WriteAll(int fd, const char* text) {
  const ssize_t len = static_cast<ssize_t>(strlen(text));
  return write(fd, text, static_cast<size_t>(len)) == len;
}

// Scenarios 8 and 9: an in-place overwrite that also extends the file.
int OverwriteInPlace(int access) {
  int fd = open("u.dat", O_CREAT | O_RDWR | O_TRUNC, 0644);
  if (fd < 0 || !WriteAll(fd, "0123456789") || fsync(fd) != 0 || close(fd) != 0) {
    return 9;
  }
  fd = open("u.dat", access);
  if (fd < 0 || lseek(fd, 2, SEEK_SET) != 2 || !WriteAll(fd, "abcdefghijkl")) {
    return 9;
  }
  return close(fd) == 0 ? 0 : 9;
}

int FileSize(int fd) {
  struct stat st{};
  return fstat(fd, &st) == 0 ? static_cast<int>(st.st_size) : -1;
}

int RunScenario(int id) {
  switch (id) {
    case 1:
      printf("fixture alive\n");
      return 0;
    case 2: {
      close(STDOUT_FILENO);
      close(STDERR_FILENO);
      struct timespec ts{0, 200 * 1000 * 1000};
      nanosleep(&ts, nullptr);
      return 0;
    }
    case 3: {
      signal(SIGTERM, SIG_IGN);
      struct timespec ts{30, 0};
      nanosleep(&ts, nullptr);
      return 0;
    }
    case 4: {
      const int fd = open("/dev/null", O_RDONLY);
      if (fd < 0) {
        return 3;
      }
      return close(fd) == 0 ? 0 : 5;
    }
    case 5: {
      const int fd = open(".", O_TMPFILE | O_RDWR, 0600);
      if (fd < 0) {
        printf("tmpfile open failed: errno=%d\n", errno);
        return 6;
      }
      struct stat st{};
      const int rc = fstat(fd, &st);
      close(fd);
      if (rc != 0) {
        return 6;
      }
      printf("tmpfile mode %o\n", st.st_mode & 07777);
      return (st.st_mode & 07777) == 0600 ? 0 : 7;
    }
    case 6: {
      const char kText[] = "read it back\n";
      const int fd = open("rb.dat", O_CREAT | O_RDWR | O_TRUNC, 0644);
      char back[sizeof(kText)] = {};
      if (fd < 0 || !WriteAll(fd, kText) || lseek(fd, 0, SEEK_SET) != 0 ||
          read(fd, back, sizeof(kText)) < 0) {
        return 9;
      }
      const bool fresh = memcmp(back, kText, sizeof(kText)) == 0;
      return close(fd) == 0 ? (fresh ? 0 : 8) : 9;
    }
    case 7: {
      const int fd = open("p.dat", O_CREAT | O_WRONLY | O_TRUNC, 0644);
      return fd >= 0 && WriteAll(fd, "left open...\n") ? 0 : 9;
    }
    case 8:
      return OverwriteInPlace(O_RDWR);
    case 9:
      return OverwriteInPlace(O_WRONLY);
    case 10: {
      int fd = open("a.dat", O_CREAT | O_WRONLY | O_TRUNC, 0644);
      if (fd < 0 || !WriteAll(fd, "base") || fsync(fd) != 0 || close(fd) != 0) {
        return 9;
      }
      fd = open("a.dat", O_WRONLY | O_APPEND);
      return fd >= 0 && WriteAll(fd, "tail") && close(fd) == 0 ? 0 : 9;
    }
    case 11: {
      const int d1 = open("d1.dat", O_CREAT | O_WRONLY | O_TRUNC, 0644);
      const int d2 = open("d2.dat", O_CREAT | O_WRONLY | O_TRUNC, 0644);
      if (d1 < 0 || d2 < 0 || !WriteAll(d1, "1111") || !WriteAll(d2, "2222") ||
          fsync(d1) != 0) {
        return 9;
      }
      printf("after fsync: d1.dat=%d d2.dat=%d\n", FileSize(d1), FileSize(d2));
      return close(d1) == 0 && close(d2) == 0 ? 0 : 9;
    }
    case 12: {
      static int runs = 0;
      const int fd = open("/dev/null", O_RDONLY);
      if (fd < 0 || close(fd) != 0) {
        return 9;
      }
      printf("pid %d run %d\n", static_cast<int>(getpid()), ++runs);
      return 1;
    }
    case 13:
    case 14: {
      if ((id == 13 ? mkdir("nest", 0755) : mkfifo("q.fifo", 0644)) != 0) {
        return 9;
      }
      const int fd = open("s.dat", O_CREAT | O_WRONLY | O_TRUNC, 0644);
      return fd >= 0 && WriteAll(fd, "beside it...\n") && close(fd) == 0 ? 0 : 9;
    }
    default:
      fprintf(stderr, "unknown test id %d\n", id);
      return 2;
  }
}

}  // namespace

extern "C" int afex_persistent_run(int (*entry)(int test_id)) __attribute__((weak));

int main(int argc, char** argv) {
  setvbuf(stdout, nullptr, _IONBF, 0);
  if (argc == 3 && strcmp(argv[2], "open-first") == 0 && open("/dev/null", O_RDONLY) < 0) {
    return 4;
  }
  if (afex_persistent_run != nullptr) {
    int rc = afex_persistent_run(&RunScenario);
    if (rc >= 0) {
      return rc;
    }
  }
  if (argc < 2) {
    fprintf(stderr, "usage: persistent_fixture <test-id 1..14> [open-first]\n");
    return 2;
  }
  return RunScenario(static_cast<int>(strtol(argv[1], nullptr, 10)));
}
