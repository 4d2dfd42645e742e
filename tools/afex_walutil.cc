// afex_walutil: a small real-process target for the exec backend — a
// file-copy / WAL-append / WAL-replay utility whose on-disk formats and
// recovery idioms mirror the simulated minidb target (table files are
// "MINIDB1" headers plus key=value rows, WAL records are op|key|value), but
// which speaks *real* libc: open/read/write/close, fopen/fgets/fwrite,
// malloc, socket. It is what afex_cli --backend=real drives end to end.
//
// Usage: afex_walutil <test-id>   (1-based; kNumScenarios scenarios)
//
// Every scenario writes its own fixture into the current working directory
// (the harness runs each test in a fresh scratch sandbox), performs its
// operation with explicit error checks, and exits 0 on success / 1 on a
// *detected* failure, printing "walutil: <what> failed: errno=<n>" so the
// parent can observe the injected errno. Like its minidb model it also
// carries deliberately imperfect recovery:
//
//  * catalog scenario (MySQL #25097 pattern): a failed catalog read is
//    detected and logged, but the parser then dereferences the buffer the
//    failed read never produced — SIGSEGV.
//  * replay scenario: a table store that fails after WAL records were
//    already applied aborts (post-commit divergence), like a storage
//    engine hitting an I/O error past the commit point — SIGABRT.
//
// Deliberately plain C-style code with fixed buffers: call ordinals seen by
// the interposer stay stable properties of the scenario, not of allocator
// or iostream internals. Built with sanitizers off so LD_PRELOAD works in
// every CI preset.
#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

namespace {

constexpr int kNumScenarios = 6;

void Fail(const char* what) {
  fprintf(stderr, "walutil: %s failed: errno=%d\n", what, errno);
  exit(1);
}

// Writes `data` to `path` with open/write/close, checking every call.
void WriteFileOrDie(const char* path, const char* data) {
  int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    Fail("fixture open");
  }
  size_t len = strlen(data);
  if (write(fd, data, len) != static_cast<ssize_t>(len)) {
    Fail("fixture write");
  }
  if (close(fd) != 0) {
    Fail("fixture close");
  }
}

constexpr char kTableImage[] =
    "MINIDB1\n"
    "# rows\n"
    "1=alpha\n"
    "2=beta\n"
    "3=gamma\n";

// ---- scenario 1: fd-level file copy ---------------------------------------
int RunCopy() {
  WriteFileOrDie("source.tbl", kTableImage);
  int in = open("source.tbl", O_RDONLY);
  if (in < 0) {
    Fail("copy open source");
  }
  int out = open("copy.tbl", O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out < 0) {
    Fail("copy open dest");
  }
  char buf[64];
  ssize_t n;
  while ((n = read(in, buf, sizeof(buf))) > 0) {
    if (write(out, buf, static_cast<size_t>(n)) != n) {
      Fail("copy write");
    }
  }
  if (n < 0) {
    Fail("copy read");
  }
  if (close(in) != 0 || close(out) != 0) {
    Fail("copy close");
  }
  printf("copied source.tbl\n");
  return 0;
}

// ---- scenario 2: WAL append -----------------------------------------------
int RunAppend() {
  WriteFileOrDie("wal.log", "ins|1|alpha\n");
  int fd = open("wal.log", O_WRONLY | O_APPEND);
  if (fd < 0) {
    Fail("wal open");
  }
  const char* records[] = {"ins|2|beta\n", "ins|3|gamma\n", "del|1|\n"};
  for (const char* record : records) {
    size_t len = strlen(record);
    if (write(fd, record, len) != static_cast<ssize_t>(len)) {
      // Durability first: a failed log append must refuse the operation,
      // not corrupt the log.
      close(fd);
      Fail("wal append");
    }
  }
  if (close(fd) != 0) {
    Fail("wal close");
  }
  printf("appended 3 records\n");
  return 0;
}

// ---- scenario 3: WAL replay into the table (minidb Recover shape) ---------
// Loads table rows, applies ins|key|value and del|key| records, stores the
// table via temp file + rename. A store failure after records were applied
// is a post-commit divergence: abort.
struct Row {
  long key;
  char value[56];
};

int LoadTable(const char* path, Row* rows, int cap) {
  FILE* stream = fopen(path, "r");
  if (stream == nullptr) {
    Fail("table fopen");
  }
  char line[128];
  int count = 0;
  int header_seen = 0;
  while (fgets(line, sizeof(line), stream) != nullptr) {
    if (!header_seen) {
      header_seen = 1;
      if (strncmp(line, "MINIDB1", 7) != 0) {
        fclose(stream);
        Fail("table header check");
      }
      continue;
    }
    if (line[0] == '#') {
      continue;
    }
    char* eq = strchr(line, '=');
    if (eq == nullptr || count >= cap) {
      continue;
    }
    *eq = '\0';
    rows[count].key = strtol(line, nullptr, 10);
    snprintf(rows[count].value, sizeof(rows[count].value), "%s", eq + 1);
    char* nl = strchr(rows[count].value, '\n');
    if (nl != nullptr) {
      *nl = '\0';
    }
    ++count;
  }
  if (ferror(stream)) {
    fclose(stream);
    Fail("table read");
  }
  fclose(stream);
  return count;
}

// Returns 0 on success, -1 on a detected (recoverable) failure.
int StoreTable(const char* path, const Row* rows, int count) {
  FILE* stream = fopen("table.tmp", "w");
  if (stream == nullptr) {
    return -1;
  }
  char line[128];
  int len = snprintf(line, sizeof(line), "MINIDB1\n");
  if (fwrite(line, 1, static_cast<size_t>(len), stream) != static_cast<size_t>(len)) {
    fclose(stream);
    unlink("table.tmp");
    return -1;
  }
  for (int i = 0; i < count; ++i) {
    len = snprintf(line, sizeof(line), "%ld=%s\n", rows[i].key, rows[i].value);
    if (fwrite(line, 1, static_cast<size_t>(len), stream) != static_cast<size_t>(len)) {
      fclose(stream);
      unlink("table.tmp");
      return -1;
    }
  }
  if (fclose(stream) != 0) {
    unlink("table.tmp");
    return -1;
  }
  if (rename("table.tmp", path) != 0) {
    unlink("table.tmp");
    return -1;
  }
  return 0;
}

int RunReplay() {
  WriteFileOrDie("table.tbl", kTableImage);
  WriteFileOrDie("wal.log",
                 "ins|4|delta\n"
                 "del|2|\n"
                 "ins|1|alpha2\n"
                 "ins|5");  // torn tail, expected after a crash
  FILE* wal = fopen("wal.log", "r");
  if (wal == nullptr) {
    Fail("wal fopen");
  }
  char line[128];
  int applied = 0;
  while (fgets(line, sizeof(line), wal) != nullptr) {
    char* p1 = strchr(line, '|');
    if (p1 == nullptr) {
      continue;  // torn record
    }
    *p1 = '\0';
    char* p2 = strchr(p1 + 1, '|');
    if (p2 == nullptr) {
      continue;  // torn record
    }
    *p2 = '\0';
    long key = strtol(p1 + 1, nullptr, 10);
    char* value = p2 + 1;
    char* nl = strchr(value, '\n');
    if (nl != nullptr) {
      *nl = '\0';
    }

    Row rows[32];
    int count = LoadTable("table.tbl", rows, 32);
    if (strcmp(line, "ins") == 0) {
      int found = -1;
      for (int i = 0; i < count; ++i) {
        if (rows[i].key == key) {
          found = i;
        }
      }
      if (found >= 0) {
        snprintf(rows[found].value, sizeof(rows[found].value), "%s", value);
      } else if (count < 32) {
        rows[count].key = key;
        snprintf(rows[count].value, sizeof(rows[count].value), "%s", value);
        ++count;
      }
    } else if (strcmp(line, "del") == 0) {
      for (int i = 0; i < count; ++i) {
        if (rows[i].key == key) {
          rows[i] = rows[count - 1];
          --count;
          break;
        }
      }
    }
    if (StoreTable("table.tbl", rows, count) != 0) {
      // The record is in the durable log but the table image no longer
      // matches it: serving from here would return stale data forever.
      fprintf(stderr, "walutil: table/log divergence after applied record\n");
      fclose(wal);
      abort();
    }
    ++applied;
  }
  if (ferror(wal)) {
    fclose(wal);
    Fail("wal read");
  }
  fclose(wal);
  printf("replayed %d records\n", applied);
  return 0;
}

// ---- scenario 4: catalog load (MySQL #25097 pattern) ----------------------
int RunCatalog() {
  WriteFileOrDie("errmsg.sys",
                 "001 syntax error\n"
                 "002 table not found\n"
                 "003 duplicate key\n");
  char* catalog = nullptr;
  int fd = open("errmsg.sys", O_RDONLY);
  if (fd < 0) {
    // Correct recovery: detected and logged...
    fprintf(stderr, "walutil: cannot open errmsg.sys (errno=%d)\n", errno);
  } else {
    catalog = static_cast<char*>(malloc(4096));
    if (catalog != nullptr) {
      ssize_t n = read(fd, catalog, 4095);
      if (n < 0) {
        fprintf(stderr, "walutil: cannot read errmsg.sys (errno=%d)\n", errno);
        free(catalog);
        catalog = nullptr;  // ...so is this one...
      } else {
        catalog[n] = '\0';
      }
    } else {
      fprintf(stderr, "walutil: out of memory loading errmsg.sys (errno=%d)\n", errno);
    }
    close(fd);
  }
  // ...but the parser runs regardless of whether the buffer exists:
  // NULL dereference when any of the recovery paths above fired.
  int messages = 0;
  for (const char* p = catalog; *p != '\0'; ++p) {
    if (*p == '\n') {
      ++messages;
    }
  }
  free(catalog);
  printf("catalog has %d messages\n", messages);
  return 0;
}

// ---- scenario 5: unix-socket smoke ----------------------------------------
int RunNet() {
  int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    Fail("socket");
  }
  struct sockaddr_un addr;
  memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  snprintf(addr.sun_path, sizeof(addr.sun_path), "walutil.sock");
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    Fail("bind");
  }
  if (listen(fd, 1) != 0) {
    close(fd);
    Fail("listen");
  }
  if (close(fd) != 0) {
    Fail("socket close");
  }
  if (unlink("walutil.sock") != 0) {
    Fail("socket unlink");
  }
  printf("socket smoke ok\n");
  return 0;
}

// ---- scenario 6: stdio file copy ------------------------------------------
int RunStdioCopy() {
  WriteFileOrDie("source.tbl", kTableImage);
  FILE* in = fopen("source.tbl", "r");
  if (in == nullptr) {
    Fail("stdio open source");
  }
  FILE* out = fopen("copy.tbl", "w");
  if (out == nullptr) {
    fclose(in);
    Fail("stdio open dest");
  }
  char line[128];
  int lines = 0;
  while (fgets(line, sizeof(line), in) != nullptr) {
    size_t len = strlen(line);
    if (fwrite(line, 1, len, out) != len) {
      Fail("stdio write");
    }
    ++lines;
  }
  if (ferror(in)) {
    Fail("stdio read");
  }
  if (fflush(out) != 0) {
    Fail("stdio flush");
  }
  if (fclose(in) != 0 || fclose(out) != 0) {
    Fail("stdio close");
  }
  printf("copied %d lines\n", lines);
  return 0;
}

int RunScenario(int id) {
  switch (id) {
    case 1:
      return RunCopy();
    case 2:
      return RunAppend();
    case 3:
      return RunReplay();
    case 4:
      return RunCatalog();
    case 5:
      return RunNet();
    case 6:
      return RunStdioCopy();
    default:
      fprintf(stderr, "unknown test id %d\n", id);
      return 2;
  }
}

}  // namespace

// Persistent-mode hook, exported by libafex_interpose.so. Weak: when the
// binary runs standalone the symbol is absent and the pointer is null, so
// adoption costs one branch; outside a server child it returns -1.
extern "C" int afex_persistent_run(int (*entry)(int test_id)) __attribute__((weak));

int main(int argc, char** argv) {
  // Unbuffered stdio keeps the scenarios persistent-safe: buffered streams
  // flush through libc-internal writes that bypass the PLT (so ordinals are
  // unaffected either way), but an iteration that returns would carry
  // buffered output into the next test's capture window.
  setvbuf(stdout, nullptr, _IONBF, 0);
  setvbuf(stderr, nullptr, _IONBF, 0);
  if (afex_persistent_run != nullptr) {
    int rc = afex_persistent_run(&RunScenario);
    if (rc >= 0) {
      return rc;
    }
    // rc < 0: the preload is present but this process is not a server
    // child (spawn mode) — run the normal argv path.
  }
  if (argc != 2) {
    fprintf(stderr, "usage: afex_walutil <test-id 1..%d>\n", kNumScenarios);
    return 2;
  }
  return RunScenario(static_cast<int>(strtol(argv[1], nullptr, 10)));
}
