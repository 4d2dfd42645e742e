// Minimal persistent-mode target for exec_test's forkserver-client cases.
// It adopts afex_persistent_run the way afex_walutil does, with scenarios
// that do to the process what a real target may do to it:
//   1 — prints one line and returns 0;
//   2 — closes fds 1 and 2 (the server's only output pipe), sleeps 200 ms,
//       returns 0;
//   3 — hangs: ignores SIGTERM and sleeps 30 s, so only SIGKILL ends it.
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
#include <unistd.h>

namespace {

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
    default:
      fprintf(stderr, "unknown test id %d\n", id);
      return 2;
  }
}

}  // namespace

extern "C" int afex_persistent_run(int (*entry)(int test_id)) __attribute__((weak));

int main(int argc, char** argv) {
  setvbuf(stdout, nullptr, _IONBF, 0);
  if (afex_persistent_run != nullptr) {
    int rc = afex_persistent_run(&RunScenario);
    if (rc >= 0) {
      return rc;
    }
  }
  if (argc != 2) {
    fprintf(stderr, "usage: persistent_fixture <test-id 1..3>\n");
    return 2;
  }
  return RunScenario(static_cast<int>(strtol(argv[1], nullptr, 10)));
}
