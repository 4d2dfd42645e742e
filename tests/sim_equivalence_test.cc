// Golden suite for the flat sim-layer structures: the interned-path
// filesystem with its sorted ListDir index, the dense fd / socket / heap
// slot tables, the flat fault-bus counters, and the reusable arena
// environment (SimEnv::ResetForRun). Every hand-written leg transcribes each
// return value, errno, and piece of visible state and compares it with the
// committed transcript inline; each seeded fuzz script compares the FNV-1a
// digest and length of its transcript with committed values and prints the
// transcript on a mismatch. A reset arena env must replay every script
// exactly like a fresh one.
//
// The goldens freeze observable behaviour. A change that alters it on
// purpose updates the golden from the printed transcript or digest and
// explains why in CHANGES.md.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "injection/libc_profile.h"
#include "sim/env.h"
#include "sim/process.h"
#include "sim/simlibc.h"
#include "util/fnv1a.h"
#include "util/rng.h"

namespace afex {
namespace {

using Script = std::function<void(SimEnv&, std::string&)>;

// Runs `script` against a fresh env and checks its transcript against the
// committed golden.
void ExpectTranscript(const Script& script, std::string_view golden) {
  std::string log;
  SimEnv env;
  script(env, log);
  EXPECT_EQ(log, golden);
}

// ---- fd lifecycle ----

TEST(SimEquivalenceTest, FdReuseAfterClose) {
  auto script = [](SimEnv& env, std::string& log) {
    SimLibc& libc = env.libc();
    env.AddFile("/f", "abc");
    int fd1 = libc.Open("/f", kRdOnly);
    log += "fd1=" + std::to_string(fd1);
    log += " close=" + std::to_string(libc.Close(fd1));
    // Descriptors are never reused: a new open gets a fresh fd and the old
    // one stays invalid.
    int fd2 = libc.Open("/f", kRdOnly);
    log += " fd2=" + std::to_string(fd2);
    std::string out;
    log += " old_read=" + std::to_string(libc.Read(fd1, out, 2));
    log += " errno=" + std::to_string(env.sim_errno());
    log += " new_read=" + std::to_string(libc.Read(fd2, out, 2));
    log += " buf=" + out;
    log += " reclose=" + std::to_string(libc.Close(fd1));
    log += " errno=" + std::to_string(env.sim_errno());
  };
  ExpectTranscript(script,
    "fd1=3 close=0 fd2=4 old_read=-1 errno=9 new_read=2 buf=ab reclose=-1 errno=9");
}

// ---- directory order ----

TEST(SimEquivalenceTest, ListDirLexicographicOrderSurvivesChurn) {
  auto script = [](SimEnv& env, std::string& log) {
    SimLibc& libc = env.libc();
    env.AddDir("/d");
    // Insert out of order, remove, re-add: the listing must stay sorted.
    for (const char* name : {"/d/zeta", "/d/alpha", "/d/mid", "/d/beta", "/d/a"}) {
      env.AddFile(name, "");
    }
    env.Remove("/d/mid");
    env.AddFile("/d/omega", "");
    env.AddDir("/d/sub");
    env.AddFile("/d/sub/nested", "");  // not a direct child
    for (const std::string& entry : env.ListDir("/d")) {
      log += entry;
      log += '|';
    }
    // And through readdir(), which snapshots at opendir time.
    uint64_t dirp = libc.Opendir("/d");
    std::string name;
    while (libc.Readdir(dirp, name)) {
      log += name;
      log += ';';
    }
    log += " end_errno=" + std::to_string(env.sim_errno());
    libc.Closedir(dirp);
  };
  ExpectTranscript(script, "a|alpha|beta|omega|sub|zeta|a;alpha;beta;omega;sub;zeta; end_errno=0");
}

// ---- rename ----

TEST(SimEquivalenceTest, RenameOverExisting) {
  auto script = [](SimEnv& env, std::string& log) {
    SimLibc& libc = env.libc();
    env.AddFile("/from", "source-bytes");
    env.AddFile("/to", "old-bytes-to-be-replaced");
    log += "rc=" + std::to_string(libc.Rename("/from", "/to"));
    log += " from_exists=" + std::to_string(env.Exists("/from"));
    log += " to=" + env.Find("/to")->content;
    // Renaming the (now missing) source again fails with ENOENT.
    log += " again=" + std::to_string(libc.Rename("/from", "/to"));
    log += " errno=" + std::to_string(env.sim_errno());
    StatBuf st;
    log += " stat=" + std::to_string(libc.Stat("/to", st)) + " size=" + std::to_string(st.size);
  };
  ExpectTranscript(script, "rc=0 from_exists=0 to=source-bytes again=-1 errno=2 stat=0 size=0");
}

// ---- errno round trips ----

TEST(SimEquivalenceTest, ErrnoRoundTrips) {
  auto script = [](SimEnv& env, std::string& log) {
    SimLibc& libc = env.libc();
    std::string out;
    auto note = [&](const char* what, long rc) {
      log += what;
      log += '=' + std::to_string(rc) + '/' + std::to_string(env.sim_errno()) + ' ';
    };
    StatBuf st;
    note("open_missing", libc.Open("/missing", kRdOnly));
    note("fopen_missing", static_cast<long>(libc.Fopen("/missing", "r")));
    note("unlink_missing", libc.Unlink("/missing"));
    note("stat_missing", libc.Stat("/missing", st));
    note("read_badf", libc.Read(99, out, 4));
    note("write_badf", libc.Write(99, "x"));
    note("close_badf", libc.Close(99));
    note("lseek_badf", libc.Lseek(99, 0, 0));
    note("opendir_missing", static_cast<long>(libc.Opendir("/nowhere")));
    note("chdir_missing", libc.Chdir("/nowhere"));
    note("recv_badf", libc.Recv(99, out, 4));
    note("send_badf", libc.Send(99, "x"));
    env.AddFile("/exists", "");
    note("mkdir_exists", libc.Mkdir("/exists"));
    // An injected fault's errno round-trips too (read_badf was read call 1).
    env.bus().Arm({.function = "read", .call_lo = 2, .call_hi = 2, .retval = -1,
                   .errno_value = sim_errno::kEINTR});
    int fd = env.libc().Open("/exists", kRdOnly);
    note("read_injected", libc.Read(fd, out, 1));
  };
  ExpectTranscript(script,
    "open_missing=-1/2 fopen_missing=0/2 unlink_missing=-1/2 stat_missing=-1/2 "
    "read_badf=-1/9 write_badf=-1/9 close_badf=-1/9 lseek_badf=-1/9 opendir_missing=0/2 "
    "chdir_missing=-1/2 recv_badf=-1/104 send_badf=-1/104 mkdir_exists=-1/17 "
    "read_injected=-1/4 ");
}

// ---- heap handles ----

TEST(SimEquivalenceTest, HeapHandlesAndPayloads) {
  auto script = [](SimEnv& env, std::string& log) {
    SimLibc& libc = env.libc();
    uint64_t a = libc.Malloc(8);
    uint64_t b = libc.Strdup("payload-bytes");
    uint64_t c = libc.Calloc(2, 16);
    log += "a=" + std::to_string(a) + " b=" + std::to_string(b) + " c=" + std::to_string(c);
    log += " live=" + std::to_string(env.live_allocations());
    log += " payload=" + env.HandlePayload(b);
    libc.Free(a);
    libc.Free(a);  // double free is a silent no-op
    log += " live=" + std::to_string(env.live_allocations());
    log += " a_valid=" + std::to_string(env.HandleValid(a));
    uint64_t d = libc.Realloc(c, 64);
    log += " d=" + std::to_string(d) + " c_valid=" + std::to_string(env.HandleValid(c));
    RunOutcome crash = RunProgram(env, [&](SimEnv& e) {
      e.Deref(a, "dangling");
      return 0;
    });
    log += " crash=" + std::to_string(crash.crashed) + " detail=" + crash.termination_detail;
  };
  ExpectTranscript(script,
    "a=4096 b=4097 c=4098 live=3 payload=payload-bytes live=2 a_valid=0 d=4099 c_valid=0 "
    "crash=1 detail=SIGSEGV: invalid pointer dereference in dangling");
}

// ---- fault-bus counters ----

TEST(SimEquivalenceTest, BusCountersAndWindows) {
  auto script = [](SimEnv& env, std::string& log) {
    SimLibc& libc = env.libc();
    env.bus().Arm({.function = "malloc", .call_lo = 2, .call_hi = 3, .retval = 0,
                   .errno_value = sim_errno::kENOMEM});
    for (int i = 0; i < 4; ++i) {
      log += std::to_string(libc.Malloc(4) != 0);
    }
    env.AddFile("/f", "x\ny\n");
    uint64_t s = libc.Fopen("/f", "r");
    std::string line;
    while (libc.Fgets(s, line)) {
      log += line;
    }
    libc.Fclose(s);
    log += " malloc=" + std::to_string(env.bus().CallCount("malloc"));
    log += " fgets=" + std::to_string(env.bus().CallCount("fgets"));
    log += " never=" + std::to_string(env.bus().CallCount("never_called"));
    log += " triggers=" + std::to_string(env.bus().trigger_count());
    for (const auto& [fn, count] : env.bus().call_counts()) {
      log += ' ' + fn + ':' + std::to_string(count);
    }
    // Names outside the libc profile take the overflow lane but count and
    // match specs the same way.
    env.bus().Arm({.function = "custom_fn", .call_lo = 2, .call_hi = 2, .retval = -7});
    log += " c1=" + std::to_string(env.bus().OnCall("custom_fn") != nullptr);
    log += " c2=" + std::to_string(env.bus().OnCall(std::string_view("custom_fn")) != nullptr);
    log += " custom=" + std::to_string(env.bus().CallCount("custom_fn"));
  };
  ExpectTranscript(script,
    "1001x\ny\n malloc=4 fgets=3 never=0 triggers=2 fclose:1 fgets:3 fopen:1 malloc:4 c1=0 "
    "c2=1 custom=2");
}

// ---- randomized op-script fuzz goldens ----

// Drives a random mix of filesystem / stream / fd / socket / mutex / heap
// operations from a seeded sequence and transcribes every observable
// result.
void FuzzScript(uint64_t seed, SimEnv& env, std::string& log) {
  SimLibc& libc = env.libc();
  Rng rng(seed);
  const char* paths[] = {"/a", "/b", "/dir/c", "/dir/d", "/e.tmp"};
  env.AddDir("/dir");
  std::vector<int> fds;
  std::string buffer;
  for (int step = 0; step < 300; ++step) {
    switch (rng.NextBelow(12)) {
      case 0: {
        const char* p = paths[rng.NextBelow(5)];
        int fd = libc.Open(p, rng.NextBernoulli(0.5) ? (kWrOnly | kCreate) : kRdOnly);
        log += 'o' + std::to_string(fd);
        if (fd >= 0) {
          fds.push_back(fd);
        }
        break;
      }
      case 1: {
        if (!fds.empty()) {
          int fd = fds[rng.NextBelow(fds.size())];
          log += 'w' + std::to_string(libc.Write(fd, "data-chunk"));
        }
        break;
      }
      case 2: {
        if (!fds.empty()) {
          int fd = fds[rng.NextBelow(fds.size())];
          buffer.clear();
          log += 'r' + std::to_string(libc.Read(fd, buffer, 6)) + buffer;
        }
        break;
      }
      case 3: {
        if (!fds.empty()) {
          size_t at = rng.NextBelow(fds.size());
          log += 'c' + std::to_string(libc.Close(fds[at]));
          fds.erase(fds.begin() + static_cast<ptrdiff_t>(at));
        }
        break;
      }
      case 4:
        log += 'u' + std::to_string(libc.Unlink(paths[rng.NextBelow(5)]));
        break;
      case 5:
        log += 'n' +
               std::to_string(libc.Rename(paths[rng.NextBelow(5)], paths[rng.NextBelow(5)]));
        break;
      case 6: {
        for (const std::string& entry : env.ListDir("/dir")) {
          log += entry;
        }
        break;
      }
      case 7: {
        uint64_t s = libc.Fopen(paths[rng.NextBelow(5)], rng.NextBernoulli(0.5) ? "a" : "r");
        if (s != 0) {
          buffer.clear();
          libc.Fgets(s, buffer);
          log += 'g' + buffer;
          log += 'f' + std::to_string(libc.Fwrite(s, "line\n"));
          libc.Fclose(s);
        } else {
          log += 'F' + std::to_string(env.sim_errno());
        }
        break;
      }
      case 8: {
        uint64_t h = libc.Malloc(rng.NextBelow(64) + 1);
        log += 'm' + std::to_string(h != 0);
        if (rng.NextBernoulli(0.7)) {
          libc.Free(h);
        }
        break;
      }
      case 9: {
        int s = libc.Socket();
        log += 's' + std::to_string(libc.Bind(s, "addr")) + std::to_string(libc.Listen(s));
        SimEnv::Socket* listener = env.FindSocket(s);
        if (listener != nullptr) {
          listener->inbox = "ping";
        }
        int conn = libc.Accept(s);
        buffer.clear();
        log += std::to_string(libc.Recv(conn, buffer, 8)) + buffer;
        libc.Close(conn);
        libc.Close(s);
        break;
      }
      case 10: {
        StatBuf st;
        log += 't' + std::to_string(libc.Stat(paths[rng.NextBelow(5)], st)) +
               std::to_string(st.size);
        break;
      }
      default: {
        log += 'l' + std::to_string(env.MutexLocked("m"));
        RunOutcome guard = RunProgram(env, [&](SimEnv& e) {
          e.libc().MutexLock("m");
          if (rng.NextBernoulli(0.5)) {
            e.libc().MutexUnlock("m");
          }
          return 0;
        });
        log += std::to_string(guard.crashed);
        if (env.MutexLocked("m")) {
          libc.MutexUnlock("m");
        }
        break;
      }
    }
    log += std::to_string(env.sim_errno());
    log += '.';
  }
  log += "steps=" + std::to_string(env.steps_used());
}

uint64_t Fnv1a(std::string_view bytes) {
  Fnv1aHasher h;
  h.Bytes(bytes);
  return h.value();
}

// Committed transcript digest and length of FuzzScript for seeds 1..8.
struct FuzzGolden {
  uint64_t digest;
  size_t length;
};
constexpr FuzzGolden kFuzzGoldens[] = {
    {0xb6c2a74400b0e825ULL, 1609},
    {0xcedd54e57476224bULL, 1362},
    {0x3b71ecf36958e330ULL, 1456},
    {0xe03730115cfb6eddULL, 1420},
    {0x80d915ec087bbe90ULL, 1376},
    {0xcbc6b2d965faed28ULL, 1597},
    {0x8b909ed762ccf86cULL, 1459},
    {0x11861ce87cbe3cefULL, 1480},
};

TEST(SimEquivalenceTest, RandomizedOpScriptsMatchGoldensAndArenaReuse) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const FuzzGolden& golden = kFuzzGoldens[seed - 1];
    std::string log;
    SimEnv env(seed);
    FuzzScript(seed, env, log);
    EXPECT_TRUE(Fnv1a(log) == golden.digest && log.size() == golden.length)
        << "seed " << seed << ": digest 0x" << std::hex << Fnv1a(log) << std::dec << " length "
        << log.size() << ", transcript:\n"
        << log;

    // One arena env replaying every seed so far: each ResetForRun must
    // behave exactly like a fresh construction, warm buffers and all.
    SimEnv arena(999);
    for (uint64_t replay = 1; replay <= seed; ++replay) {
      arena.ResetForRun(replay, 1'000'000);
      std::string arena_log;
      std::string fresh_log;
      FuzzScript(replay, arena, arena_log);
      SimEnv fresh(replay);
      FuzzScript(replay, fresh, fresh_log);
      ASSERT_EQ(arena_log, fresh_log) << "seed " << seed << " replay " << replay;
    }
  }
}

}  // namespace
}  // namespace afex
