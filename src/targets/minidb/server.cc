// Server half of MiniDb: bootstrap (error-message catalog, Bug 2), the
// query layer on top of the storage engine, and error logging.
#include <algorithm>

#include "injection/libc_table.h"
#include "sim/crash.h"
#include "sim/env.h"
#include "sim/simlibc.h"
#include "targets/minidb/minidb.h"

namespace afex {
namespace minidb {

namespace {
constexpr char kErrmsgPath[] = "/db/errmsg.sys";
constexpr char kConfigPath[] = "/db/my.cnf";
constexpr char kWalPath[] = "/db/wal.log";
constexpr char kLogPath[] = "/db/server.log";
}  // namespace

void InstallFixture(SimEnv& env, size_t test_id) {
  env.AddDir("/db");
  // Config size and pool count vary per test: bootstrap's call numbers
  // shift accordingly, like a real server whose startup I/O depends on its
  // configuration. Reused build buffer: this runs before every test.
  thread_local std::string config;
  config.clear();
  config += "pool=";
  config += std::to_string(1 + test_id % 3);
  config += '\n';
  config.append((test_id % 6) * 64, '#');
  env.AddFile(kConfigPath, config);
  env.AddFile(kErrmsgPath,
              "001 syntax error\n"
              "002 table not found\n"
              "003 duplicate key\n"
              "004 I/O error\n"
              "005 out of memory\n");
  env.AddFile(kWalPath, "");
  env.AddFile(kLogPath, "");
}

int MiniDb::Bootstrap() {
  StackFrame frame(*env_, "init_server_components");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kBootBase + 0);

  // ---- configuration file ----
  // Read in fixed-size chunks; the file's size (fixture-dependent) decides
  // how many read() calls happen before anything else. A missing or
  // unreadable config degrades to defaults (graceful).
  long pool_count = 1;
  {
    StackFrame f(*env_, "read_config");
    int fd = libc.Open(kConfigPath, kRdOnly);
    if (fd < 0) {
      AFEX_COV(*env_, kBootRecovery + 6);
      LogError("cannot open my.cnf; using defaults");
    } else {
      std::string config;
      while (true) {
        // Read appends into the accumulating buffer directly.
        long n = libc.Read(fd, config, 64);
        if (n < 0) {
          AFEX_COV(*env_, kBootRecovery + 6);
          LogError("error reading my.cnf; using defaults");
          config.clear();
          break;
        }
        if (n == 0) {
          break;
        }
      }
      libc.Close(fd);
      size_t pos = config.find("pool=");
      if (pos != std::string::npos) {
        bool ok = false;
        size_t end = config.find('\n', pos);
        long parsed = libc.Strtol(
            std::string_view(config).substr(
                pos + 5, end == std::string::npos ? std::string_view::npos : end - pos - 5),
            ok);
        if (ok && parsed >= 1 && parsed <= 16) {
          pool_count = parsed;
        } else {
          AFEX_COV(*env_, kBootRecovery + 7);
          LogError("bad pool setting; using default");
        }
      }
    }
  }

  // Core server allocations: datadir path, connection pools (grown once).
  // Any failure here is correctly detected and aborts startup cleanly.
  uint64_t datadir = libc.Strdup("/db");
  if (datadir == 0) {
    AFEX_COV(*env_, kBootRecovery + 6);
    return -1;  // cannot even log: the log path lives under datadir
  }
  std::vector<uint64_t> pools;
  for (long i = 0; i < pool_count; ++i) {
    uint64_t pool = libc.Calloc(8, 32);
    if (pool == 0) {
      AFEX_COV(*env_, kBootRecovery + 7);
      LogError("out of memory allocating connection pool");
      for (uint64_t p : pools) {
        libc.Free(p);
      }
      libc.Free(datadir);
      return -1;
    }
    pools.push_back(pool);
  }
  uint64_t grown = libc.Realloc(pools.front(), 512);
  if (grown == 0) {
    AFEX_COV(*env_, kBootRecovery + 8);
    LogError("out of memory growing connection pool");
    for (size_t i = 1; i < pools.size(); ++i) {
      libc.Free(pools[i]);
    }
    libc.Free(datadir);
    return -1;
  }
  pools.front() = grown;
  for (uint64_t p : pools) {
    libc.Free(p);
  }
  libc.Free(datadir);

  // ---- error-message catalog (Bug 2, MySQL #25097) ----
  {
    StackFrame f(*env_, "init_errmessage");
    AFEX_COV(*env_, kBootBase + 1);
    std::string data;
    int fd = libc.Open(kErrmsgPath, kRdOnly);
    if (fd < 0) {
      // Correct recovery: the failure is detected and logged...
      AFEX_COV(*env_, kBootRecovery + 0);
      LogError("cannot open errmsg.sys");
    } else {
      long n = libc.Read(fd, data, 4096);
      if (n < 0) {
        AFEX_COV(*env_, kBootRecovery + 1);
        LogError("cannot read errmsg.sys");
      } else {
        errmsg_handle_ = libc.Malloc(data.size() + 1);
        if (errmsg_handle_ != 0) {
          env_->SetHandlePayload(errmsg_handle_, data);
        } else {
          AFEX_COV(*env_, kBootRecovery + 2);
          LogError("out of memory loading errmsg.sys");
        }
      }
      libc.Close(fd);
    }
    // ...but the server then parses the message buffer regardless of
    // whether the read initialized it — NULL dereference when it did not.
    StackFrame parse(*env_, "parse_errmsgs");
    AFEX_COV(*env_, kBootBase + 2);
    const std::string& messages = env_->HandlePayload(
        env_->Deref(errmsg_handle_, "errmsg message buffer"));
    size_t count = static_cast<size_t>(std::count(messages.begin(), messages.end(), '\n'));
    if (count == 0) {
      AFEX_COV(*env_, kBootRecovery + 3);
      LogError("errmsg.sys contains no messages");
    }
  }

  // ---- open the WAL for appending ----
  {
    StackFrame f(*env_, "open_wal");
    AFEX_COV(*env_, kBootBase + 3);
    wal_fd_ = libc.Open(kWalPath, kWrOnly | kCreate | kAppend);
    if (wal_fd_ < 0) {
      AFEX_COV(*env_, kBootRecovery + 4);
      LogError("cannot open WAL");
      return -1;
    }
  }
  AFEX_COV(*env_, kBootBase + 4);
  return 0;
}

std::string MiniDb::FormatError(int code) {
  StackFrame frame(*env_, "format_error");
  AFEX_COV(*env_, kBootBase + 5);
  const std::string& messages =
      env_->HandlePayload(env_->Deref(errmsg_handle_, "errmsg catalog"));
  std::string prefix = code < 10 ? "00" + std::to_string(code) : std::to_string(code);
  size_t pos = messages.find(prefix + " ");
  if (pos == std::string::npos) {
    AFEX_COV(*env_, kBootRecovery + 5);
    return "unknown error " + std::to_string(code);
  }
  size_t end = messages.find('\n', pos);
  return messages.substr(pos, end == std::string::npos ? messages.size() - pos : end - pos);
}

void MiniDb::LogError(std::string_view what) {
  StackFrame frame(*env_, "log_error");
  SimLibc& libc = env_->libc();
  // Logging must never take the server down: every failure here is
  // swallowed (the log line is simply lost).
  uint64_t stream = libc.Fopen(kLogPath, "a");
  if (stream == 0) {
    AFEX_COV(*env_, kQueryRecovery + 0);
    return;
  }
  std::string entry = "[ERROR] ";
  entry += what;
  entry += '\n';
  libc.Fwrite(stream, entry);
  libc.Fclose(stream);
}

int MiniDb::Insert(std::string_view table, const Row& row) {
  StackFrame frame(*env_, "handle_insert");
  AFEX_COV(*env_, kQueryBase + 0);
  std::vector<Row> rows;
  if (LoadTable(table, rows) != 0) {
    AFEX_COV(*env_, kQueryRecovery + 1);
    return -1;
  }
  auto it = std::find_if(rows.begin(), rows.end(), [&](const Row& r) { return r.key == row.key; });
  if (it != rows.end()) {
    AFEX_COV(*env_, kQueryRecovery + 2);
    LogError(FormatError(3));  // duplicate key
    return -1;
  }
  std::string record = "ins|";
  record += table;
  record += '|';
  record += std::to_string(row.key);
  record += '|';
  record += row.value;
  if (AppendWal(record) != 0) {
    AFEX_COV(*env_, kQueryRecovery + 3);
    return -1;  // durability first: refuse un-logged writes
  }
  rows.push_back(row);
  if (StoreTable(table, rows) != 0) {
    // The operation is already WAL-logged; a failed table store would
    // leave table and log divergent. Like a production engine hitting an
    // I/O error past the commit point, deliberately abort rather than
    // serve inconsistent data.
    AFEX_COV(*env_, kQueryRecovery + 4);
    throw SimAbort("table/log divergence after logged insert");
  }
  AFEX_COV(*env_, kQueryBase + 1);
  return 0;
}

int MiniDb::Select(std::string_view table, int64_t key, Row& out) {
  StackFrame frame(*env_, "handle_select");
  AFEX_COV(*env_, kQueryBase + 2);
  std::vector<Row> rows;
  if (LoadTable(table, rows) != 0) {
    AFEX_COV(*env_, kQueryRecovery + 5);
    return -1;
  }
  auto it = std::find_if(rows.begin(), rows.end(), [&](const Row& r) { return r.key == key; });
  if (it == rows.end()) {
    AFEX_COV(*env_, kQueryBase + 3);
    return 1;  // not found (not an error)
  }
  out = *it;
  AFEX_COV(*env_, kQueryBase + 4);
  return 0;
}

int MiniDb::Update(std::string_view table, const Row& row) {
  StackFrame frame(*env_, "handle_update");
  AFEX_COV(*env_, kQueryBase + 5);
  std::vector<Row> rows;
  if (LoadTable(table, rows) != 0) {
    AFEX_COV(*env_, kQueryRecovery + 6);
    return -1;
  }
  auto it = std::find_if(rows.begin(), rows.end(), [&](const Row& r) { return r.key == row.key; });
  if (it == rows.end()) {
    AFEX_COV(*env_, kQueryRecovery + 7);
    LogError(FormatError(2));  // table/row not found
    return -1;
  }
  std::string record = "ins|";
  record += table;
  record += '|';
  record += std::to_string(row.key);
  record += '|';
  record += row.value;
  if (AppendWal(record) != 0) {
    return -1;
  }
  it->value = row.value;
  if (StoreTable(table, rows) != 0) {
    throw SimAbort("table/log divergence after logged update");
  }
  AFEX_COV(*env_, kQueryBase + 6);
  return 0;
}

int MiniDb::Delete(std::string_view table, int64_t key) {
  StackFrame frame(*env_, "handle_delete");
  AFEX_COV(*env_, kQueryBase + 7);
  std::vector<Row> rows;
  if (LoadTable(table, rows) != 0) {
    AFEX_COV(*env_, kQueryRecovery + 8);
    return -1;
  }
  auto it = std::find_if(rows.begin(), rows.end(), [&](const Row& r) { return r.key == key; });
  if (it == rows.end()) {
    AFEX_COV(*env_, kQueryBase + 8);
    return 1;
  }
  std::string record = "del|";
  record += table;
  record += '|';
  record += std::to_string(key);
  if (AppendWal(record) != 0) {
    return -1;
  }
  rows.erase(it);
  if (StoreTable(table, rows) != 0) {
    throw SimAbort("table/log divergence after logged delete");
  }
  AFEX_COV(*env_, kQueryBase + 9);
  return 0;
}

}  // namespace minidb
}  // namespace afex
