// Storage-engine half of MiniDb: table creation (mi_create path, Bug 1),
// WAL append, table load/store, checkpoint and crash recovery.
#include <algorithm>

#include "injection/libc_table.h"
#include "sim/env.h"
#include "sim/simlibc.h"
#include "targets/minidb/minidb.h"
#include "util/strings.h"

namespace afex {
namespace minidb {

namespace {
std::string TablePath(std::string_view name) {
  std::string path = "/db/";
  path += name;
  path += ".tbl";
  return path;
}
constexpr char kWalPath[] = "/db/wal.log";
constexpr char kEngineMutex[] = "THR_LOCK_myisam";
}  // namespace

int MiniDb::CreateTable(std::string_view name) {
  StackFrame frame(*env_, "mi_create");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kCreateBase + 0);

  if (libc.MutexLock(kEngineMutex) != 0) {
    AFEX_COV(*env_, kCreateRecovery + 0);
    LogError("mi_create: cannot take engine lock");
    return -1;
  }

  // Allocate the table descriptor.
  uint64_t descriptor = libc.Malloc(128);
  if (descriptor == 0) {
    AFEX_COV(*env_, kCreateRecovery + 0);
    goto err;
  }

  {
    // Create and pre-format the table file: header plus an empty row area.
    int fd = libc.Open(TablePath(name), kWrOnly | kCreate | kTrunc);
    if (fd < 0) {
      AFEX_COV(*env_, kCreateRecovery + 1);
      libc.Free(descriptor);
      goto err;
    }
    if (libc.Write(fd, "MINIDB1\n") < 0) {
      AFEX_COV(*env_, kCreateRecovery + 2);
      libc.Close(fd);
      libc.Free(descriptor);
      goto err;
    }
    if (libc.Write(fd, "# rows\n") < 0) {
      AFEX_COV(*env_, kCreateRecovery + 2);
      libc.Close(fd);
      libc.Free(descriptor);
      goto err;
    }
    AFEX_COV(*env_, kCreateBase + 1);

    // ---- Bug 1 (paper Fig. 6, MySQL #53268) ----
    // The happy path releases the engine mutex before the final close...
    libc.MutexUnlock(kEngineMutex);
    if (libc.Close(fd) != 0) {
      AFEX_COV(*env_, kCreateRecovery + 3);
      libc.Free(descriptor);
      goto err;  // ...but the error label unlocks again: double unlock.
    }
  }

  libc.Free(descriptor);
  AFEX_COV(*env_, kCreateBase + 2);
  CacheStore(name, {});  // fresh table: header only, no rows
  return 0;

err:
  // Shared recovery label, as in mi_create.c:836.
  AFEX_COV(*env_, kCreateRecovery + 4);
  env_->libc().MutexUnlock(kEngineMutex);  // SIGABRT when already unlocked
  env_->libc().Unlink(TablePath(name));
  CacheInvalidate(name);
  LogError(std::string("mi_create failed for table ").append(name));
  return -1;
}

bool MiniDb::TableExists(std::string_view name) {
  StatBuf st;
  return env_->libc().Stat(TablePath(name), st) == 0;
}

int MiniDb::DropTable(std::string_view name) {
  StackFrame frame(*env_, "drop_table");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kAdminBase + 0);
  if (libc.MutexLock(kEngineMutex) != 0) {
    // Unlike mi_create, the newer code paths check the lock result.
    AFEX_COV(*env_, kAdminRecovery + 0);
    LogError("cannot take engine lock for drop");
    return -1;
  }
  int rc = libc.Unlink(TablePath(name));
  libc.MutexUnlock(kEngineMutex);
  CacheInvalidate(name);  // dropped, or in an unknown state after a failure
  if (rc != 0) {
    AFEX_COV(*env_, kAdminRecovery + 0);
    LogError(std::string("cannot drop table ").append(name));
    return -1;
  }
  AFEX_COV(*env_, kAdminBase + 1);
  return 0;
}

int MiniDb::AppendWal(std::string_view record) {
  StackFrame frame(*env_, "wal_append");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kWalBase + 0);
  if (wal_fd_ < 0) {
    AFEX_COV(*env_, kWalRecovery + 0);
    LogError("WAL not open");
    return -1;
  }
  std::string line(record);
  line += '\n';
  if (libc.Write(wal_fd_, line) < 0) {
    // A failed log write must not corrupt the engine: report and refuse
    // the operation (durability first).
    AFEX_COV(*env_, kWalRecovery + 1);
    LogError("WAL append failed");
    return -1;
  }
  ++wal_records_;
  AFEX_COV(*env_, kWalBase + 1);
  return 0;
}

void MiniDb::CacheStore(std::string_view table, const std::vector<Row>& rows) {
  auto it = table_cache_.find(table);
  ColumnTable& entry =
      it != table_cache_.end() ? it->second : table_cache_[std::string(table)];
  entry.keys.clear();
  entry.values.clear();
  entry.keys.reserve(rows.size());
  entry.values.reserve(rows.size());
  for (const Row& row : rows) {
    entry.keys.push_back(row.key);
    entry.values.push_back(row.value);
  }
}

void MiniDb::CacheInvalidate(std::string_view table) {
  auto it = table_cache_.find(table);
  if (it != table_cache_.end()) {
    table_cache_.erase(it);
  }
}

int MiniDb::LoadTable(std::string_view table, std::vector<Row>& rows) {
  StackFrame frame(*env_, "load_table");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kRowBase + 0);
  rows.clear();

  // Cache hit: materialize from the columns. Same logical blocks as the
  // parse path, so coverage accounting is representation-independent.
  if (auto cached = table_cache_.find(table); cached != table_cache_.end()) {
    const ColumnTable& entry = cached->second;
    rows.reserve(entry.keys.size());
    for (size_t i = 0; i < entry.keys.size(); ++i) {
      rows.push_back(Row{entry.keys[i], entry.values[i]});
      AFEX_COV(*env_, kRowBase + 1);
    }
    AFEX_COV(*env_, kRowBase + 2);
    return 0;
  }

  uint64_t stream = libc.Fopen(TablePath(table), "r");
  if (stream == 0) {
    AFEX_COV(*env_, kRowRecovery + 0);
    LogError(std::string("cannot open table ").append(table));
    return -1;
  }
  rows.reserve(8);
  std::string line;
  bool header_seen = false;
  while (libc.Fgets(stream, line)) {
    if (!header_seen) {
      header_seen = true;
      if (!StartsWith(line, "MINIDB1")) {
        AFEX_COV(*env_, kRowRecovery + 1);
        libc.Fclose(stream);
        LogError(std::string("corrupt table header in ").append(table));
        return -1;
      }
      continue;
    }
    if (StartsWith(line, "#")) {
      continue;
    }
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      continue;
    }
    Row row;
    bool ok = false;
    row.key = libc.Strtol(std::string_view(line).substr(0, eq), ok);
    if (!ok) {
      AFEX_COV(*env_, kRowRecovery + 2);
      continue;  // skip unparsable rows, keep scanning
    }
    row.value = std::string(Trim(std::string_view(line).substr(eq + 1)));
    rows.push_back(std::move(row));
    AFEX_COV(*env_, kRowBase + 1);
  }
  if (libc.Ferror(stream) != 0) {
    AFEX_COV(*env_, kRowRecovery + 3);
    libc.Fclose(stream);
    LogError(std::string("I/O error reading table ").append(table));
    return -1;
  }
  libc.Fclose(stream);
  AFEX_COV(*env_, kRowBase + 2);
  CacheStore(table, rows);
  return 0;
}

int MiniDb::StoreTable(std::string_view table, const std::vector<Row>& rows) {
  StackFrame frame(*env_, "store_table");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kRowBase + 3);

  // Write to a temp file then rename, so a failed store never destroys the
  // old table image.
  std::string temp = TablePath(table) + ".tmp";
  int fd = libc.Open(temp, kWrOnly | kCreate | kTrunc);
  if (fd < 0) {
    AFEX_COV(*env_, kRowRecovery + 4);
    LogError(std::string("cannot create temp file for ").append(table));
    return -1;
  }
  bool write_failed = libc.Write(fd, "MINIDB1\n") < 0;
  std::string record;
  for (const Row& row : rows) {
    if (write_failed) {
      break;
    }
    record.clear();
    record += std::to_string(row.key);
    record += '=';
    record += row.value;
    record += '\n';
    write_failed = libc.Write(fd, record) < 0;
  }
  if (write_failed) {
    AFEX_COV(*env_, kRowRecovery + 5);
    libc.Close(fd);
    libc.Unlink(temp);
    CacheInvalidate(table);
    LogError(std::string("write failed while storing ").append(table));
    return -1;
  }
  if (libc.Close(fd) != 0) {
    AFEX_COV(*env_, kRowRecovery + 5);
    libc.Unlink(temp);
    CacheInvalidate(table);
    LogError(std::string("close failed while storing ").append(table));
    return -1;
  }
  if (libc.Rename(temp, TablePath(table)) != 0) {
    AFEX_COV(*env_, kRowRecovery + 4);
    libc.Unlink(temp);
    CacheInvalidate(table);
    LogError(std::string("rename failed while storing ").append(table));
    return -1;
  }
  AFEX_COV(*env_, kRowBase + 4);
  CacheStore(table, rows);
  return 0;
}

int MiniDb::Checkpoint() {
  StackFrame frame(*env_, "checkpoint");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kCheckpointBase + 0);
  if (libc.MutexLock(kEngineMutex) != 0) {
    AFEX_COV(*env_, kCheckpointRecovery + 0);
    LogError("cannot take engine lock for checkpoint");
    return -1;
  }

  // Flush: close and reopen the WAL truncated.
  if (wal_fd_ >= 0) {
    if (libc.Close(wal_fd_) != 0) {
      AFEX_COV(*env_, kCheckpointRecovery + 0);
      wal_fd_ = -1;
      libc.MutexUnlock(kEngineMutex);
      LogError("checkpoint: WAL close failed");
      return -1;
    }
    wal_fd_ = -1;
  }
  int fd = libc.Open(kWalPath, kWrOnly | kCreate | kTrunc);
  if (fd < 0) {
    AFEX_COV(*env_, kCheckpointRecovery + 1);
    libc.MutexUnlock(kEngineMutex);
    LogError("checkpoint: cannot reopen WAL");
    return -1;
  }
  // Position at the (now empty) end, verifying the truncation took effect.
  if (libc.Lseek(fd, 0, 2) != 0) {
    AFEX_COV(*env_, kCheckpointRecovery + 2);
    libc.Close(fd);
    wal_fd_ = -1;
    libc.MutexUnlock(kEngineMutex);
    LogError("checkpoint: WAL not empty after truncation");
    return -1;
  }
  wal_fd_ = fd;
  wal_records_ = 0;
  libc.MutexUnlock(kEngineMutex);
  AFEX_COV(*env_, kCheckpointBase + 1);
  return 0;
}

int MiniDb::Recover() {
  StackFrame frame(*env_, "wal_recover");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kRecoverBase + 0);

  uint64_t stream = libc.Fopen(kWalPath, "r");
  if (stream == 0) {
    AFEX_COV(*env_, kRecoverRecovery + 0);
    LogError("recover: cannot open WAL");
    return -1;
  }
  std::string line;
  int applied = 0;
  while (libc.Fgets(stream, line)) {
    // Record format: op|table|key|value
    std::vector<std::string_view> parts = SplitViews(Trim(line), '|');
    if (parts.size() < 3) {
      AFEX_COV(*env_, kRecoverRecovery + 1);
      continue;  // torn record at the tail is expected after a crash
    }
    std::vector<Row> rows;
    if (LoadTable(parts[1], rows) != 0) {
      AFEX_COV(*env_, kRecoverRecovery + 2);
      libc.Fclose(stream);
      return -1;
    }
    bool ok = false;
    int64_t key = libc.Strtol(parts[2], ok);
    if (!ok) {
      continue;
    }
    auto it = std::find_if(rows.begin(), rows.end(), [&](const Row& r) { return r.key == key; });
    if (parts[0] == "ins" && parts.size() >= 4) {
      if (it == rows.end()) {
        rows.push_back(Row{key, std::string(parts[3])});
      } else {
        it->value = parts[3];
      }
    } else if (parts[0] == "del" && it != rows.end()) {
      rows.erase(it);
    }
    if (StoreTable(parts[1], rows) != 0) {
      AFEX_COV(*env_, kRecoverRecovery + 3);
      libc.Fclose(stream);
      return -1;
    }
    ++applied;
    AFEX_COV(*env_, kRecoverBase + 1);
  }
  if (libc.Ferror(stream) != 0) {
    AFEX_COV(*env_, kRecoverRecovery + 4);
    libc.Fclose(stream);
    LogError("recover: WAL read error");
    return -1;
  }
  libc.Fclose(stream);
  AFEX_COV(*env_, kRecoverBase + 2);
  return applied >= 0 ? 0 : -1;
}

}  // namespace minidb
}  // namespace afex
