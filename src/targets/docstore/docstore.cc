#include "targets/docstore/docstore.h"

#include "injection/libc_table.h"
#include "sim/env.h"
#include "sim/simlibc.h"
#include "util/strings.h"

namespace afex {
namespace docstore {

namespace {
constexpr char kSnapPath[] = "/data/store.snap";
constexpr char kJournalPath[] = "/data/journal.wal";
}  // namespace

void InstallFixture(SimEnv& env) {
  env.AddDir("/data");
  env.AddFile(kSnapPath, "");
  env.AddFile(kJournalPath, "");
}

// ---- V08 ----

int DocStoreV08::Put(std::string_view id, std::string_view doc) {
  StackFrame frame(*env_, "v08_put");
  AFEX_COV(*env_, kV08Base + 0);
  // Pre-production code: one buffer allocation per put, properly checked.
  uint64_t buffer = env_->libc().Malloc(doc.size() + 1);
  if (buffer == 0) {
    AFEX_COV(*env_, kV08Recovery + 0);
    return -1;
  }
  env_->libc().Free(buffer);
  docs_[std::string(id)] = doc;
  return 0;
}

int DocStoreV08::Get(std::string_view id, std::string& doc) {
  StackFrame frame(*env_, "v08_get");
  AFEX_COV(*env_, kV08Base + 1);
  auto it = docs_.find(id);
  if (it == docs_.end()) {
    return 1;
  }
  doc = it->second;
  return 0;
}

int DocStoreV08::Remove(std::string_view id) {
  StackFrame frame(*env_, "v08_remove");
  AFEX_COV(*env_, kV08Base + 2);
  auto it = docs_.find(id);
  if (it == docs_.end()) {
    return 1;
  }
  docs_.erase(it);
  return 0;
}

int DocStoreV08::Save() {
  StackFrame frame(*env_, "v08_save");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kV08Base + 3);
  uint64_t stream = libc.Fopen(kSnapPath, "w");
  if (stream == 0) {
    AFEX_COV(*env_, kV08Recovery + 1);
    return -1;
  }
  for (const auto& [id, doc] : docs_) {
    if (libc.Fwrite(stream, id + ":" + doc + "\n") == 0) {
      AFEX_COV(*env_, kV08Recovery + 2);
      libc.Fclose(stream);
      return -1;
    }
  }
  if (libc.Fclose(stream) != 0) {
    AFEX_COV(*env_, kV08Recovery + 3);
    return -1;
  }
  AFEX_COV(*env_, kV08Base + 4);
  return 0;
}

int DocStoreV08::Load() {
  StackFrame frame(*env_, "v08_load");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kV08Base + 5);
  uint64_t stream = libc.Fopen(kSnapPath, "r");
  if (stream == 0) {
    AFEX_COV(*env_, kV08Recovery + 4);
    return -1;
  }
  docs_.clear();
  std::string line;
  while (libc.Fgets(stream, line)) {
    std::string t(Trim(line));
    size_t colon = t.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    docs_[t.substr(0, colon)] = t.substr(colon + 1);
  }
  if (libc.Ferror(stream) != 0) {
    AFEX_COV(*env_, kV08Recovery + 5);
    libc.Fclose(stream);
    return -1;
  }
  libc.Fclose(stream);
  AFEX_COV(*env_, kV08Base + 6);
  return 0;
}

// ---- V20 ----

int DocStoreV20::Open() {
  StackFrame frame(*env_, "v20_open");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kV20Base + 0);
  journal_fd_ = libc.Open(kJournalPath, kWrOnly | kCreate | kAppend);
  if (journal_fd_ < 0) {
    AFEX_COV(*env_, kV20Recovery + 0);
    return -1;
  }
  return 0;
}

int DocStoreV20::EncodeDoc(std::string_view id, std::string_view doc, std::string& encoded) {
  StackFrame frame(*env_, "v20_encode_bson");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kV20Base + 1);
  // Length-prefixed encode into a growable buffer, checked at every step.
  uint64_t buffer = libc.Calloc(1, 16);
  if (buffer == 0) {
    AFEX_COV(*env_, kV20Recovery + 1);
    return -1;
  }
  uint64_t grown = libc.Realloc(buffer, id.size() + doc.size() + 16);
  if (grown == 0) {
    AFEX_COV(*env_, kV20Recovery + 2);
    libc.Free(buffer);
    return -1;
  }
  // Appends to `encoded`, so callers can prefix the journal op in place.
  encoded += std::to_string(id.size());
  encoded += '|';
  encoded += id;
  encoded += '|';
  encoded += std::to_string(doc.size());
  encoded += '|';
  encoded += doc;
  libc.Free(grown);
  return 0;
}

int DocStoreV20::Put(std::string_view id, std::string_view doc) {
  StackFrame frame(*env_, "v20_put");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kV20Base + 2);
  if (journal_fd_ < 0) {
    AFEX_COV(*env_, kV20Recovery + 3);
    return -1;
  }
  std::string encoded = "put ";
  if (EncodeDoc(id, doc, encoded) != 0) {
    return -1;
  }
  encoded += '\n';
  if (libc.Write(journal_fd_, encoded) < 0) {
    AFEX_COV(*env_, kV20Recovery + 4);
    return -1;  // durability first: no un-journaled writes
  }
  docs_[std::string(id)] = doc;
  AFEX_COV(*env_, kV20Base + 3);
  return 0;
}

int DocStoreV20::Get(std::string_view id, std::string& doc) {
  StackFrame frame(*env_, "v20_get");
  AFEX_COV(*env_, kV20Base + 4);
  auto it = docs_.find(id);
  if (it == docs_.end()) {
    return 1;
  }
  doc = it->second;
  return 0;
}

int DocStoreV20::Remove(std::string_view id) {
  StackFrame frame(*env_, "v20_remove");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kV20Base + 5);
  if (journal_fd_ >= 0) {
    std::string record = "del ";
    record += id;
    record += '\n';
    if (libc.Write(journal_fd_, record) < 0) {
      AFEX_COV(*env_, kV20Recovery + 5);
      return -1;
    }
  }
  auto it = docs_.find(id);
  if (it == docs_.end()) {
    return 1;
  }
  docs_.erase(it);
  return 0;
}

int DocStoreV20::Save() {
  StackFrame frame(*env_, "v20_save");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kV20Base + 6);
  // Atomic snapshot: temp file + rename.
  std::string temp = std::string(kSnapPath) + ".tmp";
  int fd = libc.Open(temp, kWrOnly | kCreate | kTrunc);
  if (fd < 0) {
    AFEX_COV(*env_, kV20Recovery + 6);
    return -1;
  }
  std::string encoded;
  for (const auto& [id, doc] : docs_) {
    encoded.clear();
    if (EncodeDoc(id, doc, encoded) != 0 || (encoded += '\n', libc.Write(fd, encoded) < 0)) {
      AFEX_COV(*env_, kV20Recovery + 7);
      libc.Close(fd);
      libc.Unlink(temp);
      return -1;
    }
  }
  if (libc.Close(fd) != 0) {
    AFEX_COV(*env_, kV20Recovery + 7);
    libc.Unlink(temp);
    return -1;
  }
  if (libc.Rename(temp, kSnapPath) != 0) {
    AFEX_COV(*env_, kV20Recovery + 6);
    libc.Unlink(temp);
    return -1;
  }
  AFEX_COV(*env_, kV20Base + 7);
  return 0;
}

int DocStoreV20::Load() {
  StackFrame frame(*env_, "v20_load");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kV20Base + 8);
  int fd = libc.Open(kSnapPath, kRdOnly);
  if (fd < 0) {
    AFEX_COV(*env_, kV20Recovery + 8);
    return -1;
  }
  std::string data;
  while (true) {
    // Read appends straight into the accumulating buffer: no chunk string.
    long n = libc.Read(fd, data, 128);
    if (n < 0) {
      if (env_->sim_errno() == sim_errno::kEINTR) {
        continue;
      }
      AFEX_COV(*env_, kV20Recovery + 9);
      libc.Close(fd);
      return -1;
    }
    if (n == 0) {
      break;
    }
  }
  libc.Close(fd);
  docs_.clear();
  for (std::string_view line : SplitViews(data, '\n')) {
    // encoded form: idlen|id|doclen|doc
    std::vector<std::string_view> parts = SplitViews(line, '|');
    if (parts.size() == 4) {
      docs_[std::string(parts[1])] = parts[3];
    }
  }
  AFEX_COV(*env_, kV20Base + 9);
  return 0;
}

int DocStoreV20::Compact() {
  StackFrame frame(*env_, "v20_compact");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kV20Base + 10);
  if (Save() != 0) {
    AFEX_COV(*env_, kV20Recovery + 10);
    return -1;
  }
  // Retire the old journal and start fresh.
  if (journal_fd_ >= 0) {
    libc.Close(journal_fd_);
    journal_fd_ = -1;
  }
  if (libc.Unlink(kJournalPath) != 0) {
    AFEX_COV(*env_, kV20Recovery + 11);
    return -1;
  }
  journal_fd_ = libc.Open(kJournalPath, kWrOnly | kCreate | kAppend);
  if (journal_fd_ < 0) {
    return -1;
  }
  AFEX_COV(*env_, kV20Base + 11);
  return 0;
}

int DocStoreV20::Stats(size_t& documents, size_t& snapshot_bytes) {
  StackFrame frame(*env_, "v20_stats");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kV20Base + 12);
  documents = docs_.size();
  StatBuf st;
  if (libc.Stat(kSnapPath, st) != 0) {
    AFEX_COV(*env_, kV20Recovery + 11);
    return -1;
  }
  snapshot_bytes = st.size;
  return 0;
}

int DocStoreV20::ReplayJournal() {
  StackFrame frame(*env_, "v20_replay_journal");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kV20Base + 13);
  uint64_t stream = libc.Fopen(kJournalPath, "r");
  if (stream == 0) {
    AFEX_COV(*env_, kV20Recovery + 9);
    return -1;
  }
  // The replay index was added late in the 2.0 cycle and its allocations
  // are never checked — the v2.0 crash AFEX found in §7.6. One index node
  // is allocated per replayed record, so the bug is reachable at several
  // call depths.
  uint64_t index = libc.Malloc(64);
  env_->Deref(index, "journal replay index");

  std::string line;
  while (libc.Fgets(stream, line)) {
    std::string_view t = Trim(line);
    uint64_t node = libc.Malloc(32);
    env_->Deref(node, "journal replay index node");
    libc.Free(node);
    if (StartsWith(t, "put ")) {
      std::vector<std::string_view> parts = SplitViews(t.substr(4), '|');
      if (parts.size() == 4) {
        docs_[std::string(parts[1])] = parts[3];
      }
    } else if (StartsWith(t, "del ")) {
      auto it = docs_.find(t.substr(4));
      if (it != docs_.end()) {
        docs_.erase(it);
      }
    }
    AFEX_COV(*env_, kV20Base + 14);
  }
  bool read_error = libc.Ferror(stream) != 0;
  libc.Fclose(stream);
  libc.Free(index);
  if (read_error) {
    AFEX_COV(*env_, kV20Recovery + 9);
    return -1;
  }
  AFEX_COV(*env_, kV20Base + 15);
  return 0;
}

}  // namespace docstore
}  // namespace afex
