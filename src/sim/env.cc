#include "sim/env.h"

#include <algorithm>
#include <utility>

#include "sim/simlibc.h"
#include "util/strings.h"

namespace afex {

SimEnv::SimEnv(uint64_t seed, size_t step_budget)
    : rng_(seed), step_budget_(step_budget), libc_(new SimLibc(*this)) {}

SimEnv::~SimEnv() { delete libc_; }

void SimEnv::ResetForRun(uint64_t seed, size_t step_budget) {
  bus_.Reset();
  coverage_.Clear();
  rng_ = Rng(seed);
  errno_ = 0;
  stack_.clear();
  injection_stack_.clear();
  steps_ = 0;
  step_budget_ = step_budget;
  // Interner and node slots survive (ids stay dense and warm); bumping the
  // epoch invalidates every filesystem/fd/mutex entry in O(1).
  if (++epoch_ == 0) {
    // Epoch wrap (needs 2^32 runs through one arena): hard-reset the tags.
    std::fill(fs_epoch_.begin(), fs_epoch_.end(), 0);
    for (FdEntry& entry : fds_) {
      entry.epoch = 0;
    }
    std::fill(mutex_epoch_.begin(), mutex_epoch_.end(), 0);
    epoch_ = 1;
  }
  fs_sorted_.clear();
  heap_slots_.clear();
  payload_free_.clear();
  for (size_t i = 0; i < payload_pool_.size(); ++i) {
    payload_pool_[i].clear();
    payload_free_.push_back(static_cast<int32_t>(i));
  }
  live_allocs_ = 0;
  next_fd_ = kFirstFd;
  next_handle_ = kHandleBase;
  cwd_ = "/";
}

void SimEnv::RecordInjection(const char* function) {
  if (injection_stack_.empty()) {
    injection_stack_.reserve(stack_.size() + 2);
    for (const char* frame : stack_) {
      injection_stack_.emplace_back(frame);
    }
    if (injection_stack_.empty()) {
      // A trigger outside any annotated frame still counts as triggered.
      injection_stack_.emplace_back("<top>");
    }
    injection_stack_.emplace_back(function);
  }
}

void SimEnv::ThrowHang() {
  throw SimHang("step budget " + std::to_string(step_budget_) + " exceeded");
}

// ---- filesystem ----

void SimEnv::EnsureFsSlot(uint32_t id) {
  if (id >= fs_nodes_.size()) {
    fs_nodes_.resize(id + 1);
    fs_epoch_.resize(id + 1, 0);
  }
}

void SimEnv::AddFile(std::string_view path, std::string_view content) {
  AddFileById(names_.Intern(path), content);
}

void SimEnv::AddFileById(uint32_t path_id, std::string_view content) {
  EnsureFsSlot(path_id);
  if (fs_epoch_[path_id] != epoch_) {
    fs_epoch_[path_id] = epoch_;
    const std::string& path = names_.Spelling(path_id);
    auto at = std::lower_bound(fs_sorted_.begin(), fs_sorted_.end(), std::string_view(path),
                               [this](uint32_t lhs, std::string_view rhs) {
                                 return names_.Spelling(lhs) < rhs;
                               });
    fs_sorted_.insert(at, path_id);
  }
  // Assign into the slot's warm buffer: recreating a known path (arena
  // envs, truncating re-opens, snapshot rewrites) allocates nothing.
  FileNode& node = fs_nodes_[path_id];
  node.content.assign(content);
  node.is_dir = false;
  node.readable = true;
  node.writable = true;
}

void SimEnv::AddDir(std::string_view path) {
  uint32_t id = names_.Intern(path);
  AddFileById(id, "");
  fs_nodes_[id].is_dir = true;
}

bool SimEnv::Exists(std::string_view path) const { return Find(path) != nullptr; }

bool SimEnv::IsDir(std::string_view path) const {
  const FileNode* node = Find(path);
  return node != nullptr && node->is_dir;
}

const SimEnv::FileNode* SimEnv::Find(std::string_view path) const {
  uint32_t id = names_.Lookup(path);
  return id < fs_epoch_.size() && fs_epoch_[id] == epoch_ ? &fs_nodes_[id] : nullptr;
}

SimEnv::FileNode* SimEnv::FindMutable(std::string_view path) {
  return const_cast<FileNode*>(std::as_const(*this).Find(path));
}

bool SimEnv::Remove(std::string_view path) {
  return RemoveById(names_.Lookup(path));
}

bool SimEnv::RemoveById(uint32_t path_id) {
  if (path_id >= fs_epoch_.size() || fs_epoch_[path_id] != epoch_) {
    return false;
  }
  fs_epoch_[path_id] = 0;
  // Live tables are tiny, so an integer scan beats a string-comparing
  // binary search for the index entry.
  fs_sorted_.erase(std::find(fs_sorted_.begin(), fs_sorted_.end(), path_id));
  fs_nodes_[path_id].content.clear();  // keep the buffer warm for re-creation
  return true;
}

std::vector<std::string> SimEnv::ListDir(std::string_view dir) const {
  std::string prefix(dir);
  if (!prefix.empty() && prefix.back() != '/') {
    prefix += '/';
  }
  std::vector<std::string> entries;
  // Sorted index: paths sharing the prefix form one contiguous run, so the
  // scan starts at the run and stops at its end instead of walking the
  // whole table. Entries come out in lexicographic order.
  auto begin = std::lower_bound(fs_sorted_.begin(), fs_sorted_.end(), std::string_view(prefix),
                                [this](uint32_t lhs, std::string_view rhs) {
                                  return names_.Spelling(lhs) < rhs;
                                });
  for (auto it = begin; it != fs_sorted_.end(); ++it) {
    const std::string& path = names_.Spelling(*it);
    if (!StartsWith(path, prefix)) {
      break;
    }
    // Direct children only: a non-empty remainder with no further '/'.
    std::string_view rest = std::string_view(path).substr(prefix.size());
    if (!rest.empty() && rest.find('/') == std::string_view::npos) {
      entries.emplace_back(rest);
    }
  }
  return entries;
}

// ---- heap handles ----

uint64_t SimEnv::AllocHandle(size_t bytes) {
  uint64_t h = next_handle_++;
  heap_slots_.push_back(HeapSlot{bytes, -1, true});
  ++live_allocs_;
  return h;
}

void SimEnv::FreeHandle(uint64_t handle) {
  if (handle < kHandleBase || handle - kHandleBase >= heap_slots_.size()) {
    return;
  }
  HeapSlot& slot = heap_slots_[handle - kHandleBase];
  if (!slot.live) {
    return;
  }
  slot.live = false;
  --live_allocs_;
  if (slot.payload >= 0) {
    payload_pool_[slot.payload].clear();  // keep capacity for the free-list
    payload_free_.push_back(slot.payload);
    slot.payload = -1;
  }
}

bool SimEnv::HandleValid(uint64_t handle) const {
  return handle >= kHandleBase && handle - kHandleBase < heap_slots_.size() &&
         heap_slots_[handle - kHandleBase].live;
}

uint64_t SimEnv::Deref(uint64_t handle, const char* what) {
  if (handle == 0) {
    throw SimCrash(std::string("null pointer dereference in ") + what);
  }
  if (!HandleValid(handle)) {
    throw SimCrash(std::string("invalid pointer dereference in ") + what);
  }
  return handle;
}

std::string& SimEnv::PayloadSlot(HeapSlot& slot) {
  if (slot.payload < 0) {
    if (!payload_free_.empty()) {
      slot.payload = payload_free_.back();
      payload_free_.pop_back();
    } else {
      slot.payload = static_cast<int32_t>(payload_pool_.size());
      payload_pool_.emplace_back();
    }
  }
  return payload_pool_[slot.payload];
}

void SimEnv::SetHandlePayload(uint64_t handle, std::string_view payload) {
  if (HandleValid(handle)) {
    PayloadSlot(heap_slots_[handle - kHandleBase]).assign(payload);
  }
}

const std::string& SimEnv::HandlePayload(uint64_t handle) {
  Deref(handle, "payload access");
  return PayloadSlot(heap_slots_[handle - kHandleBase]);
}

size_t SimEnv::live_allocations() const {
  return live_allocs_;
}

// ---- mutexes ----

void SimEnv::MutexLock(std::string_view name) {
  uint32_t id = names_.Intern(name);
  if (id >= mutex_epoch_.size()) {
    mutex_epoch_.resize(id + 1, 0);
  }
  if (mutex_epoch_[id] == epoch_) {
    // Self-deadlock on a non-recursive mutex: the thread blocks forever,
    // which the watchdog reports as a hang.
    throw SimHang("deadlock: mutex '" + std::string(name) + "' locked twice");
  }
  mutex_epoch_[id] = epoch_;
}

void SimEnv::MutexUnlock(std::string_view name) {
  uint32_t id = names_.Lookup(name);
  if (id >= mutex_epoch_.size() || mutex_epoch_[id] != epoch_) {
    throw SimAbort("pthread_mutex_unlock of unlocked mutex '" + std::string(name) + "'");
  }
  mutex_epoch_[id] = 0;
}

bool SimEnv::MutexLocked(std::string_view name) const {
  uint32_t id = names_.Lookup(name);
  return id < mutex_epoch_.size() && mutex_epoch_[id] == epoch_;
}

// ---- fd table / sockets ----

SimEnv::OpenFile& SimEnv::CreateOpenFile(int fd) {
  size_t idx = static_cast<size_t>(fd - kFirstFd);
  if (idx >= fds_.size()) {
    if (fds_.capacity() < idx + 1) {
      fds_.reserve(std::max<size_t>(32, fds_.capacity() * 2));
    }
    fds_.resize(idx + 1);
  }
  FdEntry& entry = fds_[idx];
  entry.kind = kFdFile;
  entry.epoch = epoch_;
  OpenFile& of = entry.file;
  of.path_id = kNoPath;
  of.offset = 0;
  of.append = false;
  of.for_write = false;
  of.error_flag = false;
  of.dir_entries.clear();  // keeps capacity; stale entries must not leak
  of.dir_index = 0;
  return of;
}

bool SimEnv::HasOpenFile(int fd) const {
  const FdEntry* entry = FdAt(fd);
  return entry != nullptr && entry->kind == kFdFile && entry->epoch == epoch_;
}

bool SimEnv::RemoveOpenFile(int fd) {
  FdEntry* entry = FdAt(fd);
  if (entry == nullptr || entry->kind != kFdFile || entry->epoch != epoch_) {
    return false;
  }
  entry->kind = kFdEmpty;  // contents stay as warm buffers for reuse
  return true;
}

SimEnv::Socket& SimEnv::AddSocket(int fd) {
  size_t idx = static_cast<size_t>(fd - kFirstFd);
  if (idx >= fds_.size()) {
    if (fds_.capacity() < idx + 1) {
      fds_.reserve(std::max<size_t>(32, fds_.capacity() * 2));
    }
    fds_.resize(idx + 1);
  }
  FdEntry& entry = fds_[idx];
  entry.kind = kFdSocket;
  entry.epoch = epoch_;
  Socket& socket = entry.socket;
  socket.bound = false;
  socket.listening = false;
  socket.connected = false;
  socket.peer.clear();  // keeps capacity
  socket.inbox.clear();
  return socket;
}

bool SimEnv::RemoveSocket(int fd) {
  FdEntry* entry = FdAt(fd);
  if (entry == nullptr || entry->kind != kFdSocket || entry->epoch != epoch_) {
    return false;
  }
  entry->kind = kFdEmpty;
  return true;
}

}  // namespace afex
