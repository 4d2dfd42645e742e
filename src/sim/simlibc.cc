#include "sim/simlibc.h"

#include <algorithm>

#include "injection/libc_profile.h"
#include "sim/env.h"

namespace afex {

using sim_errno::kEBADF;
using sim_errno::kECONNRESET;
using sim_errno::kEIO;
using sim_errno::kENOENT;
using sim_errno::kENOMEM;

const FaultSpec* SimLibc::CheckFault(const char* function) {
  env_->Tick();
  const FaultSpec* spec = env_->bus().OnCallLiteral(function);
  if (spec != nullptr) {
    env_->RecordInjection(function);
    env_->set_sim_errno(spec->errno_value);
  }
  return spec;
}

// ---- memory ----

uint64_t SimLibc::Malloc(size_t bytes) {
  if (CheckFault("malloc")) {
    return 0;
  }
  return env_->AllocHandle(bytes);
}

uint64_t SimLibc::Calloc(size_t n, size_t bytes) {
  if (CheckFault("calloc")) {
    return 0;
  }
  return env_->AllocHandle(n * bytes);
}

uint64_t SimLibc::Realloc(uint64_t handle, size_t bytes) {
  if (CheckFault("realloc")) {
    return 0;  // original allocation stays valid, as in C
  }
  if (handle != 0) {
    env_->FreeHandle(handle);
  }
  return env_->AllocHandle(bytes);
}

void SimLibc::Free(uint64_t handle) {
  if (handle != 0) {
    env_->FreeHandle(handle);
  }
}

uint64_t SimLibc::Strdup(std::string_view s) {
  if (CheckFault("strdup")) {
    return 0;
  }
  // Real strdup allocates through malloc; an armed malloc fault can
  // therefore fail a strdup whose own axis value was never injected.
  uint64_t h = Malloc(s.size() + 1);
  if (h == 0) {
    return 0;  // errno already ENOMEM from the failed malloc
  }
  env_->SetHandlePayload(h, s);
  return h;
}

// ---- stream I/O ----

uint64_t SimLibc::Fopen(std::string_view path, std::string_view mode) {
  if (CheckFault("fopen")) {
    return 0;
  }
  bool for_write =
      mode.find('w') != std::string_view::npos || mode.find('a') != std::string_view::npos;
  // Resolve the path to its interned id once; every further touch of this
  // call (and of later I/O on the stream) goes through the id.
  uint32_t path_id = env_->InternPath(path);
  const SimEnv::FileNode* node = env_->FindById(path_id);
  if (!for_write) {
    if (node == nullptr || node->is_dir) {
      env_->set_sim_errno(kENOENT);
      return 0;
    }
  } else if (node == nullptr || mode.find('w') != std::string_view::npos) {
    env_->AddFileById(path_id, "");
  }
  int fd = env_->NextFd();
  SimEnv::OpenFile& of = env_->CreateOpenFile(fd);
  of.path_id = path_id;
  of.for_write = for_write;
  of.append = mode.find('a') != std::string_view::npos;
  if (of.append) {
    of.offset = env_->FindById(path_id)->content.size();
  }
  return static_cast<uint64_t>(fd);
}

int SimLibc::Fclose(uint64_t stream) {
  if (const FaultSpec* spec = CheckFault("fclose")) {
    // Even a failed fclose invalidates the stream, per POSIX.
    env_->RemoveOpenFile(static_cast<int>(stream));
    return static_cast<int>(spec->retval);
  }
  if (!env_->RemoveOpenFile(static_cast<int>(stream))) {
    env_->set_sim_errno(kEBADF);
    return -1;
  }
  return 0;
}

size_t SimLibc::Fread(uint64_t stream, std::string& out, size_t n) {
  if (CheckFault("fread")) {
    if (SimEnv::OpenFile* of = env_->FindOpenFile(static_cast<int>(stream))) {
      of->error_flag = true;
    }
    return 0;
  }
  SimEnv::OpenFile* of = env_->FindOpenFile(static_cast<int>(stream));
  if (of == nullptr) {
    env_->set_sim_errno(kEBADF);
    return 0;
  }
  const SimEnv::FileNode* node = env_->FindById(of->path_id);
  if (node == nullptr) {
    of->error_flag = true;
    return 0;
  }
  size_t off = of->offset;
  if (off >= node->content.size()) {
    return 0;  // EOF
  }
  size_t take = std::min(n, node->content.size() - off);
  out.append(node->content, off, take);
  of->offset += take;
  return take;
}

size_t SimLibc::Fwrite(uint64_t stream, std::string_view data) {
  if (CheckFault("fwrite")) {
    if (SimEnv::OpenFile* of = env_->FindOpenFile(static_cast<int>(stream))) {
      of->error_flag = true;
    }
    return 0;
  }
  SimEnv::OpenFile* of = env_->FindOpenFile(static_cast<int>(stream));
  if (of == nullptr) {
    env_->set_sim_errno(kEBADF);
    return 0;
  }
  SimEnv::FileNode* node = env_->FindMutableById(of->path_id);
  if (node == nullptr) {
    of->error_flag = true;
    return 0;
  }
  size_t off = of->offset;
  if (node->content.size() < off) {
    node->content.resize(off, '\0');
  }
  node->content.replace(off, data.size(), data);
  of->offset += data.size();
  return data.size();
}

bool SimLibc::Fgets(uint64_t stream, std::string& line) {
  line.clear();
  if (CheckFault("fgets")) {
    if (SimEnv::OpenFile* of = env_->FindOpenFile(static_cast<int>(stream))) {
      of->error_flag = true;
    }
    return false;
  }
  SimEnv::OpenFile* of = env_->FindOpenFile(static_cast<int>(stream));
  if (of == nullptr) {
    env_->set_sim_errno(kEBADF);
    return false;
  }
  const SimEnv::FileNode* node = env_->FindById(of->path_id);
  if (node == nullptr || of->offset >= node->content.size()) {
    return false;  // EOF
  }
  size_t off = of->offset;
  size_t nl = node->content.find('\n', off);
  size_t end = nl == std::string::npos ? node->content.size() : nl + 1;
  line.append(node->content, off, end - off);
  of->offset = end;
  return true;
}

int SimLibc::Fflush(uint64_t stream) {
  if (const FaultSpec* spec = CheckFault("fflush")) {
    return static_cast<int>(spec->retval);
  }
  if (!env_->HasOpenFile(static_cast<int>(stream))) {
    env_->set_sim_errno(kEBADF);
    return -1;
  }
  return 0;
}

int SimLibc::Ferror(uint64_t stream) {
  // ferror itself is injectable in LFI's profile of libc; a fault makes it
  // report a phantom error.
  if (const FaultSpec* spec = CheckFault("ferror")) {
    return static_cast<int>(spec->retval);
  }
  const SimEnv::OpenFile* of = env_->FindOpenFile(static_cast<int>(stream));
  return of != nullptr && of->error_flag ? 1 : 0;
}

void SimLibc::Clearerr(uint64_t stream) {
  if (SimEnv::OpenFile* of = env_->FindOpenFile(static_cast<int>(stream))) {
    of->error_flag = false;
  }
}

int SimLibc::Fputc(uint64_t stream, char c) {
  if (const FaultSpec* spec = CheckFault("fputc")) {
    return static_cast<int>(spec->retval);
  }
  size_t written = Fwrite(stream, std::string_view(&c, 1));
  return written == 1 ? static_cast<unsigned char>(c) : -1;
}

// ---- fd I/O ----

int SimLibc::Open(std::string_view path, int flags) {
  if (const FaultSpec* spec = CheckFault("open")) {
    return static_cast<int>(spec->retval);
  }
  uint32_t path_id = env_->InternPath(path);
  const SimEnv::FileNode* node = env_->FindById(path_id);
  if (node == nullptr) {
    if ((flags & kCreate) == 0) {
      env_->set_sim_errno(kENOENT);
      return -1;
    }
    env_->AddFileById(path_id, "");
  } else if ((flags & kTrunc) != 0) {
    env_->FindMutableById(path_id)->content.clear();
  }
  int fd = env_->NextFd();
  SimEnv::OpenFile& of = env_->CreateOpenFile(fd);
  of.path_id = path_id;
  of.for_write = (flags & (kWrOnly | kCreate | kAppend | kTrunc)) != 0;
  of.append = (flags & kAppend) != 0;
  if (of.append) {
    of.offset = env_->FindById(path_id)->content.size();
  }
  return fd;
}

long SimLibc::Read(int fd, std::string& out, size_t n) {
  if (const FaultSpec* spec = CheckFault("read")) {
    return spec->retval;
  }
  SimEnv::OpenFile* of = env_->FindOpenFile(fd);
  if (of == nullptr) {
    env_->set_sim_errno(kEBADF);
    return -1;
  }
  const SimEnv::FileNode* node = env_->FindById(of->path_id);
  if (node == nullptr) {
    env_->set_sim_errno(kEIO);
    return -1;
  }
  size_t off = of->offset;
  if (off >= node->content.size()) {
    return 0;
  }
  size_t take = std::min(n, node->content.size() - off);
  out.append(node->content, off, take);
  of->offset += take;
  return static_cast<long>(take);
}

long SimLibc::Write(int fd, std::string_view data) {
  if (const FaultSpec* spec = CheckFault("write")) {
    return spec->retval;
  }
  SimEnv::OpenFile* of = env_->FindOpenFile(fd);
  if (of == nullptr) {
    env_->set_sim_errno(kEBADF);
    return -1;
  }
  SimEnv::FileNode* node = env_->FindMutableById(of->path_id);
  if (node == nullptr) {
    env_->set_sim_errno(kEIO);
    return -1;
  }
  size_t off = of->offset;
  if (node->content.size() < off) {
    node->content.resize(off, '\0');
  }
  node->content.replace(off, data.size(), data);
  of->offset += data.size();
  return static_cast<long>(data.size());
}

int SimLibc::Close(int fd) {
  if (const FaultSpec* spec = CheckFault("close")) {
    env_->RemoveOpenFile(fd);  // descriptor state is undefined; drop it
    return static_cast<int>(spec->retval);
  }
  if (!env_->RemoveOpenFile(fd) && !env_->RemoveSocket(fd)) {
    env_->set_sim_errno(kEBADF);
    return -1;
  }
  return 0;
}

long SimLibc::Lseek(int fd, long offset, int whence) {
  if (const FaultSpec* spec = CheckFault("lseek")) {
    return spec->retval;
  }
  SimEnv::OpenFile* of = env_->FindOpenFile(fd);
  if (of == nullptr) {
    env_->set_sim_errno(kEBADF);
    return -1;
  }
  const SimEnv::FileNode* node = env_->FindById(of->path_id);
  long size = node == nullptr ? 0 : static_cast<long>(node->content.size());
  long base = whence == 0 ? 0 : (whence == 1 ? static_cast<long>(of->offset) : size);
  long target = base + offset;
  if (target < 0) {
    env_->set_sim_errno(kEBADF);
    return -1;
  }
  of->offset = static_cast<size_t>(target);
  return target;
}

int SimLibc::Stat(std::string_view path, StatBuf& out) {
  if (const FaultSpec* spec = CheckFault("stat")) {
    return static_cast<int>(spec->retval);
  }
  const SimEnv::FileNode* node = env_->Find(path);
  if (node == nullptr) {
    env_->set_sim_errno(kENOENT);
    return -1;
  }
  out.size = node->content.size();
  out.is_dir = node->is_dir;
  return 0;
}

int SimLibc::Rename(std::string_view from, std::string_view to) {
  if (const FaultSpec* spec = CheckFault("rename")) {
    return static_cast<int>(spec->retval);
  }
  uint32_t from_id = env_->InternPath(from);
  SimEnv::FileNode* node = env_->FindMutableById(from_id);
  if (node == nullptr) {
    env_->set_sim_errno(kENOENT);
    return -1;
  }
  SimEnv::FileNode copy = std::move(*node);
  env_->RemoveById(from_id);
  if (copy.is_dir) {
    env_->AddDir(to);
  } else {
    env_->AddFile(to, std::move(copy.content));
  }
  return 0;
}

int SimLibc::Unlink(std::string_view path) {
  if (const FaultSpec* spec = CheckFault("unlink")) {
    return static_cast<int>(spec->retval);
  }
  if (!env_->Remove(path)) {
    env_->set_sim_errno(kENOENT);
    return -1;
  }
  return 0;
}

// ---- directories ----

uint64_t SimLibc::Opendir(std::string_view path) {
  if (CheckFault("opendir")) {
    return 0;
  }
  if (!env_->IsDir(path)) {
    env_->set_sim_errno(kENOENT);
    return 0;
  }
  int fd = env_->NextFd();
  SimEnv::OpenFile& of = env_->CreateOpenFile(fd);
  of.path_id = env_->InternPath(path);
  of.dir_entries = env_->ListDir(path);
  return static_cast<uint64_t>(fd);
}

bool SimLibc::Readdir(uint64_t dir, std::string& name) {
  name.clear();
  if (CheckFault("readdir")) {
    return false;
  }
  SimEnv::OpenFile* of = env_->FindOpenFile(static_cast<int>(dir));
  if (of == nullptr) {
    env_->set_sim_errno(kEBADF);
    return false;
  }
  if (of->dir_index >= of->dir_entries.size()) {
    env_->set_sim_errno(0);  // end of directory is not an error
    return false;
  }
  name = of->dir_entries[of->dir_index++];
  return true;
}

int SimLibc::Closedir(uint64_t dir) {
  if (const FaultSpec* spec = CheckFault("closedir")) {
    env_->RemoveOpenFile(static_cast<int>(dir));
    return static_cast<int>(spec->retval);
  }
  if (!env_->RemoveOpenFile(static_cast<int>(dir))) {
    env_->set_sim_errno(kEBADF);
    return -1;
  }
  return 0;
}

int SimLibc::Chdir(std::string_view path) {
  if (const FaultSpec* spec = CheckFault("chdir")) {
    return static_cast<int>(spec->retval);
  }
  if (!env_->IsDir(path)) {
    env_->set_sim_errno(kENOENT);
    return -1;
  }
  env_->set_cwd(std::string(path));
  return 0;
}

uint64_t SimLibc::Getcwd() {
  if (CheckFault("getcwd")) {
    return 0;
  }
  uint64_t h = env_->AllocHandle(env_->cwd().size() + 1);
  env_->SetHandlePayload(h, env_->cwd());
  return h;
}

int SimLibc::Mkdir(std::string_view path) {
  if (const FaultSpec* spec = CheckFault("mkdir")) {
    return static_cast<int>(spec->retval);
  }
  if (env_->Exists(path)) {
    env_->set_sim_errno(sim_errno::kEEXIST);
    return -1;
  }
  env_->AddDir(path);
  return 0;
}

// ---- networking ----

int SimLibc::Socket() {
  if (const FaultSpec* spec = CheckFault("socket")) {
    return static_cast<int>(spec->retval);
  }
  int fd = env_->NextFd();
  env_->AddSocket(fd);
  return fd;
}

int SimLibc::Bind(int fd, std::string_view address) {
  if (const FaultSpec* spec = CheckFault("bind")) {
    return static_cast<int>(spec->retval);
  }
  SimEnv::Socket* socket = env_->FindSocket(fd);
  if (socket == nullptr) {
    env_->set_sim_errno(kEBADF);
    return -1;
  }
  socket->bound = true;
  socket->peer.assign(address);
  return 0;
}

int SimLibc::Listen(int fd) {
  if (const FaultSpec* spec = CheckFault("listen")) {
    return static_cast<int>(spec->retval);
  }
  SimEnv::Socket* socket = env_->FindSocket(fd);
  if (socket == nullptr || !socket->bound) {
    env_->set_sim_errno(kEBADF);
    return -1;
  }
  socket->listening = true;
  return 0;
}

int SimLibc::Accept(int fd) {
  if (const FaultSpec* spec = CheckFault("accept")) {
    return static_cast<int>(spec->retval);
  }
  SimEnv::Socket* listener = env_->FindSocket(fd);
  if (listener == nullptr || !listener->listening) {
    env_->set_sim_errno(kEBADF);
    return -1;
  }
  // The simulated peer's request bytes were staged in the listening
  // socket's inbox by the test fixture; hand them to the accepted socket.
  // Move the inbox out before AddSocket: adding may relocate the listener.
  std::string pending = std::move(listener->inbox);
  listener->inbox.clear();
  int conn = env_->NextFd();
  SimEnv::Socket& accepted = env_->AddSocket(conn);
  accepted.connected = true;
  accepted.inbox = std::move(pending);
  return conn;
}

long SimLibc::Send(int fd, std::string_view data) {
  if (const FaultSpec* spec = CheckFault("send")) {
    return spec->retval;
  }
  SimEnv::Socket* socket = env_->FindSocket(fd);
  if (socket == nullptr || !socket->connected) {
    env_->set_sim_errno(kECONNRESET);
    return -1;
  }
  return static_cast<long>(data.size());
}

long SimLibc::Recv(int fd, std::string& out, size_t n) {
  if (const FaultSpec* spec = CheckFault("recv")) {
    return spec->retval;
  }
  SimEnv::Socket* socket = env_->FindSocket(fd);
  if (socket == nullptr || !socket->connected) {
    env_->set_sim_errno(kECONNRESET);
    return -1;
  }
  size_t take = std::min(n, socket->inbox.size());
  out.append(socket->inbox, 0, take);
  socket->inbox.erase(0, take);
  return static_cast<long>(take);
}

int SimLibc::Pipe(int& read_fd, int& write_fd) {
  if (const FaultSpec* spec = CheckFault("pipe")) {
    return static_cast<int>(spec->retval);
  }
  std::string path = "/.pipe/" + std::to_string(env_->NextFd());
  env_->AddFile(path, "");
  uint32_t path_id = env_->InternPath(path);
  read_fd = env_->NextFd();
  write_fd = env_->NextFd();
  env_->CreateOpenFile(read_fd).path_id = path_id;
  SimEnv::OpenFile& w = env_->CreateOpenFile(write_fd);
  w.path_id = path_id;
  w.for_write = true;
  return 0;
}

// ---- misc ----

int SimLibc::ClockGettime(long& out) {
  if (const FaultSpec* spec = CheckFault("clock_gettime")) {
    return static_cast<int>(spec->retval);
  }
  out = static_cast<long>(env_->steps_used());
  return 0;
}

uint64_t SimLibc::Setlocale(std::string_view locale) {
  if (CheckFault("setlocale")) {
    return 0;
  }
  uint64_t h = env_->AllocHandle(locale.size() + 1);
  env_->SetHandlePayload(h, locale);
  return h;
}

int SimLibc::Getrlimit(long& soft_limit) {
  if (const FaultSpec* spec = CheckFault("getrlimit")) {
    return static_cast<int>(spec->retval);
  }
  soft_limit = 1024;
  return 0;
}

int SimLibc::Setrlimit(long /*soft_limit*/) {
  if (const FaultSpec* spec = CheckFault("setrlimit")) {
    return static_cast<int>(spec->retval);
  }
  return 0;
}

long SimLibc::Strtol(std::string_view s, bool& ok) {
  if (CheckFault("strtol")) {
    ok = false;
    return 0;
  }
  ok = false;
  if (s.empty()) {
    return 0;
  }
  size_t i = 0;
  bool negative = false;
  if (s[0] == '-' || s[0] == '+') {
    negative = s[0] == '-';
    i = 1;
  }
  long value = 0;
  bool any = false;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') {
      break;
    }
    value = value * 10 + (s[i] - '0');
    any = true;
  }
  ok = any;
  return negative ? -value : value;
}

int SimLibc::Wait(int& status) {
  if (const FaultSpec* spec = CheckFault("wait")) {
    return static_cast<int>(spec->retval);
  }
  status = 0;
  return 1;  // simulated child pid
}

int SimLibc::MutexLock(std::string_view name) {
  if (const FaultSpec* spec = CheckFault("pthread_mutex_lock")) {
    return static_cast<int>(spec->retval);
  }
  env_->MutexLock(name);
  return 0;
}

int SimLibc::MutexUnlock(std::string_view name) {
  if (const FaultSpec* spec = CheckFault("pthread_mutex_unlock")) {
    return static_cast<int>(spec->retval);
  }
  env_->MutexUnlock(name);
  return 0;
}

}  // namespace afex
