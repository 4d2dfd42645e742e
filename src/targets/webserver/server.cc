#include "targets/webserver/webserver.h"

#include "injection/libc_table.h"
#include "sim/env.h"
#include "sim/simlibc.h"
#include "util/strings.h"

namespace afex {
namespace webserver {

namespace {
const char* kModuleCatalog[] = {"mod_core", "mod_mime", "mod_log", "mod_cgi"};
}

void InstallFixture(SimEnv& env, size_t modules, size_t comment_lines) {
  // Reused build buffer: fixture installation runs before every test, so
  // the config assembly should not allocate once warm.
  thread_local std::string config;
  config.clear();
  for (size_t i = 0; i < comment_lines; ++i) {
    config += "# scenario note " + std::to_string(i) + "\n";
  }
  config += "Listen 80\nDocumentRoot /www\nLogFile /logs/access.log\n";
  for (size_t i = 0; i < modules && i < 4; ++i) {
    config += std::string("Module ") + kModuleCatalog[i] + "\n";
  }
  env.AddFile("/etc/httpd.conf", config);
  env.AddDir("/www");
  env.AddFile("/www/index.html", "<html>welcome</html>");
  env.AddFile("/www/page.html", "<html>page</html>");
  env.AddFile("/www/data.txt", "plain data 12345");
  env.AddDir("/www/uploads");
  env.AddFile("/www/cgi-script", "echo:hello-from-cgi");
  env.AddDir("/logs");
  env.AddFile("/logs/access.log", "");
}

int WebServer::RegisterModule(std::string_view name) {
  StackFrame frame(*env_, "ap_add_module");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kModuleBase + 0);

  // ---- Fig. 7 bug (config.c:578-579) ----
  // ap_module_short_names[m->module_index] = strdup(sym_name);
  // ap_module_short_names[m->module_index][len] = '\0';
  // No NULL check: when strdup (or malloc inside it) fails, the store
  // through the NULL pointer segfaults before any recovery code runs.
  uint64_t short_name = libc.Strdup(name);
  module_names_.push_back(short_name);
  env_->Deref(short_name, "ap_module_short_names[m->module_index][len]");

  AFEX_COV(*env_, kModuleBase + 1);
  return 0;
}

int WebServer::LoadConfig(std::string_view path) {
  StackFrame frame(*env_, "ap_read_config");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kConfigBase + 0);

  // The config pool allocation *is* checked — most of Apache handles OOM
  // gracefully; only the module path above does not.
  uint64_t pool = libc.Calloc(4, 256);
  if (pool == 0) {
    AFEX_COV(*env_, kConfigRecovery + 0);
    return -1;
  }

  uint64_t stream = libc.Fopen(path, "r");
  if (stream == 0) {
    AFEX_COV(*env_, kConfigRecovery + 1);
    libc.Free(pool);
    return -1;
  }
  std::string line;
  int rc = 0;
  while (libc.Fgets(stream, line)) {
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') {
      continue;
    }
    size_t space = trimmed.find(' ');
    std::string_view key =
        space == std::string_view::npos ? trimmed : trimmed.substr(0, space);
    std::string_view value =
        space == std::string_view::npos ? std::string_view() : Trim(trimmed.substr(space));
    if (key == "DocumentRoot") {
      AFEX_COV(*env_, kConfigBase + 1);
      document_root_ = value;
    } else if (key == "LogFile") {
      AFEX_COV(*env_, kConfigBase + 2);
      log_path_ = value;
    } else if (key == "Listen") {
      AFEX_COV(*env_, kConfigBase + 3);
      bool ok = false;
      long port = libc.Strtol(value, ok);
      if (!ok || port <= 0 || port > 65535) {
        AFEX_COV(*env_, kConfigRecovery + 2);
        rc = -1;
        break;
      }
    } else if (key == "Module") {
      AFEX_COV(*env_, kConfigBase + 4);
      if (RegisterModule(value) != 0) {
        rc = -1;
        break;
      }
    } else {
      AFEX_COV(*env_, kConfigRecovery + 3);  // unknown directive: warn, keep going
    }
  }
  if (libc.Ferror(stream) != 0) {
    AFEX_COV(*env_, kConfigRecovery + 4);
    rc = -1;
  }
  libc.Fclose(stream);
  libc.Free(pool);
  if (rc == 0) {
    AFEX_COV(*env_, kConfigBase + 5);
  }
  return rc;
}

int WebServer::Start() {
  StackFrame frame(*env_, "ap_listen_open");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kCoreBase + 0);
  int fd = libc.Socket();
  if (fd < 0) {
    AFEX_COV(*env_, kCoreRecovery + 0);
    return -1;
  }
  if (libc.Bind(fd, "0.0.0.0:80") != 0) {
    AFEX_COV(*env_, kCoreRecovery + 1);
    libc.Close(fd);
    return -1;
  }
  if (libc.Listen(fd) != 0) {
    AFEX_COV(*env_, kCoreRecovery + 2);
    libc.Close(fd);
    return -1;
  }
  listen_fd_ = fd;
  AFEX_COV(*env_, kCoreBase + 1);
  return 0;
}

int WebServer::Stop() {
  StackFrame frame(*env_, "ap_listen_close");
  AFEX_COV(*env_, kCoreBase + 2);
  if (listen_fd_ >= 0) {
    env_->libc().Close(listen_fd_);
    listen_fd_ = -1;
  }
  return 0;
}

void WebServer::LogAccess(std::string line) {
  StackFrame frame(*env_, "ap_log_access");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kLogBase + 0);
  // Logging failures must never take a request down.
  uint64_t stream = libc.Fopen(log_path_, "a");
  if (stream == 0) {
    AFEX_COV(*env_, kLogRecovery + 0);
    return;
  }
  line += '\n';
  if (libc.Fwrite(stream, line) == 0) {
    AFEX_COV(*env_, kLogRecovery + 1);
  }
  if (libc.Fflush(stream) != 0) {
    AFEX_COV(*env_, kLogRecovery + 2);
  }
  libc.Fclose(stream);
  AFEX_COV(*env_, kLogBase + 1);
}

int WebServer::HandleGet(std::string_view path, std::string& response) {
  StackFrame frame(*env_, "ap_handle_get");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kRequestBase + 0);
  std::string full = document_root_;
  full += path;
  StatBuf st;
  if (libc.Stat(full, st) != 0 || st.is_dir) {
    AFEX_COV(*env_, kRequestRecovery + 0);
    response = "HTTP/1.1 404 Not Found\r\n\r\n";
    return 0;  // a 404 is a served response, not a server failure
  }
  int fd = libc.Open(full, kRdOnly);
  if (fd < 0) {
    AFEX_COV(*env_, kRequestRecovery + 1);
    response = "HTTP/1.1 403 Forbidden\r\n\r\n";
    return 0;
  }
  // Response body buffer, sized from the file — checked OOM path.
  uint64_t buffer = libc.Malloc(st.size + 64);
  if (buffer == 0) {
    AFEX_COV(*env_, kRequestRecovery + 2);
    libc.Close(fd);
    response = "HTTP/1.1 500 Internal Server Error\r\n\r\n";
    return 0;
  }
  std::string body;
  bool read_failed = false;
  while (true) {
    long n = libc.Read(fd, body, 64);  // appends in place; no chunk string
    if (n < 0) {
      if (env_->sim_errno() == sim_errno::kEINTR) {
        AFEX_COV(*env_, kRequestRecovery + 3);
        continue;
      }
      read_failed = true;
      break;
    }
    if (n == 0) {
      break;
    }
  }
  libc.Close(fd);
  libc.Free(buffer);
  if (read_failed) {
    AFEX_COV(*env_, kRequestRecovery + 4);
    response = "HTTP/1.1 500 Internal Server Error\r\n\r\n";
    return 0;
  }
  AFEX_COV(*env_, kRequestBase + 1);
  response = "HTTP/1.1 200 OK\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  return 0;
}

int WebServer::HandlePost(std::string_view path, std::string_view body,
                          std::string& response) {
  StackFrame frame(*env_, "ap_handle_post");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kRequestBase + 2);
  // Body staging buffer. The growth path was added late and never checks
  // the realloc result — an OOM here dereferences NULL (second seeded
  // crash mode, distinct stack from the Fig. 7 module-registration bug).
  uint64_t staging = libc.Malloc(64);
  if (staging == 0) {
    AFEX_COV(*env_, kRequestRecovery + 5);
    response = "HTTP/1.1 500 Internal Server Error\r\n\r\n";
    return 0;
  }
  if (body.size() > 32) {
    StackFrame grow(*env_, "ap_grow_body_buffer");
    uint64_t grown = libc.Realloc(staging, body.size() + 64);
    env_->Deref(grown, "request body staging buffer");
    staging = grown;
  }
  std::string full = document_root_;
  full += "/uploads";
  full += path;
  int fd = libc.Open(full, kWrOnly | kCreate | kTrunc);
  libc.Free(staging);
  if (fd < 0) {
    AFEX_COV(*env_, kRequestRecovery + 5);
    response = "HTTP/1.1 500 Internal Server Error\r\n\r\n";
    return 0;
  }
  if (libc.Write(fd, body) < 0) {
    AFEX_COV(*env_, kRequestRecovery + 6);
    libc.Close(fd);
    libc.Unlink(full);  // do not leave partial uploads behind
    response = "HTTP/1.1 500 Internal Server Error\r\n\r\n";
    return 0;
  }
  if (libc.Close(fd) != 0) {
    AFEX_COV(*env_, kRequestRecovery + 7);
    libc.Unlink(full);
    response = "HTTP/1.1 500 Internal Server Error\r\n\r\n";
    return 0;
  }
  AFEX_COV(*env_, kRequestBase + 3);
  response = "HTTP/1.1 201 Created\r\n\r\n";
  return 0;
}

int WebServer::HandleCgi(std::string_view path, std::string& response) {
  StackFrame frame(*env_, "ap_handle_cgi");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kCgiBase + 0);
  std::string full = document_root_;
  full += path;
  int fd = libc.Open(full, kRdOnly);
  if (fd < 0) {
    AFEX_COV(*env_, kCgiRecovery + 0);
    response = "HTTP/1.1 404 Not Found\r\n\r\n";
    return 0;
  }
  std::string script;
  if (libc.Read(fd, script, 256) < 0) {
    AFEX_COV(*env_, kCgiRecovery + 1);
    libc.Close(fd);
    response = "HTTP/1.1 500 Internal Server Error\r\n\r\n";
    return 0;
  }
  libc.Close(fd);
  // Environment block for the child interpreter. A failed calloc here is
  // dereferenced without a check (third seeded crash mode).
  {
    StackFrame envblock(*env_, "ap_cgi_build_env");
    uint64_t cgi_env = libc.Calloc(8, 32);
    env_->Deref(cgi_env, "CGI environment block");
    libc.Free(cgi_env);
  }
  // "Run" the script through a pipe to the simulated child interpreter.
  int pipe_r = -1;
  int pipe_w = -1;
  if (libc.Pipe(pipe_r, pipe_w) != 0) {
    AFEX_COV(*env_, kCgiRecovery + 2);
    response = "HTTP/1.1 500 Internal Server Error\r\n\r\n";
    return 0;
  }
  std::string_view output =
      StartsWith(script, "echo:") ? std::string_view(script).substr(5) : std::string_view();
  if (libc.Write(pipe_w, output) < 0) {
    AFEX_COV(*env_, kCgiRecovery + 3);
    libc.Close(pipe_r);
    libc.Close(pipe_w);
    response = "HTTP/1.1 502 Bad Gateway\r\n\r\n";
    return 0;
  }
  libc.Close(pipe_w);
  std::string body;
  if (libc.Read(pipe_r, body, 256) < 0) {
    AFEX_COV(*env_, kCgiRecovery + 4);
    libc.Close(pipe_r);
    response = "HTTP/1.1 502 Bad Gateway\r\n\r\n";
    return 0;
  }
  libc.Close(pipe_r);
  AFEX_COV(*env_, kCgiBase + 1);
  response = "HTTP/1.1 200 OK\r\n\r\n" + body;
  return 0;
}

int WebServer::ServeOne(std::string_view request) {
  StackFrame frame(*env_, "ap_process_connection");
  SimLibc& libc = env_->libc();
  AFEX_COV(*env_, kRequestBase + 4);
  last_response_.clear();
  if (listen_fd_ < 0) {
    AFEX_COV(*env_, kRequestRecovery + 8);
    return -1;
  }
  // The fixture's request bytes arrive through the listening socket.
  SimEnv::Socket* listener = env_->FindSocket(listen_fd_);
  if (listener == nullptr) {
    listener = &env_->AddSocket(listen_fd_);
  }
  listener->inbox = request;
  int conn = libc.Accept(listen_fd_);
  if (conn < 0) {
    AFEX_COV(*env_, kRequestRecovery + 9);
    return -1;
  }
  std::string raw;
  if (libc.Recv(conn, raw, 1024) < 0) {
    AFEX_COV(*env_, kRequestRecovery + 10);
    libc.Close(conn);
    return -1;
  }

  // Parse "<METHOD> <path> ...\r\n\r\n<body>".
  std::string response;
  size_t line_end = raw.find("\r\n");
  std::string_view first =
      line_end == std::string::npos ? std::string_view(raw) : std::string_view(raw).substr(0, line_end);
  std::vector<std::string_view> parts = SplitViews(first, ' ');
  if (parts.size() < 2) {
    AFEX_COV(*env_, kRequestRecovery + 11);
    response = "HTTP/1.1 400 Bad Request\r\n\r\n";
  } else if (parts[0] == "GET" && StartsWith(parts[1], "/cgi")) {
    HandleCgi(parts[1], response);
  } else if (parts[0] == "GET") {
    HandleGet(parts[1], response);
  } else if (parts[0] == "POST") {
    size_t body_at = raw.find("\r\n\r\n");
    std::string_view body =
        body_at == std::string::npos ? std::string_view() : std::string_view(raw).substr(body_at + 4);
    HandlePost(parts[1], body, response);
  } else {
    AFEX_COV(*env_, kRequestBase + 5);
    response = "HTTP/1.1 405 Method Not Allowed\r\n\r\n";
  }

  int rc = 0;
  if (libc.Send(conn, response) < 0) {
    AFEX_COV(*env_, kRequestRecovery + 12);
    rc = -1;  // client never got the response
  }
  libc.Close(conn);
  if (parts.size() >= 2) {
    std::string entry(parts[0]);
    entry += ' ';
    entry += parts[1];
    LogAccess(std::move(entry));
  } else {
    LogAccess("malformed");
  }
  last_response_ = response;
  if (rc == 0) {
    AFEX_COV(*env_, kRequestBase + 6);
  }
  return rc;
}

}  // namespace webserver
}  // namespace afex
