#include "common/env.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/file.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/string_util.h"

namespace ssum {

namespace fs = std::filesystem;

WritableFile::~WritableFile() = default;
FileLock::~FileLock() = default;
Connection::~Connection() = default;
Listener::~Listener() = default;
Env::~Env() = default;

namespace {

/// The no-lock lock behind Env's default LockFile: Envs without locking
/// support coordinate nothing, and callers already treat the lock as
/// best-effort.
class NoopFileLock : public FileLock {
 public:
  Status Release() override { return Status::OK(); }
};

}  // namespace

Result<std::unique_ptr<FileLock>> Env::LockFile(const std::string& path) {
  (void)path;
  return std::unique_ptr<FileLock>(std::make_unique<NoopFileLock>());
}

Result<std::unique_ptr<Listener>> Env::NewListener(const std::string& addr) {
  return Status::NotImplemented("this Env has no listener support (addr '" +
                                addr + "')");
}

Result<std::unique_ptr<Connection>> Env::Connect(const std::string& addr) {
  return Status::NotImplemented("this Env has no connect support (addr '" +
                                addr + "')");
}

namespace {

/// stdio-buffered sequential writer; Sync() fsyncs the descriptor.
class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Append(std::string_view data) override {
    if (file_ == nullptr) {
      return Status::IoError("'" + path_ + "' is closed");
    }
    if (data.empty()) return Status::OK();
    const size_t written = std::fwrite(data.data(), 1, data.size(), file_);
    if (written != data.size()) {
      return Status::IoError("write failed for '" + path_ + "': " +
                             std::strerror(errno));
    }
    return Status::OK();
  }

  Status Flush() override {
    if (file_ == nullptr) {
      return Status::IoError("'" + path_ + "' is closed");
    }
    if (std::fflush(file_) != 0) {
      return Status::IoError("flush failed for '" + path_ + "': " +
                             std::strerror(errno));
    }
    return Status::OK();
  }

  Status Sync() override {
    SSUM_RETURN_NOT_OK(Flush());
    if (::fsync(fileno(file_)) != 0) {
      return Status::IoError("fsync failed for '" + path_ + "': " +
                             std::strerror(errno));
    }
    return Status::OK();
  }

  Status Close() override {
    if (file_ == nullptr) return Status::OK();
    std::FILE* f = file_;
    file_ = nullptr;
    if (std::fclose(f) != 0) {
      return Status::IoError("close failed for '" + path_ + "': " +
                             std::strerror(errno));
    }
    return Status::OK();
  }

 private:
  std::FILE* file_;
  std::string path_;
};

/// flock(2)-backed advisory lock. The descriptor stays open for the lock's
/// lifetime; closing it drops the lock even without an explicit LOCK_UN,
/// so a crashed holder never wedges other writers.
class PosixFileLock : public FileLock {
 public:
  PosixFileLock(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixFileLock() override { (void)Release(); }

  Status Release() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    ::flock(fd, LOCK_UN);  // best effort; close releases regardless
    if (::close(fd) != 0) {
      return Status::IoError("cannot close lock file '" + path_ +
                             "': " + std::strerror(errno));
    }
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

/// Splits "host:port" (host may be empty → loopback). Port is required.
Status ParseHostPort(const std::string& addr, std::string* host, int* port) {
  const size_t colon = addr.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("address '" + addr +
                                   "' is not host:port");
  }
  *host = addr.substr(0, colon);
  if (host->empty()) *host = "127.0.0.1";
  auto parsed = ParseInt64(addr.substr(colon + 1));
  if (!parsed.ok() || *parsed < 0 || *parsed > 65535) {
    return Status::InvalidArgument("address '" + addr +
                                   "' has a malformed port");
  }
  *port = static_cast<int>(*parsed);
  return Status::OK();
}

Status FillSockAddr(const std::string& host, int port, sockaddr_in* out) {
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &out->sin_addr) != 1) {
    return Status::InvalidArgument("address host '" + host +
                                   "' is not a dotted IPv4 literal");
  }
  return Status::OK();
}

class PosixConnection : public Connection {
 public:
  explicit PosixConnection(int fd) : fd_(fd) {}
  ~PosixConnection() override { (void)Close(); }

  Result<size_t> Read(void* buf, size_t max) override {
    if (fd_ < 0) return Status::IoError("connection is closed");
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, max, 0);
      if (n >= 0) return static_cast<size_t>(n);
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv failed: ") +
                             std::strerror(errno));
    }
  }

  Result<bool> Readable(int timeout_ms) override {
    if (fd_ < 0) return Status::IoError("connection is closed");
    pollfd pfd{fd_, POLLIN, 0};
    for (;;) {
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc >= 0) return rc > 0;
      if (errno == EINTR) continue;
      return Status::IoError(std::string("poll failed: ") +
                             std::strerror(errno));
    }
  }

  Status WriteAll(std::string_view data) override {
    if (fd_ < 0) return Status::IoError("connection is closed");
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      // MSG_NOSIGNAL: a peer that went away yields EPIPE, not SIGPIPE.
      const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(std::string("send failed: ") +
                               std::strerror(errno));
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) {
      return Status::IoError(std::string("close failed: ") +
                             std::strerror(errno));
    }
    return Status::OK();
  }

 private:
  int fd_;
};

class PosixListener : public Listener {
 public:
  PosixListener(int fd, int port) : fd_(fd), port_(port) {}
  ~PosixListener() override { (void)Close(); }

  Result<std::unique_ptr<Connection>> Accept(int timeout_ms) override {
    if (fd_ < 0) return Status::IoError("listener is closed");
    pollfd pfd{fd_, POLLIN, 0};
    for (;;) {
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(std::string("poll failed: ") +
                               std::strerror(errno));
      }
      if (rc == 0) return Status::NotFound("accept timed out");
      break;
    }
    for (;;) {
      const int client = ::accept(fd_, nullptr, nullptr);
      if (client >= 0) {
        int one = 1;
        ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        return std::unique_ptr<Connection>(
            std::make_unique<PosixConnection>(client));
      }
      if (errno == EINTR) continue;
      return Status::IoError(std::string("accept failed: ") +
                             std::strerror(errno));
    }
  }

  int port() const override { return port_; }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) {
      return Status::IoError(std::string("close failed: ") +
                             std::strerror(errno));
    }
    return Status::OK();
  }

 private:
  int fd_;
  int port_;
};

}  // namespace

Result<std::unique_ptr<WritableFile>> PosixEnv::NewWritableFile(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot open '" + path + "' for writing: " +
                           std::strerror(errno));
  }
  return std::unique_ptr<WritableFile>(
      std::make_unique<PosixWritableFile>(file, path));
}

namespace {

/// Reads an open descriptor to EOF. One allocation sized from fstat, filled
/// by read(2); reads continue into a small tail buffer until EOF, so a file
/// that grew after the fstat, or one that reports no size (procfs, pipes),
/// still reads whole.
Result<std::string> ReadToEnd(int fd, const std::string& path) {
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IoError("cannot stat '" + path + "': " +
                           std::strerror(errno));
  }
  std::string bytes(static_cast<size_t>(std::max<off_t>(st.st_size, 0)),
                    '\0');
  size_t filled = 0;
  char tail[4096];
  while (true) {
    const bool into_bytes = filled < bytes.size();
    char* dst = into_bytes ? bytes.data() + filled : tail;
    const size_t room = into_bytes ? bytes.size() - filled : sizeof(tail);
    const ssize_t got = ::read(fd, dst, room);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("read failed for '" + path + "': " +
                             std::strerror(errno));
    }
    if (got == 0) break;
    if (!into_bytes) bytes.append(tail, static_cast<size_t>(got));
    filled += static_cast<size_t>(got);
  }
  bytes.resize(filled);
  return bytes;
}

/// Opens `path` read-only: NotFound when absent, IoError otherwise.
Result<int> OpenForRead(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("'" + path + "' does not exist");
    }
    return Status::IoError("cannot open '" + path + "': " +
                           std::strerror(errno));
  }
  return fd;
}

/// Reads until `max_bytes` or end of file.
Result<std::string> ReadUpTo(int fd, const std::string& path,
                             size_t max_bytes) {
  std::string bytes(max_bytes, '\0');
  size_t filled = 0;
  while (filled < max_bytes) {
    const ssize_t got = ::read(fd, bytes.data() + filled, max_bytes - filled);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("read failed for '" + path + "': " +
                             std::strerror(errno));
    }
    if (got == 0) break;
    filled += static_cast<size_t>(got);
  }
  bytes.resize(filled);
  return bytes;
}

}  // namespace

Result<std::string> Env::ReadFilePrefix(const std::string& path,
                                        size_t max_bytes) {
  Result<std::string> bytes = ReadFile(path);
  if (bytes.ok() && bytes->size() > max_bytes) bytes->resize(max_bytes);
  return bytes;
}

Result<std::string> PosixEnv::ReadFile(const std::string& path) {
  int fd;
  SSUM_ASSIGN_OR_RETURN(fd, OpenForRead(path));
  Result<std::string> bytes = ReadToEnd(fd, path);
  ::close(fd);
  return bytes;
}

Result<std::string> PosixEnv::ReadFilePrefix(const std::string& path,
                                             size_t max_bytes) {
  int fd;
  SSUM_ASSIGN_OR_RETURN(fd, OpenForRead(path));
  Result<std::string> bytes = ReadUpTo(fd, path, max_bytes);
  ::close(fd);
  return bytes;
}

Status PosixEnv::RenameFile(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec) {
    return Status::IoError("rename '" + from + "' -> '" + to +
                           "' failed: " + ec.message());
  }
  return Status::OK();
}

Status PosixEnv::RemoveFile(const std::string& path) {
  std::error_code ec;
  const bool removed = fs::remove(path, ec);
  if (ec) {
    return Status::IoError("cannot remove '" + path + "': " + ec.message());
  }
  if (!removed) return Status::NotFound("'" + path + "' does not exist");
  return Status::OK();
}

Status PosixEnv::CreateDirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    return Status::IoError("cannot create directory '" + path +
                           "': " + ec.message());
  }
  return Status::OK();
}

Status PosixEnv::SyncDir(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open directory '" + path +
                           "' for fsync: " + std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("fsync failed for directory '" + path +
                           "': " + std::strerror(saved_errno));
  }
  return Status::OK();
}

Result<bool> PosixEnv::FileExists(const std::string& path) {
  std::error_code ec;
  const bool exists = fs::exists(path, ec);
  if (ec) {
    return Status::IoError("cannot stat '" + path + "': " + ec.message());
  }
  return exists;
}

Result<std::unique_ptr<FileLock>> PosixEnv::LockFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open lock file '" + path +
                           "': " + std::strerror(errno));
  }
  for (;;) {
    if (::flock(fd, LOCK_EX) == 0) break;
    if (errno == EINTR) continue;
    const int saved_errno = errno;
    ::close(fd);
    return Status::IoError("cannot lock '" + path +
                           "': " + std::strerror(saved_errno));
  }
  return std::unique_ptr<FileLock>(
      std::make_unique<PosixFileLock>(fd, path));
}

Result<std::unique_ptr<Listener>> PosixEnv::NewListener(
    const std::string& addr) {
  std::string host;
  int port = 0;
  SSUM_RETURN_NOT_OK(ParseHostPort(addr, &host, &port));
  sockaddr_in sa;
  SSUM_RETURN_NOT_OK(FillSockAddr(host, port, &sa));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    const int saved_errno = errno;
    ::close(fd);
    return Status::IoError("cannot bind '" + addr +
                           "': " + std::strerror(saved_errno));
  }
  if (::listen(fd, 128) != 0) {
    const int saved_errno = errno;
    ::close(fd);
    return Status::IoError("cannot listen on '" + addr +
                           "': " + std::strerror(saved_errno));
  }
  // Resolve the ephemeral port a ":0" bind actually got.
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int saved_errno = errno;
    ::close(fd);
    return Status::IoError(std::string("getsockname failed: ") +
                           std::strerror(saved_errno));
  }
  return std::unique_ptr<Listener>(
      std::make_unique<PosixListener>(fd, ntohs(bound.sin_port)));
}

Result<std::unique_ptr<Connection>> PosixEnv::Connect(
    const std::string& addr) {
  std::string host;
  int port = 0;
  SSUM_RETURN_NOT_OK(ParseHostPort(addr, &host, &port));
  sockaddr_in sa;
  SSUM_RETURN_NOT_OK(FillSockAddr(host, port, &sa));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  for (;;) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0) {
      break;
    }
    if (errno == EINTR) continue;
    const int saved_errno = errno;
    ::close(fd);
    return Status::IoError("cannot connect to '" + addr +
                           "': " + std::strerror(saved_errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Connection>(std::make_unique<PosixConnection>(fd));
}

Env* Env::Default() {
  // Leaked on purpose, mirroring ThreadPool::Shared(): destroying it during
  // static teardown would race with other translation units.
  static PosixEnv* env = new PosixEnv();
  return env;
}

const char* FaultOpName(FaultOp op) {
  switch (op) {
    case FaultOp::kOpen:
      return "open";
    case FaultOp::kWrite:
      return "write";
    case FaultOp::kFlush:
      return "flush";
    case FaultOp::kSync:
      return "sync";
    case FaultOp::kRename:
      return "rename";
    case FaultOp::kUnlink:
      return "unlink";
    case FaultOp::kRead:
      return "read";
    case FaultOp::kMkdir:
      return "mkdir";
    case FaultOp::kSyncDir:
      return "syncdir";
    case FaultOp::kListen:
      return "listen";
    case FaultOp::kConnect:
      return "connect";
    case FaultOp::kAccept:
      return "accept";
    case FaultOp::kSend:
      return "send";
    case FaultOp::kRecv:
      return "recv";
    case FaultOp::kLock:
      return "lock";
  }
  return "?";
}

/// Wraps a base WritableFile, routing write/flush/sync through the env's
/// fault schedule. A torn write appends only the scheduled prefix before
/// failing — exactly the on-disk state a crash mid-write leaves behind.
/// (Namespace-scope, not anonymous: it is a friend of FaultInjectingEnv.)
class FaultInjectingWritableFile : public WritableFile {
 public:
  FaultInjectingWritableFile(FaultInjectingEnv* env,
                             std::unique_ptr<WritableFile> base,
                             std::string path)
      : env_(env), base_(std::move(base)), path_(std::move(path)) {}

  Status Append(std::string_view data) override;
  Status Flush() override;
  Status Sync() override;
  Status Close() override { return base_->Close(); }

 private:
  FaultInjectingEnv* env_;
  std::unique_ptr<WritableFile> base_;
  std::string path_;
};

/// Wraps a base Connection, counting each recv/send as a fault point. A
/// kTorn send writes only the scheduled prefix before failing — the peer
/// sees a half frame, exactly what a connection cut mid-message leaves.
class FaultInjectingConnection : public Connection {
 public:
  FaultInjectingConnection(FaultInjectingEnv* env,
                           std::unique_ptr<Connection> base, std::string peer)
      : env_(env), base_(std::move(base)), peer_(std::move(peer)) {}

  Result<size_t> Read(void* buf, size_t max) override {
    const FaultInjectingEnv::Injection inj = env_->Observe(FaultOp::kRecv);
    if (inj.fire) {
      return FaultInjectingEnv::FaultStatus(inj.kind, FaultOp::kRecv, peer_);
    }
    return base_->Read(buf, max);
  }

  // Readability probes are metadata-only, like FileExists; not a fault point.
  Result<bool> Readable(int timeout_ms) override {
    return base_->Readable(timeout_ms);
  }

  Status WriteAll(std::string_view data) override {
    const FaultInjectingEnv::Injection inj = env_->Observe(FaultOp::kSend);
    if (!inj.fire) return base_->WriteAll(data);
    if (inj.kind == FaultKind::kTorn) {
      const size_t keep =
          static_cast<size_t>(std::min<uint64_t>(inj.torn_bytes, data.size()));
      (void)base_->WriteAll(data.substr(0, keep));
    }
    return FaultInjectingEnv::FaultStatus(inj.kind, FaultOp::kSend, peer_);
  }

  Status Close() override { return base_->Close(); }

 private:
  FaultInjectingEnv* env_;
  std::unique_ptr<Connection> base_;
  std::string peer_;
};

class FaultInjectingListener : public Listener {
 public:
  FaultInjectingListener(FaultInjectingEnv* env, std::unique_ptr<Listener> base,
                         std::string addr)
      : env_(env), base_(std::move(base)), addr_(std::move(addr)) {}

  Result<std::unique_ptr<Connection>> Accept(int timeout_ms) override {
    const FaultInjectingEnv::Injection inj = env_->Observe(FaultOp::kAccept);
    if (inj.fire) {
      return FaultInjectingEnv::FaultStatus(inj.kind, FaultOp::kAccept, addr_);
    }
    std::unique_ptr<Connection> conn;
    SSUM_ASSIGN_OR_RETURN(conn, base_->Accept(timeout_ms));
    return std::unique_ptr<Connection>(std::make_unique<FaultInjectingConnection>(
        env_, std::move(conn), addr_));
  }

  int port() const override { return base_->port(); }
  Status Close() override { return base_->Close(); }

 private:
  FaultInjectingEnv* env_;
  std::unique_ptr<Listener> base_;
  std::string addr_;
};

FaultInjectingEnv::FaultInjectingEnv(Env* base) : base_(base) {}

FaultInjectingEnv::Injection FaultInjectingEnv::Observe(FaultOp op) {
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t o = static_cast<size_t>(op);
  const uint64_t global_index = global_count_++;
  const uint64_t per_op = ++per_op_count_[o];
  history_.push_back(op);

  Injection inj;
  // Dead-disk mode armed earlier by a permanent fault of this kind.
  if (permanent_[o]) {
    inj.fire = true;
    inj.kind = permanent_kind_[o];
  }
  for (auto it = global_faults_.begin(); it != global_faults_.end(); ++it) {
    if (global_index < it->index) continue;
    if (global_index == it->index) {
      inj.fire = true;
      inj.kind = it->kind;
      inj.torn_bytes = it->torn_bytes;
      if (it->transient) global_faults_.erase(it);
      break;
    }
    // Past a permanent global fault: the "process" is dead — every later
    // operation fails too, so crash residue (a stale tmp file) survives
    // cleanup exactly as it would a real crash.
    if (!it->transient) {
      inj.fire = true;
      inj.kind = FaultKind::kEio;
      break;
    }
  }
  for (auto it = faults_.begin(); it != faults_.end(); ++it) {
    if (it->op != op || per_op != it->nth) continue;
    inj.fire = true;
    inj.kind = it->kind;
    inj.torn_bytes = it->torn_bytes;
    if (it->transient) {
      faults_.erase(it);
    } else {
      permanent_[o] = true;
      permanent_kind_[o] = it->kind;
    }
    break;
  }
  if (inj.fire) ++injected_;
  return inj;
}

Status FaultInjectingEnv::FaultStatus(FaultKind kind, FaultOp op,
                                      const std::string& path) {
  std::string msg = std::string("injected ") + FaultOpName(op) +
                    " fault on '" + path + "'";
  switch (kind) {
    case FaultKind::kEnospc:
      return Status::IoError(msg + ": no space left on device");
    case FaultKind::kTorn:
      return Status::IoError(msg + ": torn write");
    case FaultKind::kEio:
      break;
  }
  return Status::IoError(msg + ": input/output error");
}

Status FaultInjectingWritableFile::Append(std::string_view data) {
  const FaultInjectingEnv::Injection inj = env_->Observe(FaultOp::kWrite);
  if (!inj.fire) return base_->Append(data);
  if (inj.kind == FaultKind::kTorn) {
    const size_t keep =
        static_cast<size_t>(std::min<uint64_t>(inj.torn_bytes, data.size()));
    // Best-effort prefix write + flush: the torn bytes must actually land so
    // a reopened reader sees the truncated state, not an empty file.
    (void)base_->Append(data.substr(0, keep));
    (void)base_->Flush();
  }
  return FaultInjectingEnv::FaultStatus(inj.kind, FaultOp::kWrite, path_);
}

Status FaultInjectingWritableFile::Flush() {
  const FaultInjectingEnv::Injection inj = env_->Observe(FaultOp::kFlush);
  if (!inj.fire) return base_->Flush();
  return FaultInjectingEnv::FaultStatus(inj.kind, FaultOp::kFlush, path_);
}

Status FaultInjectingWritableFile::Sync() {
  const FaultInjectingEnv::Injection inj = env_->Observe(FaultOp::kSync);
  if (!inj.fire) return base_->Sync();
  // A failed fsync still leaves the flushed bytes in the file — only the
  // durability promise is broken — so the base file is left as-is.
  return FaultInjectingEnv::FaultStatus(inj.kind, FaultOp::kSync, path_);
}

Result<std::unique_ptr<WritableFile>> FaultInjectingEnv::NewWritableFile(
    const std::string& path) {
  const Injection inj = Observe(FaultOp::kOpen);
  if (inj.fire) return FaultStatus(inj.kind, FaultOp::kOpen, path);
  std::unique_ptr<WritableFile> base;
  SSUM_ASSIGN_OR_RETURN(base, base_->NewWritableFile(path));
  return std::unique_ptr<WritableFile>(
      std::make_unique<FaultInjectingWritableFile>(this, std::move(base),
                                                   path));
}

Result<std::string> FaultInjectingEnv::ReadFile(const std::string& path) {
  const Injection inj = Observe(FaultOp::kRead);
  if (inj.fire) return FaultStatus(inj.kind, FaultOp::kRead, path);
  return base_->ReadFile(path);
}

Result<std::string> FaultInjectingEnv::ReadFilePrefix(const std::string& path,
                                                      size_t max_bytes) {
  const Injection inj = Observe(FaultOp::kRead);
  if (inj.fire) return FaultStatus(inj.kind, FaultOp::kRead, path);
  return base_->ReadFilePrefix(path, max_bytes);
}

Status FaultInjectingEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  const Injection inj = Observe(FaultOp::kRename);
  if (inj.fire) return FaultStatus(inj.kind, FaultOp::kRename, from);
  return base_->RenameFile(from, to);
}

Status FaultInjectingEnv::RemoveFile(const std::string& path) {
  const Injection inj = Observe(FaultOp::kUnlink);
  if (inj.fire) return FaultStatus(inj.kind, FaultOp::kUnlink, path);
  return base_->RemoveFile(path);
}

Status FaultInjectingEnv::CreateDirs(const std::string& path) {
  const Injection inj = Observe(FaultOp::kMkdir);
  if (inj.fire) return FaultStatus(inj.kind, FaultOp::kMkdir, path);
  return base_->CreateDirs(path);
}

Status FaultInjectingEnv::SyncDir(const std::string& path) {
  const Injection inj = Observe(FaultOp::kSyncDir);
  if (inj.fire) return FaultStatus(inj.kind, FaultOp::kSyncDir, path);
  return base_->SyncDir(path);
}

Result<bool> FaultInjectingEnv::FileExists(const std::string& path) {
  // Existence probes are metadata-only; not a fault point.
  return base_->FileExists(path);
}

Result<std::unique_ptr<FileLock>> FaultInjectingEnv::LockFile(
    const std::string& path) {
  const Injection inj = Observe(FaultOp::kLock);
  if (inj.fire) return FaultStatus(inj.kind, FaultOp::kLock, path);
  return base_->LockFile(path);
}

Result<std::unique_ptr<Listener>> FaultInjectingEnv::NewListener(
    const std::string& addr) {
  const Injection inj = Observe(FaultOp::kListen);
  if (inj.fire) return FaultStatus(inj.kind, FaultOp::kListen, addr);
  std::unique_ptr<Listener> base;
  SSUM_ASSIGN_OR_RETURN(base, base_->NewListener(addr));
  return std::unique_ptr<Listener>(
      std::make_unique<FaultInjectingListener>(this, std::move(base), addr));
}

Result<std::unique_ptr<Connection>> FaultInjectingEnv::Connect(
    const std::string& addr) {
  const Injection inj = Observe(FaultOp::kConnect);
  if (inj.fire) return FaultStatus(inj.kind, FaultOp::kConnect, addr);
  std::unique_ptr<Connection> base;
  SSUM_ASSIGN_OR_RETURN(base, base_->Connect(addr));
  return std::unique_ptr<Connection>(
      std::make_unique<FaultInjectingConnection>(this, std::move(base), addr));
}

void FaultInjectingEnv::ScheduleFault(const Fault& fault) {
  std::lock_guard<std::mutex> lock(mutex_);
  faults_.push_back(fault);
}

void FaultInjectingEnv::FailAtOpIndex(uint64_t index, FaultKind kind,
                                      uint64_t torn_bytes, bool transient) {
  std::lock_guard<std::mutex> lock(mutex_);
  global_faults_.push_back(GlobalFault{index, kind, torn_bytes, transient});
}

Status FaultInjectingEnv::LoadSchedule(std::string_view spec) {
  std::vector<Fault> parsed;
  for (const std::string& raw : SplitString(std::string(spec), ';')) {
    std::string entry = raw;
    if (entry.empty()) continue;
    Fault f;
    if (!entry.empty() && entry.back() == '~') {
      f.transient = true;
      entry.pop_back();
    }
    const size_t hash = entry.find('#');
    const size_t eq = entry.find('=', hash == std::string::npos ? 0 : hash);
    if (hash == std::string::npos || eq == std::string::npos || eq < hash) {
      return Status::InvalidArgument(
          "fault entry '" + raw + "' is not op#N=kind[:K][~]");
    }
    const std::string op = entry.substr(0, hash);
    bool known_op = false;
    for (size_t o = 0; o < kNumFaultOps; ++o) {
      if (op == FaultOpName(static_cast<FaultOp>(o))) {
        f.op = static_cast<FaultOp>(o);
        known_op = true;
        break;
      }
    }
    if (!known_op) {
      return Status::InvalidArgument("unknown fault op '" + op + "'");
    }
    auto nth = ParseInt64(entry.substr(hash + 1, eq - hash - 1));
    if (!nth.ok() || *nth <= 0) {
      return Status::InvalidArgument(
          "fault entry '" + raw + "' needs a positive occurrence number");
    }
    f.nth = static_cast<uint64_t>(*nth);
    std::string kind = entry.substr(eq + 1);
    const size_t colon = kind.find(':');
    if (colon != std::string::npos) {
      auto k = ParseInt64(kind.substr(colon + 1));
      if (!k.ok() || *k < 0) {
        return Status::InvalidArgument(
            "fault entry '" + raw + "' has a malformed torn byte count");
      }
      f.torn_bytes = static_cast<uint64_t>(*k);
      kind = kind.substr(0, colon);
    }
    if (kind == "eio") {
      f.kind = FaultKind::kEio;
    } else if (kind == "enospc") {
      f.kind = FaultKind::kEnospc;
    } else if (kind == "torn") {
      if (colon == std::string::npos) {
        return Status::InvalidArgument(
            "fault entry '" + raw + "': torn needs ':K' (bytes kept)");
      }
      f.kind = FaultKind::kTorn;
    } else {
      return Status::InvalidArgument("unknown fault kind '" + kind + "'");
    }
    parsed.push_back(f);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Fault& f : parsed) faults_.push_back(f);
  return Status::OK();
}

std::vector<FaultOp> FaultInjectingEnv::history() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return history_;
}

uint64_t FaultInjectingEnv::total_ops() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return global_count_;
}

uint64_t FaultInjectingEnv::faults_injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injected_;
}

uint64_t FaultInjectingEnv::ops(FaultOp op) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return per_op_count_[static_cast<size_t>(op)];
}

void FaultInjectingEnv::ClearSchedule() {
  std::lock_guard<std::mutex> lock(mutex_);
  faults_.clear();
  global_faults_.clear();
  for (size_t o = 0; o < kNumFaultOps; ++o) permanent_[o] = false;
}

void FaultInjectingEnv::ResetCounters() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t o = 0; o < kNumFaultOps; ++o) per_op_count_[o] = 0;
  global_count_ = 0;
  injected_ = 0;
  history_.clear();
}

}  // namespace ssum
