#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace ssum {

/// Sequential write handle returned by Env::NewWritableFile. The durability
/// split follows the LevelDB/RocksDB contract:
///   Append  — bytes into the file (user-space buffered),
///   Flush   — user-space buffers to the OS,
///   Sync    — OS buffers to durable media (fsync),
///   Close   — releases the handle (idempotent; flushes first).
/// Every call returns Status; nothing throws.
class WritableFile {
 public:
  virtual ~WritableFile();

  virtual Status Append(std::string_view data) = 0;
  virtual Status Flush() = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// Advisory inter-process lock handle returned by Env::LockFile. The lock
/// is held until Release() or destruction (whichever comes first; both are
/// idempotent). Advisory means cooperating writers only — it serializes
/// ArtifactCache counter merges across processes, it does not protect the
/// files from non-ssum writers.
class FileLock {
 public:
  virtual ~FileLock();

  virtual Status Release() = 0;
};

/// One byte stream between a client and the serving daemon (src/serve).
/// Implementations must tolerate Read and WriteAll being issued from
/// different threads than the one that created the connection (but not
/// concurrent calls to the same method).
class Connection {
 public:
  virtual ~Connection();

  /// Reads up to `max` bytes into `buf`. Returns the byte count actually
  /// read; 0 means the peer closed the stream cleanly (EOF). Transport
  /// failures are IoError.
  virtual Result<size_t> Read(void* buf, size_t max) = 0;

  /// Waits up to `timeout_ms` for the stream to become readable (data or
  /// EOF). False on timeout. Lets a server poll a connection without
  /// parking a thread in an unbounded Read — the stop flag stays checkable.
  /// Default: immediately readable (suits in-memory test doubles).
  virtual Result<bool> Readable(int timeout_ms) {
    (void)timeout_ms;
    return true;
  }

  /// Writes all of `data`, looping over partial sends. A peer that went
  /// away mid-write is IoError, never a signal or a crash.
  virtual Status WriteAll(std::string_view data) = 0;

  /// Closes the stream (idempotent).
  virtual Status Close() = 0;
};

/// A listening server endpoint, produced by Env::NewListener.
class Listener {
 public:
  virtual ~Listener();

  /// Waits up to `timeout_ms` for an inbound connection. A timeout is
  /// NotFound (the accept loop's idle tick, not an error); a closed
  /// listener is IoError.
  virtual Result<std::unique_ptr<Connection>> Accept(int timeout_ms) = 0;

  /// The port actually bound — resolves ":0" (ephemeral) requests.
  virtual int port() const = 0;

  /// Stops accepting (idempotent). In-flight connections are unaffected.
  virtual Status Close() = 0;
};

/// Filesystem + socket abstraction the snapshot store and the serving
/// daemon do all of their IO through (store/container.cc,
/// store/artifact_cache.cc, serve/server.cc). Production code uses the
/// process-wide PosixEnv behind Env::Default(); tests and the
/// crash-consistency sweeps substitute a FaultInjectingEnv to make every IO
/// step — disk *and* network — fail deterministically. Implementations must
/// be safe for concurrent use from multiple threads.
class Env {
 public:
  virtual ~Env();

  /// Opens (creates/truncates) `path` for sequential writing.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;

  /// Reads the whole file. NotFound when it does not exist, IoError for
  /// anything else.
  virtual Result<std::string> ReadFile(const std::string& path) = 0;

  /// Reads the first min(max_bytes, file size) bytes — a header peek that
  /// does not pay for the whole file. Errors as ReadFile. Default
  /// implementation: ReadFile, truncated (correct for any Env, just not
  /// cheaper).
  virtual Result<std::string> ReadFilePrefix(const std::string& path,
                                             size_t max_bytes);

  /// Atomically replaces `to` with `from` (POSIX rename semantics).
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;

  /// Removes a file. NotFound when absent.
  virtual Status RemoveFile(const std::string& path) = 0;

  /// Creates a directory and any missing parents (no error when present).
  virtual Status CreateDirs(const std::string& path) = 0;

  /// fsyncs a directory so a preceding rename/create within it is durable.
  virtual Status SyncDir(const std::string& path) = 0;

  virtual Result<bool> FileExists(const std::string& path) = 0;

  /// Takes an advisory exclusive lock on `path` (created if absent),
  /// blocking until granted. Default implementation: a no-op lock that
  /// always succeeds, so filesystem doubles without locking support keep
  /// working — callers must treat the lock as best-effort coordination,
  /// never as a correctness requirement (the cache's atomic installs are
  /// safe without it).
  virtual Result<std::unique_ptr<FileLock>> LockFile(const std::string& path);

  /// Binds and listens on `addr` ("host:port"; host defaults to 127.0.0.1
  /// when empty, port 0 picks an ephemeral port — read it back from
  /// Listener::port()). Default implementation: NotImplemented, so
  /// filesystem-only Env substitutes keep working unchanged.
  virtual Result<std::unique_ptr<Listener>> NewListener(
      const std::string& addr);

  /// Connects to a listening `addr` ("host:port"). NotImplemented by
  /// default, like NewListener.
  virtual Result<std::unique_ptr<Connection>> Connect(const std::string& addr);

  /// Process-wide PosixEnv (never destroyed).
  static Env* Default();
};

/// POSIX implementation: stdio writes, fsync-backed Sync, std::filesystem
/// metadata operations, loopback-friendly TCP sockets for the serving layer.
class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Result<std::string> ReadFile(const std::string& path) override;
  Result<std::string> ReadFilePrefix(const std::string& path,
                                     size_t max_bytes) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status CreateDirs(const std::string& path) override;
  Status SyncDir(const std::string& path) override;
  Result<bool> FileExists(const std::string& path) override;
  /// flock(2)-backed exclusive lock; blocks until the holder releases.
  Result<std::unique_ptr<FileLock>> LockFile(const std::string& path) override;
  Result<std::unique_ptr<Listener>> NewListener(
      const std::string& addr) override;
  Result<std::unique_ptr<Connection>> Connect(const std::string& addr) override;
};

/// IO operation kinds a fault can target. Close is deliberately not a fault
/// point: a failing close is indistinguishable from a failing flush, which
/// is already enumerable.
enum class FaultOp : uint8_t {
  kOpen = 0,
  kWrite,
  kFlush,
  kSync,
  kRename,
  kUnlink,
  kRead,
  kMkdir,
  kSyncDir,
  // Network operations of the serving layer; faultable like disk IO so the
  // request boundary's failure handling is deterministic to test too.
  kListen,
  kConnect,
  kAccept,
  kSend,
  kRecv,
  /// Advisory lock acquisition (Env::LockFile). Faultable so tests can
  /// prove lock-acquisition failure degrades to lock-free operation
  /// instead of failing the caller's install.
  kLock,
};
inline constexpr size_t kNumFaultOps = 15;

const char* FaultOpName(FaultOp op);

/// What an injected fault does to the matched operation.
enum class FaultKind : uint8_t {
  kEio = 0,    ///< generic IO error; the operation has no effect
  kEnospc,     ///< "no space" flavor of the same
  kTorn,       ///< writes only the first `torn_bytes` bytes, then fails
};

/// One scheduled fault: the Nth operation of kind `op` (1-based, counted
/// per kind across the env's lifetime) fails with `kind`. A *transient*
/// fault fires exactly once — the retried operation succeeds (a blip). A
/// *permanent* fault also fails every later operation of that kind (a dead
/// disk), which is what exhausts RetryPolicy in tests.
struct Fault {
  FaultOp op = FaultOp::kWrite;
  uint64_t nth = 1;
  FaultKind kind = FaultKind::kEio;
  uint64_t torn_bytes = 0;  ///< kTorn: bytes actually written before failing
  bool transient = false;
};

/// Deterministic fault injection around a base Env. Faults are scheduled
/// either individually (ScheduleFault / FailAtOpIndex) or from a compact
/// schedule string (LoadSchedule):
///
///   schedule  := entry (';' entry)*
///   entry     := op '#' N '=' kind [':' K] ['~']
///   op        := open|write|flush|sync|rename|unlink|read|mkdir|syncdir
///              | listen|connect|accept|send|recv|lock
///   kind      := eio | enospc | torn        (torn requires ':K')
///
/// "write#2=torn:17~;sync#1=enospc" truncates the 2nd write after 17 bytes
/// (transient, '~'), and makes every sync from the 1st on fail with ENOSPC
/// (permanent, the default). Matching is purely count-based — no wall
/// clock, no randomness — so a schedule replays identically every run.
///
/// The env also records every operation it sees (history()), which is what
/// lets the crash-consistency sweep in tests/test_cache.cc first trace a
/// clean install and then re-run it once per recorded op with that op
/// failing.
class FaultInjectingEnv : public Env {
 public:
  /// Does not take ownership of `base`; pass Env::Default() normally.
  explicit FaultInjectingEnv(Env* base);

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Result<std::string> ReadFile(const std::string& path) override;
  /// Observed as a kRead, like ReadFile.
  Result<std::string> ReadFilePrefix(const std::string& path,
                                     size_t max_bytes) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status CreateDirs(const std::string& path) override;
  Status SyncDir(const std::string& path) override;
  Result<bool> FileExists(const std::string& path) override;
  /// Counts a kLock fault point, then delegates to the base Env.
  Result<std::unique_ptr<FileLock>> LockFile(const std::string& path) override;
  /// Network ops delegate to the base Env with kListen / kConnect /
  /// kAccept / kSend / kRecv fault points wrapped around them, so a serve
  /// test can kill exactly the Nth recv without touching real sockets' luck.
  Result<std::unique_ptr<Listener>> NewListener(
      const std::string& addr) override;
  Result<std::unique_ptr<Connection>> Connect(const std::string& addr) override;

  void ScheduleFault(const Fault& fault);

  /// Fails the operation with global index `index` (0-based position in
  /// history()) regardless of kind — the sweep-friendly addressing mode.
  void FailAtOpIndex(uint64_t index, FaultKind kind, uint64_t torn_bytes = 0,
                     bool transient = false);

  /// Parses the schedule grammar above and schedules every entry.
  Status LoadSchedule(std::string_view spec);

  /// Operations observed so far, in order (faulted attempts included).
  std::vector<FaultOp> history() const;
  uint64_t total_ops() const;
  uint64_t faults_injected() const;
  uint64_t ops(FaultOp op) const;

  /// Drops pending faults / zeroes counters and history.
  void ClearSchedule();
  void ResetCounters();

 private:
  friend class FaultInjectingWritableFile;
  friend class FaultInjectingConnection;
  friend class FaultInjectingListener;

  struct Injection {
    bool fire = false;
    FaultKind kind = FaultKind::kEio;
    uint64_t torn_bytes = 0;
  };

  /// Counts one operation of `op` and reports whether it must fail.
  Injection Observe(FaultOp op);
  static Status FaultStatus(FaultKind kind, FaultOp op,
                            const std::string& path);

  Env* base_;
  mutable std::mutex mutex_;
  uint64_t per_op_count_[kNumFaultOps] = {};
  uint64_t global_count_ = 0;
  uint64_t injected_ = 0;
  /// Permanent fault armed for an op kind (dead-disk mode).
  bool permanent_[kNumFaultOps] = {};
  FaultKind permanent_kind_[kNumFaultOps] = {};
  std::vector<Fault> faults_;                  // per-kind (op, nth) faults
  struct GlobalFault {
    uint64_t index;
    FaultKind kind;
    uint64_t torn_bytes;
    bool transient;
  };
  std::vector<GlobalFault> global_faults_;
  std::vector<FaultOp> history_;
};

}  // namespace ssum
