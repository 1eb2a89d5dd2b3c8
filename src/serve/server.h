#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/parallel.h"
#include "common/parse_limits.h"
#include "common/result.h"
#include "core/summarize.h"
#include "datasets/registry.h"
#include "serve/wire.h"
#include "store/artifact_cache.h"

namespace ssum {

struct ServeServerOptions {
  /// Listen address; port 0 binds an ephemeral port (read it back from
  /// port() after Start).
  std::string listen = "127.0.0.1:0";
  /// Warm-start cache directory shared by every request; empty disables
  /// caching (cache-stat then reports FailedPrecondition).
  std::string cache_dir;
  /// Worker threads executing requests.
  uint32_t workers = 2;
  /// Requests allowed to wait beyond the workers. Admission control sheds
  /// anything past workers + queue_depth in flight with kUnavailable at the
  /// wire — the server never hangs or drops a connection on overload.
  uint32_t queue_depth = 8;
  /// Concurrent connections; the excess gets kUnavailable and a close.
  uint32_t max_connections = 32;
  /// Dataset scale for summarize/discover (matches `ssum demo`'s reduced
  /// scale; statistics-derived RCs are scale-invariant).
  double dataset_scale = 0.05;
  /// Directory holding the scenario case files clients may name as
  /// "scenario:<file>". Names resolve relative to this directory and must
  /// stay inside it (no absolute paths, no "..", no symlink escapes).
  /// Empty disables scenario datasets entirely — the server never opens a
  /// client-chosen file path.
  std::string scenario_dir;
  /// Parse limits applied to every request-driven ingestion.
  ParseLimits limits = ParseLimits::Defaults();
  /// Requests whose end-to-end latency (queueing included) reaches this
  /// many milliseconds are logged with verb, dataset, and latency, and
  /// counted in ServeMetrics::slow_requests. 0 disables the log.
  uint32_t slow_request_ms = 0;
  /// All network IO goes through this Env (not owned; must outlive the
  /// server through Stop()); tests pass a FaultInjectingEnv to fault
  /// accept/recv/send deterministically.
  Env* env = nullptr;
};

/// Point-in-time metrics snapshot, also rendered by the `metrics` verb.
struct ServeMetrics {
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;        ///< non-OK other than the two below
  uint64_t unavailable = 0;   ///< shed by admission control
  uint64_t deadline_expired = 0;
  uint64_t per_verb[7] = {};  ///< indexed by ServeVerb value (0 unused)
  uint64_t p50_us = 0;        ///< over the last <= 2048 requests
  uint64_t p99_us = 0;
  /// Keep-alive effectiveness: connections accepted vs requests served on
  /// an already-open connection (every request after a connection's first).
  uint64_t connections_opened = 0;
  uint64_t keepalive_reused = 0;
  /// Requests at or over ServeServerOptions::slow_request_ms.
  uint64_t slow_requests = 0;
};

/// The summarization daemon: accepts connections, decodes request frames
/// (serve/wire.h), executes them on a bounded worker pool, and answers with
/// response frames. One instance owns the listener, the worker pool, the
/// shared ArtifactCache, and a pool of per-dataset SummarizerContexts, so a
/// warm `summarize` is a fingerprint lookup — no matrices, no selection.
///
/// Error contract at the wire: every decodable request gets a response
/// frame, including overload (kUnavailable) and deadline expiry
/// (kDeadlineExceeded) — a connection is only ever closed by the peer, by a
/// malformed frame, or by server shutdown.
class SummarizeServer {
 public:
  explicit SummarizeServer(ServeServerOptions options);
  ~SummarizeServer();

  SummarizeServer(const SummarizeServer&) = delete;
  SummarizeServer& operator=(const SummarizeServer&) = delete;

  /// Binds the listener and starts the accept loop. Non-OK when the
  /// address cannot be bound.
  Status Start();

  /// Blocks until a `shutdown` request (or Stop from another thread).
  void WaitForShutdown();

  /// Stops accepting, joins every connection and worker, flushes cache
  /// counters. Idempotent; implied by the destructor.
  void Stop();

  /// Bound port (after Start); resolves an ephemeral ":0" bind.
  int port() const { return port_; }
  /// "host:port" of the bound listener (after Start).
  const std::string& address() const { return address_; }

  ServeMetrics metrics() const;

  /// Executes one already-decoded request against this server's pools —
  /// the same path a wire request takes after decode. Exposed so the bench
  /// can compute reference responses in-process.
  ServeResponse Execute(const ServeRequest& request, const Deadline& deadline);

 private:
  void AcceptLoop();
  void ServeConnection(std::unique_ptr<Connection> conn);
  /// Admission control + worker-pool execution + metrics, shared by every
  /// connection. Returns the response to put on the wire.
  ServeResponse HandleDecoded(const ServeRequest& request,
                              const Deadline& deadline);

  ServeResponse DoSummarize(const ServeRequest& request,
                            const Deadline& deadline);
  ServeResponse DoDiscover(const ServeRequest& request,
                           const Deadline& deadline);
  ServeResponse DoCacheStat();
  ServeResponse DoMetrics();

  /// Serialized summary for (dataset, options, k, algorithm), via the
  /// in-memory memo, then the ArtifactCache, then a pooled-context compute.
  Result<std::string> SummaryPayload(const ServeRequest& request,
                                     const Deadline& deadline);

  struct DatasetEntry {
    std::mutex mutex;  ///< single-flight: one load/build per dataset at a time
    std::shared_ptr<DatasetBundle> bundle;
    /// Contexts keyed by (mode, epsilon bits). Matrix construction does not
    /// depend on them (FingerprintMatrixOptions excludes both; only
    /// SelectMaxCoverage reads them); the key exists because a context
    /// carries its selection mode in SummarizeOptions. k and the algorithm
    /// share a context. ROADMAP "One context per input" removes the split.
    std::map<std::pair<uint32_t, uint64_t>,
             std::shared_ptr<const SummarizerContext>>
        contexts;
  };
  /// Maps a client-supplied scenario name to the canonical path of a case
  /// file inside options_.scenario_dir, rejecting anything that would
  /// escape it. The canonical path doubles as the dataset-map key, so
  /// distinct spellings of one file share one entry.
  Result<std::string> ResolveScenarioPath(const std::string& name) const;
  /// Returned entries are shared_ptr so a concurrent eviction of a failed
  /// load can never leave a caller with a dangling pointer.
  Result<std::shared_ptr<DatasetEntry>> GetDataset(const std::string& name,
                                                   const Deadline& deadline);

  void RecordOutcome(ServeVerb verb, StatusCode code, uint64_t micros);

  ServeServerOptions options_;
  Env* env_ = nullptr;
  std::optional<ArtifactCache> cache_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Listener> listener_;
  int port_ = 0;
  std::string address_;

  std::thread accept_thread_;
  std::atomic<bool> stop_{false};
  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;

  std::mutex conn_mutex_;
  std::vector<std::thread> conn_threads_;
  std::atomic<uint32_t> open_connections_{0};

  /// Requests admitted and not yet answered; admission control's gauge.
  std::atomic<uint32_t> in_flight_{0};

  std::mutex datasets_mutex_;
  /// shared_ptr values: a failed load erases its placeholder entry while
  /// other threads may still hold it (they retry against the orphan).
  std::map<std::string, std::shared_ptr<DatasetEntry>> datasets_;

  /// Serialized-summary memo: dataset + fingerprint hex -> wire payload.
  /// Bounded; cleared wholesale when it outgrows its budget.
  std::mutex memo_mutex_;
  std::map<std::string, std::string> summary_memo_;

  mutable std::mutex metrics_mutex_;
  ServeMetrics counters_;
  std::vector<uint32_t> latency_ring_;  ///< microseconds, fixed capacity
  size_t latency_next_ = 0;
  size_t latency_count_ = 0;
};

}  // namespace ssum
