// Shared pieces of the ssum benchmark: arguments, timing, the in-memory
// span trace, the counting Env that times cache IO, pinned expected
// outputs, and the report every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/env.h"
#include "core/summarize.h"
#include "store/artifact_cache.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Every kernel runs at this thread count (recorded in the header). One
/// thread keeps the entry spans' inner stages serial, so the stage probes
/// add up to the entry span and timings do not depend on what else the
/// host runs.
inline constexpr uint32_t kKernelThreads = 1;

/// serve_warm's client threads and server workers: together no more than
/// the 4 hardware threads of the reference host.
inline constexpr uint32_t kServeClients = 2;
inline constexpr uint32_t kServeWorkers = 2;

/// Every workload's tail percentile: the p90 of its op times. (serve_warm
/// prints its p99 as a record line; run to run it spreads too widely on a
/// shared host to carry a bound.)
inline constexpr double kTailPercentile = 90;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Rewrite the pinned expected outputs instead of measuring.
  bool pin = false;
  std::string expected_dir;  ///< perfbench/expected
  std::string work_dir;      ///< scratch directory inside the checkout
  std::string revision = "unknown";
};

/// Sorted-sample statistics. Percentiles use the nearest-rank rule.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  double Median() const { return Percentile(50); }
  double Percentile(double p) const;
  /// Samples strictly above Percentile(p).
  size_t Beyond(double p) const;

 private:
  std::vector<double> values_;
};

/// In-memory span trace. A span records its name, start, end, parent span
/// and op id; spans are aggregated when the run ends. A disabled trace
/// calls straight through.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void BeginOp(uint64_t op_id) { op_ = op_id; }

  template <typename Fn>
  auto Span(const char* name, Fn&& fn) -> decltype(fn()) {
    if (!enabled_) return fn();
    const int32_t index = Open(name);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Close(index);
    } else {
      auto result = fn();
      Close(index);
      return result;
    }
  }

  struct Stat {
    double total_ms = 0;
    double self_ms = 0;
    uint64_t calls = 0;
  };
  /// Per span name: total and self time (duration minus the time its
  /// direct children cover) and call count.
  std::map<std::string, Stat> Aggregate() const;
  /// Adds `other`'s spans (another thread's trace) to this one's aggregate.
  void Merge(const Trace& other);

 private:
  struct Record {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    uint64_t op;
  };
  int32_t Open(const char* name);
  void Close(int32_t index);

  bool enabled_;
  uint64_t op_ = 0;
  int32_t open_ = -1;
  std::vector<Record> records_;
  std::vector<std::vector<Record>> merged_;
};

/// Env wrapper that times and counts the artifact cache's file IO (reads,
/// and every step of an install) and forwards everything else.
class CountingEnv : public ssum::Env {
 public:
  CountingEnv() : base_(ssum::Env::Default()) {}

  struct Counters {
    double load_ms = 0;
    double store_ms = 0;
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
  };
  Counters counters() const;

  ssum::Result<std::unique_ptr<ssum::WritableFile>> NewWritableFile(
      const std::string& path) override;
  ssum::Result<std::string> ReadFile(const std::string& path) override;
  ssum::Status RenameFile(const std::string& from,
                          const std::string& to) override;
  ssum::Status RemoveFile(const std::string& path) override;
  ssum::Status CreateDirs(const std::string& path) override;
  ssum::Status SyncDir(const std::string& path) override;
  ssum::Result<bool> FileExists(const std::string& path) override;
  ssum::Result<std::unique_ptr<ssum::FileLock>> LockFile(
      const std::string& path) override;
  ssum::Result<std::unique_ptr<ssum::Listener>> NewListener(
      const std::string& addr) override;
  ssum::Result<std::unique_ptr<ssum::Connection>> Connect(
      const std::string& addr) override;

  void AddStore(double ms, uint64_t bytes);

 private:
  /// Runs one step of an install, counting its time as store time.
  template <typename Fn>
  auto Store(const Fn& fn) -> decltype(fn()) {
    const auto t0 = Clock::now();
    auto result = fn();
    AddStore(MsSince(t0), 0);
    return result;
  }

  ssum::Env* base_;
  mutable std::mutex mutex_;
  Counters counters_;
};

/// Pinned expected outputs: "<key>\t<comma-separated element ids>" lines.
/// In pin mode the computed selections are recorded and written back.
class Expected {
 public:
  Expected(std::string path, bool pin) : path_(std::move(path)), pin_(pin) {}
  /// Loads the file (pin mode starts empty). False when it is unreadable.
  bool Load();
  /// True when `ids` equals the pinned selection for `key` (pin mode
  /// records it and returns true). An unknown key is a mismatch.
  bool Check(const std::string& key, const std::vector<ssum::ElementId>& ids);
  bool Write() const;

 private:
  std::string path_;
  bool pin_;
  std::map<std::string, std::string> pinned_;
};

/// What a workload reports. End-to-end metrics come from the untraced
/// timed phase; layer metrics from the traced phase and the probes.
struct Report {
  // End-to-end.
  std::vector<double> setup_s;  ///< one value per repeated set-up
  Samples op_ms;
  double op_tail_ms = 0;
  double throughput_per_s = 0;  ///< summaries (or requests) per second
  /// Peak RSS once set-up and the first timed op are done. Later ops only
  /// add allocator fragmentation, which varies from run to run.
  double peak_rss_mb = 0;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Regime fields and the workload's named metrics, printed as the record.
  std::vector<std::pair<std::string, std::string>> record;
  /// Layer metrics (traced run only); names not set report 0.
  std::map<std::string, double> layer;

  /// Records one set-up that started at `start`.
  void AddSetup(Clock::time_point start);
  void Fail(const std::string& why);
  void Note(const std::string& key, const std::string& value);
  void Note(const std::string& key, double value);
};

/// A workload's op. `run` executes op number `index` under `trace` and
/// returns false when it failed; `verify` (may be empty) runs after an op,
/// outside the timed region, and returns false when the output is wrong.
struct TimedOp {
  std::function<bool(uint64_t index, Trace& trace)> run;
  std::function<bool(uint64_t index)> verify;
  uint64_t results_per_op = 1;
};

/// Runs the op back to back until `args.seconds` of op time have passed.
/// Untraced, it fills report->op_ms, op_tail_ms and throughput_per_s (results
/// per second of op time; checks between ops are not timed). Traced, it runs
/// half the time untraced and half under `trace`, sets trace_overhead from
/// the two medians, and returns the number of traced ops.
uint64_t RunTimed(const Args& args, const TimedOp& op, Trace* trace,
                  Report* report);

/// Options every workload summarizes with: defaults at kKernelThreads.
ssum::SummarizeOptions BaseOptions(ssum::SummaryMode mode);

/// The MaxCoverage path SelectMaxCoverage takes on `context` at `k`
/// ("degenerate", "approx", "enumerate" or "greedy") and C(|CS|, k)
/// saturated at budget + 1.
struct CoveragePath {
  const char* path;
  uint64_t combinations;
};
CoveragePath MaxCoveragePath(const ssum::SummarizerContext& context, size_t k);

/// Adds the trace's per-layer self times and the entry-span totals the
/// workloads share to `report->layer`, per op.
void AddSpanLayers(const Trace& trace, double ops, Report* report);

/// Times the stages SummarizerContext::Make runs, once, on one input, and
/// adds them to the report per op: EdgeMetrics, importance and dominance
/// scaled by `uses` (the times an op runs them on that input), the two
/// matrices by `matrix_uses`. Returns the scaled stage time in ms.
double ProbeContextStages(const ssum::SchemaGraph& graph,
                          const ssum::Annotations& annotations, double uses,
                          double matrix_uses, Report* report);

/// Times the approx selection stages on `context` at `k`, once, scaled by
/// `uses` per op.
void ProbeApproxStages(const ssum::SummarizerContext& context, size_t k,
                       double uses, Report* report);

void AddCacheLayers(const ssum::CacheCounters& counters,
                    const CountingEnv::Counters& io, double ops,
                    Report* report);

double PeakRssMb();

/// The workloads, one file each. Each fills `report`; a false return means
/// the workload could not run at all (set-up failed).
bool RunPaperCold(const Args& args, Report* report);
bool RunWideSchema(const Args& args, Report* report);
bool RunVersionChain(const Args& args, Report* report);
bool RunServeWarm(const Args& args, Report* report);

}  // namespace perfbench
