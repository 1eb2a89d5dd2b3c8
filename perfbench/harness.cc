#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/approx_cover.h"
#include "core/dominance.h"

namespace perfbench {

using namespace ssum;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// C(n, k) saturated at cap + 1 (the same saturation SelectMaxCoverage
/// compares against its budget).
uint64_t BinomialCapped(uint64_t n, uint64_t k, uint64_t cap) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  uint64_t result = 1;
  for (uint64_t i = 1; i <= k; ++i) {
    if (result > cap) return cap + 1;
    result = result * (n - k + i) / i;
  }
  return std::min(result, cap + 1);
}

/// A WritableFile whose every call counts as cache store time.
class CountingFile : public WritableFile {
 public:
  CountingFile(std::unique_ptr<WritableFile> base, CountingEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status Append(std::string_view data) override {
    return Timed(data.size(), [&] { return base_->Append(data); });
  }
  Status Flush() override {
    return Timed(0, [&] { return base_->Flush(); });
  }
  Status Sync() override {
    return Timed(0, [&] { return base_->Sync(); });
  }
  Status Close() override {
    return Timed(0, [&] { return base_->Close(); });
  }

 private:
  template <typename Fn>
  Status Timed(uint64_t bytes, const Fn& fn) {
    const auto t0 = Clock::now();
    Status s = fn();
    env_->AddStore(MsSince(t0), s.ok() ? bytes : 0);
    return s;
  }

  std::unique_ptr<WritableFile> base_;
  CountingEnv* env_;
};

}  // namespace

// --- Samples ---------------------------------------------------------------

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

size_t Samples::Beyond(double p) const {
  const double cut = Percentile(p);
  return static_cast<size_t>(std::count_if(
      values_.begin(), values_.end(), [cut](double v) { return v > cut; }));
}

// --- Trace -----------------------------------------------------------------

int32_t Trace::Open(const char* name) {
  records_.push_back({name, NowNs(), 0, open_, op_});
  open_ = static_cast<int32_t>(records_.size() - 1);
  return open_;
}

void Trace::Close(int32_t index) {
  records_[static_cast<size_t>(index)].end_ns = NowNs();
  open_ = records_[static_cast<size_t>(index)].parent;
}

void Trace::Merge(const Trace& other) {
  merged_.push_back(other.records_);
  for (const auto& more : other.merged_) merged_.push_back(more);
}

std::map<std::string, Trace::Stat> Trace::Aggregate() const {
  std::map<std::string, Stat> out;
  auto add = [&out](const std::vector<Record>& records) {
    std::vector<int64_t> child_ns(records.size(), 0);
    for (const Record& r : records) {
      if (r.parent >= 0) {
        child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
      }
    }
    for (size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      Stat& stat = out[r.name];
      stat.total_ms += static_cast<double>(r.end_ns - r.start_ns) / 1e6;
      stat.self_ms +=
          static_cast<double>(r.end_ns - r.start_ns - child_ns[i]) / 1e6;
      ++stat.calls;
    }
  };
  add(records_);
  for (const auto& records : merged_) add(records);
  return out;
}

// --- CountingEnv -----------------------------------------------------------

CountingEnv::Counters CountingEnv::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

void CountingEnv::AddStore(double ms, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.store_ms += ms;
  counters_.bytes_written += bytes;
}

Result<std::unique_ptr<WritableFile>> CountingEnv::NewWritableFile(
    const std::string& path) {
  auto file = Store([&] { return base_->NewWritableFile(path); });
  if (!file.ok()) return file.status();
  return std::unique_ptr<WritableFile>(
      std::make_unique<CountingFile>(std::move(*file), this));
}

Result<std::string> CountingEnv::ReadFile(const std::string& path) {
  const auto t0 = Clock::now();
  auto bytes = base_->ReadFile(path);
  const double ms = MsSince(t0);
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.load_ms += ms;
  if (bytes.ok()) counters_.bytes_read += bytes->size();
  return bytes;
}

Status CountingEnv::RenameFile(const std::string& from, const std::string& to) {
  return Store([&] { return base_->RenameFile(from, to); });
}

Status CountingEnv::RemoveFile(const std::string& path) {
  return Store([&] { return base_->RemoveFile(path); });
}

Status CountingEnv::CreateDirs(const std::string& path) {
  return Store([&] { return base_->CreateDirs(path); });
}

Status CountingEnv::SyncDir(const std::string& path) {
  return Store([&] { return base_->SyncDir(path); });
}

Result<bool> CountingEnv::FileExists(const std::string& path) {
  const auto t0 = Clock::now();
  auto exists = base_->FileExists(path);
  const double ms = MsSince(t0);
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.load_ms += ms;
  return exists;
}

Result<std::unique_ptr<FileLock>> CountingEnv::LockFile(
    const std::string& path) {
  return Store([&] { return base_->LockFile(path); });
}

Result<std::unique_ptr<Listener>> CountingEnv::NewListener(
    const std::string& addr) {
  return base_->NewListener(addr);
}

Result<std::unique_ptr<Connection>> CountingEnv::Connect(
    const std::string& addr) {
  return base_->Connect(addr);
}

// --- Expected --------------------------------------------------------------

namespace {

std::string JoinIds(const std::vector<ElementId>& ids) {
  std::string out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(ids[i]);
  }
  return out;
}

}  // namespace

bool Expected::Load() {
  if (pin_) return true;
  std::ifstream in(path_);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) return false;
    pinned_[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return true;
}

bool Expected::Check(const std::string& key, const std::vector<ElementId>& ids) {
  const std::string joined = JoinIds(ids);
  if (pin_) {
    pinned_[key] = joined;
    return true;
  }
  auto it = pinned_.find(key);
  return it != pinned_.end() && it->second == joined;
}

bool Expected::Write() const {
  std::ofstream out(path_, std::ios::trunc);
  out << "# Pinned selections: <input>/<algorithm>/<mode>/k=<k> <TAB> ids.\n"
      << "# Regenerate with: python3 perfbench/run.py --pin\n";
  for (const auto& [key, ids] : pinned_) out << key << '\t' << ids << '\n';
  return static_cast<bool>(out);
}

// --- Report ----------------------------------------------------------------

void Report::AddSetup(Clock::time_point start) {
  setup_s.push_back(MsSince(start) / 1000.0);
}

void Report::Fail(const std::string& why) {
  if (errors.size() < 20) errors.push_back(why);
}

void Report::Note(const std::string& key, const std::string& value) {
  record.emplace_back(key, value);
}

void Report::Note(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  record.emplace_back(key, buf);
}

// --- Timed loop ------------------------------------------------------------

uint64_t RunTimed(const Args& args, const TimedOp& op, Trace* trace,
                  Report* report) {
  uint64_t next = 0;
  uint64_t results = 0;
  // Runs ops until `seconds` of op time passed; verification is untimed.
  auto phase = [&](double seconds, Trace& tr, Samples* samples) {
    double op_time_s = 0;
    uint64_t ops = 0;
    while (ops == 0 || op_time_s < seconds) {
      const uint64_t index = next++;
      tr.BeginOp(index);
      const auto t0 = Clock::now();
      bool ok = tr.Span("bench:op", [&] { return op.run(index, tr); });
      const double ms = MsSince(t0);
      if (ok && op.verify) ok = op.verify(index);
      samples->Add(ms);
      if (report->peak_rss_mb == 0) report->peak_rss_mb = PeakRssMb();
      op_time_s += ms / 1000.0;
      ++ops;
      ++report->attempted;
      if (ok) {
        results += op.results_per_op;
      } else {
        ++report->failed;
      }
    }
    return std::pair<double, uint64_t>(op_time_s, ops);
  };
  Trace off(false);
  if (!args.trace) {
    const double op_time_s = phase(args.seconds, off, &report->op_ms).first;
    report->op_tail_ms = report->op_ms.Percentile(kTailPercentile);
    report->throughput_per_s = static_cast<double>(results) / op_time_s;
    return 0;
  }
  Samples untraced;
  phase(args.seconds / 2, off, &untraced);
  Samples traced;
  const uint64_t traced_ops = phase(args.seconds / 2, *trace, &traced).second;
  report->layer["trace_overhead"] = traced.Median() / untraced.Median() - 1.0;
  return traced_ops;
}

// --- Pipeline helpers ------------------------------------------------------

SummarizeOptions BaseOptions(SummaryMode mode) {
  SummarizeOptions options;
  options.mode = mode;
  options.parallel.threads = kKernelThreads;
  return options;
}

CoveragePath MaxCoveragePath(const SummarizerContext& context, size_t k) {
  const size_t candidates = context.dominance().candidates.size();
  const uint64_t budget = context.options().max_coverage_enumeration_budget;
  const uint64_t sets = BinomialCapped(candidates, k, budget);
  if (candidates <= k) return {"degenerate", sets};
  if (context.options().mode == SummaryMode::kApprox) return {"approx", sets};
  return {sets <= budget ? "enumerate" : "greedy", sets};
}

void AddSpanLayers(const Trace& trace, double ops, Report* report) {
  for (const auto& [name, stat] : trace.Aggregate()) {
    // Span names are "<module>:<stage>"; the stage's per-op total time is
    // "<stage>.ms" and the module's self time "self_ms.<module>".
    const size_t colon = name.find(':');
    const std::string module =
        colon == std::string::npos ? "bench" : name.substr(0, colon);
    const std::string stage =
        colon == std::string::npos ? name : name.substr(colon + 1);
    report->layer[stage + ".ms"] += stat.total_ms / ops;
    report->layer["self_ms." + module] += stat.self_ms / ops;
  }
}

double ProbeContextStages(const SchemaGraph& graph,
                          const Annotations& annotations, double uses,
                          double matrix_uses, Report* report) {
  const SummarizeOptions options = BaseOptions(SummaryMode::kExact);
  auto& layer = report->layer;
  double total = 0;
  auto stage = [&](const char* name, double scale, const auto& fn) {
    const auto t0 = Clock::now();
    auto result = fn();
    const double ms = MsSince(t0) * scale;
    layer[name] += ms;
    total += ms;
    return result;
  };
  const EdgeMetrics metrics = stage("edge_metrics.ms", uses, [&] {
    return EdgeMetrics::Compute(graph, annotations);
  });
  const ImportanceResult importance = stage("importance.ms", uses, [&] {
    return ComputeImportance(graph, annotations, metrics, options.importance);
  });
  layer["importance.iterations"] += importance.iterations * uses;
  auto affinity = stage("affinity.ms", matrix_uses, [&] {
    return AffinityMatrix::TryCompute(graph, metrics, options.affinity,
                                      options.parallel);
  });
  auto coverage = stage("coverage.ms", matrix_uses, [&] {
    return CoverageMatrix::TryCompute(graph, annotations, metrics,
                                      options.coverage, options.parallel);
  });
  if (!affinity.ok() || !coverage.ok()) {
    report->Fail("probe: matrix computation failed");
    return total;
  }
  const DominanceResult dominance = stage("dominance.ms", uses, [&] {
    return ComputeDominance(graph, annotations, *coverage);
  });

  uint64_t tested = 0;
  for (ElementId e = 0; e < graph.size(); ++e) {
    if (e == graph.root()) continue;
    for (ElementId anc : ExtendedAncestors(graph, e)) {
      tested += anc != graph.root() ? 1 : 0;
    }
  }
  layer["dominance.pairs_tested"] += static_cast<double>(tested) * uses;
  layer["dominance.pairs_found"] +=
      static_cast<double>(dominance.pairs.size()) * uses;
  layer["dominance.candidates"] +=
      static_cast<double>(dominance.candidates.size()) * uses;
  const double n = static_cast<double>(graph.size());
  layer["matrix.bytes"] += 2 * 8 * n * n;
  return total;
}

void ProbeApproxStages(const SummarizerContext& context, size_t k, double uses,
                       Report* report) {
  const std::vector<ElementId>& cands = context.dominance().candidates;
  if (cands.size() <= k) return;  // SelectMaxCoverage's degenerate branch
  ApproxCoverOptions approx;
  approx.epsilon = context.options().approx_epsilon;
  approx.parallel = context.options().parallel;
  auto& layer = report->layer;
  auto t0 = Clock::now();
  auto sketches =
      TryBuildCoverageSketches(context.graph(), context.coverage(), cands,
                               approx);
  layer["approx.sketch_ms"] += MsSince(t0) * uses;
  if (!sketches.ok()) {
    report->Fail("probe: sketch construction failed");
    return;
  }
  t0 = Clock::now();
  const std::vector<uint32_t> kept = PruneDominatedSketches(*sketches);
  layer["approx.prune_ms"] += MsSince(t0) * uses;
  t0 = Clock::now();
  (void)SelectLazyGreedy(context.graph().size(), *sketches, kept, k);
  layer["approx.celf_ms"] += MsSince(t0) * uses;

  double width = 0;
  for (const CoverageSketch& s : *sketches) width += s.width();
  // Ratios, not sums: the last probe's values stand.
  layer["approx.kept_ratio"] =
      static_cast<double>(kept.size()) / static_cast<double>(sketches->size());
  layer["approx.sketch_width"] = width / static_cast<double>(sketches->size());
}

void AddCacheLayers(const CacheCounters& counters,
                    const CountingEnv::Counters& io, double ops,
                    Report* report) {
  auto& layer = report->layer;
  layer["cache.hits"] = static_cast<double>(counters.hits) / ops;
  layer["cache.misses"] = static_cast<double>(counters.misses) / ops;
  layer["cache.installs"] = static_cast<double>(counters.installs) / ops;
  const uint64_t lookups = counters.hits + counters.misses;
  layer["cache.hit_ratio"] =
      lookups == 0 ? 0
                   : static_cast<double>(counters.hits) /
                         static_cast<double>(lookups);
  layer["cache.load_ms"] = io.load_ms / ops;
  layer["cache.store_ms"] = io.store_ms / ops;
  layer["cache.bytes_read"] = static_cast<double>(io.bytes_read) / ops;
  layer["cache.bytes_written"] = static_cast<double>(io.bytes_written) / ops;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
