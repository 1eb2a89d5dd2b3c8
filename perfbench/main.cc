// ssum benchmark: runs one workload and prints the environment header, the
// record (regime fields and the workload's named metrics) and, as the last
// line, one JSON object with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). perfbench/run.py builds and drives it.
//
//   ssum_perfbench --workload W --seed N --seconds S --trace 0|1
//                  --expected-dir DIR --work-dir DIR [--revision R] [--pin]

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/buildinfo.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "harness.h"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload reports every metric below; BENCHMARK.json lists the same
// names and units (run.py checks that they agree).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_median_ms", "ms"},
    {"op_tail_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kLayers[] = {
    {"annotate.ms", "ms"},
    {"annotate.nodes", "count"},
    {"annotate.mnodes_per_s", "Mnodes/s"},
    {"annotate.share", "ratio"},
    {"delta.ms", "ms"},
    {"delta.dirty_units", "count"},
    {"delta.dirty_fraction", "ratio"},
    {"delta.lineage_hops", "count"},
    {"delta.incremental_ratio", "ratio"},
    {"edge_metrics.ms", "ms"},
    {"importance.ms", "ms"},
    {"importance.iterations", "count"},
    {"context.make.ms", "ms"},
    {"context.make_incremental.ms", "ms"},
    {"affinity.ms", "ms"},
    {"coverage.ms", "ms"},
    {"matrix.bytes", "bytes"},
    {"affinity.rows_rewalked", "count"},
    {"coverage.rows_rewalked", "count"},
    {"patch.engaged_ratio", "ratio"},
    {"dominance.ms", "ms"},
    {"dominance.pairs_tested", "count"},
    {"dominance.pairs_found", "count"},
    {"dominance.found_ratio", "ratio"},
    {"dominance.candidates", "count"},
    {"select.max_importance.ms", "ms"},
    {"select.balanced.ms", "ms"},
    {"select.max_coverage.ms", "ms"},
    {"select.max_coverage.enumerate_calls", "count"},
    {"select.max_coverage.greedy_calls", "count"},
    {"select.max_coverage.degenerate_calls", "count"},
    {"select.max_coverage.approx_calls", "count"},
    {"select.max_coverage.combinations", "count"},
    {"select.max_coverage.budget", "count"},
    {"approx.sketch_ms", "ms"},
    {"approx.prune_ms", "ms"},
    {"approx.celf_ms", "ms"},
    {"approx.kept_ratio", "ratio"},
    {"approx.sketch_width", "count"},
    {"build_summary.ms", "ms"},
    {"core_kernels.share", "ratio"},
    {"cache.load_ms", "ms"},
    {"cache.store_ms", "ms"},
    {"cache.matrix_load_ms", "ms"},
    {"cache.matrix_store_ms", "ms"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.installs", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.bytes_read", "bytes"},
    {"cache.bytes_written", "bytes"},
    {"serve.rtt_us.summarize", "us"},
    {"serve.rtt_us.discover", "us"},
    {"serve.execute_us.summarize", "us"},
    {"serve.execute_us.discover", "us"},
    {"serve.wire_us", "us"},
    {"serve.server_p50_us", "us"},
    {"serve.server_p99_us", "us"},
    {"serve.keepalive_ratio", "ratio"},
    {"serve.unavailable", "count"},
    {"discover.ms", "ms"},
    {"discover.cost_without_summary", "count"},
    {"discover.cost_with_summary", "count"},
    {"self_ms.bench", "ms"},
    {"self_ms.datasets", "ms"},
    {"self_ms.stats", "ms"},
    {"self_ms.core", "ms"},
    {"self_ms.serve", "ms"},
    {"op.ms", "ms"},
    {"trace_overhead", "ratio"},
    {"trace.accounted_ratio", "ratio"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: ssum_perfbench --workload "
               "paper_cold|wide_schema|version_chain|serve_warm --seed N "
               "--seconds S --trace 0|1 --expected-dir DIR --work-dir DIR "
               "[--revision R] [--pin]\n");
  return 2;
}

/// Shortest text that reads back as exactly `v`.
std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

/// Ratios the acceptance criteria read, from the per-op stage times.
void AddShares(Report* report) {
  auto& layer = report->layer;
  const double op = layer["op.ms"];
  if (op <= 0) return;
  layer["annotate.share"] = layer["annotate.ms"] / op;
  layer["core_kernels.share"] =
      (layer["affinity.ms"] + layer["coverage.ms"] + layer["dominance.ms"] +
       layer["select.max_importance.ms"] + layer["select.balanced.ms"] +
       layer["select.max_coverage.ms"]) /
      op;
  if (layer["dominance.pairs_tested"] > 0) {
    layer["dominance.found_ratio"] =
        layer["dominance.pairs_found"] / layer["dominance.pairs_tested"];
  }
  layer["select.max_coverage.budget"] = static_cast<double>(
      ssum::SummarizeOptions{}.max_coverage_enumeration_budget);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = std::strtoull(value(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(value(), nullptr);
    } else if (a == "--trace") {
      args.trace = std::string(value()) == "1";
    } else if (a == "--expected-dir") {
      args.expected_dir = value();
    } else if (a == "--work-dir") {
      args.work_dir = value();
    } else if (a == "--revision") {
      args.revision = value();
    } else if (a == "--pin") {
      args.pin = true;
    } else {
      return Usage();
    }
  }
  if (args.expected_dir.empty() || args.work_dir.empty() ||
      !(args.seconds > 0)) {
    return Usage();
  }
  if (std::string(ssum::BuildType()) != "Release" || !ssum::IsReleaseBuild()) {
    std::fprintf(stderr,
                 "ssum_perfbench: refusing to measure a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 ssum::BuildType());
    return 2;
  }
  ssum::SetLogLevel(ssum::LogLevel::kWarning);
  ssum::SetDefaultThreadCount(kKernelThreads);
  std::filesystem::create_directories(args.work_dir);

  Report report;
  bool ran = false;
  if (args.workload == "paper_cold") {
    ran = RunPaperCold(args, &report);
  } else if (args.workload == "wide_schema") {
    ran = RunWideSchema(args, &report);
  } else if (args.workload == "version_chain") {
    ran = RunVersionChain(args, &report);
  } else if (args.workload == "serve_warm") {
    ran = RunServeWarm(args, &report);
  } else {
    return Usage();
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "ssum_perfbench: %s\n", e.c_str());
  }
  if (!ran) {
    std::fprintf(stderr, "ssum_perfbench: %s could not run\n",
                 args.workload.c_str());
    return 1;
  }
  if (args.pin) {
    std::printf("pinned %s expected outputs in %s\n", args.workload.c_str(),
                args.expected_dir.c_str());
    return 0;
  }

  std::printf("header build_type: %s\n", ssum::BuildType());
  std::printf("header hardware_threads: %u\n", ssum::HardwareThreadCount());
  std::printf("header kernel_threads: %u\n", kKernelThreads);
  std::printf("header serve_clients: %u\n", kServeClients);
  std::printf("header serve_workers: %u\n", kServeWorkers);
  std::printf("header workload: %s\n", args.workload.c_str());
  std::printf("header seed: %llu\n",
              static_cast<unsigned long long>(args.seed));
  std::printf("header seconds: %s\n", Number(args.seconds).c_str());
  std::printf("header trace: %d\n", args.trace ? 1 : 0);
  std::printf("header revision: %s\n", args.revision.c_str());
  std::printf("header cache_flush: fsync before rename (as shipped)\n");
  for (const auto& [key, value] : report.record) {
    std::printf("record %s: %s\n", key.c_str(), value.c_str());
  }
  std::printf("record failed_fraction: %s failed/attempted\n",
              Number(static_cast<double>(report.failed) /
                     static_cast<double>(std::max<uint64_t>(report.attempted, 1)))
                  .c_str());

  std::string metrics;
  auto add = [&metrics](const char* name, double value, const char* unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + name + "\": {\"value\": " + Number(value) +
               ", \"unit\": \"" + unit + "\"}";
  };
  if (!args.trace) {
    Samples setup;
    for (double s : report.setup_s) setup.Add(s);
    const double values[] = {
        setup.Median(),
        report.op_ms.Median(),
        report.op_tail_ms,
        report.throughput_per_s,
        report.peak_rss_mb,
    };
    std::printf("record ops: %zu samples, tail p%g with %zu beyond it\n",
                report.op_ms.size(), kTailPercentile,
                report.op_ms.Beyond(kTailPercentile));
    for (double p : {90.0, 99.0}) {
      std::printf("record op_p%g_ms: %s\n", p,
                  Number(report.op_ms.Percentile(p)).c_str());
    }

    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      std::printf("metric %s: %s %s\n", kEndToEnd[i].name,
                  Number(values[i]).c_str(), kEndToEnd[i].unit);
      add(kEndToEnd[i].name, values[i], kEndToEnd[i].unit);
    }
  } else {
    AddShares(&report);
    for (const MetricDef& def : kLayers) {
      add(def.name, report.layer[def.name], def.unit);
    }
  }
  const bool correct = report.failed == 0 && report.errors.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return correct ? 0 : 1;
}
