// Scenario matrix: runs the full annotate -> matrices -> summarize pipeline
// over every case file in bench/scenarios/ (datasets/scenario.h), gating
// per-case determinism and sanity invariants.
//
//   scenario_matrix [--tier quick|full|all] [--case NAME] [--dir DIR]
//                   [--threads N]
//
// Gates (a violated gate fails the run, every build type):
//   - annotation determinism: the sharded pass (t=1 and t=8, auto shard
//     count) must be bit-identical to the serial traversal, and a serial
//     rerun must reproduce itself exactly;
//   - summary determinism: Summarize at thread counts {1, 8} and a repeated
//     t=8 run must yield identical selections and group assignments;
//   - budget: 0 < |summary| <= bench.summary_k, and the summary passes
//     ValidateSummary (Definition 2 invariants);
//   - coverage monotone in k: SelectMaxCoverage coverage must be
//     non-decreasing over increasing k;
//   - workload: the scenario samples at least one query.
//
// Every run checks the gates and nothing else; timings live in the
// benchmark (perfbench/README.md). --tier selects which cases run: per-PR
// CI runs quick (the default), the nightly matrix runs full or all. --case
// restricts to one case by name.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/metrics.h"
#include "core/summarize.h"
#include "datasets/scenario.h"
#include "stats/annotate.h"

#ifndef SSUM_SCENARIO_CASE_DIR
#define SSUM_SCENARIO_CASE_DIR "bench/scenarios"
#endif

namespace {

using namespace ssum;

struct KPoint {
  size_t k;
  double coverage;
};

struct CaseReport {
  std::string name;
  std::string tier;
  size_t elements = 0;
  uint64_t units = 0;
  uint64_t data_nodes = 0;
  size_t queries = 0;
  size_t k = 0;
  size_t summary_size = 0;
  bool deterministic = true;
  bool gates_ok = true;
  std::vector<KPoint> k_sweep;
};

bool SameSummary(const SchemaSummary& a, const SchemaSummary& b) {
  return a.abstract_elements == b.abstract_elements &&
         a.representative == b.representative;
}

/// Runs one case end to end. Returns false when a gate or determinism check
/// failed (details already on stderr).
bool RunCase(const ScenarioSpec& spec, CaseReport* report) {
  bool ok = true;
  report->name = spec.name;
  report->tier = spec.tier;
  report->k = spec.summary_k;

  auto made = ScenarioDataset::Make(spec);
  if (!made.ok()) {
    std::fprintf(stderr, "REGRESSION: %s: generation failed: %s\n",
                 spec.name.c_str(), made.status().ToString().c_str());
    report->gates_ok = false;
    return false;
  }
  const ScenarioDataset& ds = *made;
  report->elements = ds.schema().size();
  report->units = ds.NumUnits();

  // --- annotation determinism: serial vs sharded vs rerun ------------------
  Annotations serial;
  {
    auto r = AnnotateSchema(*ds.MakeStream());
    if (!r.ok()) {
      std::fprintf(stderr, "REGRESSION: %s: serial annotate failed: %s\n",
                   spec.name.c_str(), r.status().ToString().c_str());
      report->gates_ok = false;
      return false;
    }
    serial = std::move(*r);
  }
  report->data_nodes = serial.TotalNodes();
  if (report->data_nodes == 0) {
    std::fprintf(stderr, "REGRESSION: %s: scenario produced no data nodes\n",
                 spec.name.c_str());
    report->gates_ok = false;
    ok = false;
  }

  auto source = ds.MakeShardedSource();
  for (uint32_t threads : {1u, 8u}) {
    ShardedAnnotateOptions opts;
    opts.parallel.threads = threads;
    auto r = AnnotateSchemaSharded(*source, opts);
    if (!r.ok() || !(*r == serial)) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: %s: sharded annotation (t=%u) "
                   "differs from the serial pass\n",
                   spec.name.c_str(), threads);
      report->deterministic = false;
      ok = false;
    }
  }
  {
    auto rerun = AnnotateSchema(*ds.MakeStream());
    if (!rerun.ok() || !(*rerun == serial)) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: %s: serial annotation rerun "
                   "diverged\n",
                   spec.name.c_str());
      report->deterministic = false;
      ok = false;
    }
  }

  // --- workload ------------------------------------------------------------
  {
    auto workload = ds.Queries(serial);
    if (!workload.ok() || workload->queries.empty()) {
      std::fprintf(stderr, "REGRESSION: %s: scenario workload is empty\n",
                   spec.name.c_str());
      report->gates_ok = false;
      ok = false;
    } else {
      report->queries = workload->queries.size();
    }
  }

  // --- summary determinism + budget ----------------------------------------
  SchemaSummary summary;
  {
    SummarizeOptions opts;
    opts.parallel.threads = 1;
    auto t1 = Summarize(ds.schema(), serial, spec.summary_k,
                        Algorithm::kBalanceSummary, opts);
    opts.parallel.threads = 8;
    auto t8 = Summarize(ds.schema(), serial, spec.summary_k,
                        Algorithm::kBalanceSummary, opts);
    auto t8b = Summarize(ds.schema(), serial, spec.summary_k,
                         Algorithm::kBalanceSummary, opts);
    if (!t1.ok() || !t8.ok() || !t8b.ok()) {
      std::fprintf(stderr, "REGRESSION: %s: summarize failed: %s\n",
                   spec.name.c_str(),
                   (!t1.ok() ? t1.status() : !t8.ok() ? t8.status()
                                                      : t8b.status())
                       .ToString()
                       .c_str());
      report->gates_ok = false;
      return false;
    }
    if (!SameSummary(*t1, *t8) || !SameSummary(*t8, *t8b)) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: %s: summary differs across thread "
                   "counts or reruns\n",
                   spec.name.c_str());
      report->deterministic = false;
      ok = false;
    }
    summary = std::move(*t1);
  }
  report->summary_size = summary.size();
  if (summary.size() == 0 || summary.size() > spec.summary_k) {
    std::fprintf(stderr,
                 "REGRESSION: %s: summary size %zu violates budget (0, %u]\n",
                 spec.name.c_str(), summary.size(), spec.summary_k);
    report->gates_ok = false;
    ok = false;
  }
  if (Status v = ValidateSummary(summary); !v.ok()) {
    std::fprintf(stderr, "REGRESSION: %s: summary invariants violated: %s\n",
                 spec.name.c_str(), v.ToString().c_str());
    report->gates_ok = false;
    ok = false;
  }

  // --- coverage monotone in k ----------------------------------------------
  {
    auto context = SummarizerContext::Make(ds.schema(), serial).ValueOrDie();
    const size_t candidates = context.dominance().candidates.size();
    std::vector<size_t> ks = {2, std::max<size_t>(3, spec.summary_k / 2),
                              spec.summary_k};
    for (size_t& k : ks) k = std::min(k, candidates);
    ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
    std::sort(ks.begin(), ks.end());
    double prev = -1.0;
    for (size_t k : ks) {
      if (k == 0) continue;
      auto sel = SelectMaxCoverage(context, k);
      if (!sel.ok()) {
        std::fprintf(stderr, "REGRESSION: %s: SelectMaxCoverage(k=%zu): %s\n",
                     spec.name.c_str(), k, sel.status().ToString().c_str());
        report->gates_ok = false;
        ok = false;
        break;
      }
      const double cov = CoverageOfSet(context.graph(), context.affinity(),
                                       context.coverage(), *sel);
      report->k_sweep.push_back({k, cov});
      if (cov < prev - 1e-9) {
        std::fprintf(stderr,
                     "REGRESSION: %s: coverage not monotone in k "
                     "(k=%zu cov %.6f < %.6f)\n",
                     spec.name.c_str(), k, cov, prev);
        report->gates_ok = false;
        ok = false;
      }
      prev = std::max(prev, cov);
    }
  }

  return ok;
}

void PrintCase(const CaseReport& r) {
  std::printf(
      "%-15s (%s, %zu elements, %llu units, %llu nodes, %zu queries)\n"
      "  |summary| %zu/%zu   %s\n  coverage sweep:",
      r.name.c_str(), r.tier.c_str(), r.elements,
      static_cast<unsigned long long>(r.units),
      static_cast<unsigned long long>(r.data_nodes), r.queries,
      r.summary_size, r.k, r.deterministic && r.gates_ok ? "ok" : "FAILED");
  for (const KPoint& p : r.k_sweep) {
    std::printf("  k=%zu %.4f", p.k, p.coverage);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  ssum::ConsumeThreadsFlag(&argc, argv);
  std::string tier = "quick";
  std::string only_case;
  std::string dir = SSUM_SCENARIO_CASE_DIR;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--tier" && i + 1 < argc) {
      tier = argv[++i];
    } else if (a == "--case" && i + 1 < argc) {
      only_case = argv[++i];
    } else if (a == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: scenario_matrix [--tier quick|full|all] "
                   "[--case NAME] [--dir DIR]\n");
      return 2;
    }
  }
  if (tier != "quick" && tier != "full" && tier != "all") {
    std::fprintf(stderr, "scenario_matrix: unknown --tier '%s'\n",
                 tier.c_str());
    return 2;
  }
  std::vector<std::string> files;
  {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      if (entry.path().extension() == ".scn") {
        files.push_back(entry.path().string());
      }
    }
    if (ec) {
      std::fprintf(stderr, "scenario_matrix: cannot read case dir %s: %s\n",
                   dir.c_str(), ec.message().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());  // deterministic case order

  std::printf("scenario matrix — tier %s, %zu case file(s) in %s\n\n",
              tier.c_str(), files.size(), dir.c_str());

  bool all_ok = true;
  std::vector<CaseReport> reports;
  for (const std::string& file : files) {
    auto spec = ssum::LoadScenarioSpecFile(file);
    if (!spec.ok()) {
      std::fprintf(stderr, "REGRESSION: %s: %s\n", file.c_str(),
                   spec.status().ToString().c_str());
      all_ok = false;
      continue;
    }
    if (tier != "all" && spec->tier != tier) continue;
    if (!only_case.empty() && spec->name != only_case) continue;
    CaseReport report;
    if (!RunCase(*spec, &report)) all_ok = false;
    PrintCase(report);
    reports.push_back(std::move(report));
  }

  if (reports.empty()) {
    std::fprintf(stderr,
                 "scenario_matrix: no case matched (tier %s, case '%s')\n",
                 tier.c_str(), only_case.c_str());
    return 2;
  }
  if (!all_ok) {
    std::fprintf(stderr, "BENCH GATE FAILED (see lines above)\n");
    return 1;
  }
  std::printf("\nall %zu case(s) passed determinism + sanity gates\n",
              reports.size());
  return 0;
}
