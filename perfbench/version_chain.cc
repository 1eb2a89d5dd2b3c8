// version_chain: one op is one version step of the CLI's `summarize --base`
// flow on a mid-size scenario (~500 elements, 50k zipf units) through an
// on-disk ArtifactCache: AnnotateScenarioDelta with lineage reads, a warm
// base Make that loads both matrices, MakeIncremental (patch or fallback,
// plus installs), then the summary. The delta walk, matrix patching,
// dominance reuse and cache IO show here; nowhere else is the store on the
// timed path.

#include <algorithm>
#include <filesystem>
#include <optional>
#include <set>
#include <string>

#include "common/hash.h"
#include "store/fingerprint.h"
#include "datasets/scenario.h"
#include "harness.h"

namespace perfbench {

using namespace ssum;

namespace {

/// Steps per lap. Every lap starts again from the pristine base version,
/// so lineage chains stay below ArtifactCache::kMaxLineageDepth and every
/// step is incremental without another cold version.
constexpr uint64_t kLapSteps = 6;
static_assert(kLapSteps < ArtifactCache::kMaxLineageDepth);
constexpr size_t kSummarySize = 8;
/// Checked against a cold summarize of the same version, outside the timed
/// region: the first step and every this-many after it.
constexpr uint64_t kVerifyEvery = 16;

ScenarioSpec ChainSpec(uint64_t mutate_seed) {
  ScenarioSpec spec;
  spec.name = "chain";
  spec.seed = 23;
  spec.schema_elements = 512;
  spec.entity_classes = 16;
  spec.instance_units = 50000;
  spec.unit_skew = "zipf";
  spec.summary_k = kSummarySize;
  if (mutate_seed != 0) {
    spec.mutate_seed = mutate_seed;
    spec.mutate_fraction = 0.02;
  }
  return spec;
}

/// Mutation seed of step `index`'s version, never 0 (0 is the pristine base).
uint64_t MutateSeed(uint64_t seed, uint64_t index) {
  Fnv1a64 h;
  h.UpdateU64(seed);
  h.UpdateU64(index);
  return h.Digest() | 1;
}

struct StepTotals {
  uint64_t steps = 0;
  uint64_t incremental = 0;
  double dirty_units = 0;
  double dirty_fraction = 0;
  double lineage_hops = 0;
  uint64_t max_hops = 0;
  double affinity_rewalked = 0;
  double coverage_rewalked = 0;
  uint64_t patched = 0;  ///< matrices patched (two per step at most)
  CacheCounters cache;
  CountingEnv::Counters io;
};

struct Chain {
  const Args* args = nullptr;
  Report* report = nullptr;
  CountingEnv env;
  std::optional<ArtifactCache> cache;
  std::optional<ScenarioDataset> pristine;
  Annotations pristine_annotations;
  /// Base of the next step: the previous step's version within a lap.
  std::optional<ScenarioDataset> previous;
  /// Last step's output, for the untimed cold check.
  std::vector<ElementId> selected;
  std::vector<ElementId> representative;
  StepTotals untraced, traced;
  std::string dir;
  /// Cache files the cold first version left; later ones are dropped after
  /// each lap so the directory does not grow with the run.
  std::set<std::string> setup_files;

  /// The cold first version: annotate and install, build and install the
  /// matrices, summarize. Pinned, since it does not depend on the seed.
  bool ColdFirstVersion(Expected& expected) {
    std::filesystem::remove_all(dir);
    cache.reset();
    cache.emplace(dir, &env);
    auto made = ScenarioDataset::Make(ChainSpec(0));
    if (!made.ok()) return false;
    pristine.emplace(std::move(*made));
    auto bundle = LoadScenario(ChainSpec(0), &*cache);
    if (!bundle.ok()) return false;
    pristine_annotations = bundle->annotations;
    auto context = SummarizerContext::Make(
        bundle->schema, bundle->annotations, BaseOptions(SummaryMode::kExact),
        &*cache);
    if (!context.ok()) return false;
    auto summary = Summarize(*context, kSummarySize,
                             Algorithm::kBalanceSummary);
    if (!summary.ok()) return false;
    const std::string key = "chain/v0/BalanceSummary/exact/k=" +
                            std::to_string(kSummarySize);
    if (!expected.Check(key, summary->abstract_elements)) {
      report->Fail(key + ": selection differs from the pinned one");
      return false;
    }
    setup_files.clear();
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      setup_files.insert(entry.path().filename().string());
    }
    return true;
  }

  /// After a lap's last step: removes the lap's versions from the cache.
  void DropLap(uint64_t index) {
    if (index % kLapSteps != kLapSteps - 1) return;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.is_regular_file() &&
          setup_files.count(entry.path().filename().string()) == 0) {
        std::filesystem::remove(entry.path());
      }
    }
  }

  bool Step(uint64_t index, Trace& trace) {
    const bool lap_start = index % kLapSteps == 0;
    const ScenarioDataset& base = lap_start ? *pristine : *previous;
    auto next = trace.Span("datasets:scenario", [&] {
      return ScenarioDataset::Make(ChainSpec(MutateSeed(args->seed, index)));
    });
    if (!next.ok()) {
      report->Fail("scenario: " + next.status().ToString());
      return false;
    }
    const CacheCounters before = cache->session_counters();
    const CountingEnv::Counters io_before = env.counters();
    auto delta = trace.Span("stats:delta", [&] {
      return AnnotateScenarioDelta(base, *next, &*cache);
    });
    if (!delta.ok()) {
      report->Fail("AnnotateScenarioDelta: " + delta.status().ToString());
      return false;
    }
    bool ok = true;
    if (!delta->incremental) {
      report->Fail("step fell back to cold annotation: " +
                   delta->fallback_reason);
      ok = false;
    }
    MatrixPatchStats affinity_stats, coverage_stats;
    {
      auto base_context = trace.Span("core:context.make", [&] {
        return SummarizerContext::Make(base.schema(), delta->base_annotations,
                                       BaseOptions(SummaryMode::kExact),
                                       &*cache);
      });
      if (!base_context.ok()) {
        report->Fail("Make: " + base_context.status().ToString());
        return false;
      }
      if (base_context->matrices_loaded_from_cache() != 2) {
        report->Fail("base matrices were not loaded from the cache");
        ok = false;
      }
      auto context = trace.Span("core:context.make_incremental", [&] {
        return SummarizerContext::MakeIncremental(
            *base_context, delta->annotations, &*cache, MatrixPatchOptions{},
            &affinity_stats, &coverage_stats);
      });
      if (!context.ok()) {
        report->Fail("MakeIncremental: " + context.status().ToString());
        return false;
      }
      auto chosen = trace.Span("core:select.balanced", [&] {
        return SelectBalanced(*context, kSummarySize);
      });
      if (!chosen.ok()) {
        report->Fail("select: " + chosen.status().ToString());
        return false;
      }
      auto summary = trace.Span("core:build_summary", [&] {
        return BuildSummary(context->graph(), context->affinity(),
                            context->coverage(), *chosen);
      });
      if (!summary.ok()) {
        report->Fail("BuildSummary: " + summary.status().ToString());
        return false;
      }
      selected = summary->abstract_elements;
      representative = summary->representative;
    }
    const CacheCounters after = cache->session_counters();
    const CountingEnv::Counters io_after = env.counters();
    if (after.hits == before.hits || after.installs == before.installs) {
      report->Fail("step without both cache hits and installs");
      ok = false;
    }

    StepTotals& totals = trace.enabled() ? traced : untraced;
    totals.cache.hits += after.hits - before.hits;
    totals.cache.misses += after.misses - before.misses;
    totals.cache.installs += after.installs - before.installs;
    totals.io.load_ms += io_after.load_ms - io_before.load_ms;
    totals.io.store_ms += io_after.store_ms - io_before.store_ms;
    totals.io.bytes_read += io_after.bytes_read - io_before.bytes_read;
    totals.io.bytes_written += io_after.bytes_written - io_before.bytes_written;
    ++totals.steps;
    totals.incremental += delta->incremental ? 1 : 0;
    totals.dirty_units += static_cast<double>(delta->dirty_units);
    totals.dirty_fraction += static_cast<double>(delta->dirty_units) /
                             static_cast<double>(delta->total_units);
    totals.lineage_hops += delta->lineage_hops;
    totals.max_hops = std::max<uint64_t>(totals.max_hops, delta->lineage_hops);
    // A fallback re-walks every row.
    totals.affinity_rewalked += static_cast<double>(
        affinity_stats.patched ? affinity_stats.dirty_rows
                               : affinity_stats.total_rows);
    totals.coverage_rewalked += static_cast<double>(
        coverage_stats.patched ? coverage_stats.dirty_rows
                               : coverage_stats.total_rows);
    totals.patched += (affinity_stats.patched ? 1 : 0) +
                      (coverage_stats.patched ? 1 : 0);
    previous.emplace(std::move(*next));
    return ok;
  }

  /// Cold summarize of the version the last step produced.
  bool Verify(uint64_t index) {
    DropLap(index);
    if (index % kVerifyEvery != 0) return true;
    auto ds = ScenarioDataset::Make(ChainSpec(MutateSeed(args->seed, index)));
    if (!ds.ok()) return false;
    auto annotations = AnnotateSchemaSharded(*ds->MakeShardedSource());
    if (!annotations.ok()) return false;
    auto summary = Summarize(ds->schema(), *annotations, kSummarySize,
                             Algorithm::kBalanceSummary,
                             BaseOptions(SummaryMode::kExact));
    if (!summary.ok() || summary->abstract_elements != selected ||
        summary->representative != representative) {
      report->Fail("step " + std::to_string(index) +
                   ": summary differs from a cold summarize");
      return false;
    }
    return true;
  }
};

}  // namespace

bool RunVersionChain(const Args& args, Report* report) {
  Expected expected(args.expected_dir + "/chain.txt", args.pin);
  if (!expected.Load()) {
    report->Fail("cannot read " + args.expected_dir + "/chain.txt");
    return false;
  }
  Chain chain;
  chain.args = &args;
  chain.report = report;
  chain.dir = args.work_dir + "/chain-cache";
  if (args.pin) return chain.ColdFirstVersion(expected) && expected.Write();
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    if (!chain.ColdFirstVersion(expected)) {
      report->Fail("cold first version failed");
      return false;
    }
    report->AddSetup(t0);
  }

  TimedOp op;
  op.run = [&](uint64_t index, Trace& trace) { return chain.Step(index, trace); };
  op.verify = [&](uint64_t index) { return chain.Verify(index); };
  Trace trace(args.trace);
  const uint64_t traced_ops = RunTimed(args, op, &trace, report);

  const StepTotals& totals = args.trace ? chain.traced : chain.untraced;
  const double steps = static_cast<double>(std::max<uint64_t>(totals.steps, 1));
  const double n = static_cast<double>(chain.pristine->schema().size());
  report->Note("regime.schema_elements", n);
  report->Note("regime.units",
               static_cast<double>(chain.pristine->NumUnits()));
  report->Note("regime.matrix_bytes", 2 * 8 * n * n);
  report->Note("regime.lap_steps", static_cast<double>(kLapSteps));
  report->Note("regime.dirty_fraction", totals.dirty_fraction / steps);
  report->Note("regime.lineage_hops_max", static_cast<double>(totals.max_hops));
  report->Note("regime.incremental_steps",
               std::to_string(totals.incremental) + "/" +
                   std::to_string(totals.steps));
  report->Note("regime.patch_engaged",
               std::to_string(totals.patched) + "/" +
                   std::to_string(2 * totals.steps) + " matrices");
  if (!args.trace) return true;

  const double ops = static_cast<double>(traced_ops);
  AddSpanLayers(trace, ops, report);
  auto& layer = report->layer;
  AddCacheLayers(totals.cache, totals.io, steps, report);
  layer["delta.dirty_units"] = totals.dirty_units / steps;
  layer["delta.dirty_fraction"] = totals.dirty_fraction / steps;
  layer["delta.lineage_hops"] = totals.lineage_hops / steps;
  layer["delta.incremental_ratio"] =
      static_cast<double>(totals.incremental) / steps;
  layer["affinity.rows_rewalked"] = totals.affinity_rewalked / steps;
  layer["coverage.rows_rewalked"] = totals.coverage_rewalked / steps;
  layer["patch.engaged_ratio"] =
      static_cast<double>(totals.patched) / (2 * steps);

  // Per step the warm base build loads both matrices and runs EdgeMetrics,
  // importance and dominance; MakeIncremental runs those three again, both
  // matrices (patched, or recomputed on fallback) and installs both.
  const SchemaGraph& schema = chain.pristine->schema();
  const Annotations& annotations = chain.pristine_annotations;
  double probed = ProbeContextStages(schema, annotations, 2, 1, report);
  const SummarizeOptions options = BaseOptions(SummaryMode::kExact);
  const Fingerprint key = MixFingerprints(
      MixFingerprints(FingerprintSchema(schema),
                      FingerprintAnnotations(annotations)),
      FingerprintMatrixOptions(options.affinity, options.coverage));
  for (const char* family :
       {ArtifactCache::kAffinityFamily, ArtifactCache::kCoverageFamily}) {
    auto t0 = Clock::now();
    auto matrix = chain.cache->LoadMatrix(family, key, schema.size());
    const double load_ms = MsSince(t0);
    if (!matrix.has_value()) return false;
    t0 = Clock::now();
    if (!chain.cache->StoreMatrix(family, key, *matrix).ok()) return false;
    const double store_ms = MsSince(t0);
    layer["cache.matrix_load_ms"] += load_ms;
    layer["cache.matrix_store_ms"] += store_ms;
    probed += load_ms + store_ms;
  }
  layer["trace.accounted_ratio"] =
      probed / (layer["context.make.ms"] + layer["context.make_incremental.ms"]);
  return true;
}

}  // namespace perfbench
