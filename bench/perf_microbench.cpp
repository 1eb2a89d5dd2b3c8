// Performance microbenchmarks (google-benchmark):
//  - annotateSchema throughput vs database size (the paper's linearity claim)
//  - importance iteration cost vs neighborhood factor p
//  - affinity / coverage matrix construction, walk-bound and thread ablations
//  - dominance computation on XMark and on a ~2k-element scenario
//  - MaxCoverage's exact search on MiMI and XMark
//  - end-to-end summarize latency (the paper: "within 5 minutes")
//
// Emits machine-readable JSON via the standard google-benchmark flags
// (--benchmark_out=<path> --benchmark_out_format=json). The end-to-end
// benchmark with per-layer metrics is perfbench/ (perfbench/README.md). A
// --threads N flag
// (or SSUM_THREADS) sets the default worker count for the parallel kernels;
// the *Threads benchmarks override it per-run.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/buildinfo.h"
#include "common/parallel.h"
#include "core/summarize.h"
#include "datasets/mimi.h"
#include "datasets/registry.h"
#include "datasets/scenario.h"
#include "datasets/xmark.h"
#include "stats/annotate.h"

namespace {

using namespace ssum;

const XMarkDataset& SharedXMark(double sf) {
  static XMarkDataset* small = [] {
    XMarkParams p;
    p.sf = 0.01;
    return new XMarkDataset(p);
  }();
  static XMarkDataset* medium = [] {
    XMarkParams p;
    p.sf = 0.05;
    return new XMarkDataset(p);
  }();
  static XMarkDataset* large = [] {
    XMarkParams p;
    p.sf = 0.25;
    return new XMarkDataset(p);
  }();
  if (sf <= 0.01) return *small;
  if (sf <= 0.05) return *medium;
  return *large;
}

/// Annotations for the XMark instance at `sf`, cached per scale factor so a
/// benchmark never silently reads statistics from a different scale than the
/// dataset it runs on.
const Annotations& SharedAnnotations(double sf) {
  static std::map<double, Annotations*>* cache =
      new std::map<double, Annotations*>();
  auto it = cache->find(sf);
  if (it == cache->end()) {
    auto stream = SharedXMark(sf).MakeStream();
    auto res = AnnotateSchema(*stream);
    it = cache->emplace(sf, new Annotations(std::move(*res))).first;
  }
  return *it->second;
}

void BM_AnnotateSchema(benchmark::State& state) {
  double sf = static_cast<double>(state.range(0)) / 100.0;
  const XMarkDataset& ds = SharedXMark(sf);
  auto stream = ds.MakeStream();
  uint64_t nodes = 0;
  for (auto _ : state) {
    auto res = AnnotateSchema(*stream);
    if (res.ok()) nodes = res->TotalNodes();
    benchmark::DoNotOptimize(res);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  // items/s reflects annotation throughput: nodes per iteration, rated over
  // total run time — the paper's linearity claim shows as a flat rate.
  state.SetItemsProcessed(static_cast<int64_t>(nodes) * state.iterations());
}
BENCHMARK(BM_AnnotateSchema)->Arg(1)->Arg(5)->Arg(25)
    ->Unit(benchmark::kMillisecond);

void BM_Importance(benchmark::State& state) {
  const XMarkDataset& ds = SharedXMark(0.05);
  const Annotations& ann = SharedAnnotations(0.05);
  EdgeMetrics metrics = EdgeMetrics::Compute(ds.schema(), ann);
  ImportanceOptions opts;
  opts.neighborhood_factor = static_cast<double>(state.range(0)) / 100.0;
  int iterations = 0;
  for (auto _ : state) {
    ImportanceResult r = ComputeImportance(ds.schema(), ann, metrics, opts);
    iterations = r.iterations;
    benchmark::DoNotOptimize(r);
  }
  state.counters["iterations"] = iterations;
}
BENCHMARK(BM_Importance)->Arg(10)->Arg(50)->Arg(90)
    ->Unit(benchmark::kMillisecond);

void BM_AffinityMatrix(benchmark::State& state) {
  const XMarkDataset& ds = SharedXMark(0.05);
  EdgeMetrics metrics =
      EdgeMetrics::Compute(ds.schema(), SharedAnnotations(0.05));
  AffinityOptions opts;
  opts.max_steps = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    AffinityMatrix m = AffinityMatrix::Compute(ds.schema(), metrics, opts);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_AffinityMatrix)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

/// Thread ablation of the row-parallel affinity kernel (arg = threads).
void BM_AffinityMatrixThreads(benchmark::State& state) {
  const XMarkDataset& ds = SharedXMark(0.25);
  EdgeMetrics metrics =
      EdgeMetrics::Compute(ds.schema(), SharedAnnotations(0.25));
  AffinityOptions opts;
  opts.max_steps = 16;
  ParallelOptions parallel;
  parallel.threads = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    AffinityMatrix m =
        AffinityMatrix::Compute(ds.schema(), metrics, opts, parallel);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_AffinityMatrixThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CoverageMatrix(benchmark::State& state) {
  const XMarkDataset& ds = SharedXMark(0.05);
  const Annotations& ann = SharedAnnotations(0.05);
  EdgeMetrics metrics = EdgeMetrics::Compute(ds.schema(), ann);
  CoverageOptions opts;
  opts.max_steps = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    CoverageMatrix m =
        CoverageMatrix::Compute(ds.schema(), ann, metrics, opts);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_CoverageMatrix)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

/// Thread ablation of the row-parallel coverage kernel (arg = threads).
void BM_CoverageMatrixThreads(benchmark::State& state) {
  const XMarkDataset& ds = SharedXMark(0.25);
  const Annotations& ann = SharedAnnotations(0.25);
  EdgeMetrics metrics = EdgeMetrics::Compute(ds.schema(), ann);
  CoverageOptions opts;
  ParallelOptions parallel;
  parallel.threads = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    CoverageMatrix m =
        CoverageMatrix::Compute(ds.schema(), ann, metrics, opts, parallel);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_CoverageMatrixThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_Dominance(benchmark::State& state) {
  const XMarkDataset& ds = SharedXMark(0.05);
  const Annotations& ann = SharedAnnotations(0.05);
  EdgeMetrics metrics = EdgeMetrics::Compute(ds.schema(), ann);
  CoverageMatrix cov = CoverageMatrix::Compute(ds.schema(), ann, metrics);
  for (auto _ : state) {
    DominanceResult d = ComputeDominance(ds.schema(), ann, cov);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_Dominance)->Unit(benchmark::kMillisecond);

/// Dominance alone on the shape of perfbench's wide_schema workload (its
/// variant 0 spec): ~2k elements with value links, where the Theorem 1 sums
/// take tens of ms; on XMark they take under one (arg = threads).
void BM_DominanceWide(benchmark::State& state) {
  struct Input {
    SchemaGraph schema;
    Annotations annotations;
    CoverageMatrix coverage;
  };
  static const Input* input = [] {
    ScenarioSpec spec;
    spec.name = "wide";
    spec.seed = 101;
    spec.schema_elements = 2000;
    spec.entity_classes = 24;
    spec.max_depth = 12;
    spec.set_fraction = 0.28;
    spec.value_link_fraction = 0.08;
    spec.instance_units = 4000;
    spec.unit_skew = "zipf";
    spec.zipf_s = 1.2;
    spec.set_mean = 3.5;
    spec.max_unit_nodes = 512;
    spec.mutate_seed = 1;
    spec.mutate_fraction = 0.5;
    auto ds = ScenarioDataset::Make(spec);
    SSUM_CHECK(ds.ok(), ds.status().ToString());
    auto ann = AnnotateSchemaSharded(*ds->MakeShardedSource());
    SSUM_CHECK(ann.ok(), ann.status().ToString());
    EdgeMetrics metrics = EdgeMetrics::Compute(ds->schema(), *ann);
    CoverageMatrix coverage =
        CoverageMatrix::Compute(ds->schema(), *ann, metrics);
    return new Input{ds->schema(), std::move(*ann), std::move(coverage)};
  }();
  ParallelOptions parallel;
  parallel.threads = static_cast<uint32_t>(state.range(0));
  size_t pairs = 0;
  for (auto _ : state) {
    auto d = TryComputeDominance(input->schema, input->annotations,
                                 input->coverage, parallel);
    SSUM_CHECK(d.ok(), d.status().ToString());
    pairs = d->pairs.size();
    benchmark::DoNotOptimize(d);
  }
  state.counters["elements"] = static_cast<double>(input->schema.size());
  state.counters["pairs"] = static_cast<double>(pairs);
}
BENCHMARK(BM_DominanceWide)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_SummarizeEndToEnd(benchmark::State& state) {
  const XMarkDataset& ds = SharedXMark(0.05);
  const Annotations& ann = SharedAnnotations(0.05);
  for (auto _ : state) {
    auto summary = Summarize(ds.schema(), ann, 10);
    benchmark::DoNotOptimize(summary);
  }
}
BENCHMARK(BM_SummarizeEndToEnd)->Unit(benchmark::kMillisecond);

/// End-to-end summarize with an explicit thread count (arg = threads).
void BM_SummarizeEndToEndThreads(benchmark::State& state) {
  const XMarkDataset& ds = SharedXMark(0.05);
  const Annotations& ann = SharedAnnotations(0.05);
  SummarizeOptions opts;
  opts.parallel.threads = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    auto summary = Summarize(ds.schema(), ann, 10,
                             Algorithm::kBalanceSummary, opts);
    benchmark::DoNotOptimize(summary);
  }
}
BENCHMARK(BM_SummarizeEndToEndThreads)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SummarizeMimi(benchmark::State& state) {
  static MimiDataset* ds = [] {
    MimiParams p;
    p.scale = 0.02;
    return new MimiDataset(p);
  }();
  static Annotations* ann = [] {
    auto stream = ds->MakeStream();
    auto res = AnnotateSchema(*stream);
    return new Annotations(std::move(*res));
  }();
  for (auto _ : state) {
    auto summary = Summarize(ds->schema(), *ann, 10);
    benchmark::DoNotOptimize(summary);
  }
}
BENCHMARK(BM_SummarizeMimi)->Unit(benchmark::kMillisecond);

/// MaxCoverage's exact search alone (Figure 6 inside the enumeration
/// budget) on a prebuilt context: arg 0 picks MiMI at k = 5 (C(30,5) =
/// 142,506 sets) or XMark at k = 3 (C(87,3) = 105,995 sets), arg 1 is the
/// thread count.
void BM_MaxCoverageExact(benchmark::State& state) {
  struct Input {
    DatasetBundle bundle;
    size_t k;
  };
  static Input* inputs[2] = {};
  const size_t which = static_cast<size_t>(state.range(0));
  if (inputs[which] == nullptr) {
    const DatasetKind kind = which == 0 ? DatasetKind::kMimi
                                        : DatasetKind::kXMark;
    auto bundle = LoadDataset(kind);
    SSUM_CHECK(bundle.ok(), bundle.status().ToString());
    inputs[which] = new Input{std::move(*bundle), which == 0 ? 5u : 3u};
  }
  const Input& input = *inputs[which];
  SummarizeOptions options;
  options.parallel.threads = static_cast<uint32_t>(state.range(1));
  auto context = SummarizerContext::Make(input.bundle.schema,
                                         input.bundle.annotations, options);
  SSUM_CHECK(context.ok(), context.status().ToString());
  for (auto _ : state) {
    auto selected = SelectMaxCoverage(*context, input.k);
    SSUM_CHECK(selected.ok(), selected.status().ToString());
    benchmark::DoNotOptimize(selected);
  }
  state.SetLabel(input.bundle.name + " k=" + std::to_string(input.k));
  state.counters["candidates"] =
      static_cast<double>(context->dominance().candidates.size());
}
BENCHMARK(BM_MaxCoverageExact)
    ->ArgsProduct({{0, 1}, {1, 4}})
    ->Unit(benchmark::kMillisecond);

/// Shared fixture for the walk-engine head-to-head: the MiMI schema (the
/// largest evaluated graph) with Formula 2 affinity factors.
struct WalkFixture {
  MimiDataset ds;
  EdgeMetrics metrics;
  WalkPlan plan;
  WalkSearchOptions walk;

  WalkFixture()
      : ds([] {
          MimiParams p;
          p.scale = 0.02;
          return p;
        }()) {
    auto stream = ds.MakeStream();
    auto ann = AnnotateSchema(*stream);
    metrics = EdgeMetrics::Compute(ds.schema(), *ann);
    plan = WalkPlan::Build(ds.schema(), metrics.edge_affinity);
    walk.divide_by_steps = true;
  }

  static const WalkFixture& Get() {
    static WalkFixture* f = new WalkFixture();
    return *f;
  }
};

/// Scalar reference kernel: n independent MaxProductWalks searches.
void BM_WalkEngineScalar(benchmark::State& state) {
  const WalkFixture& f = WalkFixture::Get();
  const size_t n = f.ds.schema().size();
  for (auto _ : state) {
    for (ElementId s = 0; s < n; ++s) {
      auto row = MaxProductWalks(f.ds.schema(), f.metrics.edge_affinity, s,
                                 f.walk);
      benchmark::DoNotOptimize(row);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_WalkEngineScalar)->Unit(benchmark::kMillisecond);

/// Batched CSR kernel: the same n rows through lane-blocked relaxation.
void BM_WalkEngineBatched(benchmark::State& state) {
  const WalkFixture& f = WalkFixture::Get();
  const size_t n = f.plan.size();
  std::vector<double> buf(n * n);
  std::vector<ElementId> sources(n);
  std::vector<std::span<double>> rows(n);
  for (ElementId s = 0; s < n; ++s) {
    sources[s] = s;
    rows[s] = {buf.data() + static_cast<size_t>(s) * n, n};
  }
  for (auto _ : state) {
    MaxProductWalksBatch(f.plan, sources, f.walk, rows);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_WalkEngineBatched)->Unit(benchmark::kMillisecond);

}  // namespace

// Expanded BENCHMARK_MAIN so --threads can be consumed before
// benchmark::Initialize rejects it as an unknown flag, and so a recorded
// JSON file can never contain debug-build numbers: any --benchmark_out
// request from a non-release build is refused with exit 2.
int main(int argc, char** argv) {
  ssum::ConsumeThreadsFlag(&argc, argv);
  if (!ssum::IsReleaseBuild()) {
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) {
        std::fprintf(stderr,
                     "perf_microbench: refusing to emit gated JSON from a "
                     "'%s' build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                     ssum::BuildType());
        return 2;
      }
    }
  }
  benchmark::AddCustomContext("ssum_build_type", ssum::BuildType());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
