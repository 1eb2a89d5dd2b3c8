// ssum — command-line front end for the schema summarization library.
//
//   ssum infer <input.xml> [-o schema.ssg]
//   ssum annotate <schema.ssg> <input.xml> [-o annotations.txt]
//   ssum summarize <schema.ssg> -k N [-a annotations.txt]
//                  [-g balance|importance|coverage] [-o summary.txt]
//                  [--dot summary.dot]
//   ssum dot <schema.ssg> [-o schema.dot] [--hide-simple] [--max-depth N]
//   ssum relational <schema.sql> -k N [--data <dir>] [--dialect csv|pipe]
//   ssum discover <schema.ssg> <summary.txt> <path> [path...]
//   ssum demo <xmark|tpch|mimi> [-k N]
//   ssum gen --config <case.scn> [--out-dir DIR] [--xml FILE]
//   ssum cache <stat|ls|clear|verify>
//   ssum serve [--listen host:port] [--workers N] [--queue N] [--scale S]
//              [--scenario-dir DIR] [--port-file P]
//   ssum query --connect host:port <verb> [dataset] [path...] [-k N] ...
//   ssum help | --help
//
// All commands exit non-zero with a diagnostic on stderr when anything
// fails; nothing throws and nothing aborts on malformed input. Exit codes:
//   0  success
//   2  usage error (unknown command, missing arguments)
//   3  bad input (parse errors, limit violations, missing/unreadable files)
//   4  internal error (a library invariant failed — please report)
//   5  deadline exceeded (--deadline-ms budget ran out before completion,
//      locally or as a wire-level deadline error from a serving daemon)
//   6  unavailable (the daemon shed the request under admission control)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <map>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/parallel.h"
#include "common/parse_limits.h"
#include "common/string_util.h"
#include "core/summarize.h"
#include "core/summary_io.h"
#include "datasets/registry.h"
#include "datasets/scenario.h"
#include "instance/materialize.h"
#include "query/discovery.h"
#include "query/formulate.h"
#include "serve/client.h"
#include "serve/server.h"
#include "relational/bridge.h"
#include "relational/csv.h"
#include "relational/ddl.h"
#include "schema/dot_export.h"
#include "schema/schema_io.h"
#include "stats/annotate.h"
#include "stats/annotations_io.h"
#include "store/artifact_cache.h"
#include "store/container.h"
#include "store/fingerprint.h"
#include "xml/infer_schema.h"
#include "xml/instance_bridge.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace ssum {
namespace {

// Exit-code convention (documented in --help and docs/FORMATS.md).
constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitBadInput = 3;
constexpr int kExitInternal = 4;
constexpr int kExitDeadline = 5;
constexpr int kExitUnavailable = 6;

/// Parse limits for every file ingested by the CLI; adjusted by the global
/// --max-input-bytes / --max-parse-depth flags before dispatch.
ParseLimits g_limits = ParseLimits::Defaults();

/// Wall-clock budget from --deadline-ms; unlimited when the flag is absent.
/// Checked cooperatively at parallel-chunk and instance-shard boundaries —
/// an expired budget aborts the command with kExitDeadline.
Deadline g_deadline;

/// Raw --deadline-ms value (-1 = absent), forwarded verbatim as the
/// wire-level deadline_ms field by `ssum query` so the *daemon* enforces
/// the budget; a wire kDeadlineExceeded maps back to kExitDeadline.
int64_t g_deadline_ms = -1;

/// Warm-start cache directory from --cache-dir / SSUM_CACHE_DIR; empty
/// means caching is off and every command computes from scratch.
std::string g_cache_dir;
std::optional<ArtifactCache> g_cache;

/// The process-wide cache, created lazily. An unusable directory disables
/// caching with a warning rather than failing the command — consistent with
/// the store's "a cache can only ever cost a recompute" policy.
ArtifactCache* GetCache() {
  if (g_cache_dir.empty()) return nullptr;
  if (!g_cache.has_value()) {
    g_cache.emplace(g_cache_dir);
    if (Status s = g_cache->EnsureDir(); !s.ok()) {
      std::fprintf(stderr, "ssum: warning: cache disabled: %s\n",
                   s.ToString().c_str());
      g_cache.reset();
      g_cache_dir.clear();
      return nullptr;
    }
  }
  return &*g_cache;
}

void PrintUsage(std::FILE* to) {
  std::fprintf(
      to,
      "usage:\n"
      "  ssum infer <input.xml> [-o schema.ssg]\n"
      "  ssum annotate <schema.ssg> <input.xml> [-o annotations.txt]\n"
      "  ssum summarize <schema.ssg> -k N [-a annotations.txt]\n"
      "                 [-g balance|importance|coverage] [-o summary.txt]\n"
      "                 [--mode exact|approx] [--epsilon E]\n"
      "                 [--dot summary.dot]\n"
      "  ssum summarize <next.scn> --base <base.scn> -k N [...]\n"
      "                 incremental: re-annotates only the units that\n"
      "                 changed between the two scenario versions, patches\n"
      "                 the affinity/coverage matrices, and stores the\n"
      "                 annotation delta as a lineage link in the cache\n"
      "                 (docs/incremental.md); bit-identical to a cold run\n"
      "  ssum dot <schema.ssg> [-o schema.dot] [--hide-simple] "
      "[--max-depth N]\n"
      "  ssum relational <schema.sql> -k N [--data <dir>] "
      "[--dialect csv|pipe]\n"
      "  ssum discover <schema.ssg> <summary.txt> <path> [path...]\n"
      "  ssum demo <xmark|tpch|mimi> [-k N]\n"
      "  ssum gen --config <case.scn> [--out-dir DIR] [--xml FILE]\n"
      "           [--chain N]\n"
      "           generate + annotate a scenario dataset (docs/scenarios.md);\n"
      "           --out-dir exports schema.ssg/annotations.txt/workload.txt,\n"
      "           --xml materializes the instance as an XML document,\n"
      "           --chain N (with --out-dir) emits version specs v0..vN of\n"
      "           the same scenario differing only in the mutate.* knobs —\n"
      "           the inputs of `summarize --base` (docs/incremental.md)\n"
      "  ssum cache <stat|ls|clear|verify|lineage>\n"
      "             lineage lists the annotation-delta chain: each link's\n"
      "             child/parent keys, dirty-unit counts, and whether the\n"
      "             parent snapshot is still present\n"
      "  ssum serve [--listen host:port] [--workers N] [--queue N]\n"
      "             [--scale S] [--scenario-dir DIR] [--port-file P]\n"
      "             [--slow-ms N]\n"
      "             --scenario-dir exposes its case files as\n"
      "             scenario:<file> datasets (off when omitted);\n"
      "             --slow-ms logs any request at or over N ms end-to-end\n"
      "  ssum query --connect host:port <verb> [dataset] [path...]\n"
      "             [-k N] [-g balance|importance|coverage]\n"
      "             [--mode exact|approx] [--epsilon E] [--stall-ms N]\n"
      "             verbs: health summarize discover cache-stat metrics\n"
      "                    shutdown\n"
      "  ssum help | --help\n"
      "\n"
      "global flags:\n"
      "  --cache-dir DIR      warm-start cache of binary snapshot containers\n"
      "                       (annotations, affinity/coverage matrices,\n"
      "                       summaries). A repeated invocation with the same\n"
      "                       inputs loads instead of recomputing; corrupt or\n"
      "                       foreign-version entries are recomputed, never\n"
      "                       fatal. SSUM_CACHE_DIR is the env fallback.\n"
      "  --threads N          worker threads for the parallel kernels\n"
      "                       (default: hardware concurrency; 1 = serial;\n"
      "                       results are identical for every value).\n"
      "                       SSUM_THREADS overrides.\n"
      "  --deadline-ms N      wall-clock budget for the command, checked\n"
      "                       cooperatively at parallel-chunk and\n"
      "                       instance-shard boundaries. An expired budget\n"
      "                       always exits 5 (0 = already expired, so the\n"
      "                       first check aborts). With `query`, the budget\n"
      "                       rides the wire as deadline_ms and is enforced\n"
      "                       by the daemon; its kDeadlineExceeded response\n"
      "                       maps to the same exit code 5.\n"
      "                       Default: unlimited.\n"
      "  --max-input-bytes N  reject input files larger than N bytes\n"
      "                       (default: 536870912 = 512 MiB)\n"
      "  --max-parse-depth N  reject XML nested deeper than N levels\n"
      "                       (default: 256)\n"
      "\n"
      "exit codes:\n"
      "  0  success\n"
      "  2  usage error (unknown command, missing arguments)\n"
      "  3  bad input (parse errors, limit violations, unreadable files);\n"
      "     the diagnostic carries line and byte-offset context\n"
      "  4  internal error (a library invariant failed — please report)\n"
      "  5  deadline exceeded (--deadline-ms ran out — locally or at the\n"
      "     daemon; partial work is discarded, caches are never left\n"
      "     corrupt)\n"
      "  6  unavailable (the daemon shed the request under admission\n"
      "     control; retrying later is expected to succeed)\n");
}

int Usage() {
  PrintUsage(stderr);
  return kExitUsage;
}

/// Maps a library Status to the CLI exit-code convention: everything a user
/// can cause by feeding bad input exits 3; only library bugs exit 4.
int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return kExitOk;
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kOutOfRange:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kParseError:
    case StatusCode::kIoError:
    case StatusCode::kDataLoss:
      return kExitBadInput;
    case StatusCode::kNotImplemented:
    case StatusCode::kInternal:
      return kExitInternal;
    case StatusCode::kDeadlineExceeded:
      return kExitDeadline;
    case StatusCode::kUnavailable:
      return kExitUnavailable;
  }
  return kExitInternal;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "ssum: error: %s\n", status.ToString().c_str());
  return ExitCodeFor(status);
}

/// Tiny flag parser: positional arguments plus "-x value" / "--flag [value]".
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;  // value-less flags map to ""

  static Args Parse(int argc, char** argv, int from,
                    const std::vector<std::string>& value_flags) {
    Args args;
    for (int i = from; i < argc; ++i) {
      std::string a = argv[i];
      if (!a.empty() && a[0] == '-') {
        bool takes_value =
            std::find(value_flags.begin(), value_flags.end(), a) !=
            value_flags.end();
        if (takes_value && i + 1 < argc) {
          args.options[a] = argv[++i];
        } else {
          args.options[a] = "";
        }
      } else {
        args.positional.push_back(std::move(a));
      }
    }
    return args;
  }

  const std::string* Get(const std::string& flag) const {
    auto it = options.find(flag);
    return it == options.end() ? nullptr : &it->second;
  }
};

Status WriteOrPrint(const std::string& content, const std::string* path,
                    const char* what) {
  if (path == nullptr) {
    std::fputs(content.c_str(), stdout);
    return Status::OK();
  }
  std::ofstream out(*path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open '" + *path + "'");
  out << content;
  out.flush();
  if (!out) return Status::IoError("write failed for '" + *path + "'");
  std::fprintf(stderr, "ssum: %s written to %s\n", what, path->c_str());
  return Status::OK();
}

int CmdInfer(const Args& args) {
  if (args.positional.empty()) return Usage();
  auto doc = ReadXmlFile(args.positional[0], g_limits);
  if (!doc.ok()) return Fail(doc.status());
  auto schema = InferSchema(*doc);
  if (!schema.ok()) return Fail(schema.status());
  std::fprintf(stderr, "ssum: inferred %zu elements\n", schema->size());
  Status s = WriteOrPrint(SerializeSchema(*schema), args.Get("-o"), "schema");
  return s.ok() ? 0 : Fail(s);
}

int CmdAnnotate(const Args& args) {
  if (args.positional.size() < 2) return Usage();
  auto schema = ReadSchemaFile(args.positional[0], g_limits);
  if (!schema.ok()) return Fail(schema.status());
  // File-backed inputs are keyed by their bytes: schema fingerprint mixed
  // with the XML file fingerprint. A hit skips the XML parse entirely.
  ArtifactCache* cache = GetCache();
  Fingerprint key;
  if (cache != nullptr) {
    auto file_fp = FingerprintFile(args.positional[1]);
    if (file_fp.ok()) {
      key = MixFingerprints(FingerprintSchema(*schema), *file_fp);
      if (auto hit = cache->LoadAnnotations(*schema, key)) {
        Status s = WriteOrPrint(SerializeAnnotations(*hit), args.Get("-o"),
                                "annotations");
        return s.ok() ? 0 : Fail(s);
      }
    } else {
      cache = nullptr;  // unreadable input: let ReadXmlFile report it
    }
  }
  auto doc = ReadXmlFile(args.positional[1], g_limits);
  if (!doc.ok()) return Fail(doc.status());
  ShardedAnnotateOptions aopts;
  aopts.parallel.deadline = g_deadline;
  auto ann = AnnotateXmlDocument(*schema, *doc, aopts);
  if (!ann.ok()) return Fail(ann.status());
  if (cache != nullptr) {
    if (Status s = cache->StoreAnnotations(key, *ann); !s.ok()) {
      std::fprintf(stderr, "ssum: warning: annotations install failed: %s\n",
                   s.ToString().c_str());
    }
  }
  Status s = WriteOrPrint(SerializeAnnotations(*ann), args.Get("-o"),
                          "annotations");
  return s.ok() ? 0 : Fail(s);
}

/// --mode / --epsilon for the coverage algorithm: approx routes MaxCoverage
/// through the sketched lazy-greedy engine (near-linear, quality checked at
/// >= 0.95x exact by tests/test_approx.cc); epsilon trades sketch width for
/// quality (docs/performance.md).
Result<SummarizeOptions> ParseSummarizeOptions(const Args& args) {
  SummarizeOptions options;
  if (const std::string* m = args.Get("--mode")) {
    if (*m == "exact") {
      options.mode = SummaryMode::kExact;
    } else if (*m == "approx") {
      options.mode = SummaryMode::kApprox;
    } else {
      return Status::InvalidArgument("unknown mode '" + *m +
                                     "' (exact|approx)");
    }
  }
  if (const std::string* e = args.Get("--epsilon")) {
    auto eps = ParseDouble(*e);
    if (!eps.ok() || *eps < 0.0 || *eps >= 1.0) {
      return Status::InvalidArgument("--epsilon needs a number in [0, 1)");
    }
    options.approx_epsilon = *eps;
  }
  return options;
}

Result<Algorithm> ParseAlgorithm(const Args& args) {
  const std::string* g = args.Get("-g");
  if (g == nullptr || *g == "balance") return Algorithm::kBalanceSummary;
  if (*g == "importance") return Algorithm::kMaxImportance;
  if (*g == "coverage") return Algorithm::kMaxCoverage;
  return Status::InvalidArgument("unknown algorithm '" + *g +
                                 "' (balance|importance|coverage)");
}

/// Shared tail of the summarize commands: report the selection, honor
/// --dot and -o.
int EmitSummary(const SchemaGraph& schema, const SchemaSummary& summary,
                Algorithm alg, const Args& args) {
  std::fprintf(stderr, "ssum: %s selected:\n", AlgorithmName(alg));
  for (ElementId a : summary.abstract_elements) {
    std::fprintf(stderr, "  %-55s (%zu elements)\n", schema.PathOf(a).c_str(),
                 summary.Group(a).size());
  }
  if (const std::string* dot = args.Get("--dot")) {
    Status s = WriteOrPrint(ExportSummaryDot(summary), dot, "summary DOT");
    if (!s.ok()) return Fail(s);
  }
  Status s = WriteOrPrint(SerializeSummary(summary), args.Get("-o"),
                          "summary");
  return s.ok() ? 0 : Fail(s);
}

/// `ssum summarize <next.scn> --base <base.scn>`: the incremental pipeline —
/// delta-annotate the changed units, patch the matrices from the base
/// version's, record the annotation delta as a cache lineage link. Every
/// step that cannot run (schema changed, no usable base) degrades to the
/// cold equivalent; the summary is bit-identical either way.
int CmdSummarizeIncremental(const Args& args) {
  if (args.positional.empty() || args.Get("-k") == nullptr) return Usage();
  auto base_spec = LoadScenarioSpecFile(*args.Get("--base"), g_limits);
  if (!base_spec.ok()) return Fail(base_spec.status());
  auto next_spec = LoadScenarioSpecFile(args.positional[0], g_limits);
  if (!next_spec.ok()) return Fail(next_spec.status());
  auto k = ParseInt64(*args.Get("-k"));
  if (!k.ok() || *k <= 0) {
    return Fail(Status::InvalidArgument("-k needs a positive integer"));
  }
  Algorithm alg;
  {
    auto parsed = ParseAlgorithm(args);
    if (!parsed.ok()) return Fail(parsed.status());
    alg = *parsed;
  }
  SummarizeOptions options;
  {
    auto parsed = ParseSummarizeOptions(args);
    if (!parsed.ok()) return Fail(parsed.status());
    options = *parsed;
  }
  options.parallel.deadline = g_deadline;
  auto base_ds = ScenarioDataset::Make(*base_spec);
  if (!base_ds.ok()) return Fail(base_ds.status());
  auto next_ds = ScenarioDataset::Make(*next_spec);
  if (!next_ds.ok()) return Fail(next_ds.status());
  ArtifactCache* cache = GetCache();
  auto delta = AnnotateScenarioDelta(*base_ds, *next_ds, cache);
  if (!delta.ok()) return Fail(delta.status());
  if (delta->incremental) {
    std::fprintf(stderr,
                 "ssum: delta annotation: %llu of %llu units re-walked "
                 "(lineage hops %u)\n",
                 static_cast<unsigned long long>(delta->dirty_units),
                 static_cast<unsigned long long>(delta->total_units),
                 delta->lineage_hops);
  } else {
    std::fprintf(stderr, "ssum: cold annotation fallback: %s\n",
                 delta->fallback_reason.c_str());
  }
  std::optional<SummarizerContext> context;
  if (delta->incremental) {
    auto base_ctx = SummarizerContext::Make(
        base_ds->schema(), delta->base_annotations, options, cache);
    if (base_ctx.ok()) {
      MatrixPatchStats affinity_stats, coverage_stats;
      auto patched = SummarizerContext::MakeIncremental(
          *base_ctx, delta->annotations, cache, MatrixPatchOptions{},
          &affinity_stats, &coverage_stats);
      if (patched.ok()) {
        std::fprintf(
            stderr,
            "ssum: matrix patch: affinity %zu/%zu rows%s, coverage "
            "%zu/%zu rows%s\n",
            affinity_stats.dirty_rows, affinity_stats.total_rows,
            affinity_stats.patched ? "" : " (full recompute)",
            coverage_stats.dirty_rows, coverage_stats.total_rows,
            coverage_stats.patched ? "" : " (full recompute)");
        context.emplace(std::move(*patched));
      }
    }
  }
  if (!context.has_value()) {
    auto cold = SummarizerContext::Make(next_ds->schema(), delta->annotations,
                                        options, cache);
    if (!cold.ok()) return Fail(cold.status());
    context.emplace(std::move(*cold));
  }
  auto summary = Summarize(*context, static_cast<size_t>(*k), alg);
  if (!summary.ok()) return Fail(summary.status());
  return EmitSummary(next_ds->schema(), *summary, alg, args);
}

int CmdSummarize(const Args& args) {
  if (args.Get("--base") != nullptr) return CmdSummarizeIncremental(args);
  if (args.positional.empty() || args.Get("-k") == nullptr) return Usage();
  auto schema = ReadSchemaFile(args.positional[0], g_limits);
  if (!schema.ok()) return Fail(schema.status());
  auto k = ParseInt64(*args.Get("-k"));
  if (!k.ok() || *k <= 0) {
    return Fail(Status::InvalidArgument("-k needs a positive integer"));
  }
  Annotations ann = Annotations::Uniform(*schema);
  if (const std::string* apath = args.Get("-a")) {
    auto loaded = ReadAnnotationsFile(*schema, *apath, g_limits);
    if (!loaded.ok()) return Fail(loaded.status());
    ann = std::move(*loaded);
  } else {
    std::fprintf(stderr,
                 "ssum: no annotations given; falling back to uniform "
                 "(schema-driven) statistics\n");
  }
  Algorithm alg;
  {
    auto parsed = ParseAlgorithm(args);
    if (!parsed.ok()) return Fail(parsed.status());
    alg = *parsed;
  }
  SummarizeOptions options;
  {
    auto parsed = ParseSummarizeOptions(args);
    if (!parsed.ok()) return Fail(parsed.status());
    options = *parsed;
  }
  options.parallel.deadline = g_deadline;
  // The library's warm-start one-shot consults three cache layers: a summary
  // hit skips everything; otherwise the context constructor tries the two
  // matrices; whatever was computed is installed for the next invocation.
  auto summary =
      Summarize(*schema, ann, static_cast<size_t>(*k), alg, options,
                GetCache());
  if (!summary.ok()) return Fail(summary.status());
  return EmitSummary(*schema, *summary, alg, args);
}

int CmdDot(const Args& args) {
  if (args.positional.empty()) return Usage();
  auto schema = ReadSchemaFile(args.positional[0], g_limits);
  if (!schema.ok()) return Fail(schema.status());
  DotOptions options;
  options.hide_simple = args.Get("--hide-simple") != nullptr;
  if (const std::string* d = args.Get("--max-depth")) {
    auto depth = ParseInt64(*d);
    if (!depth.ok() || *depth < 0) {
      return Fail(Status::InvalidArgument("--max-depth needs an integer"));
    }
    options.max_depth = static_cast<uint32_t>(*depth);
  }
  Status s = WriteOrPrint(ExportDot(*schema, options), args.Get("-o"), "DOT");
  return s.ok() ? 0 : Fail(s);
}

int CmdDiscover(const Args& args) {
  if (args.positional.size() < 3) return Usage();
  auto schema = ReadSchemaFile(args.positional[0], g_limits);
  if (!schema.ok()) return Fail(schema.status());
  auto summary = ReadSummaryFile(*schema, args.positional[1], g_limits);
  if (!summary.ok()) return Fail(summary.status());
  std::vector<std::string> paths(args.positional.begin() + 2,
                                 args.positional.end());
  auto intention = MakeIntention(*schema, "cli", paths);
  if (!intention.ok()) return Fail(intention.status());
  DiscoveryOracle oracle(*schema);
  DiscoveryResult without =
      Discover(oracle, *intention, TraversalStrategy::kBestFirst);
  DiscoveryResult with = DiscoverWithSummary(oracle, *summary, *intention);
  std::printf("best-first without summary: cost %llu\n",
              static_cast<unsigned long long>(without.cost));
  std::printf("best-first with summary:    cost %llu\n",
              static_cast<unsigned long long>(with.cost));
  auto skeleton = FormulateXQuerySkeleton(*schema, *intention);
  if (skeleton.ok()) {
    std::printf("\nXQuery skeleton:\n%s\n", skeleton->c_str());
  }
  return 0;
}

int CmdRelational(const Args& args) {
  if (args.positional.empty() || args.Get("-k") == nullptr) return Usage();
  std::ifstream in(args.positional[0]);
  if (!in) {
    return Fail(Status::IoError("cannot open '" + args.positional[0] + "'"));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto catalog = ParseDdl(buf.str(), g_limits);
  if (!catalog.ok()) return Fail(catalog.status());
  auto mapping = BuildRelationalSchema(*catalog);
  if (!mapping.ok()) return Fail(mapping.status());
  std::fprintf(stderr, "ssum: %zu tables -> %zu schema elements, %zu FKs\n",
               catalog->tables().size(), mapping->graph.size(),
               mapping->graph.value_links().size());
  auto k = ParseInt64(*args.Get("-k"));
  if (!k.ok() || *k <= 0) {
    return Fail(Status::InvalidArgument("-k needs a positive integer"));
  }
  Annotations ann = Annotations::Uniform(mapping->graph);
  CsvOptions csv;
  if (const std::string* dialect = args.Get("--dialect")) {
    if (*dialect == "pipe") {
      csv.delimiter = '|';
      csv.header = false;
      csv.allow_quotes = false;
    } else if (*dialect != "csv") {
      return Fail(Status::InvalidArgument("--dialect must be csv or pipe"));
    }
  }
  if (const std::string* dir = args.Get("--data")) {
    // Load <dir>/<table>.csv for every table; missing files are empty
    // relations.
    Database db(&*catalog);
    for (size_t t = 0; t < catalog->tables().size(); ++t) {
      std::string path = *dir + "/" + catalog->tables()[t].name + ".csv";
      std::ifstream table_in(path);
      if (!table_in) {
        std::fprintf(stderr, "ssum: %s missing; treating as empty\n",
                     path.c_str());
        continue;
      }
      Status s = LoadCsvFile(path, &db.table(t), csv, g_limits);
      if (!s.ok()) return Fail(s.WithContext(path));
      std::fprintf(stderr, "ssum: %-12s %8zu rows\n",
                   catalog->tables()[t].name.c_str(), db.table(t).num_rows());
    }
    RelationalInstanceStream stream(&*mapping, &db);
    ShardedAnnotateOptions aopts;
    aopts.parallel.deadline = g_deadline;
    auto annotated = AnnotateSchemaSharded(stream, aopts);
    if (!annotated.ok()) return Fail(annotated.status());
    ann = std::move(*annotated);
  } else {
    std::fprintf(stderr,
                 "ssum: no --data directory; using uniform statistics\n");
  }
  SummarizeOptions options;
  options.parallel.deadline = g_deadline;
  auto context =
      SummarizerContext::Make(mapping->graph, ann, options, GetCache());
  if (!context.ok()) return Fail(context.status());
  auto summary = Summarize(*context, static_cast<size_t>(*k));
  if (!summary.ok()) return Fail(summary.status());
  std::printf("size-%lld summary:\n", static_cast<long long>(*k));
  for (ElementId a : summary->abstract_elements) {
    std::printf("  %-30s represents %zu elements\n",
                mapping->graph.label(a).c_str(), summary->Group(a).size());
  }
  return 0;
}

int CmdDemo(const Args& args) {
  if (args.positional.empty()) return Usage();
  const std::string& name = args.positional[0];
  DatasetKind kind;
  if (name == "xmark") kind = DatasetKind::kXMark;
  else if (name == "tpch") kind = DatasetKind::kTpch;
  else if (name == "mimi") kind = DatasetKind::kMimi;
  else return Usage();
  size_t k = 10;
  if (const std::string* kflag = args.Get("-k")) {
    auto parsed = ParseInt64(*kflag);
    if (!parsed.ok() || *parsed <= 0) {
      return Fail(Status::InvalidArgument("-k needs a positive integer"));
    }
    k = static_cast<size_t>(*parsed);
  }
  // A reduced scale keeps the demo instant; RCs are scale-invariant.
  ArtifactCache* cache = GetCache();
  auto bundle = LoadDataset(kind, 0.05, cache);
  if (!bundle.ok()) return Fail(bundle.status());
  std::printf("%s: %zu schema elements, %s data nodes, %zu queries\n",
              bundle->name.c_str(), bundle->schema.size(),
              FormatWithCommas(static_cast<int64_t>(bundle->data_elements))
                  .c_str(),
              bundle->workload.size());
  SummarizeOptions options;
  options.parallel.deadline = g_deadline;
  auto context = SummarizerContext::Make(bundle->schema, bundle->annotations,
                                         options, cache);
  if (!context.ok()) return Fail(context.status());
  auto summary = Summarize(*context, k);
  if (!summary.ok()) return Fail(summary.status());
  std::printf("\nsize-%zu BalanceSummary:\n", k);
  for (ElementId a : summary->abstract_elements) {
    std::printf("  %-55s (%zu elements, importance %.0f)\n",
                bundle->schema.PathOf(a).c_str(), summary->Group(a).size(),
                context->importance().importance[a]);
  }
  DiscoveryOracle oracle(bundle->schema);
  double best = AverageDiscoveryCost(oracle, bundle->workload,
                                     TraversalStrategy::kBestFirst);
  double with =
      AverageDiscoveryCostWithSummary(oracle, *summary, bundle->workload);
  std::printf(
      "\nquery discovery over the %zu-query workload:\n"
      "  best-first   %.2f\n  with summary %.2f  (saving %.1f%%)\n",
      bundle->workload.size(), best, with,
      best > 0 ? 100.0 * (1.0 - with / best) : 0.0);
  return 0;
}

/// `ssum gen --config case.scn`: generate a scenario dataset from a config
/// (docs/scenarios.md), annotate it (cache-aware, like the built-ins), and
/// optionally export the artifacts and a materialized XML instance.
int CmdGen(const Args& args) {
  const std::string* config_path = args.Get("--config");
  if (config_path == nullptr) return Usage();
  auto spec = LoadScenarioSpecFile(*config_path, g_limits);
  if (!spec.ok()) return Fail(spec.status());
  auto bundle = LoadScenario(*spec, GetCache());
  if (!bundle.ok()) return Fail(bundle.status());
  std::printf(
      "%s: %zu schema elements, %zu value links, %s units, %s data nodes, "
      "%zu queries (tier %s)\n",
      bundle->name.c_str(), bundle->schema.size(),
      bundle->schema.value_links().size(),
      FormatWithCommas(static_cast<int64_t>(spec->instance_units)).c_str(),
      FormatWithCommas(static_cast<int64_t>(bundle->data_elements)).c_str(),
      bundle->workload.size(), spec->tier.c_str());
  if (const std::string* dir = args.Get("--out-dir")) {
    std::error_code ec;
    std::filesystem::create_directories(*dir, ec);
    if (ec) {
      return Fail(Status::IoError("cannot create '" + *dir + "': " +
                                  ec.message()));
    }
    struct Artifact {
      const char* file;
      std::string content;
    };
    const Artifact artifacts[] = {
        {"schema.ssg", SerializeSchema(bundle->schema)},
        {"annotations.txt", SerializeAnnotations(bundle->annotations)},
        {"workload.txt", SerializeWorkload(bundle->schema, bundle->workload)},
        {"spec.scn", SerializeScenarioSpec(*spec)},
    };
    for (const Artifact& a : artifacts) {
      std::string path = *dir + "/" + a.file;
      Status s = WriteOrPrint(a.content, &path, a.file);
      if (!s.ok()) return Fail(s);
    }
  }
  if (const std::string* xml_path = args.Get("--xml")) {
    auto ds = ScenarioDataset::Make(*spec);
    if (!ds.ok()) return Fail(ds.status());
    auto doc = MaterializeToXml(*ds->MakeStream());
    if (!doc.ok()) return Fail(doc.status());
    if (Status s = WriteXmlFile(*doc, *xml_path); !s.ok()) return Fail(s);
    std::fprintf(stderr, "ssum: instance XML written to %s\n",
                 xml_path->c_str());
  }
  if (const std::string* chain = args.Get("--chain")) {
    const std::string* dir = args.Get("--out-dir");
    if (dir == nullptr) {
      return Fail(Status::InvalidArgument("--chain needs --out-dir"));
    }
    auto n = ParseInt64(*chain);
    if (!n.ok() || *n <= 0 || *n > 1000) {
      return Fail(
          Status::InvalidArgument("--chain needs an integer in [1, 1000]"));
    }
    // v0 is the base spec verbatim; each later version differs only in the
    // per-unit mutation knobs (same name, same schema, same unit layout), so
    // consecutive versions stay on the analytic dirty-unit fast path of
    // `summarize --base`.
    for (int64_t i = 0; i <= *n; ++i) {
      ScenarioSpec v = *spec;
      if (i > 0) {
        v.mutate_seed = static_cast<uint64_t>(i);
        if (v.mutate_fraction <= 0.0) v.mutate_fraction = 0.05;
      }
      std::string path = *dir + "/v" + std::to_string(i) + ".scn";
      Status s = WriteOrPrint(SerializeScenarioSpec(v), &path, "version spec");
      if (!s.ok()) return Fail(s);
    }
  }
  return 0;
}

int CmdCache(const Args& args) {
  if (args.positional.empty()) return Usage();
  const std::string& sub = args.positional[0];
  ArtifactCache* cache = GetCache();
  if (cache == nullptr) {
    std::fprintf(stderr,
                 "ssum: error: 'cache %s' needs a cache directory "
                 "(--cache-dir or SSUM_CACHE_DIR)\n",
                 sub.c_str());
    return kExitUsage;
  }
  if (sub == "stat") {
    // Lifetime counters from the persistent counter file — every command
    // flushes its session counters on exit, so a pipeline can prove a warm
    // re-run recomputed nothing by diffing installs/hits across runs.
    auto counters = cache->ReadPersistentCounters();
    if (!counters.ok()) return Fail(counters.status());
    auto entries = cache->List();
    if (!entries.ok()) return Fail(entries.status());
    uint64_t bytes = 0;
    for (const CacheEntry& e : *entries) bytes += e.bytes;
    std::printf("dir\t%s\n", cache->dir().c_str());
    std::printf("containers\t%zu\n", entries->size());
    std::printf("bytes\t%llu\n", static_cast<unsigned long long>(bytes));
    std::printf("hits\t%llu\n", static_cast<unsigned long long>(counters->hits));
    std::printf("misses\t%llu\n",
                static_cast<unsigned long long>(counters->misses));
    std::printf("installs\t%llu\n",
                static_cast<unsigned long long>(counters->installs));
    std::printf("corrupt\t%llu\n",
                static_cast<unsigned long long>(counters->corrupt));
    std::printf("foreign\t%llu\n",
                static_cast<unsigned long long>(counters->foreign));
    std::printf("mismatch\t%llu\n",
                static_cast<unsigned long long>(counters->mismatch));
    std::printf("quarantined\t%llu\n",
                static_cast<unsigned long long>(counters->quarantined));
    std::printf("healed\t%llu\n",
                static_cast<unsigned long long>(counters->healed));
    return kExitOk;
  }
  if (sub == "ls") {
    auto entries = cache->List();
    if (!entries.ok()) return Fail(entries.status());
    for (const CacheEntry& e : *entries) {
      std::printf("%-44s %10llu  v%u  %s%s\n", e.file.c_str(),
                  static_cast<unsigned long long>(e.bytes), e.format_version,
                  PayloadKindName(e.payload_kind),
                  e.readable ? "" : "  [unreadable]");
    }
    return kExitOk;
  }
  if (sub == "clear") {
    auto removed = cache->Clear();
    if (!removed.ok()) return Fail(removed.status());
    std::fprintf(stderr, "ssum: removed %llu cache files\n",
                 static_cast<unsigned long long>(*removed));
    return kExitOk;
  }
  if (sub == "lineage") {
    // One line per annotation-delta container: which child it rebuilds,
    // which parent it needs, how much of the instance was re-walked, and
    // whether the chain is currently resolvable one hop up.
    auto entries = cache->ListLineage();
    if (!entries.ok()) return Fail(entries.status());
    for (const ArtifactCache::LineageEntry& e : *entries) {
      if (!e.readable) {
        std::printf("%-44s [unreadable]\n", e.file.c_str());
        continue;
      }
      std::printf("%-44s child %s <- parent %s  dirty %llu/%llu%s\n",
                  e.file.c_str(), e.child_key_hex.c_str(),
                  e.parent_key_hex.c_str(),
                  static_cast<unsigned long long>(e.dirty_units),
                  static_cast<unsigned long long>(e.total_units),
                  e.parent_present ? "" : "  [parent missing]");
    }
    if (entries->empty()) {
      std::fprintf(stderr, "ssum: no lineage links in %s\n",
                   cache->dir().c_str());
    }
    return kExitOk;
  }
  if (sub == "verify") {
    // Corrupt containers are quarantined on the spot so that the next
    // lookup is a clean miss (recompute + heal) instead of a repeat failure.
    auto report = cache->Verify(/*quarantine_corrupt=*/true);
    if (!report.ok()) return Fail(report.status());
    std::printf("ok\t%llu\ncorrupt\t%llu\nforeign\t%llu\nquarantined\t%llu\n",
                static_cast<unsigned long long>(report->ok),
                static_cast<unsigned long long>(report->corrupt),
                static_cast<unsigned long long>(report->foreign),
                static_cast<unsigned long long>(report->quarantined));
    for (const std::string& file : report->corrupt_files) {
      std::fprintf(stderr, "ssum: corrupt container: %s (quarantined)\n",
                   file.c_str());
    }
    return report->corrupt == 0 ? kExitOk : kExitBadInput;
  }
  return Usage();
}

int CmdServe(const Args& args) {
  ServeServerOptions options;
  options.cache_dir = g_cache_dir;
  options.limits = g_limits;
  if (const std::string* listen = args.Get("--listen")) {
    options.listen = *listen;
  }
  if (const std::string* workers = args.Get("--workers")) {
    auto v = ParseInt64(*workers);
    if (!v.ok() || *v <= 0) {
      return Fail(Status::InvalidArgument("--workers needs a positive integer"));
    }
    options.workers = static_cast<uint32_t>(*v);
  }
  if (const std::string* queue = args.Get("--queue")) {
    auto v = ParseInt64(*queue);
    if (!v.ok() || *v < 0) {
      return Fail(
          Status::InvalidArgument("--queue needs a non-negative integer"));
    }
    options.queue_depth = static_cast<uint32_t>(*v);
  }
  if (const std::string* scale = args.Get("--scale")) {
    auto v = ParseDouble(*scale);
    if (!v.ok() || *v <= 0.0) {
      return Fail(Status::InvalidArgument("--scale needs a positive number"));
    }
    options.dataset_scale = *v;
  }
  if (const std::string* dir = args.Get("--scenario-dir")) {
    options.scenario_dir = *dir;
  }
  if (const std::string* slow = args.Get("--slow-ms")) {
    auto v = ParseInt64(*slow);
    if (!v.ok() || *v < 0) {
      return Fail(
          Status::InvalidArgument("--slow-ms needs a non-negative integer"));
    }
    options.slow_request_ms = static_cast<uint32_t>(*v);
  }
  SummarizeServer server(std::move(options));
  if (Status s = server.Start(); !s.ok()) return Fail(s);
  // The actual bound address resolves an ephemeral ":0" port; scripts read
  // it from --port-file instead of scraping stderr.
  std::fprintf(stderr, "ssum: serving on %s\n", server.address().c_str());
  if (const std::string* port_file = args.Get("--port-file")) {
    std::ofstream out(*port_file, std::ios::trunc);
    out << server.port() << "\n";
    out.flush();
    if (!out) {
      server.Stop();
      return Fail(Status::IoError("cannot write '" + *port_file + "'"));
    }
  }
  server.WaitForShutdown();
  server.Stop();
  std::fprintf(stderr, "ssum: server stopped\n");
  return kExitOk;
}

int CmdQuery(const Args& args) {
  const std::string* addr = args.Get("--connect");
  if (addr == nullptr || args.positional.empty()) return Usage();
  ServeRequest request;
  {
    auto verb = ParseServeVerb(args.positional[0]);
    if (!verb.ok()) return Fail(verb.status());
    request.verb = *verb;
  }
  if (args.positional.size() > 1) request.dataset = args.positional[1];
  for (size_t i = 2; i < args.positional.size(); ++i) {
    request.paths.push_back(args.positional[i]);
  }
  if (const std::string* kflag = args.Get("-k")) {
    auto v = ParseInt64(*kflag);
    if (!v.ok() || *v <= 0) {
      return Fail(Status::InvalidArgument("-k needs a positive integer"));
    }
    request.k = static_cast<uint64_t>(*v);
  }
  {
    auto alg = ParseAlgorithm(args);
    if (!alg.ok()) return Fail(alg.status());
    request.algorithm = *alg;
  }
  {
    auto options = ParseSummarizeOptions(args);
    if (!options.ok()) return Fail(options.status());
    request.mode = options->mode;
    request.epsilon = options->approx_epsilon;
  }
  if (const std::string* stall = args.Get("--stall-ms")) {
    auto v = ParseInt64(*stall);
    if (!v.ok() || *v < 0) {
      return Fail(
          Status::InvalidArgument("--stall-ms needs a non-negative integer"));
    }
    request.stall_ms = static_cast<uint64_t>(*v);
  }
  if (g_deadline_ms >= 0) {
    request.has_deadline = true;
    request.deadline_ms = static_cast<uint64_t>(g_deadline_ms);
  }
  auto client = ServeClient::Connect(*addr);
  if (!client.ok()) return Fail(client.status());
  auto response = client->Call(request);
  if (!response.ok()) return Fail(response.status());
  if (!response->ok()) return Fail(response->ToStatus());
  std::fputs(response->payload.c_str(), stdout);
  return kExitOk;
}

/// Consumes the global --max-input-bytes / --max-parse-depth flags (and
/// their values) from argv, updating g_limits. Returns non-OK on a
/// malformed value; the flags may appear anywhere on the command line.
Status ConsumeLimitFlags(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string a = argv[i];
    if (a == "--max-input-bytes" || a == "--max-parse-depth") {
      if (i + 1 >= *argc) {
        return Status::InvalidArgument(a + " needs a value");
      }
      auto v = ParseInt64(argv[++i]);
      if (!v.ok() || *v <= 0) {
        return Status::InvalidArgument(a + " needs a positive integer");
      }
      if (a == "--max-input-bytes") {
        g_limits.max_input_bytes = static_cast<size_t>(*v);
      } else {
        g_limits.max_depth = static_cast<size_t>(*v);
      }
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return Status::OK();
}

/// Consumes the global --deadline-ms flag into g_deadline. 0 is legal and
/// means "already expired" — the first cooperative check aborts, which is
/// what makes the deadline path deterministically testable.
Status ConsumeDeadlineFlag(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string a = argv[i];
    if (a == "--deadline-ms") {
      if (i + 1 >= *argc) {
        return Status::InvalidArgument("--deadline-ms needs a value");
      }
      auto v = ParseInt64(argv[++i]);
      if (!v.ok() || *v < 0) {
        return Status::InvalidArgument(
            "--deadline-ms needs a non-negative integer");
      }
      g_deadline = Deadline::After(*v);
      g_deadline_ms = *v;
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return Status::OK();
}

/// Consumes the global --cache-dir flag; SSUM_CACHE_DIR is the fallback
/// when the flag is absent (the flag wins when both are set).
Status ConsumeCacheFlag(int* argc, char** argv) {
  if (const char* env = std::getenv("SSUM_CACHE_DIR");
      env != nullptr && *env != '\0') {
    g_cache_dir = env;
  }
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string a = argv[i];
    if (a == "--cache-dir") {
      if (i + 1 >= *argc) {
        return Status::InvalidArgument("--cache-dir needs a value");
      }
      g_cache_dir = argv[++i];
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return Status::OK();
}

int Dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "infer") return CmdInfer(args);
  if (cmd == "annotate") return CmdAnnotate(args);
  if (cmd == "summarize") return CmdSummarize(args);
  if (cmd == "dot") return CmdDot(args);
  if (cmd == "relational") return CmdRelational(args);
  if (cmd == "discover") return CmdDiscover(args);
  if (cmd == "demo") return CmdDemo(args);
  if (cmd == "gen") return CmdGen(args);
  if (cmd == "cache") return CmdCache(args);
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "query") return CmdQuery(args);
  return Usage();
}

int Main(int argc, char** argv) {
  // Applies --threads via SetDefaultThreadCount, so every kernel invoked
  // below picks it up through the default-constructed ParallelOptions.
  ConsumeThreadsFlag(&argc, argv);
  if (Status s = ConsumeLimitFlags(&argc, argv); !s.ok()) {
    std::fprintf(stderr, "ssum: error: %s\n", s.ToString().c_str());
    return kExitUsage;
  }
  if (Status s = ConsumeCacheFlag(&argc, argv); !s.ok()) {
    std::fprintf(stderr, "ssum: error: %s\n", s.ToString().c_str());
    return kExitUsage;
  }
  if (Status s = ConsumeDeadlineFlag(&argc, argv); !s.ok()) {
    std::fprintf(stderr, "ssum: error: %s\n", s.ToString().c_str());
    return kExitUsage;
  }
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    PrintUsage(stdout);
    return kExitOk;
  }
  const std::vector<std::string> value_flags = {
      "-o",       "-k",        "-a",         "-g",        "--max-depth",
      "--dot",    "--data",    "--dialect",  "--mode",    "--epsilon",
      "--listen", "--workers", "--queue",    "--scale",   "--port-file",
      "--connect", "--stall-ms", "--config", "--out-dir", "--xml",
      "--scenario-dir", "--base", "--chain", "--slow-ms"};
  Args args = Args::Parse(argc, argv, 2, value_flags);
  int code = Dispatch(cmd, args);
  // One flush per command keeps the persistent counters the cross-invocation
  // record `ssum cache stat` reports.
  if (g_cache.has_value()) {
    if (Status s = g_cache->FlushCounters(); !s.ok()) {
      std::fprintf(stderr, "ssum: warning: cache counter flush failed: %s\n",
                   s.ToString().c_str());
    }
  }
  return code;
}

}  // namespace
}  // namespace ssum

int main(int argc, char** argv) { return ssum::Main(argc, argv); }
