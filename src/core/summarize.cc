#include "core/summarize.h"

#include <algorithm>
#include <queue>

#include "common/logging.h"
#include "core/approx_cover.h"
#include "core/metrics.h"
#include "store/artifact_cache.h"
#include "store/fingerprint.h"

namespace ssum {

const char* AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kMaxImportance:
      return "MaxImportance";
    case Algorithm::kMaxCoverage:
      return "MaxCoverage";
    case Algorithm::kBalanceSummary:
      return "BalanceSummary";
  }
  return "?";
}

const char* SummaryModeName(SummaryMode m) {
  switch (m) {
    case SummaryMode::kExact:
      return "exact";
    case SummaryMode::kApprox:
      return "approx";
  }
  return "?";
}

namespace {

/// Shared content key of the two matrix artifacts (the family tells them
/// apart). Cold and incremental builds install under this one key, so a
/// patched install is hit by later cold runs of the new version.
Fingerprint MatrixCacheKey(const SchemaGraph& graph,
                           const Annotations& annotations,
                           const SummarizeOptions& options) {
  return MixFingerprints(
      MixFingerprints(FingerprintSchema(graph),
                      FingerprintAnnotations(annotations)),
      FingerprintMatrixOptions(options.affinity, options.coverage));
}

void InstallMatrix(ArtifactCache* cache, const char* family,
                   const Fingerprint& key, const SquareMatrix& matrix,
                   const char* what) {
  if (cache == nullptr) return;
  if (Status stored = cache->StoreMatrix(family, key, matrix); !stored.ok()) {
    SSUM_LOG(kWarning) << "cache: " << what
                       << " install failed: " << stored.ToString();
  }
}

}  // namespace

Result<SummarizerContext> SummarizerContext::Make(
    const SchemaGraph& graph, const Annotations& annotations,
    const SummarizeOptions& options, ArtifactCache* cache) {
  return Build(graph, annotations, options, cache, /*patch_source=*/nullptr);
}

Result<SummarizerContext> SummarizerContext::MakeIncremental(
    const SummarizerContext& base, const Annotations& annotations,
    ArtifactCache* cache, const MatrixPatchOptions& patch,
    MatrixPatchStats* affinity_stats, MatrixPatchStats* coverage_stats) {
  if (annotations.num_elements() != base.graph().size()) {
    return Status::FailedPrecondition(
        "incremental context: annotations describe " +
        std::to_string(annotations.num_elements()) + " elements, schema has " +
        std::to_string(base.graph().size()));
  }
  const PatchSource source{base, patch, affinity_stats, coverage_stats};
  return Build(base.graph(), annotations, base.options(), cache, &source);
}

Result<SummarizerContext> SummarizerContext::Build(
    const SchemaGraph& graph, const Annotations& annotations,
    const SummarizeOptions& options, ArtifactCache* cache,
    const PatchSource* patch_source) {
  SSUM_RETURN_NOT_OK(
      options.parallel.deadline.Check("summarizer context build"));
  SummarizerContext context;
  context.graph_ = &graph;
  context.annotations_ = &annotations;
  context.options_ = options;
  context.metrics_ = EdgeMetrics::Compute(graph, annotations);
  const Fingerprint key = cache != nullptr
                              ? MatrixCacheKey(graph, annotations, options)
                              : Fingerprint{};
  // A cold build warm-starts from the cache: a hit replaces the all-pairs
  // computation with a decode of the bit-identical persisted matrix. An
  // incremental build never looks up, so its patch stats always describe
  // real work; its seed set for the frontier closure is every element whose
  // cardinality, edge-affinity row, or neighbor-weight row moved.
  bool have_affinity = false;
  bool have_coverage = false;
  std::vector<ElementId> dirty;
  if (patch_source != nullptr) {
    const SummarizerContext& base = patch_source->base;
    dirty = DirtyMetricElements(base.annotations(), base.metrics(),
                                annotations, context.metrics_);
  } else if (cache != nullptr) {
    if (auto m = cache->LoadMatrix(ArtifactCache::kAffinityFamily, key,
                                   graph.size())) {
      context.affinity_ = AffinityMatrix::FromMatrix(std::move(*m));
      have_affinity = true;
    }
    if (auto m = cache->LoadMatrix(ArtifactCache::kCoverageFamily, key,
                                   graph.size())) {
      context.coverage_ = CoverageMatrix::FromMatrix(std::move(*m));
      have_coverage = true;
    }
    context.matrices_from_cache_ = int{have_affinity} + int{have_coverage};
  }
  // Importance, affinity, and coverage depend only on EdgeMetrics; with more
  // than one thread they build concurrently, each task writing one member
  // (and its status slot). Each computation is internally deterministic, so
  // the result is bit-identical to the serial order (and to any mix of
  // cached, computed and patched matrices). Importance has no incremental
  // structure (the iteration is global), so it always recomputes.
  const ParallelOptions& parallel = options.parallel;
  Status task_status[3];
  Status st = ParallelFor(
      0, 3, /*grain=*/1,
      [&](size_t task) {
        switch (task) {
          case 0:
            context.importance_ = ComputeImportance(
                graph, annotations, context.metrics_, options.importance);
            break;
          case 1: {
            if (have_affinity) break;
            auto m = patch_source == nullptr
                         ? AffinityMatrix::TryCompute(graph, context.metrics_,
                                                      options.affinity,
                                                      parallel)
                         : AffinityMatrix::TryPatch(
                               graph, context.metrics_,
                               patch_source->base.affinity(), dirty,
                               options.affinity, parallel, patch_source->patch,
                               patch_source->affinity_stats);
            if (m.ok()) context.affinity_ = std::move(*m);
            task_status[task] = m.status();
            break;
          }
          case 2: {
            if (have_coverage) break;
            auto m = patch_source == nullptr
                         ? CoverageMatrix::TryCompute(graph, annotations,
                                                      context.metrics_,
                                                      options.coverage,
                                                      parallel)
                         : CoverageMatrix::TryPatch(
                               graph, annotations, context.metrics_,
                               patch_source->base.coverage(), dirty,
                               options.coverage, parallel, patch_source->patch,
                               patch_source->coverage_stats);
            if (m.ok()) context.coverage_ = std::move(*m);
            task_status[task] = m.status();
            break;
          }
        }
      },
      parallel);
  SSUM_RETURN_NOT_OK(st);
  for (const Status& ts : task_status) SSUM_RETURN_NOT_OK(ts);
  if (!have_affinity) {
    InstallMatrix(cache, ArtifactCache::kAffinityFamily, key,
                  context.affinity_.matrix(), "affinity");
  }
  if (!have_coverage) {
    InstallMatrix(cache, ArtifactCache::kCoverageFamily, key,
                  context.coverage_.matrix(), "coverage");
  }
  SSUM_ASSIGN_OR_RETURN(context.dominance_,
                        TryComputeDominance(graph, annotations,
                                            context.coverage_, parallel));
  return context;
}

namespace {

Status CheckK(const SchemaGraph& graph, size_t k) {
  if (k == 0) return Status::InvalidArgument("summary size must be positive");
  if (k >= graph.size()) {
    return Status::InvalidArgument(
        "summary size " + std::to_string(k) +
        " is not smaller than the schema (" + std::to_string(graph.size()) +
        " elements)");
  }
  return Status::OK();
}

/// Advances a k-subset index vector over n candidates one step in
/// lexicographic order. Returns false at the last combination.
bool AdvanceCombination(std::vector<size_t>& idx, size_t n) {
  const size_t k = idx.size();
  size_t i = k;
  while (i > 0) {
    --i;
    if (idx[i] != i + n - k) {
      ++idx[i];
      for (size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
      return true;
    }
  }
  return false;
}

/// C(n, k) exactly. Callers only pass arguments whose result is bounded by
/// the enumeration budget, so the partial products (themselves binomials)
/// cannot overflow.
uint64_t Binomial(uint64_t n, uint64_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  uint64_t result = 1;
  for (uint64_t i = 1; i <= k; ++i) result = result * (n - k + i) / i;
  return result;
}

/// Index vector of the k-subset of n candidates with lexicographic rank
/// `rank` (combinatorial number system). This is what lets the exact
/// enumeration shard into contiguous rank ranges.
std::vector<size_t> UnrankCombination(size_t n, size_t k, uint64_t rank) {
  std::vector<size_t> idx(k);
  size_t next = 0;
  for (size_t i = 0; i < k; ++i) {
    size_t c = next;
    for (;;) {
      // Combinations that fix position i to candidate c.
      uint64_t with_c = Binomial(n - 1 - c, k - 1 - i);
      if (rank < with_c) break;
      rank -= with_c;
      ++c;
    }
    idx[i] = c;
    next = c + 1;
  }
  return idx;
}

struct ShardBest {
  double cov = -1.0;
  std::vector<size_t> idx;  // lexicographic tie-break key
};

/// Evaluates `count` combinations in lexicographic order starting at `idx`,
/// keeping the first maximum encountered (the serial rule). The deadline is
/// checked every 4096 combinations — a shard can hold the whole rank space
/// (serial scan), so the per-chunk check in ParallelForChunked is not
/// granular enough on its own. On expiry `*status` is set and the partial
/// best is returned (the caller discards it).
ShardBest ScanCombinations(const SummarizerContext& context,
                           const std::vector<ElementId>& cands,
                           std::vector<size_t> idx, uint64_t count,
                           Status* status) {
  const Deadline& deadline = context.options().parallel.deadline;
  const size_t k = idx.size();
  ShardBest best;
  std::vector<ElementId> cur(k);
  for (uint64_t it = 0; it < count; ++it) {
    if ((it & 0xFFFu) == 0u) {
      *status = deadline.Check("MaxCoverage enumeration");
      if (!status->ok()) return best;
    }
    for (size_t i = 0; i < k; ++i) cur[i] = cands[idx[i]];
    double cov = CoverageOfSet(context.graph(), context.affinity(),
                               context.coverage(), cur);
    if (cov > best.cov) {
      best.cov = cov;
      best.idx = idx;
    }
    if (!AdvanceCombination(idx, cands.size())) break;
  }
  return best;
}

/// Exact enumeration of all `total` k-subsets of `cands`, sharded into
/// contiguous lexicographic rank ranges scanned in parallel. Shard winners
/// are reduced in rank order with ties broken toward the lexicographically
/// smaller index vector — exactly the serial loop's "first maximum wins"
/// rule, so every thread count selects the same set.
Result<std::vector<ElementId>> ExactMaxCoverage(
    const SummarizerContext& context, const std::vector<ElementId>& cands,
    size_t k, uint64_t total) {
  const size_t n = cands.size();
  // Sharding only pays when each shard has its own core: requesting more
  // threads than the hardware offers just adds scheduling overhead on top of
  // an unchanged serial scan (a 0.58x slowdown at 4 requested threads on a
  // 1-core host). Clamp the enumeration width to the
  // hardware, scan serially when the rank space is too small to amortize the
  // pool, and cut ~4 shards per thread otherwise. Shard boundaries depend
  // only on the total and the grain, and the reduction is order-independent,
  // so none of this affects the selected set.
  const uint64_t width =
      std::min<uint64_t>(ResolveThreadCount(context.options().parallel.threads),
                         HardwareThreadCount());
  constexpr uint64_t kSerialScanThreshold = 16384;
  const uint64_t grain = (width <= 1 || total < kSerialScanThreshold)
                             ? total
                             : total / (width * 4) + 1;
  std::vector<ShardBest> shards(ParallelNumChunks(0, total, grain));
  std::vector<Status> shard_status(shards.size());
  ParallelOptions shard_options = context.options().parallel;
  shard_options.threads = static_cast<uint32_t>(width);
  Status st = ParallelForChunked(
      0, static_cast<size_t>(total), static_cast<size_t>(grain),
      [&](size_t shard, size_t rank_begin, size_t rank_end) {
        shards[shard] =
            ScanCombinations(context, cands, UnrankCombination(n, k, rank_begin),
                             rank_end - rank_begin, &shard_status[shard]);
      },
      shard_options);
  SSUM_RETURN_NOT_OK(st);
  for (const Status& s : shard_status) SSUM_RETURN_NOT_OK(s);
  ShardBest best;
  for (const ShardBest& s : shards) {
    if (s.idx.empty()) continue;
    if (s.cov > best.cov ||
        (s.cov == best.cov && (best.idx.empty() || s.idx < best.idx))) {
      best = s;
    }
  }
  std::vector<ElementId> out(k);
  for (size_t i = 0; i < k; ++i) out[i] = cands[best.idx[i]];
  return out;
}

/// Greedy fallback of Figure 6: each round adds the candidate whose
/// insertion yields the highest CoverageOfSet, the first maximum in
/// candidate order winning.
///
/// Every element carries CoverageOfSet's running state for `chosen` (member
/// flag and MemberChoice), and each pick is folded into it once. The trial
/// set `chosen + {c}` offers c last, so its value is one pass that offers c
/// to each element's state and sums the contributions in element order:
/// bit-identical to CoverageOfSet(chosen + {c}) at O(n) instead of O(|S| n).
/// A chunk of candidates is evaluated element by element, so A(e -> c) is
/// read along row e instead of down column c.
Result<std::vector<ElementId>> GreedyMaxCoverage(
    const SummarizerContext& context, const std::vector<ElementId>& cands,
    size_t k) {
  const SchemaGraph& graph = context.graph();
  const AffinityMatrix& affinity = context.affinity();
  const CoverageMatrix& coverage = context.coverage();
  const size_t n = graph.size();
  std::vector<ElementId> chosen;
  chosen.reserve(k);
  std::vector<bool> used(n, false);  // the member flag of every element
  std::vector<MemberChoice> best_member(n);
  std::vector<double> cov(cands.size());
  for (size_t round = 0; round < k; ++round) {
    // Candidate insertions are independent within a round: evaluate them in
    // parallel into per-candidate slots, then reduce in candidate order
    // (identical to the serial loop's first-maximum rule).
    Status st = ParallelForChunked(
        0, cands.size(), /*grain=*/128,
        [&](size_t, size_t begin, size_t end) {
          // Slots of already chosen candidates fill with values nobody
          // reads; skipping them would cost a test per element.
          std::fill(cov.begin() + begin, cov.begin() + end, 0.0);
          for (ElementId e = 0; e < n; ++e) {
            if (e == graph.root()) continue;
            const double self = coverage.At(e, e);
            if (used[e]) {
              for (size_t i = begin; i < end; ++i) cov[i] += self;
              continue;
            }
            const MemberChoice cur = best_member[e];
            for (size_t i = begin; i < end; ++i) {
              const ElementId c = cands[i];
              if (c == e) {
                cov[i] += self;
                continue;
              }
              // A select instead of a branch, since whether c takes over
              // follows no pattern a predictor can learn. With no member
              // yet, cur.coverage is +0.0, and adding it leaves the sum
              // (which starts at +0.0) bit-for-bit unchanged, as
              // CoverageOfSet's skip does.
              const double a = affinity.At(e, c);
              const double v = coverage.At(c, e);
              cov[i] += TakesOver(cur, a, v) ? v : cur.coverage;
            }
          }
        },
        context.options().parallel);
    SSUM_RETURN_NOT_OK(st);
    ElementId best = kInvalidElement;
    double best_cov = -1.0;
    for (size_t i = 0; i < cands.size(); ++i) {
      if (used[cands[i]]) continue;
      if (cov[i] > best_cov) {
        best_cov = cov[i];
        best = cands[i];
      }
    }
    if (best == kInvalidElement) break;
    chosen.push_back(best);
    used[best] = true;
    for (ElementId e = 0; e < n; ++e) {
      if (e == graph.root() || used[e]) continue;
      OfferMember(affinity, coverage, e, best, best_member[e]);
    }
  }
  return chosen;
}

/// C(n, k) with saturation.
uint64_t BinomialCapped(uint64_t n, uint64_t k, uint64_t cap) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  uint64_t result = 1;
  for (uint64_t i = 1; i <= k; ++i) {
    // result *= (n - k + i) / i, with overflow guard against the cap.
    if (result > cap) return cap + 1;
    result = result * (n - k + i) / i;
  }
  return std::min(result, cap + 1);
}

}  // namespace

Result<std::vector<ElementId>> SelectMaxImportance(
    const SummarizerContext& context, size_t k) {
  SSUM_RETURN_NOT_OK(CheckK(context.graph(), k));
  std::vector<ElementId> ranked = context.importance().Ranked();
  std::vector<ElementId> out;
  out.reserve(k);
  for (ElementId e : ranked) {
    if (e == context.graph().root()) continue;
    out.push_back(e);
    if (out.size() == k) break;
  }
  if (out.size() < k) {
    return Status::Internal("fewer elements than requested summary size");
  }
  return out;
}

Result<std::vector<ElementId>> SelectMaxCoverage(
    const SummarizerContext& context, size_t k) {
  SSUM_RETURN_NOT_OK(CheckK(context.graph(), k));
  const std::vector<ElementId>& cands = context.dominance().candidates;
  if (cands.size() <= k) {
    // Degenerate: everything non-dominated fits; top up with dominated
    // elements by coverage-of-self to reach k.
    std::vector<ElementId> out = cands;
    for (ElementId e = 0; e < context.graph().size() && out.size() < k; ++e) {
      if (e == context.graph().root()) continue;
      if (std::find(out.begin(), out.end(), e) == out.end()) out.push_back(e);
    }
    return out;
  }
  if (context.options().mode == SummaryMode::kApprox) {
    ApproxCoverOptions approx;
    approx.epsilon = context.options().approx_epsilon;
    approx.parallel = context.options().parallel;
    std::vector<ElementId> out;
    SSUM_ASSIGN_OR_RETURN(out, TryApproxMaxCoverage(context.graph(),
                                                    context.coverage(), cands,
                                                    k, approx));
    // The sketches can run out of positive marginal gain before k; top up
    // the same way the degenerate branch does.
    for (ElementId e = 0; e < context.graph().size() && out.size() < k; ++e) {
      if (e == context.graph().root()) continue;
      if (std::find(out.begin(), out.end(), e) == out.end()) out.push_back(e);
    }
    return out;
  }
  const uint64_t budget = context.options().max_coverage_enumeration_budget;
  uint64_t sets = BinomialCapped(cands.size(), k, budget);
  if (sets <= budget) {
    return ExactMaxCoverage(context, cands, k, sets);
  }
  SSUM_LOG(kInfo) << "MaxCoverage: C(" << cands.size() << "," << k
                  << ") exceeds enumeration budget; using greedy search";
  return GreedyMaxCoverage(context, cands, k);
}

Result<std::vector<ElementId>> SelectBalanced(const SummarizerContext& context,
                                              size_t k) {
  SSUM_RETURN_NOT_OK(CheckK(context.graph(), k));
  const SchemaGraph& graph = context.graph();
  const auto& importance = context.importance().importance;

  // Dominance lookup: each dominator's dominated elements, sorted.
  std::vector<std::vector<ElementId>> dominated_by(graph.size());
  for (const DominancePair& p : context.dominance().pairs) {
    dominated_by[p.dominator].push_back(p.dominated);
  }
  for (std::vector<ElementId>& list : dominated_by) {
    std::sort(list.begin(), list.end());
  }
  auto dominates = [&](ElementId a, ElementId b) {
    return std::binary_search(dominated_by[a].begin(), dominated_by[a].end(),
                              b);
  };

  // Max-heap over importance (ties by id for determinism).
  auto cmp = [&](ElementId a, ElementId b) {
    if (importance[a] != importance[b]) return importance[a] < importance[b];
    return a > b;
  };
  std::priority_queue<ElementId, std::vector<ElementId>, decltype(cmp)> heap(
      cmp);
  for (ElementId e = 0; e < graph.size(); ++e) {
    if (e != graph.root()) heap.push(e);
  }

  std::vector<ElementId> selected;
  // skipped_due_to[e'] = elements skipped because e' dominated them.
  std::vector<std::vector<ElementId>> skipped_due_to(graph.size());
  std::vector<bool> in_selected(graph.size(), false);
  size_t safety = graph.size() * graph.size() + 16;
  while (!heap.empty() && selected.size() < k) {
    SSUM_CHECK(safety-- > 0, "BalanceSummary failed to terminate");
    ElementId e = heap.top();
    heap.pop();
    if (in_selected[e]) continue;
    // Figure 7 line 6: skip elements dominated by a selected element.
    ElementId dominator_in_E = kInvalidElement;
    for (ElementId s : selected) {
      if (dominates(s, e)) {
        dominator_in_E = s;
        break;
      }
    }
    if (dominator_in_E != kInvalidElement) {
      skipped_due_to[dominator_in_E].push_back(e);
      continue;
    }
    // Figure 7 line 8: e may dominate already-selected elements; evict them
    // and resurrect everything they had suppressed.
    std::vector<ElementId> evicted;
    for (ElementId s : selected) {
      if (dominates(e, s)) evicted.push_back(s);
    }
    for (ElementId s : evicted) {
      selected.erase(std::find(selected.begin(), selected.end(), s));
      in_selected[s] = false;
      for (ElementId back : skipped_due_to[s]) heap.push(back);
      skipped_due_to[s].clear();
      heap.push(s);  // the evicted element may still qualify later
    }
    selected.push_back(e);
    in_selected[e] = true;
  }
  if (selected.size() < k) {
    // Requested size exceeds the number of mutually non-dominated elements
    // (possible for very large summaries): top up with the remaining
    // elements in importance order — Figure 7 leaves this case open, and
    // including dominated elements is the only way to reach the size.
    for (ElementId e : context.importance().Ranked()) {
      if (selected.size() == k) break;
      if (e == graph.root() || in_selected[e]) continue;
      selected.push_back(e);
      in_selected[e] = true;
    }
  }
  if (selected.size() < k) {
    return Status::Internal(
        "BalanceSummary could not fill the requested size");
  }
  return selected;
}

Result<SchemaSummary> Summarize(const SummarizerContext& context, size_t k,
                                Algorithm algorithm) {
  SSUM_RETURN_NOT_OK(context.options().parallel.deadline.Check("summarize"));
  std::vector<ElementId> selected;
  switch (algorithm) {
    case Algorithm::kMaxImportance:
      SSUM_ASSIGN_OR_RETURN(selected, SelectMaxImportance(context, k));
      break;
    case Algorithm::kMaxCoverage:
      SSUM_ASSIGN_OR_RETURN(selected, SelectMaxCoverage(context, k));
      break;
    case Algorithm::kBalanceSummary:
      SSUM_ASSIGN_OR_RETURN(selected, SelectBalanced(context, k));
      break;
  }
  return BuildSummary(context.graph(), context.affinity(), context.coverage(),
                      std::move(selected));
}

Fingerprint SummaryFingerprint(const SchemaGraph& graph,
                               const Annotations& annotations,
                               const SummarizeOptions& options, size_t k,
                               Algorithm algorithm) {
  Fnv1a64 h;
  h.Update("ssum-summary-fp:");
  h.UpdateU64(static_cast<uint64_t>(k));
  h.UpdateU64(static_cast<uint64_t>(algorithm));
  h.UpdateDouble(options.importance.neighborhood_factor);
  h.UpdateDouble(options.importance.convergence_threshold);
  h.UpdateU64(static_cast<uint64_t>(options.importance.max_iterations));
  h.UpdateU64(options.importance.cardinality_init ? 1 : 0);
  h.UpdateU64(options.max_coverage_enumeration_budget);
  // Mode and epsilon keep approximate and exact summaries of the same schema
  // apart in the ArtifactCache (hashed unconditionally; pre-existing entries
  // just miss once).
  h.UpdateU64(static_cast<uint64_t>(options.mode));
  h.UpdateDouble(options.approx_epsilon);
  return MixFingerprints(
      MixFingerprints(FingerprintSchema(graph),
                      FingerprintAnnotations(annotations)),
      MixFingerprints(
          FingerprintMatrixOptions(options.affinity, options.coverage),
          Fingerprint{h.Digest()}));
}

Result<SchemaSummary> Summarize(const SchemaGraph& graph,
                                const Annotations& annotations, size_t k,
                                Algorithm algorithm,
                                const SummarizeOptions& options,
                                ArtifactCache* cache) {
  // Three cache layers, each a strict subset of the work below it: a summary
  // hit skips everything; otherwise the context constructor tries the two
  // matrices; whatever was computed is installed for the next invocation.
  SSUM_RETURN_NOT_OK(options.parallel.deadline.Check("summarize"));
  Fingerprint key;
  if (cache != nullptr) {
    key = SummaryFingerprint(graph, annotations, options, k, algorithm);
    if (auto hit = cache->LoadSummary(graph, key)) return std::move(*hit);
  }
  auto context = SummarizerContext::Make(graph, annotations, options, cache);
  SSUM_RETURN_NOT_OK(context.status());
  SchemaSummary summary;
  SSUM_ASSIGN_OR_RETURN(summary, Summarize(*context, k, algorithm));
  if (cache == nullptr) return summary;
  if (Status s = cache->StoreSummary(key, summary); !s.ok()) {
    SSUM_LOG(kWarning) << "summary install failed: " << s.ToString();
  }
  return summary;
}

}  // namespace ssum
