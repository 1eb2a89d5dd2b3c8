#include "core/summarize.h"

#include <sys/mman.h>

#include <algorithm>
#include <limits>
#include <new>
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

/// Page-backed scratch for the candidate panels of TrialPass, taken from
/// and returned to the OS directly. The panels are large and short-lived.
/// Through the allocator, a freed block that size raises glibc's mmap
/// threshold, so later panels land in a per-thread heap that is never
/// trimmed and stay resident after the call (+2.3 MB of peak RSS in the
/// benchmark's serve_warm workload).
class PageBuffer {
 public:
  explicit PageBuffer(size_t count) : bytes_(count * sizeof(double)) {
    if (bytes_ == 0) return;
    void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<double*>(p);
  }
  ~PageBuffer() {
    if (data_ != nullptr) munmap(data_, bytes_);
  }
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;

  double* data() { return data_; }

 private:
  size_t bytes_;
  double* data_ = nullptr;
};

/// The trial pass of Figure 6's searches, shared by the exact search and the
/// greedy fallback.
///
/// A search keeps CoverageOfSet's running state for its member set: one
/// MemberChoice per element, folded in by AddMember in set order. A member
/// is its own choice with affinity +inf, which nothing takes over, covering
/// itself with C(e -> e). The trial set `members + {c}` offers c last, so
/// its value is one pass that offers c to each element's state and sums the
/// contributions in element order: bit-identical to CoverageOfSet(members +
/// {c}) at O(n) instead of O(|S| n).
///
/// The pass reads A(e -> c_i) and C(c_i -> e) for every candidate, so both
/// are packed once into element-major panels of m = |cands| doubles per
/// element: a pass streams contiguous rows and the take-over select
/// vectorizes across candidates. A candidate covers itself with C(e -> e);
/// its slot in row e holds +inf affinity, which TakesOver always accepts,
/// next to that coverage. The panels take 2 m n doubles.
class TrialPass {
 public:
  TrialPass(const SummarizerContext& context,
            const std::vector<ElementId>& cands)
      : affinity_(context.affinity()),
        coverage_(context.coverage()),
        root_(context.graph().root()),
        n_(context.graph().size()),
        m_(cands.size()),
        pa_buffer_(n_ * m_),
        pc_buffer_(n_ * m_),
        pa_(pa_buffer_.data()),
        pc_(pc_buffer_.data()) {
    for (ElementId e = 0; e < n_; ++e) {
      const double* arow = affinity_.matrix().Row(e);
      for (size_t i = 0; i < m_; ++i) pa_[e * m_ + i] = arow[cands[i]];
    }
    for (size_t i = 0; i < m_; ++i) {
      const double* crow = coverage_.matrix().Row(cands[i]);
      for (ElementId e = 0; e < n_; ++e) pc_[e * m_ + i] = crow[e];
      pa_[cands[i] * m_ + i] = kSelfAffinity;
    }
  }

  /// Folds member `s` into `state`, after the members already in it.
  void AddMember(ElementId s, std::vector<MemberChoice>& state) const {
    for (ElementId e = 0; e < n_; ++e) {
      OfferMember(affinity_, coverage_, e, s, state[e]);
    }
    state[s] = {s, kSelfAffinity, coverage_.At(s, s)};
  }

  /// cov[i] = CoverageOfSet(members + {cands[i]}) for i in [begin, end).
  /// A slot whose candidate is already a member gets a value nobody may
  /// read; skipping it would cost a test per element.
  void Score(const std::vector<MemberChoice>& state, size_t begin, size_t end,
             double* cov) const {
    double* const sum = cov + begin;
    const size_t width = end - begin;
    std::fill(sum, sum + width, 0.0);
    for (ElementId e = 0; e < n_; ++e) {
      if (e == root_) continue;
      // A select instead of a branch, since whether c takes over follows no
      // pattern a predictor can learn. With no member yet, cur.coverage is
      // +0.0, and adding it leaves the sum (which starts at +0.0)
      // bit-for-bit unchanged, as CoverageOfSet's skip does.
      const MemberChoice cur = state[e];
      const double* a = pa_ + e * m_ + begin;
      const double* v = pc_ + e * m_ + begin;
      for (size_t i = 0; i < width; ++i) {
        sum[i] += TakesOver(cur, a[i], v[i]) ? v[i] : cur.coverage;
      }
    }
  }

 private:
  static constexpr double kSelfAffinity =
      std::numeric_limits<double>::infinity();

  const AffinityMatrix& affinity_;
  const CoverageMatrix& coverage_;
  const ElementId root_;
  const size_t n_;
  const size_t m_;
  PageBuffer pa_buffer_;  // pa[e m + i] = A(e -> c_i)
  PageBuffer pc_buffer_;  // pc[e m + i] = C(c_i -> e)
  double* const pa_;
  double* const pc_;
};

/// Exact search of Figure 6: the best of all C(m, k) k-subsets of `cands`
/// in lexicographic order of candidate index, the first strict maximum
/// winning, returned in candidate order. A depth-first walk over the
/// (k-1)-prefixes keeps one state per depth, its parent's plus one
/// AddMember, and one serial trial pass scores every last member after the
/// prefix's last index: O(n) per set instead of CoverageOfSet's O(k n). The
/// deadline is checked once per prefix.
Result<std::vector<ElementId>> ExactMaxCoverage(
    const SummarizerContext& context, const std::vector<ElementId>& cands,
    size_t k) {
  const Deadline& deadline = context.options().parallel.deadline;
  const size_t m = cands.size();
  const TrialPass pass(context, cands);
  std::vector<std::vector<MemberChoice>> states(
      k, std::vector<MemberChoice>(context.graph().size()));
  std::vector<size_t> idx(k);
  std::vector<size_t> best_idx(k);
  double best_cov = -1.0;
  std::vector<double> cov(m);
  // Visits every completion of idx[0..depth) by indices from `from` on, in
  // lexicographic order; states[d] holds the members idx[0..d).
  auto visit = [&](auto& self, size_t depth, size_t from) -> Status {
    if (depth + 1 == k) {
      SSUM_RETURN_NOT_OK(deadline.Check("MaxCoverage enumeration"));
      pass.Score(states[depth], from, m, cov.data());
      for (size_t j = from; j < m; ++j) {
        if (cov[j] > best_cov) {
          best_cov = cov[j];
          idx[depth] = j;
          best_idx = idx;
        }
      }
      return Status::OK();
    }
    // Leave room for the k - 1 - depth members after this one.
    for (size_t i = from; i + (k - 1 - depth) < m; ++i) {
      idx[depth] = i;
      states[depth + 1] = states[depth];
      pass.AddMember(cands[i], states[depth + 1]);
      SSUM_RETURN_NOT_OK(self(self, depth + 1, i + 1));
    }
    return Status::OK();
  };
  SSUM_RETURN_NOT_OK(visit(visit, 0, 0));
  std::vector<ElementId> out(k);
  for (size_t i = 0; i < k; ++i) out[i] = cands[best_idx[i]];
  return out;
}

/// Greedy fallback of Figure 6: each round adds the candidate whose
/// insertion yields the highest CoverageOfSet, the first maximum in
/// candidate order winning. Insertions are independent within a round, so
/// the trial pass runs over 128-candidate chunks in parallel and the
/// reduction in candidate order keeps the serial rule.
Result<std::vector<ElementId>> GreedyMaxCoverage(
    const SummarizerContext& context, const std::vector<ElementId>& cands,
    size_t k) {
  SSUM_RETURN_NOT_OK(
      context.options().parallel.deadline.Check("MaxCoverage greedy"));
  const size_t m = cands.size();
  const TrialPass pass(context, cands);
  std::vector<MemberChoice> state(context.graph().size());
  std::vector<bool> picked(m, false);
  std::vector<double> cov(m);
  std::vector<ElementId> chosen;
  chosen.reserve(k);
  for (size_t round = 0; round < k; ++round) {
    Status st = ParallelForChunked(
        0, m, /*grain=*/128,
        [&](size_t, size_t begin, size_t end) {
          pass.Score(state, begin, end, cov.data());
        },
        context.options().parallel);
    SSUM_RETURN_NOT_OK(st);
    size_t best = m;
    double best_cov = -1.0;
    for (size_t i = 0; i < m; ++i) {
      if (!picked[i] && cov[i] > best_cov) {
        best_cov = cov[i];
        best = i;
      }
    }
    if (best == m) break;
    picked[best] = true;
    chosen.push_back(cands[best]);
    pass.AddMember(cands[best], state);
  }
  return chosen;
}

/// Whether C(n, k) <= budget, for k <= n. The running product after step i
/// is C(n - k + i, i), which only grows toward C(n, k), so the first one
/// over the budget decides; 128-bit products keep every budget up to
/// UINT64_MAX exact.
bool WithinBudget(uint64_t n, uint64_t k, uint64_t budget) {
  k = std::min(k, n - k);
  unsigned __int128 sets = 1;
  for (uint64_t i = 1; i <= k; ++i) {
    sets = sets * (n - k + i) / i;
    if (sets > budget) return false;
  }
  return true;
}

/// Fills `out` up to k with the non-root elements it lacks, in id order:
/// the candidates (or the sketches' picks) can run out before k.
std::vector<ElementId> TopUp(const SchemaGraph& graph,
                             std::vector<ElementId> out, size_t k) {
  for (ElementId e = 0; e < graph.size() && out.size() < k; ++e) {
    if (e == graph.root()) continue;
    if (std::find(out.begin(), out.end(), e) == out.end()) out.push_back(e);
  }
  return out;
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
  // Degenerate: everything non-dominated fits; dominated elements fill up.
  if (cands.size() <= k) return TopUp(context.graph(), cands, k);
  if (context.options().mode == SummaryMode::kApprox) {
    ApproxCoverOptions approx;
    approx.epsilon = context.options().approx_epsilon;
    approx.parallel = context.options().parallel;
    std::vector<ElementId> out;
    SSUM_ASSIGN_OR_RETURN(out, TryApproxMaxCoverage(context.graph(),
                                                    context.coverage(), cands,
                                                    k, approx));
    // The sketches can run out of positive marginal gain before k.
    return TopUp(context.graph(), std::move(out), k);
  }
  if (WithinBudget(cands.size(), k,
                   context.options().max_coverage_enumeration_budget)) {
    return ExactMaxCoverage(context, cands, k);
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
