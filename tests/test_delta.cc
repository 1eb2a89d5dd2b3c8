// Incremental delta-summarization: annotation algebra (Subtract / Diff /
// Apply), per-unit digests, the DeltaAnnotate pass, matrix patching, and the
// incremental context — each gated on bit-identity with its full-recompute
// counterpart.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/summarize.h"
#include "datasets/scenario.h"
#include "instance/unit_digest.h"
#include "stats/annotate.h"
#include "stats/delta.h"
#include "store/codec.h"
#include "store/fingerprint.h"

namespace ssum {
namespace {

/// Two versions of one scenario, differing only in the per-unit mutation
/// knobs (same schema, same unit layout) — the delta-friendly shape
/// `ssum gen --chain` emits.
struct VersionPair {
  ScenarioSpec base_spec;
  ScenarioSpec next_spec;
  ScenarioDataset base;
  ScenarioDataset next;

  static VersionPair Make(uint32_t elements = 80, uint64_t units = 300,
                          double mutate_fraction = 0.05) {
    ScenarioSpec spec;
    spec.name = "delta-test";
    spec.seed = 11;
    spec.schema_elements = elements;
    spec.instance_units = units;
    ScenarioSpec next = spec;
    next.mutate_seed = 3;
    next.mutate_fraction = mutate_fraction;
    auto base_ds = ScenarioDataset::Make(spec);
    auto next_ds = ScenarioDataset::Make(next);
    EXPECT_TRUE(base_ds.ok()) << base_ds.status().ToString();
    EXPECT_TRUE(next_ds.ok()) << next_ds.status().ToString();
    return VersionPair{spec, next, std::move(*base_ds), std::move(*next_ds)};
  }

  Annotations Annotate(const ScenarioDataset& ds) const {
    auto ann = AnnotateSchemaSharded(*ds.MakeShardedSource());
    EXPECT_TRUE(ann.ok()) << ann.status().ToString();
    return std::move(*ann);
  }
};

// ---------------------------------------------------------------------------
// Annotations::Subtract
// ---------------------------------------------------------------------------

TEST(SubtractTest, SubtractIsTheInverseOfMerge) {
  VersionPair v = VersionPair::Make();
  Annotations a = v.Annotate(v.base);
  Annotations b = v.Annotate(v.next);
  Annotations sum = a;
  ASSERT_TRUE(sum.Merge(b).ok());
  ASSERT_TRUE(sum.Subtract(b).ok());
  EXPECT_EQ(sum, a);
}

TEST(SubtractTest, UnderflowFailsAndLeavesTheTargetUntouched) {
  VersionPair v = VersionPair::Make();
  Annotations a = v.Annotate(v.base);
  Annotations big = a;
  big.set_card(1, a.card(1) + 1);
  Annotations before = a;
  EXPECT_TRUE(a.Subtract(big).IsFailedPrecondition());
  EXPECT_EQ(a, before);  // validated before any counter moved
}

TEST(SubtractTest, ShapeMismatchFails) {
  VersionPair v = VersionPair::Make();
  Annotations a = v.Annotate(v.base);
  Annotations other;  // empty shape
  EXPECT_TRUE(a.Subtract(other).IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Per-unit digests and dirty-unit detection
// ---------------------------------------------------------------------------

TEST(UnitDigestTest, DigestDiffAgreesWithTheAnalyticDirtySet) {
  VersionPair v = VersionPair::Make();
  auto base_digests = ComputeUnitDigests(*v.base.MakeShardedSource());
  auto next_digests = ComputeUnitDigests(*v.next.MakeShardedSource());
  ASSERT_TRUE(base_digests.ok());
  ASSERT_TRUE(next_digests.ok());
  auto diffed = DiffUnitDigests(*base_digests, *next_digests);
  ASSERT_TRUE(diffed.ok());
  auto analytic = DirtyUnitsBetween(v.base_spec, v.next_spec);
  ASSERT_TRUE(analytic.ok()) << analytic.status().ToString();
  // The analytic set marks units whose multiplier moved; a marked unit only
  // produces different bytes if it actually draws set counts, so the digest
  // diff is a subset. Every byte-dirty unit must be analytically marked.
  for (uint64_t u : *diffed) {
    EXPECT_TRUE(std::find(analytic->begin(), analytic->end(), u) !=
                analytic->end())
        << "unit " << u << " changed bytes but was not analytically dirty";
  }
  EXPECT_FALSE(diffed->empty());
  EXPECT_LT(diffed->size(), v.base.NumUnits());
}

TEST(UnitDigestTest, IdenticalSourcesHaveNoDirtyUnits) {
  VersionPair v = VersionPair::Make();
  auto a = ComputeUnitDigests(*v.base.MakeShardedSource());
  auto b = ComputeUnitDigests(*v.base.MakeShardedSource());
  ASSERT_TRUE(a.ok() && b.ok());
  auto diffed = DiffUnitDigests(*a, *b);
  ASSERT_TRUE(diffed.ok());
  EXPECT_TRUE(diffed->empty());
}

TEST(UnitDigestTest, LengthMismatchFails) {
  std::vector<uint64_t> a = {1, 2, 3};
  std::vector<uint64_t> b = {1, 2};
  EXPECT_TRUE(DiffUnitDigests(a, b).status().IsFailedPrecondition());
}

TEST(DirtyUnitsTest, NonMutateSpecChangesAreRejected) {
  VersionPair v = VersionPair::Make();
  ScenarioSpec other = v.base_spec;
  other.instance_units += 1;
  EXPECT_TRUE(
      DirtyUnitsBetween(v.base_spec, other).status().IsInvalidArgument());
  ScenarioSpec added = v.base_spec;
  added.mutate_add_elements = 2;  // schema change: not per-unit
  EXPECT_TRUE(
      DirtyUnitsBetween(v.base_spec, added).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// DiffAnnotations / ApplyAnnotationDelta
// ---------------------------------------------------------------------------

TEST(DeltaAlgebraTest, DiffThenApplyReconstructsTheChildExactly) {
  VersionPair v = VersionPair::Make();
  Annotations parent = v.Annotate(v.base);
  Annotations child = v.Annotate(v.next);
  auto delta = DiffAnnotations(parent, child);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  auto rebuilt = ApplyAnnotationDelta(v.base.schema(), parent, *delta);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(*rebuilt, child);
}

TEST(DeltaAlgebraTest, WrongParentIsAFailedPreconditionNotDataLoss) {
  VersionPair v = VersionPair::Make();
  Annotations parent = v.Annotate(v.base);
  Annotations child = v.Annotate(v.next);
  auto delta = DiffAnnotations(parent, child);
  ASSERT_TRUE(delta.ok());
  Annotations stranger = parent;
  stranger.set_card(2, parent.card(2) + 7);
  auto applied = ApplyAnnotationDelta(v.base.schema(), stranger, *delta);
  EXPECT_TRUE(applied.status().IsFailedPrecondition())
      << applied.status().ToString();
}

TEST(DeltaAlgebraTest, TamperedDiffArraysAreDataLoss) {
  VersionPair v = VersionPair::Make();
  Annotations parent = v.Annotate(v.base);
  Annotations child = v.Annotate(v.next);
  auto delta = DiffAnnotations(parent, child);
  ASSERT_TRUE(delta.ok());
  // The per-counter diff no longer reproduces the recorded child
  // fingerprint: the result must be rejected, never silently wrong.
  AnnotationDelta lying = *delta;
  lying.d_card[1] += 1;
  auto applied = ApplyAnnotationDelta(v.base.schema(), parent, lying);
  EXPECT_TRUE(applied.status().IsDataLoss()) << applied.status().ToString();
}

// ---------------------------------------------------------------------------
// DeltaAnnotate: incremental pass == full pass, bit for bit
// ---------------------------------------------------------------------------

TEST(DeltaAnnotateTest, MatchesTheFullPassAtEveryThreadCount) {
  VersionPair v = VersionPair::Make();
  Annotations base_ann = v.Annotate(v.base);
  Annotations full = v.Annotate(v.next);
  auto dirty = DirtyUnitsBetween(v.base_spec, v.next_spec);
  ASSERT_TRUE(dirty.ok());
  for (uint32_t threads : {1u, 8u}) {
    DeltaAnnotateOptions options;
    options.parallel.threads = threads;
    auto inc = DeltaAnnotate(*v.base.MakeShardedSource(),
                             *v.next.MakeShardedSource(), base_ann, *dirty,
                             options);
    ASSERT_TRUE(inc.ok()) << inc.status().ToString();
    EXPECT_EQ(*inc, full) << "threads=" << threads;
  }
  // The scenario entry point takes the same incremental path over a strict,
  // non-empty subset of the units.
  auto scenario = AnnotateScenarioDelta(v.base, v.next);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  EXPECT_TRUE(scenario->incremental) << scenario->fallback_reason;
  EXPECT_GT(scenario->dirty_units, 0u);
  EXPECT_LT(scenario->dirty_units, scenario->total_units);
  EXPECT_EQ(scenario->annotations, full);
}

TEST(DeltaAnnotateTest, UnitCountMismatchFailsCleanly) {
  VersionPair v = VersionPair::Make();
  ScenarioSpec shrunk = v.base_spec;
  shrunk.instance_units /= 2;
  auto small = ScenarioDataset::Make(shrunk);
  ASSERT_TRUE(small.ok());
  Annotations base_ann = v.Annotate(v.base);
  auto inc = DeltaAnnotate(*v.base.MakeShardedSource(),
                           *small->MakeShardedSource(), base_ann, {0});
  EXPECT_TRUE(inc.status().IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Matrix patching: TryPatch == TryCompute, bit for bit
// ---------------------------------------------------------------------------

/// A single-element cardinality bump keeps the dirty-frontier closure small
/// at short walk bounds, so the patch path (not its full-recompute
/// fallback) is what gets exercised.
struct PatchFixture {
  VersionPair v = VersionPair::Make(/*elements=*/120, /*units=*/200);
  Annotations base_ann = v.Annotate(v.base);
  Annotations next_ann = base_ann;
  EdgeMetrics base_metrics, next_metrics;

  PatchFixture() {
    next_ann.set_card(static_cast<ElementId>(v.base.schema().size() - 1),
                      base_ann.card(static_cast<ElementId>(
                          v.base.schema().size() - 1)) +
                          17);
    base_metrics = EdgeMetrics::Compute(v.base.schema(), base_ann);
    next_metrics = EdgeMetrics::Compute(v.base.schema(), next_ann);
  }
};

TEST(MatrixPatchTest, AffinityPatchIsBitIdenticalToRecompute) {
  PatchFixture f;
  const std::vector<ElementId> dirty = DirtyMetricElements(
      f.base_ann, f.base_metrics, f.next_ann, f.next_metrics);
  ASSERT_FALSE(dirty.empty());
  for (uint32_t max_steps : {2u, 4u}) {
    AffinityOptions options;
    options.max_steps = max_steps;
    auto base = AffinityMatrix::TryCompute(f.v.base.schema(), f.base_metrics,
                                           options);
    auto full = AffinityMatrix::TryCompute(f.v.base.schema(), f.next_metrics,
                                           options);
    ASSERT_TRUE(base.ok() && full.ok());
    MatrixPatchStats stats;
    auto patched = AffinityMatrix::TryPatch(f.v.base.schema(), f.next_metrics,
                                            *base, dirty, options, {}, {},
                                            &stats);
    ASSERT_TRUE(patched.ok()) << patched.status().ToString();
    EXPECT_EQ(0, std::memcmp(patched->matrix().data().data(),
                             full->matrix().data().data(),
                             full->matrix().data().size() * sizeof(double)))
        << "max_steps=" << max_steps;
    EXPECT_TRUE(stats.patched) << "max_steps=" << max_steps
                               << " dirty_rows=" << stats.dirty_rows;
    EXPECT_LT(stats.dirty_rows, stats.total_rows);
  }
}

TEST(MatrixPatchTest, CoveragePatchIsBitIdenticalToRecompute) {
  PatchFixture f;
  const std::vector<ElementId> dirty = DirtyMetricElements(
      f.base_ann, f.base_metrics, f.next_ann, f.next_metrics);
  ASSERT_FALSE(dirty.empty());
  for (uint32_t max_steps : {2u, 4u}) {
    CoverageOptions options;
    options.max_steps = max_steps;
    auto base = CoverageMatrix::TryCompute(f.v.base.schema(), f.base_ann,
                                           f.base_metrics, options);
    auto full = CoverageMatrix::TryCompute(f.v.base.schema(), f.next_ann,
                                           f.next_metrics, options);
    ASSERT_TRUE(base.ok() && full.ok());
    MatrixPatchStats stats;
    auto patched = CoverageMatrix::TryPatch(f.v.base.schema(), f.next_ann,
                                            f.next_metrics, *base, dirty,
                                            options, {}, {}, &stats);
    ASSERT_TRUE(patched.ok()) << patched.status().ToString();
    EXPECT_EQ(0, std::memcmp(patched->matrix().data().data(),
                             full->matrix().data().data(),
                             full->matrix().data().size() * sizeof(double)))
        << "max_steps=" << max_steps;
    EXPECT_TRUE(stats.patched) << "max_steps=" << max_steps;
  }
}

TEST(MatrixPatchTest, DirtyFractionFallbackStillMatchesRecompute) {
  PatchFixture f;
  const std::vector<ElementId> dirty = DirtyMetricElements(
      f.base_ann, f.base_metrics, f.next_ann, f.next_metrics);
  AffinityOptions options;
  options.max_steps = 4;
  auto base =
      AffinityMatrix::TryCompute(f.v.base.schema(), f.base_metrics, options);
  auto full =
      AffinityMatrix::TryCompute(f.v.base.schema(), f.next_metrics, options);
  ASSERT_TRUE(base.ok() && full.ok());
  MatrixPatchOptions patch;
  patch.max_dirty_fraction = 0.0;  // force the fallback
  MatrixPatchStats stats;
  auto patched = AffinityMatrix::TryPatch(f.v.base.schema(), f.next_metrics,
                                          *base, dirty, options, {}, patch,
                                          &stats);
  ASSERT_TRUE(patched.ok());
  EXPECT_FALSE(stats.patched);
  EXPECT_EQ(0, std::memcmp(patched->matrix().data().data(),
                           full->matrix().data().data(),
                           full->matrix().data().size() * sizeof(double)));
}

TEST(MatrixPatchTest, WrongOrderBaseFails) {
  PatchFixture f;
  AffinityMatrix tiny = AffinityMatrix::FromMatrix(SquareMatrix(3, 0.0));
  auto patched = AffinityMatrix::TryPatch(f.v.base.schema(), f.next_metrics,
                                          tiny, {});
  EXPECT_TRUE(patched.status().IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Incremental summarizer context
// ---------------------------------------------------------------------------

TEST(IncrementalContextTest, MatchesColdContextAtEveryThreadCount) {
  VersionPair v = VersionPair::Make();
  Annotations base_ann = v.Annotate(v.base);
  Annotations next_ann = v.Annotate(v.next);
  for (uint32_t threads : {1u, 8u}) {
    SummarizeOptions options;
    options.parallel.threads = threads;
    auto base_ctx =
        SummarizerContext::Make(v.base.schema(), base_ann, options);
    ASSERT_TRUE(base_ctx.ok());
    auto inc = SummarizerContext::MakeIncremental(*base_ctx, next_ann);
    ASSERT_TRUE(inc.ok()) << inc.status().ToString();
    auto cold = SummarizerContext::Make(v.next.schema(), next_ann, options);
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(0, std::memcmp(inc->affinity().matrix().data().data(),
                             cold->affinity().matrix().data().data(),
                             cold->affinity().matrix().data().size() *
                                 sizeof(double)))
        << "threads=" << threads;
    EXPECT_EQ(0, std::memcmp(inc->coverage().matrix().data().data(),
                             cold->coverage().matrix().data().data(),
                             cold->coverage().matrix().data().size() *
                                 sizeof(double)))
        << "threads=" << threads;
    auto inc_summary = Summarize(*inc, 6);
    auto cold_summary = Summarize(*cold, 6);
    ASSERT_TRUE(inc_summary.ok() && cold_summary.ok());
    EXPECT_EQ(inc_summary->abstract_elements, cold_summary->abstract_elements)
        << "threads=" << threads;
  }
}

TEST(IncrementalContextTest, WrongShapeAnnotationsFail) {
  VersionPair v = VersionPair::Make();
  Annotations base_ann = v.Annotate(v.base);
  auto base_ctx = SummarizerContext::Make(v.base.schema(), base_ann);
  ASSERT_TRUE(base_ctx.ok());
  Annotations foreign;  // empty shape
  auto inc = SummarizerContext::MakeIncremental(*base_ctx, foreign);
  EXPECT_TRUE(inc.status().IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Delta codec: every byte flip detected (mirrors test_store.cc sweeps)
// ---------------------------------------------------------------------------

template <typename DecodeFn>
void ExpectEveryFlipFails(const std::string& good, DecodeFn decode) {
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ 0x40);
    const Status s = decode(bad);
    ASSERT_FALSE(s.ok()) << "flip at byte " << i << " went undetected";
    EXPECT_TRUE(s.IsDataLoss() || s.IsOutOfRange() || s.IsFailedPrecondition())
        << "byte " << i << ": " << s.ToString();
  }
  for (size_t len = 0; len < good.size(); ++len) {
    const Status s = decode(good.substr(0, len));
    ASSERT_FALSE(s.ok()) << "truncation to " << len << " accepted";
  }
}

TEST(DeltaCodecTest, RoundTripPreservesEveryField) {
  VersionPair v = VersionPair::Make();
  Annotations parent = v.Annotate(v.base);
  Annotations child = v.Annotate(v.next);
  auto delta = DiffAnnotations(parent, child);
  ASSERT_TRUE(delta.ok());
  delta->dirty_units = 12;
  delta->total_units = v.base.NumUnits();
  const Fingerprint parent_key{0xfeedULL};
  std::string bytes = EncodeAnnotationDelta(parent_key, *delta);
  auto decoded = DecodeAnnotationDelta(v.base.schema(), bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->parent_key, parent_key);
  EXPECT_EQ(decoded->delta, *delta);
  // The lineage-only peek agrees on everything it decodes.
  auto peek = PeekAnnotationDelta(bytes);
  ASSERT_TRUE(peek.ok());
  EXPECT_EQ(peek->parent_key, parent_key);
  EXPECT_EQ(peek->delta.parent_fingerprint, delta->parent_fingerprint);
  EXPECT_EQ(peek->delta.child_fingerprint, delta->child_fingerprint);
  EXPECT_EQ(peek->delta.dirty_units, delta->dirty_units);
  EXPECT_EQ(peek->delta.total_units, delta->total_units);
}

TEST(DeltaCodecTest, NegativeDiffsSurviveTheRoundTrip) {
  VersionPair v = VersionPair::Make();
  Annotations parent = v.Annotate(v.next);  // swapped: diffs go negative
  Annotations child = v.Annotate(v.base);
  auto delta = DiffAnnotations(parent, child);
  ASSERT_TRUE(delta.ok());
  bool has_negative = false;
  for (int64_t d : delta->d_card) has_negative |= (d < 0);
  for (int64_t d : delta->d_slink) has_negative |= (d < 0);
  EXPECT_TRUE(has_negative) << "fixture no longer produces negative diffs";
  std::string bytes = EncodeAnnotationDelta(Fingerprint{1}, *delta);
  auto decoded = DecodeAnnotationDelta(v.base.schema(), bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->delta, *delta);
}

TEST(DeltaCodecTest, DeltaSurvivesArbitraryCorruption) {
  VersionPair v = VersionPair::Make(/*elements=*/40, /*units=*/60);
  Annotations parent = v.Annotate(v.base);
  Annotations child = v.Annotate(v.next);
  auto delta = DiffAnnotations(parent, child);
  ASSERT_TRUE(delta.ok());
  std::string good = EncodeAnnotationDelta(Fingerprint{0xabc}, *delta);
  ExpectEveryFlipFails(good, [&v](const std::string& bytes) {
    return DecodeAnnotationDelta(v.base.schema(), bytes).status();
  });
  ExpectEveryFlipFails(good, [](const std::string& bytes) {
    return PeekAnnotationDelta(bytes).status();
  });
}

TEST(DeltaCodecTest, WrongSchemaShapeIsFailedPrecondition) {
  VersionPair v = VersionPair::Make();
  Annotations parent = v.Annotate(v.base);
  Annotations child = v.Annotate(v.next);
  auto delta = DiffAnnotations(parent, child);
  ASSERT_TRUE(delta.ok());
  std::string bytes = EncodeAnnotationDelta(Fingerprint{2}, *delta);
  VersionPair other = VersionPair::Make(/*elements=*/30, /*units=*/50);
  auto decoded = DecodeAnnotationDelta(other.base.schema(), bytes);
  EXPECT_TRUE(decoded.status().IsFailedPrecondition())
      << decoded.status().ToString();
}

}  // namespace
}  // namespace ssum
