#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/env.h"
#include "common/retry.h"
#include "core/summarize.h"
#include "instance/data_tree.h"
#include "schema/schema_builder.h"
#include "stats/annotate.h"
#include "store/artifact_cache.h"
#include "store/codec.h"
#include "store/container.h"
#include "store/fingerprint.h"

namespace ssum {
namespace {

struct Fixture {
  SchemaGraph schema;
  ElementId auctions, auction, bidder, persons, person;
  LinkId bids;

  Fixture() : schema(Build(this)) {}

  static SchemaGraph Build(Fixture* f) {
    SchemaBuilder b("db");
    f->auctions = b.Rcd(b.Root(), "auctions");
    f->auction = b.SetRcd(f->auctions, "auction");
    f->bidder = b.SetRcd(f->auction, "bidder");
    f->persons = b.Rcd(b.Root(), "persons");
    f->person = b.SetRcd(f->persons, "person");
    f->bids = b.Link(f->bidder, f->person);
    return std::move(b).Build();
  }

  Annotations MakeAnnotations() const {
    DataTree t(&schema);
    NodeId a_parent = *t.AddNode(t.root(), auctions);
    NodeId p_parent = *t.AddNode(t.root(), persons);
    NodeId p0 = *t.AddNode(p_parent, person);
    NodeId p1 = *t.AddNode(p_parent, person);
    NodeId a0 = *t.AddNode(a_parent, auction);
    for (int i = 0; i < 3; ++i) {
      NodeId bd = *t.AddNode(a0, bidder);
      EXPECT_TRUE(t.AddReference(bids, bd, i % 2 ? p1 : p0).ok());
    }
    auto ann = AnnotateSchema(t);
    EXPECT_TRUE(ann.ok()) << ann.status().ToString();
    return std::move(*ann);
  }
};

/// Fresh empty cache directory per test (the cache holds a mutex, so tests
/// construct it in place from the prepared directory).
std::string MakeCacheDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/ssum_cache_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ContainerPath(const ArtifactCache& cache, const char* family,
                          const Fingerprint& key) {
  return cache.dir() + "/" + family + "-" + key.ToHex() + ".ssb";
}

TEST(CacheTest, AnnotationsMissStoreHit) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("ann"));
  Annotations ann = f.MakeAnnotations();
  Fingerprint key = FingerprintAnnotations(ann);

  EXPECT_FALSE(cache.LoadAnnotations(f.schema, key).has_value());
  EXPECT_EQ(cache.session_counters().misses, 1u);
  EXPECT_EQ(cache.session_counters().hits, 0u);

  ASSERT_TRUE(cache.StoreAnnotations(key, ann).ok());
  EXPECT_EQ(cache.session_counters().installs, 1u);

  auto hit = cache.LoadAnnotations(f.schema, key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, ann);
  EXPECT_EQ(cache.session_counters().hits, 1u);
  EXPECT_EQ(cache.session_counters().misses, 1u);
}

TEST(CacheTest, MatrixRoundTripIsBitIdentical) {
  ArtifactCache cache(MakeCacheDir("matrix"));
  SquareMatrix m(4, 0.0);
  for (size_t r = 0; r < 4; ++r)
    for (size_t c = 0; c < 4; ++c)
      m.Set(r, c, 1.0 / (1.0 + static_cast<double>(r * 4 + c)));
  Fingerprint key{0xabcdef12345678ull};
  ASSERT_TRUE(cache.StoreMatrix(ArtifactCache::kAffinityFamily, key, m).ok());

  auto hit = cache.LoadMatrix(ArtifactCache::kAffinityFamily, key, 4);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(0, std::memcmp(hit->data().data(), m.data().data(),
                           m.data().size() * sizeof(double)));
  // Same key, other family: distinct file, so a miss.
  EXPECT_FALSE(
      cache.LoadMatrix(ArtifactCache::kCoverageFamily, key, 4).has_value());
}

TEST(CacheTest, MatrixShapeMismatchCountsAsMismatch) {
  ArtifactCache cache(MakeCacheDir("mismatch"));
  Fingerprint key{42};
  ASSERT_TRUE(cache
                  .StoreMatrix(ArtifactCache::kAffinityFamily, key,
                               SquareMatrix(4, 1.0))
                  .ok());
  EXPECT_FALSE(
      cache.LoadMatrix(ArtifactCache::kAffinityFamily, key, 5).has_value());
  EXPECT_EQ(cache.session_counters().mismatch, 1u);
  EXPECT_EQ(cache.session_counters().misses, 1u);
}

TEST(CacheTest, CorruptContainerIsMissThenReinstallRecovers) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("corrupt"));
  Annotations ann = f.MakeAnnotations();
  Fingerprint key{7};
  ASSERT_TRUE(cache.StoreAnnotations(key, ann).ok());

  // Flip one payload byte on disk.
  std::string path =
      ContainerPath(cache, ArtifactCache::kAnnotationsFamily, key);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::string bad = *bytes;
  bad[kContainerHeaderSize + 8] ^= 0x10;
  ASSERT_TRUE(AtomicWriteFile(path, bad).ok());

  EXPECT_FALSE(cache.LoadAnnotations(f.schema, key).has_value());
  EXPECT_EQ(cache.session_counters().corrupt, 1u);
  EXPECT_EQ(cache.session_counters().misses, 1u);

  // The caller recomputes and reinstalls; the next load is a clean hit.
  ASSERT_TRUE(cache.StoreAnnotations(key, ann).ok());
  auto hit = cache.LoadAnnotations(f.schema, key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, ann);
}

TEST(CacheTest, TruncatedContainerIsMissNotError) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("truncated"));
  Annotations ann = f.MakeAnnotations();
  Fingerprint key{8};
  ASSERT_TRUE(cache.StoreAnnotations(key, ann).ok());
  std::string path =
      ContainerPath(cache, ArtifactCache::kAnnotationsFamily, key);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(AtomicWriteFile(path, bytes->substr(0, bytes->size() / 2)).ok());
  EXPECT_FALSE(cache.LoadAnnotations(f.schema, key).has_value());
  EXPECT_EQ(cache.session_counters().corrupt, 1u);
}

TEST(CacheTest, ForeignVersionIsCleanMissAndVerifySkipsIt) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("foreign"));
  Fingerprint key{9};
  // Fabricate a container written by a future format generation.
  ContainerWriter w(static_cast<uint32_t>(PayloadKind::kAnnotations),
                    kContainerFormatVersion + 3);
  w.AddSection(1, "from the future");
  std::string path =
      ContainerPath(cache, ArtifactCache::kAnnotationsFamily, key);
  ASSERT_TRUE(AtomicWriteFile(path, std::move(w).Finish()).ok());

  EXPECT_FALSE(cache.LoadAnnotations(f.schema, key).has_value());
  EXPECT_EQ(cache.session_counters().foreign, 1u);
  EXPECT_EQ(cache.session_counters().corrupt, 0u);

  auto report = cache.Verify();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->foreign, 1u);
  EXPECT_EQ(report->corrupt, 0u);
}

TEST(CacheTest, VerifyFlagsCorruptFiles) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("verify"));
  Annotations ann = f.MakeAnnotations();
  ASSERT_TRUE(cache.StoreAnnotations(Fingerprint{1}, ann).ok());
  ASSERT_TRUE(cache.StoreAnnotations(Fingerprint{2}, ann).ok());
  std::string path =
      ContainerPath(cache, ArtifactCache::kAnnotationsFamily, Fingerprint{2});
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::string bad = *bytes;
  bad[bad.size() - 1] ^= 0xff;  // trailer CRC
  ASSERT_TRUE(AtomicWriteFile(path, bad).ok());

  auto report = cache.Verify();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->ok, 1u);
  EXPECT_EQ(report->corrupt, 1u);
  ASSERT_EQ(report->corrupt_files.size(), 1u);
  EXPECT_NE(report->corrupt_files[0].find("annotations-"), std::string::npos);
}

TEST(CacheTest, ListAndClear) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("listclear"));
  ASSERT_TRUE(
      cache.StoreAnnotations(Fingerprint{1}, f.MakeAnnotations()).ok());
  ASSERT_TRUE(cache
                  .StoreMatrix(ArtifactCache::kAffinityFamily, Fingerprint{2},
                               SquareMatrix(3, 0.0))
                  .ok());
  auto entries = cache.List();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  for (const CacheEntry& e : *entries) {
    EXPECT_TRUE(e.readable);
    EXPECT_EQ(e.format_version, kContainerFormatVersion);
    EXPECT_GT(e.bytes, 0u);
  }
  auto removed = cache.Clear();
  ASSERT_TRUE(removed.ok());
  EXPECT_GE(*removed, 2u);
  entries = cache.List();
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->empty());
}

TEST(CacheTest, PersistentCountersAccumulateAcrossFlushes) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("counters"));
  Annotations ann = f.MakeAnnotations();
  Fingerprint key = FingerprintAnnotations(ann);

  cache.LoadAnnotations(f.schema, key);          // miss
  ASSERT_TRUE(cache.StoreAnnotations(key, ann).ok());  // install
  ASSERT_TRUE(cache.FlushCounters().ok());
  EXPECT_EQ(cache.session_counters().misses, 0u);  // flushed

  // A second "process" over the same directory.
  ArtifactCache again(cache.dir());
  EXPECT_TRUE(again.LoadAnnotations(f.schema, key).has_value());  // hit
  ASSERT_TRUE(again.FlushCounters().ok());

  auto lifetime = again.ReadPersistentCounters();
  ASSERT_TRUE(lifetime.ok());
  EXPECT_EQ(lifetime->misses, 1u);
  EXPECT_EQ(lifetime->installs, 1u);
  EXPECT_EQ(lifetime->hits, 1u);
}

TEST(CacheTest, CorruptCounterFileResetsStatsNeverFails) {
  ArtifactCache cache(MakeCacheDir("badcounters"));
  std::ofstream out(cache.dir() + "/cache-counters.v1.txt");
  out << "!!!not\tnumbers\nhits\tNaN\n";
  out.close();
  auto counters = cache.ReadPersistentCounters();
  ASSERT_TRUE(counters.ok()) << counters.status().ToString();
  EXPECT_EQ(counters->hits, 0u);
  ASSERT_TRUE(cache.FlushCounters().ok());
}

TEST(CacheTest, SummarizerContextWarmStartIsBitIdentical) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("context"));
  Annotations ann = f.MakeAnnotations();
  SummarizeOptions options;

  SummarizerContext cold(f.schema, ann, options, &cache);
  EXPECT_EQ(cold.matrices_loaded_from_cache(), 0);
  EXPECT_EQ(cache.session_counters().installs, 2u);

  SummarizerContext warm(f.schema, ann, options, &cache);
  EXPECT_EQ(warm.matrices_loaded_from_cache(), 2);

  const size_t n = f.schema.size();
  EXPECT_EQ(0, std::memcmp(warm.affinity().matrix().data().data(),
                           cold.affinity().matrix().data().data(),
                           n * n * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(warm.coverage().matrix().data().data(),
                           cold.coverage().matrix().data().data(),
                           n * n * sizeof(double)));

  // Selection from the warm context is identical.
  auto cold_summary = Summarize(cold, 3);
  auto warm_summary = Summarize(warm, 3);
  ASSERT_TRUE(cold_summary.ok());
  ASSERT_TRUE(warm_summary.ok());
  EXPECT_EQ(warm_summary->abstract_elements, cold_summary->abstract_elements);
  EXPECT_EQ(warm_summary->representative, cold_summary->representative);
}

TEST(CacheTest, SummaryStoreLoad) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("summary"));
  Annotations ann = f.MakeAnnotations();
  SummarizerContext context(f.schema, ann);
  auto summary = Summarize(context, 3);
  ASSERT_TRUE(summary.ok());
  Fingerprint key{0x5u};
  ASSERT_TRUE(cache.StoreSummary(key, *summary).ok());
  auto hit = cache.LoadSummary(f.schema, key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->abstract_elements, summary->abstract_elements);
  EXPECT_EQ(hit->representative, summary->representative);
}

TEST(CacheTest, OneShotSummarizeSecondCallIsASummaryHit) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("oneshot"));
  Annotations ann = f.MakeAnnotations();
  auto cold =
      Summarize(f.schema, ann, 3, Algorithm::kBalanceSummary, {}, &cache);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const CacheCounters populated = cache.session_counters();
  EXPECT_EQ(populated.installs, 3u);  // both matrices and the summary

  // The second call is served by the summary container alone.
  auto warm =
      Summarize(f.schema, ann, 3, Algorithm::kBalanceSummary, {}, &cache);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  const CacheCounters after = cache.session_counters();
  EXPECT_EQ(after.installs, populated.installs);
  EXPECT_EQ(after.hits, populated.hits + 1);
  EXPECT_EQ(after.misses, populated.misses);
  EXPECT_EQ(warm->abstract_elements, cold->abstract_elements);
  EXPECT_EQ(warm->representative, cold->representative);

  // Without a cache the same call computes the same summary.
  auto uncached = Summarize(f.schema, ann, 3);
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
  EXPECT_EQ(uncached->abstract_elements, cold->abstract_elements);
  EXPECT_EQ(uncached->representative, cold->representative);
}

TEST(CacheTest, ApproxAndExactSummariesNeverCollide) {
  Fixture f;
  Annotations ann = f.MakeAnnotations();
  SummarizeOptions exact_opts;
  SummarizeOptions approx_opts;
  approx_opts.mode = SummaryMode::kApprox;

  // Mode and epsilon are part of the summary key...
  const Fingerprint exact_key = SummaryFingerprint(
      f.schema, ann, exact_opts, 3, Algorithm::kMaxCoverage);
  const Fingerprint approx_key = SummaryFingerprint(
      f.schema, ann, approx_opts, 3, Algorithm::kMaxCoverage);
  EXPECT_FALSE(exact_key == approx_key);
  SummarizeOptions tighter = approx_opts;
  tighter.approx_epsilon = 0.02;
  EXPECT_FALSE(approx_key == SummaryFingerprint(f.schema, ann, tighter, 3,
                                                Algorithm::kMaxCoverage));

  // ...so a cached exact summary can never satisfy an approx request, and
  // the round-trip returns each mode its own stored summary.
  ArtifactCache cache(MakeCacheDir("mode_collision"));
  SummarizerContext context(f.schema, ann, exact_opts);
  auto exact = Summarize(context, 3, Algorithm::kMaxCoverage);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(cache.StoreSummary(exact_key, *exact).ok());
  EXPECT_FALSE(cache.LoadSummary(f.schema, approx_key).has_value());

  SummarizerContext approx_ctx(f.schema, ann, approx_opts);
  auto approx = Summarize(approx_ctx, 3, Algorithm::kMaxCoverage);
  ASSERT_TRUE(approx.ok());
  ASSERT_TRUE(cache.StoreSummary(approx_key, *approx).ok());
  auto exact_hit = cache.LoadSummary(f.schema, exact_key);
  auto approx_hit = cache.LoadSummary(f.schema, approx_key);
  ASSERT_TRUE(exact_hit.has_value());
  ASSERT_TRUE(approx_hit.has_value());
  EXPECT_EQ(exact_hit->abstract_elements, exact->abstract_elements);
  EXPECT_EQ(approx_hit->abstract_elements, approx->abstract_elements);
}

// ---------------------------------------------------------------------------
// Crash-consistency: crash an install at every fault point, reopen the
// cache with a healthy Env, and check the recovery invariant — the lookup
// returns the old artifact, the new artifact, or a clean miss. It never
// returns corrupt bytes as a hit.
// ---------------------------------------------------------------------------

TEST(CacheCrashTest, CrashAtEveryInstallStepNeverCorruptsAHit) {
  Fixture f;
  Annotations old_ann = f.MakeAnnotations();
  Annotations new_ann = old_ann;
  new_ann.set_card(f.bidder, new_ann.card(f.bidder) + 5);
  Fingerprint key{0x51};

  // Record the op sequence of one clean install through the cache
  // (directory creation plus the atomic write barrier).
  size_t fault_points;
  {
    FaultInjectingEnv probe(Env::Default());
    ArtifactCache probe_cache(MakeCacheDir("crash_probe"), &probe);
    ASSERT_TRUE(probe_cache.StoreAnnotations(key, new_ann).ok());
    fault_points = probe.total_ops();
  }
  ASSERT_GE(fault_points, 6u);

  for (size_t crash_at = 0; crash_at < fault_points; ++crash_at) {
    for (bool preexisting : {false, true}) {
      std::string dir =
          MakeCacheDir("crash_" + std::to_string(crash_at) +
                       (preexisting ? "_old" : "_fresh"));
      if (preexisting) {
        ArtifactCache seed(dir);
        ASSERT_TRUE(seed.StoreAnnotations(key, old_ann).ok());
      }
      {
        // Permanent fault at `crash_at`: every subsequent env op fails
        // too, simulating a power cut mid-install (no cleanup runs).
        FaultInjectingEnv env(Env::Default());
        env.FailAtOpIndex(crash_at, FaultKind::kEio);
        ArtifactCache dying(dir, &env);
        EXPECT_FALSE(dying.StoreAnnotations(key, new_ann).ok())
            << "crash_at=" << crash_at;
      }
      // Recovery: a fresh process over the same directory.
      ArtifactCache cache(dir);
      auto hit = cache.LoadAnnotations(f.schema, key);
      if (hit.has_value()) {
        EXPECT_TRUE(*hit == old_ann || *hit == new_ann)
            << "crash_at=" << crash_at << ": hit is neither artifact";
      } else {
        // A miss is legal only as a *clean* miss or a detected-and-
        // quarantined corruption — never silent acceptance of bad bytes.
        EXPECT_EQ(cache.session_counters().misses, 1u)
            << "crash_at=" << crash_at;
      }
      // Either way the caller's recompute-and-reinstall path must recover
      // completely.
      ASSERT_TRUE(cache.StoreAnnotations(key, new_ann).ok())
          << "crash_at=" << crash_at;
      auto healed = cache.LoadAnnotations(f.schema, key);
      ASSERT_TRUE(healed.has_value()) << "crash_at=" << crash_at;
      EXPECT_EQ(*healed, new_ann) << "crash_at=" << crash_at;
    }
  }
}

TEST(CacheCrashTest, TransientFaultsHealInsideTheCacheRetryLoop) {
  Fixture f;
  Annotations ann = f.MakeAnnotations();
  Fingerprint key{0x52};
  for (const char* spec :
       {"sync#1=eio~", "rename#1=eio~", "write#1=torn:9~", "read#1=eio~"}) {
    FaultInjectingEnv env(Env::Default());
    ASSERT_TRUE(env.LoadSchedule(spec).ok()) << spec;
    RetryPolicy policy;
    policy.sleeper = [](uint64_t) {};  // don't actually sleep in tests
    ArtifactCache cache(MakeCacheDir("transient"), &env, policy);
    ASSERT_TRUE(cache.StoreAnnotations(key, ann).ok()) << spec;
    auto hit = cache.LoadAnnotations(f.schema, key);
    ASSERT_TRUE(hit.has_value()) << spec;
    EXPECT_EQ(*hit, ann) << spec;
    EXPECT_GE(env.faults_injected(), 1u) << spec;
  }
}

// ---------------------------------------------------------------------------
// Quarantine and heal
// ---------------------------------------------------------------------------

TEST(CacheQuarantineTest, CorruptLookupQuarantinesThenReinstallHeals) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("quarantine"));
  Annotations ann = f.MakeAnnotations();
  Fingerprint key{0x53};
  ASSERT_TRUE(cache.StoreAnnotations(key, ann).ok());
  std::string path =
      ContainerPath(cache, ArtifactCache::kAnnotationsFamily, key);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::string bad = *bytes;
  bad[kContainerHeaderSize + 8] ^= 0x10;
  ASSERT_TRUE(AtomicWriteFile(path, bad).ok());

  // Corrupt lookup: miss + the evidence moves aside instead of being
  // destroyed or re-read forever.
  EXPECT_FALSE(cache.LoadAnnotations(f.schema, key).has_value());
  EXPECT_EQ(cache.session_counters().corrupt, 1u);
  EXPECT_EQ(cache.session_counters().quarantined, 1u);
  EXPECT_FALSE(std::filesystem::exists(path));
  std::string qdir = cache.dir() + "/.quarantine";
  ASSERT_TRUE(std::filesystem::exists(qdir));
  size_t quarantined_files = 0;
  for (const auto& e : std::filesystem::directory_iterator(qdir)) {
    (void)e;
    ++quarantined_files;
  }
  EXPECT_EQ(quarantined_files, 1u);

  // Reinstalling over the quarantined path is the heal.
  ASSERT_TRUE(cache.StoreAnnotations(key, ann).ok());
  EXPECT_EQ(cache.session_counters().healed, 1u);
  auto hit = cache.LoadAnnotations(f.schema, key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, ann);

  // Counters round-trip through the persistent ledger.
  ASSERT_TRUE(cache.FlushCounters().ok());
  auto lifetime = cache.ReadPersistentCounters();
  ASSERT_TRUE(lifetime.ok());
  EXPECT_EQ(lifetime->quarantined, 1u);
  EXPECT_EQ(lifetime->healed, 1u);

  // Clear() also empties the quarantine area.
  ASSERT_TRUE(cache.Clear().ok());
  EXPECT_FALSE(std::filesystem::exists(qdir));
}

TEST(CacheQuarantineTest, VerifyCanQuarantineCorruptEntries) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("verify_q"));
  Annotations ann = f.MakeAnnotations();
  ASSERT_TRUE(cache.StoreAnnotations(Fingerprint{1}, ann).ok());
  ASSERT_TRUE(cache.StoreAnnotations(Fingerprint{2}, ann).ok());
  std::string path =
      ContainerPath(cache, ArtifactCache::kAnnotationsFamily, Fingerprint{2});
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::string bad = *bytes;
  bad[bad.size() - 1] ^= 0xff;
  ASSERT_TRUE(AtomicWriteFile(path, bad).ok());

  auto report = cache.Verify(/*quarantine_corrupt=*/true);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->ok, 1u);
  EXPECT_EQ(report->corrupt, 1u);
  EXPECT_EQ(report->quarantined, 1u);
  EXPECT_FALSE(std::filesystem::exists(path));

  // A second verify over the healed directory is clean.
  auto again = cache.Verify(/*quarantine_corrupt=*/true);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->corrupt, 0u);
  EXPECT_EQ(again->quarantined, 0u);
}

TEST(CacheTest, OptionChangesChangeTheKey) {
  Fixture f;
  Annotations ann = f.MakeAnnotations();
  AffinityOptions a1, a2;
  a2.max_steps = a1.max_steps + 3;
  CoverageOptions c;
  Fingerprint base = FingerprintMatrixOptions(a1, c);
  EXPECT_FALSE(base == FingerprintMatrixOptions(a2, c));
  // Different statistics change the annotations fingerprint.
  Annotations other = ann;
  other.set_card(f.bidder, other.card(f.bidder) + 1);
  EXPECT_FALSE(FingerprintAnnotations(ann) == FingerprintAnnotations(other));
}

}  // namespace
}  // namespace ssum
