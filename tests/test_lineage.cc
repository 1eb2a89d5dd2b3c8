// Snapshot lineage in the artifact cache: delta links resolving through
// parent chains, every failure degrading to a clean miss (wrong parent,
// missing ancestor, depth cap, cycles), corruption quarantined, and the
// delta install crash-swept for the {old | new | clean miss} invariant.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/env.h"
#include "common/retry.h"
#include "instance/data_tree.h"
#include "schema/schema_builder.h"
#include "stats/annotate.h"
#include "stats/delta.h"
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

  /// A new "version" of `base`: the same shape with one counter moved.
  Annotations Bump(const Annotations& base, uint64_t by) const {
    Annotations next = base;
    next.set_card(bidder, base.card(bidder) + by);
    return next;
  }

  AnnotationDelta Delta(const Annotations& parent,
                        const Annotations& child) const {
    auto delta = DiffAnnotations(parent, child);
    EXPECT_TRUE(delta.ok()) << delta.status().ToString();
    return std::move(*delta);
  }
};

std::string MakeCacheDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/ssum_lineage_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ContainerPath(const ArtifactCache& cache, const char* family,
                          const Fingerprint& key) {
  return cache.dir() + "/" + family + "-" + key.ToHex() + ".ssb";
}

TEST(LineageTest, DirectHitResolvesWithZeroHops) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("direct"));
  Annotations ann = f.MakeAnnotations();
  Fingerprint key{0xA1};
  ASSERT_TRUE(cache.StoreAnnotations(key, ann).ok());
  auto hit = cache.LoadAnnotationsLineage(f.schema, key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->annotations, ann);
  EXPECT_EQ(hit->delta_hops, 0u);
}

TEST(LineageTest, OneHopResolvesThroughTheDelta) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("onehop"));
  Annotations parent = f.MakeAnnotations();
  Annotations child = f.Bump(parent, 5);
  Fingerprint parent_key{0xB1}, child_key{0xB2};
  ASSERT_TRUE(cache.StoreAnnotations(parent_key, parent).ok());
  ASSERT_TRUE(cache
                  .StoreAnnotationsDelta(child_key, parent_key,
                                         f.Delta(parent, child))
                  .ok());

  auto hit = cache.LoadAnnotationsLineage(f.schema, child_key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->annotations, child);
  EXPECT_EQ(hit->delta_hops, 1u);
  // The full child arrays were never stored — only the link.
  EXPECT_FALSE(std::filesystem::exists(
      ContainerPath(cache, ArtifactCache::kAnnotationsFamily, child_key)));
}

TEST(LineageTest, ChainsReplayChildWardInOrder) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("chain"));
  Annotations v0 = f.MakeAnnotations();
  Annotations v1 = f.Bump(v0, 3);
  Annotations v2 = f.Bump(v1, 9);
  Fingerprint k0{0xC0}, k1{0xC1}, k2{0xC2};
  ASSERT_TRUE(cache.StoreAnnotations(k0, v0).ok());
  ASSERT_TRUE(cache.StoreAnnotationsDelta(k1, k0, f.Delta(v0, v1)).ok());
  ASSERT_TRUE(cache.StoreAnnotationsDelta(k2, k1, f.Delta(v1, v2)).ok());

  auto hit = cache.LoadAnnotationsLineage(f.schema, k2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->annotations, v2);
  EXPECT_EQ(hit->delta_hops, 2u);
  // The middle version resolves through its own (shorter) chain too.
  auto mid = cache.LoadAnnotationsLineage(f.schema, k1);
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(mid->annotations, v1);
  EXPECT_EQ(mid->delta_hops, 1u);
}

TEST(LineageTest, MissingAncestorIsACleanMiss) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("dangling"));
  Annotations parent = f.MakeAnnotations();
  Annotations child = f.Bump(parent, 2);
  Fingerprint parent_key{0xD1}, child_key{0xD2};
  // Link installed, parent never stored: the chain dead-ends.
  ASSERT_TRUE(cache
                  .StoreAnnotationsDelta(child_key, parent_key,
                                         f.Delta(parent, child))
                  .ok());
  EXPECT_FALSE(cache.LoadAnnotationsLineage(f.schema, child_key).has_value());
  EXPECT_EQ(cache.session_counters().quarantined, 0u);
  // The link survives — installing the parent later completes the chain.
  ASSERT_TRUE(cache.StoreAnnotations(parent_key, parent).ok());
  auto hit = cache.LoadAnnotationsLineage(f.schema, child_key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->annotations, child);
}

TEST(LineageTest, WrongParentContentIsACleanMissNotCorruption) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("wrongparent"));
  Annotations real_parent = f.MakeAnnotations();
  Annotations child = f.Bump(real_parent, 4);
  Annotations impostor = f.Bump(real_parent, 100);  // different content
  Fingerprint parent_key{0xE1}, child_key{0xE2};
  // The key holds annotations that are NOT the ones the delta was diffed
  // against (a stale or recycled parent entry).
  ASSERT_TRUE(cache.StoreAnnotations(parent_key, impostor).ok());
  ASSERT_TRUE(cache
                  .StoreAnnotationsDelta(child_key, parent_key,
                                         f.Delta(real_parent, child))
                  .ok());

  EXPECT_FALSE(cache.LoadAnnotationsLineage(f.schema, child_key).has_value());
  EXPECT_GE(cache.session_counters().mismatch, 1u);
  EXPECT_EQ(cache.session_counters().quarantined, 0u);
  // Neither file was destroyed: the parent entry is valid for its own key
  // and the delta is valid evidence, just not applicable.
  EXPECT_TRUE(std::filesystem::exists(
      ContainerPath(cache, ArtifactCache::kDeltaFamily, child_key)));
  EXPECT_TRUE(std::filesystem::exists(
      ContainerPath(cache, ArtifactCache::kAnnotationsFamily, parent_key)));
}

TEST(LineageTest, DepthCapBoundsTheChase) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("depth"));
  Annotations v0 = f.MakeAnnotations();
  Annotations v1 = f.Bump(v0, 1);
  Annotations v2 = f.Bump(v1, 1);
  Annotations v3 = f.Bump(v2, 1);
  Fingerprint k0{0xF0}, k1{0xF1}, k2{0xF2}, k3{0xF3};
  ASSERT_TRUE(cache.StoreAnnotations(k0, v0).ok());
  ASSERT_TRUE(cache.StoreAnnotationsDelta(k1, k0, f.Delta(v0, v1)).ok());
  ASSERT_TRUE(cache.StoreAnnotationsDelta(k2, k1, f.Delta(v1, v2)).ok());
  ASSERT_TRUE(cache.StoreAnnotationsDelta(k3, k2, f.Delta(v2, v3)).ok());

  // Three hops needed; a two-hop budget is a clean miss, three resolves.
  EXPECT_FALSE(
      cache.LoadAnnotationsLineage(f.schema, k3, /*max_depth=*/2).has_value());
  auto hit = cache.LoadAnnotationsLineage(f.schema, k3, /*max_depth=*/3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->annotations, v3);
  EXPECT_EQ(hit->delta_hops, 3u);
}

TEST(LineageTest, KeyCyclesTerminateAsACleanMiss) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("cycle"));
  Annotations a = f.MakeAnnotations();
  Annotations b = f.Bump(a, 6);
  Fingerprint ka{0xAB}, kb{0xBA};
  // a <- b and b <- a: a lineage loop with no full snapshot anywhere.
  ASSERT_TRUE(cache.StoreAnnotationsDelta(ka, kb, f.Delta(b, a)).ok());
  ASSERT_TRUE(cache.StoreAnnotationsDelta(kb, ka, f.Delta(a, b)).ok());
  EXPECT_FALSE(cache.LoadAnnotationsLineage(f.schema, ka).has_value());
  EXPECT_FALSE(cache.LoadAnnotationsLineage(f.schema, kb).has_value());
}

TEST(LineageTest, TamperedDeltaIsQuarantinedAndHeals) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("tampered"));
  Annotations parent = f.MakeAnnotations();
  Annotations child = f.Bump(parent, 7);
  Fingerprint parent_key{0x71}, child_key{0x72};
  ASSERT_TRUE(cache.StoreAnnotations(parent_key, parent).ok());
  AnnotationDelta delta = f.Delta(parent, child);
  ASSERT_TRUE(cache.StoreAnnotationsDelta(child_key, parent_key, delta).ok());

  std::string path =
      ContainerPath(cache, ArtifactCache::kDeltaFamily, child_key);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::string bad = *bytes;
  bad[kContainerHeaderSize + 8] ^= 0x10;
  ASSERT_TRUE(AtomicWriteFile(path, bad).ok());

  // Corrupt link: clean miss, evidence moved aside.
  EXPECT_FALSE(cache.LoadAnnotationsLineage(f.schema, child_key).has_value());
  EXPECT_GE(cache.session_counters().corrupt, 1u);
  EXPECT_GE(cache.session_counters().quarantined, 1u);
  EXPECT_FALSE(std::filesystem::exists(path));

  // Reinstalling the link is the heal.
  ASSERT_TRUE(cache.StoreAnnotationsDelta(child_key, parent_key, delta).ok());
  auto hit = cache.LoadAnnotationsLineage(f.schema, child_key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->annotations, child);
}

TEST(LineageTest, FlippedMiddleLinkIsOneCorruptQuarantinedMiss) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("flipped_link"));
  Annotations v0 = f.MakeAnnotations();
  Annotations v1 = f.Bump(v0, 3);
  Annotations v2 = f.Bump(v1, 5);
  Fingerprint k0{0x90}, k1{0x91}, k2{0x92};
  ASSERT_TRUE(cache.StoreAnnotations(k0, v0).ok());
  ASSERT_TRUE(cache.StoreAnnotationsDelta(k1, k0, f.Delta(v0, v1)).ok());
  ASSERT_TRUE(cache.StoreAnnotationsDelta(k2, k1, f.Delta(v1, v2)).ok());
  const std::string path =
      ContainerPath(cache, ArtifactCache::kDeltaFamily, k1);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::string bad = *bytes;
  bad[bad.size() - kContainerTrailerSize - 20] ^= 0x01;  // a delta payload
  ASSERT_TRUE(AtomicWriteFile(path, bad).ok());

  // k2 has no full snapshot (miss), its link is read (hit), k1 has no full
  // snapshot (miss), and k1's flipped link is the one corrupt miss.
  EXPECT_FALSE(cache.LoadAnnotationsLineage(f.schema, k2).has_value());
  const CacheCounters c = cache.session_counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 3u);
  EXPECT_EQ(c.corrupt, 1u);
  EXPECT_EQ(c.quarantined, 1u);
  EXPECT_EQ(c.mismatch, 0u);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(
      ContainerPath(cache, ArtifactCache::kDeltaFamily, k2)));
}

TEST(LineageTest, CorruptParentDegradesToACleanMiss) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("badparent"));
  Annotations parent = f.MakeAnnotations();
  Annotations child = f.Bump(parent, 8);
  Fingerprint parent_key{0x81}, child_key{0x82};
  ASSERT_TRUE(cache.StoreAnnotations(parent_key, parent).ok());
  ASSERT_TRUE(cache
                  .StoreAnnotationsDelta(child_key, parent_key,
                                         f.Delta(parent, child))
                  .ok());
  std::string path =
      ContainerPath(cache, ArtifactCache::kAnnotationsFamily, parent_key);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::string bad = *bytes;
  bad[kContainerHeaderSize + 8] ^= 0x10;
  ASSERT_TRUE(AtomicWriteFile(path, bad).ok());

  EXPECT_FALSE(cache.LoadAnnotationsLineage(f.schema, child_key).has_value());
  EXPECT_GE(cache.session_counters().quarantined, 1u);
  // The cold recompute path reinstalls the parent; the chain works again.
  ASSERT_TRUE(cache.StoreAnnotations(parent_key, parent).ok());
  auto hit = cache.LoadAnnotationsLineage(f.schema, child_key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->annotations, child);
}

TEST(LineageTest, ListLineageDescribesTheChain) {
  Fixture f;
  ArtifactCache cache(MakeCacheDir("list"));
  Annotations v0 = f.MakeAnnotations();
  Annotations v1 = f.Bump(v0, 2);
  Annotations v2 = f.Bump(v1, 2);
  Fingerprint k0{0x90}, k1{0x91}, k2{0x92}, dangling_parent{0x99},
      orphan{0x9A};
  ASSERT_TRUE(cache.StoreAnnotations(k0, v0).ok());
  ASSERT_TRUE(cache.StoreAnnotationsDelta(k1, k0, f.Delta(v0, v1)).ok());
  ASSERT_TRUE(cache.StoreAnnotationsDelta(k2, k1, f.Delta(v1, v2)).ok());
  ASSERT_TRUE(
      cache.StoreAnnotationsDelta(orphan, dangling_parent, f.Delta(v0, v1))
          .ok());

  auto entries = cache.ListLineage();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 3u);
  for (const ArtifactCache::LineageEntry& e : *entries) {
    EXPECT_TRUE(e.readable) << e.file;
    if (e.child_key_hex == k1.ToHex()) {
      EXPECT_EQ(e.parent_key_hex, k0.ToHex());
      EXPECT_TRUE(e.parent_present);  // full snapshot on disk
    } else if (e.child_key_hex == k2.ToHex()) {
      EXPECT_EQ(e.parent_key_hex, k1.ToHex());
      EXPECT_TRUE(e.parent_present);  // resolvable via k1's own delta link
    } else {
      EXPECT_EQ(e.child_key_hex, orphan.ToHex());
      EXPECT_FALSE(e.parent_present);
    }
  }
}

TEST(LineageTest, LockAcquisitionFailureNeverFailsTheInstall) {
  Fixture f;
  // Every LockFile call fails permanently: installs must degrade to
  // lock-free operation, not error out.
  FaultInjectingEnv env(Env::Default());
  ASSERT_TRUE(env.LoadSchedule("lock#1=eio").ok());
  RetryPolicy policy;
  policy.sleeper = [](uint64_t) {};
  ArtifactCache cache(MakeCacheDir("lockfault"), &env, policy);
  Annotations parent = f.MakeAnnotations();
  Annotations child = f.Bump(parent, 3);
  Fingerprint parent_key{0x61}, child_key{0x62};
  ASSERT_TRUE(cache.StoreAnnotations(parent_key, parent).ok());
  ASSERT_TRUE(cache
                  .StoreAnnotationsDelta(child_key, parent_key,
                                         f.Delta(parent, child))
                  .ok());
  EXPECT_GE(env.faults_injected(), 1u);
  auto hit = cache.LoadAnnotationsLineage(f.schema, child_key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->annotations, child);
}

// ---------------------------------------------------------------------------
// Crash consistency: kill the delta install at every IO step. After
// recovery the child lookup must yield the true child annotations or a
// clean miss — never bytes that decode to something else (ISSUE acceptance:
// {old | new | clean cold fallback}, nothing corrupt).
// ---------------------------------------------------------------------------

TEST(LineageCrashTest, CrashAtEveryDeltaInstallStepNeverCorruptsAHit) {
  Fixture f;
  Annotations parent = f.MakeAnnotations();
  Annotations child = f.Bump(parent, 5);
  Fingerprint parent_key{0x41}, child_key{0x42};
  AnnotationDelta delta = f.Delta(parent, child);

  // Trace one clean install (parent snapshot pre-seeded so only the delta's
  // ops are counted).
  size_t fault_points;
  {
    std::string dir = MakeCacheDir("crash_probe");
    {
      ArtifactCache seed(dir);
      ASSERT_TRUE(seed.StoreAnnotations(parent_key, parent).ok());
    }
    FaultInjectingEnv probe(Env::Default());
    ArtifactCache probe_cache(dir, &probe);
    ASSERT_TRUE(
        probe_cache.StoreAnnotationsDelta(child_key, parent_key, delta).ok());
    fault_points = probe.total_ops();
  }
  ASSERT_GE(fault_points, 4u);

  for (size_t crash_at = 0; crash_at < fault_points; ++crash_at) {
    std::string dir = MakeCacheDir("crash_" + std::to_string(crash_at));
    {
      ArtifactCache seed(dir);
      ASSERT_TRUE(seed.StoreAnnotations(parent_key, parent).ok());
    }
    {
      // Permanent fault: every env op from `crash_at` on fails — a power
      // cut mid-install with no cleanup.
      FaultInjectingEnv env(Env::Default());
      env.FailAtOpIndex(crash_at, FaultKind::kEio);
      ArtifactCache dying(dir, &env);
      EXPECT_FALSE(
          dying.StoreAnnotationsDelta(child_key, parent_key, delta).ok())
          << "crash_at=" << crash_at;
    }
    // Recovery: a fresh process over the same directory.
    ArtifactCache cache(dir);
    auto hit = cache.LoadAnnotationsLineage(f.schema, child_key);
    if (hit.has_value()) {
      EXPECT_EQ(hit->annotations, child)
          << "crash_at=" << crash_at << ": hit is not the true child";
    }
    // Either way, reinstalling the link recovers completely.
    ASSERT_TRUE(cache.StoreAnnotationsDelta(child_key, parent_key, delta).ok())
        << "crash_at=" << crash_at;
    auto healed = cache.LoadAnnotationsLineage(f.schema, child_key);
    ASSERT_TRUE(healed.has_value()) << "crash_at=" << crash_at;
    EXPECT_EQ(healed->annotations, child) << "crash_at=" << crash_at;
    EXPECT_EQ(healed->delta_hops, 1u) << "crash_at=" << crash_at;
  }
}

}  // namespace
}  // namespace ssum
