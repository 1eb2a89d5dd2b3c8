#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>

#include "common/env.h"
#include "common/hash.h"
#include "common/retry.h"
#include "core/summarize.h"
#include "instance/data_tree.h"
#include "schema/schema_builder.h"
#include "stats/annotate.h"
#include "store/codec.h"
#include "store/container.h"

namespace ssum {
namespace {

// Schema:   db -> auctions -> auction* -> bidder*
//           db -> persons -> person*
//           bidder --V--> person
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
    NodeId a1 = *t.AddNode(a_parent, auction);
    for (int i = 0; i < 3; ++i) {
      NodeId bd = *t.AddNode(a0, bidder);
      EXPECT_TRUE(t.AddReference(bids, bd, i % 2 ? p1 : p0).ok());
    }
    NodeId bd = *t.AddNode(a1, bidder);
    EXPECT_TRUE(t.AddReference(bids, bd, p1).ok());
    auto ann = AnnotateSchema(t);
    EXPECT_TRUE(ann.ok()) << ann.status().ToString();
    return std::move(*ann);
  }
};

// ---------------------------------------------------------------------------
// Container basics
// ---------------------------------------------------------------------------

std::string MakeTwoSectionContainer() {
  ContainerWriter w(PayloadKind::kAnnotations);
  w.AddSection(7, "hello");
  w.AddSection(9, std::string("\x00\x01\x02", 3));
  return std::move(w).Finish();
}

TEST(ContainerTest, RoundTrip) {
  std::string bytes = MakeTwoSectionContainer();
  auto info = PeekContainer(bytes);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->format_version, kContainerFormatVersion);
  EXPECT_EQ(info->payload_kind,
            static_cast<uint32_t>(PayloadKind::kAnnotations));
  EXPECT_EQ(info->section_count, 2u);

  auto parsed = ParseContainer(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->sections.size(), 2u);
  EXPECT_EQ(parsed->sections[0].tag, 7u);
  EXPECT_EQ(parsed->sections[0].payload, "hello");
  EXPECT_EQ(parsed->sections[1].tag, 9u);
  EXPECT_EQ(parsed->sections[1].payload.size(), 3u);
  auto sec = parsed->Section(7);
  ASSERT_TRUE(sec.ok());
  EXPECT_EQ(*sec, "hello");
  EXPECT_TRUE(parsed->Section(42).status().IsNotFound());
}

TEST(ContainerTest, ReservedSectionsMatchCopiedSections) {
  // A section filled in place, before and after a copied one, gives the
  // same bytes as the same sections copied in.
  ContainerWriter w(PayloadKind::kAnnotations);
  std::memcpy(w.ReserveSection(7, 5), "hello", 5);
  w.AddSection(9, std::string("\x00\x01\x02", 3));
  w.ReserveSection(11, 0);
  std::memcpy(w.ReserveSection(13, 2), "ok", 2);
  ContainerWriter copied(PayloadKind::kAnnotations);
  copied.AddSection(7, "hello");
  copied.AddSection(9, std::string("\x00\x01\x02", 3));
  copied.AddSection(11, "");
  copied.AddSection(13, "ok");
  const std::string bytes = std::move(w).Finish();
  EXPECT_EQ(bytes, std::move(copied).Finish());
  auto parsed = ParseContainer(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->sections.size(), 4u);
  EXPECT_EQ(parsed->sections[3].payload, "ok");
}

TEST(ContainerTest, EmptyContainerRoundTrips) {
  std::string bytes = ContainerWriter(PayloadKind::kSummary).Finish();
  EXPECT_EQ(bytes.size(), kContainerHeaderSize + kContainerTrailerSize);
  auto parsed = ParseContainer(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->sections.empty());
}

TEST(ContainerTest, EveryByteFlipIsDetected) {
  std::string good = MakeTwoSectionContainer();
  for (size_t i = 0; i < good.size(); ++i) {
    for (unsigned char flip : {0x01, 0x80}) {
      std::string bad = good;
      bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ flip);
      auto parsed = ParseContainer(bad);
      ASSERT_FALSE(parsed.ok()) << "flip 0x" << std::hex << +flip
                                << " at byte " << std::dec << i
                                << " went undetected";
      const Status& s = parsed.status();
      // A flip may masquerade as truncation (size fields) or version skew
      // (header version bytes are only guarded by the header CRC... which
      // does cover them, so version bytes fail the CRC first). Every code
      // here is a non-crash, cache-miss classification.
      EXPECT_TRUE(s.IsDataLoss() || s.IsOutOfRange() ||
                  s.IsFailedPrecondition())
          << "byte " << i << ": " << s.ToString();
    }
  }
}

TEST(ContainerTest, EveryTruncationIsDetected) {
  std::string good = MakeTwoSectionContainer();
  for (size_t len = 0; len < good.size(); ++len) {
    auto parsed = ParseContainer(good.substr(0, len));
    ASSERT_FALSE(parsed.ok()) << "truncation to " << len << " accepted";
    const Status& s = parsed.status();
    EXPECT_TRUE(s.IsOutOfRange() || s.IsDataLoss())
        << "len " << len << ": " << s.ToString();
  }
  // Trailing garbage is also not a valid container.
  EXPECT_FALSE(ParseContainer(good + "x").ok());
}

TEST(ContainerTest, ForeignVersionPeeksButDoesNotParse) {
  ContainerWriter w(static_cast<uint32_t>(PayloadKind::kAnnotations),
                    /*format_version=*/kContainerFormatVersion + 7);
  w.AddSection(1, "future payload");
  std::string bytes = std::move(w).Finish();

  auto info = PeekContainer(bytes);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->format_version, kContainerFormatVersion + 7);

  auto parsed = ParseContainer(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsFailedPrecondition())
      << parsed.status().ToString();
}

TEST(ContainerTest, BadMagicIsDataLoss) {
  std::string bytes = MakeTwoSectionContainer();
  bytes[0] = 'X';
  EXPECT_TRUE(PeekContainer(bytes).status().IsDataLoss());
  EXPECT_TRUE(ParseContainer(bytes).status().IsDataLoss());
}

TEST(ContainerTest, ErrorsCarryByteOffsets) {
  std::string good = MakeTwoSectionContainer();
  std::string bad = good;
  bad[kContainerHeaderSize + 4] ^= 0x01;  // first section's size field
  auto parsed = ParseContainer(bad);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("byte"), std::string::npos)
      << parsed.status().ToString();
}

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

TEST(CodecTest, AnnotationsRoundTrip) {
  Fixture f;
  Annotations ann = f.MakeAnnotations();
  std::string bytes = EncodeAnnotations(ann);
  auto decoded = DecodeAnnotations(f.schema, bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, ann);
  EXPECT_EQ(decoded->TotalNodes(), ann.TotalNodes());
}

TEST(CodecTest, AnnotationsShapeMismatchIsFailedPrecondition) {
  Fixture f;
  std::string bytes = EncodeAnnotations(f.MakeAnnotations());
  SchemaBuilder b("other");
  b.Rcd(b.Root(), "only-child");
  SchemaGraph other = std::move(b).Build();
  auto decoded = DecodeAnnotations(other, bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsFailedPrecondition())
      << decoded.status().ToString();
}

TEST(CodecTest, SquareMatrixRoundTripsBitIdentically) {
  SquareMatrix m(5, 0.0);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      m.Set(r, c, 0.1 * static_cast<double>(r) -
                      3.7 * static_cast<double>(c) / 11.0);
    }
  }
  m.Set(2, 3, -0.0);
  std::string bytes = EncodeSquareMatrix(m);
  auto decoded = DecodeSquareMatrix(bytes, 5);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 5u);
  // Bit-identical, including the negative zero.
  EXPECT_EQ(0, std::memcmp(decoded->data().data(), m.data().data(),
                           m.data().size() * sizeof(double)));
}

TEST(CodecTest, SquareMatrixOrderMismatchIsFailedPrecondition) {
  std::string bytes = EncodeSquareMatrix(SquareMatrix(4, 1.0));
  EXPECT_TRUE(DecodeSquareMatrix(bytes, 5).status().IsFailedPrecondition());
  EXPECT_TRUE(DecodeSquareMatrix(bytes, 0).ok());  // 0 = accept any order
}

TEST(CodecTest, SummaryRoundTrip) {
  Fixture f;
  Annotations ann = f.MakeAnnotations();
  auto context = SummarizerContext::Make(f.schema, ann);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  auto summary = Summarize(*context, 3);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  std::string bytes = EncodeSummary(*summary);
  auto decoded = DecodeSummary(f.schema, bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->abstract_elements, summary->abstract_elements);
  EXPECT_EQ(decoded->representative, summary->representative);
  EXPECT_EQ(decoded->links.size(), summary->links.size());
}

TEST(CodecTest, SummaryForWrongSchemaFailsGracefully) {
  Fixture f;
  Annotations ann = f.MakeAnnotations();
  auto context = SummarizerContext::Make(f.schema, ann);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  auto summary = Summarize(*context, 3);
  ASSERT_TRUE(summary.ok());
  std::string bytes = EncodeSummary(*summary);
  SchemaBuilder b("tiny");
  SchemaGraph tiny = std::move(b).Build();
  auto decoded = DecodeSummary(tiny, bytes);
  EXPECT_FALSE(decoded.ok());
}

// Corruption injection through the *codec* layer: every single-byte flip of
// every artifact kind must surface as a Status, never a crash. (Byte flips
// in section payloads are caught by the section CRC as DataLoss; flips in
// the envelope may classify as truncation or skew — all non-crash misses.)
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

TEST(CodecTest, AnnotationsSurviveArbitraryCorruption) {
  Fixture f;
  std::string good = EncodeAnnotations(f.MakeAnnotations());
  ExpectEveryFlipFails(good, [&f](const std::string& bytes) {
    return DecodeAnnotations(f.schema, bytes).status();
  });
}

TEST(CodecTest, MatrixSurvivesArbitraryCorruption) {
  std::string good = EncodeSquareMatrix(SquareMatrix(3, 0.5));
  ExpectEveryFlipFails(good, [](const std::string& bytes) {
    return DecodeSquareMatrix(bytes, 3).status();
  });
}

TEST(CodecTest, SummarySurvivesArbitraryCorruption) {
  Fixture f;
  Annotations ann = f.MakeAnnotations();
  auto context = SummarizerContext::Make(f.schema, ann);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  auto summary = Summarize(*context, 3);
  ASSERT_TRUE(summary.ok());
  std::string good = EncodeSummary(*summary);
  ExpectEveryFlipFails(good, [&f](const std::string& bytes) {
    return DecodeSummary(f.schema, bytes).status();
  });
}

// ---------------------------------------------------------------------------
// Golden bytes: the exact containers the version-1 encoders wrote when the
// format was pinned. Any encoder rewrite must reproduce them byte for byte,
// or caches written by older builds stop being hits.
// ---------------------------------------------------------------------------

std::string Hex(std::string_view bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xf]);
  }
  return out;
}

TEST(GoldenContainerTest, SquareMatrixBytes) {
  SquareMatrix m(3, 0.0);
  m.Set(0, 0, 1.0);
  m.Set(0, 1, -0.0);
  m.Set(0, 2, std::numeric_limits<double>::denorm_min());
  m.Set(1, 0, 0.1);
  m.Set(1, 1, 1.0);
  m.Set(1, 2, -2.5e-310);  // another subnormal, negative
  m.Set(2, 0, 12345.678);
  m.Set(2, 1, std::numeric_limits<double>::infinity());
  m.Set(2, 2, 1.0);
  EXPECT_EQ(Hex(EncodeSquareMatrix(m)),
            "5353554d42494e1a010000000200000001000000d707634e0100000050000000"
            "000000000300000000000000000000000000f03f000000000000008001000000"
            "000000009a9999999999b93f000000000000f03f6c3f9a5c052e00805839b4c8"
            "d61cc840000000000000f07f000000000000f03f21f7c4ba8400000000000000"
            "4333d3d0");
}

TEST(GoldenContainerTest, LargeSquareMatrixDigest) {
  // Big enough that every CRC and copy runs its bulk path, not only a tail.
  const size_t n = 67;
  SquareMatrix m(n, 0.0);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) {
      m.Set(r, c, static_cast<double>(r * 131 + c) / 977.0 - 3.0);
    }
  }
  const std::string bytes = EncodeSquareMatrix(m);
  EXPECT_EQ(bytes.size(), 24u + 16u + 8u + 8u * n * n + 12u);
  EXPECT_EQ(HashToHex(HashBytes(bytes)), "f2dea89b726fea89");
}

TEST(GoldenContainerTest, AnnotationsBytes) {
  Fixture f;
  Annotations ann(f.schema);
  for (size_t e = 0; e < f.schema.size(); ++e) {
    ann.set_card(static_cast<ElementId>(e), 1 + 7 * e);
  }
  for (size_t l = 0; l < f.schema.structural_links().size(); ++l) {
    ann.set_structural_count(static_cast<LinkId>(l), (uint64_t{1} << 40) + l);
  }
  ann.set_value_count(f.bids, 4);
  EXPECT_EQ(Hex(EncodeAnnotations(ann)),
            "5353554d42494e1a0100000001000000030000003fa3402a0100000038000000"
            "000000000600000000000000010000000000000008000000000000000f000000"
            "0000000016000000000000001d0000000000000024000000000000000a8cce79"
            "0200000030000000000000000500000000000000000000000001000001000000"
            "00010000020000000001000003000000000100000400000000010000cebfc2ce"
            "0300000010000000000000000100000000000000040000000000000079156191"
            "cc0000000000000023d101de");
}

TEST(GoldenContainerTest, AnnotationDeltaBytes) {
  AnnotationDelta delta;
  delta.parent_fingerprint = 0x0123456789abcdefull;
  delta.child_fingerprint = 0xfedcba9876543210ull;
  delta.d_card = {0, -1, 2, -3, 4, 0};
  delta.d_slink = {5, 0, -6, 0, 7};
  delta.d_vlink = {-8};
  delta.dirty_units = 3;
  delta.total_units = 12;
  EXPECT_EQ(Hex(EncodeAnnotationDelta(Fingerprint{0x5555aaaa5555aaaaull},
                                      delta)),

            "5353554d42494e1a010000000600000004000000f11e19c90100000028000000"
            "00000000aaaa5555aaaa5555efcdab89674523011032547698badcfe03000000"
            "000000000c00000000000000c9bea27602000000380000000000000006000000"
            "000000000000000000000000ffffffffffffffff0200000000000000fdffffff"
            "ffffffff04000000000000000000000000000000d248b0090300000030000000"
            "00000000050000000000000005000000000000000000000000000000faffffff"
            "ffffffff00000000000000000700000000000000b9133a7a0400000010000000"
            "000000000100000000000000f8ffffffffffffff5d6b6a8e0401000000000000"
            "cbc5d07a");
}

TEST(GoldenContainerTest, SummaryBytes) {
  SchemaSummary summary;
  summary.abstract_elements = {2, 5};
  summary.representative = {0, 2, 2, 2, 5, 5};
  EXPECT_EQ(Hex(EncodeSummary(summary)),
            "5353554d42494e1a010000000300000002000000c9f37d650100000010000000"
            "0000000002000000000000000200000005000000e2969b970200000020000000"
            "0000000006000000000000000000000002000000020000000200000005000000"
            "05000000069a91247400000000000000c87537b0");
}

// ---------------------------------------------------------------------------
// Atomic file I/O
// ---------------------------------------------------------------------------

TEST(ContainerTest, AtomicWriteReadBack) {
  std::string dir = testing::TempDir();
  std::string path = dir + "/ssum_store_test.ssb";
  std::string bytes = MakeTwoSectionContainer();
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
  auto read = ReadFileBytes(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, bytes);
  // Overwrite is atomic too.
  std::string bytes2 = ContainerWriter(PayloadKind::kSummary).Finish();
  ASSERT_TRUE(AtomicWriteFile(path, bytes2).ok());
  EXPECT_EQ(*ReadFileBytes(path), bytes2);
  std::remove(path.c_str());
}

TEST(ContainerTest, ReadMissingFileIsNotFound) {
  auto read = ReadFileBytes(testing::TempDir() + "/ssum_no_such_file.ssb");
  EXPECT_TRUE(read.status().IsNotFound()) << read.status().ToString();
}

// ---------------------------------------------------------------------------
// Crash-consistency sweep: fail AtomicWriteFile at *every* IO step and
// check the invariant — the final path holds the complete old bytes, the
// complete new bytes, or nothing. Never a torn container.
// ---------------------------------------------------------------------------

std::string MakeSweepDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/ssum_sweep_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void ExpectOldNewOrMissing(const std::string& path, const std::string& old_b,
                           const std::string& new_b, const std::string& what) {
  auto read = ReadFileBytes(path);
  if (read.status().IsNotFound()) return;  // clean miss is legal
  ASSERT_TRUE(read.ok()) << what << ": " << read.status().ToString();
  EXPECT_TRUE(*read == old_b || *read == new_b)
      << what << " left " << read->size() << " unexpected bytes at the final "
      << "path (old=" << old_b.size() << "B new=" << new_b.size() << "B)";
}

TEST(CrashSweepTest, EveryFaultPointLeavesOldNewOrNothing) {
  const std::string old_bytes = MakeTwoSectionContainer();
  std::string new_bytes;
  {
    ContainerWriter w(PayloadKind::kAnnotations);
    w.AddSection(7, "replacement payload with different length");
    new_bytes = std::move(w).Finish();
  }

  // Trace one clean install to learn the op sequence, then replay it once
  // per op index with a permanent fault at that index (crash semantics:
  // every later op also fails, so no cleanup runs and tmp residue
  // survives — exactly what a power cut leaves behind).
  FaultInjectingEnv probe(Env::Default());
  {
    std::string dir = MakeSweepDir("probe");
    ASSERT_TRUE(AtomicWriteFile(&probe, dir + "/k.ssb", new_bytes).ok());
  }
  const size_t fault_points = probe.total_ops();
  ASSERT_GE(fault_points, 6u);  // open write flush sync rename syncdir

  for (size_t crash_at = 0; crash_at < fault_points; ++crash_at) {
    const std::string what =
        "crash at op " + std::to_string(crash_at) + " (" +
        FaultOpName(probe.history()[crash_at]) + ")";
    for (bool preexisting : {false, true}) {
      std::string dir =
          MakeSweepDir("at" + std::to_string(crash_at) +
                       (preexisting ? "_old" : "_fresh"));
      std::string path = dir + "/k.ssb";
      if (preexisting) {
        ASSERT_TRUE(AtomicWriteFile(path, old_bytes).ok());
      }
      FaultInjectingEnv env(Env::Default());
      env.FailAtOpIndex(crash_at, FaultKind::kEio);
      Status st = AtomicWriteFile(&env, path, new_bytes);
      EXPECT_TRUE(st.IsIoError()) << what << ": " << st.ToString();
      ExpectOldNewOrMissing(path, preexisting ? old_bytes : "", new_bytes,
                            what);
      // Whatever survived at the final path must be a parseable container
      // or absent — the reader never sees a torn write at the final path.
      auto read = ReadFileBytes(path);
      if (read.ok()) {
        EXPECT_TRUE(ParseContainer(*read).ok()) << what;
      }
    }
  }
}

TEST(CrashSweepTest, TornWritesNeverReachTheFinalPath) {
  const std::string old_bytes = MakeTwoSectionContainer();
  ContainerWriter w(PayloadKind::kAnnotations);
  w.AddSection(3, "torn sweep payload");
  const std::string new_bytes = std::move(w).Finish();

  // Tear the single data write at every byte offset. The torn prefix may
  // land in the *tmp* file, but rename never runs, so the final path keeps
  // the old artifact bit-identically.
  for (uint64_t keep = 0; keep <= new_bytes.size(); keep += 7) {
    std::string dir = MakeSweepDir("torn" + std::to_string(keep));
    std::string path = dir + "/k.ssb";
    ASSERT_TRUE(AtomicWriteFile(path, old_bytes).ok());
    FaultInjectingEnv env(Env::Default());
    env.ScheduleFault({FaultOp::kWrite, 1, FaultKind::kTorn, keep,
                       /*transient=*/false});
    EXPECT_FALSE(AtomicWriteFile(&env, path, new_bytes).ok());
    auto read = ReadFileBytes(path);
    ASSERT_TRUE(read.ok()) << "keep=" << keep;
    EXPECT_EQ(*read, old_bytes) << "keep=" << keep;
  }
}

TEST(CrashSweepTest, TransientFaultsHealUnderRetry) {
  const std::string bytes = MakeTwoSectionContainer();
  // One transient fault per op kind of the install path: a single retry
  // must produce a bit-identical artifact.
  for (const char* spec :
       {"open#1=eio~", "write#1=eio~", "write#1=torn:5~", "flush#1=eio~",
        "sync#1=enospc~", "rename#1=eio~", "syncdir#1=eio~"}) {
    std::string dir = MakeSweepDir(std::string("heal_") +
                                   std::to_string(std::string(spec).find('#')) +
                                   std::string(spec).substr(0, 4));
    std::string path = dir + "/k.ssb";
    FaultInjectingEnv env(Env::Default());
    ASSERT_TRUE(env.LoadSchedule(spec).ok()) << spec;
    RetryPolicy policy;
    policy.sleeper = [](uint64_t) {};
    Status st = RunWithRetry(policy, "install", [&]() {
      return AtomicWriteFile(&env, path, bytes);
    });
    EXPECT_TRUE(st.ok()) << spec << ": " << st.ToString();
    auto read = ReadFileBytes(path);
    ASSERT_TRUE(read.ok()) << spec;
    EXPECT_EQ(*read, bytes) << spec;
  }
}

}  // namespace
}  // namespace ssum
