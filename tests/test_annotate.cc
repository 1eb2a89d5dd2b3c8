#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "datasets/mimi.h"
#include "datasets/tpch.h"
#include "datasets/xmark.h"
#include "instance/data_tree.h"
#include "relational/bridge.h"
#include "schema/schema_builder.h"
#include "stats/annotate.h"
#include "stats/annotations_io.h"
#include "xml/infer_schema.h"
#include "xml/instance_bridge.h"
#include "xml/parser.h"

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

  /// 2 auctions with 3 and 1 bidders; 2 persons; every bidder references a
  /// person.
  DataTree MakeData() const {
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
    return t;
  }
};

TEST(AnnotateTest, CardinalitiesMatchHandCount) {
  Fixture f;
  DataTree data = f.MakeData();
  auto ann = AnnotateSchema(data);
  ASSERT_TRUE(ann.ok()) << ann.status().ToString();
  EXPECT_EQ(ann->card(f.schema.root()), 1u);
  EXPECT_EQ(ann->card(f.auctions), 1u);
  EXPECT_EQ(ann->card(f.auction), 2u);
  EXPECT_EQ(ann->card(f.bidder), 4u);
  EXPECT_EQ(ann->card(f.person), 2u);
  EXPECT_EQ(ann->value_count(f.bids), 4u);
  EXPECT_DOUBLE_EQ(ann->TotalCard(), 1 + 1 + 2 + 4 + 1 + 2);
}

TEST(AnnotateTest, RelativeCardinalitiesBothDirections) {
  Fixture f;
  DataTree data = f.MakeData();
  Annotations ann = *AnnotateSchema(data);
  // RC(auction -> bidder) = 4/2 = 2; RC(bidder -> auction) = 4/4 = 1.
  const auto& nbrs = f.schema.neighbors(f.auction);
  double rc_fwd = -1, rc_bwd = -1;
  for (const Neighbor& n : nbrs) {
    if (n.other == f.bidder) rc_fwd = ann.RelativeCardinality(f.schema, f.auction, n);
  }
  for (const Neighbor& n : f.schema.neighbors(f.bidder)) {
    if (n.other == f.auction) rc_bwd = ann.RelativeCardinality(f.schema, f.bidder, n);
    if (n.other == f.person) {
      // RC(bidder -> person) = 4 refs / 4 bidders = 1.
      EXPECT_DOUBLE_EQ(ann.RelativeCardinality(f.schema, f.bidder, n), 1.0);
    }
  }
  EXPECT_DOUBLE_EQ(rc_fwd, 2.0);
  EXPECT_DOUBLE_EQ(rc_bwd, 1.0);
  // RC(person -> bidder) = 4 refs / 2 persons = 2.
  for (const Neighbor& n : f.schema.neighbors(f.person)) {
    if (n.other == f.bidder) {
      EXPECT_DOUBLE_EQ(ann.RelativeCardinality(f.schema, f.person, n), 2.0);
    }
  }
}

TEST(AnnotateTest, ZeroCardinalityElementHasZeroRc) {
  Fixture f;
  DataTree t(&f.schema);  // empty database: only the root node
  Annotations ann = *AnnotateSchema(t);
  EXPECT_EQ(ann.card(f.auction), 0u);
  const Neighbor& n = f.schema.neighbors(f.auction)[0];
  EXPECT_DOUBLE_EQ(ann.RelativeCardinality(f.schema, f.auction, n), 0.0);
}

// --- stream well-formedness (failure injection) ---------------------------

/// Replays a fixed event script, as a full traversal (Accept) or as the
/// single unit of a sharded source with an empty skeleton (AcceptUnits).
class ScriptedStream : public InstanceStream, public ShardedInstanceSource {
 public:
  using Step = std::pair<char, uint32_t>;  // '+', '-', 'l' (leaf), 'r'
  ScriptedStream(const SchemaGraph* schema, std::vector<Step> steps)
      : schema_(schema), steps_(std::move(steps)) {}
  const SchemaGraph& schema() const override { return *schema_; }
  uint64_t NumUnits() const override { return 1; }

 private:
  Status Emit(EventWriter* out) const override {
    for (auto [kind, id] : steps_) {
      if (kind == '+') out->Enter(id);
      else if (kind == '-') out->Leave(id);
      else if (kind == 'l') out->Leaf(id);
      else out->Reference(id);
    }
    return Status::OK();
  }
  Status EmitSkeleton(EventWriter* out) const override {
    out->Leaf(schema_->root());
    return Status::OK();
  }
  Status EmitUnits(uint64_t begin, uint64_t end,
                   EventWriter* out) const override {
    return begin < end ? Emit(out) : Status::OK();
  }

  const SchemaGraph* schema_;
  std::vector<Step> steps_;
};

/// Every malformed-stream error is FailedPrecondition with a fixed message.
void ExpectStreamError(const Status& status, const std::string& message) {
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_EQ(status.message(), message);
}

TEST(AnnotateTest, RejectsNonRootStart) {
  Fixture f;
  ScriptedStream s(&f.schema, {{'+', f.auctions}});
  ExpectStreamError(AnnotateSchema(s).status(),
                    "stream: first node is not the schema root");
}

TEST(AnnotateTest, RejectsParentageViolation) {
  Fixture f;
  ScriptedStream s(&f.schema, {{'+', f.schema.root()}, {'+', f.auction}});
  ExpectStreamError(AnnotateSchema(s).status(),
                    "stream: node 'auction' entered under node of element "
                    "'db' but its schema parent is 'auctions'");
}

TEST(AnnotateTest, RejectsRootEnteredUnderANode) {
  Fixture f;
  ScriptedStream s(&f.schema,
                   {{'+', f.schema.root()}, {'+', f.schema.root()}});
  ExpectStreamError(AnnotateSchema(s).status(),
                    "stream: node 'db' entered under node of element 'db' "
                    "but its schema parent is '<none>'");
}

TEST(AnnotateTest, RejectsUnbalancedLeave) {
  Fixture f;
  ScriptedStream s(&f.schema,
                   {{'+', f.schema.root()}, {'-', f.auctions}});
  ExpectStreamError(AnnotateSchema(s).status(),
                    "stream: unbalanced leave event");
  ScriptedStream empty_stack(&f.schema, {{'-', f.schema.root()}});
  ExpectStreamError(AnnotateSchema(empty_stack).status(),
                    "stream: unbalanced leave event");
}

TEST(AnnotateTest, RejectsUnclosedNodes) {
  Fixture f;
  ScriptedStream s(&f.schema, {{'+', f.schema.root()}});
  ExpectStreamError(AnnotateSchema(s).status(),
                    "stream: unclosed nodes at end");
}

TEST(AnnotateTest, RejectsReferenceFromWrongElement) {
  Fixture f;
  ScriptedStream s(&f.schema, {{'+', f.schema.root()}, {'r', f.bids}});
  ExpectStreamError(AnnotateSchema(s).status(),
                    "stream: reference emitted by element 'db' but link "
                    "referrer is 'bidder'");
}

TEST(AnnotateTest, RejectsReferenceOutsideANode) {
  Fixture f;
  ScriptedStream s(&f.schema, {{'r', f.bids}});
  ExpectStreamError(AnnotateSchema(s).status(),
                    "stream: reference outside a node");
}

TEST(AnnotateTest, RejectsOutOfRangeIds) {
  Fixture f;
  ScriptedStream bad_elem(&f.schema, {{'+', 9999}});
  ExpectStreamError(AnnotateSchema(bad_elem).status(),
                    "stream: element id out of range");
  ScriptedStream bad_child(&f.schema, {{'+', f.schema.root()}, {'+', 9999}});
  ExpectStreamError(AnnotateSchema(bad_child).status(),
                    "stream: element id out of range");
  ScriptedStream bad_ref(&f.schema, {{'+', f.schema.root()}, {'r', 9999}});
  ExpectStreamError(AnnotateSchema(bad_ref).status(),
                    "stream: vlink id out of range");
}

TEST(AnnotateTest, FirstErrorWins) {
  Fixture f;
  // The parentage violation comes first; the later unbalanced leave and the
  // unclosed root must not replace it.
  ScriptedStream s(&f.schema, {{'+', f.schema.root()},
                               {'+', f.bidder},
                               {'-', f.persons}});
  ExpectStreamError(AnnotateSchema(s).status(),
                    "stream: node 'bidder' entered under node of element "
                    "'db' but its schema parent is 'auction'");
}

TEST(AnnotateTest, LeafCountsAsEnterPlusLeave) {
  Fixture f;
  ScriptedStream leaves(&f.schema, {{'+', f.schema.root()},
                                    {'+', f.auctions},
                                    {'+', f.auction},
                                    {'l', f.bidder},
                                    {'l', f.bidder},
                                    {'-', f.auction},
                                    {'-', f.auctions},
                                    {'l', f.persons},
                                    {'-', f.schema.root()}});
  ScriptedStream pairs(&f.schema, {{'+', f.schema.root()},
                                   {'+', f.auctions},
                                   {'+', f.auction},
                                   {'+', f.bidder},
                                   {'-', f.bidder},
                                   {'+', f.bidder},
                                   {'-', f.bidder},
                                   {'-', f.auction},
                                   {'-', f.auctions},
                                   {'+', f.persons},
                                   {'-', f.persons},
                                   {'-', f.schema.root()}});
  auto a = AnnotateSchema(leaves);
  auto b = AnnotateSchema(pairs);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(a->card(f.bidder), 2u);
  // A lone root leaf is the empty database.
  ScriptedStream empty(&f.schema, {{'l', f.schema.root()}});
  auto e = AnnotateSchema(empty);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e->TotalNodes(), 1u);
}

TEST(AnnotateTest, RejectsLeafAsANonRootFirstEvent) {
  Fixture f;
  ScriptedStream s(&f.schema, {{'l', f.auction}});
  ExpectStreamError(AnnotateSchema(s).status(),
                    "stream: first node is not the schema root");
}

TEST(AnnotateTest, RejectsLeafUnderTheWrongParent) {
  Fixture f;
  ScriptedStream s(&f.schema, {{'+', f.schema.root()},
                               {'+', f.persons},
                               {'l', f.bidder},
                               {'-', f.persons},
                               {'-', f.schema.root()}});
  ExpectStreamError(AnnotateSchema(s).status(),
                    "stream: node 'bidder' entered under node of element "
                    "'persons' but its schema parent is 'auction'");
}

TEST(AnnotateTest, RejectsLeafWithOutOfRangeId) {
  Fixture f;
  ScriptedStream s(&f.schema,
                   {{'+', f.schema.root()}, {'l', 9999}, {'-', f.schema.root()}});
  ExpectStreamError(AnnotateSchema(s).status(),
                    "stream: element id out of range");
}

TEST(AnnotateTest, RejectsALeafClosingNothing) {
  Fixture f;
  // A leaf closes itself: the leave that follows has nothing of its element
  // open.
  ScriptedStream s(&f.schema, {{'+', f.schema.root()},
                               {'l', f.auctions},
                               {'-', f.auctions},
                               {'-', f.schema.root()}});
  ExpectStreamError(AnnotateSchema(s).status(),
                    "stream: unbalanced leave event");
}

TEST(AnnotateTest, IdsPastThirtyBitsAreRejectedNotTruncated) {
  Fixture f;
  // 2^30 + auctions would alias `auctions` if the writer truncated it.
  const uint32_t aliased = (uint32_t{1} << 30) | f.auctions;
  ScriptedStream elem(&f.schema, {{'+', f.schema.root()},
                                  {'+', aliased},
                                  {'-', aliased},
                                  {'-', f.schema.root()}});
  const std::string elem_message =
      "stream: element id " + std::to_string(aliased) +
      " does not fit in the 30-bit event id field";
  ExpectStreamError(AnnotateSchema(elem).status(), elem_message);
  CountingSink counter;
  ExpectStreamError(elem.Accept(&counter), elem_message);
  ExpectStreamError(AnnotateUnits(elem, 0, 1).status(), elem_message);

  ScriptedStream invalid(&f.schema,
                         {{'+', f.schema.root()}, {'l', kInvalidElement}});
  ExpectStreamError(AnnotateSchema(invalid).status(),
                    "stream: element id 4294967295 does not fit in the "
                    "30-bit event id field");

  const uint32_t aliased_link = (uint32_t{1} << 31) | f.bids;
  ScriptedStream ref(&f.schema, {{'+', f.schema.root()},
                                 {'+', f.auctions},
                                 {'+', f.auction},
                                 {'+', f.bidder},
                                 {'r', aliased_link}});
  ExpectStreamError(AnnotateSchema(ref).status(),
                    "stream: vlink id " + std::to_string(aliased_link) +
                        " does not fit in the 30-bit event id field");
}

TEST(AnnotateTest, ErrorsAfterABlockBoundaryKeepTheirMessage) {
  Fixture f;
  // Thousands of valid leaves fill several event blocks before the bad
  // event, which must still be reported as the first error.
  std::vector<ScriptedStream::Step> steps = {{'+', f.schema.root()},
                                             {'+', f.auctions},
                                             {'+', f.auction}};
  for (int i = 0; i < 3 * 4096; ++i) steps.push_back({'l', f.bidder});
  steps.push_back({'l', f.person});
  ScriptedStream s(&f.schema, std::move(steps));
  ExpectStreamError(AnnotateSchema(s).status(),
                    "stream: node 'person' entered under node of element "
                    "'auction' but its schema parent is 'persons'");
}

TEST(AnnotateUnitsTest, RejectsUnitRootedAtTheSchemaRoot) {
  Fixture f;
  ScriptedStream s(&f.schema, {{'+', f.schema.root()}, {'-', f.schema.root()}});
  ExpectStreamError(AnnotateUnits(s, 0, 1).status(),
                    "stream: unit subtree rooted at the schema root");
}

TEST(AnnotateUnitsTest, RejectsALeafAtTheSchemaRoot) {
  Fixture f;
  ScriptedStream s(&f.schema, {{'l', f.schema.root()}});
  ExpectStreamError(AnnotateUnits(s, 0, 1).status(),
                    "stream: unit subtree rooted at the schema root");
}

TEST(AnnotateUnitsTest, RejectsParentageViolationInsideAUnit) {
  Fixture f;
  ScriptedStream s(&f.schema, {{'+', f.auction}, {'+', f.person}});
  ExpectStreamError(AnnotateUnits(s, 0, 1).status(),
                    "stream: node 'person' entered under node of element "
                    "'auction' but its schema parent is 'persons'");
}

TEST(AnnotateUnitsTest, RejectsUnclosedUnitsAndStrayEvents) {
  Fixture f;
  ScriptedStream unclosed(&f.schema, {{'+', f.auction}, {'+', f.bidder}});
  ExpectStreamError(AnnotateUnits(unclosed, 0, 1).status(),
                    "stream: unclosed nodes at end");
  ScriptedStream stray_ref(&f.schema, {{'r', f.bids}});
  ExpectStreamError(AnnotateUnits(stray_ref, 0, 1).status(),
                    "stream: reference outside a node");
  ScriptedStream stray_leave(&f.schema, {{'-', f.auction}});
  ExpectStreamError(AnnotateUnits(stray_leave, 0, 1).status(),
                    "stream: unbalanced leave event");
  ScriptedStream bad_id(&f.schema, {{'+', 9999}});
  ExpectStreamError(AnnotateUnits(bad_id, 0, 1).status(),
                    "stream: element id out of range");
}

TEST(AnnotateUnitsTest, CountsTheUnitRootsParentLink) {
  Fixture f;
  // Two consecutive units under different containers.
  ScriptedStream s(&f.schema, {{'+', f.auction},
                               {'+', f.bidder},
                               {'r', f.bids},
                               {'-', f.bidder},
                               {'-', f.auction},
                               {'+', f.person},
                               {'-', f.person}});
  auto ann = AnnotateUnits(s, 0, 1);
  ASSERT_TRUE(ann.ok()) << ann.status().ToString();
  EXPECT_EQ(ann->card(f.auction), 1u);
  EXPECT_EQ(ann->card(f.bidder), 1u);
  EXPECT_EQ(ann->card(f.person), 1u);
  EXPECT_EQ(ann->card(f.schema.root()), 0u);
  EXPECT_EQ(ann->structural_count(f.schema.parent_link(f.auction)), 1u);
  EXPECT_EQ(ann->structural_count(f.schema.parent_link(f.bidder)), 1u);
  EXPECT_EQ(ann->structural_count(f.schema.parent_link(f.person)), 1u);
  EXPECT_EQ(ann->value_count(f.bids), 1u);
}

// --- Uniform annotations ----------------------------------------------------

TEST(AnnotateTest, UniformGivesUnitRc) {
  Fixture f;
  Annotations uniform = Annotations::Uniform(f.schema);
  for (ElementId e = 0; e < f.schema.size(); ++e) {
    EXPECT_EQ(uniform.card(e), 1u);
    for (const Neighbor& n : f.schema.neighbors(e)) {
      EXPECT_DOUBLE_EQ(uniform.RelativeCardinality(f.schema, e, n), 1.0);
    }
  }
}

// --- EdgeMetrics -------------------------------------------------------------

TEST(EdgeMetricsTest, WeightsNormalizeAndMirror) {
  Fixture f;
  DataTree data = f.MakeData();
  Annotations ann = *AnnotateSchema(data);
  EdgeMetrics m = EdgeMetrics::Compute(f.schema, ann);
  for (ElementId e = 0; e < f.schema.size(); ++e) {
    const auto& nbrs = f.schema.neighbors(e);
    double total = 0;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      total += m.w[e][i];
      // Mirror round-trips.
      uint32_t j = m.mirror[e][i];
      EXPECT_EQ(f.schema.neighbors(nbrs[i].other)[j].other, e);
      EXPECT_EQ(m.mirror[nbrs[i].other][j], i);
      // Edge affinity is capped at 1.
      EXPECT_LE(m.edge_affinity[e][i], 1.0);
      EXPECT_GE(m.edge_affinity[e][i], 0.0);
    }
    if (!nbrs.empty()) {
      EXPECT_NEAR(total, 1.0, 1e-9);
    }
  }
}

TEST(EdgeMetricsTest, ZeroCardFallsBackToUniformWeights) {
  Fixture f;
  DataTree t(&f.schema);
  Annotations ann = *AnnotateSchema(t);
  EdgeMetrics m = EdgeMetrics::Compute(f.schema, ann);
  const auto& nbrs = f.schema.neighbors(f.auction);
  ASSERT_FALSE(nbrs.empty());
  double expected = 1.0 / static_cast<double>(nbrs.size());
  for (size_t i = 0; i < nbrs.size(); ++i) {
    EXPECT_DOUBLE_EQ(m.w[f.auction][i], expected);
  }
}

// --- merge --------------------------------------------------------------------

TEST(AnnotateTest, MergeSumsElementWise) {
  Fixture f;
  DataTree data = f.MakeData();
  Annotations full = *AnnotateSchema(data);

  // Merging the full pass into a zeroed shape reproduces it; merging it
  // twice doubles every counter — counting is additive over stream shards.
  Annotations acc(f.schema);
  ASSERT_TRUE(acc.Merge(full).ok());
  EXPECT_EQ(acc, full);
  ASSERT_TRUE(acc.Merge(full).ok());
  EXPECT_EQ(acc.card(f.bidder), 2 * full.card(f.bidder));
  EXPECT_EQ(acc.structural_count(f.schema.parent_link(f.bidder)),
            2 * full.structural_count(f.schema.parent_link(f.bidder)));
  EXPECT_EQ(acc.value_count(f.bids), 2 * full.value_count(f.bids));
  EXPECT_EQ(acc.TotalNodes(), 2 * full.TotalNodes());
}

TEST(AnnotateTest, MergeRejectsShapeMismatch) {
  Fixture f;
  Annotations ann(f.schema);
  SchemaBuilder b("other");
  b.Rcd(b.Root(), "child");
  SchemaGraph other = std::move(b).Build();
  Annotations foreign(other);
  auto status = ann.Merge(foreign);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
}

TEST(AnnotateTest, TotalNodesMatchesCountingSink) {
  Fixture f;
  DataTree data = f.MakeData();
  Annotations ann = *AnnotateSchema(data);
  CountingSink counter;
  ASSERT_TRUE(data.Accept(&counter).ok());
  EXPECT_EQ(ann.TotalNodes(), counter.nodes());
}

// --- sharded annotation -------------------------------------------------------

/// The sharded pass must be bit-identical to the serial one for ANY shard
/// count — including counts that don't divide the units evenly (7), exceed
/// them (64 on small instances), or degenerate to serial (1) — and for the
/// auto shard count, with the reduction running on worker threads.
void ExpectShardInvariance(const ShardedInstanceSource& source,
                           const Annotations& serial) {
  for (uint64_t shards : {uint64_t{1}, uint64_t{2}, uint64_t{7}, uint64_t{64}}) {
    ShardedAnnotateOptions opts;
    opts.shards = shards;
    opts.parallel.threads = 4;
    auto sharded = AnnotateSchemaSharded(source, opts);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    EXPECT_EQ(*sharded, serial) << "shards=" << shards;
  }
  auto auto_sharded = AnnotateSchemaSharded(source);
  ASSERT_TRUE(auto_sharded.ok()) << auto_sharded.status().ToString();
  EXPECT_EQ(*auto_sharded, serial);
}

TEST(ShardedAnnotateTest, DataTreeMatchesSerial) {
  Fixture f;
  DataTree data = f.MakeData();
  Annotations serial = *AnnotateSchema(data);
  ExpectShardInvariance(data, serial);
}

TEST(ShardedAnnotateTest, EmptyTreeMatchesSerial) {
  Fixture f;
  DataTree data(&f.schema);  // zero units: skeleton only
  Annotations serial = *AnnotateSchema(data);
  ExpectShardInvariance(data, serial);
}

TEST(ShardedAnnotateTest, HandBuiltXmlWithUnevenFanoutMatchesSerial) {
  // One huge top-level subtree followed by many tiny ones: shard boundaries
  // land mid-document and units differ wildly in size.
  std::string xml = "<db><big>";
  for (int i = 0; i < 200; ++i) xml += "<x><y/></x>";
  xml += "</big>";
  for (int i = 0; i < 17; ++i) xml += "<small/>";
  xml += "</db>";
  auto doc = ParseXml(xml);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto schema = InferSchema(*doc);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  XmlInstanceStream stream(&*schema, &*doc);
  EXPECT_EQ(stream.NumUnits(), 18u);  // 1 big + 17 small top-level children
  Annotations serial = *AnnotateSchema(stream);
  ExpectShardInvariance(stream, serial);
  // The document-level entry point routes through the sharded pass.
  auto via_doc = AnnotateXmlDocument(*schema, *doc);
  ASSERT_TRUE(via_doc.ok());
  EXPECT_EQ(*via_doc, serial);
}

TEST(ShardedAnnotateTest, XMarkMatchesSerial) {
  XMarkParams params;
  params.sf = 0.02;
  XMarkDataset ds(params);
  Annotations serial = *AnnotateSchema(*ds.MakeStream());
  ExpectShardInvariance(*ds.MakeShardedSource(), serial);
}

TEST(ShardedAnnotateTest, TpchMatchesSerial) {
  TpchParams params;
  params.sf = 0.002;
  TpchDataset ds(params);
  Annotations serial = *AnnotateSchema(*ds.MakeStream());
  ExpectShardInvariance(*ds.MakeShardedSource(), serial);
}

TEST(ShardedAnnotateTest, MimiMatchesSerial) {
  for (MimiVersion version :
       {MimiVersion::kApr2004, MimiVersion::kJan2006}) {
    MimiParams params;
    params.version = version;
    params.scale = 0.01;
    MimiDataset ds(params);
    Annotations serial = *AnnotateSchema(*ds.MakeStream());
    ExpectShardInvariance(*ds.MakeShardedSource(), serial);
  }
}

TEST(ShardedAnnotateTest, RelationalDatabaseMatchesSerial) {
  TpchParams params;
  params.sf = 0.001;
  TpchDataset ds(params);
  auto db = ds.GenerateDatabase();
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  RelationalInstanceStream stream(&ds.mapping(), &*db);
  Annotations serial = *AnnotateSchema(stream);
  ExpectShardInvariance(stream, serial);
}

TEST(ShardedAnnotateTest, AnnotateUnitsSumsToSerial) {
  Fixture f;
  DataTree data = f.MakeData();
  Annotations serial = *AnnotateSchema(data);
  // Skeleton + manually merged unit sub-ranges reproduce the serial pass.
  ShardedAnnotateOptions one_shard;
  one_shard.shards = 1;
  one_shard.parallel.threads = 1;
  Annotations total = *AnnotateSchemaSharded(data, one_shard);
  EXPECT_EQ(total, serial);
  const uint64_t units = data.NumUnits();
  ASSERT_EQ(units, 2u);
  Annotations first = *AnnotateUnits(data, 0, 1);
  Annotations second = *AnnotateUnits(data, 1, 2);
  ASSERT_TRUE(first.Merge(second).ok());
  // Units alone = serial minus the skeleton (here: the root's counters).
  EXPECT_EQ(first.card(f.auctions), serial.card(f.auctions));
  EXPECT_EQ(first.card(f.bidder), serial.card(f.bidder));
  EXPECT_EQ(first.value_count(f.bids), serial.value_count(f.bids));
  EXPECT_EQ(first.card(f.schema.root()), 0u);
}

TEST(ShardedAnnotateTest, RejectsBadUnitRanges) {
  Fixture f;
  DataTree data = f.MakeData();
  EXPECT_TRUE(AnnotateUnits(data, 2, 1).status().IsInvalidArgument());
  EXPECT_TRUE(AnnotateUnits(data, 0, 3).status().IsInvalidArgument());
}

TEST(ShardedAnnotateTest, ShardUnitRangesPartitionEvenly) {
  for (uint64_t units : {uint64_t{0}, uint64_t{1}, uint64_t{10}, uint64_t{97}}) {
    for (uint64_t shards : {uint64_t{1}, uint64_t{3}, uint64_t{8}}) {
      uint64_t covered = 0, min_size = units + 1, max_size = 0;
      uint64_t expect_begin = 0;
      for (uint64_t s = 0; s < shards; ++s) {
        UnitRange r = ShardUnitRange(units, s, shards);
        EXPECT_EQ(r.begin, expect_begin);  // contiguous, in order
        expect_begin = r.end;
        covered += r.size();
        min_size = std::min(min_size, r.size());
        max_size = std::max(max_size, r.size());
      }
      EXPECT_EQ(covered, units);
      EXPECT_EQ(expect_begin, units);
      if (units >= shards) {
        EXPECT_LE(max_size - min_size, 1u);
      }
    }
  }
}

// --- annotations io -----------------------------------------------------------

TEST(AnnotationsIoTest, RoundTrip) {
  Fixture f;
  DataTree data = f.MakeData();
  Annotations ann = *AnnotateSchema(data);
  std::string text = SerializeAnnotations(ann);
  auto parsed = ParseAnnotations(f.schema, text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, ann);
}

TEST(AnnotationsIoTest, RejectsBadInput) {
  Fixture f;
  EXPECT_TRUE(ParseAnnotations(f.schema, "junk").status().IsParseError());
  EXPECT_TRUE(ParseAnnotations(f.schema, "ssum-annotations v1\nc\t999\t5\n")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseAnnotations(f.schema, "ssum-annotations v1\nc\t0\n")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseAnnotations(f.schema, "ssum-annotations v1\nq\t0\t1\n")
                  .status()
                  .IsParseError());
}

TEST(AnnotationsIoTest, FileRoundTrip) {
  Fixture f;
  DataTree data = f.MakeData();
  Annotations ann = *AnnotateSchema(data);
  std::string path = testing::TempDir() + "/annotations.txt";
  ASSERT_TRUE(WriteAnnotationsFile(ann, path).ok());
  auto loaded = ReadAnnotationsFile(f.schema, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, ann);
}

}  // namespace
}  // namespace ssum
