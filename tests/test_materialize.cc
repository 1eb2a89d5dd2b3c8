#include <gtest/gtest.h>

#include <map>

#include "datasets/mimi.h"
#include "datasets/xmark.h"
#include "instance/conformance.h"
#include "instance/materialize.h"
#include "stats/annotate.h"
#include "xml/infer_schema.h"
#include "xml/instance_bridge.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace ssum {
namespace {

XMarkDataset TinyXMark() {
  XMarkParams params;
  params.sf = 0.002;
  return XMarkDataset(params);
}

TEST(MaterializeTest, DataTreeMatchesStreamStructure) {
  XMarkDataset ds = TinyXMark();
  auto stream = ds.MakeStream();
  auto tree = MaterializeToDataTree(*stream);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  CountingSink counter;
  ASSERT_TRUE(stream->Accept(&counter).ok());
  EXPECT_EQ(tree->size(), counter.nodes());
  // The materialized tree conforms to the schema.
  EXPECT_TRUE(CheckConformance(*tree).ok());
  // Annotating the tree gives the same element cardinalities as annotating
  // the stream (value-link counts are dropped by design).
  Annotations from_tree = *AnnotateSchema(*tree);
  Annotations from_stream = *AnnotateSchema(*stream);
  for (ElementId e = 0; e < ds.schema().size(); ++e) {
    EXPECT_EQ(from_tree.card(e), from_stream.card(e))
        << ds.schema().PathOf(e);
  }
}

TEST(MaterializeTest, XmlRoundTripPreservesAnnotations) {
  // generator -> XML -> parse -> annotate  ==  generator -> annotate.
  // Cardinalities and structural counts match exactly. Value-link counts
  // match per (referrer, carrier) group: XMark declares six per-region
  // itemref links over ONE carrier attribute, and without resolving id
  // targets the XML bridge cannot attribute a reference to a specific
  // region, so only the groups' sums are recoverable from a document.
  XMarkDataset ds = TinyXMark();
  auto stream = ds.MakeStream();
  auto doc = MaterializeToXml(*stream);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  std::string xml_text = WriteXml(*doc);
  auto parsed = ParseXml(xml_text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto from_xml = AnnotateXmlDocument(ds.schema(), *parsed);
  ASSERT_TRUE(from_xml.ok()) << from_xml.status().ToString();
  Annotations direct = *AnnotateSchema(*stream);
  const SchemaGraph& g = ds.schema();
  for (ElementId e = 0; e < g.size(); ++e) {
    EXPECT_EQ(from_xml->card(e), direct.card(e)) << g.PathOf(e);
  }
  for (LinkId l = 0; l < g.structural_links().size(); ++l) {
    EXPECT_EQ(from_xml->structural_count(l), direct.structural_count(l));
  }
  std::map<std::pair<ElementId, ElementId>, uint64_t> group_xml, group_direct;
  size_t shared_carrier_links = 0;
  for (LinkId l = 0; l < g.value_links().size(); ++l) {
    const ValueLink& v = g.value_links()[l];
    auto key = std::make_pair(v.referrer, v.referrer_field);
    group_xml[key] += from_xml->value_count(l);
    group_direct[key] += direct.value_count(l);
    ++shared_carrier_links;
  }
  ASSERT_GT(shared_carrier_links, 0u);
  // The XML side over-counts shared carriers once per sharing link; the
  // per-group DIRECT totals must each divide the XML totals by the number
  // of links sharing the carrier.
  std::map<std::pair<ElementId, ElementId>, uint64_t> sharers;
  for (const ValueLink& v : g.value_links()) {
    ++sharers[{v.referrer, v.referrer_field}];
  }
  for (const auto& [key, direct_total] : group_direct) {
    EXPECT_EQ(group_xml[key], direct_total * sharers[key])
        << "referrer " << g.PathOf(key.first);
  }
}

TEST(MaterializeTest, XmlAttributesAndValues) {
  MimiParams params;
  params.scale = 0.001;
  MimiDataset ds(params);
  auto doc = MaterializeToXml(*ds.MakeStream());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root.name, "mimi");
  // Molecules carry synthesized @id attributes.
  const XmlElement* molecules = doc->root.FindChild("molecules");
  ASSERT_NE(molecules, nullptr);
  ASSERT_FALSE(molecules->children.empty());
  const XmlElement& molecule = molecules->children[0];
  const std::string* id = molecule.FindAttribute("id");
  ASSERT_NE(id, nullptr);
  EXPECT_FALSE(id->empty());
  // Simple child elements carry text.
  const XmlElement* name = molecule.FindChild("name");
  ASSERT_NE(name, nullptr);
  EXPECT_FALSE(name->text.empty());
}

TEST(MaterializeTest, InferredSchemaCoversGeneratedDocument) {
  // The schema inferred from a generated document must re-annotate it, and
  // every inferred path must exist in the hand-built schema.
  XMarkDataset ds = TinyXMark();
  auto doc = MaterializeToXml(*ds.MakeStream());
  ASSERT_TRUE(doc.ok());
  auto inferred = InferSchema(*doc);
  ASSERT_TRUE(inferred.ok()) << inferred.status().ToString();
  EXPECT_LE(inferred->size(), ds.schema().size());
  for (ElementId e = 0; e < inferred->size(); ++e) {
    EXPECT_TRUE(ds.schema().FindPath(inferred->PathOf(e)).ok())
        << inferred->PathOf(e);
  }
  auto ann = AnnotateXmlDocument(*inferred, *doc);
  EXPECT_TRUE(ann.ok()) << ann.status().ToString();
}

TEST(MaterializeTest, DeterministicAcrossCalls) {
  XMarkDataset ds = TinyXMark();
  auto d1 = MaterializeToXml(*ds.MakeStream());
  auto d2 = MaterializeToXml(*ds.MakeStream());
  ASSERT_TRUE(d1.ok() && d2.ok());
  EXPECT_EQ(WriteXml(*d1), WriteXml(*d2));
}

}  // namespace
}  // namespace ssum
