// Replays the fuzz seed corpus (fuzz/corpus/) through the ingestion-boundary
// parsers as ordinary unit tests, so the fixtures guard against regressions
// even in builds that never run the fuzz harnesses. Every fixture must
// produce a Status — ok or error — without crashing; named fixtures
// additionally pin the expected outcome.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/summary_io.h"
#include "datasets/scenario.h"
#include "event_fuzz.h"
#include "instance/materialize.h"
#include "relational/csv.h"
#include "serve/wire.h"
#include "relational/ddl.h"
#include "schema/schema_io.h"
#include "stats/annotate.h"
#include "store/codec.h"
#include "store/container.h"
#include "xml/parser.h"
#include "xml/writer.h"

#ifndef SSUM_FUZZ_CORPUS_DIR
#error "SSUM_FUZZ_CORPUS_DIR must point at fuzz/corpus (set in CMakeLists)"
#endif

namespace ssum {
namespace {

namespace fs = std::filesystem;

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open corpus fixture " << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::vector<fs::path> CorpusFiles(const char* subdir) {
  std::vector<fs::path> files;
  for (const auto& entry :
       fs::directory_iterator(fs::path(SSUM_FUZZ_CORPUS_DIR) / subdir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  EXPECT_FALSE(files.empty()) << "empty corpus directory " << subdir;
  return files;
}

/// Same limits as fuzz/fuzz_util.h TightLimits() so replay matches the
/// harness behavior (deep_nesting.xml must trip max_depth = 64).
ParseLimits TightLimits() {
  ParseLimits limits;
  limits.max_input_bytes = 1u << 20;
  limits.max_depth = 64;
  limits.max_token_bytes = 1u << 16;
  limits.max_items = 1u << 16;
  return limits;
}

TEST(FuzzRegressionTest, XmlCorpus) {
  for (const fs::path& p : CorpusFiles("xml")) {
    const std::string text = ReadFileOrDie(p);
    auto doc = ParseXml(text, TightLimits());
    const std::string name = p.filename().string();
    if (name == "valid.xml" || name == "entities_cdata.xml" ||
        name.rfind("scenario", 0) == 0) {
      // Scenario-generated seeds (fuzz/make_scenario_seeds.cc) are
      // well-formed by construction; ScenarioCorpus below pins their bytes.
      EXPECT_TRUE(doc.ok()) << name << ": " << doc.status().ToString();
    } else {
      EXPECT_TRUE(doc.status().IsParseError()) << name;
      EXPECT_NE(doc.status().ToString().find("byte"), std::string::npos)
          << name << ": " << doc.status().ToString();
    }
  }
}

TEST(FuzzRegressionTest, DdlCorpus) {
  for (const fs::path& p : CorpusFiles("ddl")) {
    const std::string text = ReadFileOrDie(p);
    auto catalog = ParseDdl(text, TightLimits());
    const std::string name = p.filename().string();
    if (name.rfind("malformed", 0) == 0) {
      EXPECT_TRUE(catalog.status().IsParseError()) << name;
    } else {
      ASSERT_TRUE(catalog.ok()) << name << ": " << catalog.status().ToString();
      // The fuzz oracle: WriteDdl output re-parses and is a fixpoint.
      const std::string dumped = WriteDdl(*catalog);
      auto again = ParseDdl(dumped, TightLimits());
      ASSERT_TRUE(again.ok()) << name << ": " << again.status().ToString()
                              << "\n" << dumped;
      EXPECT_EQ(WriteDdl(*again), dumped) << name;
    }
  }
}

TEST(FuzzRegressionTest, CsvCorpus) {
  TableDef def;
  def.name = "fuzz";
  def.columns = {{"a", ColumnType::kInt, false},
                 {"b", ColumnType::kString, false},
                 {"c", ColumnType::kFloat, false}};
  for (const fs::path& p : CorpusFiles("csv")) {
    const std::string raw = ReadFileOrDie(p);
    ASSERT_FALSE(raw.empty()) << p;
    // First byte selects the dialect, as in fuzz_csv.cc.
    CsvOptions options;
    if (raw[0] & 1) {
      options.delimiter = '|';
      options.header = false;
      options.allow_quotes = false;
    }
    Table table(&def);
    Status st = LoadCsv(raw.substr(1), &table, options, TightLimits());
    const std::string name = p.filename().string();
    if (name == "header_quoted.csv" || name == "pipe_tpch.csv") {
      EXPECT_TRUE(st.ok()) << name << ": " << st.ToString();
      EXPECT_EQ(table.num_rows(), 3u) << name;
    } else {
      EXPECT_TRUE(st.IsParseError()) << name << ": " << st.ToString();
      EXPECT_NE(st.ToString().find("byte"), std::string::npos) << name;
    }
  }
}

TEST(FuzzRegressionTest, SummaryCorpus) {
  // Mirror of FuzzSchema() in fuzz/fuzz_summary.cc.
  SchemaGraph schema("site");
  ElementId people = *schema.AddElement(0, "people", ElementType::Rcd());
  ElementId person =
      *schema.AddElement(people, "person", ElementType::Rcd(true));
  ElementId pid =
      *schema.AddElement(person, "id", ElementType::Simple(AtomicKind::kId));
  ASSERT_TRUE(schema.AddElement(person, "name", ElementType::Simple()).ok());
  ElementId auctions = *schema.AddElement(0, "auctions", ElementType::Rcd());
  ElementId auction =
      *schema.AddElement(auctions, "auction", ElementType::Rcd(true));
  ElementId seller = *schema.AddElement(
      auction, "seller", ElementType::Simple(AtomicKind::kIdRef));
  ASSERT_TRUE(schema.AddValueLink(auction, person, seller, pid).ok());

  for (const fs::path& p : CorpusFiles("summary")) {
    const std::string text = ReadFileOrDie(p);
    const std::string name = p.filename().string();
    auto parsed_schema = ParseSchema(text, TightLimits());
    auto parsed_summary = ParseSummary(schema, text, TightLimits());
    if (name == "schema_valid.ssum") {
      ASSERT_TRUE(parsed_schema.ok())
          << name << ": " << parsed_schema.status().ToString();
      EXPECT_EQ(parsed_schema->size(), schema.size());
      const std::string dumped = SerializeSchema(*parsed_schema);
      auto again = ParseSchema(dumped, TightLimits());
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(again->value_links(), parsed_schema->value_links());
    } else if (name == "summary_valid.ssum") {
      ASSERT_TRUE(parsed_summary.ok())
          << name << ": " << parsed_summary.status().ToString();
      const std::string dumped = SerializeSummary(*parsed_summary);
      auto again = ParseSummary(schema, dumped, TightLimits());
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(again->abstract_elements, parsed_summary->abstract_elements);
      EXPECT_EQ(again->representative, parsed_summary->representative);
    } else {
      EXPECT_FALSE(parsed_schema.ok()) << name;
      EXPECT_FALSE(parsed_summary.ok()) << name;
    }
  }
}

TEST(FuzzRegressionTest, StoreCorpus) {
  // Mirror of FuzzSchema() in fuzz/fuzz_store.cc.
  SchemaGraph schema("site");
  ElementId people = *schema.AddElement(0, "people", ElementType::Rcd());
  ElementId person =
      *schema.AddElement(people, "person", ElementType::Rcd(true));
  ElementId pid =
      *schema.AddElement(person, "id", ElementType::Simple(AtomicKind::kId));
  ASSERT_TRUE(schema.AddElement(person, "name", ElementType::Simple()).ok());
  ElementId auctions = *schema.AddElement(0, "auctions", ElementType::Rcd());
  ElementId auction =
      *schema.AddElement(auctions, "auction", ElementType::Rcd(true));
  ElementId seller = *schema.AddElement(
      auction, "seller", ElementType::Simple(AtomicKind::kIdRef));
  ASSERT_TRUE(schema.AddValueLink(auction, person, seller, pid).ok());

  for (const fs::path& p : CorpusFiles("store")) {
    const std::string bytes = ReadFileOrDie(p);
    const std::string name = p.filename().string();
    auto info = PeekContainer(bytes);
    auto container = ParseContainer(bytes);
    if (name == "annotations_valid.ssb") {
      ASSERT_TRUE(container.ok()) << container.status().ToString();
      auto ann = DecodeAnnotations(schema, bytes);
      ASSERT_TRUE(ann.ok()) << ann.status().ToString();
      auto again = DecodeAnnotations(schema, EncodeAnnotations(*ann));
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(*again, *ann);
    } else if (name == "matrix_valid.ssb") {
      auto matrix = DecodeSquareMatrix(bytes, schema.size());
      ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
    } else if (name == "summary_valid.ssb") {
      auto summary = DecodeSummary(schema, bytes);
      ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    } else if (name == "empty_sections.ssb") {
      ASSERT_TRUE(container.ok()) << container.status().ToString();
      EXPECT_FALSE(DecodeAnnotations(schema, bytes).ok());
    } else if (name == "foreign_version.ssb") {
      ASSERT_TRUE(info.ok()) << info.status().ToString();
      EXPECT_NE(info->format_version, kContainerFormatVersion);
      EXPECT_TRUE(container.status().IsFailedPrecondition())
          << container.status().ToString();
    } else if (name == "truncated.ssb") {
      EXPECT_TRUE(container.status().IsOutOfRange())
          << container.status().ToString();
    } else {
      // Unnamed seeds only need the abort-free guarantee (checked by
      // running at all); decoders may accept or reject.
      (void)DecodeSummary(schema, bytes);
    }
  }
}

TEST(FuzzRegressionTest, ScenarioCorpus) {
  // Must stay identical to kSmallSeedSpec in fuzz/make_scenario_seeds.cc.
  constexpr char kSmallSeedSpec[] =
      "name: seed_small\n"
      "seed: 5\n"
      "schema.elements: 40\n"
      "schema.entity_classes: 3\n"
      "instance.units: 20\n"
      "workload.queries: 5\n";

  // Re-derive the small seed from its spec: the checked-in XML and
  // annotation container must match bit-for-bit. A generator change
  // (datasets/scenario.cc kScenarioRevision bump) without regenerated seeds
  // fails here, not silently in a fuzz run that starts from stale inputs.
  auto spec = ParseScenarioSpecText(kSmallSeedSpec, "seed_small");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto ds = ScenarioDataset::Make(*spec);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();

  auto doc = MaterializeToXml(*ds->MakeStream());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const fs::path xml_path =
      fs::path(SSUM_FUZZ_CORPUS_DIR) / "xml" / "scenario_small.xml";
  EXPECT_EQ(ReadFileOrDie(xml_path), WriteXml(*doc))
      << "scenario_small.xml is stale — rerun "
         "build/fuzz/make_scenario_seeds fuzz/corpus";

  auto ann = AnnotateSchema(*ds->MakeStream());
  ASSERT_TRUE(ann.ok()) << ann.status().ToString();
  const fs::path store_path =
      fs::path(SSUM_FUZZ_CORPUS_DIR) / "store" / "scenario_annotations.ssb";
  const std::string bytes = ReadFileOrDie(store_path);
  EXPECT_EQ(bytes, EncodeAnnotations(*ann))
      << "scenario_annotations.ssb is stale — rerun "
         "build/fuzz/make_scenario_seeds fuzz/corpus";
  auto decoded = DecodeAnnotations(ds->schema(), bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, *ann);

  // Every scenario XML seed re-parses under the harness limits and its
  // parse tree is non-trivial (the generator really emitted instances).
  for (const fs::path& p : CorpusFiles("xml")) {
    const std::string name = p.filename().string();
    if (name.rfind("scenario", 0) != 0) continue;
    auto parsed = ParseXml(ReadFileOrDie(p), TightLimits());
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.status().ToString();
    EXPECT_FALSE(parsed->root.children.empty()) << name;
  }
}

TEST(FuzzRegressionTest, ServeCorpus) {
  for (const fs::path& p : CorpusFiles("serve")) {
    const std::string bytes = ReadFileOrDie(p);
    const std::string name = p.filename().string();
    auto request = DecodeRequest(bytes);
    auto response = DecodeResponse(bytes);
    // Request and response use distinct payload kinds, so no body may
    // decode as both (the fuzz harness checks the same invariant).
    EXPECT_FALSE(request.ok() && response.ok()) << name;
    if (name.rfind("request_", 0) == 0) {
      ASSERT_TRUE(request.ok()) << name << ": " << request.status().ToString();
      // The fuzz oracle: accepted requests re-encode to identical bytes.
      EXPECT_EQ(EncodeRequest(*request), bytes) << name;
      if (name == "request_discover.ssb") {
        EXPECT_EQ(request->verb, ServeVerb::kDiscover);
        EXPECT_EQ(request->paths.size(), 2u);
      } else if (name == "request_summarize.ssb") {
        EXPECT_EQ(request->verb, ServeVerb::kSummarize);
        EXPECT_TRUE(request->has_deadline);
        EXPECT_EQ(request->deadline_ms, 1500u);
      }
    } else if (name.rfind("response_", 0) == 0) {
      ASSERT_TRUE(response.ok()) << name << ": "
                                 << response.status().ToString();
      EXPECT_EQ(EncodeResponse(*response), bytes) << name;
      if (name == "response_error.ssb") {
        EXPECT_TRUE(response->ToStatus().IsDeadlineExceeded())
            << response->ToStatus().ToString();
      } else {
        EXPECT_TRUE(response->ok()) << name;
      }
    } else if (name == "bad_verb.ssb") {
      EXPECT_TRUE(request.status().IsInvalidArgument())
          << request.status().ToString();
    } else if (name == "wrong_kind.ssb") {
      EXPECT_TRUE(request.status().IsInvalidArgument())
          << request.status().ToString();
      EXPECT_TRUE(response.status().IsInvalidArgument())
          << response.status().ToString();
    } else if (name == "foreign_version.ssb") {
      EXPECT_TRUE(request.status().IsFailedPrecondition())
          << request.status().ToString();
    } else if (name == "truncated.ssb") {
      EXPECT_TRUE(request.status().IsOutOfRange())
          << request.status().ToString();
    } else {
      // Unnamed seeds (minimized fuzzer finds) only need the abort-free
      // guarantee; the decoders may accept or reject.
    }
  }
}

TEST(FuzzRegressionTest, EventsCorpus) {
  // Expected outcome of each named fixture (the empty string means OK);
  // every fixture, named or not, must agree with the per-event reference.
  const std::map<std::string, std::string> expected = {
      {"valid_root.bin", ""},
      {"valid_units.bin", ""},
      {"many_blocks.bin", ""},
      {"empty_root.bin", ""},
      {"leaf_first.bin", "stream: first node is not the schema root"},
      {"leaf_wrong_parent.bin",
       "stream: node 'name' entered under node of element 'db' but its "
       "schema parent is 'person'"},
      {"leaf_out_of_range.bin", "stream: element id out of range"},
      {"id_overflow.bin",
       "stream: element id 1073741825 does not fit in the 30-bit event id "
       "field"},
      {"vlink_overflow.bin",
       "stream: vlink id 4294967295 does not fit in the 30-bit event id "
       "field"},
      {"unit_at_root.bin", "stream: unit subtree rooted at the schema root"},
      {"unbalanced_leave.bin", "stream: unbalanced leave event"},
      {"unclosed.bin", "stream: unclosed nodes at end"},
      {"reference_outside.bin", "stream: reference outside a node"},
      {"reference_wrong_referrer.bin",
       "stream: reference emitted by element 'db' but link referrer is "
       "'bidder'"},
  };
  size_t named = 0;
  for (const fs::path& p : CorpusFiles("events")) {
    const std::string bytes = ReadFileOrDie(p);
    const std::string name = p.filename().string();
    const fuzz::EventCheck check = fuzz::CheckEvents(
        reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
    EXPECT_EQ(check.mismatch, "") << name;
    auto it = expected.find(name);
    if (it == expected.end()) continue;
    ++named;
    if (it->second.empty()) {
      EXPECT_TRUE(check.status.ok()) << name << ": " << check.status.ToString();
    } else {
      EXPECT_EQ(check.status.code(), StatusCode::kFailedPrecondition) << name;
      EXPECT_EQ(check.status.message(), it->second) << name;
    }
  }
  EXPECT_EQ(named, expected.size()) << "a named events fixture is missing";
}

}  // namespace
}  // namespace ssum
