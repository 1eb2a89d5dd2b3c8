// Writes the seed corpus for fuzz_store (fuzz/corpus/store/): one valid
// container per artifact kind for the harness schema, plus envelope edge
// cases (empty container, foreign format version, truncation). Run from the
// repo root:
//
//   build/fuzz/make_store_seeds fuzz/corpus/store
//
// The seeds are committed; this tool only exists to regenerate them when
// the container format or the harness schema changes.

#include <cstdio>
#include <string>

#include "core/summarize.h"
#include "schema/schema_graph.h"
#include "stats/annotate.h"
#include "store/codec.h"
#include "store/container.h"

namespace {

/// Must stay identical to FuzzSchema() in fuzz_store.cc so the annotation
/// and summary seeds take the decoders' accept path.
ssum::SchemaGraph BuildFuzzSchema() {
  using ssum::AtomicKind;
  using ssum::ElementType;
  ssum::SchemaGraph g("site");
  ssum::ElementId people = *g.AddElement(g.root(), "people", ElementType::Rcd());
  ssum::ElementId person =
      *g.AddElement(people, "person", ElementType::Rcd(/*set_of=*/true));
  ssum::ElementId pid =
      *g.AddElement(person, "id", ElementType::Simple(AtomicKind::kId));
  *g.AddElement(person, "name", ElementType::Simple());
  ssum::ElementId auctions =
      *g.AddElement(g.root(), "auctions", ElementType::Rcd());
  ssum::ElementId auction =
      *g.AddElement(auctions, "auction", ElementType::Rcd(/*set_of=*/true));
  ssum::ElementId seller =
      *g.AddElement(auction, "seller", ElementType::Simple(AtomicKind::kIdRef));
  *g.AddValueLink(auction, person, seller, pid);
  return g;
}

int Write(const std::string& path, const std::string& bytes) {
  if (!ssum::AtomicWriteFile(path, bytes).ok()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s (%zu bytes)\n", path.c_str(), bytes.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_store_seeds <output-dir>\n");
    return 2;
  }
  const std::string dir = argv[1];
  ssum::SchemaGraph schema = BuildFuzzSchema();

  // Plausible statistics: a few hundred people, tens of auctions.
  ssum::Annotations ann(schema);
  for (ssum::ElementId e = 0; e < schema.size(); ++e) {
    ann.set_card(e, 7 * (e + 1));
  }
  for (ssum::LinkId l = 0; l < schema.structural_links().size(); ++l) {
    ann.set_structural_count(l, 11 * (l + 1));
  }
  for (ssum::LinkId l = 0; l < schema.value_links().size(); ++l) {
    ann.set_value_count(l, 13 * (l + 1));
  }

  int rc = 0;
  const std::string ann_bytes = ssum::EncodeAnnotations(ann);
  rc |= Write(dir + "/annotations_valid.ssb", ann_bytes);

  ssum::SquareMatrix m(schema.size(), 0.0);
  for (size_t r = 0; r < m.size(); ++r) {
    for (size_t c = 0; c < m.size(); ++c) {
      m.Set(r, c, r == c ? 1.0 : 1.0 / static_cast<double>(1 + r + c));
    }
  }
  rc |= Write(dir + "/matrix_valid.ssb", ssum::EncodeSquareMatrix(m));

  auto context = ssum::SummarizerContext::Make(schema, ann).ValueOrDie();
  auto summary = ssum::Summarize(context, 3);
  if (!summary.ok()) {
    std::fprintf(stderr, "summarize failed: %s\n",
                 summary.status().ToString().c_str());
    return 1;
  }
  rc |= Write(dir + "/summary_valid.ssb", ssum::EncodeSummary(*summary));

  rc |= Write(dir + "/empty_sections.ssb",
              ssum::ContainerWriter(ssum::PayloadKind::kAnnotations).Finish());

  ssum::ContainerWriter foreign(
      static_cast<uint32_t>(ssum::PayloadKind::kAnnotations),
      ssum::kContainerFormatVersion + 1);
  foreign.AddSection(1, "bytes from a future format generation");
  rc |= Write(dir + "/foreign_version.ssb", std::move(foreign).Finish());

  rc |= Write(dir + "/truncated.ssb",
              ann_bytes.substr(0, ann_bytes.size() / 2));

  // Crash artifacts: the torn prefixes a power cut mid-write leaves behind
  // (see FaultInjectingEnv's torn-write faults). The reader must classify
  // every one as a miss, never crash on it.
  rc |= Write(dir + "/crash_partial_header.ssb",
              ann_bytes.substr(0, ssum::kContainerHeaderSize / 2));
  rc |= Write(dir + "/crash_torn_mid_section.ssb",
              ann_bytes.substr(0, ssum::kContainerHeaderSize + 11));
  rc |= Write(dir + "/crash_torn_trailer.ssb",
              ann_bytes.substr(0, ann_bytes.size() -
                                      ssum::kContainerTrailerSize / 2));
  return rc;
}
