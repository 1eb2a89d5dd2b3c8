// Quickstart: define a small schema, load a database, and generate a
// summary — the library's core loop in ~100 lines.
//
//   ./quickstart
//
// The schema is a miniature bookstore; the "database" is an in-memory
// DataTree. Real applications stream instances instead (see the other
// examples) — the API is identical from annotation onward.

#include <cstdio>
#include <string>

#include "core/metrics.h"
#include "core/summarize.h"
#include "instance/data_tree.h"
#include "schema/dot_export.h"
#include "schema/schema_builder.h"
#include "stats/annotate.h"

using namespace ssum;

int main() {
  // 1. Define a schema (Definition 1): structural tree + value links.
  SchemaBuilder b("store");
  ElementId books = b.Rcd(b.Root(), "books");
  ElementId book = b.SetRcd(books, "book");
  b.Attr(book, "isbn", AtomicKind::kId);
  b.Simple(book, "title");
  b.Simple(book, "price", AtomicKind::kFloat);
  ElementId review = b.SetRcd(book, "review");
  b.Simple(review, "rating", AtomicKind::kInt);
  b.Simple(review, "comment");
  ElementId author_ref = b.Rcd(book, "author_ref");
  ElementId author_ref_id = b.Attr(author_ref, "author", AtomicKind::kIdRef);
  ElementId authors = b.Rcd(b.Root(), "authors");
  ElementId author = b.SetRcd(authors, "author");
  ElementId author_id = b.Attr(author, "id", AtomicKind::kId);
  b.Simple(author, "name");
  b.Simple(author, "bio");
  LinkId by = b.Link(author_ref, author, author_ref_id, author_id);
  SchemaGraph schema = std::move(b).Build();
  std::printf("schema: %zu elements, %zu structural links, %zu value links\n",
              schema.size(), schema.structural_links().size(),
              schema.value_links().size());

  // 2. Build a tiny database instance and annotate it (Figure 3).
  DataTree db(&schema);
  auto must = [](auto result) {
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(*result);
  };
  NodeId n_authors = must(db.AddNode(db.root(), authors));
  std::vector<NodeId> author_nodes;
  for (int i = 0; i < 3; ++i) {
    NodeId a = must(db.AddNode(n_authors, author));
    std::string id = "a";
    id += std::to_string(i);
    must(db.AddNode(a, author_id, id));
    must(db.AddNode(a, *schema.FindPath("store/authors/author/name"),
                    "Author " + std::to_string(i)));
    author_nodes.push_back(a);
  }
  NodeId n_books = must(db.AddNode(db.root(), books));
  for (int i = 0; i < 12; ++i) {
    NodeId bk = must(db.AddNode(n_books, book));
    must(db.AddNode(bk, *schema.FindPath("store/books/book/@isbn")));
    must(db.AddNode(bk, *schema.FindPath("store/books/book/title")));
    must(db.AddNode(bk, *schema.FindPath("store/books/book/price")));
    for (int r = 0; r < 2 + i % 3; ++r) {
      NodeId rv = must(db.AddNode(bk, review));
      must(db.AddNode(rv, *schema.FindPath("store/books/book/review/rating")));
    }
    NodeId ar = must(db.AddNode(bk, author_ref));
    must(db.AddNode(ar, author_ref_id));
    Status s = db.AddReference(by, ar, author_nodes[i % 3]);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  Annotations ann = must(AnnotateSchema(db));
  std::printf("database: %zu nodes; card(book)=%llu card(review)=%llu\n",
              db.size(),
              static_cast<unsigned long long>(ann.card(book)),
              static_cast<unsigned long long>(ann.card(review)));

  // 3. Summarize (Section 4) and inspect the result.
  auto context = SummarizerContext::Make(schema, ann).ValueOrDie();
  SchemaSummary summary = must(Summarize(context, 2));
  std::printf("\nsize-2 BalanceSummary:\n");
  for (ElementId s : summary.abstract_elements) {
    std::printf("  abstract element '%s' represents:", schema.label(s).c_str());
    for (ElementId e : summary.Group(s)) {
      if (e != s) std::printf(" %s", schema.label(e).c_str());
    }
    std::printf("\n");
  }
  for (const AbstractLink& l : summary.links) {
    std::printf("  link %s -> %s (%u original link%s%s)\n",
                schema.label(l.from).c_str(), schema.label(l.to).c_str(),
                l.source_links, l.source_links == 1 ? "" : "s",
                l.has_value ? ", incl. value links" : "");
  }

  // 4. Quality metrics (Definitions 3 and 4).
  double ri = SummaryImportanceRatio(schema, context.importance().importance,
                                     summary);
  double rc = SummaryCoverageRatio(schema, ann, context.coverage(), summary);
  std::printf("\nsummary importance R_SS = %.3f, coverage C_SS = %.3f\n", ri,
              rc);

  // 5. Export the original schema as DOT for visualization.
  DotOptions dot;
  dot.graph_name = "bookstore";
  std::printf("\nGraphviz DOT of the schema:\n%s", ExportDot(schema, dot).c_str());
  return 0;
}
