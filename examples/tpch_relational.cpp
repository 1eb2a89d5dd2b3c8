// Relational-path demo: materializes a tiny TPC-H database, verifies
// referential integrity, lowers the catalog to the paper's schema-graph
// model, annotates, summarizes, and walks one query-discovery session
// step by step.
//
//   ./tpch_relational [scale-factor]    (default 0.002)

#include <cstdio>
#include <cstdlib>

#include "core/summarize.h"
#include "datasets/tpch.h"
#include "query/discovery.h"
#include "relational/csv.h"
#include "stats/annotate.h"

using namespace ssum;

int main(int argc, char** argv) {
  TpchParams params;
  params.sf = argc > 1 ? std::atof(argv[1]) : 0.002;
  TpchDataset ds(params);
  std::printf("TPC-H catalog: %zu tables, schema graph of %zu elements\n",
              ds.catalog().tables().size(), ds.schema().size());

  auto db = ds.GenerateDatabase();
  if (!db.ok()) {
    std::fprintf(stderr, "dbgen failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  Status fk = db->CheckForeignKeys();
  std::printf("referential integrity: %s\n", fk.ToString().c_str());
  for (size_t t = 0; t < db->num_tables(); ++t) {
    std::printf("  %-10s %8zu rows\n", db->table(t).def().name.c_str(),
                db->table(t).num_rows());
  }

  // Show the CSV layer round-tripping a table.
  std::string csv = WriteCsv(db->table(0));
  std::printf("\nregion as CSV:\n%s", csv.c_str());

  // Annotate from the materialized database.
  RelationalInstanceStream stream(&ds.mapping(), &*db);
  auto ann = AnnotateSchema(stream);
  if (!ann.ok()) {
    std::fprintf(stderr, "annotation failed: %s\n",
                 ann.status().ToString().c_str());
    return 1;
  }

  auto context = SummarizerContext::Make(ds.schema(), *ann).ValueOrDie();
  auto summary = Summarize(context, 5);
  if (!summary.ok()) {
    std::fprintf(stderr, "summarize failed: %s\n",
                 summary.status().ToString().c_str());
    return 1;
  }
  std::printf("\nsize-5 summary of TPC-H:\n");
  for (ElementId s : summary->abstract_elements) {
    std::printf("  %-12s represents:", ds.schema().label(s).c_str());
    for (ElementId e : summary->Group(s)) {
      if (e != s && ds.schema().type(e).kind != TypeKind::kSimple) {
        std::printf(" %s", ds.schema().label(e).c_str());
      }
    }
    std::printf(" (+columns)\n");
  }

  // One discovery session in detail: TPC-H Q6 (lineitem revenue forecast).
  Workload workload = *ds.Queries();
  DiscoveryOracle oracle(ds.schema());
  const QueryIntention& q6 = workload.queries[5];
  DiscoveryResult without = Discover(oracle, q6, TraversalStrategy::kBestFirst);
  DiscoveryResult with = DiscoverWithSummary(oracle, *summary, q6);
  std::printf(
      "\nquery %s (intention of %zu elements):\n"
      "  best-first without summary: cost %llu (%llu elements examined)\n"
      "  best-first with summary   : cost %llu (%llu elements examined)\n",
      q6.name.c_str(), q6.size(),
      static_cast<unsigned long long>(without.cost),
      static_cast<unsigned long long>(without.visited),
      static_cast<unsigned long long>(with.cost),
      static_cast<unsigned long long>(with.visited));

  std::printf("\nfull workload averages:\n");
  std::printf("  best-first    : %.2f\n",
              AverageDiscoveryCost(oracle, workload,
                                   TraversalStrategy::kBestFirst));
  std::printf("  with summary  : %.2f\n",
              AverageDiscoveryCostWithSummary(oracle, *summary, workload));
  return 0;
}
