#pragma once

#include <utility>
#include <vector>

#include "common/result.h"
#include "instance/event_stream.h"
#include "instance/sharded_stream.h"
#include "relational/table.h"
#include "schema/schema_graph.h"

namespace ssum {

/// A relational catalog lowered into the paper's schema-graph model
/// (Definition 1): an artificial root with one SetOf Rcd child per relation,
/// Simple children for columns, and value links for foreign keys (the
/// referring relation is the referrer; the key columns are the carriers).
struct RelationalSchemaMapping {
  SchemaGraph graph;
  /// table index -> relation element.
  std::vector<ElementId> table_elements;
  /// table index, column index -> column element.
  std::vector<std::vector<ElementId>> column_elements;
  /// table index, foreign-key index -> value link.
  std::vector<std::vector<LinkId>> fk_links;
};

/// Lowers the catalog. Fails when Catalog::Validate fails.
Result<RelationalSchemaMapping> BuildRelationalSchema(
    const Catalog& catalog, std::string root_label = "catalog");

/// Streams a materialized Database as instance events: one node per row,
/// one node per non-NULL cell, one reference per non-NULL foreign-key cell.
///
/// Also a ShardedInstanceSource: one unit per row, tables concatenated in
/// catalog order, so annotation shards over row ranges.
class RelationalInstanceStream : public InstanceStream,
                                 public ShardedInstanceSource {
 public:
  /// `mapping` and `database` must outlive the stream; the database must
  /// instantiate the catalog the mapping was built from.
  RelationalInstanceStream(const RelationalSchemaMapping* mapping,
                           const Database* database);

  const SchemaGraph& schema() const override { return mapping_->graph; }

  // ShardedInstanceSource: the skeleton is the artificial catalog root;
  // unit u is the u-th row of the concatenated tables.
  uint64_t NumUnits() const override;

 private:
  Status Emit(EventWriter* out) const override;
  Status EmitSkeleton(EventWriter* out) const override;
  Status EmitUnits(uint64_t begin, uint64_t end,
                   EventWriter* out) const override;

  /// Foreign-key (column index, link) pairs of table `t`.
  std::vector<std::pair<size_t, LinkId>> FkColumns(size_t t) const;
  void EmitRow(size_t t, size_t row,
               const std::vector<std::pair<size_t, LinkId>>& fk_cols,
               EventWriter* out) const;

  const RelationalSchemaMapping* mapping_;
  const Database* database_;
};

}  // namespace ssum
