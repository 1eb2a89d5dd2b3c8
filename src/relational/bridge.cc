#include "relational/bridge.h"

#include <algorithm>

namespace ssum {

namespace {

AtomicKind ToAtomic(ColumnType t, bool primary_key) {
  if (primary_key) return AtomicKind::kId;
  switch (t) {
    case ColumnType::kInt:
      return AtomicKind::kInt;
    case ColumnType::kFloat:
      return AtomicKind::kFloat;
    case ColumnType::kDate:
      return AtomicKind::kDate;
    case ColumnType::kString:
      return AtomicKind::kString;
  }
  return AtomicKind::kString;
}

}  // namespace

Result<RelationalSchemaMapping> BuildRelationalSchema(const Catalog& catalog,
                                                      std::string root_label) {
  SSUM_RETURN_NOT_OK(catalog.Validate());
  RelationalSchemaMapping m{SchemaGraph(std::move(root_label)), {}, {}, {}};
  const auto& tables = catalog.tables();
  m.table_elements.resize(tables.size());
  m.column_elements.resize(tables.size());
  m.fk_links.resize(tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    auto table_elem =
        m.graph.AddElement(m.graph.root(), tables[t].name, ElementType::Rcd(true));
    SSUM_RETURN_NOT_OK(table_elem.status());
    m.table_elements[t] = *table_elem;
    m.column_elements[t].resize(tables[t].columns.size());
    for (size_t c = 0; c < tables[t].columns.size(); ++c) {
      const ColumnDef& col = tables[t].columns[c];
      auto col_elem = m.graph.AddElement(
          *table_elem, col.name,
          ElementType::Simple(ToAtomic(col.type, col.primary_key)));
      SSUM_RETURN_NOT_OK(col_elem.status());
      m.column_elements[t][c] = *col_elem;
    }
  }
  for (size_t t = 0; t < tables.size(); ++t) {
    m.fk_links[t].resize(tables[t].foreign_keys.size());
    for (size_t f = 0; f < tables[t].foreign_keys.size(); ++f) {
      const ForeignKeyDef& fk = tables[t].foreign_keys[f];
      int ref_t = catalog.TableIndex(fk.ref_table);
      int col = tables[t].ColumnIndex(fk.column);
      int ref_col = catalog.tables()[static_cast<size_t>(ref_t)].ColumnIndex(
          fk.ref_column);
      auto link = m.graph.AddValueLink(
          m.table_elements[t], m.table_elements[static_cast<size_t>(ref_t)],
          m.column_elements[t][static_cast<size_t>(col)],
          m.column_elements[static_cast<size_t>(ref_t)]
                           [static_cast<size_t>(ref_col)]);
      SSUM_RETURN_NOT_OK(link.status());
      m.fk_links[t][f] = *link;
    }
  }
  return m;
}

RelationalInstanceStream::RelationalInstanceStream(
    const RelationalSchemaMapping* mapping, const Database* database)
    : mapping_(mapping), database_(database) {}

std::vector<std::pair<size_t, LinkId>> RelationalInstanceStream::FkColumns(
    size_t t) const {
  const TableDef& def = database_->table(t).def();
  std::vector<std::pair<size_t, LinkId>> fk_cols;
  fk_cols.reserve(def.foreign_keys.size());
  for (size_t f = 0; f < def.foreign_keys.size(); ++f) {
    int col = def.ColumnIndex(def.foreign_keys[f].column);
    fk_cols.emplace_back(static_cast<size_t>(col), mapping_->fk_links[t][f]);
  }
  return fk_cols;
}

void RelationalInstanceStream::EmitRow(
    size_t t, size_t row,
    const std::vector<std::pair<size_t, LinkId>>& fk_cols,
    EventWriter* out) const {
  const Table& table = database_->table(t);
  const TableDef& def = table.def();
  out->Enter(mapping_->table_elements[t]);
  for (const auto& [col, link] : fk_cols) {
    if (!table.IsNull(row, col)) out->Reference(link);
  }
  for (size_t c = 0; c < def.columns.size(); ++c) {
    if (table.IsNull(row, c)) continue;
    out->Leaf(mapping_->column_elements[t][c]);
  }
  out->Leave(mapping_->table_elements[t]);
}

Status RelationalInstanceStream::Emit(EventWriter* out) const {
  const SchemaGraph& graph = mapping_->graph;
  out->Enter(graph.root());
  for (size_t t = 0; t < database_->num_tables(); ++t) {
    const auto fk_cols = FkColumns(t);
    for (size_t r = 0; r < database_->table(t).num_rows(); ++r) {
      EmitRow(t, r, fk_cols, out);
    }
  }
  out->Leave(graph.root());
  return Status::OK();
}

uint64_t RelationalInstanceStream::NumUnits() const {
  uint64_t rows = 0;
  for (size_t t = 0; t < database_->num_tables(); ++t) {
    rows += database_->table(t).num_rows();
  }
  return rows;
}

Status RelationalInstanceStream::EmitSkeleton(EventWriter* out) const {
  out->Leaf(mapping_->graph.root());
  return Status::OK();
}

Status RelationalInstanceStream::EmitUnits(uint64_t begin, uint64_t end,
                                           EventWriter* out) const {
  uint64_t base = 0;
  for (size_t t = 0; t < database_->num_tables() && begin < end; ++t) {
    const uint64_t rows = database_->table(t).num_rows();
    const uint64_t table_end = base + rows;
    if (begin < table_end) {
      const auto fk_cols = FkColumns(t);
      const uint64_t stop = std::min(end, table_end);
      for (uint64_t u = begin; u < stop; ++u) {
        EmitRow(t, static_cast<size_t>(u - base), fk_cols, out);
      }
      begin = stop;
    }
    base = table_end;
  }
  return Status::OK();
}

}  // namespace ssum
