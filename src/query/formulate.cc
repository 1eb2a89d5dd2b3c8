#include "query/formulate.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace ssum {

namespace {

/// Nearest ancestor (or self) with a SetOf type — the natural iteration
/// entity for an element; the root when none exists.
ElementId IterationEntity(const SchemaGraph& schema, ElementId e) {
  for (ElementId cur = e; cur != kInvalidElement; cur = schema.parent(cur)) {
    if (schema.type(cur).set_of) return cur;
  }
  return schema.root();
}

/// Absolute slash path with a leading '/', attributes as '@name'.
std::string AbsolutePath(const SchemaGraph& schema, ElementId e) {
  return std::string("/").append(schema.PathOf(e));
}

/// Path of `e` relative to `ancestor` ("." when equal).
std::string RelativePath(const SchemaGraph& schema, ElementId ancestor,
                         ElementId e) {
  if (ancestor == e) return ".";
  std::vector<std::string> parts;
  for (ElementId cur = e; cur != ancestor; cur = schema.parent(cur)) {
    parts.push_back(schema.label(cur));
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!out.empty()) out += '/';
    out += *it;
  }
  return out;
}

}  // namespace

Result<std::string> FormulateXQuerySkeleton(const SchemaGraph& schema,
                                            const QueryIntention& intention) {
  if (intention.elements.empty()) {
    return Status::InvalidArgument("empty intention");
  }
  for (ElementId e : intention.elements) {
    if (e >= schema.size()) {
      return Status::InvalidArgument("intention element out of range");
    }
  }
  // Group intention elements under iteration entities, outermost first.
  std::map<ElementId, std::vector<ElementId>> groups;
  for (ElementId e : intention.elements) {
    groups[IterationEntity(schema, e)].push_back(e);
  }
  std::vector<ElementId> entities;
  for (const auto& [entity, members] : groups) entities.push_back(entity);
  std::stable_sort(entities.begin(), entities.end(),
                   [&](ElementId a, ElementId b) {
                     return schema.depth(a) < schema.depth(b);
                   });
  std::map<ElementId, std::string> var_of;
  const char* names = "abcdefghij";
  std::ostringstream os;
  size_t vi = 0;
  for (ElementId entity : entities) {
    std::string var = std::string("$").append(1, names[vi % 10]);
    if (vi >= 10) var += std::to_string(vi / 10);
    ++vi;
    var_of[entity] = var;
    // Nest under an enclosing entity variable when one exists.
    ElementId outer = entity == schema.root()
                          ? kInvalidElement
                          : IterationEntity(schema, schema.parent(entity));
    auto it = outer == kInvalidElement ? var_of.end() : var_of.find(outer);
    if (it != var_of.end() && outer != schema.root()) {
      os << "for " << var << " in " << it->second << "/"
         << RelativePath(schema, outer, entity) << "\n";
    } else {
      os << "for " << var << " in " << AbsolutePath(schema, entity) << "\n";
    }
  }
  os << "where (: predicates over:";
  for (ElementId entity : entities) {
    for (ElementId e : groups[entity]) {
      os << " " << var_of[entity] << "/"
         << RelativePath(schema, entity, e);
    }
  }
  os << " :)\nreturn\n  <result>{";
  bool first = true;
  for (ElementId entity : entities) {
    for (ElementId e : groups[entity]) {
      os << (first ? " " : ", ") << var_of[entity] << "/"
         << RelativePath(schema, entity, e);
      first = false;
    }
  }
  os << " }</result>";
  return os.str();
}

Result<std::string> FormulateSqlSkeleton(const SchemaGraph& schema,
                                         const QueryIntention& intention) {
  if (intention.elements.empty()) {
    return Status::InvalidArgument("empty intention");
  }
  // Relations referenced by the intention (directly or via a column).
  std::set<ElementId> relations;
  std::vector<ElementId> columns;
  for (ElementId e : intention.elements) {
    if (e >= schema.size()) {
      return Status::InvalidArgument("intention element out of range");
    }
    if (e == schema.root()) continue;
    ElementId rel = e;
    while (schema.parent(rel) != schema.root()) {
      rel = schema.parent(rel);
      if (rel == kInvalidElement) {
        return Status::InvalidArgument("element outside any relation");
      }
    }
    relations.insert(rel);
    if (e != rel) columns.push_back(e);
  }
  if (relations.empty()) {
    return Status::InvalidArgument("intention references no relation");
  }
  std::ostringstream os;
  os << "SELECT ";
  if (columns.empty()) {
    os << "*";
  } else {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (i) os << ", ";
      ElementId rel = schema.parent(columns[i]);
      os << schema.label(rel) << "." << schema.label(columns[i]);
    }
  }
  os << "\nFROM ";
  bool first = true;
  for (ElementId rel : relations) {
    if (!first) os << ", ";
    os << schema.label(rel);
    first = false;
  }
  // Join predicates: foreign keys connecting two chosen relations.
  std::vector<std::string> joins;
  for (const ValueLink& v : schema.value_links()) {
    if (relations.count(v.referrer) && relations.count(v.referee) &&
        v.referrer_field != kInvalidElement &&
        v.referee_field != kInvalidElement) {
      joins.push_back(schema.label(v.referrer) + "." +
                      schema.label(v.referrer_field) + " = " +
                      schema.label(v.referee) + "." +
                      schema.label(v.referee_field));
    }
  }
  os << "\nWHERE ";
  if (joins.empty()) {
    os << "/* predicates */";
  } else {
    for (size_t i = 0; i < joins.size(); ++i) {
      if (i) os << "\n  AND ";
      os << joins[i];
    }
    os << "\n  /* AND predicates */";
  }
  return os.str();
}

}  // namespace ssum
