#include "eve/materialization.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "algebra/executor.h"
#include "esql/evaluator.h"

namespace eve {

namespace {

// True iff both views project the same expressions under the same output
// names, pairwise in order. The delta rules need this so a stored tuple
// and a recomputed tuple for the same base row are byte-identical.
bool SelectListsIdentical(const ViewDefinition& a, const ViewDefinition& b) {
  if (a.select().size() != b.select().size()) return false;
  for (size_t i = 0; i < a.select().size(); ++i) {
    if (a.select()[i].output_name != b.select()[i].output_name) return false;
    if (!a.select()[i].expr->Equals(*b.select()[i].expr)) return false;
  }
  return true;
}

bool SameRelationSet(const ViewDefinition& a, const ViewDefinition& b) {
  std::vector<std::string> ra = a.FromRelationNames();
  std::vector<std::string> rb = b.FromRelationNames();
  std::sort(ra.begin(), ra.end());
  std::sort(rb.begin(), rb.end());
  return ra == rb;
}

bool ContainsClause(const std::vector<ViewCondition>& haystack,
                    const Expr& clause) {
  for (const ViewCondition& c : haystack) {
    if (c.clause->Equals(clause)) return true;
  }
  return false;
}

// Clauses of `of` that have no structural twin in `in`.
std::vector<ExprPtr> ClauseDifference(const std::vector<ViewCondition>& of,
                                      const std::vector<ViewCondition>& in) {
  std::vector<ExprPtr> out;
  for (const ViewCondition& c : of) {
    if (!ContainsClause(in, *c.clause)) out.push_back(c.clause);
  }
  return out;
}

// True iff every clause of `sub` appears in `super`.
bool ClausesSubset(const std::vector<ViewCondition>& sub,
                   const std::vector<ViewCondition>& super) {
  for (const ViewCondition& c : sub) {
    if (!ContainsClause(super, *c.clause)) return false;
  }
  return true;
}

ConjunctiveQuery QueryShell(const ViewDefinition& view) {
  ConjunctiveQuery q;
  q.relations = view.FromRelationNames();
  for (const ViewSelectItem& item : view.select()) {
    q.projections.push_back(item.expr);
    q.output_names.push_back(item.output_name);
  }
  q.distinct = true;
  return q;
}

}  // namespace

Status ApplyChangeToDatabase(const CapabilityChange& change, Database* db) {
  switch (change.kind) {
    case CapabilityChange::Kind::kAddRelation: {
      if (db->HasTable(change.new_relation.name)) {
        return Status::AlreadyExists("table already exists: " +
                                     change.new_relation.name);
      }
      // Create directly from the new definition (the catalog may not have
      // been evolved yet when this is called).
      Catalog scratch;
      EVE_RETURN_IF_ERROR(scratch.AddRelation(change.new_relation));
      return db->CreateTable(scratch, change.new_relation.name);
    }
    case CapabilityChange::Kind::kDeleteRelation:
      return db->DropTable(change.relation);
    case CapabilityChange::Kind::kRenameRelation:
      return db->RenameTable(change.relation, change.new_name);
    case CapabilityChange::Kind::kAddAttribute: {
      EVE_ASSIGN_OR_RETURN(Table * table, db->GetTable(change.relation));
      return table->AddColumn(change.new_attribute);
    }
    case CapabilityChange::Kind::kDeleteAttribute: {
      EVE_ASSIGN_OR_RETURN(Table * table, db->GetTable(change.relation));
      return table->DropColumn(change.attribute);
    }
    case CapabilityChange::Kind::kRenameAttribute: {
      EVE_ASSIGN_OR_RETURN(Table * table, db->GetTable(change.relation));
      return table->RenameColumn(change.attribute, change.new_name);
    }
  }
  return Status::Internal("unexpected capability change kind");
}

const char* RefreshPathToString(RefreshPath path) {
  switch (path) {
    case RefreshPath::kFull:
      return "full";
    case RefreshPath::kReuseEqual:
      return "reuse_equal";
    case RefreshPath::kDeltaSuperset:
      return "delta_superset";
    case RefreshPath::kDeltaSubset:
      return "delta_subset";
  }
  return "unknown";
}

void MaterializedViewStore::Record(const std::string& view_name,
                                   RefreshPath path) {
  RefreshStats& s = stats_[view_name];
  switch (path) {
    case RefreshPath::kFull:
      ++s.full;
      break;
    case RefreshPath::kReuseEqual:
      ++s.reuse_equal;
      break;
    case RefreshPath::kDeltaSuperset:
      ++s.delta_superset;
      break;
    case RefreshPath::kDeltaSubset:
      ++s.delta_subset;
      break;
  }
  s.last_path = path;
}

RefreshStats MaterializedViewStore::StatsFor(
    const std::string& view_name) const {
  auto it = stats_.find(view_name);
  return it == stats_.end() ? RefreshStats{} : it->second;
}

RefreshStats MaterializedViewStore::AggregateStats() const {
  RefreshStats agg;
  for (const auto& [name, s] : stats_) {
    agg.full += s.full;
    agg.reuse_equal += s.reuse_equal;
    agg.delta_superset += s.delta_superset;
    agg.delta_subset += s.delta_subset;
  }
  return agg;
}

Status MaterializedViewStore::Refresh(const ViewDefinition& view,
                                      const Database& db,
                                      const Catalog& catalog) {
  EVE_ASSIGN_OR_RETURN(
      Table extent, EvaluateView(view, db, catalog, registry_));
  extents_.insert_or_assign(view.name(), std::move(extent));
  Record(view.name(), RefreshPath::kFull);
  return Status::OK();
}

Result<bool> MaterializedViewStore::TryReuseEqual(
    const ViewDefinition& old_view, const ViewDefinition& new_view) {
  // The Equal verdict certifies set-equality of the extents projected on
  // the common interface; requiring the interface name SETS to match makes
  // that full-extent equality, even when select expressions were replaced
  // by function-of rewritings.
  std::vector<std::string> old_names = old_view.InterfaceNames();
  std::vector<std::string> new_names = new_view.InterfaceNames();
  {
    std::vector<std::string> a = old_names, b = new_names;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b) return false;
  }
  const Table& old_extent = extents_.at(old_view.name());
  if (old_names == new_names) {
    Table copy = old_extent;  // shares column chunks; O(#columns)
    extents_.insert_or_assign(new_view.name(), std::move(copy));
    return true;
  }
  // Same name set, different order: permute column handles (still zero
  // row-level work).
  std::vector<AttributeDef> attrs;
  std::vector<std::shared_ptr<const ColumnChunk>> cols;
  attrs.reserve(new_names.size());
  cols.reserve(new_names.size());
  for (const std::string& name : new_names) {
    auto idx = old_extent.schema().IndexOf(name);
    if (!idx.has_value()) return false;  // unreachable given the set check
    attrs.push_back(old_extent.schema().attribute(*idx));
    cols.push_back(old_extent.column_handle(*idx));
  }
  EVE_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
  Table permuted = Table::FromColumns(std::move(schema), std::move(cols),
                                      old_extent.NumRows());
  extents_.insert_or_assign(new_view.name(), std::move(permuted));
  return true;
}

Result<bool> MaterializedViewStore::TryDeltaSubset(
    const ViewDefinition& old_view, const ViewDefinition& new_view) {
  // Rule: the rewriting only ADDED conditions, so the new extent is a
  // filter of the stored one — evaluated entirely over the extent, never
  // touching base tables. Applicable when every attribute the added
  // conditions mention was exposed by the old view as a bare column, so
  // the predicate can be remapped onto extent columns.
  if (!SameRelationSet(old_view, new_view)) return false;
  if (!SelectListsIdentical(old_view, new_view)) return false;
  if (!ClausesSubset(old_view.where(), new_view.where())) return false;
  std::vector<ExprPtr> added = ClauseDifference(new_view.where(),
                                                old_view.where());
  if (added.empty()) return false;

  // Base attribute -> extent output name, from bare-column select items.
  std::map<AttributeRef, std::string> exposed;
  for (const ViewSelectItem& item : old_view.select()) {
    if (item.expr->kind() == ExprKind::kColumn) {
      exposed.emplace(item.expr->column(), item.output_name);
    }
  }
  for (const ExprPtr& clause : added) {
    std::vector<AttributeRef> refs;
    clause->CollectColumns(&refs);
    for (const AttributeRef& ref : refs) {
      if (exposed.find(ref) == exposed.end()) return false;
    }
  }

  const Table& old_extent = extents_.at(old_view.name());

  // Stage the extent as a temporary one-relation database.
  static constexpr char kExtentRel[] = "__extent";
  Catalog temp_catalog;
  EVE_RETURN_IF_ERROR(temp_catalog.AddRelation(
      RelationDef{"__mat", kExtentRel, old_extent.schema(), {}}));
  Database temp_db;
  EVE_RETURN_IF_ERROR(temp_db.CreateTable(temp_catalog, kExtentRel));
  EVE_ASSIGN_OR_RETURN(Table * staged, temp_db.GetTable(kExtentRel));
  *staged = old_extent;  // CoW: shares column chunks

  ConjunctiveQuery q;
  q.relations = {kExtentRel};
  for (const ExprPtr& clause : added) {
    q.conjuncts.push_back(clause->TransformColumns(
        [&](const AttributeRef& ref) {
          return AttributeRef{kExtentRel, exposed.at(ref)};
        }));
  }
  for (const ViewSelectItem& item : new_view.select()) {
    q.projections.push_back(
        Expr::Column(AttributeRef{kExtentRel, item.output_name}));
    q.output_names.push_back(item.output_name);
  }
  q.distinct = true;

  EVE_ASSIGN_OR_RETURN(Table filtered,
                       Execute(q, temp_db, temp_catalog, registry_));
  extents_.insert_or_assign(new_view.name(), std::move(filtered));
  return true;
}

Result<bool> MaterializedViewStore::TryDeltaSuperset(
    const ViewDefinition& old_view, const ViewDefinition& new_view,
    const Database& db, const Catalog& catalog) {
  // Rule: the rewriting only DROPPED conditions d1..dk, so
  //   new_extent = old_extent ∪ Δ1 ∪ ... ∪ Δk
  // where Δi selects the rows whose FIRST non-true dropped condition is
  // di:   Cnew ∧ d1 ∧ ... ∧ d(i-1) ∧ __not_true(di).
  // Partitioning by the first non-true index (rather than ¬di) keeps the
  // rule sound under three-valued logic: a row where di is NULL belongs
  // to the new extent but satisfies neither di nor NOT di as a WHERE
  // filter; __not_true maps both FALSE and NULL to TRUE.
  if (!SameRelationSet(old_view, new_view)) return false;
  if (!SelectListsIdentical(old_view, new_view)) return false;
  if (!ClausesSubset(new_view.where(), old_view.where())) return false;
  std::vector<ExprPtr> dropped = ClauseDifference(old_view.where(),
                                                  new_view.where());
  if (dropped.empty()) return false;

  FunctionRegistry local =
      registry_ ? *registry_ : FunctionRegistry();
  local.Register("__not_true",
                 [](const std::vector<Value>& args) -> Result<Value> {
                   if (args.size() != 1) {
                     return Status::InvalidArgument(
                         "__not_true takes one argument");
                   }
                   if (args[0].is_null()) return Value::Bool(true);
                   if (args[0].type() != DataType::kBool) {
                     return Status::InvalidArgument(
                         "__not_true requires a boolean");
                   }
                   return Value::Bool(!args[0].bool_value());
                 });

  Table result = extents_.at(old_view.name());
  if (!result.IsDedupSorted()) result.Deduplicate();

  for (size_t i = 0; i < dropped.size(); ++i) {
    ConjunctiveQuery q = QueryShell(new_view);
    for (const ViewCondition& c : new_view.where()) {
      q.conjuncts.push_back(c.clause);
    }
    for (size_t j = 0; j < i; ++j) q.conjuncts.push_back(dropped[j]);
    q.conjuncts.push_back(Expr::Func("__not_true", {dropped[i]}));
    EVE_ASSIGN_OR_RETURN(Table delta, Execute(q, db, catalog, &local));
    if (delta.NumRows() == 0) continue;
    if (!delta.IsDedupSorted()) delta.Deduplicate();
    result = Table::SortedUnion(result, delta);
  }
  extents_.insert_or_assign(new_view.name(), std::move(result));
  return true;
}

Status MaterializedViewStore::IncrementalRefresh(
    const ViewDefinition& old_view, const ViewDefinition& new_view,
    ExtentRelation verdict, const Database& db, const Catalog& catalog) {
  const bool renamed = old_view.name() != new_view.name();
  if (extents_.count(old_view.name()) > 0) {
    Result<bool> applied = false;
    RefreshPath path = RefreshPath::kFull;
    switch (verdict) {
      case ExtentRelation::kEqual:
        applied = TryReuseEqual(old_view, new_view);
        path = RefreshPath::kReuseEqual;
        break;
      case ExtentRelation::kSubset:
        applied = TryDeltaSubset(old_view, new_view);
        path = RefreshPath::kDeltaSubset;
        break;
      case ExtentRelation::kSuperset:
        applied = TryDeltaSuperset(old_view, new_view, db, catalog);
        path = RefreshPath::kDeltaSuperset;
        break;
      case ExtentRelation::kUnknown:
        break;
    }
    EVE_RETURN_IF_ERROR(applied.status());
    if (applied.value()) {
      if (renamed) extents_.erase(old_view.name());
      Record(new_view.name(), path);
      return Status::OK();
    }
  }
  EVE_RETURN_IF_ERROR(Refresh(new_view, db, catalog));  // records kFull
  if (renamed) extents_.erase(old_view.name());
  return Status::OK();
}

Result<const Table*> MaterializedViewStore::Extent(
    const std::string& view_name) const {
  auto it = extents_.find(view_name);
  if (it == extents_.end()) {
    return Status::NotFound("view not materialized: " + view_name);
  }
  return &it->second;
}

}  // namespace eve
