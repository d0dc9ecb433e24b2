// A row-at-a-time nested-loop executor, the differential-testing oracle
// for the columnar Execute() in algebra/executor.cc (used by
// executor_equivalence_test, algebra_executor_test, bench_executor and
// bench_join_strategies). Predicate-pushdown nested loops: each conjunct is
// applied as soon as every relation it references is bound, and each
// projection is evaluated once per output row, with cells read through the
// columnar accessors. No memory overhead beyond the output, O(∏|Ri|) time.

#ifndef EVE_TESTS_NESTED_LOOP_ORACLE_H_
#define EVE_TESTS_NESTED_LOOP_ORACLE_H_

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algebra/eval.h"
#include "algebra/executor.h"
#include "catalog/catalog.h"
#include "storage/database.h"

namespace eve {
namespace oracle {

struct NestedLoopContext {
  const ConjunctiveQuery* query;
  const FunctionRegistry* registry;
  // slots[i] = conjuncts evaluable once relations[0..i] are bound.
  std::vector<std::vector<ExprPtr>> slots;
  std::vector<const Table*> tables;
  std::vector<const Schema*> schemas;
  Table* out;
};

inline Status JoinRecursive(const NestedLoopContext& ctx, size_t depth,
                            RowBinding* binding) {
  if (depth == ctx.query->relations.size()) {
    Tuple tuple;
    tuple.reserve(ctx.query->projections.size());
    for (const ExprPtr& proj : ctx.query->projections) {
      EVE_ASSIGN_OR_RETURN(Value v, EvalExpr(*proj, *binding, ctx.registry));
      tuple.push_back(std::move(v));
    }
    ctx.out->InsertUnchecked(std::move(tuple));
    return Status::OK();
  }
  const std::string& rel = ctx.query->relations[depth];
  const Schema& schema = *ctx.schemas[depth];
  const Table& table = *ctx.tables[depth];
  for (size_t row = 0; row < table.NumRows(); ++row) {
    for (size_t i = 0; i < schema.size(); ++i) {
      binding->Bind(AttributeRef{rel, schema.attribute(i).name},
                    table.column(i).GetValue(row));
    }
    bool pass = true;
    for (const ExprPtr& conjunct : ctx.slots[depth]) {
      EVE_ASSIGN_OR_RETURN(const bool ok,
                           EvalPredicate(*conjunct, *binding, ctx.registry));
      if (!ok) {
        pass = false;
        break;
      }
    }
    if (pass) {
      EVE_RETURN_IF_ERROR(JoinRecursive(ctx, depth + 1, binding));
    }
  }
  // Bindings stay in place; the next row overwrites them. (Attribute names
  // are relation-qualified, so stale entries from this depth cannot be
  // read by shallower predicates.)
  return Status::OK();
}

// Same contract and validation as Execute().
inline Result<Table> ExecuteNestedLoop(
    const ConjunctiveQuery& query, const Database& db, const Catalog& catalog,
    const FunctionRegistry* registry = nullptr) {
  if (query.relations.empty()) {
    return Status::InvalidArgument("query has no relations");
  }
  if (query.projections.size() != query.output_names.size()) {
    return Status::InvalidArgument(
        "projection list and output name list differ in size");
  }
  {
    std::set<std::string> seen;
    for (const std::string& rel : query.relations) {
      if (!seen.insert(rel).second) {
        return Status::InvalidArgument(
            "relation appears more than once in FROM: " + rel);
      }
    }
  }

  std::vector<AttributeDef> out_attrs;
  out_attrs.reserve(query.projections.size());
  for (size_t i = 0; i < query.projections.size(); ++i) {
    EVE_ASSIGN_OR_RETURN(const DataType t,
                         InferType(*query.projections[i], catalog));
    out_attrs.push_back(AttributeDef{query.output_names[i], t});
  }
  EVE_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(std::move(out_attrs)));
  Table out(std::move(out_schema));

  NestedLoopContext ctx;
  ctx.query = &query;
  ctx.registry = registry;
  ctx.out = &out;
  ctx.slots.resize(query.relations.size());
  for (const ExprPtr& conjunct : query.conjuncts) {
    size_t slot = 0;
    for (const std::string& rel : conjunct->ReferencedRelations()) {
      auto it = std::find(query.relations.begin(), query.relations.end(), rel);
      if (it == query.relations.end()) {
        return Status::InvalidArgument(
            "conjunct references relation not in FROM: " + rel + " in " +
            conjunct->ToString());
      }
      slot = std::max(slot,
                      static_cast<size_t>(it - query.relations.begin()));
    }
    ctx.slots[slot].push_back(conjunct);
  }
  for (const std::string& rel : query.relations) {
    EVE_ASSIGN_OR_RETURN(const Table* table, db.GetTable(rel));
    EVE_ASSIGN_OR_RETURN(const RelationDef* def, catalog.GetRelation(rel));
    ctx.tables.push_back(table);
    ctx.schemas.push_back(&def->schema);
  }

  RowBinding binding;
  EVE_RETURN_IF_ERROR(JoinRecursive(ctx, 0, &binding));
  if (query.distinct) out.Deduplicate();
  return out;
}

}  // namespace oracle
}  // namespace eve

#endif  // EVE_TESTS_NESTED_LOOP_ORACLE_H_
