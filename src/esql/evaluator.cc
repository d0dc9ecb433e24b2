#include "esql/evaluator.h"

namespace eve {

ConjunctiveQuery ViewQuery(const ViewDefinition& view) {
  ConjunctiveQuery query;
  query.relations = view.FromRelationNames();
  query.conjuncts.reserve(view.where().size());
  for (const ViewCondition& cond : view.where()) {
    query.conjuncts.push_back(cond.clause);
  }
  query.projections.reserve(view.select().size());
  for (const ViewSelectItem& item : view.select()) {
    query.projections.push_back(item.expr);
    query.output_names.push_back(item.output_name);
  }
  query.distinct = true;
  return query;
}

Result<Table> EvaluateView(const ViewDefinition& view, const Database& db,
                           const Catalog& catalog,
                           const FunctionRegistry* registry) {
  return Execute(ViewQuery(view), db, catalog, registry);
}

}  // namespace eve
