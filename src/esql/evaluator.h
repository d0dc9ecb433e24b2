// Evaluates bound views over the federated Database — the bridge between
// esql (view definitions) and algebra (execution). Used by legality checks
// to compare old/new view extents empirically.

#ifndef EVE_ESQL_EVALUATOR_H_
#define EVE_ESQL_EVALUATOR_H_

#include "algebra/eval.h"
#include "algebra/executor.h"
#include "catalog/catalog.h"
#include "common/result.h"
#include "esql/view_definition.h"
#include "storage/database.h"

namespace eve {

// The set-semantics conjunctive query of `view`: its FROM relations, WHERE
// clauses and SELECT items.
ConjunctiveQuery ViewQuery(const ViewDefinition& view);

// Materializes `view` over `db`: Execute(ViewQuery(view), ...).
Result<Table> EvaluateView(const ViewDefinition& view, const Database& db,
                           const Catalog& catalog,
                           const FunctionRegistry* registry = nullptr);

}  // namespace eve

#endif  // EVE_ESQL_EVALUATOR_H_
