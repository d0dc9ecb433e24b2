// Executor for conjunctive SELECT-PROJECT-JOIN queries over the in-memory
// Database — the evaluation substrate for E-SQL views. Execution is
// batch-at-a-time and columnar: intermediate join state is a set of
// per-relation row-id vectors into the base tables (late materialization),
// equi-joins are hashed, predicates run as typed kernels over gathered
// column chunks where possible (falling back to the shared scalar kernels
// in algebra/eval.h), and projections of bare columns borrow the base
// chunks. tests/nested_loop_oracle.h keeps a row-at-a-time nested-loop
// executor as the differential-testing oracle.

#ifndef EVE_ALGEBRA_EXECUTOR_H_
#define EVE_ALGEBRA_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/eval.h"
#include "algebra/expr.h"
#include "catalog/catalog.h"
#include "common/result.h"
#include "storage/database.h"

namespace eve {

// A conjunctive query: FROM `relations` WHERE AND(conjuncts)
// SELECT projections AS output_names. Columns inside expressions are
// qualified by relation name (no aliases at this layer).
struct ConjunctiveQuery {
  std::vector<std::string> relations;
  std::vector<ExprPtr> conjuncts;
  std::vector<ExprPtr> projections;
  std::vector<std::string> output_names;
  // Result uses set semantics (duplicates removed) when true, matching the
  // paper's extent-containment definitions.
  bool distinct = true;
};

// Executes `query` against `db`; output schema types are inferred from
// `catalog`. `registry` resolves function calls (may be null). Evaluation
// stops as soon as a scan, join or filter leaves no rows, so expressions
// are evaluated only over rows that exist (tested against the oracle in
// tests/executor_equivalence_test).
Result<Table> Execute(const ConjunctiveQuery& query, const Database& db,
                      const Catalog& catalog,
                      const FunctionRegistry* registry = nullptr);

}  // namespace eve

#endif  // EVE_ALGEBRA_EXECUTOR_H_
