// Expression evaluation and type inference over row bindings, with SQL
// three-valued logic at comparisons and AND/OR.

#ifndef EVE_ALGEBRA_EVAL_H_
#define EVE_ALGEBRA_EVAL_H_

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/expr.h"
#include "catalog/catalog.h"
#include "common/result.h"
#include "types/value.h"

namespace eve {

// Named scalar functions callable from FunctionCall expressions (the `f` of
// MISD function-of constraints when it is not expressible as arithmetic).
class FunctionRegistry {
 public:
  using Fn = std::function<Result<Value>(const std::vector<Value>&)>;

  // Registers `fn` under `name`; replaces any existing binding.
  void Register(std::string name, Fn fn);

  Result<Value> Call(const std::string& name,
                     const std::vector<Value>& args) const;

  bool Has(const std::string& name) const { return fns_.count(name) > 0; }

  // Registry with the built-ins used by the travel-agency example:
  //   years_since(date)  -- whole years from `date` to `today`
  //   identity(x)        -- x
  static FunctionRegistry Default();

 private:
  std::map<std::string, Fn> fns_;
};

// Binding of qualified attribute names to values for one joined row.
class RowBinding {
 public:
  void Bind(const AttributeRef& ref, Value value) {
    values_[ref] = std::move(value);
  }
  void Unbind(const AttributeRef& ref) { values_.erase(ref); }

  Result<Value> Lookup(const AttributeRef& ref) const;

 private:
  std::unordered_map<AttributeRef, Value, AttributeRefHash> values_;
};

// Evaluates `expr` under `binding`. Comparisons involving NULL yield NULL;
// AND/OR follow Kleene logic. `registry` may be null if the expression has
// no function calls.
Result<Value> EvalExpr(const Expr& expr, const RowBinding& binding,
                       const FunctionRegistry* registry);

// Static result type of `expr` given catalog attribute types.
// Comparison/logic yield kBool; arithmetic widens int->double; date-date
// subtraction yields int (days); date +/- int yields date.
Result<DataType> InferType(const Expr& expr, const Catalog& catalog);

// True iff `expr` evaluates to boolean TRUE (NULL counts as not-true, per
// SQL WHERE semantics).
Result<bool> EvalPredicate(const Expr& expr, const RowBinding& binding,
                           const FunctionRegistry* registry);

// Scalar kernels shared by the row-at-a-time evaluator above and the
// vectorized evaluator (algebra/executor.cc): one binary / unary
// application with exactly EvalExpr's semantics (3VL comparisons, Kleene
// AND/OR, int-preserving arithmetic, date/string rules).
Result<Value> EvalBinaryValues(BinaryOp op, const Value& lhs,
                               const Value& rhs);
Result<Value> EvalUnaryValue(UnaryOp op, const Value& operand);

}  // namespace eve

#endif  // EVE_ALGEBRA_EVAL_H_
