#include "esql/binder.h"

#include <algorithm>
#include <map>
#include <optional>

#include "algebra/eval.h"
#include "sql/parser.h"

namespace eve {

namespace {

// Default output name for a SELECT expression with no alias.
std::string DeriveOutputName(const ExprPtr& expr, size_t index) {
  if (expr->kind() == ExprKind::kColumn) return expr->column().attribute;
  return "col" + std::to_string(index + 1);
}

// `expr` with each column that `fn` maps (fn returns the new column, or
// nullopt to keep it) replaced, sharing the subtrees it keeps; null when
// `fn` keeps every column.
template <typename Fn>
ExprPtr MapColumns(const Expr& expr, const Fn& fn) {
  if (expr.kind() == ExprKind::kColumn) {
    std::optional<AttributeRef> mapped = fn(expr.column());
    return mapped.has_value() ? Expr::Column(*std::move(mapped)) : nullptr;
  }
  std::vector<ExprPtr> children;  // filled from the first mapped child on
  for (size_t i = 0; i < expr.children().size(); ++i) {
    ExprPtr mapped = MapColumns(*expr.child(i), fn);
    if (mapped == nullptr && children.empty()) continue;
    if (children.empty()) {
      children.assign(expr.children().begin(), expr.children().begin() + i);
    }
    children.push_back(mapped != nullptr ? std::move(mapped) : expr.child(i));
  }
  if (children.empty()) return nullptr;
  switch (expr.kind()) {
    case ExprKind::kUnary:
      return Expr::Unary(expr.unary_op(), std::move(children[0]));
    case ExprKind::kBinary:
      return Expr::Binary(expr.binary_op(), std::move(children[0]),
                          std::move(children[1]));
    default:
      return Expr::Func(expr.function_name(), std::move(children));
  }
}

// `parsed` with its aliases resolved: a qualifier naming a FROM alias or
// relation becomes that relation's name, any other qualifier is kept as it
// is, and each SELECT item is named by the column list, its alias or its
// expression. `*repeated_alias` receives the first FROM item whose alias
// an earlier item already took (parsed.from.size() when none did).
ViewDefinition ResolveAliases(const ParsedView& parsed,
                              size_t* repeated_alias) {
  std::map<std::string, std::string> relation_of;
  std::vector<ViewRelation> from;
  from.reserve(parsed.from.size());
  *repeated_alias = parsed.from.size();
  for (size_t k = 0; k < parsed.from.size(); ++k) {
    const ParsedFromItem& item = parsed.from[k];
    const std::string& alias = item.alias.empty() ? item.relation : item.alias;
    if (!relation_of.emplace(alias, item.relation).second &&
        *repeated_alias == parsed.from.size()) {
      *repeated_alias = k;
    }
    // The canonical name is always usable as a qualifier too.
    relation_of.emplace(item.relation, item.relation);
    from.push_back(ViewRelation{item.relation, item.params});
  }
  const auto canonical = [&](const ExprPtr& expr) {
    ExprPtr mapped = MapColumns(
        *expr, [&](const AttributeRef& ref) -> std::optional<AttributeRef> {
          const auto it = relation_of.find(ref.relation);
          if (it == relation_of.end() || it->second == ref.relation) {
            return std::nullopt;
          }
          return AttributeRef{it->second, ref.attribute};
        });
    return mapped != nullptr ? mapped : expr;
  };
  std::vector<ViewSelectItem> select;
  select.reserve(parsed.select.size());
  for (size_t i = 0; i < parsed.select.size(); ++i) {
    const ParsedSelectItem& item = parsed.select[i];
    ExprPtr expr = canonical(item.expr);
    std::string output_name = !parsed.column_names.empty()
                                  ? parsed.column_names[i]
                                  : (!item.alias.empty()
                                         ? item.alias
                                         : DeriveOutputName(expr, i));
    select.push_back(
        ViewSelectItem{std::move(expr), std::move(output_name), item.params});
  }
  std::vector<ViewCondition> where;
  where.reserve(parsed.where.size());
  for (const ParsedCondition& cond : parsed.where) {
    where.push_back(ViewCondition{canonical(cond.clause), cond.params});
  }
  return ViewDefinition(parsed.name, parsed.extent, std::move(select),
                        std::move(from), std::move(where));
}

// SELECT and FROM each hold an item.
Status CheckNotEmpty(size_t select_items, size_t from_items) {
  if (select_items == 0) {
    return Status::InvalidArgument("view has an empty SELECT list");
  }
  if (from_items == 0) {
    return Status::InvalidArgument("view has an empty FROM list");
  }
  return Status::OK();
}

// FROM item `k` names a relation of `catalog` that no earlier item names.
Status CheckFromItem(const std::vector<ViewRelation>& from, size_t k,
                     const Catalog& catalog) {
  const std::string& relation = from[k].name;
  if (!catalog.HasRelation(relation)) {
    return Status::NotFound("unknown relation in FROM: " + relation);
  }
  if (std::any_of(from.begin(), from.begin() + k,
                  [&](const ViewRelation& earlier) {
                    return earlier.name == relation;
                  })) {
    return Status::InvalidArgument(
        "relation appears more than once in FROM: " + relation +
        " (the paper assumes each relation occurs at most once)");
  }
  return Status::OK();
}

// The FROM relation holding `attribute`, for an unqualified column:
// exactly one must.
Result<std::string> ResolveUnqualified(const std::string& attribute,
                                       const std::vector<ViewRelation>& from,
                                       const Catalog& catalog) {
  const std::string* found = nullptr;
  for (const ViewRelation& rel : from) {
    if (!catalog.HasAttribute(AttributeRef{rel.name, attribute})) continue;
    if (found != nullptr) {
      return Status::InvalidArgument("ambiguous attribute '" + attribute +
                                     "': found in " + *found + " and " +
                                     rel.name);
    }
    found = &rel.name;
  }
  if (found == nullptr) {
    return Status::NotFound("attribute '" + attribute +
                            "' not found in any FROM relation");
  }
  return *found;
}

// `expr` with each unqualified column qualified by its FROM relation;
// null when it has none that resolves.
ExprPtr QualifyColumns(const Expr& expr, const std::vector<ViewRelation>& from,
                       const Catalog& catalog) {
  return MapColumns(
      expr, [&](const AttributeRef& ref) -> std::optional<AttributeRef> {
        if (!ref.relation.empty()) return std::nullopt;
        Result<std::string> relation =
            ResolveUnqualified(ref.attribute, from, catalog);
        if (!relation.ok()) return std::nullopt;
        return AttributeRef{relation.MoveValue(), ref.attribute};
      });
}

// Checks the columns of `expr` depth first, left to right: a qualifier
// names a FROM relation whose schema holds the attribute.
Status CheckColumns(const Expr& expr, const std::vector<ViewRelation>& from,
                    const Catalog& catalog) {
  if (expr.kind() == ExprKind::kColumn) {
    const AttributeRef& ref = expr.column();
    if (ref.relation.empty()) {
      return ResolveUnqualified(ref.attribute, from, catalog).status();
    }
    if (std::none_of(from.begin(), from.end(), [&](const ViewRelation& rel) {
          return rel.name == ref.relation;
        })) {
      return Status::NotFound("unknown qualifier: " + ref.relation);
    }
    if (!catalog.HasAttribute(ref)) {
      return Status::NotFound("unknown attribute: " + ref.ToString());
    }
    return Status::OK();
  }
  for (const ExprPtr& child : expr.children()) {
    EVE_RETURN_IF_ERROR(CheckColumns(*child, from, catalog));
  }
  return Status::OK();
}

// Checks the columns of `expr`, then types it. `*qualified` receives the
// expression with its unqualified columns qualified, null when it has none.
Result<DataType> CheckExpr(const Expr& expr,
                           const std::vector<ViewRelation>& from,
                           const Catalog& catalog, ExprPtr* qualified) {
  EVE_RETURN_IF_ERROR(CheckColumns(expr, from, catalog));
  *qualified = QualifyColumns(expr, from, catalog);
  return InferType(*qualified != nullptr ? **qualified : expr, catalog);
}

}  // namespace

Status CheckBoundView(const ViewDefinition& view, const Catalog& catalog) {
  EVE_RETURN_IF_ERROR(CheckNotEmpty(view.select().size(), view.from().size()));
  const std::vector<ViewRelation>& from = view.from();
  for (size_t k = 0; k < from.size(); ++k) {
    EVE_RETURN_IF_ERROR(CheckFromItem(from, k, catalog));
  }
  const std::vector<ViewSelectItem>& select = view.select();
  ExprPtr qualified;
  for (size_t i = 0; i < select.size(); ++i) {
    EVE_ASSIGN_OR_RETURN(const DataType type,
                         CheckExpr(*select[i].expr, from, catalog, &qualified));
    if (type == DataType::kNull) {
      return Status::TypeError("SELECT item " + std::to_string(i + 1) +
                               " has NULL type");
    }
    const std::string& name = select[i].output_name;
    if (std::any_of(select.begin(), select.begin() + i,
                    [&](const ViewSelectItem& earlier) {
                      return earlier.output_name == name;
                    })) {
      return Status::InvalidArgument("duplicate output column name: " + name);
    }
  }
  for (const ViewCondition& cond : view.where()) {
    EVE_ASSIGN_OR_RETURN(const DataType type,
                         CheckExpr(*cond.clause, from, catalog, &qualified));
    if (type != DataType::kBool) {
      return Status::TypeError(
          "WHERE clause is not boolean: " +
          (qualified != nullptr ? *qualified : *cond.clause).ToString());
    }
  }
  return Status::OK();
}

Result<ViewDefinition> BindView(const ParsedView& parsed,
                                const Catalog& catalog) {
  EVE_RETURN_IF_ERROR(CheckNotEmpty(parsed.select.size(), parsed.from.size()));
  if (!parsed.column_names.empty() &&
      parsed.column_names.size() != parsed.select.size()) {
    return Status::InvalidArgument(
        "view column list has " + std::to_string(parsed.column_names.size()) +
        " names but SELECT has " + std::to_string(parsed.select.size()) +
        " items");
  }
  size_t repeated_alias = 0;
  ViewDefinition view = ResolveAliases(parsed, &repeated_alias);
  if (repeated_alias < parsed.from.size()) {
    // The FROM items up to the one repeating an alias are checked first.
    for (size_t k = 0; k <= repeated_alias; ++k) {
      EVE_RETURN_IF_ERROR(CheckFromItem(view.from(), k, catalog));
    }
    const ParsedFromItem& item = parsed.from[repeated_alias];
    return Status::InvalidArgument(
        "duplicate FROM alias: " +
        (item.alias.empty() ? item.relation : item.alias));
  }
  EVE_RETURN_IF_ERROR(CheckBoundView(view, catalog));
  for (ViewSelectItem& item : *view.mutable_select()) {
    if (ExprPtr q = QualifyColumns(*item.expr, view.from(), catalog)) {
      item.expr = std::move(q);
    }
  }
  for (ViewCondition& cond : *view.mutable_where()) {
    if (ExprPtr q = QualifyColumns(*cond.clause, view.from(), catalog)) {
      cond.clause = std::move(q);
    }
  }
  return view;
}

Result<ViewDefinition> ParseAndBindView(std::string_view text,
                                        const Catalog& catalog) {
  EVE_ASSIGN_OR_RETURN(const ParsedView parsed, ParseView(text));
  return BindView(parsed, catalog);
}

namespace {

// Fails on the first unqualified column of `expr`, depth first.
Status RequireQualified(const Expr& expr) {
  if (expr.kind() == ExprKind::kColumn) {
    if (!expr.column().relation.empty()) return Status::OK();
    return Status::InvalidArgument("cannot restore unqualified column '" +
                                   expr.column().attribute +
                                   "' without a catalog");
  }
  for (const ExprPtr& child : expr.children()) {
    EVE_RETURN_IF_ERROR(RequireQualified(*child));
  }
  return Status::OK();
}

}  // namespace

Result<ViewDefinition> BindViewUnchecked(const ParsedView& parsed) {
  EVE_RETURN_IF_ERROR(CheckNotEmpty(parsed.select.size(), parsed.from.size()));
  if (!parsed.column_names.empty() &&
      parsed.column_names.size() != parsed.select.size()) {
    return Status::InvalidArgument("view column list arity mismatch");
  }
  // Unknown qualifiers are kept verbatim: a disabled view may reference
  // relations that are gone from the FROM list after partial rewriting.
  size_t repeated_alias = 0;
  ViewDefinition view = ResolveAliases(parsed, &repeated_alias);
  for (const ViewSelectItem& item : view.select()) {
    EVE_RETURN_IF_ERROR(RequireQualified(*item.expr));
  }
  for (const ViewCondition& cond : view.where()) {
    EVE_RETURN_IF_ERROR(RequireQualified(*cond.clause));
  }
  return view;
}

Status CheckDistinguishedAttributesPreserved(const ViewDefinition& view) {
  std::vector<AttributeRef> preserved;
  for (const ViewSelectItem& item : view.select()) {
    item.expr->CollectColumns(&preserved);
  }
  for (const ViewCondition& cond : view.where()) {
    if (cond.params.dispensable) continue;  // only indispensable conditions
    std::vector<AttributeRef> distinguished;
    cond.clause->CollectColumns(&distinguished);
    for (const AttributeRef& ref : distinguished) {
      if (std::find(preserved.begin(), preserved.end(), ref) ==
          preserved.end()) {
        return Status::FailedPrecondition(
            "distinguished attribute " + ref.ToString() +
            " (used in indispensable condition " + cond.clause->ToString() +
            ") is not among the preserved attributes");
      }
    }
  }
  return Status::OK();
}

bool IsConjunctiveView(const ViewDefinition& view) {
  for (const ViewCondition& cond : view.where()) {
    const Expr& clause = *cond.clause;
    if (clause.kind() != ExprKind::kBinary ||
        !IsComparisonOp(clause.binary_op())) {
      return false;
    }
  }
  return true;
}

}  // namespace eve
