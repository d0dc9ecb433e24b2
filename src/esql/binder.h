// Binder: resolves a ParsedView against the catalog into a ViewDefinition —
// alias resolution, attribute qualification, type checking, and validation
// of the paper's well-formedness assumptions (Sec. 4).

#ifndef EVE_ESQL_BINDER_H_
#define EVE_ESQL_BINDER_H_

#include <string_view>

#include "catalog/catalog.h"
#include "common/result.h"
#include "esql/view_definition.h"
#include "sql/ast.h"

namespace eve {

// Binds `parsed` against `catalog`: checks that the explicit column-name
// list (if given) matches the SELECT arity and that no FROM alias repeats,
// resolves the aliases, then runs CheckBoundView.
Result<ViewDefinition> BindView(const ParsedView& parsed,
                                const Catalog& catalog);

// BindView's checks of a view whose qualifiers are FROM relation names (an
// unqualified column must name an attribute of exactly one of them), run on
// the view as it is:
//  * SELECT and FROM are not empty,
//  * every FROM relation exists; no relation appears twice (paper Sec. 4),
//  * every column's qualifier is in FROM and its attribute in `catalog`,
//  * SELECT items type-check to a non-NULL type, with distinct output names,
//  * WHERE clauses type-check to boolean.
// Returns the first failure in BindView's order and words, so on a bound
// view it answers as BindView(view.ToParsedView(), catalog) does, without
// rebuilding the view. This is Def. 1's P2 (cvs/legality.h).
Status CheckBoundView(const ViewDefinition& view, const Catalog& catalog);

// Convenience: parse + bind.
Result<ViewDefinition> ParseAndBindView(std::string_view text,
                                        const Catalog& catalog);

// Structurally converts `parsed` to a ViewDefinition WITHOUT consulting a
// catalog: aliases are resolved from the FROM list alone, qualified columns
// are taken at face value, and no existence or type checks run. Used to
// restore disabled views from persistence — their definitions may reference
// capabilities the federation no longer has, yet the pool must reload
// exactly. Unqualified columns (impossible in SaveViews output, which is
// fully qualified) are rejected.
Result<ViewDefinition> BindViewUnchecked(const ParsedView& parsed);

// Checks the paper's *strict* assumption that every distinguished attribute
// (one used in an indispensable WHERE clause) appears in the SELECT list.
// The paper's own running example violates it, so this is advisory and not
// part of BindView.
Status CheckDistinguishedAttributesPreserved(const ViewDefinition& view);

// True when the view is in the fragment CVS synchronizes: every WHERE
// clause is a primitive comparison (no OR / NOT / nested logic).
bool IsConjunctiveView(const ViewDefinition& view);

}  // namespace eve

#endif  // EVE_ESQL_BINDER_H_
