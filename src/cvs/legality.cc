#include "cvs/legality.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "esql/binder.h"

namespace eve {

namespace {

bool MentionsRelation(const ViewDefinition& view, const std::string& rel) {
  return view.ReferencesRelation(rel);
}

// Applies `substitution` to `expr` (every mapped column replaced).
ExprPtr ApplySubstitution(const ExprPtr& expr,
                          const std::map<AttributeRef, ExprPtr>& substitution) {
  ExprPtr result = expr;
  for (const auto& [from, to] : substitution) {
    result = result->SubstituteColumn(from, to);
  }
  return result;
}

}  // namespace

std::string LegalityReport::ToString() const {
  std::ostringstream os;
  os << "P1=" << (p1_unaffected ? "ok" : "FAIL")
     << " P2=" << (p2_evaluable ? "ok" : "FAIL") << " P3="
     << (p3_extent ? "ok" : "FAIL") << " (extent "
     << ExtentRelationToString(inferred_extent) << ") P4="
     << (p4_parameters ? "ok" : "FAIL");
  for (const std::string& violation : violations) {
    os << "\n  - " << violation;
  }
  return os.str();
}

LegalityReport CheckLegality(
    const ViewDefinition& old_view, const ViewDefinition& new_view,
    const CapabilityChange& change, const Mkb& mkb_prime,
    ExtentRelation inferred_extent,
    const std::map<AttributeRef, ExprPtr>& substitution) {
  LegalityReport report;
  report.inferred_extent = inferred_extent;

  // --- P1: the change no longer affects the view --------------------------
  switch (change.kind) {
    case CapabilityChange::Kind::kDeleteRelation:
      report.p1_unaffected = !MentionsRelation(new_view, change.relation);
      break;
    case CapabilityChange::Kind::kDeleteAttribute:
      report.p1_unaffected = !new_view.ReferencesAttribute(
          AttributeRef{change.relation, change.attribute});
      break;
    default:
      report.p1_unaffected = true;
      break;
  }
  if (!report.p1_unaffected) {
    report.violations.push_back("P1: view still references " +
                                change.ToString());
  }

  // --- P2: evaluable over MKB' ---------------------------------------------
  const Status evaluable = CheckBoundView(new_view, mkb_prime.catalog());
  report.p2_evaluable = evaluable.ok();
  if (!evaluable.ok()) {
    report.violations.push_back("P2: " + evaluable.ToString());
  }

  // --- P3: view-extent parameter ------------------------------------------
  report.p3_extent = SatisfiesViewExtent(inferred_extent, old_view.extent());
  if (!report.p3_extent) {
    report.violations.push_back(
        "P3: required VE " +
        std::string(ViewExtentToString(old_view.extent())) +
        " not established (inferred " +
        std::string(ExtentRelationToString(inferred_extent)) + ")");
  }

  // --- P4: evolution parameters --------------------------------------------
  report.p4_parameters = true;
  auto violate = [&](const std::string& message) {
    report.p4_parameters = false;
    report.violations.push_back("P4: " + message);
  };

  // Attributes: every indispensable SELECT item must survive under its
  // output name; non-replaceable items must survive unchanged.
  for (const ViewSelectItem& item : old_view.select()) {
    const auto found = std::find_if(
        new_view.select().begin(), new_view.select().end(),
        [&](const ViewSelectItem& ni) {
          return ni.output_name == item.output_name;
        });
    if (found == new_view.select().end()) {
      if (!item.params.dispensable) {
        violate("indispensable attribute '" + item.output_name +
                "' missing from the rewriting");
      }
      continue;
    }
    if (!item.params.replaceable && !found->expr->Equals(*item.expr)) {
      violate("non-replaceable attribute '" + item.output_name +
              "' was changed");
    }
    if (item.params.replaceable) {
      const ExprPtr expected = ApplySubstitution(item.expr, substitution);
      if (!found->expr->Equals(*expected)) {
        violate("attribute '" + item.output_name +
                "' differs from its expected substituted form");
      }
    }
  }

  // Conditions: every indispensable condition must survive, either
  // verbatim or in substituted form.
  for (const ViewCondition& cond : old_view.where()) {
    const ExprPtr expected = ApplySubstitution(cond.clause, substitution);
    const bool survives = std::any_of(
        new_view.where().begin(), new_view.where().end(),
        [&](const ViewCondition& nc) {
          return ClausesEquivalent(*nc.clause, *cond.clause) ||
                 ClausesEquivalent(*nc.clause, *expected);
        });
    if (survives) {
      if (!cond.params.replaceable) {
        const bool verbatim = std::any_of(
            new_view.where().begin(), new_view.where().end(),
            [&](const ViewCondition& nc) {
              return ClausesEquivalent(*nc.clause, *cond.clause);
            });
        if (!verbatim) {
          violate("non-replaceable condition '" + cond.clause->ToString() +
                  "' was changed");
        }
      }
      continue;
    }
    if (!cond.params.dispensable) {
      // A consumed join condition against the deleted relation is
      // legitimately superseded by replacement join conditions; treat a
      // clause mentioning the deleted relation that was substituted or
      // re-routed as satisfied when the rewriting is P1-clean.
      std::vector<AttributeRef> cols;
      cond.clause->CollectColumns(&cols);
      const bool touches_deleted = std::any_of(
          cols.begin(), cols.end(), [&](const AttributeRef& ref) {
            return change.kind == CapabilityChange::Kind::kDeleteRelation &&
                   ref.relation == change.relation;
          });
      if (!touches_deleted) {
        violate("indispensable condition '" + cond.clause->ToString() +
                "' missing from the rewriting");
      }
    }
  }

  // Relations: indispensable relations must survive (the deleted relation
  // itself is exempt when it was replaceable — its replacement stands in).
  for (const ViewRelation& rel : old_view.from()) {
    if (new_view.HasFromRelation(rel.name)) continue;
    const bool is_deleted_relation =
        change.kind == CapabilityChange::Kind::kDeleteRelation &&
        rel.name == change.relation;
    if (is_deleted_relation) {
      if (!rel.params.dispensable && !rel.params.replaceable) {
        violate("relation " + rel.name +
                " is indispensable and non-replaceable");
      }
      continue;
    }
    if (!rel.params.dispensable) {
      violate("indispensable relation " + rel.name +
              " missing from the rewriting");
    }
  }

  return report;
}

}  // namespace eve
