#include "cvs/explain.h"

#include <algorithm>
#include <sstream>

namespace eve {

std::string RewritingExplanation::ToString() const {
  std::ostringstream os;
  auto section = [&](const char* label,
                     const std::vector<std::string>& items) {
    if (items.empty()) return;
    os << "  " << label << ":";
    for (const std::string& item : items) os << "\n    " << item;
    os << "\n";
  };
  section("replaced attributes", replaced_attributes);
  section("dropped attributes", dropped_attributes);
  section("dropped conditions", dropped_conditions);
  section("added relations", added_relations);
  section("added join conditions", added_conditions);
  if (!extent_note.empty()) os << "  extent: " << extent_note << "\n";
  if (!cost_note.empty()) os << "  cost: " << cost_note << "\n";
  return os.str();
}

RewritingExplanation ExplainRewriting(const ViewDefinition& original,
                                      const SynchronizedView& synced) {
  RewritingExplanation explanation;
  const ViewDefinition& rewritten = synced.view;

  for (const AttributeReplacement& repl : synced.candidate.replacements) {
    explanation.replaced_attributes.push_back(
        repl.original.ToString() + " -> " + repl.replacement->ToString() +
        " via " + repl.constraint_id);
  }

  const std::vector<std::string> new_names = rewritten.InterfaceNames();
  for (const ViewSelectItem& item : original.select()) {
    if (std::find(new_names.begin(), new_names.end(), item.output_name) ==
        new_names.end()) {
      explanation.dropped_attributes.push_back(item.output_name);
    }
  }

  for (const ViewCondition& cond : original.where()) {
    const bool survives = std::any_of(
        rewritten.where().begin(), rewritten.where().end(),
        [&](const ViewCondition& nc) {
          return ClausesEquivalent(*nc.clause, *cond.clause);
        });
    if (survives) continue;
    // A condition whose attributes were substituted is "replaced", not
    // dropped; approximate by checking whether it mentions a replaced
    // attribute.
    bool substituted = false;
    std::vector<AttributeRef> cols;
    cond.clause->CollectColumns(&cols);
    for (const AttributeReplacement& repl : synced.candidate.replacements) {
      if (std::find(cols.begin(), cols.end(), repl.original) != cols.end()) {
        substituted = true;
      }
    }
    // Join conditions against the deleted relation are superseded too.
    const bool touches_deleted = std::any_of(
        cols.begin(), cols.end(), [&](const AttributeRef& ref) {
          return ref.relation == synced.mapping.relation;
        });
    if (!substituted && !touches_deleted) {
      explanation.dropped_conditions.push_back(cond.clause->ToString());
    }
  }

  for (const ViewRelation& rel : rewritten.from()) {
    if (!original.HasFromRelation(rel.name)) {
      explanation.added_relations.push_back(rel.name);
    }
  }
  // Substituted images of the original conditions are not "added".
  std::vector<ExprPtr> substituted_originals;
  for (const ViewCondition& cond : original.where()) {
    ExprPtr image = cond.clause;
    for (const AttributeReplacement& repl : synced.candidate.replacements) {
      image = image->SubstituteColumn(repl.original, repl.replacement);
    }
    substituted_originals.push_back(std::move(image));
  }
  for (const ViewCondition& cond : rewritten.where()) {
    const bool existed = std::any_of(
        original.where().begin(), original.where().end(),
        [&](const ViewCondition& oc) {
          return ClausesEquivalent(*oc.clause, *cond.clause);
        });
    const bool is_image = std::any_of(
        substituted_originals.begin(), substituted_originals.end(),
        [&](const ExprPtr& image) {
          return ClausesEquivalent(*image, *cond.clause);
        });
    if (!existed && !is_image) {
      explanation.added_conditions.push_back(cond.clause->ToString());
    }
  }

  std::ostringstream extent;
  extent << "V' " << ExtentRelationToString(synced.legality.inferred_extent)
         << " V";
  if (synced.is_drop) {
    extent << " (drop-based rewriting)";
  } else if (synced.legality.inferred_extent != ExtentRelation::kUnknown) {
    extent << " (PC-justified)";
  } else {
    extent << " (no PC justification found)";
  }
  explanation.extent_note = extent.str();

  std::ostringstream cost;
  cost << "total " << synced.cost.total;
  if (!synced.is_drop && synced.candidate.cost_lower_bound > 0.0) {
    cost << " (scheduled at lower bound "
         << synced.candidate.cost_lower_bound << ")";
  }
  explanation.cost_note = cost.str();
  return explanation;
}

}  // namespace eve
