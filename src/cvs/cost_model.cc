#include "cvs/cost_model.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <sstream>

namespace eve {

std::string RewritingCost::ToString() const {
  std::ostringstream os;
  os << "cost " << total << " (dropped attrs: " << dropped_attributes
     << ", dropped conds: " << dropped_conditions
     << ", extra relations: " << extra_relations << ", extent "
     << ExtentRelationToString(extent) << ")";
  return os.str();
}

double ExtentPenalty(const RewritingCostModel& model, ExtentRelation extent) {
  switch (extent) {
    case ExtentRelation::kEqual:
      return 0.0;
    case ExtentRelation::kSuperset:
      return model.extent_directional_penalty;
    case ExtentRelation::kSubset:
      return model.extent_subset_penalty >= 0.0
                 ? model.extent_subset_penalty
                 : model.extent_directional_penalty;
    case ExtentRelation::kUnknown:
      return model.extent_unknown_penalty;
  }
  return model.extent_unknown_penalty;
}

bool ExtentPenaltiesMonotone(const RewritingCostModel& model) {
  const double sup = ExtentPenalty(model, ExtentRelation::kSuperset);
  const double sub = ExtentPenalty(model, ExtentRelation::kSubset);
  const double unk = ExtentPenalty(model, ExtentRelation::kUnknown);
  return sup >= 0.0 && sub >= 0.0 && unk >= sup && unk >= sub;
}

RewritingCostModel DefaultRankingCostModel() {
  RewritingCostModel model;
  // Strictly separated bands: extent ≫ dropped attributes ≫ join width.
  model.dropped_attribute_penalty = 1000.0;
  model.dropped_condition_penalty = 0.0;
  model.extra_relation_penalty = 0.0;
  model.join_width_penalty = 1.0;
  model.extent_directional_penalty = 1e6;  // ⊇
  model.extent_subset_penalty = 2e6;       // ⊆ ranks below ⊇
  model.extent_unknown_penalty = 3e6;
  return model;
}

double LowerBound(const PartialCandidate& partial,
                  const RewritingCostModel& model) {
  double bound =
      model.dropped_attribute_penalty *
          static_cast<double>(partial.dropped_attributes) +
      model.join_width_penalty * static_cast<double>(partial.join_width);
  if (partial.join_width > partial.original_from_size) {
    bound += model.extra_relation_penalty *
             static_cast<double>(partial.join_width -
                                 partial.original_from_size);
  }
  if (ExtentPenaltiesMonotone(model)) {
    bound += ExtentPenalty(model, partial.extent_floor);
  }
  return bound;
}

RewritingCost ScoreRewriting(const ViewDefinition& original,
                             const ViewDefinition& rewriting,
                             ExtentRelation extent,
                             const RewritingCostModel& model) {
  RewritingCost cost;
  cost.extent = extent;

  // Dropped interface attributes (by output name).
  const std::vector<std::string> new_names = rewriting.InterfaceNames();
  for (const ViewSelectItem& item : original.select()) {
    if (std::find(new_names.begin(), new_names.end(), item.output_name) ==
        new_names.end()) {
      ++cost.dropped_attributes;
    }
  }

  // Dropped conditions: an original clause with no counterpart. A clause
  // that referenced a relation no longer in the rewriting counts as
  // substituted (its join role was re-routed), not dropped, when the
  // rewriting added replacement join conditions; we approximate by
  // counting clauses over surviving relations only.
  for (const ViewCondition& cond : original.where()) {
    const std::vector<std::string> rels =
        cond.clause->ReferencedRelations();
    const bool over_survivors = std::all_of(
        rels.begin(), rels.end(), [&](const std::string& rel) {
          return rewriting.HasFromRelation(rel);
        });
    if (!over_survivors) continue;
    const bool survives = std::any_of(
        rewriting.where().begin(), rewriting.where().end(),
        [&](const ViewCondition& nc) {
          return ClausesEquivalent(*nc.clause, *cond.clause);
        });
    if (!survives) ++cost.dropped_conditions;
  }

  if (rewriting.from().size() > original.from().size()) {
    cost.extra_relations = rewriting.from().size() - original.from().size();
  }
  cost.join_width = rewriting.from().size();

  cost.total =
      model.dropped_attribute_penalty *
          static_cast<double>(cost.dropped_attributes) +
      model.dropped_condition_penalty *
          static_cast<double>(cost.dropped_conditions) +
      model.extra_relation_penalty *
          static_cast<double>(cost.extra_relations) +
      model.join_width_penalty * static_cast<double>(cost.join_width) +
      ExtentPenalty(model, extent);
  return cost;
}

bool TopKBound::Excludes(double lower_bound) const {
  if (k_ == 0) return false;
  // Rewritings that rank ahead of every candidate with total >= lower_bound.
  size_t ahead = static_cast<size_t>(std::distance(
      candidates_.begin(), candidates_.upper_bound(lower_bound)));
  if (drop_.has_value() && *drop_ < lower_bound) ++ahead;
  return ahead >= k_;
}

double TopKBound::KthBest() const {
  std::multiset<double> totals = candidates_;
  if (drop_.has_value()) totals.insert(*drop_);
  if (k_ == 0 || totals.size() < k_) {
    return std::numeric_limits<double>::infinity();
  }
  return *std::next(totals.begin(), static_cast<std::ptrdiff_t>(k_ - 1));
}

}  // namespace eve
