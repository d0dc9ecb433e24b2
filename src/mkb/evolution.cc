#include "mkb/evolution.h"

#include <algorithm>

namespace eve {

namespace {

using ConstraintEdit = Mkb::ConstraintEdit;

bool ExprMentions(const Expr& expr,
                  const std::function<bool(const AttributeRef&)>& match) {
  std::vector<AttributeRef> cols;
  expr.CollectColumns(&cols);
  return std::any_of(cols.begin(), cols.end(), match);
}

// True if `clause` relates the two endpoint relations of a JC (touches
// both sides).
bool ClauseCrosses(const Expr& clause, const std::string& lhs,
                   const std::string& rhs) {
  std::vector<AttributeRef> cols;
  clause.CollectColumns(&cols);
  bool touches_lhs = false;
  bool touches_rhs = false;
  for (const AttributeRef& ref : cols) {
    touches_lhs = touches_lhs || ref.relation == lhs;
    touches_rhs = touches_rhs || ref.relation == rhs;
  }
  return touches_lhs && touches_rhs;
}

bool ListMentions(const std::vector<AttributeRef>& attrs,
                  const AttributeRef& attr) {
  return std::find(attrs.begin(), attrs.end(), attr) != attrs.end();
}

// Renames, in place, every reference to one relation (`from.attribute`
// empty) or one attribute. Each Apply returns whether it renamed
// anything, so an edit reports kRewritten only for a constraint that
// named the renamed element.
struct Rename {
  AttributeRef from;
  std::string to;

  bool renames_relation() const { return from.attribute.empty(); }
  bool Matches(const AttributeRef& ref) const {
    return ref.relation == from.relation &&
           (renames_relation() || ref.attribute == from.attribute);
  }
  // A JC's or PC's endpoint relation.
  bool Apply(std::string* relation) const {
    if (!renames_relation() || *relation != from.relation) return false;
    *relation = to;
    return true;
  }
  bool Apply(AttributeRef* ref) const {
    if (!Matches(*ref)) return false;
    (renames_relation() ? ref->relation : ref->attribute) = to;
    return true;
  }
  bool Apply(std::vector<AttributeRef>* refs) const {
    bool renamed = false;
    for (AttributeRef& ref : *refs) renamed = Apply(&ref) || renamed;
    return renamed;
  }
  bool Apply(ExprPtr* expr) const {
    if (*expr == nullptr ||
        !ExprMentions(**expr, [this](const AttributeRef& ref) {
          return Matches(ref);
        })) {
      return false;
    }
    *expr = (*expr)->TransformColumns([this](AttributeRef ref) {
      Apply(&ref);
      return ref;
    });
    return true;
  }
};

ConstraintEdit RewrittenIf(bool renamed) {
  return renamed ? ConstraintEdit::kRewritten : ConstraintEdit::kKept;
}

// Edits applying `rename` to every reference of every constraint.
Mkb::ConstraintEdits RenameEdits(const Rename& rename) {
  Mkb::ConstraintEdits edits;
  edits.join = [&rename](JoinConstraint* jc) {
    bool renamed = rename.Apply(&jc->lhs);
    renamed = rename.Apply(&jc->rhs) || renamed;
    for (ExprPtr& clause : jc->clauses) {
      renamed = rename.Apply(&clause) || renamed;
    }
    return RewrittenIf(renamed);
  };
  edits.function_of = [&rename](FunctionOfConstraint* fc) {
    bool renamed = rename.Apply(&fc->target);
    renamed = rename.Apply(&fc->source) || renamed;
    renamed = rename.Apply(&fc->fn) || renamed;
    return RewrittenIf(renamed);
  };
  edits.pc = [&rename](PCConstraint* pc) {
    bool renamed = rename.Apply(&pc->lhs_relation);
    renamed = rename.Apply(&pc->rhs_relation) || renamed;
    renamed = rename.Apply(&pc->lhs_attrs) || renamed;
    renamed = rename.Apply(&pc->rhs_attrs) || renamed;
    renamed = rename.Apply(&pc->lhs_condition) || renamed;
    renamed = rename.Apply(&pc->rhs_condition) || renamed;
    return RewrittenIf(renamed);
  };
  return edits;
}

}  // namespace

Result<MkbEvolutionReport> EvolveMkb(const Mkb& mkb,
                                     const CapabilityChange& change) {
  MkbEvolutionReport report{mkb, {}, {}, {}};
  Mkb& next = report.mkb;
  std::vector<std::string>& dropped = report.dropped_constraints;
  const auto drop = [&dropped](const std::string& id) {
    dropped.push_back(id);
    return ConstraintEdit::kDropped;
  };
  Mkb::ConstraintEdits edits;

  switch (change.kind) {
    case CapabilityChange::Kind::kAddRelation:
      EVE_RETURN_IF_ERROR(next.AddRelation(change.new_relation));
      break;
    case CapabilityChange::Kind::kAddAttribute:
      EVE_RETURN_IF_ERROR(next.catalog().AddAttribute(change.relation,
                                                      change.new_attribute));
      break;
    case CapabilityChange::Kind::kDeleteRelation: {
      EVE_RETURN_IF_ERROR(next.catalog().DropRelation(change.relation));
      const std::string& rel = change.relation;
      edits.join = [&](JoinConstraint* jc) {
        return jc->Involves(rel) ? drop(jc->id) : ConstraintEdit::kKept;
      };
      edits.function_of = [&](FunctionOfConstraint* fc) {
        return fc->target.relation == rel || fc->source.relation == rel
                   ? drop(fc->id)
                   : ConstraintEdit::kKept;
      };
      edits.pc = [&](PCConstraint* pc) {
        return pc->lhs_relation == rel || pc->rhs_relation == rel
                   ? drop(pc->id)
                   : ConstraintEdit::kKept;
      };
      report.changed_segments = next.EditConstraintsOf(rel, edits);
      break;
    }
    case CapabilityChange::Kind::kDeleteAttribute: {
      EVE_RETURN_IF_ERROR(
          next.catalog().DropAttribute(change.relation, change.attribute));
      const AttributeRef attr{change.relation, change.attribute};
      const auto is_attr = [&attr](const AttributeRef& ref) {
        return ref == attr;
      };
      // A JC loses the clauses mentioning the attribute, and is dropped
      // when no clause relating its two relations remains.
      edits.join = [&](JoinConstraint* jc) {
        std::vector<ExprPtr>& clauses = jc->clauses;
        const auto removed = std::remove_if(
            clauses.begin(), clauses.end(),
            [&](const ExprPtr& c) { return ExprMentions(*c, is_attr); });
        if (removed == clauses.end()) return ConstraintEdit::kKept;
        clauses.erase(removed, clauses.end());
        const bool still_crosses = std::any_of(
            clauses.begin(), clauses.end(), [&](const ExprPtr& c) {
              return ClauseCrosses(*c, jc->lhs, jc->rhs);
            });
        if (!still_crosses) return drop(jc->id);
        report.weakened_constraints.push_back(jc->id);
        return ConstraintEdit::kRewritten;
      };
      edits.function_of = [&](FunctionOfConstraint* fc) {
        return fc->target == attr || fc->source == attr
                   ? drop(fc->id)
                   : ConstraintEdit::kKept;
      };
      edits.pc = [&](PCConstraint* pc) {
        const bool mentions =
            ListMentions(pc->lhs_attrs, attr) ||
            ListMentions(pc->rhs_attrs, attr) ||
            (pc->lhs_condition && ExprMentions(*pc->lhs_condition, is_attr)) ||
            (pc->rhs_condition && ExprMentions(*pc->rhs_condition, is_attr));
        return mentions ? drop(pc->id) : ConstraintEdit::kKept;
      };
      report.changed_segments = next.EditConstraintsOf(change.relation, edits);
      break;
    }
    case CapabilityChange::Kind::kRenameRelation: {
      EVE_RETURN_IF_ERROR(
          next.catalog().RenameRelation(change.relation, change.new_name));
      const Rename rename{{change.relation, ""}, change.new_name};
      report.changed_segments =
          next.EditConstraintsOf(change.relation, RenameEdits(rename));
      break;
    }
    case CapabilityChange::Kind::kRenameAttribute: {
      EVE_RETURN_IF_ERROR(next.catalog().RenameAttribute(
          change.relation, change.attribute, change.new_name));
      const Rename rename{{change.relation, change.attribute},
                          change.new_name};
      report.changed_segments =
          next.EditConstraintsOf(change.relation, RenameEdits(rename));
      break;
    }
    default:
      return Status::Internal("unexpected capability change kind");
  }
  // Every change kind edits the catalog.
  report.changed_segments.set(kRelationsSegment);
  return report;
}

}  // namespace eve
