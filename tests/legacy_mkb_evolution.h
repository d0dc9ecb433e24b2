// The MKB evolution that preceded the in-place EvolveMkb of
// mkb/evolution.cc, kept as the oracle of mkb_evolution_test: it builds
// MKB' from an empty MKB holding a copy of the evolved catalog, and
// re-adds (and so re-validates) every surviving constraint through
// CopyConstraints, applying a CopyFilters of keep/rewrite callbacks. It is
// unchanged except for its name, EvolveMkbByCopy, and the
// `changed_segments` it leaves empty (it never knew about segments).

#ifndef EVE_TESTS_LEGACY_MKB_EVOLUTION_H_
#define EVE_TESTS_LEGACY_MKB_EVOLUTION_H_

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "mkb/capability_change.h"
#include "mkb/evolution.h"
#include "mkb/mkb.h"

namespace eve {
namespace legacy {

inline bool ExprMentionsAttribute(const Expr& expr, const AttributeRef& attr) {
  std::vector<AttributeRef> cols;
  expr.CollectColumns(&cols);
  return std::find(cols.begin(), cols.end(), attr) != cols.end();
}

// True if `clause` relates the two endpoint relations of a JC (touches
// both sides).
inline bool ClauseCrosses(const Expr& clause, const std::string& lhs,
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

inline AttributeRef RenameRelationInRef(const AttributeRef& ref,
                                 const std::string& old_name,
                                 const std::string& new_name) {
  if (ref.relation == old_name) return AttributeRef{new_name, ref.attribute};
  return ref;
}

inline AttributeRef RenameAttributeInRef(const AttributeRef& ref,
                                  const AttributeRef& old_attr,
                                  const std::string& new_name) {
  if (ref == old_attr) return AttributeRef{ref.relation, new_name};
  return ref;
}

// Copies constraints from `src` into `dst.mkb`, applying `keep` and
// `rewrite` (either may be identity). `keep_jc_clause` filters individual
// JC clauses; a JC that loses its crossing clauses is dropped.
struct CopyFilters {
  std::function<bool(const JoinConstraint&)> keep_jc = nullptr;
  std::function<bool(const ExprPtr&)> keep_jc_clause = nullptr;
  std::function<bool(const FunctionOfConstraint&)> keep_fc = nullptr;
  std::function<bool(const PCConstraint&)> keep_pc = nullptr;
  std::function<ExprPtr(const ExprPtr&)> rewrite_expr = nullptr;
  std::function<AttributeRef(const AttributeRef&)> rewrite_ref = nullptr;
  std::function<std::string(const std::string&)> rewrite_relation = nullptr;
};

inline Status CopyConstraints(const Mkb& src, const CopyFilters& filters,
                       MkbEvolutionReport* report) {
  auto rewrite_expr = [&](const ExprPtr& e) {
    return filters.rewrite_expr ? filters.rewrite_expr(e) : e;
  };
  auto rewrite_ref = [&](const AttributeRef& r) {
    return filters.rewrite_ref ? filters.rewrite_ref(r) : r;
  };
  auto rewrite_relation = [&](const std::string& r) {
    return filters.rewrite_relation ? filters.rewrite_relation(r) : r;
  };

  for (const JoinConstraint& jc : src.join_constraints()) {
    if (filters.keep_jc && !filters.keep_jc(jc)) {
      report->dropped_constraints.push_back(jc.id);
      continue;
    }
    JoinConstraint copy;
    copy.id = jc.id;
    copy.lhs = rewrite_relation(jc.lhs);
    copy.rhs = rewrite_relation(jc.rhs);
    bool weakened = false;
    for (const ExprPtr& clause : jc.clauses) {
      if (filters.keep_jc_clause && !filters.keep_jc_clause(clause)) {
        weakened = true;
        continue;
      }
      copy.clauses.push_back(rewrite_expr(clause));
    }
    const bool still_crosses = std::any_of(
        copy.clauses.begin(), copy.clauses.end(), [&](const ExprPtr& c) {
          return ClauseCrosses(*c, copy.lhs, copy.rhs);
        });
    if (!still_crosses) {
      report->dropped_constraints.push_back(jc.id);
      continue;
    }
    if (weakened) report->weakened_constraints.push_back(jc.id);
    EVE_RETURN_IF_ERROR(report->mkb.AddJoinConstraint(std::move(copy)));
  }

  for (const FunctionOfConstraint& fc : src.function_of_constraints()) {
    if (filters.keep_fc && !filters.keep_fc(fc)) {
      report->dropped_constraints.push_back(fc.id);
      continue;
    }
    FunctionOfConstraint copy;
    copy.id = fc.id;
    copy.target = rewrite_ref(fc.target);
    copy.source = rewrite_ref(fc.source);
    copy.fn = rewrite_expr(fc.fn);
    EVE_RETURN_IF_ERROR(report->mkb.AddFunctionOf(std::move(copy)));
  }

  for (const PCConstraint& pc : src.pc_constraints()) {
    if (filters.keep_pc && !filters.keep_pc(pc)) {
      report->dropped_constraints.push_back(pc.id);
      continue;
    }
    PCConstraint copy;
    copy.id = pc.id;
    copy.lhs_relation = rewrite_relation(pc.lhs_relation);
    copy.rhs_relation = rewrite_relation(pc.rhs_relation);
    for (const AttributeRef& ref : pc.lhs_attrs) {
      copy.lhs_attrs.push_back(rewrite_ref(ref));
    }
    for (const AttributeRef& ref : pc.rhs_attrs) {
      copy.rhs_attrs.push_back(rewrite_ref(ref));
    }
    copy.lhs_condition =
        pc.lhs_condition ? rewrite_expr(pc.lhs_condition) : nullptr;
    copy.rhs_condition =
        pc.rhs_condition ? rewrite_expr(pc.rhs_condition) : nullptr;
    copy.relation = pc.relation;
    EVE_RETURN_IF_ERROR(report->mkb.AddPCConstraint(std::move(copy)));
  }
  return Status::OK();
}

inline Result<MkbEvolutionReport> EvolveMkbByCopy(
    const Mkb& mkb, const CapabilityChange& change) {
  MkbEvolutionReport report;
  report.mkb.catalog() = mkb.catalog();

  switch (change.kind) {
    case CapabilityChange::Kind::kAddRelation: {
      EVE_RETURN_IF_ERROR(report.mkb.AddRelation(change.new_relation));
      EVE_RETURN_IF_ERROR(CopyConstraints(mkb, CopyFilters{}, &report));
      return report;
    }
    case CapabilityChange::Kind::kAddAttribute: {
      EVE_RETURN_IF_ERROR(report.mkb.catalog().AddAttribute(
          change.relation, change.new_attribute));
      EVE_RETURN_IF_ERROR(CopyConstraints(mkb, CopyFilters{}, &report));
      return report;
    }
    case CapabilityChange::Kind::kDeleteRelation: {
      EVE_RETURN_IF_ERROR(report.mkb.catalog().DropRelation(change.relation));
      const std::string& rel = change.relation;
      CopyFilters filters;
      filters.keep_jc = [&](const JoinConstraint& jc) {
        return !jc.Involves(rel);
      };
      filters.keep_fc = [&](const FunctionOfConstraint& fc) {
        return fc.target.relation != rel && fc.source.relation != rel;
      };
      filters.keep_pc = [&](const PCConstraint& pc) {
        return pc.lhs_relation != rel && pc.rhs_relation != rel;
      };
      EVE_RETURN_IF_ERROR(CopyConstraints(mkb, filters, &report));
      return report;
    }
    case CapabilityChange::Kind::kDeleteAttribute: {
      EVE_RETURN_IF_ERROR(report.mkb.catalog().DropAttribute(
          change.relation, change.attribute));
      const AttributeRef attr{change.relation, change.attribute};
      CopyFilters filters;
      filters.keep_jc_clause = [&](const ExprPtr& clause) {
        return !ExprMentionsAttribute(*clause, attr);
      };
      filters.keep_fc = [&](const FunctionOfConstraint& fc) {
        return fc.target != attr && fc.source != attr;
      };
      filters.keep_pc = [&](const PCConstraint& pc) {
        const auto mentions = [&](const std::vector<AttributeRef>& attrs) {
          return std::find(attrs.begin(), attrs.end(), attr) != attrs.end();
        };
        if (mentions(pc.lhs_attrs) || mentions(pc.rhs_attrs)) return false;
        if (pc.lhs_condition && ExprMentionsAttribute(*pc.lhs_condition, attr)) {
          return false;
        }
        if (pc.rhs_condition && ExprMentionsAttribute(*pc.rhs_condition, attr)) {
          return false;
        }
        return true;
      };
      EVE_RETURN_IF_ERROR(CopyConstraints(mkb, filters, &report));
      return report;
    }
    case CapabilityChange::Kind::kRenameRelation: {
      EVE_RETURN_IF_ERROR(report.mkb.catalog().RenameRelation(
          change.relation, change.new_name));
      const std::string old_name = change.relation;
      const std::string new_name = change.new_name;
      CopyFilters filters;
      filters.rewrite_relation = [=](const std::string& rel) {
        return rel == old_name ? new_name : rel;
      };
      filters.rewrite_ref = [=](const AttributeRef& ref) {
        return RenameRelationInRef(ref, old_name, new_name);
      };
      filters.rewrite_expr = [=](const ExprPtr& expr) {
        return expr->TransformColumns([=](const AttributeRef& ref) {
          return RenameRelationInRef(ref, old_name, new_name);
        });
      };
      EVE_RETURN_IF_ERROR(CopyConstraints(mkb, filters, &report));
      return report;
    }
    case CapabilityChange::Kind::kRenameAttribute: {
      EVE_RETURN_IF_ERROR(report.mkb.catalog().RenameAttribute(
          change.relation, change.attribute, change.new_name));
      const AttributeRef old_attr{change.relation, change.attribute};
      const std::string new_name = change.new_name;
      CopyFilters filters;
      filters.rewrite_ref = [=](const AttributeRef& ref) {
        return RenameAttributeInRef(ref, old_attr, new_name);
      };
      filters.rewrite_expr = [=](const ExprPtr& expr) {
        return expr->TransformColumns([=](const AttributeRef& ref) {
          return RenameAttributeInRef(ref, old_attr, new_name);
        });
      };
      EVE_RETURN_IF_ERROR(CopyConstraints(mkb, filters, &report));
      return report;
    }
  }
  return Status::Internal("unexpected capability change kind");
}

}  // namespace legacy
}  // namespace eve

#endif  // EVE_TESTS_LEGACY_MKB_EVOLUTION_H_
