// View-extent reasoning for P3 of Def. 1 (CVS Step 6): inferring the
// relationship between the old and new view extents from PC constraints,
// and checking it empirically by evaluating both views.
//
// The paper defers a complete P3 procedure to future work; we implement
// the natural conservative inference it sketches in Ex. 4 (PC constraints
// justify that a cover join loses no tuples) and cross-validate it
// empirically in tests (E8 in DESIGN.md).

#ifndef EVE_CVS_EXTENT_H_
#define EVE_CVS_EXTENT_H_

#include "algebra/eval.h"
#include "common/result.h"
#include "cvs/extent_relation.h"
#include "cvs/r_mapping.h"
#include "cvs/r_replacement.h"
#include "esql/view_definition.h"
#include "mkb/mkb.h"
#include "storage/database.h"

namespace eve {

// True when the inferred relation meets the view's VE requirement
// (≡ needs Equal; ⊇ accepts Equal or Superset; ⊆ accepts Equal or Subset;
// ≈ accepts anything).
bool SatisfiesViewExtent(ExtentRelation inferred, ViewExtent required);

// One covered-attribute correspondence: R.target replaced via f(S.source).
struct CoverPair {
  AttributeRef target;  // attribute of the dropped relation R
  AttributeRef source;  // attribute of the cover relation S
};

// Direction contributed by the strongest PC constraint between the dropped
// relation `r` and the relation `s`, oriented as "π(s-side) θ π(r-side)":
// Equal if some qualifying constraint is an equality, else the direction
// of the first one, else Unknown. With `pairs`, only a constraint that
// certifies one of them qualifies: some position i holds (pair.source,
// pair.target) on its (s, r) sides, which is the shape of the paper's
// Ex. 4 constraint (iv), π[Name, PAddr](Person) ⊇ π[Name, Addr](Customer)
// certifying the Addr -> PAddr replacement. With no pairs (a Steiner
// relation) any constraint between the two qualifies. `mkb` is the
// PRE-change MKB: constraints mentioning a deleted relation only exist
// there (MKB' drops them), yet they still describe the data.
ExtentRelation PcJustification(const Mkb& mkb, const std::string& r,
                               const std::string& s,
                               const std::vector<CoverPair>& pairs);

// Conservative inference for a replacement-based rewriting: the
// candidate's extent_floor (the PC justification of its covers and its
// Steiner relations, see ReplacementCandidate), widened to Superset by
// every dispensable condition the rewriting dropped.
ExtentRelation InferExtentRelation(const ViewDefinition& old_view,
                                   const ViewDefinition& new_view,
                                   const RMapping& mapping,
                                   const ReplacementCandidate& candidate);

// Empirical comparison: evaluates both views over `db` (which must still
// hold the pre-change tables so the old view is evaluable), projects each
// onto the common interface attributes, and compares as sets.
Result<ExtentRelation> CompareExtentsEmpirically(
    const ViewDefinition& old_view, const ViewDefinition& new_view,
    const Database& db, const Catalog& old_catalog,
    const Catalog& new_catalog, const FunctionRegistry* registry = nullptr);

}  // namespace eve

#endif  // EVE_CVS_EXTENT_H_
