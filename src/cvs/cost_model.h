// Cost model for ranking legal rewritings — the paper's Sec. 7 names
// "cost models for maximal view preservation" as future work; this is the
// natural instantiation. A rewriting's cost combines what was lost
// (dropped interface attributes, dropped conditions), what it now costs
// to maintain (extra joined relations), and how weak the extent guarantee
// is. Lower is better.

#ifndef EVE_CVS_COST_MODEL_H_
#define EVE_CVS_COST_MODEL_H_

#include <optional>
#include <set>

#include "cvs/extent_relation.h"
#include "esql/view_definition.h"

namespace eve {

struct RewritingCostModel {
  // Each SELECT item of the original missing from the rewriting.
  double dropped_attribute_penalty = 10.0;
  // Each WHERE condition of the original with no counterpart (verbatim or
  // substituted) in the rewriting.
  double dropped_condition_penalty = 4.0;
  // Each FROM relation in the rewriting beyond the original count
  // (maintenance cost of wider joins).
  double extra_relation_penalty = 1.0;
  // Each FROM relation of the rewriting, absolute (the join width). The
  // historical model charged only relations *beyond* the original count,
  // which cannot distinguish two rewritings that are both narrower than
  // the original; 0 keeps historical scores unchanged.
  double join_width_penalty = 0.0;
  // Extent-guarantee penalties relative to ≡.
  double extent_directional_penalty = 2.0;  // ⊇ or ⊆ instead of ≡
  double extent_unknown_penalty = 8.0;      // no guarantee at all
  // When >= 0, ⊆ is charged this instead of extent_directional_penalty
  // (the built-in default ranking prefers ⊇ over ⊆, matching EVE's
  // "preserve as much as possible"). Negative means "same as ⊇".
  double extent_subset_penalty = -1.0;
};

// The penalty `model` charges for `extent` (resolving the ⊆ override).
double ExtentPenalty(const RewritingCostModel& model, ExtentRelation extent);

// True when the extent penalties are monotone on the extent lattice:
// 0 ≤ penalty(⊇/⊆) ≤ penalty(unknown). During enumeration a candidate's
// extent only moves up that lattice (adding Steiner relations or dropping
// conditions never strengthens the guarantee), so monotone penalties make
// an extent floor admissible inside LowerBound. Non-monotone models still
// rank correctly — LowerBound just ignores the extent term for them.
bool ExtentPenaltiesMonotone(const RewritingCostModel& model);

// The built-in ranking used when CvsOptions carries no explicit cost
// model. It encodes the historical lexicographic order — extent strength
// (≡ < ⊇ < ⊆ < unknown), then most SELECT items preserved, then smallest
// join — as strictly separated weight bands, so there is exactly one
// ranking path through the code. The bands assume fewer than 1000 dropped
// attributes and a join width under 1000, far beyond any real view.
RewritingCostModel DefaultRankingCostModel();

// Itemized cost of `rewriting` as a replacement for `original`.
struct RewritingCost {
  size_t dropped_attributes = 0;
  size_t dropped_conditions = 0;
  size_t extra_relations = 0;
  size_t join_width = 0;  // FROM relations in the rewriting
  ExtentRelation extent = ExtentRelation::kUnknown;
  double total = 0.0;

  std::string ToString() const;
};

// Scores `rewriting` against `original` under `model`.
RewritingCost ScoreRewriting(const ViewDefinition& original,
                             const ViewDefinition& rewriting,
                             ExtentRelation extent,
                             const RewritingCostModel& model = {});

// What the enumeration knows about a candidate before (or without)
// splicing the full rewriting: componentwise lower bounds on the final
// RewritingCost. Every field may be an underestimate, never an
// overestimate.
struct PartialCandidate {
  // FROM relations of the original view (exact; needed to bound
  // extra_relations from join_width).
  size_t original_from_size = 0;
  // Lower bound on the rewriting's FROM size.
  size_t join_width = 0;
  // Lower bound on dropped interface attributes.
  size_t dropped_attributes = 0;
  // Weakest-case-so-far extent: the final extent can only be this value
  // or something further up the lattice (see ExtentPenaltiesMonotone).
  ExtentRelation extent_floor = ExtentRelation::kEqual;
};

// Admissible lower bound on the total cost of any completion of
// `partial` under `model`: LowerBound(p, m) <= ScoreRewriting(...).total
// for every rewriting consistent with `partial`. Dropped conditions are
// bounded by 0; the extent term uses the floor only when the model's
// extent penalties are lattice-monotone.
double LowerBound(const PartialCandidate& partial,
                  const RewritingCostModel& model);

// The stopping rule of a top-k pull loop. Candidates are pulled in
// nondecreasing lower-bound order, and the final ranking is a stable sort
// by total of the accepted candidates in pull order followed by the
// drop-based rewriting, if any. A candidate not yet pulled therefore ranks
// after every accepted candidate of equal total, but before a drop-based
// rewriting of equal total.
class TopKBound {
 public:
  // k = 0 keeps every rewriting: Excludes() is then always false.
  explicit TopKBound(size_t k) : k_(k) {}

  void AddCandidate(double total) { candidates_.insert(total); }
  // The drop-based rewriting's total, known before the pull loop.
  void SetDrop(double total) { drop_ = total; }

  // True when no candidate whose total is at least `lower_bound` can enter
  // the top k, so the loop may stop pulling.
  bool Excludes(double lower_bound) const;
  // The k-th best total so far (+infinity with fewer than k), for
  // diagnostics.
  double KthBest() const;

 private:
  size_t k_;
  std::multiset<double> candidates_;
  std::optional<double> drop_;
};

}  // namespace eve

#endif  // EVE_CVS_COST_MODEL_H_
