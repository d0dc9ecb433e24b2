// Explanation of a synchronization outcome: a human-readable, structured
// diff between the original view and its rewriting — which attributes were
// replaced by what (and through which constraint), which components were
// dropped, which relations and join conditions were added, and why the
// extent guarantee holds. Surfaces in EveSystem reports and evectl.

#ifndef EVE_CVS_EXPLAIN_H_
#define EVE_CVS_EXPLAIN_H_

#include <string>
#include <vector>

#include "cvs/cvs.h"

namespace eve {

struct RewritingExplanation {
  // "Customer.Name -> Accident-Ins.Holder via F2" per replaced attribute.
  std::vector<std::string> replaced_attributes;
  // Output names of SELECT items that were dropped.
  std::vector<std::string> dropped_attributes;
  // Rendered clauses that were dropped.
  std::vector<std::string> dropped_conditions;
  // Relations joined in by the rewriting.
  std::vector<std::string> added_relations;
  // Rendered join conditions added by the rewriting.
  std::vector<std::string> added_conditions;
  // One sentence on the extent guarantee.
  std::string extent_note;
  // One sentence on the ranking: the itemized cost and, for streamed
  // candidates, the admissible lower bound they were scheduled at.
  std::string cost_note;

  // Multi-line rendering ("  replaced: ...\n  dropped: ...").
  std::string ToString() const;
};

// Explains `synced` as a rewriting of `original`.
RewritingExplanation ExplainRewriting(const ViewDefinition& original,
                                      const SynchronizedView& synced);

}  // namespace eve

#endif  // EVE_CVS_EXPLAIN_H_
