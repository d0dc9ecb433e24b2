// Step 1 of the EVE strategy (paper Sec. 4): evolving the MKB under a
// capability change — dropping or rewriting affected MISD descriptions.

#ifndef EVE_MKB_EVOLUTION_H_
#define EVE_MKB_EVOLUTION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "mkb/capability_change.h"
#include "mkb/mkb.h"

namespace eve {

struct MkbEvolutionReport {
  Mkb mkb;  // MKB' — the evolved meta-knowledge base
  // Constraint ids removed entirely.
  std::vector<std::string> dropped_constraints;
  // Join-constraint ids that survived with some clauses removed
  // (delete-attribute only).
  std::vector<std::string> weakened_constraints;
  // The MISD segments of MKB' that may render differently from the input
  // MKB's; every other segment renders byte-identically, so a version
  // commit can share it unrendered.
  MkbSegmentSet changed_segments;
};

// Produces MKB' from `mkb` under `change`:
//  * delete-relation R: drop R's description and every JC/F/PC touching R;
//  * delete-attribute R.A: remove A from R's schema; drop F and PC
//    constraints touching R.A; remove JC clauses mentioning R.A and drop a
//    JC entirely when no clause relating its two relations remains;
//  * rename-relation / rename-attribute: rewrite all references in place;
//  * add-relation / add-attribute: extend the catalog (no constraints are
//    inferred automatically).
// MKB' starts as an O(1) copy of `mkb` that shares all of its structure
// (Mkb is persistent), and only the constraints the change names are
// reached (through the changed relation's block), rewritten or dropped;
// the rest are neither copied nor re-validated, and keep their order. The
// input MKB is left as it was.
Result<MkbEvolutionReport> EvolveMkb(const Mkb& mkb,
                                     const CapabilityChange& change);

}  // namespace eve

#endif  // EVE_MKB_EVOLUTION_H_
