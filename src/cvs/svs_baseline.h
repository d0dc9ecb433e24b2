// SVS: the "one-step-away" baseline from the authors' earlier work
// (Lee/Nica/Rundensteiner, CASCON'97; discussed in the paper's
// introduction as the simple solution CVS supersedes). SVS only considers
// replacements directly join-connected to the surviving view relations —
// no chains of join constraints and no intermediate (Steiner) relations.
//
// Implemented as CVS restricted to max_extra_relations = 0, so benchmark
// E6 can contrast preservation rates as the required join distance grows.

#ifndef EVE_CVS_SVS_BASELINE_H_
#define EVE_CVS_SVS_BASELINE_H_

#include "cvs/cvs.h"

namespace eve {

// One-step-away synchronization for ch = delete-relation R.
Result<CvsResult> SvsSynchronizeDeleteRelation(const ViewDefinition& view,
                                               const std::string& relation,
                                               const Mkb& mkb,
                                               const Mkb& mkb_prime,
                                               CvsOptions options = {});

}  // namespace eve

#endif  // EVE_CVS_SVS_BASELINE_H_
