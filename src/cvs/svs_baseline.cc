#include "cvs/svs_baseline.h"

namespace eve {

Result<CvsResult> SvsSynchronizeDeleteRelation(const ViewDefinition& view,
                                               const std::string& relation,
                                               const Mkb& mkb,
                                               const Mkb& mkb_prime,
                                               CvsOptions options) {
  options.replacement.max_extra_relations = 0;
  return SynchronizeDeleteRelation(view, relation, mkb, mkb_prime, options);
}

}  // namespace eve
