// Mkb: the meta-knowledge base — the catalog of IS descriptions plus all
// MISD semantic constraints, with lookup APIs used by the hypergraph and
// the CVS algorithm.

#ifndef EVE_MKB_MKB_H_
#define EVE_MKB_MKB_H_

#include <bitset>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "mkb/constraints.h"

namespace eve {

// The four MISD segments an MKB renders as (RenderMkbSegments in
// mkb/serializer.h), in rendering order.
enum MkbSegment : size_t {
  kRelationsSegment = 0,
  kJoinsSegment = 1,
  kFunctionsSegment = 2,
  kPcsSegment = 3,
};
inline constexpr size_t kNumMkbSegments = 4;
using MkbSegmentSet = std::bitset<kNumMkbSegments>;
inline constexpr MkbSegmentSet kAllMkbSegments{0xF};

class Mkb {
 public:
  Mkb() = default;

  // --- Structural descriptions (delegated to the catalog) ---------------
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  Status AddRelation(RelationDef def) {
    return catalog_.AddRelation(std::move(def));
  }

  // --- Constraint registration (validated against the catalog) ----------
  // Rejects: unknown relations/attributes, ids already in use, self-joins,
  // clause attributes outside {lhs, rhs}.
  Status AddJoinConstraint(JoinConstraint jc);
  // Rejects: unknown endpoints, identical target and source relation,
  // fn referencing anything but `source`.
  Status AddFunctionOf(FunctionOfConstraint fc);
  // Rejects: unknown relations/attributes, attribute list arity mismatch.
  Status AddPCConstraint(PCConstraint pc);

  // Removes the constraint (of any kind) with the given id — a source
  // withdrawing a previously published semantic relationship. NotFound if
  // no constraint carries the id.
  Status RemoveConstraint(const std::string& id);

  // --- In-place evolution (EvolveMkb) ------------------------------------
  enum class ConstraintEdit { kKept, kRewritten, kDropped };
  // One edit per constraint kind; a missing edit keeps every constraint of
  // its kind. An edit may rewrite the constraint it is handed (never its
  // id) and says what it did.
  struct ConstraintEdits {
    std::function<ConstraintEdit(JoinConstraint*)> join;
    std::function<ConstraintEdit(FunctionOfConstraint*)> function_of;
    std::function<ConstraintEdit(PCConstraint*)> pc;
  };
  // Hands every constraint to the edit of its kind, kind by kind (joins,
  // function-of, PC) in registration order, removes the dropped ones and
  // keeps the lookup indexes in step. Nothing is re-validated: a rewritten
  // constraint must stay valid against the catalog. Returns the segments
  // (kJoinsSegment, kFunctionsSegment, kPcsSegment) whose constraints an
  // edit rewrote or dropped.
  MkbSegmentSet EditConstraints(const ConstraintEdits& edits);

  // --- Queries -----------------------------------------------------------
  const std::vector<JoinConstraint>& join_constraints() const {
    return join_constraints_;
  }
  const std::vector<FunctionOfConstraint>& function_of_constraints() const {
    return function_of_constraints_;
  }
  const std::vector<PCConstraint>& pc_constraints() const {
    return pc_constraints_;
  }

  // All lookups below are served from hash indexes maintained through
  // every mutation (O(1) amortized, results in registration order — the
  // same order the former linear scans produced). See docs/PERFORMANCE.md
  // for the index invariants.

  // All join constraints with `relation` as an endpoint.
  std::vector<const JoinConstraint*> JoinConstraintsOf(
      const std::string& relation) const;

  // All join constraints between `a` and `b` (either orientation).
  std::vector<const JoinConstraint*> JoinConstraintsBetween(
      const std::string& a, const std::string& b) const;

  // Function-of constraints whose target is `attr` — the candidate covers
  // for `attr` (paper Def. 3 (IV)).
  std::vector<const FunctionOfConstraint*> CoversOf(
      const AttributeRef& attr) const;

  // PC constraints mentioning both `a` and `b` (either orientation).
  std::vector<const PCConstraint*> PCConstraintsBetween(
      const std::string& a, const std::string& b) const;

  Result<const JoinConstraint*> GetJoinConstraint(const std::string& id) const;
  Result<const FunctionOfConstraint*> GetFunctionOf(
      const std::string& id) const;

  // Multi-line dump of all descriptions and constraints.
  std::string ToString() const;

 private:
  enum class ConstraintKind { kJoin, kFunctionOf, kPc };
  struct ConstraintSlot {
    ConstraintKind kind;
    size_t index;  // into the kind's constraint vector
  };

  Status ValidateAttribute(const AttributeRef& ref,
                           const std::string& context) const;
  bool IdInUse(const std::string& id) const;

  // Records a freshly appended constraint in the lookup indexes.
  void IndexJoinConstraint(size_t index);
  void IndexFunctionOf(size_t index);
  void IndexPCConstraint(size_t index);
  // Rebuilds every index from the constraint vectors (after a removal,
  // which shifts vector indices).
  void Reindex();

  Catalog catalog_;
  std::vector<JoinConstraint> join_constraints_;
  std::vector<FunctionOfConstraint> function_of_constraints_;
  std::vector<PCConstraint> pc_constraints_;

  // Lookup indexes, derived from the vectors above and kept in sync by
  // every mutation. All values are indices (not pointers) so the default
  // copy of an Mkb keeps working indexes.
  std::unordered_map<std::string, ConstraintSlot> constraint_by_id_;
  // relation -> join constraints touching it.
  std::unordered_map<std::string, std::vector<size_t>> joins_by_relation_;
  // unordered relation pair -> join / PC constraints between them.
  std::unordered_map<std::string, std::vector<size_t>> joins_by_pair_;
  std::unordered_map<std::string, std::vector<size_t>> pcs_by_pair_;
  // target attribute -> function-of constraints covering it.
  std::unordered_map<std::string, std::vector<size_t>> covers_by_target_;
};

}  // namespace eve

#endif  // EVE_MKB_MKB_H_
