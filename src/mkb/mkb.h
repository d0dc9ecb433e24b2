// Mkb: the meta-knowledge base — the catalog of IS descriptions plus all
// MISD semantic constraints, with lookup APIs used by the hypergraph and
// the CVS algorithm.

#ifndef EVE_MKB_MKB_H_
#define EVE_MKB_MKB_H_

#include <bitset>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/persistent_table.h"
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

// Persistent: the catalog, the three constraint sequences and the lookup
// indexes are persistent tables (common/persistent_table.h), so copying an
// Mkb is O(1) and an edit copies only the chunks it changes. Each relation
// has one block of index entries, the constraints naming it per kind in
// registration order, and each constraint keeps its registration slot for
// good, so rewriting a constraint touches no index. See DESIGN.md.
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
  // Hands every constraint naming `relation` (as an endpoint, a cover's
  // target or source, or in a PC's selection) to the edit of its kind, a
  // copy at a time, kind by kind (joins, function-of, PC) in registration
  // order; installs the rewritten copies in their slots, removes the
  // dropped constraints and moves the index entries of each one whose
  // relations changed. Nothing is re-validated: a rewritten constraint
  // must stay valid against the catalog. Every constraint that can be
  // rewritten or dropped by a change to `relation` names it, so this
  // reaches them through `relation`'s block in O(constraints naming it).
  // Returns the segments (kJoinsSegment, kFunctionsSegment, kPcsSegment)
  // whose constraints an edit rewrote or dropped.
  MkbSegmentSet EditConstraintsOf(const std::string& relation,
                                  const ConstraintEdits& edits);

  // --- Queries -----------------------------------------------------------
  // Every constraint of a kind, in registration order; iterable, with
  // size() and empty().
  const ChunkedSeq<JoinConstraint>& join_constraints() const { return joins_; }
  const ChunkedSeq<FunctionOfConstraint>& function_of_constraints() const {
    return functions_;
  }
  const ChunkedSeq<PCConstraint>& pc_constraints() const { return pcs_; }

  // All lookups below read one relation's block (found in O(1)) and return
  // its matches in registration order; see docs/PERFORMANCE.md for the
  // index invariants.

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
    uint64_t seq;  // the constraint's slot in its kind's sequence
  };
  // One relation's index entries: the slots of the constraints naming it,
  // per kind, ascending (registration order).
  struct RelationBlock {
    std::vector<uint64_t> joins;
    std::vector<uint64_t> functions;
    std::vector<uint64_t> pcs;
  };
  class BlockEditor;

  Status ValidateAttribute(const AttributeRef& ref,
                           const std::string& context) const;
  bool IdInUse(const std::string& id) const {
    return ids_.Find(id) != nullptr;
  }
  const RelationBlock* BlockOf(const std::string& relation) const;

  Catalog catalog_;
  ChunkedSeq<JoinConstraint> joins_;
  ChunkedSeq<FunctionOfConstraint> functions_;
  ChunkedSeq<PCConstraint> pcs_;
  // constraint id -> its kind and slot.
  PersistentHashMap<ConstraintSlot> ids_;
  // relation -> its block; a relation no constraint names has none.
  PersistentHashMap<std::shared_ptr<const RelationBlock>> blocks_;
};

}  // namespace eve

#endif  // EVE_MKB_MKB_H_
