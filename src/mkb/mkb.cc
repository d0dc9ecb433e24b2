#include "mkb/mkb.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace eve {

namespace {

// Index key for an unordered relation pair. '\x1f' (ASCII unit separator)
// cannot appear in parsed identifiers, so keys never collide.
std::string PairKey(const std::string& a, const std::string& b) {
  return a <= b ? a + '\x1f' + b : b + '\x1f' + a;
}

std::string AttrKey(const AttributeRef& ref) {
  return ref.relation + '\x1f' + ref.attribute;
}

using PositionIndex = std::unordered_map<std::string, std::vector<size_t>>;

// Moves constraint `index` from key `from` to key `to`, keeping each key's
// positions ascending (registration order).
void MoveIndexEntry(PositionIndex* positions, const std::string& from,
                    const std::string& to, size_t index) {
  if (from == to) return;
  const auto it = positions->find(from);
  if (it != positions->end()) {
    std::vector<size_t>& old = it->second;
    old.erase(std::remove(old.begin(), old.end(), index), old.end());
    if (old.empty()) positions->erase(it);
  }
  std::vector<size_t>& dest = (*positions)[to];
  dest.insert(std::lower_bound(dest.begin(), dest.end(), index), index);
}

// Applies `edit` to every constraint of `constraints` and erases the
// dropped ones. `key(c)` reads the fields a constraint is indexed under,
// and `rekey(i, old_key)` re-indexes a rewritten constraint; it is skipped
// once anything was dropped (`*dropped_any`), since a drop shifts positions
// and the caller rebuilds the indexes. Returns whether any constraint was
// rewritten or dropped.
template <typename Constraint, typename Edit, typename Key, typename Rekey>
bool EditVector(std::vector<Constraint>* constraints, const Edit& edit,
                const Key& key, const Rekey& rekey, bool* dropped_any) {
  if (!edit) return false;
  bool changed = false;
  std::vector<bool> dropped;
  for (size_t i = 0; i < constraints->size(); ++i) {
    auto old_key = key((*constraints)[i]);
    switch (edit(&(*constraints)[i])) {
      case Mkb::ConstraintEdit::kKept:
        break;
      case Mkb::ConstraintEdit::kRewritten:
        changed = true;
        if (!*dropped_any) rekey(i, old_key);
        break;
      case Mkb::ConstraintEdit::kDropped:
        changed = true;
        *dropped_any = true;
        dropped.resize(constraints->size());
        dropped[i] = true;
        break;
    }
  }
  if (!dropped.empty()) {
    size_t kept = 0;
    for (size_t i = 0; i < constraints->size(); ++i) {
      if (dropped[i]) continue;
      if (kept != i) (*constraints)[kept] = std::move((*constraints)[i]);
      ++kept;
    }
    constraints->resize(kept);
  }
  return changed;
}

}  // namespace

Status Mkb::ValidateAttribute(const AttributeRef& ref,
                              const std::string& context) const {
  if (!catalog_.HasAttribute(ref)) {
    return Status::NotFound(context + " references unknown attribute " +
                            ref.ToString());
  }
  return Status::OK();
}

bool Mkb::IdInUse(const std::string& id) const {
  return constraint_by_id_.count(id) > 0;
}

void Mkb::IndexJoinConstraint(size_t index) {
  const JoinConstraint& jc = join_constraints_[index];
  constraint_by_id_.emplace(jc.id,
                            ConstraintSlot{ConstraintKind::kJoin, index});
  joins_by_relation_[jc.lhs].push_back(index);
  joins_by_relation_[jc.rhs].push_back(index);
  joins_by_pair_[PairKey(jc.lhs, jc.rhs)].push_back(index);
}

void Mkb::IndexFunctionOf(size_t index) {
  const FunctionOfConstraint& fc = function_of_constraints_[index];
  constraint_by_id_.emplace(
      fc.id, ConstraintSlot{ConstraintKind::kFunctionOf, index});
  covers_by_target_[AttrKey(fc.target)].push_back(index);
}

void Mkb::IndexPCConstraint(size_t index) {
  const PCConstraint& pc = pc_constraints_[index];
  constraint_by_id_.emplace(pc.id,
                            ConstraintSlot{ConstraintKind::kPc, index});
  pcs_by_pair_[PairKey(pc.lhs_relation, pc.rhs_relation)].push_back(index);
}

void Mkb::Reindex() {
  constraint_by_id_.clear();
  joins_by_relation_.clear();
  joins_by_pair_.clear();
  pcs_by_pair_.clear();
  covers_by_target_.clear();
  for (size_t i = 0; i < join_constraints_.size(); ++i) {
    IndexJoinConstraint(i);
  }
  for (size_t i = 0; i < function_of_constraints_.size(); ++i) {
    IndexFunctionOf(i);
  }
  for (size_t i = 0; i < pc_constraints_.size(); ++i) IndexPCConstraint(i);
}

Status Mkb::AddJoinConstraint(JoinConstraint jc) {
  if (jc.id.empty()) {
    return Status::InvalidArgument("join constraint needs a non-empty id");
  }
  if (IdInUse(jc.id)) {
    return Status::AlreadyExists("constraint id already in use: " + jc.id);
  }
  if (jc.lhs == jc.rhs) {
    return Status::InvalidArgument("join constraint " + jc.id +
                                   " joins a relation with itself");
  }
  for (const std::string& rel : {jc.lhs, jc.rhs}) {
    if (!catalog_.HasRelation(rel)) {
      return Status::NotFound("join constraint " + jc.id +
                              " references unknown relation " + rel);
    }
  }
  if (jc.clauses.empty()) {
    return Status::InvalidArgument("join constraint " + jc.id +
                                   " has no clauses");
  }
  bool crosses = false;
  for (const ExprPtr& clause : jc.clauses) {
    std::vector<AttributeRef> cols;
    clause->CollectColumns(&cols);
    bool touches_lhs = false;
    bool touches_rhs = false;
    for (const AttributeRef& ref : cols) {
      EVE_RETURN_IF_ERROR(
          ValidateAttribute(ref, "join constraint " + jc.id));
      if (ref.relation == jc.lhs) {
        touches_lhs = true;
      } else if (ref.relation == jc.rhs) {
        touches_rhs = true;
      } else {
        return Status::InvalidArgument(
            "join constraint " + jc.id + " clause references relation " +
            ref.relation + " outside {" + jc.lhs + ", " + jc.rhs + "}");
      }
    }
    crosses = crosses || (touches_lhs && touches_rhs);
  }
  if (!crosses) {
    return Status::InvalidArgument(
        "join constraint " + jc.id +
        " has no clause relating the two relations");
  }
  join_constraints_.push_back(std::move(jc));
  IndexJoinConstraint(join_constraints_.size() - 1);
  return Status::OK();
}

Status Mkb::AddFunctionOf(FunctionOfConstraint fc) {
  if (fc.id.empty()) {
    return Status::InvalidArgument(
        "function-of constraint needs a non-empty id");
  }
  if (IdInUse(fc.id)) {
    return Status::AlreadyExists("constraint id already in use: " + fc.id);
  }
  EVE_RETURN_IF_ERROR(
      ValidateAttribute(fc.target, "function-of constraint " + fc.id));
  EVE_RETURN_IF_ERROR(
      ValidateAttribute(fc.source, "function-of constraint " + fc.id));
  if (fc.target.relation == fc.source.relation) {
    return Status::InvalidArgument(
        "function-of constraint " + fc.id +
        " relates attributes of the same relation; it must bridge two "
        "relations");
  }
  if (fc.fn == nullptr) {
    return Status::InvalidArgument("function-of constraint " + fc.id +
                                   " has no function body");
  }
  std::vector<AttributeRef> cols;
  fc.fn->CollectColumns(&cols);
  for (const AttributeRef& ref : cols) {
    if (ref != fc.source) {
      return Status::InvalidArgument(
          "function-of constraint " + fc.id +
          " body may only reference its source attribute " +
          fc.source.ToString() + ", found " + ref.ToString());
    }
  }
  function_of_constraints_.push_back(std::move(fc));
  IndexFunctionOf(function_of_constraints_.size() - 1);
  return Status::OK();
}

Status Mkb::AddPCConstraint(PCConstraint pc) {
  if (pc.id.empty()) {
    return Status::InvalidArgument("PC constraint needs a non-empty id");
  }
  if (IdInUse(pc.id)) {
    return Status::AlreadyExists("constraint id already in use: " + pc.id);
  }
  for (const std::string& rel : {pc.lhs_relation, pc.rhs_relation}) {
    if (!catalog_.HasRelation(rel)) {
      return Status::NotFound("PC constraint " + pc.id +
                              " references unknown relation " + rel);
    }
  }
  if (pc.lhs_attrs.size() != pc.rhs_attrs.size() || pc.lhs_attrs.empty()) {
    return Status::InvalidArgument(
        "PC constraint " + pc.id +
        " needs matching, non-empty attribute lists");
  }
  for (const AttributeRef& ref : pc.lhs_attrs) {
    EVE_RETURN_IF_ERROR(ValidateAttribute(ref, "PC constraint " + pc.id));
    if (ref.relation != pc.lhs_relation) {
      return Status::InvalidArgument("PC constraint " + pc.id +
                                     " lhs attribute " + ref.ToString() +
                                     " is not from " + pc.lhs_relation);
    }
  }
  for (const AttributeRef& ref : pc.rhs_attrs) {
    EVE_RETURN_IF_ERROR(ValidateAttribute(ref, "PC constraint " + pc.id));
    if (ref.relation != pc.rhs_relation) {
      return Status::InvalidArgument("PC constraint " + pc.id +
                                     " rhs attribute " + ref.ToString() +
                                     " is not from " + pc.rhs_relation);
    }
  }
  pc_constraints_.push_back(std::move(pc));
  IndexPCConstraint(pc_constraints_.size() - 1);
  return Status::OK();
}

Status Mkb::RemoveConstraint(const std::string& id) {
  const auto slot_it = constraint_by_id_.find(id);
  if (slot_it == constraint_by_id_.end()) {
    return Status::NotFound("constraint not found: " + id);
  }
  const ConstraintSlot slot = slot_it->second;
  switch (slot.kind) {
    case ConstraintKind::kJoin:
      join_constraints_.erase(join_constraints_.begin() + slot.index);
      break;
    case ConstraintKind::kFunctionOf:
      function_of_constraints_.erase(function_of_constraints_.begin() +
                                     slot.index);
      break;
    case ConstraintKind::kPc:
      pc_constraints_.erase(pc_constraints_.begin() + slot.index);
      break;
  }
  // The erase shifted every later index; removal is rare (a source
  // retracting a published constraint), so a full rebuild is fine.
  Reindex();
  return Status::OK();
}

MkbSegmentSet Mkb::EditConstraints(const ConstraintEdits& edits) {
  using Endpoints = std::pair<std::string, std::string>;
  MkbSegmentSet changed;
  bool dropped_any = false;
  changed[kJoinsSegment] = EditVector(
      &join_constraints_, edits.join,
      [](const JoinConstraint& jc) { return Endpoints(jc.lhs, jc.rhs); },
      [&](size_t i, const Endpoints& old) {
        const JoinConstraint& jc = join_constraints_[i];
        MoveIndexEntry(&joins_by_relation_, old.first, jc.lhs, i);
        MoveIndexEntry(&joins_by_relation_, old.second, jc.rhs, i);
        MoveIndexEntry(&joins_by_pair_, PairKey(old.first, old.second),
                       PairKey(jc.lhs, jc.rhs), i);
      },
      &dropped_any);
  changed[kFunctionsSegment] = EditVector(
      &function_of_constraints_, edits.function_of,
      [](const FunctionOfConstraint& fc) { return fc.target; },
      [&](size_t i, const AttributeRef& old) {
        MoveIndexEntry(&covers_by_target_, AttrKey(old),
                       AttrKey(function_of_constraints_[i].target), i);
      },
      &dropped_any);
  changed[kPcsSegment] = EditVector(
      &pc_constraints_, edits.pc,
      [](const PCConstraint& pc) {
        return Endpoints(pc.lhs_relation, pc.rhs_relation);
      },
      [&](size_t i, const Endpoints& old) {
        const PCConstraint& pc = pc_constraints_[i];
        MoveIndexEntry(&pcs_by_pair_, PairKey(old.first, old.second),
                       PairKey(pc.lhs_relation, pc.rhs_relation), i);
      },
      &dropped_any);
  // A drop shifts every later position: rebuild instead of patching.
  if (dropped_any) Reindex();
  return changed;
}

std::vector<const JoinConstraint*> Mkb::JoinConstraintsOf(
    const std::string& relation) const {
  std::vector<const JoinConstraint*> out;
  const auto it = joins_by_relation_.find(relation);
  if (it == joins_by_relation_.end()) return out;
  out.reserve(it->second.size());
  for (const size_t index : it->second) {
    out.push_back(&join_constraints_[index]);
  }
  return out;
}

std::vector<const JoinConstraint*> Mkb::JoinConstraintsBetween(
    const std::string& a, const std::string& b) const {
  std::vector<const JoinConstraint*> out;
  const auto it = joins_by_pair_.find(PairKey(a, b));
  if (it == joins_by_pair_.end()) return out;
  out.reserve(it->second.size());
  for (const size_t index : it->second) {
    out.push_back(&join_constraints_[index]);
  }
  return out;
}

std::vector<const FunctionOfConstraint*> Mkb::CoversOf(
    const AttributeRef& attr) const {
  std::vector<const FunctionOfConstraint*> out;
  const auto it = covers_by_target_.find(AttrKey(attr));
  if (it == covers_by_target_.end()) return out;
  out.reserve(it->second.size());
  for (const size_t index : it->second) {
    out.push_back(&function_of_constraints_[index]);
  }
  return out;
}

std::vector<const PCConstraint*> Mkb::PCConstraintsBetween(
    const std::string& a, const std::string& b) const {
  std::vector<const PCConstraint*> out;
  const auto it = pcs_by_pair_.find(PairKey(a, b));
  if (it == pcs_by_pair_.end()) return out;
  out.reserve(it->second.size());
  for (const size_t index : it->second) {
    out.push_back(&pc_constraints_[index]);
  }
  return out;
}

Result<const JoinConstraint*> Mkb::GetJoinConstraint(
    const std::string& id) const {
  const auto it = constraint_by_id_.find(id);
  if (it == constraint_by_id_.end() ||
      it->second.kind != ConstraintKind::kJoin) {
    return Status::NotFound("join constraint not found: " + id);
  }
  return &join_constraints_[it->second.index];
}

Result<const FunctionOfConstraint*> Mkb::GetFunctionOf(
    const std::string& id) const {
  const auto it = constraint_by_id_.find(id);
  if (it == constraint_by_id_.end() ||
      it->second.kind != ConstraintKind::kFunctionOf) {
    return Status::NotFound("function-of constraint not found: " + id);
  }
  return &function_of_constraints_[it->second.index];
}

std::string Mkb::ToString() const {
  std::ostringstream os;
  os << "-- Relations --\n" << catalog_.ToString();
  os << "-- Join constraints --\n";
  for (const JoinConstraint& jc : join_constraints_) {
    os << jc.ToString() << "\n";
  }
  os << "-- Function-of constraints --\n";
  for (const FunctionOfConstraint& fc : function_of_constraints_) {
    os << fc.ToString() << "\n";
  }
  os << "-- PC constraints --\n";
  for (const PCConstraint& pc : pc_constraints_) {
    os << pc.ToString() << "\n";
  }
  return os.str();
}

}  // namespace eve
