#include "mkb/mkb.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

namespace eve {

namespace {

void AddRelationOf(const AttributeRef& ref, std::vector<std::string>* out) {
  if (!ref.relation.empty() &&
      std::find(out->begin(), out->end(), ref.relation) == out->end()) {
    out->push_back(ref.relation);
  }
}

void AddRelationsOf(const ExprPtr& expr, std::vector<std::string>* out) {
  if (expr == nullptr) return;
  std::vector<AttributeRef> cols;
  expr->CollectColumns(&cols);
  for (const AttributeRef& ref : cols) AddRelationOf(ref, out);
}

// The relations whose blocks list a constraint: those it names.
std::vector<std::string> RelationsOf(const JoinConstraint& jc) {
  return {jc.lhs, jc.rhs};  // AddJoinConstraint refuses a self-join
}
std::vector<std::string> RelationsOf(const FunctionOfConstraint& fc) {
  return {fc.target.relation, fc.source.relation};  // distinct, as validated
}
std::vector<std::string> RelationsOf(const PCConstraint& pc) {
  std::vector<std::string> out = {pc.lhs_relation};
  AddRelationOf({pc.rhs_relation, ""}, &out);
  // A selection is not validated against the endpoints, so index it under
  // every relation it reads: a change to one of them can rewrite it.
  AddRelationsOf(pc.lhs_condition, &out);
  AddRelationsOf(pc.rhs_condition, &out);
  return out;
}

bool Has(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

// Edits of relation blocks, each block copied once on its first edit and
// installed by Commit().
class Mkb::BlockEditor {
 public:
  using Slots = std::vector<uint64_t> RelationBlock::*;

  explicit BlockEditor(Mkb* mkb) : mkb_(mkb) {}

  void Add(const std::string& relation, Slots slots, uint64_t seq) {
    std::vector<uint64_t>& list = Block(relation).*slots;
    const auto it = std::lower_bound(list.begin(), list.end(), seq);
    if (it == list.end() || *it != seq) list.insert(it, seq);
  }
  void Remove(const std::string& relation, Slots slots, uint64_t seq) {
    std::vector<uint64_t>& list = Block(relation).*slots;
    const auto it = std::lower_bound(list.begin(), list.end(), seq);
    if (it != list.end() && *it == seq) list.erase(it);
  }
  // Moves `seq`'s entries from the relations it named to those it names.
  void Relink(const std::vector<std::string>& before,
              const std::vector<std::string>& after, Slots slots,
              uint64_t seq) {
    for (const std::string& relation : before) {
      if (!Has(after, relation)) Remove(relation, slots, seq);
    }
    for (const std::string& relation : after) {
      if (!Has(before, relation)) Add(relation, slots, seq);
    }
  }

  void Commit() {
    for (auto& [relation, block] : touched_) {
      if (block.joins.empty() && block.functions.empty() &&
          block.pcs.empty()) {
        mkb_->blocks_.Erase(relation);
      } else {
        mkb_->blocks_.Set(relation, std::make_shared<const RelationBlock>(
                                        std::move(block)));
      }
    }
    touched_.clear();
  }

 private:
  RelationBlock& Block(const std::string& relation) {
    const auto it = touched_.find(relation);
    if (it != touched_.end()) return it->second;
    const RelationBlock* current = mkb_->BlockOf(relation);
    return touched_
        .emplace(relation, current != nullptr ? *current : RelationBlock())
        .first->second;
  }

  Mkb* mkb_;
  std::map<std::string, RelationBlock> touched_;
};

namespace {

// Applies `edit` to a copy of each constraint of `seq` at `slots` (in
// order) and installs the outcomes together: a rewritten copy takes the
// slot and moves its block entries; a dropped constraint leaves its slot
// empty and loses its id and entries. Returns whether any was rewritten or
// dropped.
template <typename Constraint, typename Edit, typename Slots, typename Editor,
          typename Ids>
bool EditSlots(ChunkedSeq<Constraint>* seq, const std::vector<uint64_t>& slots,
               const Edit& edit, Slots member, Editor* blocks, Ids* ids) {
  if (!edit) return false;
  std::vector<std::pair<uint64_t, std::shared_ptr<const Constraint>>> outcomes;
  for (const uint64_t slot : slots) {
    const Constraint& current = *seq->At(slot);
    Constraint copy = current;
    switch (edit(&copy)) {
      case Mkb::ConstraintEdit::kKept:
        break;
      case Mkb::ConstraintEdit::kRewritten:
        blocks->Relink(RelationsOf(current), RelationsOf(copy), member, slot);
        outcomes.emplace_back(
            slot, std::make_shared<const Constraint>(std::move(copy)));
        break;
      case Mkb::ConstraintEdit::kDropped:
        blocks->Relink(RelationsOf(current), {}, member, slot);
        ids->Erase(current.id);
        outcomes.emplace_back(slot, nullptr);
        break;
    }
  }
  const bool changed = !outcomes.empty();
  seq->Replace(std::move(outcomes));
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

const Mkb::RelationBlock* Mkb::BlockOf(const std::string& relation) const {
  const std::shared_ptr<const RelationBlock>* block = blocks_.Find(relation);
  return block != nullptr ? block->get() : nullptr;
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
  const std::vector<std::string> relations = RelationsOf(jc);
  const std::string id = jc.id;
  const uint64_t seq =
      joins_.Append(std::make_shared<const JoinConstraint>(std::move(jc)));
  ids_.Set(id, ConstraintSlot{ConstraintKind::kJoin, seq});
  BlockEditor blocks(this);
  blocks.Relink({}, relations, &RelationBlock::joins, seq);
  blocks.Commit();
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
  const std::vector<std::string> relations = RelationsOf(fc);
  const std::string id = fc.id;
  const uint64_t seq = functions_.Append(
      std::make_shared<const FunctionOfConstraint>(std::move(fc)));
  ids_.Set(id, ConstraintSlot{ConstraintKind::kFunctionOf, seq});
  BlockEditor blocks(this);
  blocks.Relink({}, relations, &RelationBlock::functions, seq);
  blocks.Commit();
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
  const std::vector<std::string> relations = RelationsOf(pc);
  const std::string id = pc.id;
  const uint64_t seq =
      pcs_.Append(std::make_shared<const PCConstraint>(std::move(pc)));
  ids_.Set(id, ConstraintSlot{ConstraintKind::kPc, seq});
  BlockEditor blocks(this);
  blocks.Relink({}, relations, &RelationBlock::pcs, seq);
  blocks.Commit();
  return Status::OK();
}

Status Mkb::RemoveConstraint(const std::string& id) {
  const ConstraintSlot* found = ids_.Find(id);
  if (found == nullptr) {
    return Status::NotFound("constraint not found: " + id);
  }
  const ConstraintSlot slot = *found;
  const ConstraintEdits drop_it = {
      [](JoinConstraint*) { return ConstraintEdit::kDropped; },
      [](FunctionOfConstraint*) { return ConstraintEdit::kDropped; },
      [](PCConstraint*) { return ConstraintEdit::kDropped; }};
  const std::vector<uint64_t> slots = {slot.seq};
  BlockEditor blocks(this);
  switch (slot.kind) {
    case ConstraintKind::kJoin:
      EditSlots(&joins_, slots, drop_it.join, &RelationBlock::joins, &blocks,
                &ids_);
      break;
    case ConstraintKind::kFunctionOf:
      EditSlots(&functions_, slots, drop_it.function_of,
                &RelationBlock::functions, &blocks, &ids_);
      break;
    case ConstraintKind::kPc:
      EditSlots(&pcs_, slots, drop_it.pc, &RelationBlock::pcs, &blocks, &ids_);
      break;
  }
  blocks.Commit();
  return Status::OK();
}

MkbSegmentSet Mkb::EditConstraintsOf(const std::string& relation,
                                     const ConstraintEdits& edits) {
  const RelationBlock* block = BlockOf(relation);
  if (block == nullptr) return {};
  // The edits below replace the block; walk the slots it held.
  const RelationBlock reach = *block;
  BlockEditor blocks(this);
  MkbSegmentSet changed;
  changed[kJoinsSegment] = EditSlots(&joins_, reach.joins, edits.join,
                                     &RelationBlock::joins, &blocks, &ids_);
  changed[kFunctionsSegment] =
      EditSlots(&functions_, reach.functions, edits.function_of,
                &RelationBlock::functions, &blocks, &ids_);
  changed[kPcsSegment] = EditSlots(&pcs_, reach.pcs, edits.pc,
                                   &RelationBlock::pcs, &blocks, &ids_);
  blocks.Commit();
  return changed;
}

std::vector<const JoinConstraint*> Mkb::JoinConstraintsOf(
    const std::string& relation) const {
  std::vector<const JoinConstraint*> out;
  const RelationBlock* block = BlockOf(relation);
  if (block == nullptr) return out;
  out.reserve(block->joins.size());
  for (const uint64_t seq : block->joins) out.push_back(joins_.At(seq));
  return out;
}

std::vector<const JoinConstraint*> Mkb::JoinConstraintsBetween(
    const std::string& a, const std::string& b) const {
  std::vector<const JoinConstraint*> out;
  const RelationBlock* block = BlockOf(a);
  if (block == nullptr) return out;
  for (const uint64_t seq : block->joins) {
    const JoinConstraint* jc = joins_.At(seq);
    if ((jc->lhs == a && jc->rhs == b) || (jc->lhs == b && jc->rhs == a)) {
      out.push_back(jc);
    }
  }
  return out;
}

std::vector<const FunctionOfConstraint*> Mkb::CoversOf(
    const AttributeRef& attr) const {
  std::vector<const FunctionOfConstraint*> out;
  const RelationBlock* block = BlockOf(attr.relation);
  if (block == nullptr) return out;
  for (const uint64_t seq : block->functions) {
    const FunctionOfConstraint* fc = functions_.At(seq);
    if (fc->target == attr) out.push_back(fc);
  }
  return out;
}

std::vector<const PCConstraint*> Mkb::PCConstraintsBetween(
    const std::string& a, const std::string& b) const {
  std::vector<const PCConstraint*> out;
  const RelationBlock* block = BlockOf(a);
  if (block == nullptr) return out;
  for (const uint64_t seq : block->pcs) {
    const PCConstraint* pc = pcs_.At(seq);
    if ((pc->lhs_relation == a && pc->rhs_relation == b) ||
        (pc->lhs_relation == b && pc->rhs_relation == a)) {
      out.push_back(pc);
    }
  }
  return out;
}

Result<const JoinConstraint*> Mkb::GetJoinConstraint(
    const std::string& id) const {
  const ConstraintSlot* slot = ids_.Find(id);
  if (slot == nullptr || slot->kind != ConstraintKind::kJoin) {
    return Status::NotFound("join constraint not found: " + id);
  }
  return joins_.At(slot->seq);
}

Result<const FunctionOfConstraint*> Mkb::GetFunctionOf(
    const std::string& id) const {
  const ConstraintSlot* slot = ids_.Find(id);
  if (slot == nullptr || slot->kind != ConstraintKind::kFunctionOf) {
    return Status::NotFound("function-of constraint not found: " + id);
  }
  return functions_.At(slot->seq);
}

std::string Mkb::ToString() const {
  std::ostringstream os;
  os << "-- Relations --\n" << catalog_.ToString();
  os << "-- Join constraints --\n";
  for (const JoinConstraint& jc : joins_) {
    os << jc.ToString() << "\n";
  }
  os << "-- Function-of constraints --\n";
  for (const FunctionOfConstraint& fc : functions_) {
    os << fc.ToString() << "\n";
  }
  os << "-- PC constraints --\n";
  for (const PCConstraint& pc : pcs_) {
    os << pc.ToString() << "\n";
  }
  return os.str();
}

}  // namespace eve
