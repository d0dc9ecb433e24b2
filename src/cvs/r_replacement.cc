#include "cvs/r_replacement.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "cvs/extent.h"

namespace eve {

namespace {

void AddUnique(std::vector<AttributeRef>* refs, const AttributeRef& ref) {
  if (std::find(refs->begin(), refs->end(), ref) == refs->end()) {
    refs->push_back(ref);
  }
}

// Attributes of `relation` appearing in `expr`.
std::vector<AttributeRef> AttrsOfRelation(const Expr& expr,
                                          const std::string& relation) {
  std::vector<AttributeRef> cols;
  expr.CollectColumns(&cols);
  std::vector<AttributeRef> out;
  for (const AttributeRef& ref : cols) {
    if (ref.relation == relation) AddUnique(&out, ref);
  }
  return out;
}

bool Contains(const std::vector<uint32_t>& sorted, uint32_t value) {
  return std::binary_search(sorted.begin(), sorted.end(), value);
}

}  // namespace

std::string ReplacementCandidate::ToString() const {
  std::ostringstream os;
  os << "candidate: " << tree.ToString();
  for (const AttributeReplacement& repl : replacements) {
    os << "\n  " << repl.ToString();
  }
  for (const AttributeRef& ref : unreplaced) {
    os << "\n  " << ref.ToString() << " -> (dropped)";
  }
  return os.str();
}

Result<AttributeNeeds> ClassifyAttributeNeeds(const ViewDefinition& view,
                                              const RMapping& mapping) {
  const std::string& r = mapping.relation;
  AttributeNeeds needs;

  for (const ViewSelectItem& item : view.select()) {
    const std::vector<AttributeRef> attrs = AttrsOfRelation(*item.expr, r);
    if (attrs.empty()) continue;
    if (!item.params.dispensable && !item.params.replaceable) {
      return Status::ViewDisabled(
          "view " + view.name() + ": SELECT item '" + item.output_name +
          "' is indispensable and non-replaceable but references " + r);
    }
    for (const AttributeRef& ref : attrs) {
      if (!item.params.dispensable) {
        AddUnique(&needs.mandatory, ref);
      } else if (item.params.replaceable) {
        AddUnique(&needs.optional, ref);
      }
      // Dispensable + non-replaceable: the component is simply dropped.
    }
  }

  // Conditions consumed by Min(H_R) become join edges of the replacement
  // and need no covers; all other conditions referencing R do.
  std::set<size_t> consumed(mapping.consumed_conditions.begin(),
                            mapping.consumed_conditions.end());
  for (size_t i = 0; i < view.where().size(); ++i) {
    if (consumed.count(i) > 0) continue;
    const ViewCondition& cond = view.where()[i];
    const std::vector<AttributeRef> attrs = AttrsOfRelation(*cond.clause, r);
    if (attrs.empty()) continue;
    if (!cond.params.dispensable && !cond.params.replaceable) {
      return Status::ViewDisabled(
          "view " + view.name() + ": condition '" + cond.clause->ToString() +
          "' is indispensable and non-replaceable but references " + r);
    }
    for (const AttributeRef& ref : attrs) {
      if (!cond.params.dispensable) {
        AddUnique(&needs.mandatory, ref);
      } else if (cond.params.replaceable) {
        AddUnique(&needs.optional, ref);
      }
    }
  }

  // An attribute needed mandatorily anywhere is not optional.
  std::erase_if(needs.optional, [&](const AttributeRef& ref) {
    return std::find(needs.mandatory.begin(), needs.mandatory.end(), ref) !=
           needs.mandatory.end();
  });
  return needs;
}

std::string DeadlineStats::ToString() const {
  if (work_budget == 0 && stop_cause == StopCause::kNone && !partial) {
    return "";
  }
  std::ostringstream os;
  os << "deadline: spent " << work_spent;
  if (work_budget > 0) os << "/" << work_budget;
  os << " units";
  if (stop_cause != StopCause::kNone) {
    os << ", stopped: " << StopCauseToString(stop_cause);
  }
  if (frontier_bound > 0) os << ", frontier bound " << frontier_bound;
  if (partial) os << ", partial";
  return os.str();
}

void DeadlineStats::MergeFrom(const DeadlineStats& other) {
  work_spent += other.work_spent;
  if (work_budget == 0) work_budget = other.work_budget;
  if (stop_cause == StopCause::kNone) stop_cause = other.stop_cause;
  if (frontier_bound == 0) frontier_bound = other.frontier_bound;
  partial = partial || other.partial;
}

std::string EnumerationStats::ToString() const {
  std::ostringstream os;
  os << "combos " << combos_generated;
  if (combos_truncated > 0) os << " (+" << combos_truncated << " truncated)";
  os << ", trees expanded " << trees_expanded;
  if (search_sets_cut > 0) os << " (" << search_sets_cut << " sets cut)";
  os << ", yielded " << candidates_yielded;
  if (duplicates_skipped > 0) os << ", dups " << duplicates_skipped;
  if (candidates_rejected > 0) os << ", rejected " << candidates_rejected;
  if (states_pending > 0) os << ", pending " << states_pending;
  os << (terminated_early ? ", terminated early"
                          : (exhausted ? ", exhausted" : ""));
  const std::string deadline_text = deadline.ToString();
  if (!deadline_text.empty()) os << "; " << deadline_text;
  return os.str();
}

void EnumerationStats::MergeFrom(const EnumerationStats& other) {
  combos_generated += other.combos_generated;
  combos_truncated += other.combos_truncated;
  trees_expanded += other.trees_expanded;
  search_sets_cut += other.search_sets_cut;
  candidates_yielded += other.candidates_yielded;
  duplicates_skipped += other.duplicates_skipped;
  candidates_rejected += other.candidates_rejected;
  states_pending += other.states_pending;
  exhausted = exhausted && other.exhausted;
  terminated_early = terminated_early || other.terminated_early;
  deadline.MergeFrom(other.deadline);
}

Result<CandidateStream> CandidateStream::Create(
    const ViewDefinition& view, const RMapping& mapping, const Mkb& mkb,
    const JoinGraph& graph_prime, const RReplacementOptions& options,
    const RewritingCostModel& model) {
  const std::string& r = mapping.relation;
  EVE_ASSIGN_OR_RETURN(const AttributeNeeds needs,
                       ClassifyAttributeNeeds(view, mapping));

  CandidateStream stream;
  stream.view_ = &view;
  stream.mapping_ = &mapping;
  stream.mkb_ = &mkb;
  stream.graph_ = &graph_prime;
  stream.options_ = options;
  stream.model_ = model;

  // Sorted graph_prime indices of the relations in `names`.
  const auto indices_of = [&](const auto& names) {
    std::vector<uint32_t> indices;
    for (const std::string& rel : names) {
      const size_t index = graph_prime.IndexOf(rel);
      if (index != JoinGraph::kNpos) {
        indices.push_back(static_cast<uint32_t>(index));
      }
    }
    std::sort(indices.begin(), indices.end());
    return indices;
  };
  // Surviving part of Min(H_R) (Def. 3 (III)).
  std::set<std::string> kept;
  for (const std::string& rel : mapping.relations) {
    if (rel != r) kept.insert(rel);
  }
  stream.mapping_relations_ = indices_of(mapping.relations);
  for (const JoinConstraint& edge : mapping.min_edges) {
    if (!edge.Involves(r)) stream.mandatory_edges_.push_back(edge);
  }
  std::set<std::string> from_minus_r;
  for (const ViewRelation& rel : view.from()) {
    if (rel.name != r) from_minus_r.insert(rel.name);
  }
  stream.from_minus_r_ = from_minus_r.size();
  stream.from_relations_ = indices_of(from_minus_r);

  // Attribute ids: the mandatory attributes of R, then the optional ones
  // (ClassifyAttributeNeeds keeps the lists unique and disjoint).
  stream.attrs_ = needs.mandatory;
  stream.attrs_.insert(stream.attrs_.end(), needs.optional.begin(),
                       needs.optional.end());
  stream.attr_marks_.assign(stream.attrs_.size(), 0);
  // The covers of `attr` a candidate can use, as cover ids in CoversOf
  // order: not sourced at R, and sourced at a relation of graph_prime.
  std::map<const FunctionOfConstraint*, uint32_t> cover_ids;
  const auto usable_covers = [&](const AttributeRef& attr) {
    std::vector<uint32_t> ids;
    for (const FunctionOfConstraint* fc : mkb.CoversOf(attr)) {
      if (fc->source.relation == r) continue;
      const size_t relation = graph_prime.IndexOf(fc->source.relation);
      if (relation == JoinGraph::kNpos) continue;
      const auto [it, inserted] = cover_ids.emplace(
          fc, static_cast<uint32_t>(stream.covers_.size()));
      if (inserted) {
        stream.covers_.push_back(Cover{fc, static_cast<uint32_t>(relation)});
      }
      ids.push_back(it->second);
    }
    return ids;
  };

  // Candidate covers per attribute: one choice list per mandatory
  // attribute, plus — under chase_optional_covers — one per dispensable
  // attribute with a "skip" (kNone) choice.
  std::vector<std::vector<uint32_t>> cover_choices;
  for (size_t i = 0; i < needs.mandatory.size(); ++i) {
    std::vector<uint32_t> candidates = usable_covers(needs.mandatory[i]);
    if (candidates.empty()) {
      // A mandatory attribute with no cover: R-replacement is empty. The
      // stream is born exhausted.
      return stream;
    }
    cover_choices.push_back(std::move(candidates));
    stream.choice_attrs_.push_back(static_cast<uint32_t>(i));
  }
  for (size_t j = 0; j < needs.optional.size(); ++j) {
    stream.optional_attrs_.push_back(
        static_cast<uint32_t>(needs.mandatory.size() + j));
    stream.optional_covers_.push_back(usable_covers(needs.optional[j]));
  }
  if (options.chase_optional_covers) {
    for (size_t j = 0; j < needs.optional.size(); ++j) {
      const std::vector<uint32_t>& covers = stream.optional_covers_[j];
      if (covers.empty()) continue;
      std::vector<uint32_t> candidates{kNone};
      candidates.insert(candidates.end(), covers.begin(), covers.end());
      cover_choices.push_back(std::move(candidates));
      stream.choice_attrs_.push_back(stream.optional_attrs_[j]);
    }
  }

  // SELECT items that mention R, by the attribute ids they need
  // substituted. dropped_floor_ counts the items no candidate can
  // preserve: those mentioning an attribute of R that is neither
  // mandatory (always substituted) nor an optional attribute with at
  // least one usable cover. Admissible floor on dropped_attributes.
  for (const ViewSelectItem& item : view.select()) {
    const std::vector<AttributeRef> attrs = AttrsOfRelation(*item.expr, r);
    if (attrs.empty()) continue;
    std::vector<uint32_t> ids;
    bool preservable = true;
    for (const AttributeRef& attr : attrs) {
      const auto it =
          std::find(stream.attrs_.begin(), stream.attrs_.end(), attr);
      if (it == stream.attrs_.end()) {
        ids.clear();
        preservable = false;
        break;
      }
      const size_t id = static_cast<size_t>(it - stream.attrs_.begin());
      ids.push_back(static_cast<uint32_t>(id));
      if (id >= needs.mandatory.size() &&
          stream.optional_covers_[id - needs.mandatory.size()].empty()) {
        preservable = false;
      }
    }
    if (!preservable) ++stream.dropped_floor_;
    if (ids.empty()) {
      ++stream.never_substitutable_;
    } else {
      stream.select_attrs_.push_back(std::move(ids));
    }
  }

  // Materialize the (bounded) cartesian product of cover choices. This is
  // the one part kept eager: a combo is a few set unions, and the
  // per-combo lower bound is NOT monotone along coordinate-increment
  // edges (switching covers can shrink the required set or strengthen the
  // extent floor), so a lattice-lazy enumeration would be unsound.
  size_t total_combos = 1;
  for (const auto& choices : cover_choices) {
    if (total_combos >
        std::numeric_limits<size_t>::max() / choices.size()) {
      total_combos = std::numeric_limits<size_t>::max();
      break;
    }
    total_combos *= choices.size();
  }
  std::vector<size_t> combo(cover_choices.size(), 0);
  while (stream.combos_.size() < options.max_cover_combinations) {
    Combo c;
    c.required = kept;
    for (size_t i = 0; i < combo.size(); ++i) {
      const uint32_t cover = cover_choices[i][combo[i]];
      if (cover == kNone) continue;  // skipped optional cover
      c.required.insert(stream.covers_[cover].fc->source.relation);
      c.substitutions.emplace_back(stream.choice_attrs_[i], cover);
    }
    if (!c.required.empty()) {
      for (const auto& [attr, cover] : c.substitutions) {
        stream.attr_marks_[attr] = 1;
      }
      for (size_t j = 0; j < stream.optional_attrs_.size(); ++j) {
        if (stream.attr_marks_[stream.optional_attrs_[j]] == 0) {
          c.open_optional.push_back(static_cast<uint32_t>(j));
        }
      }
      for (const auto& [attr, cover] : c.substitutions) {
        stream.attr_marks_[attr] = 0;
      }
      for (const std::string& rel : c.required) {
        if (from_minus_r.count(rel) == 0) ++c.required_outside_from;
      }
      // Extent floor of the chosen covers alone: every later contribution
      // (opportunistic covers, Steiner relations) only moves the combined
      // extent up the lattice.
      c.cover_part = stream.CoverPartOf(c.substitutions);
      PartialCandidate partial;
      partial.original_from_size = view.from().size();
      partial.join_width = stream.JoinWidthLowerBound(c.required_outside_from,
                                                      c.required.size());
      partial.dropped_attributes = stream.dropped_floor_;
      partial.extent_floor = stream.cover_parts_[c.cover_part].extent;
      c.base_lower_bound = LowerBound(partial, model);

      const uint32_t index = static_cast<uint32_t>(stream.combos_.size());
      stream.combos_.push_back(std::move(c));
      State state;
      state.lower_bound = stream.combos_[index].base_lower_bound;
      state.kind = StateKind::kSearch;
      state.combo = index;
      stream.PushState(state);
    }

    // Advance the odometer.
    size_t pos = 0;
    while (pos < combo.size()) {
      if (++combo[pos] < cover_choices[pos].size()) break;
      combo[pos] = 0;
      ++pos;
    }
    if (pos == combo.size()) break;  // odometer wrapped: done
    if (combo.empty()) break;        // no choice lists: single combo
  }
  stream.stats_.combos_generated = stream.combos_.size();
  if (total_combos > options.max_cover_combinations) {
    stream.stats_.combos_truncated =
        total_combos - options.max_cover_combinations;
  }
  return stream;
}

void CandidateStream::PushState(State state) {
  state.seq = next_seq_++;
  heap_.push(state);
}

size_t CandidateStream::JoinWidthLowerBound(size_t required_outside_from,
                                            size_t tree_size) const {
  // Spliced FROM = (view FROM minus R) plus the tree relations not
  // already present. The tree spans `required` and has >= tree_size
  // relations, so it brings in at least
  // max(|required \ FROM|, tree_size - |FROM|) new ones.
  size_t outside_from = required_outside_from;
  if (tree_size > from_minus_r_) {
    outside_from = std::max(outside_from, tree_size - from_minus_r_);
  }
  return from_minus_r_ + outside_from;
}

size_t CandidateStream::CountDroppedSelectItems() const {
  size_t dropped = never_substitutable_;
  for (const std::vector<uint32_t>& ids : select_attrs_) {
    for (const uint32_t id : ids) {
      if (attr_marks_[id] == 0) {
        ++dropped;
        break;
      }
    }
  }
  return dropped;
}

uint32_t CandidateStream::CoverPartOf(
    std::vector<Substitution> substitutions) {
  std::sort(substitutions.begin(), substitutions.end());
  const auto [it, inserted] = cover_part_ids_.try_emplace(
      std::move(substitutions), static_cast<uint32_t>(cover_parts_.size()));
  if (!inserted) return it->second;
  // Cover relations, justified by PC constraints (from the pre-change MKB)
  // that certify the attribute correspondences actually used.
  std::map<uint32_t, std::vector<CoverPair>> pairs;
  for (const auto& [attr, cover] : it->first) {
    std::vector<AttributeRef> sources;
    covers_[cover].fc->fn->CollectColumns(&sources);
    if (sources.empty()) continue;
    pairs[covers_[cover].relation].push_back(
        CoverPair{attrs_[attr], sources[0]});
  }
  CoverPart part;
  for (const auto& [relation, relation_pairs] : pairs) {
    part.extent = CombineExtent(
        part.extent, PcJustification(*mkb_, mapping_->relation,
                                     graph_->relations()[relation],
                                     relation_pairs));
    part.relations.push_back(relation);
  }
  cover_parts_.push_back(std::move(part));
  return it->second;
}

ExtentRelation CandidateStream::SteinerExtent(uint32_t relation) {
  const auto [it, inserted] =
      steiner_extents_.try_emplace(relation, ExtentRelation::kUnknown);
  if (inserted) {
    // A Steiner relation without any PC justification makes the
    // direction unknown.
    it->second = PcJustification(*mkb_, mapping_->relation,
                                 graph_->relations()[relation], {});
  }
  return it->second;
}

void CandidateStream::FoldEnumeratorStats(Combo* combo) {
  const size_t expanded = combo->enumerator->sets_expanded();
  const size_t cut = combo->enumerator->sets_cut();
  stats_.trees_expanded += expanded - combo->seen_expanded;
  stats_.search_sets_cut += cut - combo->seen_cut;
  combo->seen_expanded = expanded;
  combo->seen_cut = cut;
}

double CandidateStream::SearchLowerBound(const Combo& combo) const {
  PartialCandidate partial;
  partial.original_from_size = view_->from().size();
  partial.join_width =
      JoinWidthLowerBound(combo.required_outside_from,
                          combo.enumerator->NextTreeSizeLowerBound());
  partial.dropped_attributes = dropped_floor_;
  partial.extent_floor = cover_parts_[combo.cover_part].extent;
  return std::max(LowerBound(partial, model_), combo.base_lower_bound);
}

std::optional<ReplacementCandidate> CandidateStream::Next() {
  if (deadline_stopped_) return std::nullopt;
  while (!heap_.empty()) {
    // Safe point: a token expired elsewhere (the wall clock, or another
    // layer spending the same token) stops the stream before more work.
    if (options_.token.Expired()) {
      MarkDeadlineStop(0);
      return std::nullopt;
    }
    State top = heap_.top();
    heap_.pop();
    if (top.kind == StateKind::kReady) {
      // Emitting a candidate is one unit of logical work. A refused emit
      // pushes the state back so the stream stays coherent.
      if (!options_.token.Spend(1)) {
        PushState(top);
        MarkDeadlineStop(0);
        return std::nullopt;
      }
      ++stats_.candidates_yielded;
      return Materialize(ready_[top.slot]);
    }
    Combo& combo = combos_[top.combo];
    if (!combo.enumerator.has_value()) {
      JoinTreeSearchOptions search;
      search.max_extra_relations = options_.max_extra_relations;
      search.token = options_.token;
      combo.enumerator.emplace(*graph_, combo.required, mandatory_edges_,
                               search);
      if (combo.enumerator->Exhausted()) continue;  // unreachable combo
    }
    // Lazy key update: the frontier may have grown past this state's
    // recorded bound while other combos were being explored.
    const double fresh = SearchLowerBound(combo);
    if (fresh > top.lower_bound) {
      top.lower_bound = fresh;
      PushState(top);
      continue;
    }
    const bool found = combo.enumerator->NextIndices(&tree_);
    FoldEnumeratorStats(&combo);
    if (!found) {
      // A token stop inside the enumerator must not read as combo
      // exhaustion: record the frontier bound where the search was cut
      // and stop the whole stream (the token is shared).
      if (combo.enumerator->interrupted()) {
        State search_state;
        search_state.lower_bound = top.lower_bound;
        search_state.kind = StateKind::kSearch;
        search_state.combo = top.combo;
        PushState(search_state);
        MarkDeadlineStop(combo.enumerator->NextTreeSizeLowerBound());
        return std::nullopt;
      }
      continue;  // combo exhausted
    }
    if (!combo.enumerator->Exhausted()) {
      State search_state;
      search_state.lower_bound = SearchLowerBound(combo);
      search_state.kind = StateKind::kSearch;
      search_state.combo = top.combo;
      PushState(search_state);
    }
    PushReady(top.combo, top.lower_bound);
  }
  stats_.exhausted = true;
  return std::nullopt;
}

void CandidateStream::PushReady(uint32_t combo_index, double popped_bound) {
  const Combo& combo = combos_[combo_index];
  const std::vector<uint32_t>& relations = tree_.relations;
  // Opportunistic covers for the open optional attributes, using relations
  // already in the tree (paper Ex. 10: Age -> f(Birthday)).
  opportunistic_.clear();
  bool any_opportunistic = false;
  for (const uint32_t j : combo.open_optional) {
    uint32_t found = kNone;
    for (const uint32_t cover : optional_covers_[j]) {
      if (Contains(relations, covers_[cover].relation)) {
        found = cover;
        break;
      }
    }
    opportunistic_.push_back(found);
    any_opportunistic = any_opportunistic || found != kNone;
  }

  // Dedup on (relations, substitutions in order): the relation count,
  // the relation indices, then an (attribute, cover) pair per
  // substitution.
  key_.assign(1, static_cast<uint32_t>(relations.size()));
  key_.insert(key_.end(), relations.begin(), relations.end());
  for (const auto& [attr, cover] : combo.substitutions) {
    key_.push_back(attr);
    key_.push_back(cover);
  }
  for (size_t k = 0; k < opportunistic_.size(); ++k) {
    if (opportunistic_[k] == kNone) continue;
    key_.push_back(optional_attrs_[combo.open_optional[k]]);
    key_.push_back(opportunistic_[k]);
  }
  if (!dedup_keys_.insert(key_).second) {
    ++stats_.duplicates_skipped;
    return;
  }

  // Exact componentwise bound for the finished candidate: width and
  // dropped attributes are now known, the extent floor includes Steiner
  // relations. Clamped to the popped bound so emission stays monotone.
  size_t new_relations = 0;
  for (const uint32_t rel : relations) {
    if (!Contains(from_relations_, rel)) ++new_relations;
  }
  uint32_t cover_part = combo.cover_part;
  for (const auto& [attr, cover] : combo.substitutions) attr_marks_[attr] = 1;
  if (any_opportunistic) {
    std::vector<Substitution> substitutions = combo.substitutions;
    for (size_t k = 0; k < opportunistic_.size(); ++k) {
      if (opportunistic_[k] == kNone) continue;
      const uint32_t attr = optional_attrs_[combo.open_optional[k]];
      attr_marks_[attr] = 1;
      substitutions.emplace_back(attr, opportunistic_[k]);
    }
    cover_part = CoverPartOf(std::move(substitutions));
  }
  const size_t dropped = CountDroppedSelectItems();
  std::fill(attr_marks_.begin(), attr_marks_.end(), 0);
  const CoverPart& part = cover_parts_[cover_part];
  ExtentRelation extent = part.extent;
  for (const uint32_t rel : relations) {
    if (Contains(mapping_relations_, rel) || Contains(part.relations, rel)) {
      continue;
    }
    extent = CombineExtent(extent, SteinerExtent(rel));
  }
  PartialCandidate partial;
  partial.original_from_size = view_->from().size();
  partial.join_width = from_minus_r_ + new_relations;
  partial.dropped_attributes = dropped;
  partial.extent_floor = extent;

  Ready ready;
  ready.combo = combo_index;
  ready.num_relations = static_cast<uint32_t>(relations.size());
  ready.num_edges = static_cast<uint32_t>(tree_.edges.size());
  ready.begin = arena_.size();
  ready.cost_lower_bound =
      std::max(LowerBound(partial, model_), popped_bound);
  ready.extent_floor = extent;
  arena_.insert(arena_.end(), relations.begin(), relations.end());
  arena_.insert(arena_.end(), tree_.edges.begin(), tree_.edges.end());
  arena_.insert(arena_.end(), opportunistic_.begin(), opportunistic_.end());
  ready_.push_back(ready);

  State state;
  state.lower_bound = ready.cost_lower_bound;
  state.kind = StateKind::kReady;
  state.combo = combo_index;
  state.slot = static_cast<uint32_t>(ready_.size() - 1);
  PushState(state);
}

ReplacementCandidate CandidateStream::Materialize(const Ready& ready) const {
  const Combo& combo = combos_[ready.combo];
  const uint32_t* relations = arena_.data() + ready.begin;
  const uint32_t* edges = relations + ready.num_relations;
  const uint32_t* opportunistic = edges + ready.num_edges;
  ReplacementCandidate candidate;
  candidate.tree = combo.enumerator->Materialize(
      {relations, ready.num_relations}, {edges, ready.num_edges});
  const auto substitute = [&](uint32_t attr, uint32_t cover) {
    const FunctionOfConstraint& fc = *covers_[cover].fc;
    candidate.replacements.push_back(AttributeReplacement{
        attrs_[attr], fc.fn, fc.source.relation, fc.id});
  };
  // The chosen covers in choice order, then the optional attributes in
  // order: covered opportunistically, or left unreplaced.
  for (const auto& [attr, cover] : combo.substitutions) {
    substitute(attr, cover);
  }
  for (size_t k = 0; k < combo.open_optional.size(); ++k) {
    const uint32_t attr = optional_attrs_[combo.open_optional[k]];
    if (opportunistic[k] == kNone) {
      candidate.unreplaced.push_back(attrs_[attr]);
    } else {
      substitute(attr, opportunistic[k]);
    }
  }
  candidate.cost_lower_bound = ready.cost_lower_bound;
  candidate.extent_floor = ready.extent_floor;
  return candidate;
}

void CandidateStream::MarkDeadlineStop(size_t frontier_bound) {
  deadline_stopped_ = true;
  stats_.deadline.partial = true;
  if (stats_.deadline.frontier_bound == 0) {
    stats_.deadline.frontier_bound = frontier_bound;
  }
}

double CandidateStream::NextLowerBound() const {
  if (heap_.empty()) return std::numeric_limits<double>::infinity();
  return heap_.top().lower_bound;
}

std::vector<std::string> CandidateStream::TruncationNotes() const {
  std::vector<std::string> notes;
  if (stats_.combos_truncated > 0) {
    notes.push_back(
        "cover-choice enumeration truncated: " +
        std::to_string(stats_.combos_truncated) + " of " +
        std::to_string(stats_.combos_truncated + stats_.combos_generated) +
        " combinations dropped by max_cover_combinations=" +
        std::to_string(options_.max_cover_combinations));
  }
  if (stats_.search_sets_cut > 0) {
    notes.push_back(
        "join-tree search cut " + std::to_string(stats_.search_sets_cut) +
        " frontier sets at max_extra_relations=" +
        std::to_string(options_.max_extra_relations) +
        "; the enumeration may be incomplete");
  }
  return notes;
}

Result<std::vector<ReplacementCandidate>> ComputeRReplacements(
    const ViewDefinition& view, const RMapping& mapping, const Mkb& mkb,
    const JoinGraph& graph_prime, const RReplacementOptions& options) {
  EVE_ASSIGN_OR_RETURN(
      CandidateStream stream,
      CandidateStream::Create(view, mapping, mkb, graph_prime, options,
                              DefaultRankingCostModel()));
  std::vector<ReplacementCandidate> results;
  while (results.size() < options.max_results) {
    std::optional<ReplacementCandidate> candidate = stream.Next();
    if (!candidate.has_value()) break;
    results.push_back(std::move(*candidate));
  }
  // Historical contract: smaller join skeletons first.
  std::stable_sort(results.begin(), results.end(),
                   [](const ReplacementCandidate& a,
                      const ReplacementCandidate& b) {
                     return a.tree.relations.size() < b.tree.relations.size();
                   });
  return results;
}

}  // namespace eve
