// The string-keyed candidate enumeration that preceded the interned
// CandidateStream in cvs/r_replacement.cc, kept as the oracle of
// candidate_stream_test, enumeration_equivalence_test and the eager
// baseline of bench_enumeration:
//  * ComputeRReplacementsEager, the eager cartesian-product enumeration
//    the lazy stream replaced;
//  * CandidateExtentFloor, the string-keyed extent floor;
//  * CandidateStream, the stream that assembled every popped tree into a
//    full ReplacementCandidate (names, JC copies, a string dedup key and
//    the string extent floor) before pushing it back on its heap.
// Each is unchanged except for the dedup key: CandidateKey length-prefixes
// every name, where the old key joined them with '|' and so merged, e.g.,
// the trees {A, B, X, Y} and {"A|B", X, Y}.

#ifndef EVE_TESTS_LEGACY_CANDIDATE_STREAM_H_
#define EVE_TESTS_LEGACY_CANDIDATE_STREAM_H_

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "cvs/cost_model.h"
#include "cvs/extent_relation.h"
#include "cvs/r_mapping.h"
#include "cvs/r_replacement.h"
#include "esql/view_definition.h"
#include "hypergraph/join_graph.h"
#include "join_tree_drain.h"
#include "mkb/mkb.h"

namespace eve {
namespace legacy {

inline void AddUnique(std::vector<AttributeRef>* refs,
                      const AttributeRef& ref) {
  if (std::find(refs->begin(), refs->end(), ref) == refs->end()) {
    refs->push_back(ref);
  }
}

// Attributes of `relation` appearing in `expr`.
inline std::vector<AttributeRef> AttrsOfRelation(const Expr& expr,
                                                 const std::string& relation) {
  std::vector<AttributeRef> cols;
  expr.CollectColumns(&cols);
  std::vector<AttributeRef> out;
  for (const AttributeRef& ref : cols) {
    if (ref.relation == relation) AddUnique(&out, ref);
  }
  return out;
}

// Canonical identity of a candidate: its tree's relations and its
// substitutions in order. Every part is length-prefixed, so no two
// distinct candidates share a key whatever their names contain.
inline std::string CandidateKey(const ReplacementCandidate& candidate) {
  std::string key;
  const auto append = [&](const std::string& part) {
    key += std::to_string(part.size());
    key += ':';
    key += part;
  };
  for (const std::string& rel : candidate.tree.relations) append(rel);
  key += '#';
  for (const AttributeReplacement& repl : candidate.replacements) {
    append(repl.original.ToString());
    append(repl.constraint_id);
  }
  return key;
}

// One covered-attribute correspondence: R.target replaced via f(S.source).
struct CoverPair {
  AttributeRef target;  // attribute of the dropped relation R
  AttributeRef source;  // attribute of the cover relation S
};

// True when `pc`, oriented with `s` on the lhs, certifies at least one of
// `pairs`.
inline bool PcCertifiesAPair(const PCConstraint& pc, const std::string& s,
                             const std::vector<CoverPair>& pairs) {
  const bool s_is_lhs = pc.lhs_relation == s;
  const std::vector<AttributeRef>& s_attrs =
      s_is_lhs ? pc.lhs_attrs : pc.rhs_attrs;
  const std::vector<AttributeRef>& r_attrs =
      s_is_lhs ? pc.rhs_attrs : pc.lhs_attrs;
  for (size_t i = 0; i < s_attrs.size(); ++i) {
    for (const CoverPair& pair : pairs) {
      if (s_attrs[i] == pair.source && r_attrs[i] == pair.target) {
        return true;
      }
    }
  }
  return false;
}

// Direction contributed by the strongest PC constraint between `r` and `s`
// that certifies one of `pairs` (any PC when `pairs` is empty).
inline ExtentRelation PcJustification(const Mkb& mkb, const std::string& r,
                                      const std::string& s,
                                      const std::vector<CoverPair>& pairs) {
  ExtentRelation best = ExtentRelation::kUnknown;
  for (const PCConstraint* pc : mkb.PCConstraintsBetween(r, s)) {
    if (!pairs.empty() && !PcCertifiesAPair(*pc, s, pairs)) continue;
    SetRelation rel = pc->relation;
    if (pc->lhs_relation == r) rel = FlipSetRelation(rel);
    ExtentRelation contribution = ExtentRelation::kUnknown;
    switch (rel) {
      case SetRelation::kEqual:
        contribution = ExtentRelation::kEqual;
        break;
      case SetRelation::kSuperset:
      case SetRelation::kProperSuperset:
        contribution = ExtentRelation::kSuperset;
        break;
      case SetRelation::kSubset:
      case SetRelation::kProperSubset:
        contribution = ExtentRelation::kSubset;
        break;
    }
    if (contribution == ExtentRelation::kEqual) return contribution;
    if (best == ExtentRelation::kUnknown) best = contribution;
  }
  return best;
}

// The tree-and-cover extent floor of `candidate`: the combined PC
// justification of its covers plus its Steiner relations.
inline ExtentRelation CandidateExtentFloor(
    const RMapping& mapping, const ReplacementCandidate& candidate,
    const Mkb& mkb) {
  ExtentRelation result = ExtentRelation::kEqual;
  const std::string& r = mapping.relation;
  std::map<std::string, std::vector<CoverPair>> cover_pairs;
  for (const AttributeReplacement& repl : candidate.replacements) {
    std::vector<AttributeRef> sources;
    repl.replacement->CollectColumns(&sources);
    if (sources.empty()) continue;
    cover_pairs[repl.cover_relation].push_back(
        CoverPair{repl.original, sources[0]});
  }
  for (const auto& [s, pairs] : cover_pairs) {
    result =
        CombineExtent(result, legacy::PcJustification(mkb, r, s, pairs));
  }
  std::set<std::string> kept(mapping.relations.begin(),
                             mapping.relations.end());
  for (const std::string& rel : candidate.tree.relations) {
    if (kept.count(rel) > 0 || cover_pairs.count(rel) > 0) continue;
    result =
        CombineExtent(result, legacy::PcJustification(mkb, r, rel, {}));
  }
  return result;
}

// The replacements of `chosen` plus the opportunistic covers `tree` offers
// the remaining optional attributes (paper Ex. 10: Age -> f(Birthday)).
inline ReplacementCandidate AssembleCandidate(
    JoinTree tree, const std::vector<const FunctionOfConstraint*>& chosen,
    const std::vector<AttributeRef>& choice_attrs,
    const std::vector<AttributeRef>& optional_attrs, const std::string& r,
    const Mkb& mkb) {
  ReplacementCandidate candidate;
  candidate.tree = std::move(tree);
  std::set<AttributeRef> replaced;
  for (size_t i = 0; i < chosen.size(); ++i) {
    if (chosen[i] == nullptr) continue;  // skipped optional cover
    candidate.replacements.push_back(
        AttributeReplacement{choice_attrs[i], chosen[i]->fn,
                             chosen[i]->source.relation, chosen[i]->id});
    replaced.insert(choice_attrs[i]);
  }
  for (const AttributeRef& attr : optional_attrs) {
    if (replaced.count(attr) > 0) continue;
    const FunctionOfConstraint* found = nullptr;
    for (const FunctionOfConstraint* fc : mkb.CoversOf(attr)) {
      if (fc->source.relation == r) continue;
      if (std::binary_search(candidate.tree.relations.begin(),
                             candidate.tree.relations.end(),
                             fc->source.relation)) {
        found = fc;
        break;
      }
    }
    if (found != nullptr) {
      candidate.replacements.push_back(AttributeReplacement{
          attr, found->fn, found->source.relation, found->id});
    } else {
      candidate.unreplaced.push_back(attr);
    }
  }
  return candidate;
}

// The eager enumeration: every cover combination's join trees drained and
// assembled, deduplicated, then sorted smallest tree first.
inline Result<std::vector<ReplacementCandidate>> ComputeRReplacementsEager(
    const ViewDefinition& view, const RMapping& mapping, const Mkb& mkb,
    const JoinGraph& graph_prime, const RReplacementOptions& options) {
  const std::string& r = mapping.relation;
  EVE_ASSIGN_OR_RETURN(const AttributeNeeds needs,
                       ClassifyAttributeNeeds(view, mapping));

  std::set<std::string> kept;
  for (const std::string& rel : mapping.relations) {
    if (rel != r) kept.insert(rel);
  }
  std::vector<JoinConstraint> mandatory_edges;
  for (const JoinConstraint& edge : mapping.min_edges) {
    if (!edge.Involves(r)) mandatory_edges.push_back(edge);
  }

  std::vector<std::vector<const FunctionOfConstraint*>> cover_choices;
  std::vector<AttributeRef> choice_attrs;
  for (const AttributeRef& attr : needs.mandatory) {
    std::vector<const FunctionOfConstraint*> candidates;
    for (const FunctionOfConstraint* fc : mkb.CoversOf(attr)) {
      if (fc->source.relation == r) continue;
      if (!graph_prime.HasRelation(fc->source.relation)) continue;
      candidates.push_back(fc);
    }
    if (candidates.empty()) return std::vector<ReplacementCandidate>{};
    cover_choices.push_back(std::move(candidates));
    choice_attrs.push_back(attr);
  }
  if (options.chase_optional_covers) {
    for (const AttributeRef& attr : needs.optional) {
      std::vector<const FunctionOfConstraint*> candidates{nullptr};
      for (const FunctionOfConstraint* fc : mkb.CoversOf(attr)) {
        if (fc->source.relation == r) continue;
        if (!graph_prime.HasRelation(fc->source.relation)) continue;
        candidates.push_back(fc);
      }
      if (candidates.size() > 1) {
        cover_choices.push_back(std::move(candidates));
        choice_attrs.push_back(attr);
      }
    }
  }

  std::vector<ReplacementCandidate> results;
  std::set<std::string> dedup_keys;
  std::vector<size_t> combo(cover_choices.size(), 0);
  size_t combos_tried = 0;
  while (true) {
    if (combos_tried++ >= options.max_cover_combinations) break;
    std::set<std::string> required = kept;
    std::vector<const FunctionOfConstraint*> chosen;
    chosen.reserve(combo.size());
    for (size_t i = 0; i < combo.size(); ++i) {
      chosen.push_back(cover_choices[i][combo[i]]);
      if (chosen.back() != nullptr) {
        required.insert(chosen.back()->source.relation);
      }
    }
    if (!required.empty()) {
      JoinTreeSearchOptions search;
      search.max_extra_relations = options.max_extra_relations;
      for (JoinTree& tree : testing_trees::DrainJoinTrees(
               graph_prime, required, mandatory_edges, search,
               options.max_results)) {
        ReplacementCandidate candidate =
            AssembleCandidate(std::move(tree), chosen, choice_attrs,
                              needs.optional, r, mkb);
        if (dedup_keys.insert(CandidateKey(candidate)).second) {
          results.push_back(std::move(candidate));
        }
        if (results.size() >= options.max_results) return results;
      }
    }
    size_t pos = 0;
    while (pos < combo.size()) {
      if (++combo[pos] < cover_choices[pos].size()) break;
      combo[pos] = 0;
      ++pos;
    }
    if (pos == combo.size()) break;
    if (combo.empty()) break;
  }
  std::stable_sort(results.begin(), results.end(),
                   [](const ReplacementCandidate& a,
                      const ReplacementCandidate& b) {
                     return a.tree.relations.size() < b.tree.relations.size();
                   });
  return results;
}

// The string-keyed best-first stream: the same API, order, bounds and
// counters as eve::CandidateStream.
class CandidateStream {
 public:
  static Result<CandidateStream> Create(const ViewDefinition& view,
                                        const RMapping& mapping,
                                        const Mkb& mkb,
                                        const JoinGraph& graph_prime,
                                        const RReplacementOptions& options,
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
    stream.optional_attrs_ = needs.optional;
    for (const std::string& rel : mapping.relations) {
      if (rel != r) stream.kept_.insert(rel);
    }
    for (const JoinConstraint& edge : mapping.min_edges) {
      if (!edge.Involves(r)) stream.mandatory_edges_.push_back(edge);
    }
    for (const ViewRelation& rel : view.from()) {
      if (rel.name != r) stream.from_minus_r_.insert(rel.name);
    }

    std::vector<std::vector<const FunctionOfConstraint*>> cover_choices;
    for (const AttributeRef& attr : needs.mandatory) {
      std::vector<const FunctionOfConstraint*> candidates;
      for (const FunctionOfConstraint* fc : mkb.CoversOf(attr)) {
        if (fc->source.relation == r) continue;
        if (!graph_prime.HasRelation(fc->source.relation)) continue;
        candidates.push_back(fc);
      }
      if (candidates.empty()) return stream;  // born exhausted
      cover_choices.push_back(std::move(candidates));
      stream.choice_attrs_.push_back(attr);
    }
    if (options.chase_optional_covers) {
      for (const AttributeRef& attr : needs.optional) {
        std::vector<const FunctionOfConstraint*> candidates{nullptr};
        for (const FunctionOfConstraint* fc : mkb.CoversOf(attr)) {
          if (fc->source.relation == r) continue;
          if (!graph_prime.HasRelation(fc->source.relation)) continue;
          candidates.push_back(fc);
        }
        if (candidates.size() > 1) {
          cover_choices.push_back(std::move(candidates));
          stream.choice_attrs_.push_back(attr);
        }
      }
    }

    std::set<AttributeRef> coverable(needs.mandatory.begin(),
                                     needs.mandatory.end());
    for (const AttributeRef& attr : needs.optional) {
      for (const FunctionOfConstraint* fc : mkb.CoversOf(attr)) {
        if (fc->source.relation == r) continue;
        if (!graph_prime.HasRelation(fc->source.relation)) continue;
        coverable.insert(attr);
        break;
      }
    }
    for (const ViewSelectItem& item : view.select()) {
      const std::vector<AttributeRef> attrs = AttrsOfRelation(*item.expr, r);
      if (attrs.empty()) continue;
      const bool preservable =
          std::all_of(attrs.begin(), attrs.end(), [&](const AttributeRef& a) {
            return coverable.count(a) > 0;
          });
      if (!preservable) ++stream.dropped_floor_;
    }

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
      c.required = stream.kept_;
      c.chosen.reserve(combo.size());
      for (size_t i = 0; i < combo.size(); ++i) {
        c.chosen.push_back(cover_choices[i][combo[i]]);
        if (c.chosen.back() != nullptr) {
          c.required.insert(c.chosen.back()->source.relation);
        }
      }
      if (!c.required.empty()) {
        ReplacementCandidate floor_probe;
        for (size_t i = 0; i < c.chosen.size(); ++i) {
          if (c.chosen[i] == nullptr) continue;
          floor_probe.replacements.push_back(AttributeReplacement{
              stream.choice_attrs_[i], c.chosen[i]->fn,
              c.chosen[i]->source.relation, c.chosen[i]->id});
        }
        c.extent_floor = CandidateExtentFloor(mapping, floor_probe, mkb);
        PartialCandidate partial;
        partial.original_from_size = view.from().size();
        partial.join_width =
            stream.JoinWidthLowerBound(c.required, c.required.size());
        partial.dropped_attributes = stream.dropped_floor_;
        partial.extent_floor = c.extent_floor;
        c.base_lower_bound = LowerBound(partial, model);

        const size_t index = stream.combos_.size();
        stream.combos_.push_back(std::move(c));
        State state;
        state.lower_bound = stream.combos_[index].base_lower_bound;
        state.kind = StateKind::kSearch;
        state.combo_index = index;
        stream.PushState(std::move(state));
      }
      size_t pos = 0;
      while (pos < combo.size()) {
        if (++combo[pos] < cover_choices[pos].size()) break;
        combo[pos] = 0;
        ++pos;
      }
      if (pos == combo.size()) break;
      if (combo.empty()) break;
    }
    stream.stats_.combos_generated = stream.combos_.size();
    if (total_combos > options.max_cover_combinations) {
      stream.stats_.combos_truncated =
          total_combos - options.max_cover_combinations;
    }
    return stream;
  }

  std::optional<ReplacementCandidate> Next() {
    if (deadline_stopped_) return std::nullopt;
    while (!heap_.empty()) {
      if (options_.token.Expired()) {
        MarkDeadlineStop(0);
        return std::nullopt;
      }
      State top = heap_.top();
      heap_.pop();
      if (top.kind == StateKind::kReady) {
        if (!options_.token.Spend(1)) {
          PushState(std::move(top));
          MarkDeadlineStop(0);
          return std::nullopt;
        }
        ++stats_.candidates_yielded;
        return std::move(top.ready);
      }
      Combo& combo = combos_[top.combo_index];
      if (!combo.enumerator.has_value()) {
        JoinTreeSearchOptions search;
        search.max_extra_relations = options_.max_extra_relations;
        search.token = options_.token;
        combo.enumerator.emplace(*graph_, combo.required, mandatory_edges_,
                                 search);
        if (combo.enumerator->Exhausted()) continue;
      }
      const double fresh = SearchLowerBound(combo);
      if (fresh > top.lower_bound) {
        top.lower_bound = fresh;
        PushState(std::move(top));
        continue;
      }
      std::optional<JoinTree> tree = combo.enumerator->Next();
      FoldEnumeratorStats(&combo);
      if (!tree.has_value()) {
        if (combo.enumerator->interrupted()) {
          State search_state;
          search_state.lower_bound = top.lower_bound;
          search_state.kind = StateKind::kSearch;
          search_state.combo_index = top.combo_index;
          PushState(std::move(search_state));
          MarkDeadlineStop(combo.enumerator->NextTreeSizeLowerBound());
          return std::nullopt;
        }
        continue;
      }
      if (!combo.enumerator->Exhausted()) {
        State search_state;
        search_state.lower_bound = SearchLowerBound(combo);
        search_state.kind = StateKind::kSearch;
        search_state.combo_index = top.combo_index;
        PushState(std::move(search_state));
      }

      ReplacementCandidate candidate =
          AssembleCandidate(std::move(*tree), combo.chosen, choice_attrs_,
                            optional_attrs_, mapping_->relation, *mkb_);
      if (!dedup_keys_.insert(CandidateKey(candidate)).second) {
        ++stats_.duplicates_skipped;
        continue;
      }
      size_t new_relations = 0;
      for (const std::string& rel : candidate.tree.relations) {
        if (from_minus_r_.count(rel) == 0) ++new_relations;
      }
      PartialCandidate partial;
      partial.original_from_size = view_->from().size();
      partial.join_width = from_minus_r_.size() + new_relations;
      partial.dropped_attributes =
          CountDroppedSelectItems(candidate.replacements);
      partial.extent_floor = CandidateExtentFloor(*mapping_, candidate, *mkb_);
      candidate.extent_floor = partial.extent_floor;
      candidate.cost_lower_bound =
          std::max(LowerBound(partial, model_), top.lower_bound);

      State ready;
      ready.lower_bound = candidate.cost_lower_bound;
      ready.kind = StateKind::kReady;
      ready.combo_index = top.combo_index;
      ready.ready = std::move(candidate);
      PushState(std::move(ready));
    }
    stats_.exhausted = true;
    return std::nullopt;
  }

  double NextLowerBound() const {
    if (heap_.empty()) return std::numeric_limits<double>::infinity();
    return heap_.top().lower_bound;
  }
  bool Exhausted() const { return heap_.empty(); }
  size_t PendingStates() const { return heap_.size(); }
  bool deadline_stopped() const { return deadline_stopped_; }
  const EnumerationStats& stats() const { return stats_; }

  std::vector<std::string> TruncationNotes() const {
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

 private:
  struct Combo {
    std::vector<const FunctionOfConstraint*> chosen;  // null = skipped
    std::set<std::string> required;
    ExtentRelation extent_floor = ExtentRelation::kEqual;
    double base_lower_bound = 0.0;
    std::optional<JoinTreeEnumerator> enumerator;
    size_t seen_expanded = 0;
    size_t seen_cut = 0;
  };
  enum class StateKind { kSearch, kReady };
  struct State {
    double lower_bound = 0.0;
    uint64_t seq = 0;
    StateKind kind = StateKind::kSearch;
    size_t combo_index = 0;
    std::optional<ReplacementCandidate> ready;
  };
  struct StateGreater {
    bool operator()(const State& a, const State& b) const {
      if (a.lower_bound != b.lower_bound) {
        return a.lower_bound > b.lower_bound;
      }
      return a.seq > b.seq;
    }
  };

  CandidateStream() = default;

  void PushState(State state) {
    state.seq = next_seq_++;
    heap_.push(std::move(state));
  }

  double SearchLowerBound(const Combo& combo) const {
    PartialCandidate partial;
    partial.original_from_size = view_->from().size();
    partial.join_width = JoinWidthLowerBound(
        combo.required, combo.enumerator->NextTreeSizeLowerBound());
    partial.dropped_attributes = dropped_floor_;
    partial.extent_floor = combo.extent_floor;
    return std::max(LowerBound(partial, model_), combo.base_lower_bound);
  }

  size_t JoinWidthLowerBound(const std::set<std::string>& required,
                             size_t tree_size) const {
    size_t outside_from = 0;
    for (const std::string& rel : required) {
      if (from_minus_r_.count(rel) == 0) ++outside_from;
    }
    if (tree_size > from_minus_r_.size()) {
      outside_from = std::max(outside_from, tree_size - from_minus_r_.size());
    }
    return from_minus_r_.size() + outside_from;
  }

  size_t CountDroppedSelectItems(
      const std::vector<AttributeReplacement>& replacements) const {
    std::set<AttributeRef> replaced;
    for (const AttributeReplacement& repl : replacements) {
      replaced.insert(repl.original);
    }
    size_t dropped = 0;
    for (const ViewSelectItem& item : view_->select()) {
      const std::vector<AttributeRef> attrs =
          AttrsOfRelation(*item.expr, mapping_->relation);
      if (attrs.empty()) continue;
      const bool substitutable =
          std::all_of(attrs.begin(), attrs.end(), [&](const AttributeRef& a) {
            return replaced.count(a) > 0;
          });
      if (!substitutable) ++dropped;
    }
    return dropped;
  }

  void FoldEnumeratorStats(Combo* combo) {
    const size_t expanded = combo->enumerator->sets_expanded();
    const size_t cut = combo->enumerator->sets_cut();
    stats_.trees_expanded += expanded - combo->seen_expanded;
    stats_.search_sets_cut += cut - combo->seen_cut;
    combo->seen_expanded = expanded;
    combo->seen_cut = cut;
  }

  void MarkDeadlineStop(size_t frontier_bound) {
    deadline_stopped_ = true;
    stats_.deadline.partial = true;
    if (stats_.deadline.frontier_bound == 0) {
      stats_.deadline.frontier_bound = frontier_bound;
    }
  }

  const ViewDefinition* view_ = nullptr;
  const RMapping* mapping_ = nullptr;
  const Mkb* mkb_ = nullptr;
  const JoinGraph* graph_ = nullptr;
  RReplacementOptions options_;
  RewritingCostModel model_;

  std::vector<AttributeRef> choice_attrs_;
  std::vector<AttributeRef> optional_attrs_;
  std::set<std::string> kept_;
  std::vector<JoinConstraint> mandatory_edges_;
  std::set<std::string> from_minus_r_;
  size_t dropped_floor_ = 0;

  std::vector<Combo> combos_;
  std::priority_queue<State, std::vector<State>, StateGreater> heap_;
  std::set<std::string> dedup_keys_;
  uint64_t next_seq_ = 0;
  EnumerationStats stats_;
  bool deadline_stopped_ = false;
};

}  // namespace legacy
}  // namespace eve

#endif  // EVE_TESTS_LEGACY_CANDIDATE_STREAM_H_
