// The delete-attribute synchronization algorithm — the paper describes it
// as "a simplified version" of the delete-relation CVS (Sec. 5) and
// illustrates it in Ex. 4: the affected attribute is either dropped (when
// dispensable) or replaced by f(S.B) from a function-of constraint, with
// the cover relation S joined in through a chain of MKB' join constraints
// anchored at the attribute's own relation R (which still exists). The
// candidates come from a per-cover stream; which rewriting the view gets is
// decided by the top-k driver it shares with delete-relation
// (cvs/top_k_driver.h).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <set>

#include "cvs/cvs.h"
#include "cvs/extent.h"
#include "cvs/rewriting.h"
#include "cvs/top_k_driver.h"
#include "hypergraph/join_graph.h"

namespace eve {

namespace {

bool ExprMentions(const Expr& expr, const AttributeRef& attr) {
  std::vector<AttributeRef> cols;
  expr.CollectColumns(&cols);
  return std::find(cols.begin(), cols.end(), attr) != cols.end();
}

// Builds the rewriting for one cover choice: joins the tree's new
// relations into the view and substitutes `fn`, the cover's function, for
// the deleted attribute.
Result<ViewDefinition> SpliceAttributeReplacement(
    const ViewDefinition& view, const AttributeRef& attr, const ExprPtr& fn,
    const JoinTree& tree, const std::string& new_name) {
  std::vector<ViewSelectItem> select;
  for (const ViewSelectItem& item : view.select()) {
    if (!ExprMentions(*item.expr, attr)) {
      select.push_back(item);
      continue;
    }
    select.push_back(
        ViewSelectItem{item.expr->SubstituteColumn(attr, fn),
                       item.output_name, item.params});
  }

  std::vector<ViewRelation> from = view.from();
  std::set<std::string> present;
  for (const ViewRelation& rel : from) present.insert(rel.name);
  for (const std::string& rel : tree.relations) {
    if (present.insert(rel).second) {
      // New relations stand in for the deleted attribute's source; they are
      // indispensable for the replacement but themselves replaceable.
      from.push_back(ViewRelation{rel, EvolutionParams{false, true}});
    }
  }

  std::vector<ViewCondition> where;
  std::set<std::string> existing_clauses;
  for (const ViewCondition& cond : view.where()) {
    if (!ExprMentions(*cond.clause, attr)) {
      where.push_back(cond);
      existing_clauses.insert(cond.clause->ToString());
      continue;
    }
    where.push_back(ViewCondition{
        cond.clause->SubstituteColumn(attr, fn), cond.params});
    existing_clauses.insert(where.back().clause->ToString());
  }
  for (const JoinConstraint& edge : tree.edges) {
    for (const ExprPtr& clause : edge.clauses) {
      // The view may already contain this join condition (e.g. the cover
      // relation was in the FROM list); avoid duplicating it.
      const bool duplicate = std::any_of(
          where.begin(), where.end(), [&](const ViewCondition& wc) {
            return ClausesEquivalent(*wc.clause, *clause);
          });
      if (!duplicate) {
        where.push_back(ViewCondition{clause, EvolutionParams{false, true}});
      }
    }
  }

  std::vector<ExprPtr> conjuncts;
  conjuncts.reserve(where.size());
  for (const ViewCondition& cond : where) conjuncts.push_back(cond.clause);
  EVE_RETURN_IF_ERROR(CheckConjunctionConsistency(conjuncts));

  return ViewDefinition(new_name, view.extent(), std::move(select),
                        std::move(from), std::move(where));
}

// Drop-based rewriting: removes every component referencing the attribute
// (all must be dispensable).
Result<ViewDefinition> DropAttributeRewriting(const ViewDefinition& view,
                                              const AttributeRef& attr,
                                              const std::string& new_name) {
  std::vector<ViewSelectItem> select;
  for (const ViewSelectItem& item : view.select()) {
    if (!ExprMentions(*item.expr, attr)) {
      select.push_back(item);
      continue;
    }
    if (!item.params.dispensable) {
      return Status::ViewDisabled("SELECT item '" + item.output_name +
                                  "' is indispensable but references " +
                                  attr.ToString());
    }
  }
  if (select.empty()) {
    return Status::ViewDisabled("dropping " + attr.ToString() +
                                " would empty the SELECT list of " +
                                view.name());
  }
  std::vector<ViewCondition> where;
  for (const ViewCondition& cond : view.where()) {
    if (!ExprMentions(*cond.clause, attr)) {
      where.push_back(cond);
      continue;
    }
    if (!cond.params.dispensable) {
      return Status::ViewDisabled("condition '" + cond.clause->ToString() +
                                  "' is indispensable but references " +
                                  attr.ToString());
    }
  }
  return ViewDefinition(new_name, view.extent(), std::move(select),
                        view.from(), std::move(where));
}

// The replacement candidates of R.A, best first: one join-tree search per
// function-of constraint of the pre-change MKB that covers R.A, anchored at
// R (which survives the change) and the cover's relation in H'(MKB'),
// merged through a priority queue in nondecreasing lower-bound order. A
// cover's extent (the PC justification of its one cover pair) is fixed up
// front and is the exact final extent, so the only component a search
// refines is the join width. Heap states are plain keys: a ready state
// names its tree's indices in `arena_`, and the JoinTree is built only
// when the state is pulled.
//
// The interface is CandidateStream's, but Next() advances one heap state:
// a ready state yields its candidate, which spends no token unit, and a
// search state expands its search by one tree and yields nothing, so the
// driver re-checks its bounds before every expansion. deadline_stopped(),
// which the driver checks first, is the safe point that reads the token.
// A cover whose search drains without a tree is noted as unreachable when
// that happens, in pull order.
class CoverStream {
 public:
  CoverStream(const ViewDefinition& view, const AttributeRef& attr,
              const Mkb& mkb, const JoinGraph& graph_prime,
              const RReplacementOptions& options,
              const RewritingCostModel& model,
              std::vector<std::string>* notes);

  std::optional<ReplacementCandidate> Next();
  double NextLowerBound() const {
    return heap_.empty() ? std::numeric_limits<double>::infinity()
                         : heap_.top().lower_bound;
  }
  bool Exhausted() const { return heap_.empty(); }
  size_t PendingStates() const { return heap_.size(); }
  // True once the token expired (its own limits or a refused expansion).
  bool deadline_stopped() {
    if (!stats_.deadline.partial && token_.Expired()) {
      stats_.deadline.partial = true;
    }
    return stats_.deadline.partial;
  }
  const EnumerationStats& stats() const { return stats_; }
  std::vector<std::string> TruncationNotes() const;

 private:
  struct Cover {
    const FunctionOfConstraint* fc;
    ExtentRelation extent;
    JoinTreeEnumerator enumerator;
    size_t yielded = 0;
    // Enumerator counters already folded into stats_.
    size_t seen_expanded = 0;
    size_t seen_cut = 0;
  };
  enum class Kind : uint8_t { kSearch, kReady };
  struct State {
    double lower_bound = 0.0;
    uint64_t seq = 0;  // deterministic tie-break: creation order
    Kind kind = Kind::kSearch;
    uint32_t cover = 0;
    uint32_t tree = 0;  // kReady: index into trees_
  };
  // A ready tree's relation and edge indices, back to back in arena_.
  struct ReadyTree {
    size_t begin = 0;
    uint32_t num_relations = 0;
    uint32_t num_edges = 0;
  };
  struct StateGreater {
    bool operator()(const State& a, const State& b) const {
      if (a.lower_bound != b.lower_bound) {
        return a.lower_bound > b.lower_bound;
      }
      return a.seq > b.seq;
    }
  };

  void Push(double lower_bound, Kind kind, uint32_t cover, uint32_t tree) {
    heap_.push(State{lower_bound, next_seq_++, kind, cover, tree});
  }
  // Admissible lower bound for `cover` at a spliced FROM of `join_width`
  // relations. Nothing is ever dropped on this path (components are
  // substituted, not removed), and the extent is exact, so the bound is
  // tight up to the final tree choice.
  double BoundAtWidth(const Cover& cover, size_t join_width) const;
  // The bound of every tree `cover`'s search has not yet yielded: the
  // spliced FROM is FROM ∪ tree, so for a tree of f relations its size is
  // at least |FROM| + max(|{R, S} \ FROM|, f - |FROM|).
  double SearchLowerBound(const Cover& cover) const;
  void NoteUnreachable(const Cover& cover);

  const AttributeRef attr_;
  const RewritingCostModel& model_;
  const DeadlineToken token_;
  const size_t max_extra_relations_;
  std::vector<std::string>* notes_;
  const size_t from_size_;
  std::set<std::string> from_set_;
  // Graph indices of the view's FROM relations (sorted: from_set_ and the
  // graph's relations are both in name order).
  std::vector<uint32_t> from_indices_;
  std::vector<Cover> covers_;
  std::priority_queue<State, std::vector<State>, StateGreater> heap_;
  std::vector<ReadyTree> trees_;
  std::vector<uint32_t> arena_;
  JoinTreeIndices popped_;
  uint64_t next_seq_ = 0;
  EnumerationStats stats_;
};

CoverStream::CoverStream(const ViewDefinition& view, const AttributeRef& attr,
                         const Mkb& mkb, const JoinGraph& graph_prime,
                         const RReplacementOptions& options,
                         const RewritingCostModel& model,
                         std::vector<std::string>* notes)
    : attr_(attr),
      model_(model),
      token_(options.token),
      max_extra_relations_(options.max_extra_relations),
      notes_(notes),
      from_size_(view.from().size()) {
  for (const ViewRelation& rel : view.from()) from_set_.insert(rel.name);
  for (const std::string& rel : from_set_) {
    const size_t index = graph_prime.IndexOf(rel);
    if (index != JoinGraph::kNpos) {
      from_indices_.push_back(static_cast<uint32_t>(index));
    }
  }
  JoinTreeSearchOptions search;
  search.max_extra_relations = options.max_extra_relations;
  search.token = options.token;
  for (const FunctionOfConstraint* fc : mkb.CoversOf(attr)) {
    const std::string& source = fc->source.relation;
    if (source == attr.relation || !graph_prime.HasRelation(source)) continue;
    Cover cover{fc,
                PcJustification(mkb, attr.relation, source,
                                {CoverPair{attr, fc->source}}),
                JoinTreeEnumerator(graph_prime, {attr.relation, source}, {},
                                   search)};
    ++stats_.combos_generated;
    if (cover.enumerator.Exhausted()) {
      // Dead on arrival: different component, so no tree can exist.
      NoteUnreachable(cover);
      continue;
    }
    covers_.push_back(std::move(cover));
    Push(SearchLowerBound(covers_.back()), Kind::kSearch,
         static_cast<uint32_t>(covers_.size() - 1), 0);
  }
}

double CoverStream::BoundAtWidth(const Cover& cover, size_t join_width) const {
  PartialCandidate partial;
  partial.original_from_size = from_size_;
  partial.join_width = join_width;
  partial.extent_floor = cover.extent;
  return LowerBound(partial, model_);
}

double CoverStream::SearchLowerBound(const Cover& cover) const {
  const size_t missing = from_set_.count(cover.fc->source.relation) ? 0u : 1u;
  const size_t tree_size = cover.enumerator.NextTreeSizeLowerBound();
  const size_t beyond = tree_size > from_size_ ? tree_size - from_size_ : 0u;
  return BoundAtWidth(cover, from_size_ + std::max(missing, beyond));
}

void CoverStream::NoteUnreachable(const Cover& cover) {
  notes_->push_back("cover " + cover.fc->id + " (" +
                    cover.fc->source.relation + ") is not reachable from " +
                    attr_.relation + " in H'(MKB')");
}

std::optional<ReplacementCandidate> CoverStream::Next() {
  State state = heap_.top();
  heap_.pop();
  Cover& cover = covers_[state.cover];

  if (state.kind == Kind::kReady) {
    ++stats_.candidates_yielded;
    const ReadyTree& ready = trees_[state.tree];
    const uint32_t* indices = arena_.data() + ready.begin;
    ReplacementCandidate candidate;
    candidate.tree = cover.enumerator.Materialize(
        {indices, ready.num_relations},
        {indices + ready.num_relations, ready.num_edges});
    candidate.replacements.push_back(AttributeReplacement{
        attr_, cover.fc->fn, cover.fc->source.relation, cover.fc->id});
    candidate.cost_lower_bound = state.lower_bound;
    candidate.extent_floor = cover.extent;
    return candidate;
  }

  // Lazy key update: the frontier may have shrunk to larger trees since
  // this state was pushed.
  const double fresh = SearchLowerBound(cover);
  if (fresh > state.lower_bound) {
    state.lower_bound = fresh;
    heap_.push(state);
    return std::nullopt;
  }
  const bool found = cover.enumerator.NextIndices(&popped_);
  const JoinTreeEnumerator& search = cover.enumerator;
  stats_.trees_expanded += search.sets_expanded() - cover.seen_expanded;
  cover.seen_expanded = search.sets_expanded();
  stats_.search_sets_cut += search.sets_cut() - cover.seen_cut;
  cover.seen_cut = search.sets_cut();
  if (!search.Exhausted()) {
    Push(std::max(SearchLowerBound(cover), state.lower_bound), Kind::kSearch,
         state.cover, 0);
  }
  if (search.interrupted()) {
    // The token refused the expansion: the search keeps its frontier, whose
    // smallest unexplored tree size is the first-cut frontier bound.
    stats_.deadline.partial = true;
    stats_.deadline.frontier_bound = search.NextTreeSizeLowerBound();
    return std::nullopt;
  }
  if (found) {
    ++cover.yielded;
    // The spliced FROM is FROM ∪ tree.
    size_t merged = from_set_.size();
    for (const uint32_t rel : popped_.relations) {
      if (!std::binary_search(from_indices_.begin(), from_indices_.end(),
                              rel)) {
        ++merged;
      }
    }
    trees_.push_back(ReadyTree{arena_.size(),
                               static_cast<uint32_t>(popped_.relations.size()),
                               static_cast<uint32_t>(popped_.edges.size())});
    arena_.insert(arena_.end(), popped_.relations.begin(),
                  popped_.relations.end());
    arena_.insert(arena_.end(), popped_.edges.begin(), popped_.edges.end());
    Push(std::max(BoundAtWidth(cover, merged), state.lower_bound), Kind::kReady,
         state.cover, static_cast<uint32_t>(trees_.size() - 1));
  } else if (search.Exhausted() && cover.yielded == 0) {
    // The search drained (possibly cut by max_extra_relations) without a
    // single connecting tree.
    NoteUnreachable(cover);
  }
  return std::nullopt;
}

std::vector<std::string> CoverStream::TruncationNotes() const {
  if (stats_.search_sets_cut == 0) return {};
  return {"join-tree search cut " + std::to_string(stats_.search_sets_cut) +
          " frontier sets at max_extra_relations=" +
          std::to_string(max_extra_relations_) +
          "; the enumeration may be incomplete"};
}

}  // namespace

Result<CvsResult> SynchronizeDeleteAttribute(const ViewDefinition& view,
                                             const std::string& relation,
                                             const std::string& attribute,
                                             const SyncContext& context,
                                             const CvsOptions& options) {
  const AttributeRef attr{relation, attribute};
  if (!view.ReferencesAttribute(attr)) return PassThroughResult(view);
  const CapabilityChange change =
      CapabilityChange::DeleteAttribute(relation, attribute);

  // Classify usages of the attribute.
  bool any_indispensable = false;
  bool replacement_allowed = true;
  bool in_condition = false;
  for (const ViewSelectItem& item : view.select()) {
    if (!ExprMentions(*item.expr, attr)) continue;
    if (!item.params.dispensable) {
      any_indispensable = true;
      if (!item.params.replaceable) replacement_allowed = false;
    }
  }
  for (const ViewCondition& cond : view.where()) {
    if (!ExprMentions(*cond.clause, attr)) continue;
    in_condition = true;
    if (!cond.params.dispensable) {
      any_indispensable = true;
      if (!cond.params.replaceable) replacement_allowed = false;
    }
  }
  CvsResult result;
  if (any_indispensable && !replacement_allowed) {
    result.diagnostics.push_back(
        attr.ToString() +
        " is used by an indispensable, non-replaceable component; the view "
        "must be disabled");
    return result;
  }

  const RewritingCostModel model =
      options.cost_model.has_value() ? *options.cost_model
                                     : DefaultRankingCostModel();
  // The join graph is built once per change and shared by every affected
  // view.
  CoverStream stream(view, attr, context.mkb(), context.graph_prime(),
                     options.replacement, model, &result.diagnostics);
  const RMapping no_mapping;
  TopKRequest request{.view = view,
                      .change = change,
                      .mkb_prime = context.mkb_prime(),
                      .mapping = no_mapping,
                      .options = options,
                      .model = model};
  if (options.include_drop_rewriting && !any_indispensable) {
    // Dropping a dispensable projection column leaves the extent equal on
    // the common interface; dropping a dispensable filter widens it.
    request.drop = DropAttributeRewriting(view, attr, view.name());
    request.drop_extent =
        in_condition ? ExtentRelation::kSuperset : ExtentRelation::kEqual;
  }
  RunTopK(
      std::move(request), &stream,
      [&](const ReplacementCandidate& candidate,
          const std::string& name) -> Result<SplicedCandidate> {
        // The candidate's one replacement is the cover's function.
        const ExprPtr& fn = candidate.replacements.front().replacement;
        EVE_ASSIGN_OR_RETURN(
            ViewDefinition spliced,
            SpliceAttributeReplacement(view, attr, fn, candidate.tree, name));
        return SplicedCandidate{std::move(spliced), candidate.extent_floor};
      },
      [&] {
        FoldDeadline(options.replacement.token, &result);
        for (std::string& note : stream.TruncationNotes()) {
          result.diagnostics.push_back(std::move(note));
        }
      },
      &result);
  if (result.rewritings.empty()) {
    result.diagnostics.push_back("no legal rewriting found for " +
                                 view.name() + " under " + change.ToString());
  }
  return result;
}

}  // namespace eve
