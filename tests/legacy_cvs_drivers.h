// The two delete-change top-k drivers that preceded the shared one in
// cvs/top_k_driver.h, kept as the oracle of cvs_driver_equivalence_test:
// SynchronizeDeleteRelation (cvs/cvs.cc) pulled a CandidateStream, and
// SynchronizeDeleteAttribute (cvs/delete_attribute.cc) ran its own
// per-cover best-first heap with its own pull cap, drop admission, ranking
// and deadline accounting. Both are unchanged except for their namespace
// and `inline`, and for two options that became constants with the
// shared driver: the pull cap is max_results alone (the tighter of it and
// a candidate budget was the cap before), and rewritings are named with
// the paper's "'". So are the delete-attribute splice and drop helpers
// they call.

#ifndef EVE_TESTS_LEGACY_CVS_DRIVERS_H_
#define EVE_TESTS_LEGACY_CVS_DRIVERS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cvs/cvs.h"
#include "cvs/extent.h"
#include "cvs/rewriting.h"
#include "hypergraph/join_graph.h"

namespace eve {
namespace legacy {

inline bool ExprMentions(const Expr& expr, const AttributeRef& attr) {
  std::vector<AttributeRef> cols;
  expr.CollectColumns(&cols);
  return std::find(cols.begin(), cols.end(), attr) != cols.end();
}

// Builds the rewriting for one cover choice: joins the tree's new
// relations into the view and substitutes the deleted attribute.
inline Result<ViewDefinition> SpliceAttributeReplacement(
    const ViewDefinition& view, const AttributeRef& attr,
    const FunctionOfConstraint& cover, const JoinTree& tree,
    const std::string& new_name) {
  std::vector<ViewSelectItem> select;
  for (const ViewSelectItem& item : view.select()) {
    if (!ExprMentions(*item.expr, attr)) {
      select.push_back(item);
      continue;
    }
    select.push_back(
        ViewSelectItem{item.expr->SubstituteColumn(attr, cover.fn),
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
        cond.clause->SubstituteColumn(attr, cover.fn), cond.params});
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
inline Result<ViewDefinition> DropAttributeRewriting(
    const ViewDefinition& view, const AttributeRef& attr,
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

inline Result<CvsResult> SynchronizeDeleteRelation(
    const ViewDefinition& view, const std::string& relation,
    const SyncContext& context, const CvsOptions& options = {}) {
  CvsResult result;
  if (!view.HasFromRelation(relation)) {
    // Unaffected view: CVS is a no-op (the caller detects affectedness;
    // returning the view unchanged keeps the API composable).
    SynchronizedView unchanged;
    unchanged.view = view;
    unchanged.legality.p1_unaffected = true;
    unchanged.legality.p2_evaluable = true;
    unchanged.legality.p3_extent = true;
    unchanged.legality.p4_parameters = true;
    unchanged.legality.inferred_extent = ExtentRelation::kEqual;
    result.rewritings.push_back(std::move(unchanged));
    return result;
  }

  const CapabilityChange change = CapabilityChange::DeleteRelation(relation);
  const Mkb& mkb = context.mkb();
  const Mkb& mkb_prime = context.mkb_prime();

  // Step 1: H_R(MKB) — we work on the relation-level join graph of MKB'
  // (H'_R is its restriction to R's former component), built once per
  // change and shared by every affected view.
  const JoinGraph& graph_prime = context.graph_prime();

  // Step 2: R-mapping (Def. 2).
  EVE_ASSIGN_OR_RETURN(const RMapping mapping,
                       ComputeRMapping(view, relation, mkb));

  // One ranking path: the explicit cost model or the built-in default
  // encoding the historical lexicographic order.
  const RewritingCostModel model =
      options.cost_model.has_value() ? *options.cost_model
                                     : DefaultRankingCostModel();

  // Step 3: R-replacement (Def. 3), as a lazy best-first stream.
  std::optional<CandidateStream> stream;
  {
    Result<CandidateStream> stream_or = CandidateStream::Create(
        view, mapping, mkb, graph_prime, options.replacement, model);
    if (stream_or.ok()) {
      stream.emplace(stream_or.MoveValue());
    } else {
      result.diagnostics.push_back(stream_or.status().ToString());
    }
  }

  // Relation evolution parameters gate the replacement path (P4).
  EvolutionParams r_params{false, true};
  for (const ViewRelation& rel : view.from()) {
    if (rel.name == relation) r_params = rel.params;
  }

  int name_counter = 0;
  auto next_name = [&]() {
    ++name_counter;
    std::string name = view.name() + "'";
    if (name_counter > 1) name += std::to_string(name_counter);
    return name;
  };

  // Accepted rewritings in arrival order; the drop-based rewriting (when
  // legal) is appended last, as before.
  std::vector<SynchronizedView> accepted;
  TopKBound top_k(options.top_k);

  // Build the drop-based rewriting up front: its cost participates in the
  // top-k bound, letting the pull loop stop before exploring candidates
  // that cannot beat it. It is named, and joins the result, after the
  // loop, which keeps the historical names and result order (neither the
  // legality check nor the score reads the name).
  const bool drop_wanted =
      options.include_drop_rewriting && r_params.dispensable;
  Status drop_status = Status::OK();  // why there is no drop rewriting
  SynchronizedView drop;
  if (drop_wanted) {
    Result<ViewDefinition> dropped =
        DropRelationRewriting(view, relation, view.name());
    drop_status = dropped.status();
    if (dropped.ok()) {
      drop.mapping = mapping;
      drop.is_drop = true;
      // Dropping a relation (and only dispensable components with it)
      // projects away columns and removes join filters: on the common
      // interface the new extent contains the old one.
      drop.legality = CheckLegality(view, dropped.value(), change, mkb_prime,
                                    ExtentRelation::kSuperset, {});
      drop.cost = ScoreRewriting(view, dropped.value(),
                                 drop.legality.inferred_extent, model);
      drop.view = dropped.MoveValue();
      if (drop.legality.legal() || !options.require_view_extent) {
        top_k.SetDrop(drop.cost.total);
      }
    }
  }

  const size_t pull_cap = options.replacement.max_results;

  // Steps 4-6, pull-driven: splice/legality-check candidates strictly in
  // lower-bound order, stopping as soon as the stream provably cannot
  // improve the top-k.
  size_t pulled = 0;
  if (stream.has_value()) {
    const size_t probe_limit = r_params.replaceable ? pull_cap : 1;
    while (true) {
      if (top_k.Excludes(stream->NextLowerBound())) {
        if (!stream->Exhausted()) {
          result.enumeration.terminated_early = true;
          std::ostringstream note;
          note << "top-k early termination: next candidate lower bound "
               << stream->NextLowerBound() << " >= k-th best cost "
               << top_k.KthBest() << " with " << stream->PendingStates()
               << " queue states unexplored";
          result.diagnostics.push_back(note.str());
        }
        break;
      }
      if (probe_limit > 0 && pulled >= probe_limit) {
        if (!stream->Exhausted() && r_params.replaceable) {
          result.diagnostics.push_back(
              "max_results=" + std::to_string(pull_cap) +
              " stopped the enumeration after " + std::to_string(pulled) +
              " candidates with " + std::to_string(stream->PendingStates()) +
              " queue states unexplored; the result may be incomplete");
        }
        break;
      }
      std::optional<ReplacementCandidate> candidate_or = stream->Next();
      if (!candidate_or.has_value()) break;
      ++pulled;
      if (!r_params.replaceable) continue;  // emptiness probe only
      const ReplacementCandidate candidate = std::move(*candidate_or);

      Result<ViewDefinition> spliced =
          SpliceRewriting(view, mapping, candidate, next_name());
      if (!spliced.ok()) {
        result.diagnostics.push_back("candidate rejected: " +
                                     spliced.status().ToString());
        ++result.enumeration.candidates_rejected;
        continue;
      }
      // One local copy, moved into the result below (the definition used
      // to be copied three times per candidate).
      ViewDefinition spliced_view = spliced.MoveValue();
      std::map<AttributeRef, ExprPtr> substitution;
      for (const AttributeReplacement& repl : candidate.replacements) {
        substitution.emplace(repl.original, repl.replacement);
      }
      const ExtentRelation extent =
          InferExtentRelation(view, spliced_view, mapping, candidate);
      SynchronizedView synced;
      synced.mapping = mapping;
      synced.candidate = candidate;
      synced.legality = CheckLegality(view, spliced_view, change, mkb_prime,
                                      extent, substitution);
      synced.cost = ScoreRewriting(view, spliced_view, extent, model);
      synced.view = std::move(spliced_view);
      if (!synced.legality.legal()) {
        if (options.require_view_extent || !synced.legality.p1_unaffected ||
            !synced.legality.p2_evaluable ||
            !synced.legality.p4_parameters) {
          result.diagnostics.push_back("candidate rejected: " +
                                       synced.legality.ToString());
          ++result.enumeration.candidates_rejected;
          continue;
        }
      }
      top_k.AddCandidate(synced.cost.total);
      accepted.push_back(std::move(synced));
    }
  }
  if (!r_params.replaceable) {
    result.diagnostics.push_back("relation " + relation +
                                 " is non-replaceable (RR=false); "
                                 "replacement path skipped");
  }
  if (stream.has_value() && stream->stats().candidates_yielded == 0 &&
      stream->Exhausted()) {
    result.diagnostics.push_back(
        "R-replacement(" + view.name() + ", H'_" + relation +
        "(MKB')) is empty: no join chain in MKB' covers the required "
        "attributes");
  }

  // Drop-based rewriting for a dispensable relation.
  if (drop_wanted) {
    const std::string name = next_name();
    if (drop_status.ok()) {
      drop.view.set_name(name);
      if (drop.legality.legal() || !options.require_view_extent) {
        accepted.push_back(std::move(drop));
      } else {
        result.diagnostics.push_back("drop-based rewriting rejected: " +
                                     drop.legality.ToString());
      }
    } else {
      result.diagnostics.push_back("drop-based rewriting not possible: " +
                                   drop_status.ToString());
    }
  }

  // Final ranking: lowest total first; ties keep arrival order
  // (replacement candidates in stream order, then the drop rewriting).
  std::stable_sort(accepted.begin(), accepted.end(),
                   [](const SynchronizedView& a, const SynchronizedView& b) {
                     return a.cost.total < b.cost.total;
                   });
  if (options.top_k > 0 && accepted.size() > options.top_k) {
    result.diagnostics.push_back(
        "ranked " + std::to_string(accepted.size()) +
        " legal rewritings; returning the top " +
        std::to_string(options.top_k));
    accepted.resize(options.top_k);
  }
  result.rewritings = std::move(accepted);

  if (stream.has_value()) {
    EnumerationStats stats = stream->stats();
    stats.candidates_rejected = result.enumeration.candidates_rejected;
    stats.terminated_early = result.enumeration.terminated_early;
    stats.states_pending = stream->PendingStates();
    stats.exhausted = stream->Exhausted();
    result.enumeration = stats;
    for (std::string& note : stream->TruncationNotes()) {
      result.diagnostics.push_back(std::move(note));
    }
  }
  // Fold the token's accounting in after the stream stats (which carry
  // partial/frontier_bound from the stop itself). The rewritings list is
  // a valid best-first prefix either way; `partial` tells the caller it
  // is a prefix, not the full space.
  const DeadlineToken& token = options.replacement.token;
  if (token.valid()) {
    result.enumeration.deadline.work_spent = token.work_spent();
    result.enumeration.deadline.work_budget = token.work_budget();
    result.enumeration.deadline.stop_cause = token.cause();
    if (result.enumeration.deadline.partial) {
      result.diagnostics.push_back(
          "deadline stopped the enumeration (" +
          std::string(StopCauseToString(token.cause())) + " after " +
          std::to_string(token.work_spent()) +
          " work units); returning the best-under-budget prefix");
    }
  }
  return result;
}

inline Result<CvsResult> SynchronizeDeleteAttribute(
    const ViewDefinition& view, const std::string& relation,
    const std::string& attribute, const SyncContext& context,
    const CvsOptions& options = {}) {
  CvsResult result;
  const Mkb& mkb = context.mkb();
  const Mkb& mkb_prime = context.mkb_prime();
  const AttributeRef attr{relation, attribute};
  const CapabilityChange change =
      CapabilityChange::DeleteAttribute(relation, attribute);

  if (!view.ReferencesAttribute(attr)) {
    SynchronizedView unchanged;
    unchanged.view = view;
    unchanged.legality.p1_unaffected = true;
    unchanged.legality.p2_evaluable = true;
    unchanged.legality.p3_extent = true;
    unchanged.legality.p4_parameters = true;
    unchanged.legality.inferred_extent = ExtentRelation::kEqual;
    result.rewritings.push_back(std::move(unchanged));
    return result;
  }

  // Classify usages of the attribute.
  bool any_indispensable = false;
  bool replacement_allowed = true;
  for (const ViewSelectItem& item : view.select()) {
    if (!ExprMentions(*item.expr, attr)) continue;
    if (!item.params.dispensable) {
      any_indispensable = true;
      if (!item.params.replaceable) replacement_allowed = false;
    }
  }
  for (const ViewCondition& cond : view.where()) {
    if (!ExprMentions(*cond.clause, attr)) continue;
    if (!cond.params.dispensable) {
      any_indispensable = true;
      if (!cond.params.replaceable) replacement_allowed = false;
    }
  }
  if (any_indispensable && !replacement_allowed) {
    result.diagnostics.push_back(
        attr.ToString() +
        " is used by an indispensable, non-replaceable component; the view "
        "must be disabled");
    return result;
  }

  int name_counter = 0;
  auto next_name = [&]() {
    ++name_counter;
    std::string name = view.name() + "'";
    if (name_counter > 1) name += std::to_string(name_counter);
    return name;
  };

  const RewritingCostModel model =
      options.cost_model.has_value() ? *options.cost_model
                                     : DefaultRankingCostModel();

  const size_t from_size = view.from().size();
  std::set<std::string> from_set;
  for (const ViewRelation& rel : view.from()) from_set.insert(rel.name);

  // Replacement path: cover the attribute via a function-of constraint
  // from the pre-change MKB, joined in through MKB' (anchored at R, which
  // still exists after a delete-attribute change). The join graph is built
  // once per change and shared by every affected view.
  //
  // Like the delete-relation driver, the candidates are explored lazily in
  // nondecreasing lower-bound order: one resumable join-tree enumerator per
  // cover, merged through a priority queue. A cover's extent contribution
  // (the PC justification of its one cover pair) is fixed up front and is
  // the exact final extent, so the only component the search refines is
  // the join width. Heap states are plain keys: a ready state names the
  // tree's indices in `trees`, and the JoinTree is built only when the
  // state is pulled.
  const JoinGraph& graph_prime = context.graph_prime();
  // Graph indices of the view's FROM relations (sorted: from_set and the
  // graph's relations are both in name order).
  std::vector<uint32_t> from_indices;
  for (const std::string& rel : from_set) {
    const size_t index = graph_prime.IndexOf(rel);
    if (index != JoinGraph::kNpos) {
      from_indices.push_back(static_cast<uint32_t>(index));
    }
  }

  struct CoverState {
    const FunctionOfConstraint* cover;
    ExtentRelation extent;
    JoinTreeEnumerator enumerator;
    size_t yielded = 0;
    size_t seen_expanded = 0;
    size_t seen_cut = 0;
  };
  enum class Kind : uint8_t { kSearch, kReady };
  struct State {
    double lower_bound = 0.0;
    uint64_t seq = 0;  // deterministic tie-break: creation order
    Kind kind = Kind::kSearch;
    uint32_t cover_index = 0;
    uint32_t tree = 0;  // kReady: index into `trees`
  };
  // A ready tree's relation and edge indices, back to back in `arena`.
  struct ReadyTree {
    size_t begin = 0;
    uint32_t num_relations = 0;
    uint32_t num_edges = 0;
  };
  std::vector<ReadyTree> trees;
  std::vector<uint32_t> arena;
  JoinTreeIndices popped;
  struct StateGreater {
    bool operator()(const State& a, const State& b) const {
      if (a.lower_bound != b.lower_bound) {
        return a.lower_bound > b.lower_bound;
      }
      return a.seq > b.seq;
    }
  };

  std::vector<CoverState> cover_states;
  std::priority_queue<State, std::vector<State>, StateGreater> heap;
  uint64_t next_seq = 0;

  // Admissible lower bound given a cover and a tree-relation count f: the
  // spliced FROM is FROM ∪ tree, so its size is at least
  // |FROM| + max(|{R, S} \ FROM|, f - |FROM|). Nothing is ever dropped on
  // this path (components are substituted, not removed), and the extent is
  // exact, so the bound is tight up to the final tree choice.
  auto width_bound = [&](const CoverState& cs, size_t tree_size) {
    const size_t missing =
        from_set.count(cs.cover->source.relation) ? 0u : 1u;
    const size_t beyond = tree_size > from_size ? tree_size - from_size : 0u;
    return from_size + std::max(missing, beyond);
  };
  auto cover_lower_bound = [&](const CoverState& cs, size_t join_width) {
    PartialCandidate partial;
    partial.original_from_size = from_size;
    partial.join_width = join_width;
    partial.extent_floor = cs.extent;
    return LowerBound(partial, model);
  };
  auto search_lower_bound = [&](const CoverState& cs) {
    return cover_lower_bound(
        cs, width_bound(cs, cs.enumerator.NextTreeSizeLowerBound()));
  };
  auto fold_stats = [&](CoverState& cs) {
    result.enumeration.trees_expanded +=
        cs.enumerator.sets_expanded() - cs.seen_expanded;
    cs.seen_expanded = cs.enumerator.sets_expanded();
    result.enumeration.search_sets_cut +=
        cs.enumerator.sets_cut() - cs.seen_cut;
    cs.seen_cut = cs.enumerator.sets_cut();
  };
  auto unreachable_note = [&](const CoverState& cs) {
    result.diagnostics.push_back(
        "cover " + cs.cover->id + " (" + cs.cover->source.relation +
        ") is not reachable from " + relation + " in H'(MKB')");
  };

  JoinTreeSearchOptions search;
  search.max_extra_relations = options.replacement.max_extra_relations;
  search.token = options.replacement.token;
  for (const FunctionOfConstraint* cover : mkb.CoversOf(attr)) {
    if (cover->source.relation == relation) continue;
    if (!graph_prime.HasRelation(cover->source.relation)) continue;
    CoverState cs{cover,
                  PcJustification(mkb, relation, cover->source.relation,
                                  {CoverPair{attr, cover->source}}),
                  JoinTreeEnumerator(graph_prime,
                                     {relation, cover->source.relation}, {},
                                     search)};
    ++result.enumeration.combos_generated;
    if (cs.enumerator.Exhausted()) {
      // Dead on arrival: different component, so no tree can exist.
      unreachable_note(cs);
      continue;
    }
    const uint32_t index = static_cast<uint32_t>(cover_states.size());
    cover_states.push_back(std::move(cs));
    heap.push(State{search_lower_bound(cover_states[index]), next_seq++,
                    Kind::kSearch, index, 0});
  }

  // Accepted replacement-based rewritings in arrival (lower-bound) order;
  // the drop-based rewriting is appended after the loop, as before.
  std::vector<SynchronizedView> accepted;
  TopKBound top_k(options.top_k);

  // Build the drop-based rewriting up front so its cost participates in
  // the top-k bound. It is named, and joins the result, after the loop,
  // which keeps the historical names and result order (neither the
  // legality check nor the score reads the name).
  const bool drop_possible =
      options.include_drop_rewriting && !any_indispensable;
  bool dropped_condition = false;
  for (const ViewCondition& cond : view.where()) {
    if (ExprMentions(*cond.clause, attr)) dropped_condition = true;
  }
  // Dropping a dispensable projection column leaves the extent equal on
  // the common interface; dropping a dispensable filter widens it.
  const ExtentRelation drop_extent = dropped_condition
                                         ? ExtentRelation::kSuperset
                                         : ExtentRelation::kEqual;
  Status drop_status = Status::OK();  // why there is no drop rewriting
  SynchronizedView drop;
  if (drop_possible) {
    Result<ViewDefinition> dropped =
        DropAttributeRewriting(view, attr, view.name());
    drop_status = dropped.status();
    if (dropped.ok()) {
      drop.is_drop = true;
      drop.legality = CheckLegality(view, dropped.value(), change, mkb_prime,
                                    drop_extent, {});
      drop.cost = ScoreRewriting(view, dropped.value(),
                                 drop.legality.inferred_extent, model);
      drop.view = dropped.MoveValue();
      if (drop.legality.legal() || !options.require_view_extent) {
        top_k.SetDrop(drop.cost.total);
      }
    }
  }

  const size_t pull_cap = options.replacement.max_results;

  size_t pulled = 0;
  bool deadline_partial = false;
  size_t deadline_frontier = 0;
  while (!heap.empty()) {
    // Safe point: stop before more work once the token expired (its own
    // limits, an ancestor's cancellation, or an enumerator's refusal
    // observed below). The accepted prefix stays valid.
    if (options.replacement.token.Expired()) {
      deadline_partial = true;
      break;
    }
    if (top_k.Excludes(heap.top().lower_bound)) {
      result.enumeration.terminated_early = true;
      std::ostringstream note;
      note << "top-k early termination: next candidate lower bound "
           << heap.top().lower_bound << " >= k-th best cost "
           << top_k.KthBest()
           << " with " << heap.size() << " queue states unexplored";
      result.diagnostics.push_back(note.str());
      break;
    }
    if (pull_cap > 0 && pulled >= pull_cap) {
      result.diagnostics.push_back(
          "max_results=" + std::to_string(pull_cap) +
          " stopped the enumeration after " + std::to_string(pulled) +
          " candidates with " + std::to_string(heap.size()) +
          " queue states unexplored; the result may be incomplete");
      break;
    }
    State state = heap.top();
    heap.pop();
    CoverState& cs = cover_states[state.cover_index];

    if (state.kind == Kind::kSearch) {
      // Lazy key update: the frontier may have shrunk to larger trees
      // since this state was pushed.
      const double fresh = search_lower_bound(cs);
      if (fresh > state.lower_bound) {
        state.lower_bound = fresh;
        heap.push(std::move(state));
        continue;
      }
      const bool found = cs.enumerator.NextIndices(&popped);
      fold_stats(cs);
      if (!found && cs.enumerator.interrupted() && deadline_frontier == 0) {
        // First-cut frontier bound: the smallest tree the interrupted
        // search had not yet explored. The Expired() check above ends
        // the loop on the next iteration.
        deadline_frontier = cs.enumerator.NextTreeSizeLowerBound();
      }
      if (!cs.enumerator.Exhausted()) {
        heap.push(State{std::max(search_lower_bound(cs), state.lower_bound),
                        next_seq++, Kind::kSearch, state.cover_index, 0});
      }
      if (found) {
        ++cs.yielded;
        // The spliced FROM is FROM ∪ tree.
        size_t merged = from_set.size();
        for (const uint32_t rel : popped.relations) {
          if (!std::binary_search(from_indices.begin(), from_indices.end(),
                                  rel)) {
            ++merged;
          }
        }
        const double lb =
            std::max(cover_lower_bound(cs, merged), state.lower_bound);
        trees.push_back(
            ReadyTree{arena.size(),
                      static_cast<uint32_t>(popped.relations.size()),
                      static_cast<uint32_t>(popped.edges.size())});
        arena.insert(arena.end(), popped.relations.begin(),
                     popped.relations.end());
        arena.insert(arena.end(), popped.edges.begin(), popped.edges.end());
        heap.push(State{lb, next_seq++, Kind::kReady, state.cover_index,
                        static_cast<uint32_t>(trees.size() - 1)});
      } else if (cs.enumerator.Exhausted() && cs.yielded == 0) {
        // The search drained (possibly cut by max_extra_relations) without
        // a single connecting tree.
        unreachable_note(cs);
      }
      continue;
    }

    // kReady: splice and legality-check the candidate.
    ++pulled;
    ++result.enumeration.candidates_yielded;
    const ReadyTree& ready = trees[state.tree];
    const uint32_t* indices = arena.data() + ready.begin;
    const JoinTree tree = cs.enumerator.Materialize(
        {indices, ready.num_relations},
        {indices + ready.num_relations, ready.num_edges});
    const FunctionOfConstraint& cover = *cs.cover;
    Result<ViewDefinition> spliced =
        SpliceAttributeReplacement(view, attr, cover, tree, next_name());
    if (!spliced.ok()) {
      result.diagnostics.push_back("candidate rejected: " +
                                   spliced.status().ToString());
      ++result.enumeration.candidates_rejected;
      continue;
    }
    // One local copy, moved into the result below.
    ViewDefinition spliced_view = spliced.MoveValue();
    std::map<AttributeRef, ExprPtr> substitution;
    substitution.emplace(attr, cover.fn);
    SynchronizedView synced;
    synced.candidate.tree = tree;
    synced.candidate.cost_lower_bound = state.lower_bound;
    synced.candidate.replacements.push_back(AttributeReplacement{
        attr, cover.fn, cover.source.relation, cover.id});
    synced.legality = CheckLegality(view, spliced_view, change, mkb_prime,
                                    cs.extent, substitution);
    synced.cost = ScoreRewriting(view, spliced_view,
                                 synced.legality.inferred_extent, model);
    synced.view = std::move(spliced_view);
    if (!synced.legality.legal() && options.require_view_extent) {
      result.diagnostics.push_back("candidate rejected: " +
                                   synced.legality.ToString());
      ++result.enumeration.candidates_rejected;
      continue;
    }
    if (!synced.legality.p1_unaffected || !synced.legality.p2_evaluable ||
        !synced.legality.p4_parameters) {
      result.diagnostics.push_back("candidate rejected: " +
                                   synced.legality.ToString());
      ++result.enumeration.candidates_rejected;
      continue;
    }
    top_k.AddCandidate(synced.cost.total);
    accepted.push_back(std::move(synced));
  }
  result.enumeration.states_pending = heap.size();
  result.enumeration.exhausted = heap.empty();
  {
    const DeadlineToken& token = options.replacement.token;
    if (token.valid()) {
      result.enumeration.deadline.work_spent = token.work_spent();
      result.enumeration.deadline.work_budget = token.work_budget();
      result.enumeration.deadline.stop_cause = token.cause();
      if (deadline_partial) {
        result.enumeration.deadline.partial = true;
        result.enumeration.deadline.frontier_bound = deadline_frontier;
        result.diagnostics.push_back(
            "deadline stopped the enumeration (" +
            std::string(StopCauseToString(token.cause())) + " after " +
            std::to_string(token.work_spent()) +
            " work units); returning the best-under-budget prefix");
      }
    }
  }
  if (result.enumeration.search_sets_cut > 0) {
    result.diagnostics.push_back(
        "join-tree search cut " +
        std::to_string(result.enumeration.search_sets_cut) +
        " frontier sets at max_extra_relations=" +
        std::to_string(options.replacement.max_extra_relations) +
        "; the enumeration may be incomplete");
  }

  result.rewritings = std::move(accepted);

  // Drop path: only when every usage is dispensable.
  if (drop_possible) {
    const std::string name = next_name();
    if (drop_status.ok()) {
      drop.view.set_name(name);
      if (drop.legality.legal() || !options.require_view_extent) {
        result.rewritings.push_back(std::move(drop));
      } else {
        result.diagnostics.push_back("drop-based rewriting rejected: " +
                                     drop.legality.ToString());
      }
    } else {
      result.diagnostics.push_back("drop-based rewriting not possible: " +
                                   drop_status.ToString());
    }
  }

  // One ranking path: sort by the model in effect. Ties keep arrival
  // order — stream order for replacements, then the drop-based rewriting.
  std::stable_sort(result.rewritings.begin(), result.rewritings.end(),
                   [](const SynchronizedView& a, const SynchronizedView& b) {
                     return a.cost.total < b.cost.total;
                   });
  if (options.top_k > 0 && result.rewritings.size() > options.top_k) {
    result.diagnostics.push_back(
        "ranked " + std::to_string(result.rewritings.size()) +
        " legal rewritings; returning top " +
        std::to_string(options.top_k));
    result.rewritings.resize(options.top_k);
  }

  if (result.rewritings.empty()) {
    result.diagnostics.push_back("no legal rewriting found for " +
                                 view.name() + " under " + change.ToString());
  }
  return result;
}

}  // namespace legacy
}  // namespace eve

#endif  // EVE_TESTS_LEGACY_CVS_DRIVERS_H_
