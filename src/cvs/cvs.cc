#include "cvs/cvs.h"

#include <sstream>

#include "cvs/extent.h"
#include "cvs/rewriting.h"
#include "cvs/top_k_driver.h"
#include "hypergraph/join_graph.h"

namespace eve {

std::string SynchronizedView::ToString() const {
  std::ostringstream os;
  os << (is_drop ? "[drop-based]" : "[replacement-based]") << " "
     << legality.ToString() << "\n";
  if (!is_drop) os << candidate.ToString() << "\n";
  os << view.ToString();
  return os.str();
}

const JoinGraph& SyncContext::graph_prime() const {
  std::call_once(graph_once_, [this] {
    graph_prime_.emplace(JoinGraph::Build(*mkb_prime_));
    graph_prime_->ShareSearches();
  });
  return *graph_prime_;
}

CvsResult PassThroughResult(ViewDefinition view) {
  CvsResult result;
  SynchronizedView unchanged;
  unchanged.view = std::move(view);
  unchanged.legality.p1_unaffected = true;
  unchanged.legality.p2_evaluable = true;
  unchanged.legality.p3_extent = true;
  unchanged.legality.p4_parameters = true;
  unchanged.legality.inferred_extent = ExtentRelation::kEqual;
  result.rewritings.push_back(std::move(unchanged));
  return result;
}

void FoldDeadline(const DeadlineToken& token, CvsResult* result) {
  if (!token.valid()) return;
  // After the stream stats, which carry partial and frontier_bound from
  // the stop itself. The rewritings are a valid best-first prefix either
  // way; `partial` tells the caller it is a prefix, not the full space.
  DeadlineStats& deadline = result->enumeration.deadline;
  deadline.work_spent = token.work_spent();
  deadline.work_budget = token.work_budget();
  deadline.stop_cause = token.cause();
  if (deadline.partial) {
    result->diagnostics.push_back(
        "deadline stopped the enumeration (" +
        std::string(StopCauseToString(token.cause())) + " after " +
        std::to_string(token.work_spent()) +
        " work units); returning the best-under-budget prefix");
  }
}

Result<CvsResult> SynchronizeDeleteRelation(const ViewDefinition& view,
                                            const std::string& relation,
                                            const SyncContext& context,
                                            const CvsOptions& options) {
  if (!view.HasFromRelation(relation)) {
    // Unaffected view: CVS is a no-op (the caller detects affectedness;
    // returning the view unchanged keeps the API composable).
    return PassThroughResult(view);
  }

  const CapabilityChange change = CapabilityChange::DeleteRelation(relation);
  const Mkb& mkb = context.mkb();

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
  CvsResult result;
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

  // Steps 4-6: splice, check and rank the candidates (cvs/top_k_driver.h).
  TopKRequest request{.view = view,
                      .change = change,
                      .mkb_prime = context.mkb_prime(),
                      .mapping = mapping,
                      .options = options,
                      .model = model,
                      .probe_only = !r_params.replaceable};
  if (options.include_drop_rewriting && r_params.dispensable) {
    // Dropping a relation (and only dispensable components with it)
    // projects away columns and removes join filters: on the common
    // interface the new extent contains the old one (kSuperset).
    request.drop = DropRelationRewriting(view, relation, view.name());
  }
  RunTopK(
      std::move(request), stream.has_value() ? &*stream : nullptr,
      [&](const ReplacementCandidate& candidate,
          const std::string& name) -> Result<SplicedCandidate> {
        EVE_ASSIGN_OR_RETURN(ViewDefinition spliced,
                             SpliceRewriting(view, mapping, candidate, name));
        const ExtentRelation extent =
            InferExtentRelation(view, spliced, mapping, candidate);
        return SplicedCandidate{std::move(spliced), extent};
      },
      [&] {
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
      },
      &result);
  if (stream.has_value()) {
    for (std::string& note : stream->TruncationNotes()) {
      result.diagnostics.push_back(std::move(note));
    }
  }
  FoldDeadline(options.replacement.token, &result);
  return result;
}

ViewDefinition ApplyRenameToView(const ViewDefinition& view,
                                 const CapabilityChange& change) {
  auto rename_ref = [&](const AttributeRef& ref) -> AttributeRef {
    if (change.kind == CapabilityChange::Kind::kRenameRelation &&
        ref.relation == change.relation) {
      return AttributeRef{change.new_name, ref.attribute};
    }
    if (change.kind == CapabilityChange::Kind::kRenameAttribute &&
        ref.relation == change.relation && ref.attribute == change.attribute) {
      return AttributeRef{ref.relation, change.new_name};
    }
    return ref;
  };
  std::vector<ViewSelectItem> select;
  for (const ViewSelectItem& item : view.select()) {
    select.push_back(ViewSelectItem{item.expr->TransformColumns(rename_ref),
                                    item.output_name, item.params});
  }
  std::vector<ViewRelation> from;
  for (const ViewRelation& rel : view.from()) {
    std::string name = rel.name;
    if (change.kind == CapabilityChange::Kind::kRenameRelation &&
        name == change.relation) {
      name = change.new_name;
    }
    from.push_back(ViewRelation{std::move(name), rel.params});
  }
  std::vector<ViewCondition> where;
  for (const ViewCondition& cond : view.where()) {
    where.push_back(ViewCondition{cond.clause->TransformColumns(rename_ref),
                                  cond.params});
  }
  return ViewDefinition(view.name(), view.extent(), std::move(select),
                        std::move(from), std::move(where));
}

Result<CvsResult> Synchronize(const ViewDefinition& view,
                              const CapabilityChange& change,
                              const SyncContext& context,
                              const CvsOptions& options) {
  switch (change.kind) {
    case CapabilityChange::Kind::kAddRelation:
    case CapabilityChange::Kind::kAddAttribute:
      return PassThroughResult(view);
    case CapabilityChange::Kind::kRenameRelation:
    case CapabilityChange::Kind::kRenameAttribute:
      return PassThroughResult(ApplyRenameToView(view, change));
    case CapabilityChange::Kind::kDeleteRelation:
      return SynchronizeDeleteRelation(view, change.relation, context,
                                       options);
    case CapabilityChange::Kind::kDeleteAttribute:
      return SynchronizeDeleteAttribute(view, change.relation,
                                        change.attribute, context, options);
  }
  return Status::Internal("unexpected capability change kind");
}

Result<CvsResult> SynchronizeDeleteRelation(const ViewDefinition& view,
                                            const std::string& relation,
                                            const Mkb& mkb,
                                            const Mkb& mkb_prime,
                                            const CvsOptions& options) {
  const SyncContext context(mkb, mkb_prime);
  return SynchronizeDeleteRelation(view, relation, context, options);
}

Result<CvsResult> SynchronizeDeleteAttribute(const ViewDefinition& view,
                                             const std::string& relation,
                                             const std::string& attribute,
                                             const Mkb& mkb,
                                             const Mkb& mkb_prime,
                                             const CvsOptions& options) {
  const SyncContext context(mkb, mkb_prime);
  return SynchronizeDeleteAttribute(view, relation, attribute, context,
                                    options);
}

Result<CvsResult> Synchronize(const ViewDefinition& view,
                              const CapabilityChange& change, const Mkb& mkb,
                              const Mkb& mkb_prime,
                              const CvsOptions& options) {
  const SyncContext context(mkb, mkb_prime);
  return Synchronize(view, change, context, options);
}

}  // namespace eve
