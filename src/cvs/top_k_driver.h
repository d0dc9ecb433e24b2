// The top-k driver both delete changes share. The paper (Sec. 5) defines
// delete-attribute synchronization as a simplified delete-relation CVS,
// and the two differ only in how they classify the view, which candidates
// they stream, how they build the drop-based rewriting and splice a
// candidate, and the order of their closing notes. RunTopK owns the rest,
// the selection policy that decides which rewriting a view gets:
//  * drop admission: the drop-based rewriting is checked and scored before
//    the pull loop, so its total takes part in the TopKBound, and it is
//    named and appended after the loop, which keeps the historical names
//    and result order (neither the legality check nor the score reads the
//    name);
//  * the pull loop: stop once the TopKBound excludes the stream's next
//    lower bound, or at the pull cap (the tighter of max_results and
//    candidate_budget), each with its note; otherwise splice the next
//    candidate, check it (Def. 1) and accept it or note its rejection;
//  * the stable ranking by total (ties keep arrival order: candidates in
//    stream order, then the drop-based rewriting) and the top-k trim.
// FoldDeadline is the deadline fold; each driver calls it where its
// closing notes put the deadline note.
//
// A stream offers CandidateStream's interface: Next(), NextLowerBound(),
// Exhausted(), PendingStates(), deadline_stopped() and stats(). The loop
// checks deadline_stopped() before its bounds and calls Next() only while
// the stream is neither exhausted nor stopped. Next() may return nullopt
// without either (the delete-attribute stream advances one heap state per
// call); the loop then re-checks before pulling again.

#ifndef EVE_CVS_TOP_K_DRIVER_H_
#define EVE_CVS_TOP_K_DRIVER_H_

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "cvs/cost_model.h"
#include "cvs/cvs.h"
#include "cvs/legality.h"

namespace eve {

// One view's delete synchronization, as RunTopK sees it.
struct TopKRequest {
  const ViewDefinition& view;
  const CapabilityChange& change;
  const Mkb& mkb_prime;
  const RMapping& mapping;  // copied into every rewriting (empty for
                            // delete-attribute)
  const CvsOptions& options;
  const RewritingCostModel& model;
  // The drop-based rewriting, named after the view, or why it failed;
  // unset when the view's parameters rule dropping out.
  std::optional<Result<ViewDefinition>> drop = std::nullopt;
  ExtentRelation drop_extent = ExtentRelation::kSuperset;
  // Pull at most one candidate and splice none: the loop only learns
  // whether the stream is empty (a non-replaceable relation).
  bool probe_only = false;
};

// A candidate spliced into the view, with its inferred extent.
struct SplicedCandidate {
  ViewDefinition view;
  ExtentRelation extent;
};

// The one rewriting of a view a change leaves as it is (or only renames):
// `view`, legal, with an equal extent. EnumerationStats stay default.
CvsResult PassThroughResult(ViewDefinition view);

// Folds `token`'s accounting into result->enumeration.deadline and, when
// the stream stopped on it (deadline.partial), notes that the rewritings
// are the best-under-budget prefix.
void FoldDeadline(const DeadlineToken& token, CvsResult* result);

// Runs the selection policy over `stream` (null when the driver has no
// candidates to pull) and leaves the ranked rewritings, the stream's stats
// and the loop's notes in `*result`. `splice(candidate, name)` returns a
// Result<SplicedCandidate>; `after_pull()` adds the driver's closing notes
// that come before the drop-based rewriting's.
template <typename Stream, typename Splice, typename AfterPull>
void RunTopK(TopKRequest request, Stream* stream, Splice splice,
             AfterPull after_pull, CvsResult* result) {
  const ViewDefinition& view = request.view;
  const CvsOptions& options = request.options;
  int name_counter = 0;
  auto next_name = [&] {
    std::string name = view.name() + options.rename_suffix;
    if (++name_counter > 1) name += std::to_string(name_counter);
    return name;
  };
  TopKBound top_k(options.top_k);
  // Accepted rewritings in arrival order.
  std::vector<SynchronizedView> accepted;

  SynchronizedView drop;
  if (request.drop.has_value() && request.drop->ok()) {
    drop.mapping = request.mapping;
    drop.is_drop = true;
    drop.view = request.drop->MoveValue();
    drop.legality = CheckLegality(view, drop.view, request.change,
                                  request.mkb_prime, request.drop_extent, {});
    drop.cost = ScoreRewriting(view, drop.view, drop.legality.inferred_extent,
                               request.model);
    if (drop.legality.legal() || !options.require_view_extent) {
      top_k.SetDrop(drop.cost.total);
    }
  }

  size_t pull_cap = options.replacement.max_results;
  const char* cap_name = "max_results";
  if (options.candidate_budget > 0 &&
      (pull_cap == 0 || options.candidate_budget < pull_cap)) {
    pull_cap = options.candidate_budget;
    cap_name = "candidate_budget";
  }
  const size_t pull_limit = request.probe_only ? 1 : pull_cap;

  // Candidates are pulled strictly in lower-bound order, stopping as soon
  // as the stream provably cannot improve the top k.
  size_t pulled = 0;
  size_t rejected = 0;
  bool terminated_early = false;
  while (stream != nullptr && !stream->Exhausted() &&
         !stream->deadline_stopped()) {
    if (top_k.Excludes(stream->NextLowerBound())) {
      terminated_early = true;
      // %g prints a double as operator<< does.
      char note[192];
      std::snprintf(note, sizeof note,
                    "top-k early termination: next candidate lower bound %g "
                    ">= k-th best cost %g with %zu queue states unexplored",
                    stream->NextLowerBound(), top_k.KthBest(),
                    stream->PendingStates());
      result->diagnostics.push_back(note);
      break;
    }
    if (pull_limit > 0 && pulled >= pull_limit) {
      if (!request.probe_only) {
        result->diagnostics.push_back(
            std::string(cap_name) + "=" + std::to_string(pull_cap) +
            " stopped the enumeration after " + std::to_string(pulled) +
            " candidates with " + std::to_string(stream->PendingStates()) +
            " queue states unexplored; the result may be incomplete");
      }
      break;
    }
    std::optional<ReplacementCandidate> candidate = stream->Next();
    if (!candidate.has_value()) continue;
    ++pulled;
    if (request.probe_only) continue;

    Result<SplicedCandidate> spliced = splice(*candidate, next_name());
    if (!spliced.ok()) {
      result->diagnostics.push_back("candidate rejected: " +
                                    spliced.status().ToString());
      ++rejected;
      continue;
    }
    std::map<AttributeRef, ExprPtr> substitution;
    for (const AttributeReplacement& repl : candidate->replacements) {
      substitution.emplace(repl.original, repl.replacement);
    }
    SynchronizedView synced;
    synced.mapping = request.mapping;
    synced.view = std::move(spliced.value().view);
    synced.legality =
        CheckLegality(view, synced.view, request.change, request.mkb_prime,
                      spliced.value().extent, substitution);
    synced.cost = ScoreRewriting(view, synced.view, spliced.value().extent,
                                 request.model);
    synced.candidate = std::move(*candidate);
    // Without require_view_extent a rewriting failing only P3 is kept for
    // inspection.
    if (!synced.legality.legal() &&
        (options.require_view_extent || !synced.legality.p1_unaffected ||
         !synced.legality.p2_evaluable || !synced.legality.p4_parameters)) {
      result->diagnostics.push_back("candidate rejected: " +
                                    synced.legality.ToString());
      ++rejected;
      continue;
    }
    top_k.AddCandidate(synced.cost.total);
    accepted.push_back(std::move(synced));
  }
  if (stream != nullptr) {
    result->enumeration = stream->stats();
    result->enumeration.states_pending = stream->PendingStates();
    result->enumeration.exhausted = stream->Exhausted();
  }
  result->enumeration.candidates_rejected = rejected;
  result->enumeration.terminated_early = terminated_early;
  after_pull();

  if (request.drop.has_value()) {
    const std::string name = next_name();
    if (!request.drop->ok()) {
      result->diagnostics.push_back("drop-based rewriting not possible: " +
                                    request.drop->status().ToString());
    } else if (drop.legality.legal() || !options.require_view_extent) {
      drop.view.set_name(name);
      accepted.push_back(std::move(drop));
    } else {
      result->diagnostics.push_back("drop-based rewriting rejected: " +
                                    drop.legality.ToString());
    }
  }

  std::stable_sort(accepted.begin(), accepted.end(),
                   [](const SynchronizedView& a, const SynchronizedView& b) {
                     return a.cost.total < b.cost.total;
                   });
  if (options.top_k > 0 && accepted.size() > options.top_k) {
    result->diagnostics.push_back(
        "ranked " + std::to_string(accepted.size()) +
        " legal rewritings; returning the top " +
        std::to_string(options.top_k));
    accepted.resize(options.top_k);
  }
  result->rewritings = std::move(accepted);
}

}  // namespace eve

#endif  // EVE_CVS_TOP_K_DRIVER_H_
