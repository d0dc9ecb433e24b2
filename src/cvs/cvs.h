// The CVS (Complex View Synchronization) algorithm — paper Sec. 5.
// Given an E-SQL view, the pre-/post-change MKBs and a capability change,
// produces the set of legal rewritings (Def. 1), built by chaining join
// constraints through the MKB hypergraph (Defs. 2 and 3).

#ifndef EVE_CVS_CVS_H_
#define EVE_CVS_CVS_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "cvs/cost_model.h"
#include "cvs/legality.h"
#include "cvs/r_mapping.h"
#include "cvs/r_replacement.h"
#include "esql/view_definition.h"
#include "hypergraph/join_graph.h"
#include "mkb/capability_change.h"
#include "mkb/evolution.h"
#include "mkb/mkb.h"

namespace eve {

struct CvsOptions {
  RReplacementOptions replacement;
  // Also consider dropping a dispensable relation outright (in addition to
  // replacement-based rewritings).
  bool include_drop_rewriting = true;
  // When true, rewritings failing P3 are excluded from `rewritings` and
  // reported in diagnostics; when false they are kept with
  // legality.p3_extent == false (useful for inspection).
  bool require_view_extent = true;
  // Cost model ranking the rewritings (lowest total first) and driving
  // the enumeration's lower bounds. Unset means DefaultRankingCostModel()
  // — the historical lexicographic order (extent strength, attributes
  // preserved, join width) expressed as weights; there is exactly one
  // ranking path either way. See cvs/cost_model.h.
  std::optional<RewritingCostModel> cost_model;
  // Keep only the k best rewritings (0 = keep all). With k > 0 the
  // candidate pull loop stops as soon as the stream's next lower bound
  // reaches the k-th best accepted total — the returned prefix is
  // provably the same top-k the exhaustive run would rank first. EveSystem
  // runs every view with k = 1.
  size_t top_k = 0;
};

// One synchronized view with full provenance.
struct SynchronizedView {
  ViewDefinition view;
  RMapping mapping;
  ReplacementCandidate candidate;  // empty tree for drop-based rewritings
  bool is_drop = false;
  LegalityReport legality;
  // Itemized cost against the original view under the ranking model in
  // effect (the explicit CvsOptions::cost_model, else the built-in
  // default). Always populated for delete-change rewritings.
  RewritingCost cost;

  std::string ToString() const;
};

struct CvsResult {
  // Legal rewritings, best-first under the ranking model in effect.
  std::vector<SynchronizedView> rewritings;
  // Human-readable notes on rejected candidates and failure causes,
  // including a line for every enumeration bound that cut the search.
  std::vector<std::string> diagnostics;
  // How much of the candidate space the enumeration explored, and whether
  // it stopped early (top-k bound) or was cut (budget / caps).
  EnumerationStats enumeration;

  bool ViewPreserved() const { return !rewritings.empty(); }
};

// Per-change shared synchronization context. One capability change can
// affect many views; everything that depends only on the change — not on
// the individual view — lives here and is computed once, then shared by
// every affected view's synchronization (possibly from many worker
// threads; all accessors are const and thread-safe):
//
// - the MKBs, held by reference: the context must not outlive them;
// - the join graph of MKB', built lazily on first use, so changes whose
//   synchronization never consults it (renames, adds) pay nothing;
// - the join-tree searches over that graph (JoinGraph::ShareSearches).
//   Def. 3's R-replacement search depends on the required relations, the
//   surviving edges of Min(H_R) and the growth bound alone, and views
//   built over the same sources ask for the same ones, so each distinct
//   search runs once per change and its log is freed with the context.
//
// Sharing leaves every result deterministic. A view's enumerators replay
// a log pop by pop and spend one token unit per pop, whichever thread
// made it, so each view sees the trees, counters, bounds and budget stops
// of a private search, at any parallelism and in any interleaving.
class SyncContext {
 public:
  // Both MKBs must outlive the context.
  SyncContext(const Mkb& mkb, const Mkb& mkb_prime)
      : mkb_(&mkb), mkb_prime_(&mkb_prime) {}

  SyncContext(const SyncContext&) = delete;
  SyncContext& operator=(const SyncContext&) = delete;

  const Mkb& mkb() const { return *mkb_; }
  const Mkb& mkb_prime() const { return *mkb_prime_; }

  // H'(MKB') at the relation level, built once per change, with its
  // join-tree searches shared.
  const JoinGraph& graph_prime() const;

 private:
  const Mkb* mkb_;
  const Mkb* mkb_prime_;
  mutable std::once_flag graph_once_;
  mutable std::optional<JoinGraph> graph_prime_;
};

// CVS for ch = delete-relation R (the paper's in-depth case).
Result<CvsResult> SynchronizeDeleteRelation(const ViewDefinition& view,
                                            const std::string& relation,
                                            const SyncContext& context,
                                            const CvsOptions& options = {});

// The simplified CVS variant for ch = delete-attribute R.A.
Result<CvsResult> SynchronizeDeleteAttribute(const ViewDefinition& view,
                                             const std::string& relation,
                                             const std::string& attribute,
                                             const SyncContext& context,
                                             const CvsOptions& options = {});

// Dispatch over all six capability changes. add-relation / add-attribute
// leave the view untouched; renames rewrite references in place (always
// legal); deletes run the two algorithms above. Views not referencing the
// changed element are returned unchanged.
Result<CvsResult> Synchronize(const ViewDefinition& view,
                              const CapabilityChange& change,
                              const SyncContext& context,
                              const CvsOptions& options = {});

// Single-view conveniences: build a one-shot SyncContext internally.
// Synchronizing many views under one change should construct the context
// once and use the overloads above.
Result<CvsResult> SynchronizeDeleteRelation(const ViewDefinition& view,
                                            const std::string& relation,
                                            const Mkb& mkb,
                                            const Mkb& mkb_prime,
                                            const CvsOptions& options = {});
Result<CvsResult> SynchronizeDeleteAttribute(const ViewDefinition& view,
                                             const std::string& relation,
                                             const std::string& attribute,
                                             const Mkb& mkb,
                                             const Mkb& mkb_prime,
                                             const CvsOptions& options = {});
Result<CvsResult> Synchronize(const ViewDefinition& view,
                              const CapabilityChange& change, const Mkb& mkb,
                              const Mkb& mkb_prime,
                              const CvsOptions& options = {});

// Rewrites view references under a rename change (helper shared with eve/).
ViewDefinition ApplyRenameToView(const ViewDefinition& view,
                                 const CapabilityChange& change);

}  // namespace eve

#endif  // EVE_CVS_CVS_H_
