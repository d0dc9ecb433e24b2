// Materialization layer: keeps the physical side of the federation in
// sync with capability changes, and maintains materialized view extents
// (the data-warehouse setting the paper targets — views are materialized
// at the user site, Sec. 1).
//
// Beyond full recomputation (Refresh), the store can bring a stored
// extent to a rewritten view definition *incrementally*
// (IncrementalRefresh): the CVS extent verdict for the rewriting bounds
// how the new extent relates to the old one, and per-verdict delta rules
// reuse the old extent instead of rescanning the sources. See
// docs/EXECUTOR.md for the rules and their soundness arguments.

#ifndef EVE_EVE_MATERIALIZATION_H_
#define EVE_EVE_MATERIALIZATION_H_

#include <map>
#include <string>

#include "algebra/eval.h"
#include "common/result.h"
#include "cvs/extent_relation.h"
#include "esql/view_definition.h"
#include "mkb/capability_change.h"
#include "storage/database.h"

namespace eve {

// Applies `change` to the physical tables so they match the evolved
// catalog: delete-relation drops the table, delete-attribute drops the
// column, renames follow, add-relation creates an empty table with the
// new schema, add-attribute appends a NULL-filled column. Idempotence is
// NOT assumed — apply exactly once per change, in order.
Status ApplyChangeToDatabase(const CapabilityChange& change, Database* db);

// Which maintenance path IncrementalRefresh took for a view.
enum class RefreshPath {
  kFull,           // recomputed from the base tables
  kReuseEqual,     // verdict Equal: old extent adopted wholesale, zero scan
  kDeltaSuperset,  // verdict Superset: old extent ∪ dropped-condition delta
  kDeltaSubset,    // verdict Subset: old extent filtered by added conditions
};

const char* RefreshPathToString(RefreshPath path);

// Per-view maintenance telemetry.
struct RefreshStats {
  uint64_t full = 0;
  uint64_t reuse_equal = 0;
  uint64_t delta_superset = 0;
  uint64_t delta_subset = 0;
  RefreshPath last_path = RefreshPath::kFull;

  uint64_t total() const {
    return full + reuse_equal + delta_superset + delta_subset;
  }
};

// A pool of materialized view extents, refreshed on demand from base
// tables. Used together with EveSystem: after a change rewrites a view
// definition, Refresh() re-materializes it from the surviving sources —
// or IncrementalRefresh() adapts the stored extent using the CVS verdict.
class MaterializedViewStore {
 public:
  MaterializedViewStore() = default;
  explicit MaterializedViewStore(const FunctionRegistry* registry)
      : registry_(registry) {}

  // (Re-)materializes `view` over `db`, replacing any stored extent under
  // the same view name. Always a full recompute.
  Status Refresh(const ViewDefinition& view, const Database& db,
                 const Catalog& catalog);

  // Brings the stored extent of `old_view` to `new_view`'s definition,
  // consulting `verdict` (the CVS extent relationship between the two):
  //  * kEqual    — the old extent is adopted wholesale (zero scan) when
  //                the interfaces carry the same attribute names;
  //  * kSubset   — when the rewriting only ADDED conditions over columns
  //                the old view exposed as bare select items, the new
  //                extent is a filter of the old one (no join, no base
  //                scan);
  //  * kSuperset — when the rewriting only DROPPED conditions, the new
  //                extent is the old one unioned with the rows the
  //                dropped conditions excluded (delta terms partitioned
  //                by the first non-true dropped condition — sound under
  //                three-valued logic);
  //  * kUnknown  — full recompute.
  // Structural preconditions are checked per rule; any mismatch falls
  // back to Refresh(new_view). The path taken is recorded in stats().
  // `db`/`catalog` are the POST-change database and catalog (the delta
  // rules only touch them when a base scan is genuinely required).
  Status IncrementalRefresh(const ViewDefinition& old_view,
                            const ViewDefinition& new_view,
                            ExtentRelation verdict, const Database& db,
                            const Catalog& catalog);

  // The stored extent; NotFound if the view was never materialized.
  //
  // Pointer-stability contract: the returned Table* stays valid (and its
  // contents unchanged) across Refresh/IncrementalRefresh/Drop of OTHER
  // views; it is invalidated by Refresh, IncrementalRefresh or Drop of
  // THIS view. (Extents live in a std::map keyed by view name —
  // node-based, so unrelated mutations never move them; a refresh of the
  // same name assigns over the mapped Table in place, which replaces the
  // data the pointer sees.) Tested in tests/materialization_test.cc.
  Result<const Table*> Extent(const std::string& view_name) const;

  // Drops a stored extent (for disabled views). Missing names are fine.
  void Drop(const std::string& view_name) { extents_.erase(view_name); }

  bool Has(const std::string& view_name) const {
    return extents_.count(view_name) > 0;
  }
  size_t NumViews() const { return extents_.size(); }

  // Maintenance telemetry for one view (zero-valued if never refreshed)
  // and aggregated over all views.
  RefreshStats StatsFor(const std::string& view_name) const;
  RefreshStats AggregateStats() const;

 private:
  void Record(const std::string& view_name, RefreshPath path);

  // Rule implementations; return true if the rule applied (extent
  // updated), false if preconditions failed and the caller should fall
  // back. Errors are real failures.
  Result<bool> TryReuseEqual(const ViewDefinition& old_view,
                             const ViewDefinition& new_view);
  Result<bool> TryDeltaSubset(const ViewDefinition& old_view,
                              const ViewDefinition& new_view);
  Result<bool> TryDeltaSuperset(const ViewDefinition& old_view,
                                const ViewDefinition& new_view,
                                const Database& db, const Catalog& catalog);

  const FunctionRegistry* registry_ = nullptr;
  std::map<std::string, Table> extents_;
  std::map<std::string, RefreshStats> stats_;
};

}  // namespace eve

#endif  // EVE_EVE_MATERIALIZATION_H_
