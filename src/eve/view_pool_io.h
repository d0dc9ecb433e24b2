// Persistence for the registered view pool: E-SQL text with one
// "-- VIEW [state]" header per view, so an EveSystem can be rebuilt from
// (MISD text, views text) — the complete durable state of the paper's
// architecture.

#ifndef EVE_EVE_VIEW_POOL_IO_H_
#define EVE_EVE_VIEW_POOL_IO_H_

#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "eve/eve_system.h"

namespace eve {

// Renders every registered view as
//   -- VIEW active|disabled
//   CREATE VIEW ... ;
// Disabled views are emitted too (their last definition), so a reload
// preserves the pool exactly. A block's statement ends at its first ';'
// outside '...' literals and "..." identifiers, and the next "-- VIEW "
// header counts only at a line start after that ';', so literals and
// quoted names may hold either (SplitViewBlocks, mkb/version_store.h,
// splits the text).
std::string SaveViews(const EveSystem& system);

// Appends one view's SaveViews block to `out`: SaveViews is these blocks in
// name order, and each version's VIEWS buckets hold them too.
void AppendViewBlock(const RegisteredView& view, std::string* out);

// The one reader of the SaveViews format: LOAD VIEWS, checkpoint load,
// rollback and the replay of a registration record all turn pool text
// into views here. Each view keeps its header's state, provisional=
// marks and synced_at= stamp. Active views bind strictly against
// `catalog`; disabled ones bind without it (their definitions may read
// capabilities the catalog no longer has — usually why they are
// disabled). Fails, returning no view, on a header it cannot read, a
// statement without its ';', a view that does not bind, or a name the
// text repeats.
Result<std::vector<RegisteredView>> ParseViewPool(std::string_view text,
                                                  const Catalog& catalog);

// Registers the views of SaveViews text into `system` with one journal
// record and one version (ParseViewPool, then EveSystem::RegisterViews),
// which stamps every view with that version. All or nothing: on any error
// the system is unchanged.
Status LoadViews(std::string_view text, EveSystem* system);

}  // namespace eve

#endif  // EVE_EVE_VIEW_POOL_IO_H_
