// Persistence for the registered view pool: E-SQL text with one
// "-- VIEW [state]" header per view, so an EveSystem can be rebuilt from
// (MISD text, views text) — the complete durable state of the paper's
// architecture.

#ifndef EVE_EVE_VIEW_POOL_IO_H_
#define EVE_EVE_VIEW_POOL_IO_H_

#include <string>
#include <string_view>

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
// quoted names may hold either (SplitViewBlocks, mkb/version_store.h, is
// the one reader).
std::string SaveViews(const EveSystem& system);

// Appends one view's SaveViews block to `out`: SaveViews is these blocks in
// name order, and each version's VIEWS buckets hold them too.
void AppendViewBlock(const RegisteredView& view, std::string* out);

// Parses the SaveViews format and registers each view into `system`
// (definitions are re-bound against the system's current MKB). Views
// marked disabled are registered and then flagged disabled. Fails on the
// first view that no longer binds, and on a statement without its ';'.
Status LoadViews(std::string_view text, EveSystem* system);

}  // namespace eve

#endif  // EVE_EVE_VIEW_POOL_IO_H_
