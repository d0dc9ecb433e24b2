#include "eve/view_pool_io.h"

#include <set>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "esql/binder.h"
#include "sql/parser.h"

namespace eve {

void AppendViewBlock(const RegisteredView& view, std::string* out) {
  out->append("-- VIEW ");
  out->append(view.state == ViewState::kActive ? "active" : "disabled");
  if (!view.provisional_sources.empty()) {
    // Degraded-mode marker (see eve_system.h); omitted when empty so
    // fault-free pools keep the pre-federation format.
    out->append(" provisional=");
    bool first = true;
    for (const std::string& source : view.provisional_sources) {
      if (!first) out->push_back(',');
      out->append(source);
      first = false;
    }
  }
  if (view.synced_at_version != 0) {
    // The MKB version the view was last synchronized against; omitted
    // when unknown so legacy pools keep their format.
    out->append(" synced_at=");
    out->append(std::to_string(view.synced_at_version));
  }
  out->push_back('\n');
  out->append(view.definition.ToString());
  out->append(";\n\n");
}

std::string SaveViews(const EveSystem& system) {
  std::string text;
  for (const std::string& name : system.ViewNames()) {
    AppendViewBlock(**system.GetView(name), &text);
  }
  return text;
}

Status LoadViews(std::string_view text, EveSystem* system) {
  EVE_FAILPOINT(fp::kViewPoolLoadValidate);
  for (const ViewBlock& block : SplitViewBlocks(text)) {
    if (!block.terminated) {
      return Status::ParseError("view statement missing terminating ';'");
    }
    std::string_view state_word = block.header;
    std::set<std::string> provisional;
    uint64_t synced_at = 0;
    const size_t space = block.header.find(' ');
    if (space != std::string_view::npos) {
      state_word = Trim(block.header.substr(0, space));
      for (const std::string& token :
           Split(Trim(block.header.substr(space + 1)), ' ')) {
        const std::string_view extra = Trim(token);
        if (extra.empty()) continue;
        if (StartsWith(extra, "provisional=")) {
          for (const std::string& source : Split(
                   extra.substr(std::string_view("provisional=").size()),
                   ',')) {
            if (!Trim(source).empty()) {
              provisional.insert(std::string(Trim(source)));
            }
          }
        } else if (StartsWith(extra, "synced_at=")) {
          if (!ParseDecimal(extra.substr(std::string_view("synced_at=").size()),
                            &synced_at)) {
            return Status::ParseError("malformed synced_at token: " +
                                      std::string(extra));
          }
        } else {
          return Status::ParseError("unknown view header token: " +
                                    std::string(extra));
        }
      }
    }
    ViewState state;
    if (EqualsIgnoreCase(state_word, "active")) {
      state = ViewState::kActive;
    } else if (EqualsIgnoreCase(state_word, "disabled")) {
      state = ViewState::kDisabled;
    } else {
      return Status::ParseError("unknown view state: " +
                                std::string(state_word));
    }
    const std::string_view statement = block.definition;
    std::string view_name;
    if (state == ViewState::kActive) {
      EVE_ASSIGN_OR_RETURN(const ParsedView parsed, ParseView(statement));
      view_name = parsed.name;
      EVE_RETURN_IF_ERROR(system->RegisterViewText(statement));
    } else {
      // A disabled view's definition may reference capabilities the current
      // MKB no longer has (that is usually WHY it is disabled), so it cannot
      // pass the strict binder. Restore it verbatim instead.
      EVE_ASSIGN_OR_RETURN(const ParsedView parsed, ParseView(statement));
      view_name = parsed.name;
      EVE_ASSIGN_OR_RETURN(ViewDefinition bound, BindViewUnchecked(parsed));
      EVE_RETURN_IF_ERROR(system->RestoreView(std::move(bound),
                                              ViewState::kDisabled, synced_at));
    }
    if (!provisional.empty()) {
      EVE_RETURN_IF_ERROR(system->SetViewProvisionalSources(
          view_name, std::move(provisional)));
    }
    if (synced_at != 0) {
      // Active views re-registered above got a fresh registration stamp;
      // the saved stamp wins (it names the version the pool was frozen at).
      EVE_RETURN_IF_ERROR(system->SetViewSyncedVersion(view_name, synced_at));
    }
  }
  return Status::OK();
}

}  // namespace eve
