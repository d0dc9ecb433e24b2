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

Result<std::vector<RegisteredView>> ParseViewPool(std::string_view text,
                                                  const Catalog& catalog) {
  EVE_FAILPOINT(fp::kViewPoolLoadValidate);
  std::vector<RegisteredView> pool;
  std::set<std::string> names;
  for (const ViewBlock& block : SplitViewBlocks(text)) {
    if (!block.terminated) {
      return Status::ParseError("view statement missing terminating ';'");
    }
    RegisteredView view;
    std::string_view state_word = block.header;
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
              view.provisional_sources.insert(std::string(Trim(source)));
            }
          }
        } else if (StartsWith(extra, "synced_at=")) {
          if (!ParseDecimal(extra.substr(std::string_view("synced_at=").size()),
                            &view.synced_at_version)) {
            return Status::ParseError("malformed synced_at token: " +
                                      std::string(extra));
          }
        } else {
          return Status::ParseError("unknown view header token: " +
                                    std::string(extra));
        }
      }
    }
    if (EqualsIgnoreCase(state_word, "active")) {
      view.state = ViewState::kActive;
    } else if (EqualsIgnoreCase(state_word, "disabled")) {
      view.state = ViewState::kDisabled;
    } else {
      return Status::ParseError("unknown view state: " +
                                std::string(state_word));
    }
    EVE_ASSIGN_OR_RETURN(const ParsedView parsed, ParseView(block.definition));
    if (view.state == ViewState::kActive) {
      EVE_ASSIGN_OR_RETURN(view.definition, BindView(parsed, catalog));
    } else {
      EVE_ASSIGN_OR_RETURN(view.definition, BindViewUnchecked(parsed));
    }
    if (!names.insert(view.definition.name()).second) {
      return Status::AlreadyExists("view named twice in the pool: " +
                                   view.definition.name());
    }
    pool.push_back(std::move(view));
  }
  return pool;
}

Status LoadViews(std::string_view text, EveSystem* system) {
  EVE_ASSIGN_OR_RETURN(std::vector<RegisteredView> views,
                       ParseViewPool(text, system->mkb().catalog()));
  return system->RegisterViews(std::move(views));
}

}  // namespace eve
