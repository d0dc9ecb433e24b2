// What an aborted batch must leave as it found it, for the batch-undo
// checks of eve_system_test and versioning_test: every view's registered
// fields and the address of its entry, the inverted index's answers, and
// the MKB, version chain, change log, membership table and view-pool text.
// Also the batch EveSystem::RegisterViews takes for generated views.

#ifndef EVE_TESTS_POOL_SNAPSHOT_H_
#define EVE_TESTS_POOL_SNAPSHOT_H_

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "esql/binder.h"
#include "eve/eve_system.h"
#include "eve/journal.h"
#include "eve/view_pool_io.h"
#include "mkb/serializer.h"

namespace eve {
namespace testing_pool {

// A view's definition, state, history, provisional marks and synced-at
// stamp, one per line.
inline std::string ViewFields(const RegisteredView& view) {
  std::string out = view.definition.ToString() + "\n";
  out += view.state == ViewState::kActive ? "active\n" : "disabled\n";
  for (const std::string& line : view.history) out += "history " + line + "\n";
  for (const std::string& source : view.provisional_sources) {
    out += "provisional " + source + "\n";
  }
  return out + "synced_at " + std::to_string(view.synced_at_version) + "\n";
}

struct PoolSnapshot {
  std::map<std::string, const RegisteredView*> addresses;
  std::map<std::string, std::string> views;  // name → ViewFields
  // "R" and "R.a" → AffectedViews of deleting that relation or attribute.
  std::map<std::string, std::vector<std::string>> affected;
  size_t active_views = 0;
  size_t log_size = 0;
  std::string mkb, versions, federation, saved_views;
};

// Snapshots `system`, asking AffectedViews about every relation and
// attribute of its catalog and, if given, of `extra` (the catalog of a run
// where the batch committed, which may name elements this one lacks).
inline PoolSnapshot SnapshotPool(const EveSystem& system,
                                 const Catalog* extra = nullptr) {
  PoolSnapshot snapshot;
  for (const std::string& name : system.ViewNames()) {
    const RegisteredView* view = system.GetView(name).value();
    snapshot.addresses[name] = view;
    snapshot.views[name] = ViewFields(*view);
  }
  for (const Catalog* catalog : {&system.mkb().catalog(), extra}) {
    if (catalog == nullptr) continue;
    for (const std::string& relation : catalog->RelationNames()) {
      snapshot.affected[relation] =
          system.AffectedViews(CapabilityChange::DeleteRelation(relation));
      for (const AttributeDef& attribute :
           catalog->GetRelation(relation).value()->schema.attributes()) {
        snapshot.affected[relation + "." + attribute.name] =
            system.AffectedViews(
                CapabilityChange::DeleteAttribute(relation, attribute.name));
      }
    }
  }
  snapshot.active_views = system.NumActiveViews();
  snapshot.log_size = system.change_log().size();
  snapshot.mkb = SaveMkb(system.mkb());
  snapshot.versions = system.versions().Render();
  snapshot.federation = SaveFederation(system);
  snapshot.saved_views = SaveViews(system);
  return snapshot;
}

// `views` bound against `catalog`, as active registrations: the batch
// EveSystem::RegisterViews takes.
inline std::vector<RegisteredView> BoundBatch(
    const std::vector<ViewDefinition>& views, const Catalog& catalog) {
  std::vector<RegisteredView> batch(views.size());
  for (size_t i = 0; i < views.size(); ++i) {
    Result<ViewDefinition> bound =
        BindView(views[i].ToParsedView(), catalog);
    EXPECT_TRUE(bound.ok()) << views[i].name() << ": " << bound.status();
    if (bound.ok()) batch[i].definition = bound.MoveValue();
  }
  return batch;
}

// The names of the views whose fields differ between `a` and `b`.
inline std::vector<std::string> TouchedViews(const PoolSnapshot& a,
                                             const PoolSnapshot& b) {
  std::vector<std::string> changed;
  for (const auto& [name, fields] : a.views) {
    const auto it = b.views.find(name);
    if (it == b.views.end() || it->second != fields) changed.push_back(name);
  }
  return changed;
}

// Every field of `after` equals `before`'s, and each view is still the
// object it was.
inline void ExpectSamePool(const PoolSnapshot& before,
                           const PoolSnapshot& after) {
  EXPECT_EQ(after.addresses, before.addresses);
  EXPECT_EQ(after.views, before.views);
  EXPECT_EQ(after.affected, before.affected);
  EXPECT_EQ(after.active_views, before.active_views);
  EXPECT_EQ(after.log_size, before.log_size);
  EXPECT_EQ(after.mkb, before.mkb);
  EXPECT_EQ(after.versions, before.versions);
  EXPECT_EQ(after.federation, before.federation);
  EXPECT_EQ(after.saved_views, before.saved_views);
}

}  // namespace testing_pool
}  // namespace eve

#endif  // EVE_TESTS_POOL_SNAPSHOT_H_
