// Large-pool smoke test for one EveSystem with full snapshots. By default
// it registers a modest pool so plain ctest stays fast; CI's dedicated
// smoke step raises EVE_SCALE_VIEWS to one million registered views
// (reduced again under sanitizers). The assertions are scale-independent:
// every view lands in its hash bucket of the version chain, a capability
// change re-renders only the buckets of the views it touched, every
// version still holds the whole pool, and a pin taken before the change
// keeps the pre-change bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>

#include "eve/eve_system.h"
#include "eve/view_pool_io.h"
#include "mkb/capability_change.h"
#include "pool_snapshot.h"
#include "workload/generator.h"

namespace eve {
namespace {

size_t ScaleViews() {
  const char* env = std::getenv("EVE_SCALE_VIEWS");
  if (env != nullptr && *env != '\0') {
    return static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  return 50000;
}

bool BucketHolds(const MkbVersion& version, const std::string& name) {
  const std::vector<ViewBlock> blocks =
      SplitViewBlocks(version.view_bucket(ViewBucketOf(name)).body);
  return std::any_of(
      blocks.begin(), blocks.end(),
      [&](const ViewBlock& block) { return block.name == name; });
}

TEST(ScaleSmokeTest, BulkLoadServeAndSyncAtScale) {
  const size_t num_views = ScaleViews();
  ChainMkbSpec mkb_spec;
  mkb_spec.length = 64;
  mkb_spec.cover_distance = 2;
  const Mkb mkb = MakeChainMkb(mkb_spec).MoveValue();

  ViewPoolSpec pool_spec;
  pool_spec.num_views = num_views;
  pool_spec.zipf_s = 1.1;
  pool_spec.max_span = 1;  // bind-cheap single-relation views
  pool_spec.seed = 7;
  const std::vector<ViewDefinition> pool =
      MakeViewPool(mkb, pool_spec).MoveValue();

  EveSystem system(mkb);
  ASSERT_TRUE(system
                  .RegisterViews(
                      testing_pool::BoundBatch(pool, system.mkb().catalog()))
                  .ok());
  ASSERT_EQ(system.NumViews(), num_views);

  const PinnedMkb before = system.PinTip();
  for (size_t i = 0; i < 100 && i < pool.size(); ++i) {
    EXPECT_TRUE(BucketHolds(*before.version, pool[i].name())) << pool[i].name();
  }

  // A change at the cold end of the zipfian chain affects a thin slice;
  // the report is O(affected), not O(pool).
  const CapabilityChange change = CapabilityChange::DeleteRelation("R63");
  const std::vector<std::string> affected = system.AffectedViews(change);
  ASSERT_FALSE(affected.empty());
  ASSERT_LT(affected.size(), num_views / 4);
  const Result<ChangeReport> report = system.ApplyChange(change);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().outcomes.size(), affected.size());

  // Exactly the affected views' buckets were re-rendered; every other
  // bucket is the pre-change segment, shared by pointer.
  const PinnedMkb after = system.PinTip();
  std::set<size_t> touched;
  for (const std::string& name : affected) touched.insert(ViewBucketOf(name));
  for (size_t b = 0; b < kViewBuckets; ++b) {
    const bool shared =
        &before.version->view_bucket(b) == &after.version->view_bucket(b);
    EXPECT_EQ(shared, touched.count(b) == 0) << "bucket " << b;
  }

  // The version holds the whole pool, and the pre-change pin still shows
  // the pre-change definition of an affected view.
  EXPECT_EQ(system.ViewsTextAt(after.id()).value(), SaveViews(system));
  const std::vector<ViewBlock> old_bucket = SplitViewBlocks(
      before.version->view_bucket(ViewBucketOf(affected.front())).body);
  const auto old_view =
      std::find_if(old_bucket.begin(), old_bucket.end(),
                   [&](const ViewBlock& block) {
                     return block.name == affected.front();
                   });
  ASSERT_NE(old_view, old_bucket.end());
  EXPECT_NE(old_view->definition.find("R63"), std::string_view::npos);
  EXPECT_EQ(system.NumViews(), num_views);
}

}  // namespace
}  // namespace eve
