// Differential test of the delete drivers, which share one top-k driver
// (cvs/top_k_driver.h), against the two drivers that preceded it
// (legacy_cvs_drivers.h). Both run on seeded random federations and views
// (random_federation.h): delete-relation of every FROM relation, and
// delete-attribute of each FROM relation's payloads and of a join
// attribute, under top_k 0, 1 and 2, pull caps (max_results) 0, 1, 3 and
// 32, work budgets 0, 5, 12 and 40 and a token whose deadline passed up
// front,
// require_view_extent and include_drop_rewriting off and on, the default
// and a flat cost model, and chase_optional_covers off and on, with every
// view-extent parameter. Every result must match: the status, each rewriting's text,
// drop flag, cost (totals bit for bit), legality and candidate, the
// diagnostics in order, and the EnumerationStats with their deadline
// block. The one wording allowed to differ is the delete-attribute trim
// note, "returning top k", which now reads "returning the top k" as the
// delete-relation one always did. A delete-attribute candidate now also
// carries its cover's extent as its extent floor (the parent left the
// default); that floor must equal the extent the legality check used.
//
// The second test runs every view of a change from four threads on one
// shared SyncContext, so their join-tree searches are shared, and compares
// each result with the legacy driver's on a private context.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "cvs/cost_model.h"
#include "cvs/cvs.h"
#include "legacy_cvs_drivers.h"
#include "mkb/evolution.h"
#include "mkb/mkb.h"
#include "random_federation.h"

namespace eve {
namespace {

using testing_federation::FlatCostModel;
using testing_federation::MakeView;
using testing_federation::MakeWorld;
using testing_federation::World;

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

std::string StatsText(const EnumerationStats& stats) {
  std::ostringstream os;
  os << stats.ToString() << " | " << stats.combos_generated << " "
     << stats.combos_truncated << " " << stats.trees_expanded << " "
     << stats.search_sets_cut << " " << stats.candidates_yielded << " "
     << stats.duplicates_skipped << " " << stats.candidates_rejected << " "
     << stats.states_pending << " " << stats.exhausted << " "
     << stats.terminated_early << " " << stats.deadline.work_spent << " "
     << stats.deadline.work_budget << " "
     << static_cast<int>(stats.deadline.stop_cause) << " "
     << stats.deadline.frontier_bound << " " << stats.deadline.partial;
  return os.str();
}

// Everything a caller can read of one rewriting except the candidate's
// extent floor, which the test checks separately.
std::string RewritingText(const SynchronizedView& synced) {
  std::ostringstream os;
  os << synced.ToString() << "\nmapping " << synced.mapping.relation
     << " drop " << synced.is_drop << "\ncost " << synced.cost.ToString()
     << " total " << Bits(synced.cost.total) << "\nextent "
     << ExtentRelationToString(synced.legality.inferred_extent)
     << "\ncandidate " << synced.candidate.ToString() << " bound "
     << Bits(synced.candidate.cost_lower_bound);
  for (const AttributeReplacement& repl : synced.candidate.replacements) {
    os << " " << repl.cover_relation;
  }
  return os.str();
}

// The parent's delete-attribute trim note, reworded as the shared driver
// writes it.
std::string SharedTrimWording(std::string note) {
  const std::string old_wording = " legal rewritings; returning top ";
  const size_t at = note.find(old_wording);
  if (at != std::string::npos) {
    note.replace(at, old_wording.size(),
                 " legal rewritings; returning the top ");
  }
  return note;
}

// How often each path was reached, per driver ("relation" or
// "attribute"), keyed "<driver> <path>".
using Totals = std::map<std::string, size_t>;

void CountPaths(const std::string& driver, const CvsResult& result,
                Totals* totals) {
  const auto count = [&](const std::string& path, bool reached) {
    if (reached) ++(*totals)[driver + " " + path];
  };
  count("run", true);
  count("no rewriting", result.rewritings.empty());
  count("replacement kept",
        std::any_of(result.rewritings.begin(), result.rewritings.end(),
                    [](const SynchronizedView& s) { return !s.is_drop; }));
  count("drop kept",
        std::any_of(result.rewritings.begin(), result.rewritings.end(),
                    [](const SynchronizedView& s) { return s.is_drop; }));
  count("top-k stop", result.enumeration.terminated_early);
  count("budget stop", result.enumeration.deadline.partial);
  count("candidate rejected", result.enumeration.candidates_rejected > 0);
  const auto noted = [&](const std::string& text) {
    return std::any_of(result.diagnostics.begin(), result.diagnostics.end(),
                       [&](const std::string& note) {
                         return note.find(text) != std::string::npos;
                       });
  };
  count("cap stop", noted(" stopped the enumeration after "));
  count("trim", noted(" legal rewritings; returning the top "));
  count("drop rejected", noted("drop-based rewriting rejected"));
  count("drop impossible", noted("drop-based rewriting not possible"));
  count("probe", noted(" is non-replaceable (RR=false)"));
  count("unreachable cover", noted(" is not reachable from "));
  count("search cut", noted("join-tree search cut "));
}

void ExpectSameResult(const std::string& label,
                      const Result<CvsResult>& want_or,
                      const Result<CvsResult>& got_or, bool delete_attribute,
                      Totals* totals) {
  ASSERT_EQ(want_or.ok(), got_or.ok()) << label;
  if (!got_or.ok()) {
    EXPECT_EQ(want_or.status().ToString(), got_or.status().ToString())
        << label;
    return;
  }
  const CvsResult& want = want_or.value();
  const CvsResult& got = got_or.value();
  ASSERT_EQ(want.rewritings.size(), got.rewritings.size()) << label;
  for (size_t i = 0; i < got.rewritings.size(); ++i) {
    const SynchronizedView& expected = want.rewritings[i];
    const SynchronizedView& actual = got.rewritings[i];
    EXPECT_EQ(RewritingText(expected), RewritingText(actual))
        << label << " rewriting " << i;
    if (delete_attribute) {
      if (!actual.is_drop) {
        EXPECT_EQ(actual.candidate.extent_floor,
                  actual.legality.inferred_extent)
            << label << " rewriting " << i;
      }
    } else {
      EXPECT_EQ(expected.candidate.extent_floor, actual.candidate.extent_floor)
          << label << " rewriting " << i;
    }
  }
  std::vector<std::string> expected_notes;
  for (const std::string& note : want.diagnostics) {
    expected_notes.push_back(delete_attribute ? SharedTrimWording(note)
                                              : note);
  }
  EXPECT_EQ(expected_notes, got.diagnostics) << label;
  EXPECT_EQ(StatsText(want.enumeration), StatsText(got.enumeration)) << label;
  CountPaths(delete_attribute ? "attribute" : "relation", got, totals);
}

// One capability change a view is synchronized under.
struct Change {
  CapabilityChange change;
  Mkb mkb_prime;
};

// Delete-relation of every FROM relation of `view`; delete-attribute of
// every payload it reads and of the first join attribute in its WHERE.
std::vector<Change> ChangesFor(const World& world, const ViewDefinition& view) {
  std::vector<CapabilityChange> changes;
  for (const ViewRelation& rel : view.from()) {
    changes.push_back(CapabilityChange::DeleteRelation(rel.name));
    for (const char* payload : {"P", "Q"}) {
      if (view.ReferencesAttribute(AttributeRef{rel.name, payload})) {
        changes.push_back(
            CapabilityChange::DeleteAttribute(rel.name, payload));
      }
    }
  }
  for (const ViewCondition& cond : view.where()) {
    std::vector<AttributeRef> cols;
    cond.clause->CollectColumns(&cols);
    if (!cols.empty() && cols.front().attribute[0] == 'K') {
      changes.push_back(CapabilityChange::DeleteAttribute(
          cols.front().relation, cols.front().attribute));
      break;
    }
  }
  std::vector<Change> out;
  for (const CapabilityChange& change : changes) {
    Result<MkbEvolutionReport> evolution = EvolveMkb(world.mkb, change);
    EXPECT_TRUE(evolution.ok()) << evolution.status().ToString();
    if (!evolution.ok()) continue;
    out.push_back(Change{change, std::move(evolution.value().mkb)});
  }
  return out;
}

// A work budget of kExpired stands for a token whose wall deadline has
// passed before the synchronization starts: it stops at the first check.
constexpr uint64_t kExpired = UINT64_MAX;

// A fresh token per run: none for 0, else `work` units or expired.
DeadlineToken TokenFor(uint64_t work) {
  if (work == 0) return DeadlineToken();
  if (work != kExpired) return DeadlineToken::Root({work, 0});
  static ManualClock clock;
  clock.Set(1);  // at the deadline below
  return DeadlineToken::Root({0, 1}, &clock);
}

Result<CvsResult> RunLegacy(const ViewDefinition& view, const Change& change,
                            const SyncContext& context,
                            const CvsOptions& options) {
  if (change.change.kind == CapabilityChange::Kind::kDeleteRelation) {
    return legacy::SynchronizeDeleteRelation(view, change.change.relation,
                                             context, options);
  }
  return legacy::SynchronizeDeleteAttribute(view, change.change.relation,
                                            change.change.attribute, context,
                                            options);
}

TEST(CvsDriverEquivalence, MatchesTheLegacyDriversOnRandomFederations) {
  Totals totals;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    const World world = MakeWorld(&rng);
    for (size_t v = 0; v < 3; ++v) {
      // Every view-extent parameter, so P3 rejects some rewritings.
      constexpr ViewExtent kExtents[] = {ViewExtent::kAny, ViewExtent::kEqual,
                                         ViewExtent::kSuperset,
                                         ViewExtent::kSubset};
      const ViewDefinition drawn =
          MakeView(world, &rng, "v" + std::to_string(v));
      const ViewDefinition view(drawn.name(), kExtents[(seed + v) % 4],
                                drawn.select(), drawn.from(), drawn.where());
      for (const Change& change : ChangesFor(world, view)) {
        const bool delete_attribute =
            change.change.kind == CapabilityChange::Kind::kDeleteAttribute;
        const SyncContext legacy_context(world.mkb, change.mkb_prime);
        const SyncContext context(world.mkb, change.mkb_prime);
        CvsOptions options;
        options.replacement.max_extra_relations =
            std::uniform_int_distribution<size_t>(1, 3)(rng);
        options.replacement.max_cover_combinations = seed % 4 == 0 ? 2 : 256;
        for (const bool chase : {false, true}) {
          options.replacement.chase_optional_covers = chase;
          for (const bool flat : {false, true}) {
            if (flat) {
              options.cost_model = FlatCostModel();
            } else {
              options.cost_model.reset();
            }
            for (const bool require : {true, false}) {
              options.require_view_extent = require;
              for (const bool drop : {true, false}) {
                options.include_drop_rewriting = drop;
                for (const size_t top_k : {0, 1, 2}) {
                  options.top_k = top_k;
                  for (const size_t cap : {0, 1, 3, 32}) {
                    options.replacement.max_results = cap;
                    for (const uint64_t work :
                         {uint64_t{0}, uint64_t{5}, uint64_t{12}, uint64_t{40},
                          kExpired}) {
                      const std::string label =
                          "seed " + std::to_string(seed) + " view " +
                          view.name() + " " + change.change.ToString() +
                          (chase ? " chase" : "") + (flat ? " flat" : "") +
                          (require ? "" : " keep-p3") +
                          (drop ? "" : " no-drop") + " top_k " +
                          std::to_string(top_k) + " max_results " +
                          std::to_string(cap) + " work " +
                          std::to_string(work);
                      options.replacement.token = TokenFor(work);
                      CvsOptions legacy_options = options;
                      legacy_options.replacement.token = TokenFor(work);
                      const Result<CvsResult> want = RunLegacy(
                          view, change, legacy_context, legacy_options);
                      const Result<CvsResult> got =
                          Synchronize(view, change.change, context, options);
                      ExpectSameResult(label, want, got, delete_attribute,
                                       &totals);
                      if (::testing::Test::HasFailure()) return;
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  // The sweep must reach every path the drivers could differ on.
  const Totals floors = {{"attribute budget stop", 1500},
                         {"attribute candidate rejected", 2500},
                         {"attribute cap stop", 2000},
                         {"attribute drop impossible", 250},
                         {"attribute drop kept", 3500},
                         {"attribute drop rejected", 500},
                         {"attribute no rewriting", 15000},
                         {"attribute replacement kept", 6500},
                         {"attribute run", 50000},
                         {"attribute search cut", 3000},
                         {"attribute top-k stop", 2500},
                         {"attribute trim", 400},
                         {"attribute unreachable cover", 200},
                         {"relation budget stop", 700},
                         {"relation candidate rejected", 1400},
                         {"relation cap stop", 700},
                         {"relation drop impossible", 3000},
                         {"relation drop kept", 100},
                         {"relation drop rejected", 140},
                         {"relation no rewriting", 10000},
                         {"relation probe", 2500},
                         {"relation replacement kept", 3500},
                         {"relation run", 30000},
                         {"relation search cut", 1200},
                         {"relation top-k stop", 800},
                         {"relation trim", 40}};
  for (const auto& [path, floor] : floors) {
    EXPECT_GE(totals[path], floor) << path;
  }
}

// The views of one change, synchronized from four threads on one shared
// SyncContext (their join-tree searches are shared, each replayed from
// whichever thread gets there first), give what the legacy drivers give
// one view at a time on a private context.
TEST(CvsDriverEquivalence, FourThreadsOnASharedContextMatchTheLegacyDrivers) {
  constexpr size_t kThreads = 4;
  Totals totals;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed);
    const World world = MakeWorld(&rng);
    std::vector<ViewDefinition> views;
    for (size_t v = 0; v < 12; ++v) {
      views.push_back(MakeView(world, &rng, "v" + std::to_string(v)));
    }
    for (const std::string& name : world.names) {
      for (const CapabilityChange& change :
           {CapabilityChange::DeleteRelation(name),
            CapabilityChange::DeleteAttribute(name, "P")}) {
        Result<MkbEvolutionReport> evolution = EvolveMkb(world.mkb, change);
        ASSERT_TRUE(evolution.ok()) << evolution.status().ToString();
        const Change evolved{change, std::move(evolution.value().mkb)};
        for (const uint64_t work : {0, 12}) {
          // Each view gets its own token, as EveSystem's per-view children.
          const auto options_for_view = [&] {
            CvsOptions options;
            options.top_k = 1;
            options.replacement.chase_optional_covers = seed % 2 == 0;
            if (work > 0) {
              options.replacement.token = DeadlineToken::Root({work, 0});
            }
            return options;
          };
          std::vector<Result<CvsResult>> want;
          const SyncContext legacy_context(world.mkb, evolved.mkb_prime);
          for (const ViewDefinition& view : views) {
            want.push_back(
                RunLegacy(view, evolved, legacy_context, options_for_view()));
          }

          const SyncContext context(world.mkb, evolved.mkb_prime);
          std::vector<std::optional<Result<CvsResult>>> got(views.size());
          std::atomic<size_t> arrived{0};
          std::vector<std::thread> threads;
          for (size_t t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
              arrived.fetch_add(1);
              while (arrived.load() < kThreads) std::this_thread::yield();
              for (size_t i = t; i < views.size(); i += kThreads) {
                got[i].emplace(
                    Synchronize(views[i], change, context, options_for_view()));
              }
            });
          }
          for (std::thread& thread : threads) thread.join();
          for (size_t i = 0; i < views.size(); ++i) {
            ExpectSameResult("seed " + std::to_string(seed) + " " +
                                 change.ToString() + " work " +
                                 std::to_string(work) + " view " +
                                 views[i].name(),
                             want[i], *got[i],
                             change.kind ==
                                 CapabilityChange::Kind::kDeleteAttribute,
                             &totals);
            if (::testing::Test::HasFailure()) return;
          }
        }
      }
    }
  }
  for (const char* path :
       {"attribute top-k stop", "attribute budget stop", "relation top-k stop",
        "relation budget stop", "relation probe"}) {
    EXPECT_GE(totals[path], 3u) << path;
  }
}

}  // namespace
}  // namespace eve
