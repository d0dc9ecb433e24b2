// Property tests for the lazy best-first candidate enumeration: the
// streaming pipeline must agree with the eager reference kept in
// legacy_candidate_stream.h (same candidate set), yield in nondecreasing
// lower-bound order with admissible bounds, and a top-k run must return
// exactly the prefix the exhaustive run ranks first. In particular a
// top-1 run, which is what EveSystem commits from, returns the exhaustive
// run's front, ties included.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cvs/cvs.h"
#include "cvs/r_mapping.h"
#include "cvs/r_replacement.h"
#include "hypergraph/join_graph.h"
#include "legacy_candidate_stream.h"
#include "mkb/evolution.h"
#include "workload/generator.h"

namespace eve {
namespace {

std::vector<std::string> SortedKeys(
    const std::vector<ReplacementCandidate>& candidates) {
  std::vector<std::string> keys;
  keys.reserve(candidates.size());
  for (const ReplacementCandidate& candidate : candidates) {
    keys.push_back(legacy::CandidateKey(candidate));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Options wide enough that nothing is truncated: both enumerations run
// the space to exhaustion.
RReplacementOptions ExhaustiveOptions() {
  RReplacementOptions options;
  options.max_results = 100000;
  options.max_cover_combinations = 100000;
  options.max_extra_relations = 4;
  return options;
}

TEST(EnumerationEquivalence, StreamMatchesEagerOnRandomMkbs) {
  size_t comparable = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RandomMkbSpec spec;
    spec.num_relations = 10;
    spec.seed = seed;
    const Mkb mkb = MakeRandomMkb(spec).value();
    std::mt19937_64 rng(seed);
    const Result<ViewDefinition> view_or =
        MakeRandomConnectedView(mkb, &rng, 3);
    if (!view_or.ok()) continue;
    const ViewDefinition& view = view_or.value();
    const std::string victim = view.from().front().name;

    const Result<RMapping> mapping_or = ComputeRMapping(view, victim, mkb);
    if (!mapping_or.ok()) continue;
    const Result<MkbEvolutionReport> evolution =
        EvolveMkb(mkb, CapabilityChange::DeleteRelation(victim));
    if (!evolution.ok()) continue;
    const JoinGraph graph_prime = JoinGraph::Build(evolution.value().mkb);

    const RReplacementOptions options = ExhaustiveOptions();
    const Result<std::vector<ReplacementCandidate>> eager =
        legacy::ComputeRReplacementsEager(view, mapping_or.value(), mkb,
                                          graph_prime, options);
    const Result<std::vector<ReplacementCandidate>> lazy =
        ComputeRReplacements(view, mapping_or.value(), mkb, graph_prime,
                             options);
    ASSERT_EQ(eager.ok(), lazy.ok()) << "seed " << seed;
    if (!eager.ok()) continue;
    EXPECT_EQ(SortedKeys(eager.value()), SortedKeys(lazy.value()))
        << "seed " << seed;
    if (!eager.value().empty()) ++comparable;
  }
  // The sweep must actually exercise non-trivial candidate spaces.
  EXPECT_GE(comparable, 4u);
}

TEST(EnumerationEquivalence, StreamYieldsInNondecreasingBoundOrder) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RandomMkbSpec spec;
    spec.num_relations = 10;
    spec.seed = seed;
    const Mkb mkb = MakeRandomMkb(spec).value();
    std::mt19937_64 rng(seed);
    const Result<ViewDefinition> view_or =
        MakeRandomConnectedView(mkb, &rng, 3);
    if (!view_or.ok()) continue;
    const ViewDefinition& view = view_or.value();
    const std::string victim = view.from().front().name;
    const Result<RMapping> mapping_or = ComputeRMapping(view, victim, mkb);
    if (!mapping_or.ok()) continue;
    const Result<MkbEvolutionReport> evolution =
        EvolveMkb(mkb, CapabilityChange::DeleteRelation(victim));
    if (!evolution.ok()) continue;
    const JoinGraph graph_prime = JoinGraph::Build(evolution.value().mkb);

    Result<CandidateStream> stream_or = CandidateStream::Create(
        view, mapping_or.value(), mkb, graph_prime, ExhaustiveOptions(),
        DefaultRankingCostModel());
    if (!stream_or.ok()) continue;
    CandidateStream stream = stream_or.MoveValue();
    double last = -1.0;
    while (std::optional<ReplacementCandidate> candidate = stream.Next()) {
      EXPECT_GE(candidate->cost_lower_bound, last) << "seed " << seed;
      last = candidate->cost_lower_bound;
    }
    EXPECT_TRUE(stream.Exhausted());
    EXPECT_TRUE(stream.stats().exhausted);
  }
}

class CoverFanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CoverFanMkbSpec spec;
    spec.num_covers = 8;
    mkb_ = MakeCoverFanMkb(spec).MoveValue();
    view_ = MakeCoverFanView(mkb_).MoveValue();
    mkb_prime_ = EvolveMkb(mkb_, CapabilityChange::DeleteRelation("R0"))
                     .MoveValue()
                     .mkb;
  }

  CvsOptions WideOptions() const {
    CvsOptions options;
    options.replacement.max_results = 100000;
    options.replacement.max_cover_combinations = 100000;
    options.replacement.max_extra_relations = 8;
    return options;
  }

  Mkb mkb_;
  Mkb mkb_prime_;
  ViewDefinition view_;
};

TEST_F(CoverFanTest, CandidateCostsIncreaseWithCoverDistance) {
  const CvsResult result =
      SynchronizeDeleteRelation(view_, "R0", mkb_, mkb_prime_, WideOptions())
          .value();
  // One rewriting per cover distance, each strictly wider than the last.
  ASSERT_GE(result.rewritings.size(), 8u);
  for (size_t i = 1; i < result.rewritings.size(); ++i) {
    EXPECT_LE(result.rewritings[i - 1].cost.total,
              result.rewritings[i].cost.total);
  }
  // The PC constraints justify every pure-path rewriting as equal-extent.
  EXPECT_EQ(result.rewritings.front().legality.inferred_extent,
            ExtentRelation::kEqual);
}

TEST_F(CoverFanTest, TopKPrefixMatchesExhaustiveRun) {
  const CvsResult full =
      SynchronizeDeleteRelation(view_, "R0", mkb_, mkb_prime_, WideOptions())
          .value();
  ASSERT_GE(full.rewritings.size(), 4u);

  // k = 1 is what EveSystem runs: it commits only the front rewriting.
  for (const size_t k : {size_t{1}, size_t{4}}) {
    CvsOptions top_k = WideOptions();
    top_k.top_k = k;
    const CvsResult pruned =
        SynchronizeDeleteRelation(view_, "R0", mkb_, mkb_prime_, top_k)
            .value();
    ASSERT_EQ(pruned.rewritings.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(pruned.rewritings[i].view.ToString(),
                full.rewritings[i].view.ToString())
          << "k " << k << " rank " << i;
      EXPECT_EQ(pruned.rewritings[i].cost.total, full.rewritings[i].cost.total)
          << "k " << k << " rank " << i;
    }
    // The bound must actually fire: the full space has strictly worse
    // candidates behind the k-th best.
    EXPECT_TRUE(pruned.enumeration.terminated_early) << "k " << k;
    EXPECT_LT(pruned.enumeration.candidates_yielded,
              full.enumeration.candidates_yielded)
        << "k " << k;
  }
}

// The view with every FROM relation, SELECT item and WHERE condition given
// the parameters `params_of` picks for it (by the relations it mentions).
template <typename ParamsOf>
ViewDefinition WithParams(const ViewDefinition& view, ParamsOf params_of) {
  std::vector<ViewSelectItem> select = view.select();
  for (ViewSelectItem& item : select) {
    std::vector<AttributeRef> refs;
    item.expr->CollectColumns(&refs);
    item.params = params_of(refs);
  }
  std::vector<ViewRelation> from = view.from();
  for (ViewRelation& rel : from) {
    rel.params =
        params_of(std::vector<AttributeRef>{AttributeRef{rel.name, ""}});
  }
  std::vector<ViewCondition> where = view.where();
  for (ViewCondition& cond : where) {
    std::vector<AttributeRef> refs;
    cond.clause->CollectColumns(&refs);
    cond.params = params_of(refs);
  }
  return ViewDefinition(view.name(), view.extent(), std::move(select),
                        std::move(from), std::move(where));
}

// What EveSystem commits from a result: the front rewriting, under the
// registered name (rewritings are numbered V', V'2, ... in the order they
// were built, and a top-1 run builds fewer of them).
std::string FrontFingerprint(const CvsResult& result,
                             const std::string& name) {
  if (!result.ViewPreserved()) {
    std::string out = "disabled:";
    for (const std::string& diagnostic : result.diagnostics) {
      out += " " + diagnostic + ";";
    }
    return out;
  }
  const SynchronizedView& front = result.rewritings.front();
  ViewDefinition view = front.view;
  view.set_name(name);
  std::ostringstream os;
  os << (front.is_drop ? "drop " : "replacement ") << front.cost.total << " "
     << front.legality.ToString() << " legal=" << front.legality.legal()
     << "\n"
     << view.ToString();
  return os.str();
}

struct FrontTotals {
  size_t compared = 0;
  size_t preserved = 0;
  size_t drop_fronts = 0;
  size_t drop_seeded = 0;  // a drop-based rewriting was ranked
  size_t stopped_early = 0;
  size_t attribute_changes = 0;
};

// A model that charges nothing: every rewriting ties with every other, so
// the front is decided by arrival order alone, and a drop-based rewriting
// ranks behind every candidate.
RewritingCostModel FlatCostModel() {
  RewritingCostModel model;
  model.dropped_attribute_penalty = 0.0;
  model.dropped_condition_penalty = 0.0;
  model.extra_relation_penalty = 0.0;
  model.extent_directional_penalty = 0.0;
  model.extent_unknown_penalty = 0.0;
  return model;
}

// Runs `change` on `view` with top_k = 0 and top_k = 1 and checks that the
// fronts agree, with and without require_view_extent, under the default
// ranking and under a flat cost model.
void CompareFronts(const ViewDefinition& view, const CapabilityChange& change,
                   const Mkb& mkb, const std::string& label,
                   FrontTotals* totals) {
  const Result<MkbEvolutionReport> evolution = EvolveMkb(mkb, change);
  ASSERT_TRUE(evolution.ok()) << label;
  const SyncContext context(mkb, evolution.value().mkb);
  for (const int setting : {0, 1, 2, 3}) {
    const bool require_extent = setting % 2 == 0;
    CvsOptions exhaustive;
    exhaustive.require_view_extent = require_extent;
    if (setting >= 2) exhaustive.cost_model = FlatCostModel();
    CvsOptions top_one = exhaustive;
    top_one.top_k = 1;
    const Result<CvsResult> full = Synchronize(view, change, context,
                                               exhaustive);
    const Result<CvsResult> front = Synchronize(view, change, context,
                                                top_one);
    ASSERT_EQ(full.ok(), front.ok()) << label;
    if (!full.ok()) continue;
    ++totals->compared;
    if (change.kind == CapabilityChange::Kind::kDeleteAttribute) {
      ++totals->attribute_changes;
    }
    EXPECT_EQ(FrontFingerprint(front.value(), view.name()),
              FrontFingerprint(full.value(), view.name()))
        << label << " setting " << setting;
    EXPECT_LE(front.value().rewritings.size(), 1u) << label;
    if (full.value().ViewPreserved()) {
      ++totals->preserved;
      if (full.value().rewritings.front().is_drop) ++totals->drop_fronts;
    }
    for (const SynchronizedView& rewriting : full.value().rewritings) {
      if (rewriting.is_drop) ++totals->drop_seeded;
    }
    if (front.value().enumeration.terminated_early) ++totals->stopped_early;
  }
}

TEST(EnumerationEquivalence, TopOneFrontMatchesExhaustiveFront) {
  // Random federations and a whatif-style chain (covers four joins away),
  // every FROM relation of each view deleted in turn, and its payload
  // attribute deleted too. Each view runs in three parameter settings:
  // as generated (nothing dispensable), with the victim's components
  // dispensable (the drop-based rewriting is probed before the pull loop
  // and seeds the top-1 bound), and with every component dispensable.
  std::vector<std::pair<std::string, Mkb>> mkbs;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RandomMkbSpec spec;
    spec.num_relations = 10;
    spec.seed = seed;
    mkbs.emplace_back("random " + std::to_string(seed),
                      MakeRandomMkb(spec).MoveValue());
  }
  ChainMkbSpec chain;
  chain.length = 12;
  chain.cover_distance = 4;
  mkbs.emplace_back("chain", MakeChainMkb(chain).MoveValue());

  FrontTotals totals;
  for (const auto& [mkb_label, mkb] : mkbs) {
    std::mt19937_64 rng(mkbs.size() + mkb_label.size());
    std::vector<ViewDefinition> views;
    for (size_t i = 0; i < 3; ++i) {
      Result<ViewDefinition> view = MakeRandomConnectedView(mkb, &rng, 3);
      if (view.ok()) views.push_back(view.MoveValue());
    }
    if (mkb_label == "chain") {
      for (size_t start = 0; start + 3 <= 9; start += 3) {
        views.push_back(MakeChainView(mkb, start, 3).MoveValue());
      }
    }
    for (size_t v = 0; v < views.size(); ++v) {
      const ViewDefinition& generated = views[v];
      for (const ViewRelation& victim : generated.from()) {
        const std::string& r = victim.name;
        const auto touches_r = [&](const std::vector<AttributeRef>& refs) {
          return std::any_of(refs.begin(), refs.end(),
                             [&](const AttributeRef& ref) {
                               return ref.relation == r;
                             });
        };
        const std::vector<ViewDefinition> variants{
            generated,
            WithParams(generated,
                       [&](const std::vector<AttributeRef>& refs) {
                         return EvolutionParams{touches_r(refs), true};
                       }),
            WithParams(generated, [](const std::vector<AttributeRef>&) {
              return EvolutionParams{true, true};
            })};
        for (size_t variant = 0; variant < variants.size(); ++variant) {
          const std::string label = mkb_label + " view " + std::to_string(v) +
                                    " victim " + r + " variant " +
                                    std::to_string(variant);
          CompareFronts(variants[variant],
                        CapabilityChange::DeleteRelation(r), mkb, label,
                        &totals);
          for (const AttributeRef& attr : generated.AttributesOf(r)) {
            CompareFronts(variants[variant],
                          CapabilityChange::DeleteAttribute(r, attr.attribute),
                          mkb, label + " attribute " + attr.attribute,
                          &totals);
          }
        }
      }
    }
  }
  // The sweep must reach the cases the top-1 bound treats differently.
  EXPECT_GE(totals.compared, 2000u);
  EXPECT_GE(totals.preserved, 1500u);
  EXPECT_GE(totals.drop_fronts, 500u);
  EXPECT_GE(totals.drop_seeded, 1000u);
  EXPECT_GE(totals.stopped_early, 300u);
  EXPECT_GE(totals.attribute_changes, 1000u);
}

// Every rewriting's ToString(), then the diagnostics, then the stats.
std::string ResultFingerprint(const Result<CvsResult>& result) {
  if (!result.ok()) return "error: " + result.status().ToString();
  std::string out;
  for (const SynchronizedView& rewriting : result.value().rewritings) {
    out += rewriting.ToString() + "\n";
  }
  out += "--\n";
  for (const std::string& diagnostic : result.value().diagnostics) {
    out += diagnostic + "\n";
  }
  return out + "--\n" + result.value().enumeration.ToString();
}

TEST(EnumerationEquivalence, SharedContextMatchesPrivateContexts) {
  // A whatif-style chain pool (covers four joins away) in which every view
  // shape appears twice under different names, once more with every
  // component dispensable: the affected views of a delete ask for the same
  // join-tree searches, which one SyncContext runs once and shares. Each
  // view synchronized through that shared context, after the views before
  // it grew the logs, must come out exactly as through a fresh context of
  // its own, at top_k 0 and 1 and without and with every work budget from
  // 1 to 8 (a fresh token per run).
  ChainMkbSpec spec;
  spec.length = 14;
  spec.cover_distance = 4;
  const Mkb mkb = MakeChainMkb(spec).MoveValue();
  std::vector<ViewDefinition> pool;
  for (size_t start = 1; start <= 7; ++start) {
    for (size_t span = 1; span <= 3; ++span) {
      const ViewDefinition shape = MakeChainView(mkb, start, span).MoveValue();
      for (const bool dispensable : {false, false, true}) {
        ViewDefinition view =
            WithParams(shape, [&](const std::vector<AttributeRef>&) {
              return EvolutionParams{dispensable, true};
            });
        view.set_name("v" + std::to_string(pool.size()));
        pool.push_back(std::move(view));
      }
    }
  }
  size_t compared = 0, preserved = 0, partial = 0, stopped_early = 0;
  size_t searched = 0;
  for (const CapabilityChange& change :
       {CapabilityChange::DeleteRelation("R4"),
        CapabilityChange::DeleteAttribute("R4", "P4"),
        CapabilityChange::DeleteRelation("R5"),
        CapabilityChange::DeleteAttribute("R5", "P5"),
        CapabilityChange::DeleteRelation("R6"),
        CapabilityChange::DeleteAttribute("R6", "P6")}) {
    const Mkb mkb_prime = EvolveMkb(mkb, change).MoveValue().mkb;
    for (const size_t top_k : {size_t{0}, size_t{1}}) {
      for (uint64_t budget = 0; budget <= 8; ++budget) {
        const SyncContext shared(mkb, mkb_prime);
        for (const ViewDefinition& view : pool) {
          if (!view.HasFromRelation(change.relation)) continue;
          if (change.kind == CapabilityChange::Kind::kDeleteAttribute &&
              !view.ReferencesAttribute({change.relation, change.attribute})) {
            continue;
          }
          CvsOptions options;
          options.top_k = top_k;
          CvsOptions private_options = options;
          if (budget > 0) {
            options.replacement.token = DeadlineToken::Root({budget, 0});
            private_options.replacement.token =
                DeadlineToken::Root({budget, 0});
          }
          const Result<CvsResult> got =
              Synchronize(view, change, shared, options);
          const SyncContext fresh(mkb, mkb_prime);
          const Result<CvsResult> want =
              Synchronize(view, change, fresh, private_options);
          ASSERT_EQ(ResultFingerprint(got), ResultFingerprint(want))
              << view.name() << " under " << change.ToString() << ", top_k "
              << top_k << ", budget " << budget;
          ++compared;
          if (!got.ok()) continue;
          const EnumerationStats& stats = got.value().enumeration;
          if (got.value().ViewPreserved()) ++preserved;
          if (stats.deadline.partial) ++partial;
          if (stats.terminated_early) ++stopped_early;
          if (stats.trees_expanded > 0) ++searched;
        }
      }
    }
  }
  // The sweep must reach searches, budget stops and top-1 stops.
  EXPECT_GE(compared, 1800u);
  EXPECT_GE(preserved, 700u);
  EXPECT_GE(partial, 1000u);
  EXPECT_GE(stopped_early, 150u);
  EXPECT_GE(searched, 1500u);
}

TEST_F(CoverFanTest, LowerBoundsAreAdmissible) {
  const CvsResult result =
      SynchronizeDeleteRelation(view_, "R0", mkb_, mkb_prime_, WideOptions())
          .value();
  for (const SynchronizedView& rewriting : result.rewritings) {
    if (rewriting.is_drop) continue;
    EXPECT_LE(rewriting.candidate.cost_lower_bound,
              rewriting.cost.total + 1e-9)
        << rewriting.view.name();
  }
}

TEST_F(CoverFanTest, BudgetedRunReturnsPrefixOfUnbudgetedTopK) {
  // A run stopped by the logical work budget must return a PREFIX of what
  // the unbudgeted run ranks first — a valid best-under-budget partial
  // answer, not an arbitrary subset — and must overshoot the budget by at
  // most the one refused step.
  const CvsResult full =
      SynchronizeDeleteRelation(view_, "R0", mkb_, mkb_prime_, WideOptions())
          .value();
  ASSERT_GE(full.rewritings.size(), 8u);
  for (const uint64_t budget :
       {uint64_t{3}, uint64_t{8}, uint64_t{20}, uint64_t{60}}) {
    CvsOptions options = WideOptions();
    options.replacement.token = DeadlineToken::Root({budget, 0});
    const CvsResult partial =
        SynchronizeDeleteRelation(view_, "R0", mkb_, mkb_prime_, options)
            .value();
    ASSERT_LE(partial.rewritings.size(), full.rewritings.size())
        << "budget " << budget;
    for (size_t i = 0; i < partial.rewritings.size(); ++i) {
      EXPECT_EQ(partial.rewritings[i].view.ToString(),
                full.rewritings[i].view.ToString())
          << "budget " << budget << " rank " << i;
      EXPECT_EQ(partial.rewritings[i].cost.total, full.rewritings[i].cost.total)
          << "budget " << budget << " rank " << i;
    }
    EXPECT_EQ(partial.enumeration.deadline.work_budget, budget);
    // Spend-before-step: the refused unit is counted but never executed.
    EXPECT_LE(partial.enumeration.deadline.work_spent, budget + 1);
    if (partial.rewritings.size() < full.rewritings.size()) {
      EXPECT_TRUE(partial.enumeration.deadline.partial) << "budget " << budget;
      EXPECT_EQ(partial.enumeration.deadline.stop_cause,
                StopCause::kWorkBudget);
    }
  }
}

TEST_F(CoverFanTest, PullCapReportsTruncation) {
  CvsOptions options = WideOptions();
  options.replacement.max_results = 2;
  const CvsResult result =
      SynchronizeDeleteRelation(view_, "R0", mkb_, mkb_prime_, options)
          .value();
  EXPECT_LE(result.enumeration.candidates_yielded, 2u);
  EXPECT_FALSE(result.enumeration.exhausted);
  EXPECT_GT(result.enumeration.states_pending, 0u);
  const bool noted = std::any_of(
      result.diagnostics.begin(), result.diagnostics.end(),
      [](const std::string& d) {
        return d.find("max_results=2 stopped the enumeration") !=
               std::string::npos;
      });
  EXPECT_TRUE(noted);
}

TEST_F(CoverFanTest, ComboTruncationIsDiagnosed) {
  CvsOptions options = WideOptions();
  options.replacement.max_cover_combinations = 1;
  const CvsResult result =
      SynchronizeDeleteRelation(view_, "R0", mkb_, mkb_prime_, options)
          .value();
  EXPECT_GT(result.enumeration.combos_truncated, 0u);
  const bool noted = std::any_of(
      result.diagnostics.begin(), result.diagnostics.end(),
      [](const std::string& d) {
        return d.find("max_cover_combinations") != std::string::npos;
      });
  EXPECT_TRUE(noted);
}

}  // namespace
}  // namespace eve
