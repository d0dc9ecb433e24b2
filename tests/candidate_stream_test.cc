// Differential test of CandidateStream against the string-keyed stream it
// replaced (legacy_candidate_stream.h). Both run side by side on seeded
// random federations — relation names that sort in a shuffled order and
// contain '|', parallel JCs, one to three covers per payload placed
// anywhere in the graph, identity, arithmetic and constant cover
// functions, PC constraints of every direction that certify the cover
// pair, a wrong pair or no pair — with random views, evolution parameters
// and victims. Each pair of streams runs under top_k 0 and 1 (the
// TopKBound stop rule of SynchronizeDeleteRelation), every work budget
// from 0 to 40, chase_optional_covers off and on, the default and a flat
// cost model, and over a private and a shared join graph. Before and
// after every Next() the two must agree on NextLowerBound() (bit for
// bit), PendingStates(), Exhausted(), deadline_stopped(), the stats and
// TruncationNotes(); every yielded candidate must match in its tree
// (relations, edges), replacements, unreplaced attributes and
// cost_lower_bound (bit for bit), and its extent floor must equal the
// string CandidateExtentFloor of the materialized candidate.
//
// The last test is the dedup regression: the trees {A, B, X, Y} and
// {"A|B", X, Y} are distinct candidates.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "cvs/cost_model.h"
#include "cvs/cvs.h"
#include "cvs/r_mapping.h"
#include "cvs/r_replacement.h"
#include "hypergraph/join_graph.h"
#include "legacy_candidate_stream.h"
#include "mkb/evolution.h"
#include "mkb/mkb.h"
#include "random_federation.h"

namespace eve {
namespace {

using testing_federation::Attr;
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

std::string CandidateText(const ReplacementCandidate& candidate) {
  std::ostringstream os;
  os << candidate.ToString() << "\nrelations:";
  for (const std::string& rel : candidate.tree.relations) os << " " << rel;
  os << "\nedges:";
  for (const JoinConstraint& edge : candidate.tree.edges) {
    os << " " << edge.ToString();
  }
  os << "\ncovers:";
  for (const AttributeReplacement& repl : candidate.replacements) {
    os << " " << repl.cover_relation;
  }
  os << "\nbound " << Bits(candidate.cost_lower_bound) << " floor "
     << ExtentRelationToString(candidate.extent_floor);
  return os.str();
}

struct Totals {
  size_t streams = 0;
  size_t disabled = 0;  // Create failed on both sides
  size_t candidates = 0;
  size_t with_unreplaced = 0;
  size_t opportunistic = 0;  // an optional attribute covered, unchased
  size_t duplicates = 0;
  size_t budget_stops = 0;
  size_t top_k_stops = 0;
  size_t truncated = 0;
  size_t sets_cut = 0;
  std::set<ExtentRelation> floors;
};

// Runs the two streams side by side, pulling as SynchronizeDeleteRelation
// does: stop once the TopKBound excludes the next lower bound, with each
// yielded candidate's bound standing in for its score.
void CompareStreams(const std::string& label, const ViewDefinition& view,
                    const RMapping& mapping, const Mkb& mkb,
                    const JoinGraph& graph, RReplacementOptions options,
                    const RewritingCostModel& model, size_t top_k,
                    uint64_t budget, Totals* totals) {
  RReplacementOptions legacy_options = options;
  if (budget > 0) {
    options.token = DeadlineToken::Root({budget, 0});
    legacy_options.token = DeadlineToken::Root({budget, 0});
  }
  Result<legacy::CandidateStream> want_or = legacy::CandidateStream::Create(
      view, mapping, mkb, graph, legacy_options, model);
  Result<CandidateStream> got_or =
      CandidateStream::Create(view, mapping, mkb, graph, options, model);
  ASSERT_EQ(want_or.ok(), got_or.ok()) << label;
  if (!got_or.ok()) {
    EXPECT_EQ(want_or.status().ToString(), got_or.status().ToString())
        << label;
    ++totals->disabled;
    return;
  }
  legacy::CandidateStream want = want_or.MoveValue();
  CandidateStream got = got_or.MoveValue();
  ++totals->streams;
  const size_t mandatory =
      ClassifyAttributeNeeds(view, mapping).value().mandatory.size();

  const auto compare_state = [&](size_t step) {
    const std::string at = label + " step " + std::to_string(step);
    EXPECT_EQ(Bits(want.NextLowerBound()), Bits(got.NextLowerBound())) << at;
    EXPECT_EQ(want.PendingStates(), got.PendingStates()) << at;
    EXPECT_EQ(want.Exhausted(), got.Exhausted()) << at;
    EXPECT_EQ(want.deadline_stopped(), got.deadline_stopped()) << at;
    EXPECT_EQ(StatsText(want.stats()), StatsText(got.stats())) << at;
    EXPECT_EQ(want.TruncationNotes(), got.TruncationNotes()) << at;
    return !::testing::Test::HasFailure();
  };

  TopKBound bound(top_k);
  for (size_t step = 0;; ++step) {
    if (!compare_state(step)) return;
    if (bound.Excludes(got.NextLowerBound())) {
      if (!got.Exhausted()) ++totals->top_k_stops;
      break;
    }
    const std::optional<ReplacementCandidate> expected = want.Next();
    const std::optional<ReplacementCandidate> candidate = got.Next();
    ASSERT_EQ(expected.has_value(), candidate.has_value())
        << label << " step " << step;
    if (!candidate.has_value()) {
      compare_state(step + 1);
      break;
    }
    ASSERT_EQ(CandidateText(*expected), CandidateText(*candidate))
        << label << " step " << step;
    ASSERT_EQ(candidate->extent_floor,
              legacy::CandidateExtentFloor(mapping, *candidate, mkb))
        << label << " step " << step;
    bound.AddCandidate(candidate->cost_lower_bound);
    ++totals->candidates;
    if (!candidate->unreplaced.empty()) ++totals->with_unreplaced;
    if (!options.chase_optional_covers &&
        candidate->replacements.size() > mandatory) {
      ++totals->opportunistic;
    }
    totals->floors.insert(candidate->extent_floor);
  }
  if (got.deadline_stopped()) ++totals->budget_stops;
  if (got.stats().duplicates_skipped > 0) ++totals->duplicates;
  if (got.stats().combos_truncated > 0) ++totals->truncated;
  if (got.stats().search_sets_cut > 0) ++totals->sets_cut;
}

TEST(CandidateStream, MatchesLegacyStreamStepByStep) {
  Totals totals;
  for (uint64_t seed = 1; seed <= 36; ++seed) {
    std::mt19937_64 rng(seed);
    const World world = MakeWorld(&rng);
    for (size_t v = 0; v < 3; ++v) {
      const ViewDefinition view =
          MakeView(world, &rng, "v" + std::to_string(v));
      for (const ViewRelation& victim : view.from()) {
        const Result<RMapping> mapping =
            ComputeRMapping(view, victim.name, world.mkb);
        if (!mapping.ok()) continue;
        const Result<MkbEvolutionReport> evolution = EvolveMkb(
            world.mkb, CapabilityChange::DeleteRelation(victim.name));
        ASSERT_TRUE(evolution.ok()) << evolution.status().ToString();
        const Mkb& mkb_prime = evolution.value().mkb;
        RReplacementOptions options;
        options.max_extra_relations =
            std::uniform_int_distribution<size_t>(1, 3)(rng);
        options.max_cover_combinations = seed % 4 == 0 ? 2 : 256;
        for (const bool shared : {false, true}) {
          JoinGraph graph = JoinGraph::Build(mkb_prime);
          if (shared) graph.ShareSearches();
          for (const bool chase : {false, true}) {
            options.chase_optional_covers = chase;
            for (const bool flat : {false, true}) {
              const RewritingCostModel model =
                  flat ? FlatCostModel() : DefaultRankingCostModel();
              for (const size_t top_k : {size_t{0}, size_t{1}}) {
                for (uint64_t budget = 0; budget <= 40; ++budget) {
                  const std::string label =
                      "seed " + std::to_string(seed) + " view " +
                      view.name() + " victim " + victim.name +
                      (shared ? " shared" : " private") +
                      (chase ? " chase" : "") + (flat ? " flat" : "") +
                      " top_k " + std::to_string(top_k) + " budget " +
                      std::to_string(budget);
                  CompareStreams(label, view, mapping.value(), world.mkb,
                                 graph, options, model, top_k, budget,
                                 &totals);
                  if (::testing::Test::HasFatalFailure() ||
                      ::testing::Test::HasFailure()) {
                    return;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  // The sweep must reach every path the two streams could differ on.
  EXPECT_GE(totals.streams, 100000u);
  EXPECT_GE(totals.disabled, 20000u);
  EXPECT_GE(totals.candidates, 90000u);
  EXPECT_GE(totals.with_unreplaced, 25000u);
  EXPECT_GE(totals.opportunistic, 8000u);
  EXPECT_GE(totals.duplicates, 5000u);
  EXPECT_GE(totals.budget_stops, 9000u);
  EXPECT_GE(totals.top_k_stops, 15000u);
  EXPECT_GE(totals.truncated, 6000u);
  EXPECT_GE(totals.sets_cut, 10000u);
  EXPECT_EQ(totals.floors.size(), 4u) << "every extent floor value";
}

// Relations R(K), Y(K, P, Q), X(K, L), A(L, N), B(N, Q) and "A|B"(L, Q);
// JCs R-Y, R-X, X-A, A-B, B-Y, X-"A|B" and "A|B"-Y; F1: R.K = X.K.
Mkb PipeNameMkb() {
  Mkb mkb;
  const auto relation = [&](const std::string& name,
                            std::vector<std::string> attrs) {
    std::vector<AttributeDef> defs;
    for (const std::string& attr : attrs) {
      defs.push_back({attr, DataType::kInt});
    }
    RelationDef def;
    def.source = "IS" + name;
    def.name = name;
    def.schema = Schema(std::move(defs));
    EXPECT_TRUE(mkb.AddRelation(std::move(def)).ok());
  };
  relation("R", {"K"});
  relation("Y", {"K", "P", "Q"});
  relation("X", {"K", "L"});
  relation("A", {"L", "N"});
  relation("B", {"N", "Q"});
  relation("A|B", {"L", "Q"});
  size_t next_id = 1;
  const auto join = [&](const std::string& lhs, const std::string& rhs,
                        const std::string& attr) {
    JoinConstraint jc;
    jc.id = "J" + std::to_string(next_id++);
    jc.lhs = lhs;
    jc.rhs = rhs;
    jc.clauses.push_back(
        Expr::ColumnsEqual(Attr(lhs, attr), Attr(rhs, attr)));
    EXPECT_TRUE(mkb.AddJoinConstraint(std::move(jc)).ok());
  };
  join("R", "Y", "K");
  join("R", "X", "K");
  join("X", "A", "L");
  join("A", "B", "N");
  join("B", "Y", "Q");
  join("X", "A|B", "L");
  join("A|B", "Y", "Q");
  FunctionOfConstraint fc;
  fc.id = "F1";
  fc.target = Attr("R", "K");
  fc.source = Attr("X", "K");
  fc.fn = Expr::Column(fc.source);
  EXPECT_TRUE(mkb.AddFunctionOf(std::move(fc)).ok());
  return mkb;
}

TEST(CandidateStream, NamesContainingTheOldKeySeparatorStayDistinct) {
  const Mkb mkb = PipeNameMkb();
  const ViewDefinition view(
      "V", ViewExtent::kAny,
      {ViewSelectItem{Expr::Column(Attr("R", "K")), "K",
                      EvolutionParams{false, true}},
       ViewSelectItem{Expr::Column(Attr("Y", "P")), "P",
                      EvolutionParams{false, true}}},
      {ViewRelation{"R", EvolutionParams{false, true}},
       ViewRelation{"Y", EvolutionParams{false, true}}},
      {ViewCondition{Expr::ColumnsEqual(Attr("R", "K"), Attr("Y", "K")),
                     EvolutionParams{false, true}}});
  const Mkb mkb_prime =
      EvolveMkb(mkb, CapabilityChange::DeleteRelation("R")).MoveValue().mkb;
  CvsOptions options;
  options.include_drop_rewriting = false;
  const CvsResult result =
      SynchronizeDeleteRelation(view, "R", mkb, mkb_prime, options).value();
  EXPECT_EQ(result.enumeration.candidates_yielded, 4u);
  EXPECT_EQ(result.enumeration.duplicates_skipped, 0u);
  std::vector<std::string> trees;
  for (const SynchronizedView& rewriting : result.rewritings) {
    trees.push_back(rewriting.candidate.tree.ToString());
  }
  EXPECT_NE(std::find(trees.begin(), trees.end(),
                      "A ⋈[J3] (X,A) ⋈[J4] (A,B) ⋈[J5] (B,Y)"),
            trees.end());
  EXPECT_NE(std::find(trees.begin(), trees.end(),
                      "A|B ⋈[J6] (X,A|B) ⋈[J7] (A|B,Y)"),
            trees.end());

  // The eager oracle finds the same four.
  const RMapping mapping = ComputeRMapping(view, "R", mkb).value();
  const JoinGraph graph_prime = JoinGraph::Build(mkb_prime);
  EXPECT_EQ(legacy::ComputeRReplacementsEager(view, mapping, mkb,
                                              graph_prime, {})
                .value()
                .size(),
            4u);
}

}  // namespace
}  // namespace eve
