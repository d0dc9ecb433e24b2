#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "cvs/cvs.h"
#include "cvs/legality.h"
#include "esql/binder.h"
#include "sql/parser.h"
#include "mkb/evolution.h"
#include "random_federation.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

class LegalityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mkb_ = MakeTravelAgencyMkb().MoveValue();
    const auto evolution =
        EvolveMkb(mkb_, CapabilityChange::DeleteRelation("Customer"))
            .value();
    mkb_prime_ = evolution.mkb;
    change_ = CapabilityChange::DeleteRelation("Customer");
    old_view_ = ParseAndBindView(
                    "CREATE VIEW V AS SELECT C.Name (false, true), "
                    "F.Airline (true, true) "
                    "FROM Customer C (true, true), FlightRes F "
                    "WHERE (C.Name = F.PName) (false, true) "
                    "AND (F.Dest = 'Asia') (false, false)",
                    mkb_.catalog())
                    .MoveValue();
  }

  // The natural legal rewriting: Name replaced by FlightRes.PName.
  ViewDefinition GoodRewriting() {
    return ParseAndBindView(
               "CREATE VIEW V2 AS SELECT F.PName AS Name (false, true), "
               "F.Airline (true, true) FROM FlightRes F "
               "WHERE (F.Dest = 'Asia') (false, false)",
               mkb_prime_.catalog())
        .MoveValue();
  }

  std::map<AttributeRef, ExprPtr> NameSubstitution() {
    std::map<AttributeRef, ExprPtr> map;
    map.emplace(AttributeRef{"Customer", "Name"},
                Expr::Column(AttributeRef{"FlightRes", "PName"}));
    return map;
  }

  Mkb mkb_;
  Mkb mkb_prime_;
  CapabilityChange change_;
  ViewDefinition old_view_;
};

TEST_F(LegalityTest, GoodRewritingPassesAll) {
  const LegalityReport report =
      CheckLegality(old_view_, GoodRewriting(), change_, mkb_prime_,
                    ExtentRelation::kEqual, NameSubstitution());
  EXPECT_TRUE(report.p1_unaffected);
  EXPECT_TRUE(report.p2_evaluable);
  EXPECT_TRUE(report.p3_extent);
  EXPECT_TRUE(report.p4_parameters);
  EXPECT_TRUE(report.legal());
  EXPECT_TRUE(report.violations.empty()) << report.ToString();
}

TEST_F(LegalityTest, P1FailsWhenDeletedRelationStillReferenced) {
  // "Rewriting" that still uses Customer.
  const LegalityReport report =
      CheckLegality(old_view_, old_view_, change_, mkb_prime_,
                    ExtentRelation::kEqual, {});
  EXPECT_FALSE(report.p1_unaffected);
  // And P2 fails too: Customer is gone from MKB'.
  EXPECT_FALSE(report.p2_evaluable);
  EXPECT_FALSE(report.legal());
}

TEST_F(LegalityTest, P2FailsOnUnknownAttribute) {
  // Hand-build a view over a relation that exists but with a bad attr.
  ViewDefinition broken = GoodRewriting();
  (*broken.mutable_select())[0].expr =
      Expr::Column(AttributeRef{"FlightRes", "Ghost"});
  const LegalityReport report =
      CheckLegality(old_view_, broken, change_, mkb_prime_,
                    ExtentRelation::kEqual, NameSubstitution());
  EXPECT_TRUE(report.p1_unaffected);
  EXPECT_FALSE(report.p2_evaluable);
}

TEST_F(LegalityTest, P3FollowsInferredExtent) {
  ViewDefinition old_with_ve = old_view_;
  old_with_ve.set_extent(ViewExtent::kSuperset);
  const LegalityReport ok =
      CheckLegality(old_with_ve, GoodRewriting(), change_, mkb_prime_,
                    ExtentRelation::kSuperset, NameSubstitution());
  EXPECT_TRUE(ok.p3_extent);
  const LegalityReport bad =
      CheckLegality(old_with_ve, GoodRewriting(), change_, mkb_prime_,
                    ExtentRelation::kUnknown, NameSubstitution());
  EXPECT_FALSE(bad.p3_extent);
  EXPECT_FALSE(bad.legal());
}

TEST_F(LegalityTest, P4IndispensableAttributeMustSurvive) {
  // Remove the Name item from the rewriting.
  ViewDefinition missing = GoodRewriting();
  missing.mutable_select()->erase(missing.mutable_select()->begin());
  const LegalityReport report =
      CheckLegality(old_view_, missing, change_, mkb_prime_,
                    ExtentRelation::kEqual, NameSubstitution());
  EXPECT_FALSE(report.p4_parameters);
}

TEST_F(LegalityTest, P4DispensableAttributeMayVanish) {
  // Dropping the dispensable Airline item is fine.
  ViewDefinition narrowed = GoodRewriting();
  narrowed.mutable_select()->pop_back();
  const LegalityReport report =
      CheckLegality(old_view_, narrowed, change_, mkb_prime_,
                    ExtentRelation::kEqual, NameSubstitution());
  EXPECT_TRUE(report.p4_parameters) << report.ToString();
}

TEST_F(LegalityTest, P4NonReplaceableAttributeMustStayVerbatim) {
  // Make Airline non-replaceable in the old view, then change it in the
  // rewriting.
  ViewDefinition old_rigid = old_view_;
  (*old_rigid.mutable_select())[1].params = EvolutionParams{false, false};
  ViewDefinition changed = GoodRewriting();
  (*changed.mutable_select())[1].expr =
      Expr::Column(AttributeRef{"FlightRes", "Source"});
  const LegalityReport report =
      CheckLegality(old_rigid, changed, change_, mkb_prime_,
                    ExtentRelation::kEqual, NameSubstitution());
  EXPECT_FALSE(report.p4_parameters);
}

TEST_F(LegalityTest, P4IndispensableConditionMustSurvive) {
  // (F.Dest = 'Asia') is indispensable & non-replaceable; dropping it
  // violates P4.
  ViewDefinition missing_cond = GoodRewriting();
  missing_cond.mutable_where()->clear();
  const LegalityReport report =
      CheckLegality(old_view_, missing_cond, change_, mkb_prime_,
                    ExtentRelation::kEqual, NameSubstitution());
  EXPECT_FALSE(report.p4_parameters);
}

TEST_F(LegalityTest, P4NonReplaceableConditionMustStayVerbatim) {
  ViewDefinition tweaked = GoodRewriting();
  (*tweaked.mutable_where())[0].clause =
      ParseConjunction("FlightRes.Dest = 'Europe'").value()[0];
  // Old condition (Dest='Asia') is (false,false): changing it = violation;
  // also the original indispensable condition is now missing.
  const LegalityReport report =
      CheckLegality(old_view_, tweaked, change_, mkb_prime_,
                    ExtentRelation::kEqual, NameSubstitution());
  EXPECT_FALSE(report.p4_parameters);
}

TEST_F(LegalityTest, P4IndispensableRelationMustSurvive) {
  // FlightRes is indispensable (default params); drop it from the
  // rewriting's FROM (hand-built, degenerate).
  ViewDefinition no_flightres = ParseAndBindView(
      "CREATE VIEW V2 AS SELECT P.Participant AS Name FROM Participant P",
      mkb_prime_.catalog())
                                    .value();
  const LegalityReport report =
      CheckLegality(old_view_, no_flightres, change_, mkb_prime_,
                    ExtentRelation::kEqual, {});
  EXPECT_FALSE(report.p4_parameters);
}

TEST_F(LegalityTest, P4NonReplaceableDeletedRelationIsFatal) {
  ViewDefinition old_rigid = old_view_;
  (*old_rigid.mutable_from())[0].params = EvolutionParams{false, false};
  const LegalityReport report =
      CheckLegality(old_rigid, GoodRewriting(), change_, mkb_prime_,
                    ExtentRelation::kEqual, NameSubstitution());
  EXPECT_FALSE(report.p4_parameters);
}

TEST_F(LegalityTest, DeleteAttributeP1Check) {
  const CapabilityChange attr_change =
      CapabilityChange::DeleteAttribute("FlightRes", "Airline");
  // GoodRewriting still selects Airline -> P1 fails for that change.
  const auto evolution = EvolveMkb(mkb_, attr_change).value();
  const LegalityReport report =
      CheckLegality(old_view_, GoodRewriting(), attr_change, evolution.mkb,
                    ExtentRelation::kEqual, {});
  EXPECT_FALSE(report.p1_unaffected);
}

TEST_F(LegalityTest, ReportToStringListsViolations) {
  const LegalityReport report =
      CheckLegality(old_view_, old_view_, change_, mkb_prime_,
                    ExtentRelation::kUnknown, {});
  const std::string text = report.ToString();
  EXPECT_NE(text.find("P1=FAIL"), std::string::npos);
  EXPECT_NE(text.find("P2=FAIL"), std::string::npos);
}

// --- P2 against the re-bind oracle ------------------------------------------
//
// P2 checks a rewriting against the catalog of MKB' in place. The oracle is
// the re-bind it replaced: BindView on the printed rewriting, whose first
// failure P2 must report in the same words.

// The P2 violation of `report`, or "" when P2 holds.
std::string P2Violation(const LegalityReport& report) {
  for (const std::string& violation : report.violations) {
    if (violation.rfind("P2: ", 0) == 0) return violation;
  }
  return "";
}

// CheckBoundView and CheckLegality's P2 answer as the re-bind does.
void ExpectP2MatchesRebind(const ViewDefinition& old_view,
                           const ViewDefinition& view,
                           const CapabilityChange& change,
                           const Mkb& mkb_prime) {
  const Status oracle =
      BindView(view.ToParsedView(), mkb_prime.catalog()).status();
  EXPECT_EQ(CheckBoundView(view, mkb_prime.catalog()).ToString(),
            oracle.ToString())
      << view.ToString();
  const LegalityReport report = CheckLegality(
      old_view, view, change, mkb_prime, ExtentRelation::kEqual, {});
  EXPECT_EQ(report.p2_evaluable, oracle.ok()) << view.ToString();
  EXPECT_EQ(P2Violation(report), oracle.ok() ? "" : "P2: " + oracle.ToString())
      << view.ToString();
}

TEST_F(LegalityTest, P2MatchesTheRebindOnEachKindOfBreak) {
  using Edit = std::function<void(ViewDefinition*)>;
  const auto column = [](const std::string& relation,
                         const std::string& attribute) {
    return Expr::Column(AttributeRef{relation, attribute});
  };
  const std::vector<std::pair<std::string, Edit>> breaks = {
      {"", [](ViewDefinition*) {}},
      {"unknown relation in FROM",
       [](ViewDefinition* v) { v->mutable_from()->push_back({"Nowhere", {}}); }},
      {"relation appears more than once",
       [](ViewDefinition* v) {
         v->mutable_from()->push_back({"FlightRes", {}});
       }},
      {"unknown qualifier: Participant",
       [&](ViewDefinition* v) {
         (*v->mutable_select())[0].expr = column("Participant", "Loc");
       }},
      {"unknown attribute: FlightRes.Ghost",
       [&](ViewDefinition* v) {
         (*v->mutable_select())[0].expr = column("FlightRes", "Ghost");
       }},
      {"SELECT item 2 has NULL type",
       [](ViewDefinition* v) {
         (*v->mutable_select())[1].expr = Expr::Lit(Value::Null());
       }},
      {"arithmetic requires numeric operands",
       [&](ViewDefinition* v) {
         (*v->mutable_select())[1].expr =
             Expr::Binary(BinaryOp::kAdd, column("FlightRes", "Dest"),
                          Expr::Lit(Value::Int(1)));
       }},
      {"duplicate output column name: Name",
       [](ViewDefinition* v) {
         (*v->mutable_select())[1].output_name = "Name";
       }},
      {"WHERE clause is not boolean: FlightRes.Dest",
       [&](ViewDefinition* v) {
         (*v->mutable_where())[0].clause = column("FlightRes", "Dest");
       }},
      {"empty SELECT list",
       [](ViewDefinition* v) { v->mutable_select()->clear(); }},
      {"empty FROM list",
       [](ViewDefinition* v) { v->mutable_from()->clear(); }},
      // Unqualified columns resolve as the binder resolves them.
      {"",
       [&](ViewDefinition* v) {
         (*v->mutable_select())[0].expr = column("", "PName");
         (*v->mutable_where())[0].clause = Expr::Binary(
             BinaryOp::kEq, column("", "Dest"), Expr::Lit(Value::String("x")));
       }},
      {"attribute 'Ghost' not found in any FROM relation",
       [&](ViewDefinition* v) {
         (*v->mutable_select())[1].expr = column("", "Ghost");
       }},
      {"ambiguous attribute 'TourID': found in Participant and Tour",
       [&](ViewDefinition* v) {
         v->mutable_from()->push_back({"Participant", {}});
         v->mutable_from()->push_back({"Tour", {}});
         (*v->mutable_select())[1].expr = column("", "TourID");
       }},
      {"WHERE clause is not boolean: (FlightRes.FlightNo + 1)",
       [&](ViewDefinition* v) {
         (*v->mutable_where())[0].clause =
             Expr::Binary(BinaryOp::kAdd, column("", "FlightNo"),
                          Expr::Lit(Value::Int(1)));
       }},
  };
  for (const auto& [expected, edit] : breaks) {
    ViewDefinition broken = GoodRewriting();
    edit(&broken);
    const Status status = CheckBoundView(broken, mkb_prime_.catalog());
    if (expected.empty()) {
      EXPECT_TRUE(status.ok()) << status;
    } else {
      EXPECT_NE(status.ToString().find(expected), std::string::npos)
          << status;
    }
    ExpectP2MatchesRebind(old_view_, broken, change_, mkb_prime_);
  }
}

TEST_F(LegalityTest, P2ReportsTheFirstOfSeveralBreaksAsTheRebindDoes) {
  // One break at each step of the check, each placed so that a check run
  // out of order would meet a later one first. Mending the reported break
  // brings the next one up, until the view is evaluable.
  ViewDefinition view = GoodRewriting();
  auto& select = *view.mutable_select();
  auto& from = *view.mutable_from();
  auto& where = *view.mutable_where();
  from.push_back({"FlightRes", {}});  // repeated before ...
  from.push_back({"Nowhere", {}});    // ... unknown
  // Depth first: the unknown attribute comes before the unknown qualifier.
  select[0].expr = Expr::Binary(
      BinaryOp::kAdd, Expr::Column(AttributeRef{"FlightRes", "Ghost"}),
      Expr::Column(AttributeRef{"Customer", "Age"}));
  select.push_back({Expr::Lit(Value::Null()), "Name", {}});  // NULL, repeated
  where[0].clause = Expr::Column(AttributeRef{"FlightRes", "Dest"});
  where.push_back({Expr::Column(AttributeRef{"Participant", "Loc"}), {}});
  const std::vector<std::pair<std::string, std::function<void()>>> steps = {
      {"relation appears more than once in FROM: FlightRes",
       [&] { from.erase(from.begin() + 1); }},
      {"unknown relation in FROM: Nowhere", [&] { from.pop_back(); }},
      {"unknown attribute: FlightRes.Ghost",
       [&] {
         select[0].expr = Expr::Binary(
             BinaryOp::kAdd, Expr::Column(AttributeRef{"FlightRes", "FlightNo"}),
             Expr::Column(AttributeRef{"Customer", "Age"}));
       }},
      {"unknown qualifier: Customer",
       [&] {
         select[0].expr = Expr::Column(AttributeRef{"FlightRes", "PName"});
       }},
      {"SELECT item 3 has NULL type",
       [&] {
         select[2].expr = Expr::Column(AttributeRef{"FlightRes", "Source"});
       }},
      {"duplicate output column name: Name",
       [&] { select[2].output_name = "Source"; }},
      {"WHERE clause is not boolean: FlightRes.Dest",
       [&] {
         where[0].clause = ParseConjunction("FlightRes.Dest = 'Asia'").value()[0];
       }},
      {"unknown qualifier: Participant", [&] { where.pop_back(); }},
  };
  for (const auto& [expected, mend] : steps) {
    const std::string reported =
        CheckBoundView(view, mkb_prime_.catalog()).ToString();
    EXPECT_NE(reported.find(expected), std::string::npos) << reported;
    ExpectP2MatchesRebind(old_view_, view, change_, mkb_prime_);
    mend();
  }
  EXPECT_TRUE(CheckBoundView(view, mkb_prime_.catalog()).ok());
  ExpectP2MatchesRebind(old_view_, view, change_, mkb_prime_);
}

// `view` with one to three random breaks of the kinds P2 checks; some
// leave it evaluable.
ViewDefinition Break(const ViewDefinition& view,
                     const testing_federation::World& world,
                     std::mt19937_64* rng) {
  const auto pick = [&](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(*rng);
  };
  ViewDefinition broken = view;
  auto& select = *broken.mutable_select();
  auto& from = *broken.mutable_from();
  auto& where = *broken.mutable_where();
  for (size_t n = 1 + pick(3); n > 0; --n) {
    ExprPtr& item = select[pick(select.size())].expr;
    const std::string relation = from[pick(from.size())].name;
    const std::string other = world.names[pick(world.names.size())];
    switch (pick(9)) {
      case 0:
        from.insert(from.begin() + pick(from.size() + 1),
                    ViewRelation{"Nowhere", {}});
        break;
      case 1:
        from.insert(from.begin() + pick(from.size() + 1),
                    from[pick(from.size())]);
        break;
      case 2:  // an unknown qualifier unless `other` is in FROM
        item = Expr::Column(AttributeRef{other, "P"});
        break;
      case 3:
        item = Expr::Column(AttributeRef{relation, "Ghost"});
        break;
      case 4:
        item = Expr::Lit(Value::Null());
        break;
      case 5:
        select[pick(select.size())].output_name =
            select[pick(select.size())].output_name;
        break;
      case 6:
        where.insert(where.begin() + pick(where.size() + 1),
                     ViewCondition{Expr::Column(AttributeRef{relation, "Q"}),
                                   {}});
        break;
      case 7:  // resolves only when one FROM relation has P
        item = Expr::Column(AttributeRef{"", "P"});
        break;
      default:
        item = Expr::Binary(BinaryOp::kAdd,
                            Expr::Column(AttributeRef{relation, "Q"}),
                            Expr::Lit(Value::String("s")));
        break;
    }
  }
  return broken;
}

TEST(P2ParityTest, RandomFederationsMatchTheRebind) {
  // Each random view, broken or not, and each rewriting CVS returns for
  // it, against MKB' of every deletion of one of its relations or
  // attributes.
  size_t evaluable = 0;
  size_t not_evaluable = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    std::mt19937_64 rng(seed);
    const testing_federation::World world =
        testing_federation::MakeWorld(&rng);
    for (int v = 0; v < 4; ++v) {
      const ViewDefinition view =
          testing_federation::MakeView(world, &rng, "V" + std::to_string(v));
      std::vector<CapabilityChange> changes;
      for (const ViewRelation& rel : view.from()) {
        changes.push_back(CapabilityChange::DeleteRelation(rel.name));
        for (const AttributeRef& ref : view.AttributesOf(rel.name)) {
          changes.push_back(
              CapabilityChange::DeleteAttribute(ref.relation, ref.attribute));
        }
      }
      for (const CapabilityChange& change : changes) {
        const Mkb mkb_prime = EvolveMkb(world.mkb, change).value().mkb;
        std::vector<ViewDefinition> candidates = {view};
        for (int b = 0; b < 3; ++b) {
          candidates.push_back(Break(view, world, &rng));
        }
        CvsOptions options;
        options.require_view_extent = false;
        const Result<CvsResult> synced =
            Synchronize(view, change, world.mkb, mkb_prime, options);
        ASSERT_TRUE(synced.ok()) << synced.status();
        for (const SynchronizedView& rewriting : synced.value().rewritings) {
          candidates.push_back(rewriting.view);
        }
        for (const ViewDefinition& candidate : candidates) {
          ExpectP2MatchesRebind(view, candidate, change, mkb_prime);
          ++(CheckBoundView(candidate, mkb_prime.catalog()).ok()
                 ? evaluable
                 : not_evaluable);
        }
      }
    }
  }
  // Seeds 1-30 give 2,696 and 3,306.
  EXPECT_GT(evaluable, 1000u);
  EXPECT_GT(not_evaluable, 1000u);
}

}  // namespace
}  // namespace eve
