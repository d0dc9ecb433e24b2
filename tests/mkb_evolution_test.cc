#include <algorithm>
#include <atomic>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "eve/eve_system.h"
#include "hypergraph/join_graph.h"
#include "legacy_mkb_evolution.h"
#include "mkb/builder.h"
#include "mkb/evolution.h"
#include "mkb/serializer.h"
#include "random_federation.h"
#include "workload/generator.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

bool Contains(const std::vector<std::string>& haystack,
              const std::string& needle) {
  return std::find(haystack.begin(), haystack.end(), needle) !=
         haystack.end();
}

class EvolutionTest : public ::testing::Test {
 protected:
  void SetUp() override { mkb_ = MakeTravelAgencyMkb().MoveValue(); }
  Mkb mkb_;
};

TEST_F(EvolutionTest, DeleteRelationDropsAllTouchingConstraints) {
  const auto report =
      EvolveMkb(mkb_, CapabilityChange::DeleteRelation("Customer")).value();
  EXPECT_FALSE(report.mkb.catalog().HasRelation("Customer"));
  // JC1-JC3 and F1-F4 mention Customer.
  for (const std::string id : {"JC1", "JC2", "JC3", "F1", "F2", "F3", "F4"}) {
    EXPECT_TRUE(Contains(report.dropped_constraints, id)) << id;
  }
  // JC4-JC6, F5-F7 survive.
  EXPECT_TRUE(report.mkb.GetJoinConstraint("JC4").ok());
  EXPECT_TRUE(report.mkb.GetJoinConstraint("JC6").ok());
  EXPECT_TRUE(report.mkb.GetFunctionOf("F5").ok());
  EXPECT_EQ(report.mkb.join_constraints().size(), 3u);
  EXPECT_EQ(report.mkb.function_of_constraints().size(), 3u);
}

TEST_F(EvolutionTest, DeleteRelationDropsPcConstraints) {
  ASSERT_TRUE(AddAccidentInsPc(&mkb_).ok());
  const auto report =
      EvolveMkb(mkb_, CapabilityChange::DeleteRelation("Customer")).value();
  EXPECT_TRUE(Contains(report.dropped_constraints, "PC-AI"));
  EXPECT_TRUE(report.mkb.pc_constraints().empty());
}

TEST_F(EvolutionTest, DeleteMissingRelationFails) {
  EXPECT_FALSE(
      EvolveMkb(mkb_, CapabilityChange::DeleteRelation("Nope")).ok());
}

TEST_F(EvolutionTest, DeleteAttributeWeakensJoinConstraint) {
  // Deleting Customer.Age removes the local clause of JC2 but keeps the
  // crossing clause Customer.Name = Accident-Ins.Holder.
  const auto report =
      EvolveMkb(mkb_, CapabilityChange::DeleteAttribute("Customer", "Age"))
          .value();
  EXPECT_FALSE(report.mkb.catalog().HasAttribute({"Customer", "Age"}));
  EXPECT_TRUE(Contains(report.weakened_constraints, "JC2"));
  EXPECT_EQ(report.mkb.GetJoinConstraint("JC2").value()->clauses.size(), 1u);
  // F3 (Age = f(Birthday)) must be gone.
  EXPECT_TRUE(Contains(report.dropped_constraints, "F3"));
}

TEST_F(EvolutionTest, DeleteAttributeDropsJcWhenCrossingClauseLost) {
  // Deleting Customer.Name guts JC1/JC3 entirely and reduces JC2 to the
  // non-crossing clause Age > 1, so JC2 is dropped too.
  const auto report =
      EvolveMkb(mkb_, CapabilityChange::DeleteAttribute("Customer", "Name"))
          .value();
  EXPECT_TRUE(Contains(report.dropped_constraints, "JC1"));
  EXPECT_TRUE(Contains(report.dropped_constraints, "JC2"));
  EXPECT_TRUE(Contains(report.dropped_constraints, "JC3"));
  EXPECT_TRUE(report.mkb.GetJoinConstraint("JC6").ok());
  // F1, F2, F4 target Customer.Name: dropped.
  EXPECT_TRUE(Contains(report.dropped_constraints, "F1"));
  EXPECT_TRUE(Contains(report.dropped_constraints, "F2"));
  EXPECT_TRUE(Contains(report.dropped_constraints, "F4"));
}

TEST_F(EvolutionTest, DeleteAttributeDropsPcMentioningIt) {
  ASSERT_TRUE(AddPersonExtension(&mkb_).ok());
  const auto report =
      EvolveMkb(mkb_, CapabilityChange::DeleteAttribute("Person", "PAddr"))
          .value();
  EXPECT_TRUE(Contains(report.dropped_constraints, "PC-CP"));
  EXPECT_TRUE(Contains(report.dropped_constraints, "F-ADDR"));
  // JC-CP only uses Name: untouched.
  EXPECT_TRUE(report.mkb.GetJoinConstraint("JC-CP").ok());
}

TEST_F(EvolutionTest, RenameRelationRewritesEverything) {
  const auto report =
      EvolveMkb(mkb_, CapabilityChange::RenameRelation("Customer", "Client"))
          .value();
  EXPECT_TRUE(report.mkb.catalog().HasRelation("Client"));
  EXPECT_FALSE(report.mkb.catalog().HasRelation("Customer"));
  EXPECT_TRUE(report.dropped_constraints.empty());
  const JoinConstraint* jc1 = report.mkb.GetJoinConstraint("JC1").value();
  EXPECT_EQ(jc1->lhs, "Client");
  EXPECT_EQ(jc1->clauses[0]->ToString(),
            "(Client.Name = FlightRes.PName)");
  const FunctionOfConstraint* f2 = report.mkb.GetFunctionOf("F2").value();
  EXPECT_EQ(f2->target, (AttributeRef{"Client", "Name"}));
}

TEST_F(EvolutionTest, RenameAttributeRewritesEverything) {
  const auto report =
      EvolveMkb(mkb_,
                CapabilityChange::RenameAttribute("Customer", "Name",
                                                  "FullName"))
          .value();
  EXPECT_TRUE(report.mkb.catalog().HasAttribute({"Customer", "FullName"}));
  const JoinConstraint* jc1 = report.mkb.GetJoinConstraint("JC1").value();
  EXPECT_EQ(jc1->clauses[0]->ToString(),
            "(Customer.FullName = FlightRes.PName)");
  const FunctionOfConstraint* f1 = report.mkb.GetFunctionOf("F1").value();
  EXPECT_EQ(f1->target, (AttributeRef{"Customer", "FullName"}));
}

TEST_F(EvolutionTest, RenameAttributeChecksTypeConvention) {
  // Renaming FlightRes.FlightNo (int) to "Name" collides with the string
  // Name attributes elsewhere.
  EXPECT_FALSE(EvolveMkb(mkb_, CapabilityChange::RenameAttribute(
                                   "FlightRes", "FlightNo", "Name"))
                   .ok());
}

TEST_F(EvolutionTest, AddRelationExtendsCatalog) {
  RelationDef def;
  def.source = "IS9";
  def.name = "Cruise";
  def.schema = Schema({{"CruiseID", DataType::kInt}});
  const auto report =
      EvolveMkb(mkb_, CapabilityChange::AddRelation(def)).value();
  EXPECT_TRUE(report.mkb.catalog().HasRelation("Cruise"));
  EXPECT_TRUE(report.dropped_constraints.empty());
  EXPECT_EQ(report.mkb.join_constraints().size(), 6u);
}

TEST_F(EvolutionTest, AddAttributeExtendsRelation) {
  const auto report =
      EvolveMkb(mkb_, CapabilityChange::AddAttribute(
                          "Customer", {"Email", DataType::kString}))
          .value();
  EXPECT_TRUE(report.mkb.catalog().HasAttribute({"Customer", "Email"}));
}

TEST_F(EvolutionTest, AddDuplicateRelationFails) {
  RelationDef def;
  def.source = "IS1";
  def.name = "Customer";
  def.schema = Schema({{"x", DataType::kInt}});
  EXPECT_FALSE(EvolveMkb(mkb_, CapabilityChange::AddRelation(def)).ok());
}

TEST_F(EvolutionTest, OriginalMkbIsUntouched) {
  const auto report =
      EvolveMkb(mkb_, CapabilityChange::DeleteRelation("Customer")).value();
  (void)report;
  EXPECT_TRUE(mkb_.catalog().HasRelation("Customer"));
  EXPECT_EQ(mkb_.join_constraints().size(), 6u);
}

TEST(CapabilityChangeTest, ToStringForms) {
  EXPECT_EQ(CapabilityChange::DeleteRelation("R").ToString(),
            "delete-relation R");
  EXPECT_EQ(CapabilityChange::DeleteAttribute("R", "a").ToString(),
            "delete-attribute R.a");
  EXPECT_EQ(CapabilityChange::RenameRelation("R", "S").ToString(),
            "rename-relation R -> S");
  EXPECT_EQ(CapabilityChange::RenameAttribute("R", "a", "b").ToString(),
            "rename-attribute R.a -> R.b");
  RelationDef def;
  def.name = "N";
  def.source = "IS";
  EXPECT_EQ(CapabilityChange::AddRelation(def).ToString(),
            "add-relation N");
  EXPECT_EQ(
      CapabilityChange::AddAttribute("R", {"x", DataType::kInt}).ToString(),
      "add-attribute R.x");
}

// --- In-place evolution vs. the re-add-and-revalidate oracle ---------------

// A seeded random MKB: a chain of relations with skip edges, multi-clause
// and single-side JC clauses, covers (function-of constraints, identity
// and arithmetic), PC constraints with conditions, and names that need
// quoting ("R-2", "Pay-2").
struct RandomMkb {
  Mkb mkb;
  std::vector<std::string> relations;
};

std::string RelName(size_t i) {
  return i % 3 == 2 ? "R-" + std::to_string(i) : "R" + std::to_string(i);
}
std::string PayName(size_t i) {
  return i % 2 == 0 ? "Pay-" + std::to_string(i) : "P" + std::to_string(i);
}

RandomMkb MakeRandomMkb(uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto coin = [&rng](double p) {
    return std::uniform_real_distribution<double>(0, 1)(rng) < p;
  };
  RandomMkb out;
  const size_t n = 4 + rng() % 4;
  for (size_t i = 0; i < n; ++i) {
    RelationDef def;
    def.source = "IS" + std::to_string(i % 3);
    def.name = RelName(i);
    std::vector<AttributeDef> attrs = {
        {"K", DataType::kInt},
        {PayName(i), DataType::kString},
        {"X" + std::to_string(i), DataType::kInt},
        {"C" + std::to_string(i), DataType::kString}};
    def.schema = Schema(std::move(attrs));
    if (coin(0.5)) def.ordered_by = {"K"};
    EXPECT_TRUE(out.mkb.AddRelation(def).ok());
    out.relations.push_back(def.name);
  }
  const auto ref = [](size_t r, const std::string& attr) {
    return AttributeRef{RelName(r), attr};
  };
  const auto x = [&](size_t r) { return ref(r, "X" + std::to_string(r)); };
  size_t jc = 0;
  for (size_t i = 0; i + 1 < n; ++i) {
    for (const size_t j : {i + 1, i + 2}) {
      if (j >= n || (j == i + 2 && !coin(0.6))) continue;
      JoinConstraint c;
      c.id = (jc % 4 == 3 ? "JC-" : "JC") + std::to_string(jc);
      ++jc;
      c.lhs = RelName(i);
      c.rhs = RelName(j);
      c.clauses.push_back(Expr::ColumnsEqual(ref(i, "K"), ref(j, "K")));
      if (coin(0.5)) c.clauses.push_back(Expr::ColumnsEqual(x(i), x(j)));
      if (coin(0.4)) {
        c.clauses.push_back(Expr::Binary(BinaryOp::kGt, Expr::Column(x(i)),
                                         Expr::Lit(Value::Int(3))));
      }
      EXPECT_TRUE(out.mkb.AddJoinConstraint(std::move(c)).ok());
    }
  }
  size_t fc = 0;
  size_t pc = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!coin(0.7)) continue;
    const size_t target = (i + 1 + rng() % (n - 1)) % n;  // never i
    FunctionOfConstraint f;
    f.id = "F" + std::to_string(fc++);
    f.target = ref(target, "C" + std::to_string(target));
    f.source = ref(i, PayName(i));
    f.fn = Expr::Column(f.source);
    EXPECT_TRUE(out.mkb.AddFunctionOf(f).ok());
    if (coin(0.5)) {
      FunctionOfConstraint g;
      g.id = "F" + std::to_string(fc++);
      g.target = ref(target, "X" + std::to_string(target));
      g.source = x(i);
      g.fn = Expr::Binary(BinaryOp::kAdd, Expr::Column(g.source),
                          Expr::Lit(Value::Int(1)));
      EXPECT_TRUE(out.mkb.AddFunctionOf(g).ok());
    }
    if (coin(0.8)) {
      PCConstraint p;
      p.id = (pc % 3 == 1 ? "PC-" : "PC") + std::to_string(pc);
      ++pc;
      p.lhs_relation = RelName(target);
      p.rhs_relation = RelName(i);
      p.lhs_attrs = {f.target};
      p.rhs_attrs = {f.source};
      if (coin(0.5)) {
        p.lhs_attrs.push_back(ref(target, "K"));
        p.rhs_attrs.push_back(ref(i, "K"));
      }
      if (coin(0.4)) {
        p.lhs_condition = Expr::Binary(BinaryOp::kLt, Expr::Column(x(target)),
                                       Expr::Lit(Value::Int(9)));
      }
      if (coin(0.4)) {
        p.rhs_condition = Expr::Binary(BinaryOp::kGe, Expr::Column(x(i)),
                                       Expr::Lit(Value::Int(2)));
      }
      p.relation = coin(0.5) ? SetRelation::kSuperset : SetRelation::kEqual;
      EXPECT_TRUE(out.mkb.AddPCConstraint(std::move(p)).ok());
    }
  }
  return out;
}

// Every change kind against every relation and attribute, plus changes
// that must fail (unknown names, clashing names).
std::vector<CapabilityChange> AllChanges(const Mkb& mkb) {
  std::vector<CapabilityChange> changes;
  const std::vector<std::string> relations = mkb.catalog().RelationNames();
  for (const std::string& rel : relations) {
    changes.push_back(CapabilityChange::DeleteRelation(rel));
    changes.push_back(CapabilityChange::RenameRelation(rel, "New-" + rel));
    changes.push_back(CapabilityChange::RenameRelation(rel, relations.front()));
    changes.push_back(
        CapabilityChange::AddAttribute(rel, {"Extra", DataType::kInt}));
    changes.push_back(
        CapabilityChange::AddAttribute(rel, {"K", DataType::kInt}));
    changes.push_back(CapabilityChange::DeleteAttribute(rel, "Missing"));
    changes.push_back(CapabilityChange::RenameAttribute(rel, "Missing", "M2"));
    const RelationDef& def = *mkb.catalog().GetRelation(rel).value();
    for (const AttributeDef& attr : def.schema.attributes()) {
      changes.push_back(CapabilityChange::DeleteAttribute(rel, attr.name));
      changes.push_back(
          CapabilityChange::RenameAttribute(rel, attr.name, attr.name + "x"));
      changes.push_back(CapabilityChange::RenameAttribute(rel, attr.name, "K"));
    }
  }
  RelationDef fresh;
  fresh.source = "IS9";
  fresh.name = "Fresh-Rel";
  fresh.schema = Schema({{"K", DataType::kInt}, {"Z", DataType::kString}});
  changes.push_back(CapabilityChange::AddRelation(fresh));
  RelationDef clash = fresh;
  clash.name = relations.front();
  changes.push_back(CapabilityChange::AddRelation(clash));
  changes.push_back(CapabilityChange::DeleteRelation("Nowhere"));
  changes.push_back(CapabilityChange::RenameRelation("Nowhere", "Elsewhere"));
  return changes;
}

// Every index lookup over every relation, pair and attribute of `mkb`'s
// catalog, by constraint id in result order.
std::string IndexFingerprint(const Mkb& mkb) {
  std::ostringstream os;
  const std::vector<std::string> relations = mkb.catalog().RelationNames();
  for (const std::string& a : relations) {
    os << "of " << a << ":";
    for (const JoinConstraint* jc : mkb.JoinConstraintsOf(a)) {
      os << " " << jc->id;
    }
    os << "\n";
    for (const std::string& b : relations) {
      os << a << "~" << b << ":";
      for (const JoinConstraint* jc : mkb.JoinConstraintsBetween(a, b)) {
        os << " " << jc->id;
      }
      for (const PCConstraint* pc : mkb.PCConstraintsBetween(a, b)) {
        os << " " << pc->id;
      }
      os << "\n";
    }
    for (const AttributeDef& attr :
         mkb.catalog().GetRelation(a).value()->schema.attributes()) {
      os << "covers " << a << "." << attr.name << ":";
      for (const FunctionOfConstraint* fc : mkb.CoversOf({a, attr.name})) {
        os << " " << fc->id;
      }
      os << "\n";
    }
  }
  for (const JoinConstraint& jc : mkb.join_constraints()) {
    os << "get " << jc.id << " " << mkb.GetJoinConstraint(jc.id).ok() << "\n";
  }
  for (const FunctionOfConstraint& fc : mkb.function_of_constraints()) {
    os << "get " << fc.id << " " << mkb.GetFunctionOf(fc.id).ok() << "\n";
  }
  return os.str();
}

TEST(EvolutionDifferentialTest, MatchesTheReAddOracleOnRandomMkbs) {
  size_t compared = 0;
  size_t failed = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const RandomMkb random = MakeRandomMkb(seed);
    const std::array<std::string, kNumMkbSegments> before =
        RenderMkbSegments(random.mkb);
    for (const CapabilityChange& change : AllChanges(random.mkb)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ": " + change.ToString());
      const Result<MkbEvolutionReport> evolved = EvolveMkb(random.mkb, change);
      const Result<MkbEvolutionReport> oracle =
          legacy::EvolveMkbByCopy(random.mkb, change);
      ++compared;
      ASSERT_EQ(evolved.status(), oracle.status());
      if (!oracle.ok()) {
        ++failed;
        continue;
      }
      const MkbEvolutionReport& got = evolved.value();
      const MkbEvolutionReport& want = oracle.value();
      EXPECT_EQ(SaveMkb(got.mkb), SaveMkb(want.mkb));
      EXPECT_EQ(got.dropped_constraints, want.dropped_constraints);
      EXPECT_EQ(got.weakened_constraints, want.weakened_constraints);
      EXPECT_EQ(IndexFingerprint(got.mkb), IndexFingerprint(want.mkb));
      const std::array<std::string, kNumMkbSegments> after =
          RenderMkbSegments(got.mkb);
      for (size_t i = 0; i < kNumMkbSegments; ++i) {
        if (after[i] != before[i]) {
          EXPECT_TRUE(got.changed_segments[i])
              << "segment " << i << " changed but is not flagged";
        }
      }
      // The evolved MKB keeps evolving like the oracle's (indexes intact).
      const CapabilityChange follow_up = CapabilityChange::RenameAttribute(
          random.relations.back(), "K", "K2");
      const Result<MkbEvolutionReport> next = EvolveMkb(got.mkb, follow_up);
      const Result<MkbEvolutionReport> next_oracle =
          legacy::EvolveMkbByCopy(want.mkb, follow_up);
      ASSERT_EQ(next.status(), next_oracle.status());
      if (next.ok()) {
        EXPECT_EQ(SaveMkb(next.value().mkb), SaveMkb(next_oracle.value().mkb));
        EXPECT_EQ(IndexFingerprint(next.value().mkb),
                  IndexFingerprint(next_oracle.value().mkb));
      }
    }
  }
  // Both outcomes are exercised in bulk.
  EXPECT_GT(compared, 1000u);
  EXPECT_GT(failed, 200u);
  EXPECT_LT(failed, compared / 2);
}

// Evolves `mkb` under every change of AllChanges, in place and by the
// re-add oracle, and compares the two; the input MKB must render as it did
// before every evolution. Returns the number of changes compared.
size_t CompareWithTheOracle(const Mkb& mkb) {
  const std::string before = SaveMkb(mkb);
  size_t compared = 0;
  for (const CapabilityChange& change : AllChanges(mkb)) {
    SCOPED_TRACE(change.ToString());
    const Result<MkbEvolutionReport> evolved = EvolveMkb(mkb, change);
    const Result<MkbEvolutionReport> oracle =
        legacy::EvolveMkbByCopy(mkb, change);
    EXPECT_EQ(evolved.status(), oracle.status());
    EXPECT_EQ(SaveMkb(mkb), before);
    ++compared;
    if (!evolved.ok() || !oracle.ok()) continue;
    EXPECT_EQ(SaveMkb(evolved.value().mkb), SaveMkb(oracle.value().mkb));
    EXPECT_EQ(evolved.value().dropped_constraints,
              oracle.value().dropped_constraints);
    EXPECT_EQ(evolved.value().weakened_constraints,
              oracle.value().weakened_constraints);
    EXPECT_EQ(IndexFingerprint(evolved.value().mkb),
              IndexFingerprint(oracle.value().mkb));
  }
  return compared;
}

TEST(EvolutionDifferentialTest, MatchesTheReAddOracleOnRandomFederations) {
  // testing_federation worlds: names that need quoting and sort in a
  // shuffled order, parallel JCs, several covers per payload and PCs of
  // every direction.
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("world " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const testing_federation::World world = testing_federation::MakeWorld(&rng);
    compared += CompareWithTheOracle(world.mkb);
  }
  EXPECT_GT(compared, 1000u);
}

TEST(EvolutionDifferentialTest, RenameFlagsExactlyTheSegmentsItTouches) {
  // A rename to a new name changes the text of every constraint it
  // rewrites, so its flags are exact, not just a superset.
  const RandomMkb random = MakeRandomMkb(3);
  const Mkb& mkb = random.mkb;
  size_t renames = 0;
  for (const CapabilityChange& change : AllChanges(mkb)) {
    if (change.kind != CapabilityChange::Kind::kRenameAttribute ||
        change.new_name == change.attribute) {
      continue;
    }
    const Result<MkbEvolutionReport> evolved = EvolveMkb(mkb, change);
    if (!evolved.ok()) continue;
    const std::array<std::string, kNumMkbSegments> before =
        RenderMkbSegments(mkb);
    const std::array<std::string, kNumMkbSegments> after =
        RenderMkbSegments(evolved.value().mkb);
    for (size_t i = 0; i < kNumMkbSegments; ++i) {
      EXPECT_EQ(evolved.value().changed_segments[i], after[i] != before[i])
          << change.ToString() << " segment " << i;
    }
    ++renames;
  }
  EXPECT_GT(renames, 10u);
}

TEST(EvolutionDifferentialTest, VersionChainScrubsCleanAfterEveryCommit) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomMkb random = MakeRandomMkb(100 + seed);
    EveSystem system(random.mkb);
    std::mt19937_64 rng(seed);
    size_t applied = 0;
    for (int step = 0; step < 60; ++step) {
      const std::vector<CapabilityChange> changes =
          AllChanges(system.mkb());
      const CapabilityChange& change = changes[rng() % changes.size()];
      // Deletes shrink the MKB; keep most of the stream to renames so it
      // stays long.
      if ((change.kind == CapabilityChange::Kind::kDeleteRelation ||
           change.kind == CapabilityChange::Kind::kDeleteAttribute) &&
          rng() % 4 != 0) {
        continue;
      }
      if (system.ApplyChange(change).ok()) ++applied;
      const VersionScrubStats scrub = system.ScrubVersions();
      ASSERT_EQ(scrub.corruptions, 0u)
          << "seed " << seed << " after " << change.ToString() << "\n"
          << scrub.ToString();
      ASSERT_EQ(SaveMkb(system.mkb()),
                SaveMkb(system.PinTip().mkb != nullptr ? *system.PinTip().mkb
                                                       : Mkb()));
    }
    EXPECT_GT(applied, 10u) << "seed " << seed;
  }
}

// --- The persistent MKB: sharing, and reads during commits ------------------

// A rename of one attribute of a 4,096-relation MKB: the next version shares
// every relation, constraint, constraint chunk, relation leaf and MISD run
// of its parent except those holding what the rename touched.
TEST(PersistentMkbTest, RenameAt4096SharesAllButTheTouchedRelation) {
  ChainMkbSpec spec;
  spec.length = 4096;
  EveSystem system(MakeChainMkb(spec).MoveValue());
  const PinnedMkb before = system.PinTip();
  ASSERT_TRUE(system
                  .ApplyChange(CapabilityChange::RenameAttribute(
                      "R4094", "P4094", "P4094x"))
                  .ok());
  const PinnedMkb after = system.PinTip();
  const Mkb& old_mkb = *before.mkb;
  const Mkb& new_mkb = *after.mkb;

  // Relations: one RelationDef and one leaf of the catalog are new.
  for (const std::string& name : old_mkb.catalog().RelationNames()) {
    const RelationDef* old_def = old_mkb.catalog().GetRelation(name).value();
    const RelationDef* new_def = new_mkb.catalog().GetRelation(name).value();
    EXPECT_EQ(old_def == new_def, name != "R4094") << name;
  }
  const auto differing = [](const auto& a, const auto& b) {
    size_t count = a.size() > b.size() ? a.size() - b.size()
                                       : b.size() - a.size();
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      if (a[i] != b[i]) ++count;
    }
    return count;
  };
  EXPECT_EQ(differing(old_mkb.catalog().relation_table().leaves(),
                      new_mkb.catalog().relation_table().leaves()),
            1u);
  // Constraints: the cover of R4094.P4094 and its PC are rewritten, each in
  // its own chunk; every other constraint is the parent's object.
  EXPECT_EQ(&old_mkb.join_constraints().chunks(),
            &new_mkb.join_constraints().chunks());
  EXPECT_EQ(differing(old_mkb.function_of_constraints().chunks(),
                      new_mkb.function_of_constraints().chunks()),
            1u);
  EXPECT_EQ(differing(old_mkb.pc_constraints().chunks(),
                      new_mkb.pc_constraints().chunks()),
            1u);
  size_t rewritten = 0;
  auto old_fc = old_mkb.function_of_constraints().begin();
  for (const FunctionOfConstraint& fc : new_mkb.function_of_constraints()) {
    if (&fc != &*old_fc) ++rewritten;
    ++old_fc;
  }
  auto old_pc = old_mkb.pc_constraints().begin();
  for (const PCConstraint& pc : new_mkb.pc_constraints()) {
    if (&pc != &*old_pc) ++rewritten;
    ++old_pc;
  }
  EXPECT_EQ(rewritten, 2u);
  for (const std::string& name : new_mkb.catalog().RelationNames()) {
    EXPECT_EQ(old_mkb.JoinConstraintsOf(name), new_mkb.JoinConstraintsOf(name));
  }
  // MISD text: JOINS is the parent's segment; each other segment renews
  // exactly the run of the chunk that changed.
  const MkbVersion& parent = *before.version;
  const MkbVersion& child = *after.version;
  EXPECT_EQ(parent.misd[kJoinsSegment], child.misd[kJoinsSegment]);
  for (const size_t s :
       {kRelationsSegment, kFunctionsSegment, kPcsSegment}) {
    ASSERT_EQ(parent.misd[s]->runs.size(), child.misd[s]->runs.size()) << s;
    EXPECT_EQ(differing(parent.misd[s]->runs, child.misd[s]->runs), 1u) << s;
    EXPECT_EQ(child.misd[s]->Text(), RenderMkbSegment(new_mkb, s)) << s;
  }
  EXPECT_EQ(parent.chunks, child.chunks);
  EXPECT_EQ(SaveMkb(old_mkb), SaveMkb(MakeChainMkb(spec).MoveValue()));
}

// One thread reads a pinned MKB the way CVS does (relation, cover, join
// and PC lookups, the join graph, the MISD text) while another evolves and
// commits change after change; the pinned MKB must answer as it did
// before. CI runs this under ThreadSanitizer.
TEST(PersistentMkbTest, PinnedMkbReadsStayStableWhileAnotherThreadCommits) {
  ChainMkbSpec spec;
  spec.length = 64;
  EveSystem system(MakeChainMkb(spec).MoveValue());
  const PinnedMkb pinned = system.PinTip();
  const Mkb& mkb = *pinned.mkb;
  const auto fingerprint = [&mkb] {
    std::string out = IndexFingerprint(mkb);
    for (const std::string& name : mkb.catalog().RelationNames()) {
      for (const char* other : {"R0", "R31", "R63"}) {
        for (const PCConstraint* pc : mkb.PCConstraintsBetween(name, other)) {
          out += pc->id;
        }
      }
    }
    const JoinGraph graph = JoinGraph::Build(mkb);
    out += std::to_string(graph.relations().size()) + "/" +
           std::to_string(graph.Components().size());
    out += SaveMkb(mkb);
    return out;
  };
  const std::string expected = fingerprint();
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (size_t i = 0; i < 60; ++i) {
      const std::string rel = "R" + std::to_string(63 - i % 32);
      const std::string payload = "P" + rel.substr(1);
      const CapabilityChange change =
          i % 3 == 2 ? CapabilityChange::DeleteRelation(rel)
          : i % 6 < 3
              ? CapabilityChange::RenameAttribute(rel, payload, payload + "x")
              : CapabilityChange::RenameAttribute(rel, payload + "x", payload);
      (void)system.ApplyChange(change);
    }
    done.store(true);
  });
  size_t reads = 0;
  while (!done.load() || reads == 0) {
    ASSERT_EQ(fingerprint(), expected);
    ++reads;
  }
  writer.join();
  EXPECT_EQ(fingerprint(), expected);
  EXPECT_GT(system.current_version(), 10u);
}

}  // namespace
}  // namespace eve
