// Property suite for the MKB lookup indexes: on randomized MKBs, every
// indexed query (JoinConstraintsOf / JoinConstraintsBetween / CoversOf /
// PCConstraintsBetween / GetJoinConstraint / GetFunctionOf) must return
// exactly what a brute-force scan over the constraint sequences returns —
// same elements, same (registration) order, same addresses — and must
// stay consistent through constraint removals, MKB copies and every kind
// of evolution (EvolveMkb).

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "mkb/evolution.h"
#include "mkb/mkb.h"
#include "mkb/serializer.h"
#include "workload/generator.h"

namespace eve {
namespace {

std::vector<const JoinConstraint*> BruteJoinsOf(const Mkb& mkb,
                                                const std::string& relation) {
  std::vector<const JoinConstraint*> out;
  for (const JoinConstraint& jc : mkb.join_constraints()) {
    if (jc.Involves(relation)) out.push_back(&jc);
  }
  return out;
}

std::vector<const JoinConstraint*> BruteJoinsBetween(const Mkb& mkb,
                                                     const std::string& a,
                                                     const std::string& b) {
  std::vector<const JoinConstraint*> out;
  for (const JoinConstraint& jc : mkb.join_constraints()) {
    if ((jc.lhs == a && jc.rhs == b) || (jc.lhs == b && jc.rhs == a)) {
      out.push_back(&jc);
    }
  }
  return out;
}

std::vector<const FunctionOfConstraint*> BruteCoversOf(
    const Mkb& mkb, const AttributeRef& attr) {
  std::vector<const FunctionOfConstraint*> out;
  for (const FunctionOfConstraint& fc : mkb.function_of_constraints()) {
    if (fc.target == attr) out.push_back(&fc);
  }
  return out;
}

std::vector<const PCConstraint*> BrutePcsBetween(const Mkb& mkb,
                                                 const std::string& a,
                                                 const std::string& b) {
  std::vector<const PCConstraint*> out;
  for (const PCConstraint& pc : mkb.pc_constraints()) {
    if ((pc.lhs_relation == a && pc.rhs_relation == b) ||
        (pc.lhs_relation == b && pc.rhs_relation == a)) {
      out.push_back(&pc);
    }
  }
  return out;
}

// Compares every indexed lookup on `mkb` against its brute-force twin,
// over all relations, all relation pairs (both orders), all catalog
// attributes, and a guaranteed-absent key.
void ExpectIndexMatchesBruteForce(const Mkb& mkb) {
  std::vector<std::string> relations = mkb.catalog().RelationNames();
  relations.push_back("NoSuchRelation");
  for (const std::string& a : relations) {
    EXPECT_EQ(mkb.JoinConstraintsOf(a), BruteJoinsOf(mkb, a)) << a;
    for (const std::string& b : relations) {
      EXPECT_EQ(mkb.JoinConstraintsBetween(a, b), BruteJoinsBetween(mkb, a, b))
          << a << " vs " << b;
      EXPECT_EQ(mkb.PCConstraintsBetween(a, b), BrutePcsBetween(mkb, a, b))
          << a << " vs " << b;
    }
    if (const auto rel = mkb.catalog().GetRelation(a); rel.ok()) {
      for (const AttributeDef& attr : rel.value()->schema.attributes()) {
        const AttributeRef ref{a, attr.name};
        EXPECT_EQ(mkb.CoversOf(ref), BruteCoversOf(mkb, ref)) << ref.ToString();
      }
    }
    EXPECT_EQ(mkb.CoversOf(AttributeRef{a, "NoSuchAttr"}),
              BruteCoversOf(mkb, AttributeRef{a, "NoSuchAttr"}));
  }
  for (const JoinConstraint& jc : mkb.join_constraints()) {
    const auto found = mkb.GetJoinConstraint(jc.id);
    ASSERT_TRUE(found.ok()) << jc.id;
    EXPECT_EQ(found.value(), &jc);
  }
  for (const FunctionOfConstraint& fc : mkb.function_of_constraints()) {
    const auto found = mkb.GetFunctionOf(fc.id);
    ASSERT_TRUE(found.ok()) << fc.id;
    EXPECT_EQ(found.value(), &fc);
  }
  EXPECT_FALSE(mkb.GetJoinConstraint("no-such-id").ok());
  EXPECT_FALSE(mkb.GetFunctionOf("no-such-id").ok());
}

class MkbIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MkbIndexPropertyTest, IndexedLookupsMatchBruteForce) {
  RandomMkbSpec spec;
  spec.num_relations = 14;
  spec.extra_edge_probability = 0.25;
  spec.cover_probability = 0.8;
  spec.seed = GetParam();
  const Mkb mkb = MakeRandomMkb(spec).MoveValue();
  ASSERT_FALSE(mkb.join_constraints().empty());
  ExpectIndexMatchesBruteForce(mkb);
}

TEST_P(MkbIndexPropertyTest, IndexSurvivesRemovalsAndCopies) {
  RandomMkbSpec spec;
  spec.num_relations = 10;
  spec.extra_edge_probability = 0.3;
  spec.seed = GetParam();
  Mkb mkb = MakeRandomMkb(spec).MoveValue();

  // Removing constraints shifts vector indices: the rebuilt index must
  // still agree with brute force after every removal.
  while (mkb.join_constraints().size() > 1) {
    auto middle = mkb.join_constraints().begin();
    std::advance(middle, mkb.join_constraints().size() / 2);
    const std::string victim = middle->id;
    ASSERT_TRUE(mkb.RemoveConstraint(victim).ok());
    EXPECT_FALSE(mkb.GetJoinConstraint(victim).ok());
    ExpectIndexMatchesBruteForce(mkb);
  }
  if (!mkb.function_of_constraints().empty()) {
    ASSERT_TRUE(
        mkb.RemoveConstraint(mkb.function_of_constraints().front().id).ok());
    ExpectIndexMatchesBruteForce(mkb);
  }

  // A copy must carry working indexes that point at the constraints ITS
  // OWN sequences hold (index values are slots, not pointers).
  const Mkb copy = mkb;
  ExpectIndexMatchesBruteForce(copy);
  std::vector<const JoinConstraint*> held;
  for (const JoinConstraint& jc : copy.join_constraints()) held.push_back(&jc);
  for (const JoinConstraint* jc : copy.JoinConstraintsOf(
           copy.catalog().RelationNames().front())) {
    EXPECT_NE(std::find(held.begin(), held.end(), jc), held.end());
  }
}

// Every change kind on every relation (and on one attribute of each): the
// evolved MKB answers every lookup as brute force over its own sequences
// does, and the MKB it evolved from still does and still renders as before.
TEST_P(MkbIndexPropertyTest, IndexedLookupsMatchBruteForceOnEvolvedMkbs) {
  RandomMkbSpec spec;
  spec.num_relations = 10;
  spec.extra_edge_probability = 0.3;
  spec.cover_probability = 0.8;
  spec.seed = GetParam();
  const Mkb mkb = MakeRandomMkb(spec).MoveValue();
  const std::string before = SaveMkb(mkb);
  size_t evolved = 0;
  for (const std::string& relation : mkb.catalog().RelationNames()) {
    const RelationDef& def = *mkb.catalog().GetRelation(relation).value();
    const std::string attribute = def.schema.attribute(0).name;
    RelationDef added;
    added.source = "IS-new";
    added.name = relation + "_new";
    added.schema = Schema({{"Fresh" + relation, DataType::kInt}});
    for (const CapabilityChange& change :
         {CapabilityChange::DeleteRelation(relation),
          CapabilityChange::DeleteAttribute(relation, attribute),
          CapabilityChange::RenameRelation(relation, relation + "x"),
          CapabilityChange::RenameAttribute(relation, attribute,
                                            attribute + "x"),
          CapabilityChange::AddAttribute(relation,
                                         {"Fresh" + relation, DataType::kInt}),
          CapabilityChange::AddRelation(added)}) {
      SCOPED_TRACE(change.ToString());
      const Result<MkbEvolutionReport> report = EvolveMkb(mkb, change);
      ASSERT_TRUE(report.ok()) << report.status();
      ExpectIndexMatchesBruteForce(report.value().mkb);
      // A second change on top of the first keeps the indexes exact.
      const std::vector<std::string> left =
          report.value().mkb.catalog().RelationNames();
      const Result<MkbEvolutionReport> again = EvolveMkb(
          report.value().mkb, CapabilityChange::DeleteRelation(left.back()));
      ASSERT_TRUE(again.ok()) << again.status();
      ExpectIndexMatchesBruteForce(again.value().mkb);
      ++evolved;
    }
  }
  EXPECT_EQ(SaveMkb(mkb), before);
  ExpectIndexMatchesBruteForce(mkb);
  EXPECT_GT(evolved, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MkbIndexPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

}  // namespace
}  // namespace eve
