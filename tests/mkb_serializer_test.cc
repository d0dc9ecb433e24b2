#include <gtest/gtest.h>

#include "mkb/builder.h"
#include "mkb/serializer.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

// A constraint sequence's items in registration order.
template <typename T>
std::vector<const T*> Items(const ChunkedSeq<T>& seq) {
  std::vector<const T*> items;
  for (const T& item : seq) items.push_back(&item);
  return items;
}

// Structural equality between two MKBs, independent of formatting.
void ExpectSameMkb(const Mkb& a, const Mkb& b) {
  EXPECT_EQ(a.catalog().RelationNames(), b.catalog().RelationNames());
  for (const std::string& name : a.catalog().RelationNames()) {
    const RelationDef& da = *a.catalog().GetRelation(name).value();
    const RelationDef& db = *b.catalog().GetRelation(name).value();
    EXPECT_EQ(da.source, db.source) << name;
    EXPECT_EQ(da.schema, db.schema) << name;
    EXPECT_EQ(da.ordered_by, db.ordered_by) << name;
  }
  ASSERT_EQ(a.join_constraints().size(), b.join_constraints().size());
  const std::vector<const JoinConstraint*> joins_a = Items(a.join_constraints());
  const std::vector<const JoinConstraint*> joins_b = Items(b.join_constraints());
  ASSERT_EQ(joins_a.size(), a.join_constraints().size());
  for (size_t i = 0; i < joins_a.size(); ++i) {
    const JoinConstraint& ja = *joins_a[i];
    const JoinConstraint& jb = *joins_b[i];
    EXPECT_EQ(ja.id, jb.id);
    EXPECT_EQ(ja.lhs, jb.lhs);
    EXPECT_EQ(ja.rhs, jb.rhs);
    ASSERT_EQ(ja.clauses.size(), jb.clauses.size()) << ja.id;
    for (size_t k = 0; k < ja.clauses.size(); ++k) {
      EXPECT_TRUE(ja.clauses[k]->Equals(*jb.clauses[k]))
          << ja.clauses[k]->ToString() << " vs "
          << jb.clauses[k]->ToString();
    }
  }
  ASSERT_EQ(a.function_of_constraints().size(),
            b.function_of_constraints().size());
  const std::vector<const FunctionOfConstraint*> functions_a =
      Items(a.function_of_constraints());
  const std::vector<const FunctionOfConstraint*> functions_b =
      Items(b.function_of_constraints());
  ASSERT_EQ(functions_a.size(), a.function_of_constraints().size());
  for (size_t i = 0; i < functions_a.size(); ++i) {
    const FunctionOfConstraint& fa = *functions_a[i];
    const FunctionOfConstraint& fb = *functions_b[i];
    EXPECT_EQ(fa.id, fb.id);
    EXPECT_EQ(fa.target, fb.target);
    EXPECT_EQ(fa.source, fb.source);
    EXPECT_TRUE(fa.fn->Equals(*fb.fn)) << fa.id;
  }
  ASSERT_EQ(a.pc_constraints().size(), b.pc_constraints().size());
  const std::vector<const PCConstraint*> pcs_a = Items(a.pc_constraints());
  const std::vector<const PCConstraint*> pcs_b = Items(b.pc_constraints());
  ASSERT_EQ(pcs_a.size(), a.pc_constraints().size());
  for (size_t i = 0; i < pcs_a.size(); ++i) {
    const PCConstraint& pa = *pcs_a[i];
    const PCConstraint& pb = *pcs_b[i];
    EXPECT_EQ(pa.id, pb.id);
    EXPECT_EQ(pa.lhs_relation, pb.lhs_relation);
    EXPECT_EQ(pa.rhs_relation, pb.rhs_relation);
    EXPECT_EQ(pa.lhs_attrs, pb.lhs_attrs);
    EXPECT_EQ(pa.rhs_attrs, pb.rhs_attrs);
    EXPECT_EQ(pa.relation, pb.relation);
  }
}

TEST(SerializerTest, TravelAgencyRoundTrip) {
  Mkb original = MakeTravelAgencyMkb().value();
  ASSERT_TRUE(AddPersonExtension(&original).ok());
  ASSERT_TRUE(AddAccidentInsPc(&original).ok());
  const std::string text = SaveMkb(original);
  const Result<Mkb> loaded = LoadMkb(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status() << "\n" << text;
  ExpectSameMkb(original, loaded.value());
}

TEST(SerializerTest, SavedTextIsReadable) {
  const Mkb mkb = MakeTravelAgencyMkb().value();
  const std::string text = SaveMkb(mkb);
  EXPECT_NE(text.find("SOURCE IS1 RELATION Customer"), std::string::npos);
  EXPECT_NE(text.find("JOIN CONSTRAINT JC1 BETWEEN Customer AND FlightRes"),
            std::string::npos);
  EXPECT_NE(text.find("FUNCTION F3 Customer.Age ="), std::string::npos);
  // Hyphenated names are quoted.
  EXPECT_NE(text.find("\"Accident-Ins\""), std::string::npos);
}

TEST(SerializerTest, HandAuthoredText) {
  const Result<Mkb> mkb = LoadMkb(R"misd(
    -- a tiny hand-written federation
    SOURCE IS1 RELATION Emp (Name string, Dept string, Salary double)
        ORDER BY (Name)
    SOURCE IS2 RELATION Dept (Dept string, City string)
    SOURCE IS3 RELATION Payroll (Who string, Amount double)

    JOIN CONSTRAINT J1 BETWEEN Emp AND Dept
        WHERE Emp.Dept = Dept.Dept
    JOIN CONSTRAINT J2 BETWEEN Emp AND Payroll
        WHERE Emp.Name = Payroll.Who AND Emp.Salary > 0

    FUNCTION FX Emp.Salary = Payroll.Amount * 1
    PC P1 Payroll (Who) SUPERSET Emp (Name)
  )misd");
  ASSERT_TRUE(mkb.ok()) << mkb.status();
  EXPECT_EQ(mkb.value().catalog().NumRelations(), 3u);
  EXPECT_EQ(mkb.value().join_constraints().size(), 2u);
  EXPECT_EQ(mkb.value().GetJoinConstraint("J2").value()->clauses.size(), 2u);
  EXPECT_EQ(mkb.value().function_of_constraints().size(), 1u);
  EXPECT_EQ(mkb.value().pc_constraints().size(), 1u);
  EXPECT_EQ(mkb.value().catalog().GetRelation("Emp").value()->ordered_by,
            (std::vector<std::string>{"Name"}));
}

TEST(SerializerTest, PcWithSelections) {
  const Result<Mkb> mkb = LoadMkb(R"misd(
    SOURCE IS1 RELATION A (x int, y int)
    SOURCE IS2 RELATION B (x int, z int)
    JOIN CONSTRAINT J BETWEEN A AND B WHERE A.x = B.x
    PC P1 A (x) WHERE (A.y > 0) SUBSET B (x) WHERE (B.z > 0)
  )misd");
  ASSERT_TRUE(mkb.ok()) << mkb.status();
  const PCConstraint& pc = mkb.value().pc_constraints().front();
  ASSERT_NE(pc.lhs_condition, nullptr);
  ASSERT_NE(pc.rhs_condition, nullptr);
  EXPECT_EQ(pc.lhs_condition->ToString(), "(A.y > 0)");
  EXPECT_EQ(pc.relation, SetRelation::kSubset);
  // And it round-trips.
  const Result<Mkb> again = LoadMkb(SaveMkb(mkb.value()));
  ASSERT_TRUE(again.ok()) << again.status();
  ASSERT_NE(again.value().pc_constraints().front().lhs_condition, nullptr);
  EXPECT_TRUE(again.value().pc_constraints().front().lhs_condition->Equals(
      *pc.lhs_condition));
}

TEST(SerializerTest, DateLiteralsInFunctionsRoundTrip) {
  const Mkb original = MakeTravelAgencyMkb().value();
  const Mkb loaded = LoadMkb(SaveMkb(original)).value();
  const FunctionOfConstraint* f3 = loaded.GetFunctionOf("F3").value();
  EXPECT_FALSE(f3->IsIdentity());
  EXPECT_TRUE(
      f3->fn->Equals(*original.GetFunctionOf("F3").value()->fn));
}

TEST(SerializerTest, ErrorsAreReported) {
  EXPECT_FALSE(LoadMkb("NONSENSE").ok());
  EXPECT_FALSE(LoadMkb("SOURCE IS1 RELATION R (a int").ok());
  EXPECT_FALSE(LoadMkb("SOURCE IS1 RELATION R (a blob)").ok());
  // Join constraint over unknown relation.
  EXPECT_FALSE(LoadMkb(R"misd(
    SOURCE IS1 RELATION A (x int)
    JOIN CONSTRAINT J BETWEEN A AND B WHERE A.x = B.x
  )misd")
                   .ok());
  // Duplicate constraint id.
  EXPECT_FALSE(LoadMkb(R"misd(
    SOURCE IS1 RELATION A (x int)
    SOURCE IS2 RELATION B (x int)
    JOIN CONSTRAINT J BETWEEN A AND B WHERE A.x = B.x
    JOIN CONSTRAINT J BETWEEN A AND B WHERE A.x = B.x
  )misd")
                   .ok());
  // PC with unknown relation keyword.
  EXPECT_FALSE(LoadMkb(R"misd(
    SOURCE IS1 RELATION A (x int)
    SOURCE IS2 RELATION B (x int)
    PC P1 A (x) SIDEWAYS B (x)
  )misd")
                   .ok());
}

TEST(SerializerTest, EmptyInputGivesEmptyMkb) {
  const Result<Mkb> mkb = LoadMkb("  -- only a comment\n");
  ASSERT_TRUE(mkb.ok());
  EXPECT_EQ(mkb.value().catalog().NumRelations(), 0u);
}

TEST(SerializerTest, OrderByRoundTrips) {
  Mkb mkb;
  RelationDef def;
  def.source = "IS1";
  def.name = "Ordered";
  def.schema = Schema({{"a", DataType::kInt}, {"b", DataType::kString}});
  def.ordered_by = {"b", "a"};
  ASSERT_TRUE(mkb.AddRelation(def).ok());
  const Mkb loaded = LoadMkb(SaveMkb(mkb)).value();
  EXPECT_EQ(loaded.catalog().GetRelation("Ordered").value()->ordered_by,
            (std::vector<std::string>{"b", "a"}));
}

TEST(SerializerTest, DoubleRoundTripIsStable) {
  Mkb original = MakeTravelAgencyMkb().value();
  ASSERT_TRUE(AddAccidentInsPc(&original).ok());
  const std::string once = SaveMkb(original);
  const std::string twice = SaveMkb(LoadMkb(once).value());
  EXPECT_EQ(once, twice);
}

}  // namespace
}  // namespace eve
