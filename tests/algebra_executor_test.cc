#include <gtest/gtest.h>

#include "algebra/executor.h"
#include "nested_loop_oracle.h"

namespace eve {
namespace {

ExprPtr Col(const std::string& rel, const std::string& attr) {
  return Expr::Column(AttributeRef{rel, attr});
}

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RelationDef r;
    r.source = "IS1";
    r.name = "R";
    r.schema = Schema({{"id", DataType::kInt}, {"name", DataType::kString}});
    ASSERT_TRUE(catalog_.AddRelation(r).ok());
    RelationDef s;
    s.source = "IS2";
    s.name = "S";
    s.schema = Schema({{"rid", DataType::kInt}, {"tag", DataType::kString}});
    ASSERT_TRUE(catalog_.AddRelation(s).ok());
    ASSERT_TRUE(db_.CreateAllTables(catalog_).ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(db_.Insert("R", {Value::Int(i),
                                   Value::String("n" + std::to_string(i))})
                      .ok());
    }
    // S references ids 0..2; id 1 twice.
    for (const int rid : {0, 1, 1, 2}) {
      ASSERT_TRUE(db_.Insert("S", {Value::Int(rid),
                                   Value::String("t" + std::to_string(rid))})
                      .ok());
    }
  }

  Catalog catalog_;
  Database db_;
};

TEST_F(ExecutorTest, SingleTableScanWithFilter) {
  ConjunctiveQuery query;
  query.relations = {"R"};
  query.conjuncts = {Expr::Binary(BinaryOp::kGt, Col("R", "id"),
                                  Expr::Lit(Value::Int(1)))};
  query.projections = {Col("R", "name")};
  query.output_names = {"name"};
  const Table result = Execute(query, db_, catalog_).value();
  EXPECT_EQ(result.NumRows(), 2u);  // ids 2, 3
}

TEST_F(ExecutorTest, EquiJoin) {
  ConjunctiveQuery query;
  query.relations = {"R", "S"};
  query.conjuncts = {Expr::ColumnsEqual({"R", "id"}, {"S", "rid"})};
  query.projections = {Col("R", "name"), Col("S", "tag")};
  query.output_names = {"name", "tag"};
  const Table result = Execute(query, db_, catalog_).value();
  // Distinct pairs: (n0,t0), (n1,t1), (n2,t2) — the duplicate S row for
  // rid=1 collapses under set semantics.
  EXPECT_EQ(result.NumRows(), 3u);
}

TEST_F(ExecutorTest, BagSemanticsWhenDistinctDisabled) {
  ConjunctiveQuery query;
  query.relations = {"R", "S"};
  query.conjuncts = {Expr::ColumnsEqual({"R", "id"}, {"S", "rid"})};
  query.projections = {Col("R", "name")};
  query.output_names = {"name"};
  query.distinct = false;
  const Table result = Execute(query, db_, catalog_).value();
  EXPECT_EQ(result.NumRows(), 4u);  // rid=1 matched twice
}

TEST_F(ExecutorTest, CartesianProductWithoutJoinCondition) {
  ConjunctiveQuery query;
  query.relations = {"R", "S"};
  query.projections = {Col("R", "id"), Col("S", "rid")};
  query.output_names = {"a", "b"};
  query.distinct = false;
  const Table result = Execute(query, db_, catalog_).value();
  EXPECT_EQ(result.NumRows(), 16u);
}

TEST_F(ExecutorTest, ProjectionExpressions) {
  ConjunctiveQuery query;
  query.relations = {"R"};
  query.projections = {Expr::Binary(BinaryOp::kMul, Col("R", "id"),
                                    Expr::Lit(Value::Int(10)))};
  query.output_names = {"ten_id"};
  const Table result = Execute(query, db_, catalog_).value();
  EXPECT_EQ(result.schema().attribute(0).name, "ten_id");
  EXPECT_EQ(result.schema().attribute(0).type, DataType::kInt);
  EXPECT_EQ(result.NumRows(), 4u);
}

TEST_F(ExecutorTest, OutputSchemaTypesInferred) {
  ConjunctiveQuery query;
  query.relations = {"R"};
  query.projections = {Col("R", "name"),
                       Expr::Binary(BinaryOp::kEq, Col("R", "id"),
                                    Expr::Lit(Value::Int(0)))};
  query.output_names = {"n", "is_zero"};
  const Table result = Execute(query, db_, catalog_).value();
  EXPECT_EQ(result.schema().attribute(0).type, DataType::kString);
  EXPECT_EQ(result.schema().attribute(1).type, DataType::kBool);
}

TEST_F(ExecutorTest, RejectsEmptyFrom) {
  ConjunctiveQuery query;
  const Result<Table> result = Execute(query, db_, catalog_);
  EXPECT_FALSE(result.ok());
}

TEST_F(ExecutorTest, RejectsDuplicateRelation) {
  ConjunctiveQuery query;
  query.relations = {"R", "R"};
  query.projections = {Col("R", "id")};
  query.output_names = {"id"};
  EXPECT_FALSE(Execute(query, db_, catalog_).ok());
}

TEST_F(ExecutorTest, RejectsConjunctOverUnknownRelation) {
  ConjunctiveQuery query;
  query.relations = {"R"};
  query.conjuncts = {Expr::ColumnsEqual({"R", "id"}, {"S", "rid"})};
  query.projections = {Col("R", "id")};
  query.output_names = {"id"};
  EXPECT_FALSE(Execute(query, db_, catalog_).ok());
}

TEST_F(ExecutorTest, RejectsArityMismatch) {
  ConjunctiveQuery query;
  query.relations = {"R"};
  query.projections = {Col("R", "id")};
  query.output_names = {"id", "extra"};
  EXPECT_FALSE(Execute(query, db_, catalog_).ok());
}

TEST_F(ExecutorTest, MissingTableReported) {
  Catalog catalog2 = catalog_;
  RelationDef t;
  t.source = "IS3";
  t.name = "T";
  t.schema = Schema({{"x", DataType::kInt}});
  ASSERT_TRUE(catalog2.AddRelation(t).ok());
  ConjunctiveQuery query;
  query.relations = {"T"};
  query.projections = {Col("T", "x")};
  query.output_names = {"x"};
  EXPECT_FALSE(Execute(query, db_, catalog2).ok());
}

TEST_F(ExecutorTest, PredicatePushdownMatchesUnpushedSemantics) {
  // Filter on R applies at depth 0; the result must equal filtering after
  // the join.
  ConjunctiveQuery pushed;
  pushed.relations = {"R", "S"};
  pushed.conjuncts = {
      Expr::Binary(BinaryOp::kLe, Col("R", "id"), Expr::Lit(Value::Int(1))),
      Expr::ColumnsEqual({"R", "id"}, {"S", "rid"})};
  pushed.projections = {Col("R", "id"), Col("S", "tag")};
  pushed.output_names = {"id", "tag"};

  ConjunctiveQuery reordered = pushed;
  std::swap(reordered.conjuncts[0], reordered.conjuncts[1]);

  const Table a = Execute(pushed, db_, catalog_).value();
  const Table b = Execute(reordered, db_, catalog_).value();
  EXPECT_TRUE(a.SetEquals(b));
  EXPECT_EQ(a.NumRows(), 2u);
}

// --- Hash-join parity with the nested-loop oracle ----------------------------

TEST_F(ExecutorTest, HashJoinMatchesOracleOnEquiJoin) {
  ConjunctiveQuery query;
  query.relations = {"R", "S"};
  query.conjuncts = {Expr::ColumnsEqual({"R", "id"}, {"S", "rid"})};
  query.projections = {Col("R", "name"), Col("S", "tag")};
  query.output_names = {"name", "tag"};
  const Table nested = oracle::ExecuteNestedLoop(query, db_, catalog_).value();
  const Table hashed = Execute(query, db_, catalog_).value();
  EXPECT_TRUE(nested.SetEquals(hashed));
  EXPECT_EQ(hashed.NumRows(), 3u);
}

TEST_F(ExecutorTest, HashJoinHandlesFiltersAndFlippedConjuncts) {
  ConjunctiveQuery query;
  query.relations = {"R", "S"};
  // Flipped orientation (S on the left) plus a filter on each relation.
  query.conjuncts = {
      Expr::ColumnsEqual({"S", "rid"}, {"R", "id"}),
      Expr::Binary(BinaryOp::kLe, Col("R", "id"), Expr::Lit(Value::Int(1))),
      Expr::Binary(BinaryOp::kNe, Col("S", "tag"),
                   Expr::Lit(Value::String("t0")))};
  query.projections = {Col("R", "name"), Col("S", "tag")};
  query.output_names = {"name", "tag"};
  const Table nested = oracle::ExecuteNestedLoop(query, db_, catalog_).value();
  const Table hashed = Execute(query, db_, catalog_).value();
  EXPECT_TRUE(nested.SetEquals(hashed));
}

TEST_F(ExecutorTest, HashJoinCartesianFallback) {
  ConjunctiveQuery query;
  query.relations = {"R", "S"};
  query.projections = {Col("R", "id"), Col("S", "rid")};
  query.output_names = {"a", "b"};
  query.distinct = false;
  const Table hashed = Execute(query, db_, catalog_).value();
  EXPECT_EQ(hashed.NumRows(), 16u);
}

TEST_F(ExecutorTest, HashJoinNullKeysNeverMatch) {
  ASSERT_TRUE(db_.Insert("R", {Value::Null(), Value::String("ghost")}).ok());
  ASSERT_TRUE(db_.Insert("S", {Value::Null(), Value::String("ghost")}).ok());
  ConjunctiveQuery query;
  query.relations = {"R", "S"};
  query.conjuncts = {Expr::ColumnsEqual({"R", "id"}, {"S", "rid"})};
  query.projections = {Col("R", "name"), Col("S", "tag")};
  query.output_names = {"name", "tag"};
  const Table nested = oracle::ExecuteNestedLoop(query, db_, catalog_).value();
  const Table hashed = Execute(query, db_, catalog_).value();
  EXPECT_TRUE(nested.SetEquals(hashed));
  for (size_t row = 0; row < hashed.NumRows(); ++row) {
    EXPECT_NE(hashed.column(1).GetValue(row).string_value(), "ghost");
  }
}

TEST_F(ExecutorTest, HashJoinNonEquiConjunctBecomesPostFilter) {
  ConjunctiveQuery query;
  query.relations = {"R", "S"};
  query.conjuncts = {
      Expr::ColumnsEqual({"R", "id"}, {"S", "rid"}),
      Expr::Binary(BinaryOp::kLt, Col("R", "id"), Col("S", "rid"))};
  query.projections = {Col("R", "id")};
  query.output_names = {"id"};
  const Table nested = oracle::ExecuteNestedLoop(query, db_, catalog_).value();
  const Table hashed = Execute(query, db_, catalog_).value();
  EXPECT_TRUE(nested.SetEquals(hashed));
  EXPECT_EQ(hashed.NumRows(), 0u);  // id = rid contradicts id < rid
}

TEST_F(ExecutorTest, HashJoinRejectsForeignConjuncts) {
  ConjunctiveQuery query;
  query.relations = {"R"};
  query.conjuncts = {Expr::ColumnsEqual({"R", "id"}, {"S", "rid"})};
  query.projections = {Col("R", "id")};
  query.output_names = {"id"};
  EXPECT_FALSE(Execute(query, db_, catalog_).ok());
  EXPECT_FALSE(oracle::ExecuteNestedLoop(query, db_, catalog_).ok());
}

TEST_F(ExecutorTest, ThreeWayJoin) {
  RelationDef t;
  t.source = "IS3";
  t.name = "T";
  t.schema = Schema({{"tag", DataType::kString}, {"score", DataType::kInt}});
  ASSERT_TRUE(catalog_.AddRelation(t).ok());
  ASSERT_TRUE(db_.CreateTable(catalog_, "T").ok());
  ASSERT_TRUE(db_.Insert("T", {Value::String("t1"), Value::Int(10)}).ok());
  ASSERT_TRUE(db_.Insert("T", {Value::String("t2"), Value::Int(20)}).ok());

  ConjunctiveQuery query;
  query.relations = {"R", "S", "T"};
  query.conjuncts = {Expr::ColumnsEqual({"R", "id"}, {"S", "rid"}),
                     Expr::ColumnsEqual({"S", "tag"}, {"T", "tag"})};
  query.projections = {Col("R", "name"), Col("T", "score")};
  query.output_names = {"name", "score"};
  const Table result = Execute(query, db_, catalog_).value();
  EXPECT_EQ(result.NumRows(), 2u);  // (n1,10), (n2,20)
  // Oracle parity on the three-way join.
  const Table nested = oracle::ExecuteNestedLoop(query, db_, catalog_).value();
  EXPECT_TRUE(result.SetEquals(nested));
}

TEST_F(ExecutorTest, HashJoinCompositeKey) {
  // Two equi-join conjuncts between the same pair: a composite hash key.
  RelationDef v;
  v.source = "IS5";
  v.name = "V";
  v.schema = Schema({{"rid", DataType::kInt}, {"tag", DataType::kString}});
  ASSERT_TRUE(catalog_.AddRelation(v).ok());
  ASSERT_TRUE(db_.CreateTable(catalog_, "V").ok());
  ASSERT_TRUE(db_.Insert("V", {Value::Int(1), Value::String("t1")}).ok());
  ASSERT_TRUE(db_.Insert("V", {Value::Int(1), Value::String("zzz")}).ok());
  ASSERT_TRUE(db_.Insert("V", {Value::Int(2), Value::String("t2")}).ok());

  ConjunctiveQuery query;
  query.relations = {"S", "V"};
  query.conjuncts = {Expr::ColumnsEqual({"S", "rid"}, {"V", "rid"}),
                     Expr::ColumnsEqual({"S", "tag"}, {"V", "tag"})};
  query.projections = {Expr::Column(AttributeRef{"S", "rid"}),
                       Expr::Column(AttributeRef{"S", "tag"})};
  query.output_names = {"rid", "tag"};
  const Table nested = oracle::ExecuteNestedLoop(query, db_, catalog_).value();
  const Table hashed = Execute(query, db_, catalog_).value();
  EXPECT_TRUE(nested.SetEquals(hashed));
  // Only (1, t1) and (2, t2) match on BOTH columns.
  EXPECT_EQ(hashed.NumRows(), 2u);
}

TEST_F(ExecutorTest, OracleParityOnWidenedKeys) {
  // A wider randomized parity check: widened int/double keys included.
  RelationDef u;
  u.source = "IS4";
  u.name = "U";
  u.schema = Schema({{"k", DataType::kDouble}, {"p", DataType::kInt}});
  ASSERT_TRUE(catalog_.AddRelation(u).ok());
  ASSERT_TRUE(db_.CreateTable(catalog_, "U").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db_.Insert("U", {Value::Double(i % 4), Value::Int(i)}).ok());
  }
  ConjunctiveQuery query;
  query.relations = {"R", "U"};
  // int R.id joined against double U.k: numeric widening semantics.
  query.conjuncts = {Expr::ColumnsEqual({"R", "id"}, {"U", "k"})};
  query.projections = {Col("R", "name"), Col("U", "p")};
  query.output_names = {"name", "p"};
  const Table nested = oracle::ExecuteNestedLoop(query, db_, catalog_).value();
  const Table hashed = Execute(query, db_, catalog_).value();
  EXPECT_TRUE(nested.SetEquals(hashed));
  EXPECT_GT(hashed.NumRows(), 0u);
}

}  // namespace
}  // namespace eve
