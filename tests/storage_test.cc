#include <gtest/gtest.h>

#include "storage/database.h"
#include "storage/table.h"

namespace eve {
namespace {

Schema TwoColSchema() {
  return Schema({{"a", DataType::kInt}, {"b", DataType::kString}});
}

TEST(TableTest, InsertValidates) {
  Table table(TwoColSchema());
  EXPECT_TRUE(table.Insert({Value::Int(1), Value::String("x")}).ok());
  EXPECT_FALSE(table.Insert({Value::Int(1)}).ok());
  EXPECT_FALSE(table.Insert({Value::String("x"), Value::String("y")}).ok());
  EXPECT_EQ(table.NumRows(), 1u);
}

TEST(TableTest, DeduplicateRemovesExactDuplicates) {
  Table table(TwoColSchema());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(table.Insert({Value::Int(2), Value::String("y")}).ok());
  table.Deduplicate();
  EXPECT_EQ(table.NumRows(), 2u);
}

TEST(TableTest, SubsetSemantics) {
  Table small(TwoColSchema());
  Table big(TwoColSchema());
  ASSERT_TRUE(small.Insert({Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(big.Insert({Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(big.Insert({Value::Int(2), Value::String("y")}).ok());
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(small.IsSubsetOf(small));
  EXPECT_FALSE(small.SetEquals(big));
  EXPECT_TRUE(big.SetEquals(big));
}

TEST(TableTest, SubsetIgnoresDuplicates) {
  Table a(TwoColSchema());
  Table b(TwoColSchema());
  ASSERT_TRUE(a.Insert({Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(a.Insert({Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(b.Insert({Value::Int(1), Value::String("x")}).ok());
  EXPECT_TRUE(a.SetEquals(b));
}

TEST(TableTest, EmptyTableIsSubsetOfAnything) {
  Table empty(TwoColSchema());
  Table other(TwoColSchema());
  ASSERT_TRUE(other.Insert({Value::Int(1), Value::String("x")}).ok());
  EXPECT_TRUE(empty.IsSubsetOf(other));
  EXPECT_TRUE(empty.IsSubsetOf(empty));
}

TEST(TableTest, ToStringTruncates) {
  Table table(TwoColSchema());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(table.Insert({Value::Int(i), Value::String("x")}).ok());
  }
  const std::string rendered = table.ToString(2);
  EXPECT_NE(rendered.find("more rows"), std::string::npos);
  EXPECT_NE(rendered.find("(5 rows)"), std::string::npos);
}

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RelationDef def;
    def.source = "IS1";
    def.name = "R";
    def.schema = TwoColSchema();
    ASSERT_TRUE(catalog_.AddRelation(def).ok());
    RelationDef def2;
    def2.source = "IS2";
    def2.name = "S";
    def2.schema = Schema({{"c", DataType::kInt}});
    ASSERT_TRUE(catalog_.AddRelation(def2).ok());
  }

  Catalog catalog_;
  Database db_;
};

TEST_F(DatabaseTest, CreateAndInsert) {
  ASSERT_TRUE(db_.CreateTable(catalog_, "R").ok());
  EXPECT_TRUE(db_.HasTable("R"));
  EXPECT_TRUE(db_.Insert("R", {Value::Int(1), Value::String("x")}).ok());
  EXPECT_FALSE(db_.Insert("R", {Value::Int(1)}).ok());
  EXPECT_EQ(db_.GetTable("R").value()->NumRows(), 1u);
}

TEST_F(DatabaseTest, CreateTableErrors) {
  EXPECT_EQ(db_.CreateTable(catalog_, "gone").code(), StatusCode::kNotFound);
  ASSERT_TRUE(db_.CreateTable(catalog_, "R").ok());
  EXPECT_EQ(db_.CreateTable(catalog_, "R").code(),
            StatusCode::kAlreadyExists);
}

TEST_F(DatabaseTest, CreateAllTables) {
  ASSERT_TRUE(db_.CreateAllTables(catalog_).ok());
  EXPECT_EQ(db_.NumTables(), 2u);
  // Idempotent: re-running skips existing tables.
  EXPECT_TRUE(db_.CreateAllTables(catalog_).ok());
}

TEST_F(DatabaseTest, Drop) {
  ASSERT_TRUE(db_.CreateAllTables(catalog_).ok());
  EXPECT_TRUE(db_.DropTable("S").ok());
  EXPECT_FALSE(db_.HasTable("S"));
  EXPECT_EQ(db_.DropTable("S").code(), StatusCode::kNotFound);
}

TEST_F(DatabaseTest, GetTableMissing) {
  EXPECT_EQ(db_.GetTable("R").status().code(), StatusCode::kNotFound);
  const Database& const_db = db_;
  EXPECT_EQ(const_db.GetTable("R").status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace eve
