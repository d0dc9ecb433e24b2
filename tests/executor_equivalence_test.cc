// Differential testing of the executor: randomized conjunctive queries
// (joins, 3VL predicates, expression projections, NULL-heavy data, empty
// relations) must give Execute() and the nested-loop oracle in
// nested_loop_oracle.h byte-identical result tables; variants carrying an
// expression that fails when evaluated must fail in both exactly when a
// row reaches it.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "algebra/executor.h"
#include "cvs/extent.h"
#include "nested_loop_oracle.h"
#include "storage/database.h"
#include "workload/generator.h"

namespace eve {
namespace {

Catalog MakeCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .AddRelation({"IS0",
                                "R",
                                Schema({{"k", DataType::kInt},
                                        {"p", DataType::kInt},
                                        {"q", DataType::kInt},
                                        {"d", DataType::kDouble},
                                        {"s", DataType::kString}}),
                                {}})
                  .ok());
  EXPECT_TRUE(catalog
                  .AddRelation({"IS1",
                                "A",
                                Schema({{"k", DataType::kInt},
                                        {"w", DataType::kInt}}),
                                {}})
                  .ok());
  EXPECT_TRUE(catalog
                  .AddRelation({"IS2",
                                "B",
                                Schema({{"j", DataType::kInt},
                                        {"u", DataType::kInt}}),
                                {}})
                  .ok());
  return catalog;
}

// NULL-heavy random data: every cell is NULL with probability ~0.15, so
// three-valued comparison and join-key semantics get exercised.
Value MaybeNullInt(std::mt19937_64* rng, int64_t domain) {
  if ((*rng)() % 100 < 15) return Value::Null();
  return Value::Int(static_cast<int64_t>((*rng)() % domain));
}

Database MakeDatabase(const Catalog& catalog, std::mt19937_64* rng,
                      size_t r_rows, size_t a_rows, size_t b_rows) {
  Database db;
  EXPECT_TRUE(db.CreateAllTables(catalog).ok());
  static const char* kStrings[] = {"ann", "bob", "cat", "dee", "eel"};
  Table* r = db.GetTable("R").value();
  for (size_t i = 0; i < r_rows; ++i) {
    Tuple t;
    t.push_back(MaybeNullInt(rng, 8));
    t.push_back(MaybeNullInt(rng, 40));
    t.push_back(MaybeNullInt(rng, 40));
    t.push_back((*rng)() % 100 < 15
                    ? Value::Null()
                    : Value::Double(static_cast<double>((*rng)() % 400) / 4));
    t.push_back((*rng)() % 100 < 15
                    ? Value::Null()
                    : Value::String(kStrings[(*rng)() % 5]));
    r->InsertUnchecked(std::move(t));
  }
  Table* a = db.GetTable("A").value();
  for (size_t i = 0; i < a_rows; ++i) {
    Tuple t;
    t.push_back(MaybeNullInt(rng, 8));
    t.push_back(MaybeNullInt(rng, 40));
    a->InsertUnchecked(std::move(t));
  }
  Table* b = db.GetTable("B").value();
  for (size_t i = 0; i < b_rows; ++i) {
    Tuple t;
    t.push_back(MaybeNullInt(rng, 8));
    t.push_back(MaybeNullInt(rng, 40));
    b->InsertUnchecked(std::move(t));
  }
  return db;
}

ExprPtr Col(const std::string& rel, const std::string& attr) {
  return Expr::Column(AttributeRef{rel, attr});
}

// One random primitive predicate over the given relations' int columns:
// column-vs-literal or column-vs-column comparison, an arithmetic
// comparison, an OR of two comparisons, or a negation.
ExprPtr RandomPredicate(const std::vector<std::string>& rels,
                        std::mt19937_64* rng) {
  static const BinaryOp kCmp[] = {BinaryOp::kEq, BinaryOp::kNe,
                                  BinaryOp::kLt, BinaryOp::kLe,
                                  BinaryOp::kGt, BinaryOp::kGe};
  auto random_col = [&]() -> ExprPtr {
    const std::string& rel = rels[(*rng)() % rels.size()];
    if (rel == "R") {
      static const char* kAttrs[] = {"k", "p", "q", "d"};
      return Col(rel, kAttrs[(*rng)() % 4]);
    }
    if (rel == "A") return Col(rel, (*rng)() % 2 ? "k" : "w");
    return Col(rel, (*rng)() % 2 ? "j" : "u");
  };
  const BinaryOp op = kCmp[(*rng)() % 6];
  ExprPtr pred;
  switch ((*rng)() % 5) {
    case 0:
      pred = Expr::Binary(op, random_col(),
                          Expr::Lit(Value::Int((*rng)() % 40)));
      break;
    case 1:
      pred = Expr::Binary(op, random_col(), random_col());
      break;
    case 2:
      pred = Expr::Binary(
          op, Expr::Binary(BinaryOp::kAdd, random_col(), random_col()),
          Expr::Lit(Value::Int((*rng)() % 60)));
      break;
    case 3:
      pred = Expr::Binary(
          BinaryOp::kOr,
          Expr::Binary(op, random_col(), Expr::Lit(Value::Int((*rng)() % 40))),
          Expr::Binary(kCmp[(*rng)() % 6], random_col(),
                       Expr::Lit(Value::Int((*rng)() % 40))));
      break;
    default:
      pred = Expr::Unary(UnaryOp::kNot,
                         Expr::Binary(op, random_col(),
                                      Expr::Lit(Value::Int((*rng)() % 40))));
      break;
  }
  return pred;
}

ConjunctiveQuery RandomQuery(std::mt19937_64* rng) {
  ConjunctiveQuery q;
  const size_t shape = (*rng)() % 4;
  if (shape == 0) {
    q.relations = {"R"};
  } else if (shape == 1) {
    q.relations = {"R", "A"};
    q.conjuncts.push_back(Expr::ColumnsEqual({"R", "k"}, {"A", "k"}));
  } else if (shape == 2) {
    // Deliberately join-free pair: exercises the cartesian fallback
    // (tables are small).
    q.relations = {"A", "B"};
  } else {
    q.relations = {"R", "A", "B"};
    q.conjuncts.push_back(Expr::ColumnsEqual({"R", "k"}, {"A", "k"}));
    q.conjuncts.push_back(Expr::ColumnsEqual({"A", "k"}, {"B", "j"}));
  }
  const size_t num_filters = (*rng)() % 3;
  for (size_t i = 0; i < num_filters; ++i) {
    q.conjuncts.push_back(RandomPredicate(q.relations, rng));
  }
  // Projections: every relation contributes one bare column, plus one
  // computed expression so the projection evaluators are exercised too.
  for (const std::string& rel : q.relations) {
    if (rel == "R") {
      q.projections.push_back(Col("R", "p"));
      q.output_names.push_back("P");
      q.projections.push_back(Col("R", "s"));
      q.output_names.push_back("S");
    } else if (rel == "A") {
      q.projections.push_back(Col("A", "w"));
      q.output_names.push_back("W");
    } else {
      q.projections.push_back(Col("B", "u"));
      q.output_names.push_back("U");
    }
  }
  q.projections.push_back(
      Expr::Binary(BinaryOp::kAdd, Col(q.relations.front(), "k"),
                   Expr::Lit(Value::Int(1))));
  q.output_names.push_back("E");
  q.distinct = true;
  return q;
}

// An ill-typed literal conjunct: fails with a TypeError whenever a row
// reaches it.
ExprPtr IllTypedLiteral() {
  return Expr::Binary(BinaryOp::kEq, Expr::Lit(Value::Int(1)),
                      Expr::Lit(Value::String("a")));
}

// Byte-identity after Deduplicate: same schema, same row count, and
// strictly equal Values cell by cell in dedup-sorted order.
void ExpectTablesIdentical(const Table& got, const Table& want,
                           const std::string& context) {
  ASSERT_EQ(got.schema().ToString(), want.schema().ToString()) << context;
  Table a = got;
  Table b = want;
  a.Deduplicate();
  b.Deduplicate();
  ASSERT_EQ(a.NumRows(), b.NumRows()) << context;
  for (size_t row = 0; row < a.NumRows(); ++row) {
    for (size_t col = 0; col < a.NumColumns(); ++col) {
      const Value va = a.column(col).GetValue(row);
      const Value vb = b.column(col).GetValue(row);
      ASSERT_TRUE(va == vb || (va.is_null() && vb.is_null()))
          << context << ": row " << row << " col " << col << " differ: "
          << va.ToString() << " vs " << vb.ToString();
    }
  }
}

TEST(ExecutorEquivalenceTest, RandomizedDifferentialAgainstOracle) {
  const Catalog catalog = MakeCatalog();
  // Seeds from 40 on empty R, A and B in turn.
  for (uint64_t seed = 0; seed < 64; ++seed) {
    std::mt19937_64 rng(seed * 7919 + 1);
    const int empty = seed < 40 ? -1 : static_cast<int>(seed % 3);
    const Database db =
        MakeDatabase(catalog, &rng,
                     /*r_rows=*/empty == 0 ? 0 : 60 + seed % 64,
                     /*a_rows=*/empty == 1 ? 0 : 20 + seed % 16,
                     /*b_rows=*/empty == 2 ? 0 : 6);
    const ConjunctiveQuery query = RandomQuery(&rng);
    const std::string context = "seed " + std::to_string(seed);
    const Result<Table> want = oracle::ExecuteNestedLoop(query, db, catalog);
    ASSERT_TRUE(want.ok()) << context << ": " << want.status();
    const Result<Table> got = Execute(query, db, catalog);
    ASSERT_TRUE(got.ok()) << context << ": " << got.status();
    ExpectTablesIdentical(got.value(), want.value(), context);

    // Two variants of the query carry an expression that fails whenever a
    // row reaches it. A function call without a registry, projected, is
    // reached iff the query has output rows; the ill-typed literal,
    // scheduled first, iff the first relation has rows. Both executors
    // must fail with its code exactly then, and otherwise return the
    // oracle's empty table.
    ConjunctiveQuery function = query;
    function.projections.push_back(
        Expr::Func("abs", {Col(query.relations.front(), "k")}));
    function.output_names.push_back("F");
    ConjunctiveQuery literal = query;
    literal.conjuncts.insert(literal.conjuncts.begin(), IllTypedLiteral());
    const bool first_has_rows =
        db.GetTable(query.relations.front()).value()->NumRows() > 0;
    const struct {
      const char* name;
      const ConjunctiveQuery& query;
      bool reached;
      StatusCode code;
    } variants[] = {{"function projection", function,
                     want.value().NumRows() > 0,
                     StatusCode::kFailedPrecondition},
                    {"literal conjunct", literal, first_has_rows,
                     StatusCode::kTypeError}};
    for (const auto& v : variants) {
      const std::string where = context + " " + v.name;
      const Result<Table> want_v =
          oracle::ExecuteNestedLoop(v.query, db, catalog);
      const Result<Table> got_v = Execute(v.query, db, catalog);
      if (v.reached) {
        EXPECT_EQ(want_v.status().code(), v.code)
            << where << ": oracle " << want_v.status();
        EXPECT_EQ(got_v.status().code(), v.code)
            << where << ": " << got_v.status();
        continue;
      }
      ASSERT_TRUE(want_v.ok()) << where << ": oracle " << want_v.status();
      ASSERT_TRUE(got_v.ok()) << where << ": " << got_v.status();
      EXPECT_EQ(got_v.value().NumRows(), 0u) << where;
      ExpectTablesIdentical(got_v.value(), want_v.value(), where);
    }
  }
}

// Expressions are evaluated only over rows that exist: an ill-typed
// literal conjunct or a function call without a registry returns the
// oracle's empty table when a scan, a join or a filter leaves no rows.
TEST(ExecutorEquivalenceTest, EmptyBatchReturnsOracleTable) {
  const Catalog catalog = MakeCatalog();
  Database empty_r;
  ASSERT_TRUE(empty_r.CreateAllTables(catalog).ok());
  ASSERT_TRUE(empty_r.Insert("A", {Value::Int(1), Value::Int(2)}).ok());
  // Five R rows and one A row whose key matches none of them.
  Database no_match;
  ASSERT_TRUE(no_match.CreateAllTables(catalog).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(no_match
                    .Insert("R", {Value::Int(i), Value::Int(i), Value::Int(i),
                                  Value::Double(i), Value::String("x")})
                    .ok());
  }
  ASSERT_TRUE(no_match.Insert("A", {Value::Int(100), Value::Int(0)}).ok());

  ConjunctiveQuery literal;
  literal.relations = {"R"};
  literal.conjuncts = {IllTypedLiteral()};
  literal.projections = {Col("R", "p")};
  literal.output_names = {"P"};
  ConjunctiveQuery function;
  function.relations = {"R"};
  function.projections = {Expr::Func("abs", {Col("R", "k")})};
  function.output_names = {"F"};
  ConjunctiveQuery joined = function;
  joined.relations = {"R", "A"};
  joined.conjuncts = {Expr::ColumnsEqual({"R", "k"}, {"A", "k"})};
  ConjunctiveQuery filtered = function;
  filtered.conjuncts = {Expr::Binary(BinaryOp::kGt, Col("R", "k"),
                                     Expr::Lit(Value::Int(100)))};

  const struct {
    const char* name;
    const ConjunctiveQuery& query;
    const Database& db;
  } cases[] = {{"literal conjunct, empty scan", literal, empty_r},
               {"function projection, empty scan", function, empty_r},
               {"function projection, empty join", joined, no_match},
               {"function projection, empty filter", filtered, no_match}};
  for (const auto& c : cases) {
    const Result<Table> want =
        oracle::ExecuteNestedLoop(c.query, c.db, catalog);
    const Result<Table> got = Execute(c.query, c.db, catalog);
    ASSERT_TRUE(want.ok()) << c.name << ": " << want.status();
    ASSERT_TRUE(got.ok()) << c.name << ": " << got.status();
    EXPECT_EQ(got.value().NumRows(), 0u) << c.name;
    ExpectTablesIdentical(got.value(), want.value(), c.name);
  }

  // The up-front check still rejects a conjunct over a relation outside
  // FROM when the scan is empty.
  ConjunctiveQuery foreign = literal;
  foreign.conjuncts = {Expr::ColumnsEqual({"R", "k"}, {"B", "j"})};
  EXPECT_EQ(Execute(foreign, empty_r, catalog).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      oracle::ExecuteNestedLoop(foreign, empty_r, catalog).status().code(),
      StatusCode::kInvalidArgument);
}

// The skewed workload generator is deterministic and honors its knobs.
TEST(SkewedDataTest, DeterministicAndSelective) {
  const Catalog catalog = MakeCatalog();
  SkewedDataSpec spec;
  spec.rows = 2000;
  spec.join_domain = 16;
  spec.join_selectivity = 0.25;
  spec.value_skew = 1.5;
  spec.seed = 9;
  Database db1;
  Database db2;
  ASSERT_TRUE(PopulateRelationSkewed(catalog, "A", spec, &db1).ok());
  ASSERT_TRUE(PopulateRelationSkewed(catalog, "A", spec, &db2).ok());
  const Table* t1 = db1.GetTable("A").value();
  const Table* t2 = db2.GetTable("A").value();
  ASSERT_EQ(t1->NumRows(), spec.rows);
  ExpectTablesIdentical(*t1, *t2, "determinism");
  // 'k' is a join key (name does not start with L here, so check by the
  // generator's contract on a relation whose key is L-prefixed instead).
  size_t hot = 0;
  for (size_t row = 0; row < t1->NumRows(); ++row) {
    const Value v = t1->column(0).GetValue(row);
    if (!v.is_null() && v.int_value() >= 0) ++hot;
  }
  // Non-L columns are plain skewed values, all in [0, domain): sanity.
  EXPECT_EQ(hot, t1->NumRows());
}

TEST(SkewedDataTest, JoinSelectivityControlsMatchRate) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddRelation({"IS0",
                                "S",
                                Schema({{"L0", DataType::kInt},
                                        {"v", DataType::kInt}}),
                                {}})
                  .ok());
  SkewedDataSpec spec;
  spec.rows = 4000;
  spec.join_domain = 8;
  spec.join_selectivity = 0.3;
  spec.seed = 4;
  Database db;
  ASSERT_TRUE(PopulateRelationSkewed(catalog, "S", spec, &db).ok());
  const Table* s = db.GetTable("S").value();
  size_t hot = 0;
  for (size_t row = 0; row < s->NumRows(); ++row) {
    const Value v = s->column(0).GetValue(row);
    ASSERT_FALSE(v.is_null());
    if (v.int_value() >= 0) {
      ASSERT_LT(v.int_value(), spec.join_domain);
      ++hot;
    }
  }
  const double frac = static_cast<double>(hot) / spec.rows;
  EXPECT_NEAR(frac, spec.join_selectivity, 0.05);
}

}  // namespace
}  // namespace eve
