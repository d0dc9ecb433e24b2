#include <gtest/gtest.h>

#include "sql/parser.h"

namespace eve {
namespace {

ParsedView Parse(std::string_view text) {
  const Result<ParsedView> result = ParseView(text);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? result.value() : ParsedView{};
}

// --- Basic structure ----------------------------------------------------------

TEST(ParserTest, MinimalView) {
  const ParsedView view = Parse("CREATE VIEW V AS SELECT R.a FROM R");
  EXPECT_EQ(view.name, "V");
  EXPECT_EQ(view.extent, ViewExtent::kAny);  // default
  ASSERT_EQ(view.select.size(), 1u);
  EXPECT_EQ(view.select[0].expr->column(), (AttributeRef{"R", "a"}));
  ASSERT_EQ(view.from.size(), 1u);
  EXPECT_EQ(view.from[0].relation, "R");
  EXPECT_TRUE(view.where.empty());
}

TEST(ParserTest, ColumnListAndExtent) {
  const ParsedView view =
      Parse("CREATE VIEW V (C1, C2) (VE = >=) AS SELECT R.a, R.b FROM R");
  EXPECT_EQ(view.column_names, (std::vector<std::string>{"C1", "C2"}));
  EXPECT_EQ(view.extent, ViewExtent::kSuperset);
}

TEST(ParserTest, ExtentBeforeColumnList) {
  const ParsedView view =
      Parse("CREATE VIEW V (VE = <=) (C1) AS SELECT R.a FROM R");
  EXPECT_EQ(view.extent, ViewExtent::kSubset);
  EXPECT_EQ(view.column_names, (std::vector<std::string>{"C1"}));
}

TEST(ParserTest, ExtentKeywordForms) {
  EXPECT_EQ(Parse("CREATE VIEW V (VE = EQUAL) AS SELECT R.a FROM R").extent,
            ViewExtent::kEqual);
  EXPECT_EQ(
      Parse("CREATE VIEW V (VE = superset) AS SELECT R.a FROM R").extent,
      ViewExtent::kSuperset);
  EXPECT_EQ(Parse("CREATE VIEW V (VE = subset) AS SELECT R.a FROM R").extent,
            ViewExtent::kSubset);
  EXPECT_EQ(Parse("CREATE VIEW V (VE = any) AS SELECT R.a FROM R").extent,
            ViewExtent::kAny);
  EXPECT_EQ(Parse("CREATE VIEW V (VE = =) AS SELECT R.a FROM R").extent,
            ViewExtent::kEqual);
  EXPECT_EQ(Parse("CREATE VIEW V (VE = ~) AS SELECT R.a FROM R").extent,
            ViewExtent::kAny);
}

// --- Annotations ----------------------------------------------------------------

TEST(ParserTest, NamedAttributeAnnotations) {
  const ParsedView view = Parse(
      "CREATE VIEW V AS SELECT C.Phone (AD = true, AR = false) FROM C");
  EXPECT_TRUE(view.select[0].params.dispensable);
  EXPECT_FALSE(view.select[0].params.replaceable);
}

TEST(ParserTest, PositionalAnnotations) {
  const ParsedView view =
      Parse("CREATE VIEW V AS SELECT C.Name (false, true) FROM C");
  EXPECT_FALSE(view.select[0].params.dispensable);
  EXPECT_TRUE(view.select[0].params.replaceable);
}

TEST(ParserTest, DefaultsWhenNoAnnotation) {
  const ParsedView view = Parse("CREATE VIEW V AS SELECT C.Name FROM C");
  EXPECT_FALSE(view.select[0].params.dispensable);
  EXPECT_TRUE(view.select[0].params.replaceable);
}

TEST(ParserTest, RelationAnnotations) {
  const ParsedView view = Parse(
      "CREATE VIEW V AS SELECT C.Name FROM Customer C (RD = true, "
      "RR = true), FlightRes F");
  EXPECT_TRUE(view.from[0].params.dispensable);
  EXPECT_TRUE(view.from[0].params.replaceable);
  EXPECT_EQ(view.from[0].alias, "C");
  EXPECT_EQ(view.from[1].relation, "FlightRes");
}

TEST(ParserTest, ConditionAnnotations) {
  const ParsedView view = Parse(
      "CREATE VIEW V AS SELECT C.Name FROM C, F "
      "WHERE (C.Name = F.PName) (CD = false, CR = true) "
      "AND (F.Dest = 'Asia') (CD = true)");
  ASSERT_EQ(view.where.size(), 2u);
  EXPECT_FALSE(view.where[0].params.dispensable);
  EXPECT_TRUE(view.where[1].params.dispensable);
}

TEST(ParserTest, AnnotatedGroupSpreadsOverConjuncts) {
  const ParsedView view = Parse(
      "CREATE VIEW V AS SELECT C.a FROM C "
      "WHERE (C.a = 1 AND C.b = 2) (true, true)");
  ASSERT_EQ(view.where.size(), 2u);
  EXPECT_TRUE(view.where[0].params.dispensable);
  EXPECT_TRUE(view.where[1].params.dispensable);
}

TEST(ParserTest, PartialPositionalAnnotation) {
  const ParsedView view =
      Parse("CREATE VIEW V AS SELECT C.a (true) FROM C");
  EXPECT_TRUE(view.select[0].params.dispensable);
  EXPECT_TRUE(view.select[0].params.replaceable);  // default kept
}

// --- Aliases ------------------------------------------------------------------

TEST(ParserTest, SelectAliasExplicitAndImplicit) {
  const ParsedView view = Parse(
      "CREATE VIEW V AS SELECT R.a AS x, R.b y, R.c FROM R");
  EXPECT_EQ(view.select[0].alias, "x");
  EXPECT_EQ(view.select[1].alias, "y");
  EXPECT_EQ(view.select[2].alias, "");
}

TEST(ParserTest, QualifiedRelationNameKeepsRelationPart) {
  const ParsedView view =
      Parse("CREATE VIEW V AS SELECT R.a FROM IS1.R");
  EXPECT_EQ(view.from[0].relation, "R");
}

// --- WHERE clause shapes --------------------------------------------------------

TEST(ParserTest, MultipleConjuncts) {
  const ParsedView view = Parse(
      "CREATE VIEW V AS SELECT C.Name FROM C, F, P "
      "WHERE (C.Name = F.PName) AND (F.Dest = 'Asia') "
      "AND (P.StartDate = F.Date) AND (P.Loc = 'Asia')");
  EXPECT_EQ(view.where.size(), 4u);
}

TEST(ParserTest, ComparisonOperatorsInWhere) {
  const ParsedView view = Parse(
      "CREATE VIEW V AS SELECT C.a FROM C "
      "WHERE C.a <> 1 AND C.b <= 2 AND C.c >= 3 AND C.d < 4 AND C.e > 5");
  ASSERT_EQ(view.where.size(), 5u);
  EXPECT_EQ(view.where[0].clause->binary_op(), BinaryOp::kNe);
  EXPECT_EQ(view.where[1].clause->binary_op(), BinaryOp::kLe);
  EXPECT_EQ(view.where[2].clause->binary_op(), BinaryOp::kGe);
  EXPECT_EQ(view.where[3].clause->binary_op(), BinaryOp::kLt);
  EXPECT_EQ(view.where[4].clause->binary_op(), BinaryOp::kGt);
}

TEST(ParserTest, OrStaysAsSingleClause) {
  const ParsedView view = Parse(
      "CREATE VIEW V AS SELECT C.a FROM C "
      "WHERE (C.a = 1 OR C.b = 2) AND C.c = 3");
  ASSERT_EQ(view.where.size(), 2u);
  EXPECT_EQ(view.where[0].clause->binary_op(), BinaryOp::kOr);
}

TEST(ParserTest, NotCondition) {
  const ParsedView view =
      Parse("CREATE VIEW V AS SELECT C.a FROM C WHERE NOT (C.a = 1)");
  ASSERT_EQ(view.where.size(), 1u);
  EXPECT_EQ(view.where[0].clause->kind(), ExprKind::kUnary);
}

TEST(ParserTest, ArithmeticInConditions) {
  const ParsedView view = Parse(
      "CREATE VIEW V AS SELECT C.a FROM C WHERE (C.a + 1) * 2 > C.b / 3");
  ASSERT_EQ(view.where.size(), 1u);
  EXPECT_EQ(view.where[0].clause->binary_op(), BinaryOp::kGt);
}

// --- Expressions ----------------------------------------------------------------

TEST(ParserTest, FunctionCallInSelect) {
  const ParsedView view =
      Parse("CREATE VIEW V AS SELECT f(A.Birthday) (true, true) FROM A");
  EXPECT_EQ(view.select[0].expr->kind(), ExprKind::kFunctionCall);
  EXPECT_EQ(view.select[0].expr->function_name(), "f");
  EXPECT_TRUE(view.select[0].params.dispensable);
}

TEST(ParserTest, DateLiteral) {
  const ExprPtr expr = ParseExpression("DATE '1998-03-27'").value();
  EXPECT_EQ(expr->kind(), ExprKind::kLiteral);
  EXPECT_EQ(expr->literal().type(), DataType::kDate);
  EXPECT_EQ(expr->literal().date_value().ToString(), "1998-03-27");
}

TEST(ParserTest, BooleanAndNullLiterals) {
  EXPECT_EQ(ParseExpression("TRUE").value()->literal(), Value::Bool(true));
  EXPECT_EQ(ParseExpression("false").value()->literal(), Value::Bool(false));
  EXPECT_TRUE(ParseExpression("NULL").value()->literal().is_null());
}

TEST(ParserTest, NumericLiterals) {
  EXPECT_EQ(ParseExpression("42").value()->literal(), Value::Int(42));
  EXPECT_EQ(ParseExpression("2.5").value()->literal(), Value::Double(2.5));
  EXPECT_EQ(ParseExpression("-3").value()->kind(), ExprKind::kUnary);
}

TEST(ParserTest, PrecedenceMulOverAdd) {
  const ExprPtr expr = ParseExpression("1 + 2 * 3").value();
  EXPECT_EQ(expr->binary_op(), BinaryOp::kAdd);
  EXPECT_EQ(expr->child(1)->binary_op(), BinaryOp::kMul);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  const ExprPtr expr = ParseExpression("(1 + 2) * 3").value();
  EXPECT_EQ(expr->binary_op(), BinaryOp::kMul);
}

TEST(ParserTest, UnqualifiedColumn) {
  const ExprPtr expr = ParseExpression("Name").value();
  EXPECT_EQ(expr->column(), (AttributeRef{"", "Name"}));
}

TEST(ParserTest, ParseConjunctionFlattens) {
  const auto conjuncts =
      ParseConjunction("R.a = S.b AND R.c > 1 AND S.d = 'x'").value();
  EXPECT_EQ(conjuncts.size(), 3u);
}

TEST(ParserTest, PaperEq5ParsesCompletely) {
  const ParsedView view = Parse(R"sql(
    CREATE VIEW CustomerPassengersAsia (VE = ~) AS
    SELECT C.Name (false, true), C.Age (true, true),
           P.Participant (true, true), P.TourID (true, true)
    FROM Customer C (true, true), FlightRes F (true, true),
         Participant P (true, true)
    WHERE (C.Name = F.PName) (false, true)
      AND (F.Dest = 'Asia')
      AND (P.StartDate = F.Date)
      AND (P.Loc = 'Asia')
  )sql");
  EXPECT_EQ(view.select.size(), 4u);
  EXPECT_EQ(view.from.size(), 3u);
  EXPECT_EQ(view.where.size(), 4u);
  EXPECT_FALSE(view.select[0].params.dispensable);
  EXPECT_TRUE(view.select[1].params.dispensable);
  EXPECT_TRUE(view.from[0].params.dispensable);
}

// --- Errors -------------------------------------------------------------------

TEST(ParserTest, MissingKeywordsFail) {
  EXPECT_FALSE(ParseView("SELECT R.a FROM R").ok());
  EXPECT_FALSE(ParseView("CREATE VIEW V SELECT R.a FROM R").ok());
  EXPECT_FALSE(ParseView("CREATE VIEW V AS SELECT R.a").ok());
}

TEST(ParserTest, TrailingGarbageFails) {
  EXPECT_FALSE(ParseView("CREATE VIEW V AS SELECT R.a FROM R garbage +").ok());
  EXPECT_FALSE(ParseExpression("1 + 2 extra +").ok());
}

TEST(ParserTest, OutOfRangeLiteralsAreParseErrors) {
  // INT64_MAX still parses; one more, or a double past DBL_MAX, fails
  // with a parse error instead of throwing.
  EXPECT_TRUE(ParseExpression("9223372036854775807").ok());
  for (const std::string& literal :
       {std::string("9223372036854775808"),
        std::string("99999999999999999999"),
        std::string(400, '9') + ".5"}) {
    const Result<ParsedView> view = ParseView(
        "CREATE VIEW Big AS SELECT C.Name FROM Customer C WHERE C.Age = " +
        literal);
    ASSERT_FALSE(view.ok()) << literal;
    EXPECT_EQ(view.status().code(), StatusCode::kParseError) << literal;
    EXPECT_FALSE(ParseExpression(literal + " + 1").ok()) << literal;
  }
}

TEST(ParserTest, MalformedAnnotationFails) {
  EXPECT_FALSE(
      ParseView("CREATE VIEW V AS SELECT R.a (AD = maybe) FROM R").ok());
}

TEST(ParserTest, EmptySelectListFails) {
  EXPECT_FALSE(ParseView("CREATE VIEW V AS SELECT FROM R").ok());
}

TEST(ParserTest, BadExtentFails) {
  EXPECT_FALSE(ParseView("CREATE VIEW V (VE = sideways) AS SELECT R.a FROM R")
                   .ok());
}

TEST(ParserTest, KeywordsAreCaseInsensitive) {
  const ParsedView view =
      Parse("create view V as select R.a from R where R.a = 1");
  EXPECT_EQ(view.name, "V");
  EXPECT_EQ(view.where.size(), 1u);
}

}  // namespace
}  // namespace eve
