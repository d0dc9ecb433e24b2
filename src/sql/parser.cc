#include "sql/parser.h"

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>

#include "common/str_util.h"
#include "sql/lexer.h"
#include "types/date.h"

namespace eve {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ParsedView> ParseViewStatement();
  Result<ExprPtr> ParseStandaloneExpression();
  Result<std::vector<ExprPtr>> ParseStandaloneConjunction();

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() {
    const Token& t = Peek();
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }
  bool Check(TokenType type) const { return Peek().is(type); }
  bool Accept(TokenType type) {
    if (Check(type)) {
      Advance();
      return true;
    }
    return false;
  }
  // Case-insensitive keyword check/acceptance on identifier tokens.
  bool CheckKeyword(std::string_view kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.is(TokenType::kIdentifier) && EqualsIgnoreCase(t.text, kw);
  }
  bool AcceptKeyword(std::string_view kw) {
    if (CheckKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!AcceptKeyword(kw)) {
      return Error(std::string("expected keyword '") + std::string(kw) + "'");
    }
    return Status::OK();
  }
  Status Expect(TokenType type, std::string_view what) {
    if (!Accept(type)) {
      return Error("expected " + std::string(what));
    }
    return Status::OK();
  }
  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at offset " +
                              std::to_string(Peek().position) + " (near '" +
                              Peek().text + "')");
  }

  // --- Recursion budget ---------------------------------------------------
  // The expression grammar is recursive-descent; without a bound, adversarial
  // input ("((((..." or "NOT NOT NOT ...") overflows the stack. The budget is
  // generous — a parenthesis level costs 3 guarded frames, so legitimate
  // 200-level nesting uses ~600 — while staying far below real stack limits.
  static constexpr int kMaxDepth = 1200;
  struct DepthGuard {
    explicit DepthGuard(int* depth) : depth(depth) { ++*depth; }
    ~DepthGuard() { --*depth; }
    int* depth;
  };
  Status CheckDepth() const {
    if (depth_ >= kMaxDepth) {
      return Error("expression nests too deeply");
    }
    return Status::OK();
  }

  // --- Annotations -------------------------------------------------------
  static bool IsParamKeyword(const std::string& text) {
    static constexpr std::string_view kParams[] = {"AD", "AR", "CD",
                                                   "CR", "RD", "RR"};
    for (std::string_view p : kParams) {
      if (EqualsIgnoreCase(text, p)) return true;
    }
    return false;
  }
  static bool IsBoolKeyword(const std::string& text) {
    return EqualsIgnoreCase(text, "true") || EqualsIgnoreCase(text, "false");
  }

  // True when the upcoming '(' opens an evolution annotation rather than a
  // parenthesized expression.
  bool LooksLikeAnnotation() const {
    if (!Check(TokenType::kLParen)) return false;
    const Token& first = Peek(1);
    if (!first.is(TokenType::kIdentifier)) return false;
    if (IsBoolKeyword(first.text)) {
      // Positional form "(true, false)".
      return Peek(2).is(TokenType::kComma) || Peek(2).is(TokenType::kRParen);
    }
    if (IsParamKeyword(first.text)) {
      return Peek(2).is(TokenType::kEq);
    }
    return false;
  }

  // Parses "(d, r)" or "(XD = b, XR = b)"; assumes LooksLikeAnnotation().
  Result<EvolutionParams> ParseAnnotation() {
    EvolutionParams params;
    EVE_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    if (IsBoolKeyword(Peek().text) && !Peek(1).is(TokenType::kEq)) {
      // Positional: dispensable, replaceable.
      params.dispensable = EqualsIgnoreCase(Advance().text, "true");
      if (Accept(TokenType::kComma)) {
        if (!Check(TokenType::kIdentifier) || !IsBoolKeyword(Peek().text)) {
          return Error("expected true/false");
        }
        params.replaceable = EqualsIgnoreCase(Advance().text, "true");
      }
      EVE_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return params;
    }
    // Named form.
    do {
      if (!Check(TokenType::kIdentifier) || !IsParamKeyword(Peek().text)) {
        return Error("expected evolution parameter name");
      }
      const std::string name = ToLower(Advance().text);
      EVE_RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
      if (!Check(TokenType::kIdentifier) || !IsBoolKeyword(Peek().text)) {
        return Error("expected true/false");
      }
      const bool value = EqualsIgnoreCase(Advance().text, "true");
      if (name == "ad" || name == "cd" || name == "rd") {
        params.dispensable = value;
      } else {
        params.replaceable = value;
      }
    } while (Accept(TokenType::kComma));
    EVE_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return params;
  }

  // --- Expressions -------------------------------------------------------
  // Precedence: OR < AND < NOT < comparison < additive < multiplicative
  // < unary < primary. Parenthesized sub-expressions restart at OR level,
  // so "(C.Name = F.PName)" and "(a + b) * c" both parse.
  Result<ExprPtr> ParseOr() {
    EVE_RETURN_IF_ERROR(CheckDepth());
    const DepthGuard guard(&depth_);
    EVE_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (AcceptKeyword("OR")) {
      EVE_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Expr::Binary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }
  Result<ExprPtr> ParseAnd() {
    EVE_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (AcceptKeyword("AND")) {
      EVE_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = Expr::Binary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }
  Result<ExprPtr> ParseNot() {
    EVE_RETURN_IF_ERROR(CheckDepth());
    const DepthGuard guard(&depth_);
    if (AcceptKeyword("NOT")) {
      EVE_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return Expr::Unary(UnaryOp::kNot, std::move(operand));
    }
    return ParseComparison();
  }
  Result<ExprPtr> ParseComparison() {
    EVE_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    std::optional<BinaryOp> op;
    switch (Peek().type) {
      case TokenType::kEq:
        op = BinaryOp::kEq;
        break;
      case TokenType::kNe:
        op = BinaryOp::kNe;
        break;
      case TokenType::kLt:
        op = BinaryOp::kLt;
        break;
      case TokenType::kLe:
        op = BinaryOp::kLe;
        break;
      case TokenType::kGt:
        op = BinaryOp::kGt;
        break;
      case TokenType::kGe:
        op = BinaryOp::kGe;
        break;
      default:
        break;
    }
    if (!op) return lhs;
    Advance();
    EVE_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    return Expr::Binary(*op, std::move(lhs), std::move(rhs));
  }
  Result<ExprPtr> ParseAdditive() {
    EVE_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (Check(TokenType::kPlus) || Check(TokenType::kMinus)) {
      const BinaryOp op =
          Advance().is(TokenType::kPlus) ? BinaryOp::kAdd : BinaryOp::kSub;
      EVE_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }
  Result<ExprPtr> ParseMultiplicative() {
    EVE_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (Check(TokenType::kStar) || Check(TokenType::kSlash)) {
      const BinaryOp op =
          Advance().is(TokenType::kStar) ? BinaryOp::kMul : BinaryOp::kDiv;
      EVE_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }
  Result<ExprPtr> ParseUnary() {
    EVE_RETURN_IF_ERROR(CheckDepth());
    const DepthGuard guard(&depth_);
    if (Accept(TokenType::kMinus)) {
      EVE_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return Expr::Unary(UnaryOp::kNegate, std::move(operand));
    }
    return ParsePrimary();
  }
  Result<ExprPtr> ParsePrimary() {
    if (Accept(TokenType::kLParen)) {
      EVE_ASSIGN_OR_RETURN(ExprPtr inner, ParseOr());
      EVE_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return inner;
    }
    if (Check(TokenType::kStringLiteral)) {
      return Expr::Lit(Value::String(Advance().text));
    }
    if (Check(TokenType::kIntLiteral)) {
      uint64_t value = 0;
      if (!ParseDecimal(Peek().text, &value) ||
          value > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
        return Error("integer literal out of range");
      }
      Advance();
      return Expr::Lit(Value::Int(static_cast<int64_t>(value)));
    }
    if (Check(TokenType::kDoubleLiteral)) {
      const std::string& text = Peek().text;
      double value = 0.0;
      const auto [stop, error] =
          std::from_chars(text.data(), text.data() + text.size(), value);
      if (error != std::errc() || stop != text.data() + text.size()) {
        return Error("numeric literal out of range");
      }
      Advance();
      return Expr::Lit(Value::Double(value));
    }
    if (Check(TokenType::kIdentifier)) {
      const std::string& text = Peek().text;
      if (EqualsIgnoreCase(text, "true")) {
        Advance();
        return Expr::Lit(Value::Bool(true));
      }
      if (EqualsIgnoreCase(text, "false")) {
        Advance();
        return Expr::Lit(Value::Bool(false));
      }
      if (EqualsIgnoreCase(text, "null")) {
        Advance();
        return Expr::Lit(Value::Null());
      }
      if (EqualsIgnoreCase(text, "date") &&
          Peek(1).is(TokenType::kStringLiteral)) {
        Advance();
        EVE_ASSIGN_OR_RETURN(const Date date, Date::Parse(Advance().text));
        return Expr::Lit(Value::MakeDate(date));
      }
      const std::string first = Advance().text;
      if (Accept(TokenType::kDot)) {
        if (!Check(TokenType::kIdentifier)) {
          return Error("expected attribute name after '.'");
        }
        return Expr::Column(AttributeRef{first, Advance().text});
      }
      if (Check(TokenType::kLParen)) {
        // Function call.
        Advance();
        std::vector<ExprPtr> args;
        if (!Check(TokenType::kRParen)) {
          do {
            EVE_ASSIGN_OR_RETURN(ExprPtr arg, ParseOr());
            args.push_back(std::move(arg));
          } while (Accept(TokenType::kComma));
        }
        EVE_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return Expr::Func(first, std::move(args));
      }
      // Unqualified column; qualifier resolved by the binder.
      return Expr::Column(AttributeRef{"", first});
    }
    return Error("expected expression");
  }

  // --- Clauses -----------------------------------------------------------
  Result<ParsedSelectItem> ParseSelectItem() {
    ParsedSelectItem item;
    EVE_ASSIGN_OR_RETURN(item.expr, ParseComparisonFreeExpr());
    if (AcceptKeyword("AS")) {
      if (!Check(TokenType::kIdentifier)) {
        return Error("expected alias after AS");
      }
      item.alias = Advance().text;
    } else if (Check(TokenType::kIdentifier) && !CheckKeyword("FROM") &&
               !IsBoolKeyword(Peek().text)) {
      item.alias = Advance().text;
    }
    if (LooksLikeAnnotation()) {
      EVE_ASSIGN_OR_RETURN(item.params, ParseAnnotation());
    }
    return item;
  }

  // SELECT-list expressions must not contain comparisons; parse at additive
  // level so a stray '=' is reported clearly.
  Result<ExprPtr> ParseComparisonFreeExpr() { return ParseAdditive(); }

  Result<ParsedFromItem> ParseFromItem() {
    ParsedFromItem item;
    if (!Check(TokenType::kIdentifier)) {
      return Error("expected relation name");
    }
    item.relation = Advance().text;
    // Optional "IS.R" qualified form: keep only the relation name; the IS
    // binding lives in the catalog.
    if (Accept(TokenType::kDot)) {
      if (!Check(TokenType::kIdentifier)) {
        return Error("expected relation name after '.'");
      }
      item.relation = Advance().text;
    }
    if (Check(TokenType::kIdentifier) && !CheckKeyword("WHERE") &&
        !IsBoolKeyword(Peek().text)) {
      item.alias = Advance().text;
    }
    if (LooksLikeAnnotation()) {
      EVE_ASSIGN_OR_RETURN(item.params, ParseAnnotation());
    }
    return item;
  }

  // Parses one annotated conjunct. A parenthesized group annotated as a
  // whole spreads the annotation over each clause inside the group.
  Status ParseWhereConjunct(std::vector<ParsedCondition>* out) {
    EVE_ASSIGN_OR_RETURN(ExprPtr clause, ParseWherePrimary());
    EvolutionParams params;
    if (LooksLikeAnnotation()) {
      EVE_ASSIGN_OR_RETURN(params, ParseAnnotation());
    }
    std::vector<ExprPtr> flattened;
    FlattenConjunction(clause, &flattened);
    for (ExprPtr& part : flattened) {
      out->push_back(ParsedCondition{std::move(part), params});
    }
    return Status::OK();
  }

  // One WHERE-level unit: a comparison, a parenthesized boolean group, or
  // an OR-chain of those. AND between units is handled by the caller so
  // annotations bind to the right clause; as a consequence, in an
  // unparenthesized "a AND b OR c" the OR binds tighter here —
  // parenthesize mixed AND/OR conditions (the CVS fragment is conjunctive
  // anyway).
  Result<ExprPtr> ParseWherePrimary() {
    EVE_ASSIGN_OR_RETURN(ExprPtr lhs, ParseWhereAtom());
    while (AcceptKeyword("OR")) {
      EVE_ASSIGN_OR_RETURN(ExprPtr rhs, ParseWhereAtom());
      lhs = Expr::Binary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseWhereAtom() {
    EVE_RETURN_IF_ERROR(CheckDepth());
    const DepthGuard guard(&depth_);
    if (AcceptKeyword("NOT")) {
      EVE_ASSIGN_OR_RETURN(ExprPtr operand, ParseWhereAtom());
      return Expr::Unary(UnaryOp::kNot, std::move(operand));
    }
    return ParseComparison();
  }

 public:
  Result<std::vector<ParsedCondition>> ParseWhereClause() {
    std::vector<ParsedCondition> out;
    EVE_RETURN_IF_ERROR(ParseWhereConjunct(&out));
    while (AcceptKeyword("AND")) {
      EVE_RETURN_IF_ERROR(ParseWhereConjunct(&out));
    }
    return out;
  }

 private:
  Result<ViewExtent> ParseViewExtentValue() {
    switch (Peek().type) {
      case TokenType::kEq:
        Advance();
        return ViewExtent::kEqual;
      case TokenType::kGe:
        Advance();
        return ViewExtent::kSuperset;
      case TokenType::kLe:
        Advance();
        return ViewExtent::kSubset;
      case TokenType::kTilde:
        Advance();
        return ViewExtent::kAny;
      case TokenType::kIdentifier: {
        const std::string text = ToLower(Peek().text);
        if (text == "equal" || text == "equiv") {
          Advance();
          return ViewExtent::kEqual;
        }
        if (text == "superset") {
          Advance();
          return ViewExtent::kSuperset;
        }
        if (text == "subset") {
          Advance();
          return ViewExtent::kSubset;
        }
        if (text == "any" || text == "approx") {
          Advance();
          return ViewExtent::kAny;
        }
        break;
      }
      default:
        break;
    }
    return Error("expected view-extent value (=, >=, <=, ~)");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;

 public:
  // Parses the head annotations after the view name: a column list, a VE
  // annotation, or both (in either order).
  Status ParseViewHead(ParsedView* view) {
    while (Check(TokenType::kLParen)) {
      if (CheckKeyword("VE", 1)) {
        Advance();  // (
        Advance();  // VE
        EVE_RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
        EVE_ASSIGN_OR_RETURN(view->extent, ParseViewExtentValue());
        EVE_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        continue;
      }
      // Column list.
      if (!Peek(1).is(TokenType::kIdentifier)) break;
      Advance();  // (
      do {
        if (!Check(TokenType::kIdentifier)) {
          return Error("expected column name");
        }
        view->column_names.push_back(Advance().text);
      } while (Accept(TokenType::kComma));
      EVE_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    }
    return Status::OK();
  }

  friend Result<ParsedView> ParseViewImpl(Parser* parser);
};

Result<ParsedView> ParseViewImpl(Parser* p) {
  ParsedView view;
  EVE_RETURN_IF_ERROR(p->ExpectKeyword("CREATE"));
  EVE_RETURN_IF_ERROR(p->ExpectKeyword("VIEW"));
  if (!p->Check(TokenType::kIdentifier)) {
    return p->Error("expected view name");
  }
  view.name = p->Advance().text;
  EVE_RETURN_IF_ERROR(p->ParseViewHead(&view));
  EVE_RETURN_IF_ERROR(p->ExpectKeyword("AS"));
  EVE_RETURN_IF_ERROR(p->ExpectKeyword("SELECT"));
  do {
    EVE_ASSIGN_OR_RETURN(ParsedSelectItem item, p->ParseSelectItem());
    view.select.push_back(std::move(item));
  } while (p->Accept(TokenType::kComma));
  EVE_RETURN_IF_ERROR(p->ExpectKeyword("FROM"));
  do {
    EVE_ASSIGN_OR_RETURN(ParsedFromItem item, p->ParseFromItem());
    view.from.push_back(std::move(item));
  } while (p->Accept(TokenType::kComma));
  if (p->AcceptKeyword("WHERE")) {
    EVE_ASSIGN_OR_RETURN(view.where, p->ParseWhereClause());
  }
  if (!p->Check(TokenType::kEnd)) {
    return p->Error("unexpected trailing input");
  }
  return view;
}

Result<ParsedView> Parser::ParseViewStatement() { return ParseViewImpl(this); }

Result<ExprPtr> Parser::ParseStandaloneExpression() {
  EVE_ASSIGN_OR_RETURN(ExprPtr expr, ParseOr());
  if (!Check(TokenType::kEnd)) {
    return Error("unexpected trailing input");
  }
  return expr;
}

Result<std::vector<ExprPtr>> Parser::ParseStandaloneConjunction() {
  EVE_ASSIGN_OR_RETURN(ExprPtr expr, ParseOr());
  if (!Check(TokenType::kEnd)) {
    return Error("unexpected trailing input");
  }
  std::vector<ExprPtr> conjuncts;
  FlattenConjunction(expr, &conjuncts);
  return conjuncts;
}

}  // namespace

Result<ParsedView> ParseView(std::string_view text) {
  EVE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseViewStatement();
}

Result<ExprPtr> ParseExpression(std::string_view text) {
  EVE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseStandaloneExpression();
}

Result<std::vector<ExprPtr>> ParseConjunction(std::string_view text) {
  EVE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseStandaloneConjunction();
}

}  // namespace eve
