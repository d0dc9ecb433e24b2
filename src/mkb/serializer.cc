#include "mkb/serializer.h"

#include "common/failpoint.h"
#include "common/str_util.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace eve {

namespace {

std::string_view SetRelationKeyword(SetRelation relation) {
  switch (relation) {
    case SetRelation::kProperSubset:
      return "PROPER_SUBSET";
    case SetRelation::kSubset:
      return "SUBSET";
    case SetRelation::kEqual:
      return "EQUAL";
    case SetRelation::kSuperset:
      return "SUPERSET";
    case SetRelation::kProperSuperset:
      return "PROPER_SUPERSET";
  }
  return "?";
}

Result<SetRelation> SetRelationFromKeyword(std::string_view keyword) {
  const std::string lower = ToLower(keyword);
  if (lower == "proper_subset") return SetRelation::kProperSubset;
  if (lower == "subset") return SetRelation::kSubset;
  if (lower == "equal") return SetRelation::kEqual;
  if (lower == "superset") return SetRelation::kSuperset;
  if (lower == "proper_superset") return SetRelation::kProperSuperset;
  return Status::ParseError("unknown PC relation keyword: " +
                            std::string(keyword));
}

void AppendAttrList(std::string* out, const std::vector<AttributeRef>& attrs) {
  *out += "(";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) *out += ", ";
    *out += QuoteIdentifier(attrs[i].attribute);
  }
  *out += ")";
}

// Token-cursor parser over the MISD statement stream. Expression payloads
// (JC conditions, function bodies, PC selections) are parsed by slicing
// the original text between token offsets and delegating to the E-SQL
// expression parser.
class MisdParser {
 public:
  MisdParser(std::string_view text, std::vector<Token> tokens)
      : text_(text), tokens_(std::move(tokens)) {}

  Status ParseInto(Mkb* mkb) {
    while (!Check(TokenType::kEnd)) {
      if (AcceptKeyword("SOURCE")) {
        EVE_RETURN_IF_ERROR(ParseSource(mkb));
      } else if (AcceptKeyword("JOIN")) {
        EVE_RETURN_IF_ERROR(ParseJoinConstraint(mkb));
      } else if (AcceptKeyword("FUNCTION")) {
        EVE_RETURN_IF_ERROR(ParseFunctionOf(mkb));
      } else if (AcceptKeyword("PC")) {
        EVE_RETURN_IF_ERROR(ParsePc(mkb));
      } else {
        return Error("expected SOURCE, JOIN, FUNCTION or PC");
      }
    }
    return Status::OK();
  }

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
      return Error("expected keyword '" + std::string(kw) + "'");
    }
    return Status::OK();
  }
  Status Expect(TokenType type, std::string_view what) {
    if (!Accept(type)) return Error("expected " + std::string(what));
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier(std::string_view what) {
    if (!Check(TokenType::kIdentifier)) {
      return Error("expected " + std::string(what));
    }
    return Advance().text;
  }
  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at offset " +
                              std::to_string(Peek().position) + " (near '" +
                              Peek().text + "')");
  }

  // True when the cursor sits at the start of a new MISD statement.
  bool AtStatementStart() const {
    if (Check(TokenType::kEnd)) return true;
    if (CheckKeyword("SOURCE") && CheckKeyword("RELATION", 2)) return true;
    if (CheckKeyword("JOIN") && CheckKeyword("CONSTRAINT", 1)) return true;
    if (CheckKeyword("FUNCTION") && Peek(1).is(TokenType::kIdentifier)) {
      return true;
    }
    if (CheckKeyword("PC") && Peek(1).is(TokenType::kIdentifier) &&
        Peek(2).is(TokenType::kIdentifier)) {
      return true;
    }
    return false;
  }

  // Consumes tokens until the next statement start and returns the raw
  // text slice they cover (for re-parsing as an expression).
  std::string_view SliceUntilNextStatement() {
    const size_t begin = Peek().position;
    size_t end = begin;
    while (!Check(TokenType::kEnd) && !AtStatementStart()) {
      const Token& t = Advance();
      end = t.position + t.text.size();
      // Account for quoting/literal syntax not included in Token::text.
      if (text_[t.position] == '"' || text_[t.position] == '\'') {
        end = t.position;
        // Scan forward to the closing quote in the raw text.
        const char quote = text_[t.position];
        size_t i = t.position + 1;
        while (i < text_.size()) {
          if (text_[i] == quote) {
            if (quote == '\'' && i + 1 < text_.size() &&
                text_[i + 1] == '\'') {
              i += 2;
              continue;
            }
            break;
          }
          ++i;
        }
        end = i + 1;
      }
    }
    return text_.substr(begin, end - begin);
  }

  Status ParseSource(Mkb* mkb) {
    RelationDef def;
    EVE_ASSIGN_OR_RETURN(def.source, ExpectIdentifier("source name"));
    EVE_RETURN_IF_ERROR(ExpectKeyword("RELATION"));
    EVE_ASSIGN_OR_RETURN(def.name, ExpectIdentifier("relation name"));
    EVE_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    std::vector<AttributeDef> attrs;
    do {
      AttributeDef attr;
      EVE_ASSIGN_OR_RETURN(attr.name, ExpectIdentifier("attribute name"));
      EVE_ASSIGN_OR_RETURN(const std::string type_name,
                           ExpectIdentifier("attribute type"));
      EVE_ASSIGN_OR_RETURN(attr.type, DataTypeFromString(type_name));
      attrs.push_back(std::move(attr));
    } while (Accept(TokenType::kComma));
    EVE_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    EVE_ASSIGN_OR_RETURN(def.schema, Schema::Create(std::move(attrs)));
    if (AcceptKeyword("ORDER")) {
      EVE_RETURN_IF_ERROR(ExpectKeyword("BY"));
      EVE_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      do {
        EVE_ASSIGN_OR_RETURN(std::string name,
                             ExpectIdentifier("ordered attribute"));
        def.ordered_by.push_back(std::move(name));
      } while (Accept(TokenType::kComma));
      EVE_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    }
    return mkb->AddRelation(std::move(def));
  }

  Status ParseJoinConstraint(Mkb* mkb) {
    EVE_RETURN_IF_ERROR(ExpectKeyword("CONSTRAINT"));
    JoinConstraint jc;
    EVE_ASSIGN_OR_RETURN(jc.id, ExpectIdentifier("constraint id"));
    EVE_RETURN_IF_ERROR(ExpectKeyword("BETWEEN"));
    EVE_ASSIGN_OR_RETURN(jc.lhs, ExpectIdentifier("relation name"));
    EVE_RETURN_IF_ERROR(ExpectKeyword("AND"));
    EVE_ASSIGN_OR_RETURN(jc.rhs, ExpectIdentifier("relation name"));
    EVE_RETURN_IF_ERROR(ExpectKeyword("WHERE"));
    const std::string_view slice = SliceUntilNextStatement();
    EVE_ASSIGN_OR_RETURN(jc.clauses, ParseConjunction(slice));
    return mkb->AddJoinConstraint(std::move(jc));
  }

  Status ParseFunctionOf(Mkb* mkb) {
    FunctionOfConstraint fc;
    EVE_ASSIGN_OR_RETURN(fc.id, ExpectIdentifier("constraint id"));
    // target: Rel.Attr
    EVE_ASSIGN_OR_RETURN(const std::string rel,
                         ExpectIdentifier("target relation"));
    EVE_RETURN_IF_ERROR(Expect(TokenType::kDot, "'.'"));
    EVE_ASSIGN_OR_RETURN(const std::string attr,
                         ExpectIdentifier("target attribute"));
    fc.target = AttributeRef{rel, attr};
    EVE_RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
    const std::string_view slice = SliceUntilNextStatement();
    EVE_ASSIGN_OR_RETURN(fc.fn, ParseExpression(slice));
    std::vector<AttributeRef> sources;
    fc.fn->CollectColumns(&sources);
    if (sources.empty()) {
      return Error("function body references no source attribute");
    }
    fc.source = sources[0];
    return mkb->AddFunctionOf(std::move(fc));
  }

  Status ParsePcSide(std::string* relation, std::vector<AttributeRef>* attrs,
                     ExprPtr* condition) {
    EVE_ASSIGN_OR_RETURN(*relation, ExpectIdentifier("relation name"));
    EVE_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    do {
      EVE_ASSIGN_OR_RETURN(std::string name,
                           ExpectIdentifier("attribute name"));
      attrs->push_back(AttributeRef{*relation, std::move(name)});
    } while (Accept(TokenType::kComma));
    EVE_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    if (AcceptKeyword("WHERE")) {
      // Parenthesized so the selection is self-delimiting.
      if (!Check(TokenType::kLParen)) {
        return Error("PC WHERE selection must be parenthesized");
      }
      const size_t begin = Peek().position;
      int depth = 0;
      size_t end = begin;
      do {
        const Token& t = Advance();
        if (t.is(TokenType::kLParen)) ++depth;
        if (t.is(TokenType::kRParen)) --depth;
        end = t.position + 1;
      } while (depth > 0 && !Check(TokenType::kEnd));
      if (depth != 0) return Error("unbalanced parentheses in PC WHERE");
      EVE_ASSIGN_OR_RETURN(*condition,
                           ParseExpression(text_.substr(begin, end - begin)));
    }
    return Status::OK();
  }

  Status ParsePc(Mkb* mkb) {
    PCConstraint pc;
    EVE_ASSIGN_OR_RETURN(pc.id, ExpectIdentifier("constraint id"));
    EVE_RETURN_IF_ERROR(
        ParsePcSide(&pc.lhs_relation, &pc.lhs_attrs, &pc.lhs_condition));
    EVE_ASSIGN_OR_RETURN(const std::string keyword,
                         ExpectIdentifier("PC relation keyword"));
    EVE_ASSIGN_OR_RETURN(pc.relation, SetRelationFromKeyword(keyword));
    EVE_RETURN_IF_ERROR(
        ParsePcSide(&pc.rhs_relation, &pc.rhs_attrs, &pc.rhs_condition));
    return mkb->AddPCConstraint(std::move(pc));
  }

  std::string_view text_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

std::string RenderRelationMisd(const RelationDef& def) {
  std::string out = "SOURCE " + QuoteIdentifier(def.source) + " RELATION " +
                    QuoteIdentifier(def.name) + " (";
  for (size_t i = 0; i < def.schema.size(); ++i) {
    if (i > 0) out += ", ";
    out += QuoteIdentifier(def.schema.attribute(i).name);
    out += " ";
    out += DataTypeToString(def.schema.attribute(i).type);
  }
  out += ")";
  if (!def.ordered_by.empty()) {
    out += " ORDER BY (";
    for (size_t i = 0; i < def.ordered_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += QuoteIdentifier(def.ordered_by[i]);
    }
    out += ")";
  }
  return out;
}

std::string RenderJoinMisd(const JoinConstraint& jc) {
  std::string out = "JOIN CONSTRAINT " + QuoteIdentifier(jc.id) + " BETWEEN " +
                    QuoteIdentifier(jc.lhs) + " AND " +
                    QuoteIdentifier(jc.rhs) + " WHERE ";
  for (size_t i = 0; i < jc.clauses.size(); ++i) {
    if (i > 0) out += " AND ";
    out += PrintExpression(*jc.clauses[i]);
  }
  return out;
}

std::string RenderFunctionMisd(const FunctionOfConstraint& fc) {
  return "FUNCTION " + QuoteIdentifier(fc.id) + " " +
         QuoteIdentifier(fc.target.relation) + "." +
         QuoteIdentifier(fc.target.attribute) + " = " +
         PrintExpression(*fc.fn);
}

std::string RenderPcMisd(const PCConstraint& pc) {
  std::string out = "PC " + QuoteIdentifier(pc.id) + " " +
                    QuoteIdentifier(pc.lhs_relation) + " ";
  AppendAttrList(&out, pc.lhs_attrs);
  if (pc.lhs_condition != nullptr) {
    out += " WHERE (" + PrintExpression(*pc.lhs_condition) + ")";
  }
  out += " ";
  out += SetRelationKeyword(pc.relation);
  out += " " + QuoteIdentifier(pc.rhs_relation) + " ";
  AppendAttrList(&out, pc.rhs_attrs);
  if (pc.rhs_condition != nullptr) {
    out += " WHERE (" + PrintExpression(*pc.rhs_condition) + ")";
  }
  return out;
}

std::string RenderMkbSegment(const Mkb& mkb, size_t segment) {
  std::string out;
  const auto lines = [&out](const auto& items, const auto& render) {
    for (const auto& item : items) {
      out += render(item);
      out += "\n";
    }
  };
  switch (segment) {
    case kRelationsSegment:
      for (const auto& leaf : mkb.catalog().relation_table().leaves()) {
        for (const auto& [name, def] : leaf->entries) {
          out += RenderRelationMisd(*def);
          out += "\n";
        }
      }
      break;
    case kJoinsSegment:
      lines(mkb.join_constraints(), RenderJoinMisd);
      break;
    case kFunctionsSegment:
      lines(mkb.function_of_constraints(), RenderFunctionMisd);
      break;
    case kPcsSegment:
      lines(mkb.pc_constraints(), RenderPcMisd);
      break;
  }
  return out;
}

std::array<std::string, kNumMkbSegments> RenderMkbSegments(const Mkb& mkb) {
  std::array<std::string, kNumMkbSegments> segments;
  for (size_t i = 0; i < kNumMkbSegments; ++i) {
    segments[i] = RenderMkbSegment(mkb, i);
  }
  return segments;
}

std::string SaveMkb(const Mkb& mkb) {
  const std::array<std::string, kNumMkbSegments> segments =
      RenderMkbSegments(mkb);
  std::string out = "-- MISD description (generated)\n";
  for (const std::string& segment : segments) out += segment;
  return out;
}

Result<Mkb> LoadMkb(std::string_view text) {
  Mkb mkb;
  EVE_RETURN_IF_ERROR(AppendMisd(&mkb, text));
  return mkb;
}

Status AppendMisd(Mkb* mkb, std::string_view text) {
  EVE_FAILPOINT(fp::kMisdAppendParse);
  EVE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  MisdParser parser(text, std::move(tokens));
  return parser.ParseInto(mkb);
}

}  // namespace eve
