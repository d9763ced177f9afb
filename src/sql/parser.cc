#include "sql/parser.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "sql/lexer.h"

namespace vecdb::sql {

namespace {

/// Token stream with single-token lookahead and typed expect helpers.
class Cursor {
 public:
  explicit Cursor(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_ == tokens_.size() - 1 ? pos_ : pos_++]; }

  bool MatchKeyword(const std::string& kw) {
    if (Peek().type == TokenType::kKeyword && Peek().text == kw) {
      Advance();
      return true;
    }
    return false;
  }

  bool Match(TokenType type) {
    if (Peek().type == type) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!MatchKeyword(kw)) {
      return Status::InvalidArgument("expected " + kw + " near '" +
                                     Peek().text + "' (byte " +
                                     std::to_string(Peek().pos) + ")");
    }
    return Status::OK();
  }

  Status Expect(TokenType type, const char* what) {
    if (!Match(type)) {
      return Status::InvalidArgument(std::string("expected ") + what +
                                     " near '" + Peek().text + "' (byte " +
                                     std::to_string(Peek().pos) + ")");
    }
    return Status::OK();
  }

  Result<std::string> ExpectIdentifier(const char* what) {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::InvalidArgument(std::string("expected ") + what +
                                     " near '" + Peek().text + "'");
    }
    return Advance().text;
  }

  Result<double> ExpectNumber(const char* what) {
    if (Peek().type != TokenType::kNumber) {
      return Status::InvalidArgument(std::string("expected ") + what +
                                     " near '" + Peek().text + "'");
    }
    return Advance().number;
  }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

/// WITH/OPTIONS (key = value [, ...]) — numeric values go to `numeric`,
/// identifier/string values to `strings` (null: string values rejected).
/// Which string keys are legal is the caller's business.
Status ParseOptionList(Cursor& cur, std::map<std::string, double>* numeric,
                       std::map<std::string, std::string>* strings) {
  VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kLParen, "'('"));
  for (;;) {
    VECDB_ASSIGN_OR_RETURN(std::string key, cur.ExpectIdentifier("option"));
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kEquals, "'='"));
    if (cur.Peek().type == TokenType::kNumber) {
      (*numeric)[key] = cur.Advance().number;
    } else if (cur.Peek().type == TokenType::kString ||
               cur.Peek().type == TokenType::kIdentifier) {
      if (strings == nullptr) {
        return Status::InvalidArgument("option " + key +
                                       " requires a numeric value");
      }
      (*strings)[key] = cur.Advance().text;
    } else {
      return Status::InvalidArgument("bad value for option " + key);
    }
    if (cur.Match(TokenType::kComma)) continue;
    break;
  }
  return cur.Expect(TokenType::kRParen, "')'");
}

/// WHERE grammar (precedence: OR < AND < atom):
///   pred    := andExpr (OR andExpr)*
///   andExpr := atom (AND atom)*
///   atom    := '(' pred ')'
///            | column (= | != | <> | < | <= | > | >=) integer
///            | column IN '(' integer (',' integer)* ')'
Result<std::unique_ptr<filter::Predicate>> ParsePredicate(Cursor& cur);

Result<int64_t> ExpectIntValue(Cursor& cur) {
  VECDB_ASSIGN_OR_RETURN(double value, cur.ExpectNumber("integer value"));
  return static_cast<int64_t>(value);
}

Result<std::unique_ptr<filter::Predicate>> ParsePredicateAtom(Cursor& cur) {
  if (cur.Match(TokenType::kLParen)) {
    VECDB_ASSIGN_OR_RETURN(std::unique_ptr<filter::Predicate> inner,
                           ParsePredicate(cur));
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kRParen, "')'"));
    return inner;
  }
  VECDB_ASSIGN_OR_RETURN(std::string column,
                         cur.ExpectIdentifier("filter column"));
  if (cur.MatchKeyword("IN")) {
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kLParen, "'('"));
    std::vector<int64_t> values;
    for (;;) {
      VECDB_ASSIGN_OR_RETURN(int64_t v, ExpectIntValue(cur));
      values.push_back(v);
      if (cur.Match(TokenType::kComma)) continue;
      break;
    }
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kRParen, "')'"));
    return filter::Predicate::In(std::move(column), std::move(values));
  }
  filter::CmpOp op;
  switch (cur.Peek().type) {
    case TokenType::kEquals:
      op = filter::CmpOp::kEq;
      break;
    case TokenType::kNe:
      op = filter::CmpOp::kNe;
      break;
    case TokenType::kLt:
      op = filter::CmpOp::kLt;
      break;
    case TokenType::kLe:
      op = filter::CmpOp::kLe;
      break;
    case TokenType::kGt:
      op = filter::CmpOp::kGt;
      break;
    case TokenType::kGe:
      op = filter::CmpOp::kGe;
      break;
    default:
      return Status::InvalidArgument(
          "expected a comparison operator or IN after column '" + column +
          "' near '" + cur.Peek().text + "'");
  }
  cur.Advance();
  VECDB_ASSIGN_OR_RETURN(int64_t value, ExpectIntValue(cur));
  return filter::Predicate::Compare(std::move(column), op, value);
}

Result<std::unique_ptr<filter::Predicate>> ParsePredicateAnd(Cursor& cur) {
  VECDB_ASSIGN_OR_RETURN(std::unique_ptr<filter::Predicate> lhs,
                         ParsePredicateAtom(cur));
  while (cur.MatchKeyword("AND")) {
    VECDB_ASSIGN_OR_RETURN(std::unique_ptr<filter::Predicate> rhs,
                           ParsePredicateAtom(cur));
    lhs = filter::Predicate::And(std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<std::unique_ptr<filter::Predicate>> ParsePredicate(Cursor& cur) {
  VECDB_ASSIGN_OR_RETURN(std::unique_ptr<filter::Predicate> lhs,
                         ParsePredicateAnd(cur));
  while (cur.MatchKeyword("OR")) {
    VECDB_ASSIGN_OR_RETURN(std::unique_ptr<filter::Predicate> rhs,
                           ParsePredicateAnd(cur));
    lhs = filter::Predicate::Or(std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<Statement> ParseCreate(Cursor& cur) {
  if (cur.MatchKeyword("TABLE")) {
    auto stmt = std::make_unique<CreateTableStmt>();
    VECDB_ASSIGN_OR_RETURN(stmt->table, cur.ExpectIdentifier("table name"));
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kLParen, "'('"));
    // id column
    VECDB_ASSIGN_OR_RETURN(stmt->id_column, cur.ExpectIdentifier("column"));
    if (!cur.MatchKeyword("INT") && !cur.MatchKeyword("BIGINT")) {
      return Status::InvalidArgument("first column must be INT or BIGINT");
    }
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kComma, "','"));
    // vec column
    VECDB_ASSIGN_OR_RETURN(stmt->vec_column, cur.ExpectIdentifier("column"));
    VECDB_RETURN_NOT_OK(cur.ExpectKeyword("FLOAT"));
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kLBracket, "'['"));
    if (cur.Peek().type == TokenType::kNumber) {
      stmt->dim = static_cast<uint32_t>(cur.Advance().number);
    }
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kRBracket, "']'"));
    // Optional scalar attribute columns: `, name INT|BIGINT` ...
    while (cur.Match(TokenType::kComma)) {
      VECDB_ASSIGN_OR_RETURN(std::string attr,
                             cur.ExpectIdentifier("attribute column"));
      if (!cur.MatchKeyword("INT") && !cur.MatchKeyword("BIGINT")) {
        return Status::InvalidArgument("attribute column " + attr +
                                       " must be INT or BIGINT");
      }
      if (attr == stmt->id_column || attr == stmt->vec_column ||
          std::find(stmt->attr_columns.begin(), stmt->attr_columns.end(),
                    attr) != stmt->attr_columns.end()) {
        return Status::InvalidArgument("duplicate column name: " + attr);
      }
      stmt->attr_columns.push_back(std::move(attr));
    }
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kRParen, "')'"));
    if (stmt->dim == 0) {
      return Status::InvalidArgument(
          "vector column needs an explicit dimension, e.g. vec float[128]");
    }
    Statement out;
    out.kind = Statement::Kind::kCreateTable;
    out.create_table = std::move(stmt);
    return out;
  }
  if (cur.MatchKeyword("INDEX")) {
    auto stmt = std::make_unique<CreateIndexStmt>();
    VECDB_ASSIGN_OR_RETURN(stmt->index, cur.ExpectIdentifier("index name"));
    VECDB_RETURN_NOT_OK(cur.ExpectKeyword("ON"));
    VECDB_ASSIGN_OR_RETURN(stmt->table, cur.ExpectIdentifier("table name"));
    VECDB_RETURN_NOT_OK(cur.ExpectKeyword("USING"));
    VECDB_ASSIGN_OR_RETURN(stmt->method, cur.ExpectIdentifier("method"));
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kLParen, "'('"));
    VECDB_ASSIGN_OR_RETURN(stmt->column, cur.ExpectIdentifier("column"));
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kRParen, "')'"));
    if (cur.MatchKeyword("WITH")) {
      std::map<std::string, std::string> strings;
      VECDB_RETURN_NOT_OK(ParseOptionList(cur, &stmt->options, &strings));
      for (auto& [key, value] : strings) {
        if (key != "engine") {
          return Status::InvalidArgument("option " + key +
                                         " requires a numeric value");
        }
        stmt->engine = value;
      }
    }
    Statement out;
    out.kind = Statement::Kind::kCreateIndex;
    out.create_index = std::move(stmt);
    return out;
  }
  return Status::InvalidArgument("expected TABLE or INDEX after CREATE");
}

Result<Statement> ParseInsert(Cursor& cur) {
  auto stmt = std::make_unique<InsertStmt>();
  VECDB_RETURN_NOT_OK(cur.ExpectKeyword("INTO"));
  VECDB_ASSIGN_OR_RETURN(stmt->table, cur.ExpectIdentifier("table name"));
  VECDB_RETURN_NOT_OK(cur.ExpectKeyword("VALUES"));
  for (;;) {
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kLParen, "'('"));
    InsertStmt::Row row;
    VECDB_ASSIGN_OR_RETURN(double id, cur.ExpectNumber("row id"));
    row.id = static_cast<int64_t>(id);
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kComma, "','"));
    if (cur.Peek().type != TokenType::kString) {
      return Status::InvalidArgument("expected vector literal string");
    }
    VECDB_ASSIGN_OR_RETURN(row.vec, ParseVectorLiteral(cur.Advance().text));
    // Optional attribute values after the vector literal.
    while (cur.Match(TokenType::kComma)) {
      VECDB_ASSIGN_OR_RETURN(double attr,
                             cur.ExpectNumber("attribute value"));
      row.attrs.push_back(static_cast<int64_t>(attr));
    }
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kRParen, "')'"));
    stmt->rows.push_back(std::move(row));
    if (cur.Match(TokenType::kComma)) continue;
    break;
  }
  Statement out;
  out.kind = Statement::Kind::kInsert;
  out.insert = std::move(stmt);
  return out;
}

Result<Statement> ParseSelect(Cursor& cur, bool explain) {
  auto stmt = std::make_unique<SelectStmt>();
  stmt->explain = explain;
  if (cur.Match(TokenType::kStar)) {
    stmt->select_distance = true;
    stmt->select_column = "*";
  } else {
    VECDB_ASSIGN_OR_RETURN(stmt->select_column,
                           cur.ExpectIdentifier("select column"));
  }
  VECDB_RETURN_NOT_OK(cur.ExpectKeyword("FROM"));
  VECDB_ASSIGN_OR_RETURN(stmt->table, cur.ExpectIdentifier("table name"));
  if (cur.MatchKeyword("WHERE")) {
    VECDB_ASSIGN_OR_RETURN(stmt->predicate, ParsePredicate(cur));
  }
  VECDB_RETURN_NOT_OK(cur.ExpectKeyword("ORDER"));
  VECDB_RETURN_NOT_OK(cur.ExpectKeyword("BY"));
  VECDB_ASSIGN_OR_RETURN(stmt->order_column,
                         cur.ExpectIdentifier("vector column"));
  if (cur.Peek().type != TokenType::kDistanceOp) {
    return Status::InvalidArgument("expected a distance operator (<->, <#>, "
                                   "<=>) after ORDER BY column");
  }
  const std::string op = cur.Advance().text;
  stmt->metric = op == "<->" ? Metric::kL2
                 : op == "<#>" ? Metric::kInnerProduct
                               : Metric::kCosine;
  if (cur.Peek().type != TokenType::kString) {
    return Status::InvalidArgument("expected quoted query vector literal");
  }
  VECDB_ASSIGN_OR_RETURN(stmt->query, ParseVectorLiteral(cur.Advance().text));
  cur.MatchKeyword("ASC");  // optional, and the only supported direction
  if (cur.MatchKeyword("OPTIONS")) {
    VECDB_RETURN_NOT_OK(
        ParseOptionList(cur, &stmt->options, &stmt->string_options));
    for (const auto& [key, value] : stmt->string_options) {
      if (key != "filter_strategy") {
        return Status::InvalidArgument("option " + key +
                                       " requires a numeric value");
      }
    }
  }
  VECDB_RETURN_NOT_OK(cur.ExpectKeyword("LIMIT"));
  VECDB_ASSIGN_OR_RETURN(double limit, cur.ExpectNumber("limit"));
  if (limit < 1) return Status::InvalidArgument("LIMIT must be >= 1");
  stmt->limit = static_cast<size_t>(limit);
  Statement out;
  out.kind = Statement::Kind::kSelect;
  out.select = std::move(stmt);
  return out;
}

Result<Statement> ParseDelete(Cursor& cur) {
  auto stmt = std::make_unique<DeleteStmt>();
  VECDB_RETURN_NOT_OK(cur.ExpectKeyword("FROM"));
  VECDB_ASSIGN_OR_RETURN(stmt->table, cur.ExpectIdentifier("table name"));
  VECDB_RETURN_NOT_OK(cur.ExpectKeyword("WHERE"));
  VECDB_ASSIGN_OR_RETURN(stmt->predicate, ParsePredicate(cur));
  Statement out;
  out.kind = Statement::Kind::kDelete;
  out.delete_row = std::move(stmt);
  return out;
}

Result<Statement> ParseShow(Cursor& cur) {
  auto stmt = std::make_unique<ShowStmt>();
  if (cur.MatchKeyword("METRICS")) {
    stmt->what = ShowStmt::What::kMetrics;
    stmt->reset = cur.MatchKeyword("RESET");
  } else if (cur.MatchKeyword("SESSIONS")) {
    stmt->what = ShowStmt::What::kSessions;
  } else {
    return Status::InvalidArgument("expected METRICS or SESSIONS after SHOW");
  }
  Statement out;
  out.kind = Statement::Kind::kShow;
  out.show = std::move(stmt);
  return out;
}

Result<Statement> ParseSet(Cursor& cur) {
  auto stmt = std::make_unique<SetStmt>();
  VECDB_ASSIGN_OR_RETURN(stmt->name, cur.ExpectIdentifier("option name"));
  VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kEquals, "'='"));
  VECDB_ASSIGN_OR_RETURN(stmt->value, cur.ExpectNumber("option value"));
  Statement out;
  out.kind = Statement::Kind::kSet;
  out.set = std::move(stmt);
  return out;
}

Result<Statement> ParseCancel(Cursor& cur) {
  auto stmt = std::make_unique<CancelStmt>();
  VECDB_ASSIGN_OR_RETURN(double id, cur.ExpectNumber("session id"));
  if (id < 1 || id != static_cast<double>(static_cast<uint64_t>(id))) {
    return Status::InvalidArgument("CANCEL needs a positive session id");
  }
  stmt->session_id = static_cast<uint64_t>(id);
  Statement out;
  out.kind = Statement::Kind::kCancel;
  out.cancel = std::move(stmt);
  return out;
}

Result<Statement> ParseCheckpoint() {
  Statement out;
  out.kind = Statement::Kind::kCheckpoint;
  out.checkpoint = std::make_unique<CheckpointStmt>();
  return out;
}

Result<Statement> ParseDrop(Cursor& cur) {
  auto stmt = std::make_unique<DropStmt>();
  if (cur.MatchKeyword("INDEX")) {
    stmt->is_index = true;
  } else if (!cur.MatchKeyword("TABLE")) {
    return Status::InvalidArgument("expected TABLE or INDEX after DROP");
  }
  VECDB_ASSIGN_OR_RETURN(stmt->name, cur.ExpectIdentifier("name"));
  Statement out;
  out.kind = Statement::Kind::kDrop;
  out.drop = std::move(stmt);
  return out;
}

/// strtof's result for a number from_chars rejects as out of float range:
/// HUGE_VALF on overflow, 0 on underflow (the caller applies the sign).
float OutOfRangeValue(const char* first, const char* last,
                      std::chars_format fmt) {
  double wide = 0;
  if (std::from_chars(first, last, wide, fmt).ec == std::errc()) {
    return std::fabs(wide) > 1 ? HUGE_VALF : 0.0f;
  }
  // Beyond double's range too: the exponent's sign decides.
  const char* exp = std::find_if(first, last, [](char c) {
    return c == 'e' || c == 'E' || c == 'p' || c == 'P';
  });
  return exp + 1 < last && exp[1] == '-' ? 0.0f : HUGE_VALF;
}

/// Parses one float starting at `first` with the value and extent
/// std::strtof gives — leading whitespace, an optional sign, decimal or hex
/// digits, inf and nan — but through std::from_chars, which is faster and
/// ignores the C locale's decimal point. Returns the end of the number, or
/// `first` when none starts there. (A NaN payload, as in "nan(7)", is
/// parsed but not kept.)
const char* ParseFloat(const char* first, const char* last, float* out) {
  const char* p = first;
  // strtof's whitespace in the C locale: ' ' and '\t' through '\r'.
  while (p < last && (*p == ' ' || (*p >= '\t' && *p <= '\r'))) ++p;
  const bool negative = p < last && *p == '-';
  if (p < last && (*p == '+' || *p == '-')) ++p;
  // from_chars takes its own '-'; strtof allows one sign only.
  if (p < last && (*p == '+' || *p == '-')) return first;
  float v = 0;
  std::chars_format fmt = std::chars_format::hex;
  const char* digits = p;
  std::from_chars_result r{p, std::errc::invalid_argument};
  if (last - p > 2 && p[0] == '0' && (p[1] == 'x' || p[1] == 'X') &&
      p[2] != '-' && p[2] != '+') {
    digits = p + 2;
    r = std::from_chars(digits, last, v, fmt);
  }
  // Decimal, or "0x" without hex digits, of which strtof reads the "0".
  if (r.ec == std::errc::invalid_argument) {
    fmt = std::chars_format::general;
    digits = p;
    r = std::from_chars(digits, last, v, fmt);
    if (r.ec == std::errc::invalid_argument) return first;
  }
  if (r.ec == std::errc::result_out_of_range) {
    v = OutOfRangeValue(digits, r.ptr, fmt);
  }
  *out = negative ? -v : v;
  return r.ptr;
}

}  // namespace

Result<std::vector<float>> ParseVectorLiteral(const std::string& text) {
  std::vector<float> out;
  size_t i = 0;
  const size_t n = text.size();
  auto skip_ws = [&] {
    while (i < n && (text[i] == ' ' || text[i] == '\t')) ++i;
  };
  skip_ws();
  bool bracketed = false;
  if (i < n && text[i] == '[') {
    bracketed = true;
    ++i;
  }
  for (;;) {
    skip_ws();
    if (i >= n) break;
    if (bracketed && text[i] == ']') {
      ++i;
      break;
    }
    float v = 0;
    const char* start = text.data() + i;
    const char* end = ParseFloat(start, text.data() + n, &v);
    if (end == start) {
      return Status::InvalidArgument("bad vector literal near '" +
                                     text.substr(i, 8) + "'");
    }
    out.push_back(v);
    i = static_cast<size_t>(end - text.data());
    skip_ws();
    if (i < n && text[i] == ',') {
      ++i;
      continue;
    }
  }
  skip_ws();
  if (i != n) {
    return Status::InvalidArgument("trailing garbage in vector literal");
  }
  if (out.empty()) {
    return Status::InvalidArgument("empty vector literal");
  }
  return out;
}

Result<Statement> Parse(const std::string& input) {
  VECDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Cursor cur(std::move(tokens));

  Result<Statement> result = Status::InvalidArgument("empty statement");
  if (cur.MatchKeyword("CREATE")) {
    result = ParseCreate(cur);
  } else if (cur.MatchKeyword("INSERT")) {
    result = ParseInsert(cur);
  } else if (cur.MatchKeyword("SELECT")) {
    result = ParseSelect(cur, /*explain=*/false);
  } else if (cur.MatchKeyword("EXPLAIN")) {
    VECDB_RETURN_NOT_OK(cur.ExpectKeyword("SELECT"));
    result = ParseSelect(cur, /*explain=*/true);
  } else if (cur.MatchKeyword("DROP")) {
    result = ParseDrop(cur);
  } else if (cur.MatchKeyword("DELETE")) {
    result = ParseDelete(cur);
  } else if (cur.MatchKeyword("SHOW")) {
    result = ParseShow(cur);
  } else if (cur.MatchKeyword("CHECKPOINT")) {
    result = ParseCheckpoint();
  } else if (cur.MatchKeyword("SET")) {
    result = ParseSet(cur);
  } else if (cur.MatchKeyword("CANCEL")) {
    result = ParseCancel(cur);
  } else {
    return Status::InvalidArgument("unrecognized statement start: '" +
                                   cur.Peek().text + "'");
  }
  if (!result.ok()) return result;
  cur.Match(TokenType::kSemicolon);
  if (cur.Peek().type != TokenType::kEof) {
    return Status::InvalidArgument("trailing tokens after statement: '" +
                                   cur.Peek().text + "'");
  }
  return result;
}

}  // namespace vecdb::sql
