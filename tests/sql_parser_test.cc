#include "sql/parser.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace vecdb::sql {
namespace {

TEST(ParserTest, CreateTable) {
  auto stmt = Parse("CREATE TABLE items (id int, vec float[128]);")
                  .ValueOrDie();
  ASSERT_EQ(stmt.kind, Statement::Kind::kCreateTable);
  EXPECT_EQ(stmt.create_table->table, "items");
  EXPECT_EQ(stmt.create_table->id_column, "id");
  EXPECT_EQ(stmt.create_table->vec_column, "vec");
  EXPECT_EQ(stmt.create_table->dim, 128u);
}

TEST(ParserTest, CreateTableRequiresDimension) {
  EXPECT_FALSE(Parse("CREATE TABLE t (id int, vec float[])").ok());
}

TEST(ParserTest, CreateTableBadColumnType) {
  EXPECT_FALSE(Parse("CREATE TABLE t (id float[3], vec float[3])").ok());
}

TEST(ParserTest, InsertSingleAndMultiRow) {
  auto stmt =
      Parse("INSERT INTO t VALUES (1, '0.1,0.2'), (2, '[0.3, 0.4]');")
          .ValueOrDie();
  ASSERT_EQ(stmt.kind, Statement::Kind::kInsert);
  ASSERT_EQ(stmt.insert->rows.size(), 2u);
  EXPECT_EQ(stmt.insert->rows[0].id, 1);
  ASSERT_EQ(stmt.insert->rows[0].vec.size(), 2u);
  EXPECT_FLOAT_EQ(stmt.insert->rows[0].vec[1], 0.2f);
  EXPECT_FLOAT_EQ(stmt.insert->rows[1].vec[0], 0.3f);
}

TEST(ParserTest, CreateIndexWithOptions) {
  auto stmt = Parse("CREATE INDEX idx ON t USING ivfflat (vec) "
                    "WITH (clusters=256, sample_ratio=0.01, engine='faiss')")
                  .ValueOrDie();
  ASSERT_EQ(stmt.kind, Statement::Kind::kCreateIndex);
  EXPECT_EQ(stmt.create_index->index, "idx");
  EXPECT_EQ(stmt.create_index->method, "ivfflat");
  EXPECT_EQ(stmt.create_index->column, "vec");
  EXPECT_DOUBLE_EQ(stmt.create_index->options.at("clusters"), 256);
  EXPECT_DOUBLE_EQ(stmt.create_index->options.at("sample_ratio"), 0.01);
  EXPECT_EQ(stmt.create_index->engine, "faiss");
}

TEST(ParserTest, CreateIndexDefaultEngineIsPase) {
  auto stmt =
      Parse("CREATE INDEX idx ON t USING hnsw (vec) WITH (bnn=16)")
          .ValueOrDie();
  EXPECT_EQ(stmt.create_index->engine, "pase");
  EXPECT_DOUBLE_EQ(stmt.create_index->options.at("bnn"), 16);
}

TEST(ParserTest, SelectTopK) {
  auto stmt = Parse("SELECT id FROM t ORDER BY vec <-> '0.1,0.2,0.3' ASC "
                    "LIMIT 10;")
                  .ValueOrDie();
  ASSERT_EQ(stmt.kind, Statement::Kind::kSelect);
  EXPECT_EQ(stmt.select->table, "t");
  EXPECT_EQ(stmt.select->select_column, "id");
  EXPECT_EQ(stmt.select->order_column, "vec");
  EXPECT_EQ(stmt.select->metric, Metric::kL2);
  ASSERT_EQ(stmt.select->query.size(), 3u);
  EXPECT_EQ(stmt.select->limit, 10u);
}

TEST(ParserTest, SelectWithOptionsAndStar) {
  auto stmt = Parse("SELECT * FROM t ORDER BY vec <-> '[1,2]' "
                    "OPTIONS (nprobe=50, efs=100) LIMIT 5")
                  .ValueOrDie();
  EXPECT_TRUE(stmt.select->select_distance);
  EXPECT_DOUBLE_EQ(stmt.select->options.at("nprobe"), 50);
  EXPECT_DOUBLE_EQ(stmt.select->options.at("efs"), 100);
}

TEST(ParserTest, SelectMetricOperators) {
  EXPECT_EQ(Parse("SELECT id FROM t ORDER BY v <#> '1' LIMIT 1")
                .ValueOrDie()
                .select->metric,
            Metric::kInnerProduct);
  EXPECT_EQ(Parse("SELECT id FROM t ORDER BY v <=> '1' LIMIT 1")
                .ValueOrDie()
                .select->metric,
            Metric::kCosine);
}

TEST(ParserTest, ExplainSelect) {
  auto stmt = Parse("EXPLAIN SELECT id FROM t ORDER BY v <-> '1' LIMIT 1")
                  .ValueOrDie();
  EXPECT_TRUE(stmt.select->explain);
}

TEST(ParserTest, SelectRequiresLimit) {
  EXPECT_FALSE(Parse("SELECT id FROM t ORDER BY v <-> '1'").ok());
  EXPECT_FALSE(Parse("SELECT id FROM t ORDER BY v <-> '1' LIMIT 0").ok());
}

TEST(ParserTest, SelectRequiresDistanceOp) {
  EXPECT_FALSE(Parse("SELECT id FROM t ORDER BY v LIMIT 1").ok());
}

TEST(ParserTest, DropStatements) {
  auto t = Parse("DROP TABLE items").ValueOrDie();
  EXPECT_EQ(t.kind, Statement::Kind::kDrop);
  EXPECT_FALSE(t.drop->is_index);
  EXPECT_EQ(t.drop->name, "items");
  auto i = Parse("DROP INDEX idx").ValueOrDie();
  EXPECT_TRUE(i.drop->is_index);
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(Parse("DROP TABLE items extra").ok());
}

TEST(ParserTest, EmptyAndUnknownStatements) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("FROBNICATE everything").ok());
}

TEST(ParserTest, ShowMetrics) {
  auto stmt = Parse("SHOW METRICS;").ValueOrDie();
  ASSERT_EQ(stmt.kind, Statement::Kind::kShow);
  EXPECT_FALSE(stmt.show->reset);

  auto reset = Parse("show metrics reset").ValueOrDie();
  ASSERT_EQ(reset.kind, Statement::Kind::kShow);
  EXPECT_TRUE(reset.show->reset);

  EXPECT_FALSE(Parse("SHOW").ok());
  EXPECT_FALSE(Parse("SHOW TABLES").ok());
  EXPECT_FALSE(Parse("SHOW METRICS please").ok());
}

TEST(ParserTest, ShowSessions) {
  auto stmt = Parse("SHOW SESSIONS;").ValueOrDie();
  ASSERT_EQ(stmt.kind, Statement::Kind::kShow);
  EXPECT_EQ(stmt.show->what, ShowStmt::What::kSessions);
  EXPECT_FALSE(stmt.show->reset);

  auto lower = Parse("show sessions").ValueOrDie();
  EXPECT_EQ(lower.show->what, ShowStmt::What::kSessions);

  auto metrics = Parse("SHOW METRICS").ValueOrDie();
  EXPECT_EQ(metrics.show->what, ShowStmt::What::kMetrics);

  EXPECT_FALSE(Parse("SHOW SESSIONS RESET").ok());
  EXPECT_FALSE(Parse("SHOW SESSIONS extra").ok());
  auto bad = Parse("SHOW GARBAGE");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("METRICS or SESSIONS"),
            std::string::npos);
}

TEST(ParserTest, SetSessionOption) {
  auto stmt = Parse("SET statement_timeout_ms = 250;").ValueOrDie();
  ASSERT_EQ(stmt.kind, Statement::Kind::kSet);
  EXPECT_EQ(stmt.set->name, "statement_timeout_ms");
  EXPECT_DOUBLE_EQ(stmt.set->value, 250.0);

  auto fractional = Parse("set nprobe = 1.5").ValueOrDie();
  EXPECT_EQ(fractional.set->name, "nprobe");
  EXPECT_DOUBLE_EQ(fractional.set->value, 1.5);

  EXPECT_FALSE(Parse("SET").ok());
  EXPECT_FALSE(Parse("SET statement_timeout_ms").ok());
  EXPECT_FALSE(Parse("SET statement_timeout_ms = ").ok());
  EXPECT_FALSE(Parse("SET statement_timeout_ms = banana").ok());
  EXPECT_FALSE(Parse("SET statement_timeout_ms = 5 extra").ok());
}

TEST(ParserTest, CancelSession) {
  auto stmt = Parse("CANCEL 7;").ValueOrDie();
  ASSERT_EQ(stmt.kind, Statement::Kind::kCancel);
  EXPECT_EQ(stmt.cancel->session_id, 7u);

  EXPECT_FALSE(Parse("CANCEL").ok());
  EXPECT_FALSE(Parse("CANCEL t").ok());
  EXPECT_FALSE(Parse("CANCEL 7 8").ok());
  // Session ids are positive integers: zero, negatives, and fractions
  // must all be rejected, not truncated.
  auto zero = Parse("CANCEL 0");
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.status().message().find("positive session id"),
            std::string::npos);
  EXPECT_FALSE(Parse("CANCEL -3").ok());
  EXPECT_FALSE(Parse("CANCEL 1.5").ok());
}

TEST(VectorLiteralTest, PlainAndBracketed) {
  auto a = ParseVectorLiteral("0.5, 1.5,2.5").ValueOrDie();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_FLOAT_EQ(a[2], 2.5f);
  auto b = ParseVectorLiteral("[ -1, 2e-1 ]").ValueOrDie();
  ASSERT_EQ(b.size(), 2u);
  EXPECT_FLOAT_EQ(b[0], -1.f);
  EXPECT_FLOAT_EQ(b[1], 0.2f);
}

TEST(VectorLiteralTest, Malformed) {
  EXPECT_FALSE(ParseVectorLiteral("").ok());
  EXPECT_FALSE(ParseVectorLiteral("a,b").ok());
  EXPECT_FALSE(ParseVectorLiteral("1,2]").ok());
}

// The strtof-based literal parser ParseVectorLiteral replaced, kept as the
// oracle for the from_chars parity test below.
Result<std::vector<float>> StrtofVectorLiteral(const std::string& text) {
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
    char* end = nullptr;
    const float v = std::strtof(text.c_str() + i, &end);
    if (end == text.c_str() + i) {
      return Status::InvalidArgument("bad vector literal near '" +
                                     text.substr(i, 8) + "'");
    }
    out.push_back(v);
    i = static_cast<size_t>(end - text.c_str());
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

/// One random literal element: decimal numbers with and without
/// exponents (in and out of float range), signs including a leading '+',
/// zero and negative zero, inf/nan, hex floats, and a few malformed forms.
std::string RandomElement(std::mt19937& rng) {
  auto pick = [&](int n) { return static_cast<int>(rng() % n); };
  auto digits = [&](int max_len) {
    std::string d;
    const int len = 1 + pick(max_len);
    for (int i = 0; i < len; ++i) d += static_cast<char>('0' + pick(10));
    return d;
  };
  static const char* const kSpecial[] = {
      "0",     "-0",     "+0",      "-0.0",     "inf",    "-inf",
      "+INF",  "nan",    "-nan",    "Infinity", "1e-45",  "-1.4e-45",
      "7e-46", "3.4028235e38", "3.4028236e38", "1e39",  "-1e-39",
      "0x1.8p3", "-0x1p-149", "0x1p200", "0x", "0x-1", "0x.8",
      "1e",    "1e+",    "5.",      ".5",       ".",      "--1",
      "+-1",   "abc",    "1..2",    "e5",       "+",      "-"};
  if (pick(5) == 0) return kSpecial[pick(sizeof(kSpecial) / sizeof(*kSpecial))];
  std::string e;
  const int sign = pick(4);
  if (sign == 1) e += '-';
  if (sign == 2) e += '+';
  switch (pick(4)) {
    case 0: e += digits(9); break;
    case 1: e += digits(6) + "." + digits(9); break;
    case 2: e += "." + digits(9); break;
    default: e += digits(6) + "."; break;
  }
  if (pick(2) == 0) {
    e += pick(2) == 0 ? 'e' : 'E';
    const int esign = pick(3);
    if (esign == 1) e += '-';
    if (esign == 2) e += '+';
    e += std::to_string(pick(8) == 0 ? pick(400) : pick(50));
  }
  return e;
}

TEST(VectorLiteralTest, FromCharsMatchesStrtofBitForBit) {
  // Seeded random literals: values must be bit-identical to strtof's, and
  // rejected literals must fail with the same message.
  std::mt19937 rng(20240417);
  // '\n', '\v', '\f' and '\r' are whitespace to strtof but not between
  // elements, so they parse before a number and fail anywhere else.
  static const char* const kSpace[] = {"",  "",   " ",  "  ",
                                       "\t", " \t", "\n", "\v\r\f"};
  auto space = [&] { return std::string(kSpace[rng() % 8]); };
  for (int trial = 0; trial < 20000; ++trial) {
    const bool bracketed = rng() % 2 == 0;
    std::string text = space() + (bracketed ? "[" : "");
    const int count = 1 + static_cast<int>(rng() % 8);
    for (int k = 0; k < count; ++k) {
      if (k > 0) text += space() + "," + space();
      text += space() + RandomElement(rng);
    }
    text += space() + (bracketed ? "]" : "") + space();
    const auto want = StrtofVectorLiteral(text);
    const auto got = ParseVectorLiteral(text);
    ASSERT_EQ(got.ok(), want.ok()) << "literal: " << text;
    if (!want.ok()) {
      EXPECT_EQ(got.status().message(), want.status().message())
          << "literal: " << text;
      continue;
    }
    ASSERT_EQ(got->size(), want->size()) << "literal: " << text;
    for (size_t k = 0; k < want->size(); ++k) {
      uint32_t got_bits, want_bits;
      std::memcpy(&got_bits, &(*got)[k], sizeof(got_bits));
      std::memcpy(&want_bits, &(*want)[k], sizeof(want_bits));
      EXPECT_EQ(got_bits, want_bits)
          << "element " << k << " of literal: " << text;
    }
  }
}

}  // namespace
}  // namespace vecdb::sql
