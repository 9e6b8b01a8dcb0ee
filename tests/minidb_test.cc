// Tests for the mini relational DBMS substrate: values, tables, queries,
// and the pg_dump-style textual archive round trip.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "minidb/database.h"
#include "minidb/sqldump.h"
#include "minidb/value.h"

namespace ule {
namespace minidb {
namespace {

Schema TestSchema() {
  Schema s;
  s.columns = {{"id", Type::kInt, 0},
               {"price", Type::kDecimal, 2},
               {"name", Type::kText, 0},
               {"day", Type::kDate, 0}};
  return s;
}

TEST(ValueTest, IntDump) {
  EXPECT_EQ(Value::Int(42).ToDumpString(Type::kInt, 0), "42");
  EXPECT_EQ(Value::Int(-7).ToDumpString(Type::kInt, 0), "-7");
  EXPECT_EQ(Value::Null().ToDumpString(Type::kInt, 0), "\\N");
}

TEST(ValueTest, DecimalDump) {
  EXPECT_EQ(Value::Decimal(12345).ToDumpString(Type::kDecimal, 2), "123.45");
  EXPECT_EQ(Value::Decimal(-50).ToDumpString(Type::kDecimal, 2), "-0.50");
  EXPECT_EQ(Value::Decimal(7).ToDumpString(Type::kDecimal, 3), "0.007");
}

TEST(ValueTest, DateDump) {
  EXPECT_EQ(Value::Date(0).ToDumpString(Type::kDate, 0), "1970-01-01");
  EXPECT_EQ(Value::Date(DaysFromCivil(1995, 3, 15)).ToDumpString(Type::kDate, 0),
            "1995-03-15");
}

TEST(ValueTest, TextEscaping) {
  const Value v = Value::Text("a\tb\nc\\d");
  const std::string dumped = v.ToDumpString(Type::kText, 0);
  EXPECT_EQ(dumped, "a\\tb\\nc\\\\d");
  auto back = Value::FromDumpString(dumped, Type::kText, 0);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().AsText(), "a\tb\nc\\d");
}

TEST(ValueTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Value::FromDumpString("not-a-number", Type::kInt, 0).ok());
  EXPECT_FALSE(Value::FromDumpString("1995-13-99", Type::kDate, 0).ok());
  EXPECT_FALSE(Value::FromDumpString("1.234", Type::kDecimal, 2).ok());
  // Trailing characters, out-of-range integers, scaled decimals that do
  // not fit in int64, and scales past 10^18 are Corruption, not a
  // truncated value or signed overflow.
  const struct {
    const char* text;
    Type type;
    int scale;
  } kBad[] = {
      {"12abc", Type::kInt, 0},
      {"9223372036854775808", Type::kInt, 0},
      {"12abc", Type::kDecimal, 2},
      {"1.2x", Type::kDecimal, 2},
      {"1.-5", Type::kDecimal, 2},
      {"-", Type::kDecimal, 2},
      {".", Type::kDecimal, 2},
      {"99999999999999999", Type::kDecimal, 2},
      {"92233720368547758.08", Type::kDecimal, 2},
      {"-92233720368547758.09", Type::kDecimal, 2},
      {"1", Type::kDecimal, 25},
      {"1.5", Type::kDecimal, 25},
      {"1", Type::kDecimal, -1},
  };
  for (const auto& bad : kBad) {
    auto v = Value::FromDumpString(bad.text, bad.type, bad.scale);
    ASSERT_FALSE(v.ok()) << bad.text << " scale " << bad.scale;
    EXPECT_EQ(v.status().code(), StatusCode::kCorruption) << bad.text;
  }
}

TEST(ValueTest, DecimalParseEdges) {
  // The int64 extremes at scale 2, and a scale-0 column, round-trip.
  for (const auto& [text, scale, scaled] :
       std::vector<std::tuple<std::string, int, int64_t>>{
           {"92233720368547758.07", 2, INT64_MAX},
           {"-92233720368547758.08", 2, INT64_MIN},
           {"-0.50", 2, -50},
           {"42", 0, 42},
           {"0.000000000000000001", 18, 1}}) {
    auto v = Value::FromDumpString(text, Type::kDecimal, scale);
    ASSERT_TRUE(v.ok()) << text << ": " << v.status().ToString();
    EXPECT_EQ(v.value().AsInt(), scaled) << text;
    EXPECT_EQ(v.value().ToDumpString(Type::kDecimal, scale), text);
  }
  // Missing integer or fraction digits parse as zero.
  auto half = Value::FromDumpString("-.5", Type::kDecimal, 2);
  ASSERT_TRUE(half.ok());
  EXPECT_EQ(half.value().AsInt(), -50);
  auto whole = Value::FromDumpString("7.", Type::kDecimal, 2);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole.value().AsInt(), 700);
}

TEST(ValueTest, DateRoundTripSweep) {
  for (int64_t days : {-100000LL, -1LL, 0LL, 1LL, 10000LL, 20000LL}) {
    const std::string s = FormatDate(days);
    auto back = ParseDate(s);
    ASSERT_TRUE(back.ok()) << s;
    EXPECT_EQ(back.value(), days) << s;
  }
  // Month ends and leap days that exist.
  for (const char* s : {"2024-02-29", "2000-02-29", "1995-12-31",
                        "0000-01-01", "9999-12-31"}) {
    auto back = ParseDate(s);
    ASSERT_TRUE(back.ok()) << s;
    EXPECT_EQ(FormatDate(back.value()), s);
  }
}

TEST(ValueTest, DateParseNeverRewrites) {
  // Each of these used to load as a different, valid date (2024-02-31 as
  // 2024-03-02, 19x5-03-15 as 0019-03-15, 1995-1 -05 as 1995-01-05).
  for (const std::string s :
       {"2024-02-31", "2023-02-29", "1900-02-29", "1995-04-31", "19x5-03-15",
        "1995-1 -05", "1995-01-0x", "+995-01-05", "-995-01-05", "1995-00-10",
        "1995-13-01", "1995-01-00", "1995-01-32", "1995/01/05", "1995-1-05",
        "1995-01-05 ", ""}) {
    auto days = ParseDate(s);
    ASSERT_FALSE(days.ok()) << s;
    EXPECT_EQ(days.status().code(), StatusCode::kInvalidArgument) << s;
    EXPECT_NE(days.status().message().find("'" + s + "'"), std::string::npos)
        << days.status().ToString();
    EXPECT_EQ(Value::FromDumpString(s, Type::kDate, 0).status().code(),
              StatusCode::kInvalidArgument)
        << s;
  }
  // A dump carrying an impossible date is refused, naming it, instead of
  // loading a different day.
  auto loaded = LoadSql(
      "CREATE TABLE t (\n    d date\n);\nCOPY t (d) FROM stdin;\n"
      "1995-03-15\n2024-02-31\n\\.\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("2024-02-31"), std::string::npos)
      << loaded.status().ToString();
}

TEST(TableTest, InsertAndScan) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Decimal(100), Value::Text("a"),
                        Value::Date(10)})
                  .ok());
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::Decimal(250), Value::Text("b"),
                        Value::Null()})
                  .ok());
  EXPECT_EQ(t.row_count(), 2u);
  int seen = 0;
  t.Scan([&](const Row&) {
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 2);
}

TEST(TableTest, ArityEnforced) {
  Table t("t", TestSchema());
  EXPECT_FALSE(t.Insert({Value::Int(1)}).ok());
}

TEST(TableTest, CountAndSum) {
  Table t("t", TestSchema());
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(t.Insert({Value::Int(i), Value::Decimal(i * 100),
                          Value::Text("x"), Value::Date(i)})
                    .ok());
  }
  EXPECT_EQ(t.CountWhere(nullptr), 10u);
  EXPECT_EQ(t.CountWhere([](const Row& r) { return r[0].AsInt() > 5; }), 5u);
  auto sum = t.SumWhere("price", nullptr);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum.value(), 5500);
  EXPECT_FALSE(t.SumWhere("name", nullptr).ok());
  EXPECT_FALSE(t.SumWhere("missing", nullptr).ok());
}

TEST(DatabaseTest, CatalogBasics) {
  Database db;
  ASSERT_TRUE(db.CreateTable("a", TestSchema()).ok());
  ASSERT_TRUE(db.CreateTable("b", TestSchema()).ok());
  EXPECT_FALSE(db.CreateTable("a", TestSchema()).ok());
  EXPECT_NE(db.GetTable("a"), nullptr);
  EXPECT_EQ(db.GetTable("zzz"), nullptr);
  EXPECT_EQ(db.TableNames(), (std::vector<std::string>{"a", "b"}));
}

Database SampleDb() {
  Database db;
  Table* t = db.CreateTable("items", TestSchema()).TakeValue();
  t->Insert({Value::Int(1), Value::Decimal(999), Value::Text("plain"),
             Value::Date(9000)})
      .ok();
  t->Insert({Value::Int(2), Value::Null(), Value::Text("tab\there"),
             Value::Null()})
      .ok();
  t->Insert({Value::Int(-3), Value::Decimal(-12345),
             Value::Text(" spaces kept "), Value::Date(0)})
      .ok();
  Schema s2;
  s2.columns = {{"k", Type::kInt, 0}};
  Table* t2 = db.CreateTable("tiny", s2).TakeValue();
  t2->Insert({Value::Int(7)}).ok();
  return db;
}

TEST(SqlDumpTest, DumpShape) {
  const std::string dump = DumpSql(SampleDb());
  EXPECT_NE(dump.find("CREATE TABLE items ("), std::string::npos);
  EXPECT_NE(dump.find("price decimal(15,2)"), std::string::npos);
  EXPECT_NE(dump.find("COPY items (id, price, name, day) FROM stdin;"),
            std::string::npos);
  EXPECT_NE(dump.find("\\.\n"), std::string::npos);
  EXPECT_NE(dump.find("1\t9.99\tplain\t1994-08-23"), std::string::npos);
}

TEST(SqlDumpTest, RoundTrip) {
  const Database db = SampleDb();
  const std::string dump = DumpSql(db);
  auto back = LoadSql(dump);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value().SameContentAs(db));
  // Dump again: byte-identical (determinism matters for archival).
  EXPECT_EQ(DumpSql(back.value()), dump);
}

TEST(SqlDumpTest, LoadRejectsMalformed) {
  EXPECT_FALSE(LoadSql("DROP TABLE x;").ok());
  EXPECT_FALSE(LoadSql("COPY nowhere (a) FROM stdin;\n\\.\n").ok());
  EXPECT_FALSE(LoadSql("CREATE TABLE t (\n  a bigint\n").ok());  // unterminated
  const std::string bad_row =
      "CREATE TABLE t (\n    a bigint\n);\nCOPY t (a) FROM stdin;\n1\t2\n\\.\n";
  EXPECT_FALSE(LoadSql(bad_row).ok());
  // Scales outside [0, 18] are refused at the schema; rows with trailing
  // characters or decimals that overflow int64 at the column scale are
  // refused at the row.
  const auto table = [](const std::string& type, const std::string& row) {
    return "CREATE TABLE t (\n    a " + type +
           "\n);\nCOPY t (a) FROM stdin;\n" + row + "\n\\.\n";
  };
  for (const std::string& dump :
       {table("numeric(15,25)", "1.5"), table("numeric(15,25)", "\\N"),
        table("decimal(15,-1)", "1"), table("decimal(15,x)", "1"),
        table("decimal(15,2)", "99999999999999999"),
        table("decimal(15,2)", "1.5abc"), table("bigint", "12abc")}) {
    auto loaded = LoadSql(dump);
    ASSERT_FALSE(loaded.ok()) << dump;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << dump;
  }
  // The same shapes in range load, and a scale-0 column dumps back.
  EXPECT_TRUE(LoadSql(table("decimal(15, 18)", "0.5")).ok());
  auto whole = LoadSql(table("decimal(15,0)", "12"));
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_NE(DumpSql(whole.value()).find("\n12\n"), std::string::npos);
}

TEST(SqlDumpTest, EmptyTablesSurvive) {
  Database db;
  db.CreateTable("empty", TestSchema()).ok();
  auto back = LoadSql(DumpSql(db));
  ASSERT_TRUE(back.ok());
  ASSERT_NE(back.value().GetTable("empty"), nullptr);
  EXPECT_EQ(back.value().GetTable("empty")->row_count(), 0u);
}

}  // namespace
}  // namespace minidb
}  // namespace ule
