#include "tpch/tpch.h"

#include <algorithm>
#include <cmath>

#include "minidb/sqldump.h"
#include "support/random.h"

namespace ule {
namespace tpch {
namespace {

using minidb::Column;
using minidb::Database;
using minidb::Row;
using minidb::Schema;
using minidb::Table;
using minidb::Type;
using minidb::Value;

const char* kRegions[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                           "MIDDLE EAST"};
// TPC-H nation -> region mapping (nation key order per the spec).
const char* kNations[25] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN",
    "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
const int kNationRegion[25] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                               4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};

const char* kWords[] = {
    "furiously", "quickly", "carefully", "blithely", "slyly",  "regular",
    "express",   "special", "pending",   "final",    "ironic", "bold",
    "deposits",  "requests", "accounts", "packages", "asymptotes", "pinto",
    "beans",     "theodolites", "instructions", "foxes", "dependencies",
    "platelets", "sleep", "haggle", "nag", "wake", "cajole", "engage",
    "integrate", "use", "boost", "across", "the", "above", "against"};
constexpr int kWordCount = static_cast<int>(sizeof(kWords) / sizeof(char*));

const char* kSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                            "HOUSEHOLD", "MACHINERY"};
const char* kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                              "4-NOT SPECIFIED", "5-LOW"};
const char* kShipModes[7] = {"AIR", "FOB", "MAIL", "RAIL",
                             "REG AIR", "SHIP", "TRUCK"};
const char* kShipInstr[4] = {"COLLECT COD", "DELIVER IN PERSON", "NONE",
                             "TAKE BACK RETURN"};
const char* kPartTypes[6] = {"ECONOMY ANODIZED", "LARGE BRUSHED",
                             "MEDIUM BURNISHED", "PROMO PLATED",
                             "SMALL POLISHED", "STANDARD PLATED"};
const char* kMaterials[5] = {"STEEL", "BRASS", "TIN", "NICKEL", "COPPER"};
const char* kContainers[8] = {"SM CASE", "SM BOX", "MED BAG", "MED BOX",
                              "LG CASE", "LG BOX", "JUMBO PACK", "WRAP JAR"};

std::string Comment(Rng* rng, int min_words, int max_words) {
  const int n = static_cast<int>(rng->Range(min_words, max_words));
  std::string out;
  for (int i = 0; i < n; ++i) {
    if (i) out.push_back(' ');
    out += kWords[rng->Below(kWordCount)];
  }
  return out;
}

std::string Phone(Rng* rng, int nation) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%02d-%03d-%03d-%04d", 10 + nation,
                static_cast<int>(rng->Range(100, 999)),
                static_cast<int>(rng->Range(100, 999)),
                static_cast<int>(rng->Range(1000, 9999)));
  return buf;
}

// Date window per the TPC-H spec: orders span 1992-01-01 .. 1998-08-02.
const int64_t kStartDate = DaysFromCivil(1992, 1, 1);
const int64_t kEndDate = DaysFromCivil(1998, 8, 2);

Schema MakeSchema(std::initializer_list<Column> cols) {
  Schema s;
  s.columns = cols;
  return s;
}

}  // namespace

Result<Database> Generate(const Options& options) {
  if (options.scale_factor <= 0 || options.scale_factor > 1.0) {
    return Status::InvalidArgument("scale factor must be in (0, 1]");
  }
  const double sf = options.scale_factor;
  const auto scaled = [&](int base) {
    return std::max<int64_t>(1, static_cast<int64_t>(std::llround(base * sf)));
  };
  const int64_t n_supplier = scaled(10000);
  const int64_t n_part = scaled(200000);
  const int64_t n_customer = scaled(150000);
  const int64_t n_orders = scaled(1500000);

  Rng rng(options.seed);
  Database db;

  // ---- region ----
  {
    ULE_ASSIGN_OR_RETURN(
        Table * t,
        db.CreateTable("region",
                       MakeSchema({{"r_regionkey", Type::kInt, 0},
                                   {"r_name", Type::kText, 0},
                                   {"r_comment", Type::kText, 0}})));
    for (int i = 0; i < 5; ++i) {
      ULE_RETURN_IF_ERROR(t->Insert({Value::Int(i), Value::Text(kRegions[i]),
                                     Value::Text(Comment(&rng, 4, 12))}));
    }
  }
  // ---- nation ----
  {
    ULE_ASSIGN_OR_RETURN(
        Table * t,
        db.CreateTable("nation",
                       MakeSchema({{"n_nationkey", Type::kInt, 0},
                                   {"n_name", Type::kText, 0},
                                   {"n_regionkey", Type::kInt, 0},
                                   {"n_comment", Type::kText, 0}})));
    for (int i = 0; i < 25; ++i) {
      ULE_RETURN_IF_ERROR(
          t->Insert({Value::Int(i), Value::Text(kNations[i]),
                     Value::Int(kNationRegion[i]),
                     Value::Text(Comment(&rng, 4, 12))}));
    }
  }
  // ---- supplier ----
  {
    ULE_ASSIGN_OR_RETURN(
        Table * t,
        db.CreateTable("supplier",
                       MakeSchema({{"s_suppkey", Type::kInt, 0},
                                   {"s_name", Type::kText, 0},
                                   {"s_address", Type::kText, 0},
                                   {"s_nationkey", Type::kInt, 0},
                                   {"s_phone", Type::kText, 0},
                                   {"s_acctbal", Type::kDecimal, 2},
                                   {"s_comment", Type::kText, 0}})));
    for (int64_t i = 1; i <= n_supplier; ++i) {
      const int nation = static_cast<int>(rng.Below(25));
      char name[32];
      std::snprintf(name, sizeof(name), "Supplier#%09lld",
                    static_cast<long long>(i));
      ULE_RETURN_IF_ERROR(t->Insert(
          {Value::Int(i), Value::Text(name),
           Value::Text(Comment(&rng, 2, 4)), Value::Int(nation),
           Value::Text(Phone(&rng, nation)),
           Value::Decimal(rng.Range(-99999, 999999)),
           Value::Text(Comment(&rng, 6, 14))}));
    }
  }
  // ---- part ----
  {
    ULE_ASSIGN_OR_RETURN(
        Table * t,
        db.CreateTable("part", MakeSchema({{"p_partkey", Type::kInt, 0},
                                           {"p_name", Type::kText, 0},
                                           {"p_mfgr", Type::kText, 0},
                                           {"p_brand", Type::kText, 0},
                                           {"p_type", Type::kText, 0},
                                           {"p_size", Type::kInt, 0},
                                           {"p_container", Type::kText, 0},
                                           {"p_retailprice", Type::kDecimal, 2},
                                           {"p_comment", Type::kText, 0}})));
    for (int64_t i = 1; i <= n_part; ++i) {
      const int m = static_cast<int>(rng.Range(1, 5));
      char mfgr[32], brand[32];
      std::snprintf(mfgr, sizeof(mfgr), "Manufacturer#%d", m);
      std::snprintf(brand, sizeof(brand), "Brand#%d%d", m,
                    static_cast<int>(rng.Range(1, 5)));
      std::string type = std::string(kPartTypes[rng.Below(6)]) + " " +
                         kMaterials[rng.Below(5)];
      // Retail price formula per the spec: 90000 + key/10 + 100*(key mod 1000)
      const int64_t price = (90000 + (i % 20001) / 10 + 100 * (i % 1000)) / 10;
      ULE_RETURN_IF_ERROR(t->Insert(
          {Value::Int(i), Value::Text(Comment(&rng, 3, 5)), Value::Text(mfgr),
           Value::Text(brand), Value::Text(type),
           Value::Int(rng.Range(1, 50)), Value::Text(kContainers[rng.Below(8)]),
           Value::Decimal(price), Value::Text(Comment(&rng, 2, 8))}));
    }
  }
  // ---- partsupp (4 suppliers per part) ----
  {
    ULE_ASSIGN_OR_RETURN(
        Table * t,
        db.CreateTable("partsupp",
                       MakeSchema({{"ps_partkey", Type::kInt, 0},
                                   {"ps_suppkey", Type::kInt, 0},
                                   {"ps_availqty", Type::kInt, 0},
                                   {"ps_supplycost", Type::kDecimal, 2},
                                   {"ps_comment", Type::kText, 0}})));
    for (int64_t p = 1; p <= n_part; ++p) {
      for (int s = 0; s < 4; ++s) {
        const int64_t supp =
            1 + (p + s * ((n_supplier / 4) + 1)) % n_supplier;
        ULE_RETURN_IF_ERROR(
            t->Insert({Value::Int(p), Value::Int(supp),
                       Value::Int(rng.Range(1, 9999)),
                       Value::Decimal(rng.Range(100, 100000)),
                       Value::Text(Comment(&rng, 8, 20))}));
      }
    }
  }
  // ---- customer ----
  {
    ULE_ASSIGN_OR_RETURN(
        Table * t,
        db.CreateTable("customer",
                       MakeSchema({{"c_custkey", Type::kInt, 0},
                                   {"c_name", Type::kText, 0},
                                   {"c_address", Type::kText, 0},
                                   {"c_nationkey", Type::kInt, 0},
                                   {"c_phone", Type::kText, 0},
                                   {"c_acctbal", Type::kDecimal, 2},
                                   {"c_mktsegment", Type::kText, 0},
                                   {"c_comment", Type::kText, 0}})));
    for (int64_t i = 1; i <= n_customer; ++i) {
      const int nation = static_cast<int>(rng.Below(25));
      char name[32];
      std::snprintf(name, sizeof(name), "Customer#%09lld",
                    static_cast<long long>(i));
      ULE_RETURN_IF_ERROR(t->Insert(
          {Value::Int(i), Value::Text(name), Value::Text(Comment(&rng, 2, 4)),
           Value::Int(nation), Value::Text(Phone(&rng, nation)),
           Value::Decimal(rng.Range(-99999, 999999)),
           Value::Text(kSegments[rng.Below(5)]),
           Value::Text(Comment(&rng, 6, 16))}));
    }
  }
  // ---- orders + lineitem ----
  {
    ULE_ASSIGN_OR_RETURN(
        Table * orders,
        db.CreateTable("orders",
                       MakeSchema({{"o_orderkey", Type::kInt, 0},
                                   {"o_custkey", Type::kInt, 0},
                                   {"o_orderstatus", Type::kText, 0},
                                   {"o_totalprice", Type::kDecimal, 2},
                                   {"o_orderdate", Type::kDate, 0},
                                   {"o_orderpriority", Type::kText, 0},
                                   {"o_clerk", Type::kText, 0},
                                   {"o_shippriority", Type::kInt, 0},
                                   {"o_comment", Type::kText, 0}})));
    ULE_ASSIGN_OR_RETURN(
        Table * lineitem,
        db.CreateTable("lineitem",
                       MakeSchema({{"l_orderkey", Type::kInt, 0},
                                   {"l_partkey", Type::kInt, 0},
                                   {"l_suppkey", Type::kInt, 0},
                                   {"l_linenumber", Type::kInt, 0},
                                   {"l_quantity", Type::kInt, 0},
                                   {"l_extendedprice", Type::kDecimal, 2},
                                   {"l_discount", Type::kDecimal, 2},
                                   {"l_tax", Type::kDecimal, 2},
                                   {"l_returnflag", Type::kText, 0},
                                   {"l_linestatus", Type::kText, 0},
                                   {"l_shipdate", Type::kDate, 0},
                                   {"l_commitdate", Type::kDate, 0},
                                   {"l_receiptdate", Type::kDate, 0},
                                   {"l_shipinstruct", Type::kText, 0},
                                   {"l_shipmode", Type::kText, 0},
                                   {"l_comment", Type::kText, 0}})));
    const int64_t current_date = DaysFromCivil(1995, 6, 17);
    for (int64_t o = 1; o <= n_orders; ++o) {
      // Sparse order keys (the spec leaves gaps): key = o*4 - 3.
      const int64_t okey = o * 4 - 3;
      const int64_t cust = 1 + static_cast<int64_t>(rng.Below(
                                   static_cast<uint64_t>(n_customer)));
      const int64_t odate =
          kStartDate + rng.Range(0, kEndDate - kStartDate - 151);
      const int nlines = static_cast<int>(rng.Range(1, 7));
      int64_t total = 0;
      int all_f = 1, any_f = 0;
      for (int ln = 1; ln <= nlines; ++ln) {
        const int64_t part =
            1 + static_cast<int64_t>(rng.Below(static_cast<uint64_t>(n_part)));
        const int64_t supp = 1 + static_cast<int64_t>(rng.Below(
                                     static_cast<uint64_t>(n_supplier)));
        const int64_t qty = rng.Range(1, 50);
        const int64_t eprice = qty * rng.Range(90000, 210000) / 100;
        const int64_t discount = rng.Range(0, 10);
        const int64_t tax = rng.Range(0, 8);
        const int64_t ship = odate + rng.Range(1, 121);
        const int64_t commit = odate + rng.Range(30, 90);
        const int64_t receipt = ship + rng.Range(1, 30);
        const bool filled = receipt <= current_date;
        const char* rflag = !filled ? "N" : (rng.Chance(0.5) ? "R" : "A");
        const char* lstatus = filled ? "F" : "O";
        all_f &= filled ? 1 : 0;
        any_f |= filled ? 1 : 0;
        total += eprice * (100 - discount) / 100 * (100 + tax) / 100;
        ULE_RETURN_IF_ERROR(lineitem->Insert(
            {Value::Int(okey), Value::Int(part), Value::Int(supp),
             Value::Int(ln), Value::Int(qty), Value::Decimal(eprice),
             Value::Decimal(discount), Value::Decimal(tax),
             Value::Text(rflag), Value::Text(lstatus), Value::Date(ship),
             Value::Date(commit), Value::Date(receipt),
             Value::Text(kShipInstr[rng.Below(4)]),
             Value::Text(kShipModes[rng.Below(7)]),
             Value::Text(Comment(&rng, 3, 8))}));
      }
      const char* status = all_f ? "F" : (any_f ? "P" : "O");
      char clerk[24];
      std::snprintf(clerk, sizeof(clerk), "Clerk#%09d",
                    static_cast<int>(rng.Range(1, 1000)));
      ULE_RETURN_IF_ERROR(orders->Insert(
          {Value::Int(okey), Value::Int(cust), Value::Text(status),
           Value::Decimal(total), Value::Date(odate),
           Value::Text(kPriorities[rng.Below(5)]), Value::Text(clerk),
           Value::Int(0), Value::Text(Comment(&rng, 4, 12))}));
    }
  }
  return db;
}

Result<Database> GenerateForDumpSize(size_t target_bytes, uint64_t seed) {
  // The dump size is nearly linear in SF; one calibration generation at a
  // small SF predicts the right one, then a second pass refines.
  Options opt;
  opt.seed = seed;
  opt.scale_factor = 0.0005;
  ULE_ASSIGN_OR_RETURN(Database probe, Generate(opt));
  const size_t probe_size = minidb::DumpSql(probe).size();
  double sf = opt.scale_factor * static_cast<double>(target_bytes) /
              static_cast<double>(probe_size);
  sf = std::clamp(sf, 1e-5, 1.0);
  opt.scale_factor = sf;
  ULE_ASSIGN_OR_RETURN(Database db, Generate(opt));
  return db;
}

}  // namespace tpch
}  // namespace ule
