/// \file value.h
/// \brief Typed values for the mini relational DBMS (the PostgreSQL
/// substitute of the evaluation pipeline; DESIGN.md §2).

#ifndef ULE_MINIDB_VALUE_H_
#define ULE_MINIDB_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "support/date.h"
#include "support/status.h"

namespace ule {
namespace minidb {

/// Column types. Decimal values carry a fixed scale in the column schema.
enum class Type {
  kInt,      ///< 64-bit signed integer
  kDecimal,  ///< fixed-point decimal, stored as scaled int64
  kText,     ///< UTF-8 string (tab/newline-escaped in dumps)
  kDate,     ///< days since 1970-01-01
};

/// Largest fraction-digit count a decimal column may declare: 10^18 is
/// the largest power of ten an int64 holds.
inline constexpr int kMaxDecimalScale = 18;

const char* TypeName(Type t);
/// SQL type name used in dumps ("bigint", "decimal(15,2)", ...).
std::string SqlTypeName(Type t, int scale);

/// \brief One cell: a typed value or NULL.
class Value {
 public:
  Value() : null_(true) {}
  static Value Null() { return Value(); }
  static Value Int(int64_t v);
  static Value Decimal(int64_t scaled);  ///< scale lives in the column
  static Value Text(std::string v);
  static Value Date(int64_t days);  ///< days since 1970-01-01 (date.h)

  bool is_null() const { return null_; }
  int64_t AsInt() const { return std::get<int64_t>(v_); }
  const std::string& AsText() const { return std::get<std::string>(v_); }

  /// Renders the dump representation ("\\N" for NULL; dates ISO; decimals
  /// with exactly `scale` fraction digits; text with \t \n \\ escaped).
  std::string ToDumpString(Type type, int scale) const;

  /// Parses the dump representation. Corruption for a number with
  /// trailing characters, a decimal whose scaled value does not fit in
  /// int64, or a scale outside [0, kMaxDecimalScale]; InvalidArgument for
  /// a date ParseDate refuses (a malformed or impossible date is never
  /// rewritten into another one).
  static Result<Value> FromDumpString(const std::string& s, Type type,
                                      int scale);

  bool operator==(const Value& o) const { return null_ == o.null_ && v_ == o.v_; }

 private:
  bool null_ = false;
  std::variant<int64_t, std::string> v_;
};

}  // namespace minidb
}  // namespace ule

#endif  // ULE_MINIDB_VALUE_H_
