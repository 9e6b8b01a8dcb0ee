#include "minidb/value.h"

#include <charconv>
#include <string_view>

namespace ule {
namespace minidb {

const char* TypeName(Type t) {
  switch (t) {
    case Type::kInt:
      return "int";
    case Type::kDecimal:
      return "decimal";
    case Type::kText:
      return "text";
    case Type::kDate:
      return "date";
  }
  return "?";
}

std::string SqlTypeName(Type t, int scale) {
  switch (t) {
    case Type::kInt:
      return "bigint";
    case Type::kDecimal:
      return "decimal(15," + std::to_string(scale) + ")";
    case Type::kText:
      return "varchar";
    case Type::kDate:
      return "date";
  }
  return "unknown";
}

Value Value::Int(int64_t v) {
  Value out;
  out.null_ = false;
  out.v_ = v;
  return out;
}

Value Value::Decimal(int64_t scaled) { return Int(scaled); }

Value Value::Text(std::string v) {
  Value out;
  out.null_ = false;
  out.v_ = std::move(v);
  return out;
}

Value Value::Date(int64_t days) { return Int(days); }

namespace {

int64_t Pow10(int exponent) {
  int64_t p = 1;
  for (int i = 0; i < exponent; ++i) p *= 10;
  return p;
}

/// Parses all of `s` as a base-10 int64 with an optional leading '-':
/// false when it is empty, has any other character, or is out of range.
bool ParseInt64(std::string_view s, int64_t* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// `scale` fraction digits of "[-]int[.frac]" as a scaled int64; false
/// when the text is malformed or the scaled value overflows.
bool ParseDecimal(std::string_view s, int scale, int64_t* out) {
  const size_t dot = s.find('.');
  const std::string_view ip = s.substr(0, dot);
  const std::string_view fp =
      dot == std::string_view::npos ? std::string_view() : s.substr(dot + 1);
  if (static_cast<int>(fp.size()) > scale) return false;
  for (char c : fp) {
    if (c < '0' || c > '9') return false;
  }
  const bool neg = !ip.empty() && ip[0] == '-';
  // ".5" and "-.5" have no integer digits; "", "-" and "." no digits at all.
  const bool int_digits = ip.size() > (neg ? 1u : 0u);
  if (!int_digits && fp.empty()) return false;
  int64_t intpart = 0;
  if (int_digits && !ParseInt64(ip, &intpart)) return false;
  int64_t frac = 0;
  for (char c : fp) frac = frac * 10 + (c - '0');
  frac *= Pow10(scale - static_cast<int>(fp.size()));
  int64_t scaled = 0;
  if (__builtin_mul_overflow(intpart, Pow10(scale), &scaled)) return false;
  return neg ? !__builtin_sub_overflow(scaled, frac, out)
             : !__builtin_add_overflow(scaled, frac, out);
}

std::string FormatDecimal(int64_t v, int scale) {
  const bool neg = v < 0;
  // Unsigned negation: well defined for INT64_MIN too.
  const uint64_t a =
      neg ? 0 - static_cast<uint64_t>(v) : static_cast<uint64_t>(v);
  const uint64_t pow10 = static_cast<uint64_t>(Pow10(scale));
  const std::string whole = (neg ? "-" : "") + std::to_string(a / pow10);
  if (scale == 0) return whole;
  std::string frac = std::to_string(a % pow10);
  frac.insert(0, static_cast<size_t>(scale) - frac.size(), '0');
  return whole + "." + frac;
}

std::string EscapeText(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

Result<std::string> UnescapeText(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out.push_back(s[i]);
      continue;
    }
    if (++i >= s.size()) return Status::Corruption("dangling escape");
    switch (s[i]) {
      case 't':
        out.push_back('\t');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case '\\':
        out.push_back('\\');
        break;
      default:
        return Status::Corruption("unknown escape \\" + std::string(1, s[i]));
    }
  }
  return out;
}

}  // namespace

std::string Value::ToDumpString(Type type, int scale) const {
  if (null_) return "\\N";
  switch (type) {
    case Type::kInt:
      return std::to_string(AsInt());
    case Type::kDecimal:
      return FormatDecimal(AsInt(), scale);
    case Type::kDate:
      return FormatDate(AsInt());
    case Type::kText:
      return EscapeText(AsText());
  }
  return "";
}

Result<Value> Value::FromDumpString(const std::string& s, Type type,
                                    int scale) {
  if (s == "\\N") return Null();
  switch (type) {
    case Type::kInt: {
      int64_t v = 0;
      if (!ParseInt64(s, &v)) return Status::Corruption("bad int '" + s + "'");
      return Int(v);
    }
    case Type::kDecimal: {
      if (scale < 0 || scale > kMaxDecimalScale) {
        return Status::Corruption("decimal scale " + std::to_string(scale) +
                                  " outside [0, " +
                                  std::to_string(kMaxDecimalScale) + "]");
      }
      int64_t scaled = 0;
      if (!ParseDecimal(s, scale, &scaled)) {
        return Status::Corruption("bad decimal '" + s + "'");
      }
      return Decimal(scaled);
    }
    case Type::kDate: {
      ULE_ASSIGN_OR_RETURN(int64_t days, ParseDate(s));
      return Date(days);
    }
    case Type::kText: {
      ULE_ASSIGN_OR_RETURN(std::string t, UnescapeText(s));
      return Text(std::move(t));
    }
  }
  return Status::InvalidArgument("unknown type");
}

}  // namespace minidb
}  // namespace ule
