#include "support/date.h"

#include <cstdio>

namespace ule {

// Howard Hinnant's days_from_civil / civil_from_days.
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2) / 5 +
      static_cast<unsigned>(d) - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097LL + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* y, int* m, int* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  *m = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  *y = static_cast<int>(yy + (*m <= 2));
}

std::string FormatDate(int64_t days) {
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

Result<int64_t> ParseDate(const std::string& s) {
  // Reads s[pos, pos + n) as a decimal number; false on any non-digit.
  const auto digits = [&s](size_t pos, size_t n, int* out) {
    *out = 0;
    for (size_t i = pos; i < pos + n; ++i) {
      if (s[i] < '0' || s[i] > '9') return false;
      *out = *out * 10 + (s[i] - '0');
    }
    return true;
  };
  int y, m, d;
  if (s.size() == 10 && s[4] == '-' && s[7] == '-' && digits(0, 4, &y) &&
      digits(5, 2, &m) && digits(8, 2, &d) && m >= 1 && m <= 12 && d >= 1 &&
      d <= 31) {
    // The round trip rejects days past the month's end (2024-02-31).
    const int64_t days = DaysFromCivil(y, m, d);
    int yy, mm, dd;
    CivilFromDays(days, &yy, &mm, &dd);
    if (yy == y && mm == m && dd == d) return days;
  }
  return Status::InvalidArgument("bad date '" + s + "'");
}

}  // namespace ule
