/// \file date.h
/// \brief Civil (proleptic Gregorian) dates as days since 1970-01-01.
///
/// The one date implementation: minidb's DATE values and the columnar
/// dbcoder scheme both go through it, so a date the dump loader accepts
/// is exactly a date the columnar encoder can store.

#ifndef ULE_SUPPORT_DATE_H_
#define ULE_SUPPORT_DATE_H_

#include <cstdint>
#include <string>

#include "support/status.h"

namespace ule {

/// Days since 1970-01-01 of year `y`, month `m` (1-12), day `d` (1-31).
int64_t DaysFromCivil(int y, int m, int d);
void CivilFromDays(int64_t days, int* y, int* m, int* d);

/// `days` as "YYYY-MM-DD".
std::string FormatDate(int64_t days);

/// Parses exactly "YYYY-MM-DD" (ten characters, all eight Y/M/D places
/// decimal digits) naming a real date. Anything else — "2024-02-31",
/// "19x5-03-15", "1995-1 -05" — is InvalidArgument naming the value,
/// never a rewritten date: every accepted string formats back to itself.
Result<int64_t> ParseDate(const std::string& iso);

}  // namespace ule

#endif  // ULE_SUPPORT_DATE_H_
