/// \file testutil.h
/// \brief Shared helpers for the ULE test suites.
///
/// Every suite that needs deterministic random buffers, a tiny TPC-H dump,
/// or fast end-to-end archive options should use these instead of pasting
/// its own copy (they used to be duplicated across end_to_end_test.cc,
/// dbcoder_test.cc, decoders_test.cc, rs_test.cc and mocoder_test.cc).

#ifndef ULE_TESTS_TESTUTIL_H_
#define ULE_TESTS_TESTUTIL_H_

#include <gtest/gtest.h>

#include <string>

#include "core/micr_olonys.h"
#include "minidb/sqldump.h"
#include "tpch/tpch.h"

namespace ule {
namespace testutil {

// Deterministic random buffers live in support/random.h (ule::RandomBytes);
// this header only carries helpers that need the heavyweight core/tpch
// headers, so unit suites don't pay for them.

/// SQL dump of a deterministically generated miniature TPC-H database.
/// The default scale keeps an archive + native restore in the hundreds of
/// milliseconds.
inline std::string SmallTpchDump(double scale_factor = 0.0002) {
  tpch::Options opt;
  opt.scale_factor = scale_factor;
  auto db = tpch::Generate(opt);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return minidb::DumpSql(db.value());
}

/// Archive options sized for tests: small emblems, coarse dots.
inline core::ArchiveOptions SmallArchiveOptions() {
  core::ArchiveOptions opt;
  opt.emblem.data_side = 128;
  opt.emblem.dots_per_cell = 4;
  return opt;
}

}  // namespace testutil
}  // namespace ule

#endif  // ULE_TESTS_TESTUTIL_H_
