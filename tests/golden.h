/// \file golden.h
/// \brief Paths of the committed golden archives (tests/golden/README.md).

#ifndef ULE_TESTS_GOLDEN_H_
#define ULE_TESTS_GOLDEN_H_

#include <string>

namespace ule {
namespace testutil {

/// Absolute path of a file under tests/golden/ (ULE_GOLDEN_DIR is set by
/// tests/CMakeLists.txt).
inline std::string GoldenPath(const std::string& name) {
  return std::string(ULE_GOLDEN_DIR) + "/" + name;
}

}  // namespace testutil
}  // namespace ule

#endif  // ULE_TESTS_GOLDEN_H_
