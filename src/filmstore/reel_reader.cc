#include "filmstore/reel_reader.h"

#include <filesystem>
#include <fstream>

#include "filmstore/container.h"
#include "filmstore/directory_store.h"
#include "filmstore/reel_set.h"

namespace ule {
namespace filmstore {

namespace {

/// A ULE-R1 catalog starts with "ULER"; a ULE-C1 container with "ULEC".
/// Sniffing the magic (instead of trusting an extension) keeps renamed
/// artifacts openable.
bool LooksLikeCatalog(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[4] = {0, 0, 0, 0};
  in.read(magic, 4);
  return in && magic[0] == 'U' && magic[1] == 'L' && magic[2] == 'E' &&
         magic[3] == 'R';
}

}  // namespace

Result<std::unique_ptr<ReelReader>> OpenReel(const std::string& path,
                                             const ReelOpenOptions& options) {
  if (std::filesystem::is_directory(path)) {
    ULE_ASSIGN_OR_RETURN(std::unique_ptr<DirectoryReader> reader,
                         DirectoryReader::Open(path));
    return std::unique_ptr<ReelReader>(std::move(reader));
  }
  if (LooksLikeCatalog(path)) {
    ULE_ASSIGN_OR_RETURN(std::unique_ptr<ReelSetReader> reader,
                         ReelSetReader::Open(path, options));
    return std::unique_ptr<ReelReader>(std::move(reader));
  }
  ULE_ASSIGN_OR_RETURN(std::unique_ptr<ContainerReader> reader,
                       ContainerReader::Open(path));
  return std::unique_ptr<ReelReader>(std::move(reader));
}

}  // namespace filmstore
}  // namespace ule
