#include "support/io.h"

#include <filesystem>
#include <fstream>
#include <iterator>

namespace ule {

Result<Bytes> ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IoError("cannot open " + path);
  Bytes data((std::istreambuf_iterator<char>(f)),
             std::istreambuf_iterator<char>());
  if (f.bad()) return Status::IoError("read failed: " + path);
  return data;
}

Result<std::string> ReadFileText(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IoError("cannot open " + path);
  std::string data((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  if (f.bad()) return Status::IoError("read failed: " + path);
  return data;
}

Status WriteFileBytes(const std::string& path, BytesView data) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Status::IoError("cannot open " + path + " for writing");
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  f.flush();
  return f ? Status::OK() : Status::IoError("write failed: " + path);
}

Status WriteFileText(const std::string& path, std::string_view text) {
  return WriteFileBytes(
      path, BytesView(reinterpret_cast<const uint8_t*>(text.data()),
                      text.size()));
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  return (std::filesystem::path(dir) / name).string();
}

}  // namespace ule
