/// \file io.h
/// \brief Whole-file read/write helpers on the host filesystem.
///
/// The film-store backends (and the ulectl CLI) move byte buffers between
/// memory and disk; these helpers centralize the open/stream/close ritual
/// and turn every host failure into a Status instead of an exception or a
/// half-written artifact.

#ifndef ULE_SUPPORT_IO_H_
#define ULE_SUPPORT_IO_H_

#include <string>
#include <string_view>

#include "support/bytes.h"
#include "support/status.h"

namespace ule {

/// Reads an entire file into a byte buffer. IoError when the file cannot
/// be opened or read.
Result<Bytes> ReadFileBytes(const std::string& path);

/// Reads an entire file into a string (binary-safe).
Result<std::string> ReadFileText(const std::string& path);

/// Writes `data` to `path`, replacing any existing file.
Status WriteFileBytes(const std::string& path, BytesView data);

/// Writes `text` to `path`, replacing any existing file.
Status WriteFileText(const std::string& path, std::string_view text);

/// `dir/name` in the host's path syntax; just `name` when `dir` is empty.
std::string JoinPath(const std::string& dir, const std::string& name);

}  // namespace ule

#endif  // ULE_SUPPORT_IO_H_
