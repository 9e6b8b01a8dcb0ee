#include "filmstore/directory_store.h"

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <utility>

#include "support/io.h"

namespace ule {
namespace filmstore {

namespace {

constexpr char kManifestName[] = "manifest.txt";
constexpr char kBootstrapName[] = "bootstrap.txt";
constexpr char kIndexSectionName[] = "index.ules";

/// True for frame files a DirectoryWriter produces ("data-0007.pgm",
/// "system-0000.pbm", any digit count beyond four).
bool IsFrameFileName(const std::string& name) {
  size_t pos;
  if (name.rfind("data-", 0) == 0) {
    pos = 5;
  } else if (name.rfind("system-", 0) == 0) {
    pos = 7;
  } else {
    return false;
  }
  size_t digits = 0;
  while (pos + digits < name.size() &&
         std::isdigit(static_cast<unsigned char>(name[pos + digits]))) {
    ++digits;
  }
  if (digits < 4) return false;
  const std::string ext = name.substr(pos + digits);
  return ext == ".pgm" || ext == ".pbm";
}

/// Loads frame files one at a time until the per-stream count recorded in
/// the manifest is exhausted.
/// Loads one frame file; counts its on-disk bytes into `counters` (the
/// directory backend's "payload" is the frame file itself).
Result<media::Image> LoadFrameFile(const std::string& path, bool bitonal,
                                   ReadCounterCell* counters) {
  auto frame =
      bitonal ? media::Image::LoadPbm(path) : media::Image::LoadPgm(path);
  if (!frame.ok()) return frame.status();
  if (counters != nullptr) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    counters->Count(ec ? 0 : static_cast<uint64_t>(size));
  }
  return std::move(frame).TakeValue();
}

class DirectorySource final : public FrameSource {
 public:
  DirectorySource(std::string dir, mocoder::StreamId id, size_t count,
                  bool bitonal, std::shared_ptr<ReadCounterCell> counters)
      : dir_(std::move(dir)),
        id_(id),
        count_(count),
        bitonal_(bitonal),
        counters_(std::move(counters)) {}

  Result<std::optional<media::Image>> Next() override {
    if (next_ >= count_) return std::optional<media::Image>();
    const std::string path =
        JoinPath(dir_, FrameFileName(id_, next_++, bitonal_));
    ULE_ASSIGN_OR_RETURN(media::Image frame,
                         LoadFrameFile(path, bitonal_, counters_.get()));
    return std::optional<media::Image>(std::move(frame));
  }

 private:
  std::string dir_;
  mocoder::StreamId id_;
  size_t count_;
  bool bitonal_;
  std::shared_ptr<ReadCounterCell> counters_;
  size_t next_ = 0;
};

}  // namespace

std::string FrameFileName(mocoder::StreamId id, size_t i, bool bitonal) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s-%04zu.%s",
                id == mocoder::StreamId::kData ? "data" : "system", i,
                bitonal ? "pbm" : "pgm");
  return buf;
}

// ---------------------------------------------------------------------------
// Writer

DirectoryWriter::DirectoryWriter(const std::string& dir,
                                 const mocoder::Options& emblem,
                                 const Options& options)
    : dir_(dir), emblem_options_(emblem), options_(options) {}

Result<std::unique_ptr<DirectoryWriter>> DirectoryWriter::Create(
    const std::string& dir, const mocoder::Options& emblem_options,
    const Options& options) {
  ULE_RETURN_IF_ERROR(mocoder::ValidateOptions(emblem_options));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create directory " + dir + ": " +
                           ec.message());
  }
  // A reel directory equals exactly one archive: clear any previous
  // reel's artifacts (mirrors ContainerWriter truncating its file) so
  // stale frames from a larger or differently-coded archive cannot
  // linger next to the new ones. Unrelated files are left alone.
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IoError("cannot scan directory " + dir + ": " +
                           ec.message());
  }
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name != kManifestName && name != kBootstrapName &&
        name != kIndexSectionName && !IsFrameFileName(name)) {
      continue;
    }
    std::error_code rm_ec;
    std::filesystem::remove(entry.path(), rm_ec);
    if (rm_ec) {
      return Status::IoError("cannot remove stale reel file " +
                             entry.path().string() + ": " + rm_ec.message());
    }
  }
  return std::unique_ptr<DirectoryWriter>(
      new DirectoryWriter(dir, emblem_options, options));
}

Status DirectoryWriter::Append(mocoder::StreamId id,
                               const mocoder::EncodedEmblem& /*emblem*/,
                               media::Image&& frame) {
  if (finished_) {
    return Status::InvalidArgument("directory store already finished: " +
                                   dir_);
  }
  size_t& count =
      id == mocoder::StreamId::kData ? data_frames_ : system_frames_;
  const std::string path =
      JoinPath(dir_, FrameFileName(id, count, options_.bitonal));
  ULE_RETURN_IF_ERROR(options_.bitonal ? frame.SavePbm(path)
                                       : frame.SavePgm(path));
  ++count;
  return Status::OK();
}

Status DirectoryWriter::AppendBootstrap(const std::string& text) {
  if (finished_) {
    return Status::InvalidArgument("directory store already finished: " +
                                   dir_);
  }
  return WriteFileText(JoinPath(dir_, kBootstrapName), text);
}

Status DirectoryWriter::SetIndexSection(Bytes section) {
  if (finished_) {
    return Status::InvalidArgument("directory store already finished: " +
                                   dir_);
  }
  if (has_index_section_) {
    return Status::InvalidArgument(
        "directory store already has a record-index section: " + dir_);
  }
  index_section_ = std::move(section);
  has_index_section_ = true;
  return Status::OK();
}

Status DirectoryWriter::Finish() {
  if (finished_) {
    return Status::InvalidArgument("directory store already finished: " +
                                   dir_);
  }
  if (has_index_section_) {
    ULE_RETURN_IF_ERROR(
        WriteFileBytes(JoinPath(dir_, kIndexSectionName), index_section_));
    index_section_.clear();
    has_index_section_ = false;
  }
  std::ostringstream manifest;
  manifest << "# ULE film-reel directory (one image file per frame)\n"
           << "data_side: " << emblem_options_.data_side << "\n"
           << "dots_per_cell: " << emblem_options_.dots_per_cell << "\n"
           << "quiet_cells: " << emblem_options_.quiet_cells << "\n"
           << "data_frames: " << data_frames_ << "\n"
           << "system_frames: " << system_frames_ << "\n"
           << "frame_codec: " << (options_.bitonal ? "pbm" : "pgm") << "\n";
  ULE_RETURN_IF_ERROR(
      WriteFileText(JoinPath(dir_, kManifestName), manifest.str()));
  finished_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reader

Result<std::unique_ptr<DirectoryReader>> DirectoryReader::Open(
    const std::string& dir) {
  const std::string manifest_path = JoinPath(dir, kManifestName);
  if (!std::filesystem::exists(manifest_path)) {
    return Status::NotFound("no film-reel manifest (" +
                            std::string(kManifestName) + ") in " + dir);
  }
  ULE_ASSIGN_OR_RETURN(std::string manifest, ReadFileText(manifest_path));

  auto reader = std::unique_ptr<DirectoryReader>(new DirectoryReader());
  reader->dir_ = dir;
  reader->emblem_options_.threads = 0;
  long data_side = -1, dots = -1, quiet = -1, data_frames = -1,
       system_frames = -1;
  std::string codec;
  std::istringstream lines(manifest);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return Status::Corruption("bad manifest line in " + manifest_path +
                                ": " + line);
    }
    const std::string key = line.substr(0, colon);
    std::istringstream value(line.substr(colon + 1));
    if (key == "data_side") value >> data_side;
    else if (key == "dots_per_cell") value >> dots;
    else if (key == "quiet_cells") value >> quiet;
    else if (key == "data_frames") value >> data_frames;
    else if (key == "system_frames") value >> system_frames;
    else if (key == "frame_codec") value >> codec;
    // Unknown keys are ignored: manifests may grow fields.
  }
  if (data_side < 0 || dots < 0 || quiet < 0 || data_frames < 0 ||
      system_frames < 0 || (codec != "pgm" && codec != "pbm")) {
    return Status::Corruption("incomplete manifest: " + manifest_path);
  }
  reader->emblem_options_.data_side = static_cast<int>(data_side);
  reader->emblem_options_.dots_per_cell = static_cast<int>(dots);
  reader->emblem_options_.quiet_cells = static_cast<int>(quiet);
  ULE_RETURN_IF_ERROR(mocoder::ValidateOptions(reader->emblem_options_));
  reader->data_frames_ = static_cast<size_t>(data_frames);
  reader->system_frames_ = static_cast<size_t>(system_frames);
  reader->bitonal_ = codec == "pbm";
  return reader;
}

bool DirectoryReader::has_bootstrap() const {
  return std::filesystem::exists(JoinPath(dir_, kBootstrapName));
}

Result<std::string> DirectoryReader::ReadBootstrap() const {
  if (!has_bootstrap()) {
    return Status::NotFound("no " + std::string(kBootstrapName) + " in " +
                            dir_);
  }
  return ReadFileText(JoinPath(dir_, kBootstrapName));
}

std::unique_ptr<FrameSource> DirectoryReader::OpenFrames(
    mocoder::StreamId id) const {
  return std::make_unique<DirectorySource>(dir_, id, frame_count(id), bitonal_,
                                           counters_);
}

Result<media::Image> DirectoryReader::ReadFrame(mocoder::StreamId id,
                                                size_t index) const {
  if (index >= frame_count(id)) {
    return Status::OutOfRange(
        "frame " + std::to_string(index) + " out of range (stream has " +
        std::to_string(frame_count(id)) + " frames): " + dir_);
  }
  return LoadFrameFile(JoinPath(dir_, FrameFileName(id, index, bitonal_)),
                       bitonal_, counters_.get());
}

Result<Bytes> DirectoryReader::ReadIndexSection() const {
  const std::string path = JoinPath(dir_, kIndexSectionName);
  if (!std::filesystem::exists(path)) {
    return Status::NotFound("no record-index sidecar (" +
                            std::string(kIndexSectionName) + ") in " + dir_);
  }
  return ReadFileBytes(path);
}

Status DirectoryReader::Verify() const {
  for (mocoder::StreamId id :
       {mocoder::StreamId::kData, mocoder::StreamId::kSystem}) {
    auto source = OpenFrames(id);
    for (;;) {
      auto next = source->Next();
      if (!next.ok()) return next.status();
      if (!next.value().has_value()) break;
    }
  }
  return Status::OK();
}

}  // namespace filmstore
}  // namespace ule
