/// \file directory_store.h
/// \brief Film store as a directory of image files — "the reel as a
/// folder of scans".
///
/// One image file per frame (`data-0000.pgm`, `system-0003.pbm`, ...),
/// the Bootstrap document as `bootstrap.txt`, and a human-readable
/// `manifest.txt` recording the emblem geometry and frame counts. This is
/// the browsable backend: every artifact opens in a stock image viewer
/// and text editor, which is exactly what a future historian holding a
/// box of scanned frames has. For a sealed, CRC-protected single file use
/// the ULE-C1 container (`container.h`) instead.

#ifndef ULE_FILMSTORE_DIRECTORY_STORE_H_
#define ULE_FILMSTORE_DIRECTORY_STORE_H_

#include <memory>
#include <string>

#include "filmstore/frame_store.h"
#include "filmstore/reel_reader.h"
#include "mocoder/mocoder.h"
#include "support/status.h"

namespace ule {
namespace filmstore {

/// \brief Writes one image file per frame into a directory. Plugs into
/// `ArchiveDumpStreaming` as its FrameSink; peak memory is O(1) frames.
class DirectoryWriter final : public ArchiveWriter {
 public:
  struct Options {
    /// Store frames as bitonal PBM instead of lossless PGM.
    bool bitonal = false;
  };

  /// Creates `dir` (and parents) if needed, and removes any previous
  /// reel's artifacts in it (frame images, manifest, bootstrap) so the
  /// directory holds exactly this archive; unrelated files are left
  /// alone.
  static Result<std::unique_ptr<DirectoryWriter>> Create(
      const std::string& dir, const mocoder::Options& emblem_options,
      const Options& options);
  static Result<std::unique_ptr<DirectoryWriter>> Create(
      const std::string& dir, const mocoder::Options& emblem_options) {
    return Create(dir, emblem_options, Options());
  }

  Status Append(mocoder::StreamId id, const mocoder::EncodedEmblem& emblem,
                media::Image&& frame) override;

  /// Writes the Bootstrap document as `bootstrap.txt`.
  Status AppendBootstrap(const std::string& text) override;

  /// Stores the ULE-S1 record-index section; Finish writes it as the
  /// `index.ules` sidecar file next to the frames.
  Status SetIndexSection(Bytes section) override;

  /// Writes `manifest.txt` (geometry + frame counts). Call last; a
  /// directory without a manifest does not open.
  Status Finish() override;

 private:
  DirectoryWriter(const std::string& dir, const mocoder::Options& emblem,
                  const Options& options);

  std::string dir_;
  mocoder::Options emblem_options_;
  Options options_;
  size_t data_frames_ = 0;
  size_t system_frames_ = 0;
  Bytes index_section_;
  bool has_index_section_ = false;
  bool finished_ = false;
};

/// \brief Reads a DirectoryWriter-shaped directory back: manifest,
/// bootstrap, and per-stream frame sources that load one file at a time.
class DirectoryReader final : public ReelReader {
 public:
  /// Parses `<dir>/manifest.txt`. NotFound when there is no manifest,
  /// Corruption when it does not parse.
  static Result<std::unique_ptr<DirectoryReader>> Open(
      const std::string& dir);

  const std::string& dir() const { return dir_; }
  bool bitonal() const { return bitonal_; }

  const char* kind() const override { return "directory"; }
  const mocoder::Options& emblem_options() const override {
    return emblem_options_;
  }
  size_t frame_count(mocoder::StreamId id) const override {
    return id == mocoder::StreamId::kData ? data_frames_ : system_frames_;
  }
  bool has_bootstrap() const override;
  Result<std::string> ReadBootstrap() const override;
  /// Pull source over one stream's frame files, reading and
  /// header-checking one file per Next() call (pixels stay packed).
  std::unique_ptr<FrameSource> OpenFrames(
      mocoder::StreamId id) const override;
  /// Loads the frame file at per-stream position `index`.
  Result<media::Image> ReadFrame(mocoder::StreamId id,
                                 size_t index) const override;
  /// Reads the `index.ules` sidecar; NotFound when the reel was written
  /// without one.
  Result<Bytes> ReadIndexSection() const override;
  ReadCounters read_counters() const override { return counters_->Snapshot(); }
  /// Reads every frame file once and checks that it parses, without
  /// expanding its pixels (directory reels carry no checksums).
  Status Verify() const override;

 private:
  DirectoryReader() = default;

  std::string dir_;
  mocoder::Options emblem_options_;
  size_t data_frames_ = 0;
  size_t system_frames_ = 0;
  bool bitonal_ = false;
  std::shared_ptr<ReadCounterCell> counters_ =
      std::make_shared<ReadCounterCell>();
};

/// Frame file name for stream `id`, per-stream index `i` (shared by the
/// writer, reader, and tests): "data-0007.pgm", "system-0000.pbm", ...
std::string FrameFileName(mocoder::StreamId id, size_t i, bool bitonal);

}  // namespace filmstore
}  // namespace ule

#endif  // ULE_FILMSTORE_DIRECTORY_STORE_H_
