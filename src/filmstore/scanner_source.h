/// \file scanner_source.h
/// \brief Scanner shim: a FrameSource that routes frames through the
/// print/scan degradation model on their way out.
///
/// End-to-end tests of the film path want "what a scanner hands back",
/// not the pristine rendered frames a reel stores. `ScannerSource` wraps
/// any inner `FrameSource` (a reel, a reel set, a vector of frames) and
/// applies `media::Scan` — optional bitonal printing, then geometric and
/// photometric distortion — to each frame as it is pulled, so a sharded
/// restore can exercise the realistic scanned-film path frame by frame
/// without ever materializing an intermediate image set.
///
/// Damage placement is deterministic *per frame index*: frame i is
/// scanned with `profile.seed + i`, so the same archive produces the
/// same scans no matter how it was sharded across reels or how many
/// threads pulled it. The print/scan model runs on the pulling thread;
/// the scans it yields are ready pixels.

#ifndef ULE_FILMSTORE_SCANNER_SOURCE_H_
#define ULE_FILMSTORE_SCANNER_SOURCE_H_

#include <memory>

#include "filmstore/frame_store.h"
#include "media/scanner.h"

namespace ule {
namespace filmstore {

class ScannerSource final : public FrameSource {
 public:
  struct Options {
    media::ScanProfile profile;  ///< distortion of every scan pass
    /// Threshold frames at 128 before scanning — the film recorder's
    /// bitonal write (media profiles with `bitonal_write`).
    bool bitonal_print = false;
  };

  /// Wraps `inner`; every frame it yields is printed/scanned on the way
  /// through. The shim owns the inner source.
  ScannerSource(std::unique_ptr<FrameSource> inner, const Options& options)
      : inner_(std::move(inner)), options_(options) {}

  Result<std::optional<media::PackedFrame>> Next() override;

 private:
  std::unique_ptr<FrameSource> inner_;
  Options options_;
  uint64_t index_ = 0;
};

}  // namespace filmstore
}  // namespace ule

#endif  // ULE_FILMSTORE_SCANNER_SOURCE_H_
