#include "filmstore/scanner_source.h"

#include <utility>

namespace ule {
namespace filmstore {

Result<std::optional<media::PackedFrame>> ScannerSource::Next() {
  ULE_ASSIGN_OR_RETURN(std::optional<media::PackedFrame> packed,
                       inner_->Next());
  if (!packed.has_value()) return std::optional<media::PackedFrame>();
  media::Image frame = packed->TakeImage();
  if (options_.bitonal_print) {
    for (auto& px : frame.mutable_pixels()) px = px < 128 ? 0 : 255;
  }
  media::ScanProfile profile = options_.profile;
  profile.seed = options_.profile.seed + index_;
  ++index_;
  return std::optional<media::PackedFrame>(media::Scan(frame, profile));
}

}  // namespace filmstore
}  // namespace ule
