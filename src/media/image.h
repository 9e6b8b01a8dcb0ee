/// \file image.h
/// \brief 8-bit grayscale raster used by the analog-media simulation.
///
/// Scanned microform/paper/film arrives in the restore pipeline as plain
/// grayscale rasters ("the user converts the images containing emblems into
/// a linear flat array of pixel intensities", §3.3). PGM (P5) and PBM (P4)
/// round-tripping is provided so every intermediate artefact can be dumped
/// and inspected. A restore checks a netpbm record on the thread that
/// reads it (`ParseNetpbm`) and expands its pixels later, on whichever
/// thread decodes it, into a buffer that thread reuses (`PackedFrame`).

#ifndef ULE_MEDIA_IMAGE_H_
#define ULE_MEDIA_IMAGE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/bytes.h"
#include "support/status.h"

namespace ule {
namespace media {

/// Binary netpbm formats a frame record can be stored in.
enum class NetpbmFormat : uint8_t {
  kPgm,  ///< P5, 8-bit grayscale (maxval 255)
  kPbm,  ///< P4, bitonal, rows padded to whole bytes, 1 = black
};

/// Geometry of a netpbm record that ParseNetpbm accepted.
struct NetpbmLayout {
  NetpbmFormat format = NetpbmFormat::kPgm;
  int width = 0;
  int height = 0;
  size_t pixel_offset = 0;  ///< first pixel byte, just past the header
};

/// \brief Checks one netpbm record without expanding it: magic, header
/// numbers, geometry, maxval (PGM: 255) and that the pixel bytes are all
/// there. The one parser behind Image::FromPgm/FromPbm; fails with the
/// same Corruption they do.
Result<NetpbmLayout> ParseNetpbm(BytesView data, NetpbmFormat format);

class Image;

/// \brief Expands the pixels of a record ParseNetpbm accepted (`layout`
/// must come from ParseNetpbm on these bytes) into `*out`, giving it the
/// record's geometry. Cannot fail. Reuses out's pixel buffer: when the
/// pixel count already matches, nothing is allocated or filled before
/// every pixel is overwritten.
void ExpandNetpbm(BytesView data, const NetpbmLayout& layout, Image* out);

/// \brief Row-major 8-bit grayscale image. 0 = black, 255 = white.
class Image {
 public:
  Image() = default;
  Image(int width, int height, uint8_t fill = 255)
      : width_(width), height_(height),
        pixels_(static_cast<size_t>(width) * height, fill) {}

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return pixels_.empty(); }

  uint8_t at(int x, int y) const {
    return pixels_[static_cast<size_t>(y) * width_ + x];
  }
  void set(int x, int y, uint8_t v) {
    pixels_[static_cast<size_t>(y) * width_ + x] = v;
  }
  /// at() with clamped coordinates (edge extension).
  uint8_t at_clamped(int x, int y) const;
  /// Bilinear sample at fractional coordinates, clamped at edges.
  double Sample(double x, double y) const;

  void FillRect(int x, int y, int w, int h, uint8_t v);

  const std::vector<uint8_t>& pixels() const { return pixels_; }
  std::vector<uint8_t>& mutable_pixels() { return pixels_; }

  /// Serialises as binary PGM (P5).
  Bytes ToPgm() const;
  /// ParseNetpbm + ExpandNetpbm.
  static Result<Image> FromPgm(BytesView data);

  /// Serialises as bitonal PBM (P4); pixels < 128 become black. Microfilm
  /// writers produce bitonal TIFFs (§4); PBM is our equivalent container.
  Bytes ToPbm() const;
  /// ParseNetpbm + ExpandNetpbm.
  static Result<Image> FromPbm(BytesView data);

  /// Writes PGM files on the host filesystem (for examples/benches and the
  /// film-store directory backend).
  Status SavePgm(const std::string& path) const;

  /// Writes bitonal PBM files (used by the film-store directory backend
  /// for microfilm-style bitonal reels). Lossy for grayscale content:
  /// pixels < 128 become black. Round-trips rendered (pure 0/255) frames
  /// exactly.
  Status SavePbm(const std::string& path) const;

 private:
  friend void ExpandNetpbm(BytesView data, const NetpbmLayout& layout,
                           Image* out);

  int width_ = 0;
  int height_ = 0;
  std::vector<uint8_t> pixels_;
};

/// \brief One frame on its way from a reel to a decoder: ready pixels, or
/// one netpbm record that ParseNetpbm has checked, still packed (a
/// microfilm PBM scan is 3.1 MB packed, 25 MB expanded). Move-only.
/// Whoever decodes the frame expands it, so a reader that only reads,
/// checks and hands frames on never holds a raster.
class PackedFrame {
 public:
  PackedFrame() = default;
  /// Wraps ready pixels.
  explicit PackedFrame(Image image) : image_(std::move(image)) {}
  /// Checks `record` with ParseNetpbm and keeps it packed.
  static Result<PackedFrame> Parse(Bytes record, NetpbmFormat format);

  PackedFrame(PackedFrame&&) = default;
  PackedFrame& operator=(PackedFrame&&) = default;
  PackedFrame(const PackedFrame&) = delete;
  PackedFrame& operator=(const PackedFrame&) = delete;

  /// The pixels: the ready image, or the record expanded into `*scratch`
  /// (ExpandNetpbm, reusing its buffer). The result aliases this frame or
  /// `*scratch`. Cannot fail.
  const Image& Unpack(Image* scratch) const;
  /// The pixels as an image of their own: moves ready pixels out, or
  /// expands the record into a new image. Leaves the frame empty.
  Image TakeImage();

 private:
  Image image_;                        ///< ready pixels (no layout_)
  Bytes record_;                       ///< the packed record (layout_)
  std::optional<NetpbmLayout> layout_;
};

}  // namespace media
}  // namespace ule

#endif  // ULE_MEDIA_IMAGE_H_
