#include "media/image.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstring>
#include <limits>

#include "support/io.h"

namespace ule {
namespace media {

uint8_t Image::at_clamped(int x, int y) const {
  x = std::clamp(x, 0, width_ - 1);
  y = std::clamp(y, 0, height_ - 1);
  return at(x, y);
}

double Image::Sample(double x, double y) const {
  // floor() as truncate-and-adjust: the same value as std::floor for every
  // coordinate whose floor fits an int, without a libm call.
  int x0 = static_cast<int>(x);
  int y0 = static_cast<int>(y);
  if (x0 > x) --x0;
  if (y0 > y) --y0;
  const double fx = x - x0;
  const double fy = y - y0;
  double a, b, c, d;
  if (x0 >= 0 && y0 >= 0 && x0 < width_ - 1 && y0 < height_ - 1) {
    // Interior: the 2x2 neighbourhood read through two row pointers.
    const uint8_t* row0 =
        pixels_.data() + static_cast<size_t>(y0) * width_ + x0;
    const uint8_t* row1 = row0 + width_;
    a = row0[0];
    b = row0[1];
    c = row1[0];
    d = row1[1];
  } else {
    a = at_clamped(x0, y0);
    b = at_clamped(x0 + 1, y0);
    c = at_clamped(x0, y0 + 1);
    d = at_clamped(x0 + 1, y0 + 1);
  }
  return a * (1 - fx) * (1 - fy) + b * fx * (1 - fy) + c * (1 - fx) * fy +
         d * fx * fy;
}

void Image::FillRect(int x, int y, int w, int h, uint8_t v) {
  const int x1 = std::min(x + w, width_);
  const int y1 = std::min(y + h, height_);
  for (int yy = std::max(0, y); yy < y1; ++yy) {
    for (int xx = std::max(0, x); xx < x1; ++xx) set(xx, yy, v);
  }
}

Bytes Image::ToPgm() const {
  std::string header = "P5\n" + std::to_string(width_) + " " +
                       std::to_string(height_) + "\n255\n";
  Bytes out = ToBytes(header);
  out.insert(out.end(), pixels_.begin(), pixels_.end());
  return out;
}

namespace {

// Parses "P5\n<w> <h>\n<max>\n" style headers with arbitrary whitespace and
// '#' comments. Returns the offset of the first pixel byte.
Result<size_t> ParseNetpbmHeader(BytesView data, const char* magic, int* w,
                                 int* h, int* maxval, bool has_maxval) {
  size_t pos = 0;
  auto skip_space = [&]() {
    while (pos < data.size()) {
      if (std::isspace(data[pos])) {
        ++pos;
      } else if (data[pos] == '#') {
        while (pos < data.size() && data[pos] != '\n') ++pos;
      } else {
        break;
      }
    }
  };
  if (data.size() < 2 || data[0] != magic[0] || data[1] != magic[1]) {
    return Status::Corruption(std::string("not a ") + magic + " image");
  }
  pos = 2;
  auto read_int = [&]() -> Result<int> {
    skip_space();
    int v = 0;
    bool any = false;
    while (pos < data.size() && std::isdigit(data[pos])) {
      const int digit = data[pos] - '0';
      if (v > (std::numeric_limits<int>::max() - digit) / 10) {
        return Status::Corruption("netpbm header number out of range");
      }
      v = v * 10 + digit;
      ++pos;
      any = true;
    }
    if (!any) return Status::Corruption("bad netpbm header");
    return v;
  };
  ULE_ASSIGN_OR_RETURN(*w, read_int());
  ULE_ASSIGN_OR_RETURN(*h, read_int());
  if (has_maxval) {
    ULE_ASSIGN_OR_RETURN(*maxval, read_int());
  }
  if (pos >= data.size() || !std::isspace(data[pos])) {
    return Status::Corruption("bad netpbm header terminator");
  }
  ++pos;  // single whitespace after header
  return pos;
}

size_t PbmRowBytes(int width) { return (static_cast<size_t>(width) + 7) / 8; }

}  // namespace

Result<NetpbmLayout> ParseNetpbm(BytesView data, NetpbmFormat format) {
  NetpbmLayout layout;
  layout.format = format;
  int* w = &layout.width;
  int* h = &layout.height;
  if (format == NetpbmFormat::kPgm) {
    int maxval = 255;
    ULE_ASSIGN_OR_RETURN(layout.pixel_offset,
                         ParseNetpbmHeader(data, "P5", w, h, &maxval, true));
    if (*w <= 0 || *h <= 0 || maxval != 255) {
      return Status::Corruption("unsupported PGM geometry");
    }
    if (data.size() - layout.pixel_offset < static_cast<size_t>(*w) * *h) {
      return Status::Corruption("truncated PGM");
    }
    return layout;
  }
  int unused = 0;
  ULE_ASSIGN_OR_RETURN(layout.pixel_offset,
                       ParseNetpbmHeader(data, "P4", w, h, &unused, false));
  if (*w <= 0 || *h <= 0) return Status::Corruption("bad PBM geometry");
  if (data.size() - layout.pixel_offset < PbmRowBytes(*w) * *h) {
    return Status::Corruption("truncated PBM");
  }
  return layout;
}

void ExpandNetpbm(BytesView data, const NetpbmLayout& layout, Image* out) {
  const int w = layout.width;
  const int h = layout.height;
  out->width_ = w;
  out->height_ = h;
  // resize() keeps the buffer and fills only what it grows by; every
  // pixel is written below.
  out->pixels_.resize(static_cast<size_t>(w) * h);
  const uint8_t* pixels = data.data() + layout.pixel_offset;
  if (layout.format == NetpbmFormat::kPgm) {
    std::memcpy(out->pixels_.data(), pixels, out->pixels_.size());
    return;
  }
  // One table lookup per input byte: its eight pixels, most significant bit
  // first, 1 = black. A row's last byte contributes only its leading w % 8
  // pixels; the padding bits after them are ignored, whatever they hold.
  static const std::array<std::array<uint8_t, 8>, 256> kExpand = [] {
    std::array<std::array<uint8_t, 8>, 256> table{};
    for (int byte = 0; byte < 256; ++byte) {
      for (int i = 0; i < 8; ++i) {
        table[byte][i] = ((byte >> (7 - i)) & 1) ? 0 : 255;
      }
    }
    return table;
  }();
  const size_t row_bytes = PbmRowBytes(w);
  const int full_bytes = w / 8;
  const int tail_pixels = w % 8;
  for (int y = 0; y < h; ++y) {
    const uint8_t* src = pixels + static_cast<size_t>(y) * row_bytes;
    uint8_t* dst = out->pixels_.data() + static_cast<size_t>(y) * w;
    for (int b = 0; b < full_bytes; ++b, dst += 8) {
      std::memcpy(dst, kExpand[src[b]].data(), 8);
    }
    if (tail_pixels > 0) {
      std::memcpy(dst, kExpand[src[full_bytes]].data(), tail_pixels);
    }
  }
}

Result<Image> Image::FromPgm(BytesView data) {
  ULE_ASSIGN_OR_RETURN(NetpbmLayout layout,
                       ParseNetpbm(data, NetpbmFormat::kPgm));
  Image img;
  ExpandNetpbm(data, layout, &img);
  return img;
}

Bytes Image::ToPbm() const {
  std::string header = "P4\n" + std::to_string(width_) + " " +
                       std::to_string(height_) + "\n";
  Bytes out = ToBytes(header);
  const int row_bytes = (width_ + 7) / 8;
  for (int y = 0; y < height_; ++y) {
    for (int b = 0; b < row_bytes; ++b) {
      uint8_t byte = 0;
      for (int i = 0; i < 8; ++i) {
        const int x = b * 8 + i;
        const bool black = (x < width_) && at(x, y) < 128;
        byte = static_cast<uint8_t>((byte << 1) | (black ? 1 : 0));
      }
      out.push_back(byte);
    }
  }
  return out;
}

Result<Image> Image::FromPbm(BytesView data) {
  ULE_ASSIGN_OR_RETURN(NetpbmLayout layout,
                       ParseNetpbm(data, NetpbmFormat::kPbm));
  Image img;
  ExpandNetpbm(data, layout, &img);
  return img;
}

Status Image::SavePgm(const std::string& path) const {
  return WriteFileBytes(path, ToPgm());
}

Status Image::SavePbm(const std::string& path) const {
  return WriteFileBytes(path, ToPbm());
}

Result<PackedFrame> PackedFrame::Parse(Bytes record, NetpbmFormat format) {
  ULE_ASSIGN_OR_RETURN(NetpbmLayout layout, ParseNetpbm(record, format));
  PackedFrame frame;
  frame.record_ = std::move(record);
  frame.layout_ = layout;
  return frame;
}

const Image& PackedFrame::Unpack(Image* scratch) const {
  if (!layout_) return image_;
  ExpandNetpbm(record_, *layout_, scratch);
  return *scratch;
}

Image PackedFrame::TakeImage() {
  Image out;
  if (layout_) {
    ExpandNetpbm(record_, *layout_, &out);
  } else {
    out = std::move(image_);
  }
  *this = PackedFrame();
  return out;
}

}  // namespace media
}  // namespace ule
