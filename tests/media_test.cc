// Tests for the media substrate: image container, PGM/PBM round trips,
// scan distortion model determinism and effect sizes.

#include <gtest/gtest.h>

#include <string>

#include "media/image.h"
#include "media/profiles.h"
#include "media/scanner.h"

namespace ule {
namespace media {
namespace {

Image Checkerboard(int w, int h, int square) {
  Image img(w, h, 255);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (((x / square) + (y / square)) % 2 == 0) img.set(x, y, 0);
    }
  }
  return img;
}

TEST(ImageTest, BasicAccess) {
  Image img(10, 5, 200);
  EXPECT_EQ(img.width(), 10);
  EXPECT_EQ(img.height(), 5);
  EXPECT_EQ(img.at(3, 2), 200);
  img.set(3, 2, 7);
  EXPECT_EQ(img.at(3, 2), 7);
}

TEST(ImageTest, ClampedAccess) {
  Image img(4, 4, 100);
  img.set(0, 0, 1);
  img.set(3, 3, 2);
  EXPECT_EQ(img.at_clamped(-5, -5), 1);
  EXPECT_EQ(img.at_clamped(10, 10), 2);
}

TEST(ImageTest, BilinearSample) {
  Image img(2, 1);
  img.set(0, 0, 0);
  img.set(1, 0, 100);
  EXPECT_NEAR(img.Sample(0.5, 0.0), 50.0, 1e-9);
  EXPECT_NEAR(img.Sample(0.25, 0.0), 25.0, 1e-9);
}

TEST(ImageTest, FillRectClips) {
  Image img(8, 8, 255);
  img.FillRect(6, 6, 10, 10, 0);
  EXPECT_EQ(img.at(7, 7), 0);
  EXPECT_EQ(img.at(5, 5), 255);
}

TEST(ImageTest, PgmRoundTrip) {
  Image img = Checkerboard(33, 17, 3);
  auto back = Image::FromPgm(img.ToPgm());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().pixels(), img.pixels());
}

TEST(ImageTest, PbmRoundTripBitonal) {
  Image img = Checkerboard(30, 12, 2);
  auto back = Image::FromPbm(img.ToPbm());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().pixels(), img.pixels());  // already bitonal
}

TEST(ImageTest, PbmRoundTripAtOddWidths) {
  // Widths around the byte boundary: a lone tail bit, a 7-bit tail, whole
  // bytes only, and one or five pixels into the next byte.
  for (int w : {1, 7, 8, 9, 13}) {
    Image img(w, 5, 255);
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < w; ++x) {
        if ((x * 3 + y * 5) % 7 < 3) img.set(x, y, 0);
      }
    }
    auto back = Image::FromPbm(img.ToPbm());
    ASSERT_TRUE(back.ok()) << "width " << w;
    EXPECT_EQ(back.value().width(), w);
    EXPECT_EQ(back.value().pixels(), img.pixels()) << "width " << w;
  }
}

TEST(ImageTest, PbmIgnoresRowPaddingBits) {
  // Width 13 leaves 3 padding bits per row; set them all to 1 (black).
  Bytes pbm = ToBytes("P4\n13 2\n");
  const size_t header = pbm.size();
  pbm.insert(pbm.end(), {0x80, 0x07, 0x00, 0x0F});
  auto img = Image::FromPbm(pbm);
  ASSERT_TRUE(img.ok()) << img.status().ToString();
  ASSERT_EQ(img.value().width(), 13);
  for (int x = 0; x < 13; ++x) {
    EXPECT_EQ(img.value().at(x, 0), x == 0 ? 0 : 255) << "row 0, x " << x;
    EXPECT_EQ(img.value().at(x, 1), x >= 12 ? 0 : 255) << "row 1, x " << x;
  }
  // Re-encoding clears the padding again.
  Bytes expected = pbm;
  expected[header + 1] = 0x00;
  expected[header + 3] = 0x08;
  EXPECT_EQ(img.value().ToPbm(), expected);
}

TEST(ImageTest, PbmThresholdsGray) {
  Image img(3, 1);
  img.set(0, 0, 10);
  img.set(1, 0, 127);
  img.set(2, 0, 128);
  auto back = Image::FromPbm(img.ToPbm());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().at(0, 0), 0);
  EXPECT_EQ(back.value().at(1, 0), 0);
  EXPECT_EQ(back.value().at(2, 0), 255);
}

TEST(ImageTest, RejectsGarbage) {
  EXPECT_FALSE(Image::FromPgm(ToBytes("not an image")).ok());
  EXPECT_FALSE(Image::FromPbm(ToBytes("P4")).ok());
  EXPECT_FALSE(Image::FromPgm(ToBytes("P5\n10 10\n255\n")).ok());  // truncated
}

// A header number past INT_MAX must be refused, not wrapped: read modulo
// 2^32, each of these headers would describe a 1x1 (or 8x1) image that
// its single pixel byte satisfies.
TEST(ImageTest, RejectsHeaderNumbersThatOverflowInt) {
  for (const char* header : {"P5\n4294967297 1\n255\n",
                             "P5\n1 4294967297\n255\n"}) {
    auto img = Image::FromPgm(ToBytes(std::string(header) + "x"));
    ASSERT_FALSE(img.ok()) << header;
    EXPECT_EQ(img.status().code(), StatusCode::kCorruption) << header;
  }
  auto pbm = Image::FromPbm(ToBytes("P4\n4294967304 1\nx"));
  ASSERT_FALSE(pbm.ok());
  EXPECT_EQ(pbm.status().code(), StatusCode::kCorruption);
}

TEST(ScannerTest, IdentityProfileIsNearLossless) {
  Image img = Checkerboard(100, 100, 5);
  ScanProfile clean;  // all defaults
  Image out = Scan(img, clean);
  ASSERT_EQ(out.width(), 100);
  int diffs = 0;
  for (int y = 2; y < 98; ++y) {
    for (int x = 2; x < 98; ++x) {
      if (std::abs(int(out.at(x, y)) - int(img.at(x, y))) > 30) ++diffs;
    }
  }
  EXPECT_LT(diffs, 100);
}

TEST(ScannerTest, Deterministic) {
  Image img = Checkerboard(80, 80, 4);
  ScanProfile p;
  p.noise_sigma = 10;
  p.dust_per_megapixel = 50;
  p.seed = 99;
  Image a = Scan(img, p);
  Image b = Scan(img, p);
  EXPECT_EQ(a.pixels(), b.pixels());
  p.seed = 100;
  Image c = Scan(img, p);
  EXPECT_NE(c.pixels(), a.pixels());
}

TEST(ScannerTest, ScaleChangesDimensions) {
  Image img(50, 40);
  ScanProfile p;
  p.scale = 2.0;
  Image out = Scan(img, p);
  EXPECT_EQ(out.width(), 100);
  EXPECT_EQ(out.height(), 80);
}

TEST(ScannerTest, RotationMovesContent) {
  // An interior patch (clear of the clamped image edges) must move under a
  // 10-degree skew: the patch centre sits ~71 px from the rotation centre,
  // so it displaces by ~12 px.
  Image img(200, 200, 255);
  img.FillRect(40, 40, 20, 20, 0);
  ScanProfile p;
  p.rotation_deg = 10.0;
  Image out = Scan(img, p);
  int black_in_place = 0;
  for (int y = 40; y < 60; ++y) {
    for (int x = 40; x < 60; ++x) {
      if (out.at(x, y) < 128) ++black_in_place;
    }
  }
  EXPECT_LT(black_in_place, 360);  // fully stationary would be 400
  int black_total = 0;
  for (uint8_t v : out.pixels()) {
    if (v < 128) ++black_total;
  }
  EXPECT_GT(black_total, 300);  // the patch still exists somewhere
}

TEST(ScannerTest, NoiseRaisesVariance) {
  Image img(64, 64, 128);
  ScanProfile p;
  p.noise_sigma = 20;
  Image out = Scan(img, p);
  double mean = 0;
  for (uint8_t v : out.pixels()) mean += v;
  mean /= out.pixels().size();
  double var = 0;
  for (uint8_t v : out.pixels()) var += (v - mean) * (v - mean);
  var /= out.pixels().size();
  EXPECT_GT(var, 100.0);  // sigma 20 -> variance ~400 before clamping
}

TEST(ScannerTest, DustCreatesSpecks) {
  Image img(256, 256, 255);
  ScanProfile p;
  p.dust_per_megapixel = 500;
  Image out = Scan(img, p);
  int dark = 0;
  for (uint8_t v : out.pixels()) {
    if (v < 100) ++dark;
  }
  EXPECT_GT(dark, 20);
}

TEST(ScannerTest, BitonalOutputIsBinary) {
  Image img = Checkerboard(60, 60, 3);
  ScanProfile p;
  p.noise_sigma = 15;
  p.bitonal = true;
  Image out = Scan(img, p);
  for (uint8_t v : out.pixels()) {
    EXPECT_TRUE(v == 0 || v == 255);
  }
}

TEST(ScannerTest, FadeCompressesContrast) {
  Image img = Checkerboard(40, 40, 4);
  ScanProfile p;
  p.fade = 0.5;
  Image out = Age(img, p);
  uint8_t lo = 255, hi = 0;
  for (uint8_t v : out.pixels()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(lo, 40);
  EXPECT_LT(hi, 215);
}

TEST(ProfilesTest, PaperGeometryMatchesPaper) {
  const auto p = PaperA4Laser600();
  // A4 at 600 dpi, inside margins.
  EXPECT_GT(p.frame_width, 4000);
  EXPECT_LT(p.frame_width, 4960);
  EXPECT_FALSE(p.bitonal_write);
}

TEST(ProfilesTest, MicrofilmGeometryMatchesPaper) {
  const auto p = Microfilm16mm();
  EXPECT_EQ(p.frame_width, 3888);   // §4: 3888 x 5498 bitonal frames
  EXPECT_EQ(p.frame_height, 5498);
  EXPECT_TRUE(p.bitonal_write);
  EXPECT_TRUE(p.scan.bitonal);
  EXPECT_EQ(p.reel_length_mm, 66000);
}

TEST(ProfilesTest, CinemaGeometryMatchesPaper) {
  const auto p = CinemaFilm35mm();
  EXPECT_EQ(p.frame_width, 2048);   // §4: 2K full aperture
  EXPECT_EQ(p.frame_height, 1556);
  EXPECT_EQ(p.scan.scale, 2.0);     // scanned at 4K
  // "sharper, low-distortion" than microfilm:
  EXPECT_LT(p.scan.blur_sigma, Microfilm16mm().scan.blur_sigma);
  EXPECT_LT(p.scan.barrel_k1, Microfilm16mm().scan.barrel_k1);
}

TEST(ProfilesTest, AllProfilesListed) {
  EXPECT_EQ(AllProfiles().size(), 3u);
}

}  // namespace
}  // namespace media
}  // namespace ule
