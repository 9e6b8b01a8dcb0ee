// Differential suite for the emblem detector: mocoder::SampleEmblem must
// reproduce the reference detector in detect_reference.h bit for bit —
// the same sampled grid bytes, the same DetectInfo doubles (compared as
// bit patterns), the same lens candidate count and the same ok/error status — on rendered frames, scans
// under each distortion, one scan per media profile, frames on the
// boundaries of the threshold histogram's 64-pixel blocks, and degenerate
// images. The detector's output feeds the inner RS decode and the archived
// MODecode, so a restore must not depend on which build sampled the frame.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "media/profiles.h"
#include "media/scanner.h"
#include "mocoder/detect.h"
#include "mocoder/emblem.h"
#include "support/crc32.h"
#include "support/random.h"
#include "tests/detect_reference.h"

namespace ule {
namespace mocoder {
namespace {

struct Frame {
  std::string name;
  media::Image image;
  int data_side = 0;
};

uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// One emblem of random payload, rendered at `dots_per_cell`.
media::Image RenderRandomEmblem(int data_side, int dots_per_cell,
                                int quiet_cells, StreamId stream,
                                uint64_t seed) {
  Rng rng(seed);
  const Bytes payload =
      RandomBytes(&rng, static_cast<size_t>(EmblemCapacity(data_side)));
  EmblemHeader h;
  h.stream = stream;
  h.seq = static_cast<uint16_t>(seed);
  h.total = 1;
  h.stream_len = static_cast<uint32_t>(payload.size());
  h.payload_crc = Crc32(payload);
  auto grid = BuildEmblem(h, payload, data_side);
  EXPECT_TRUE(grid.ok()) << grid.status().ToString();
  return RenderEmblem(grid.value(), dots_per_cell, quiet_cells);
}

// Compares the library detector with the reference on one frame; returns
// whether the reference found an emblem in it.
bool ExpectSameAsReference(const Frame& f) {
  SCOPED_TRACE(f.name);
  DetectInfo got_info, want_info;
  auto got = SampleEmblem(f.image, f.data_side, &got_info);
  auto want = detect_reference::SampleEmblem(f.image, f.data_side, &want_info);
  EXPECT_EQ(got.ok(), want.ok())
      << "library: " << got.status().ToString()
      << ", reference: " << want.status().ToString();
  if (!got.ok() || !want.ok()) return want.ok();
  EXPECT_TRUE(got.value() == want.value()) << "sampled grids differ";
  EXPECT_EQ(Bits(got_info.rotation_deg), Bits(want_info.rotation_deg));
  EXPECT_EQ(Bits(got_info.cell_pitch), Bits(want_info.cell_pitch));
  EXPECT_EQ(Bits(got_info.lens_k), Bits(want_info.lens_k));
  EXPECT_EQ(got_info.lens_candidates, want_info.lens_candidates);
  return true;
}

TEST(DetectDiffTest, RenderedFrames) {
  for (int data_side : {65, 128}) {
    for (int dots : {3, 4}) {
      EXPECT_TRUE(ExpectSameAsReference(
          {"rendered n" + std::to_string(data_side) + " dpc" +
               std::to_string(dots),
           RenderRandomEmblem(data_side, dots, 2, StreamId::kData,
                              static_cast<uint64_t>(data_side * 10 + dots)),
           data_side}));
    }
  }
  // Border on the image edge: clamped reads in every detector stage.
  EXPECT_TRUE(ExpectSameAsReference(
      {"rendered quiet_cells 0",
       RenderRandomEmblem(65, 4, 0, StreamId::kSystem, 5), 65}));
}

TEST(DetectDiffTest, DistortedScans) {
  // The DetectUnderDistortion cases of mocoder_test.
  struct Case {
    const char* name;
    double rotation, barrel, jitter, blur, noise, dust;
  };
  const Case cases[] = {{"clean", 0, 0, 0, 0, 0, 0},
                        {"rotated", 1.0, 0, 0, 0.3, 3, 0},
                        {"lens", 0.2, 0.004, 0, 0.3, 3, 0},
                        {"jitter", 0.2, 0, 0.5, 0.3, 3, 0},
                        {"noisy", 0.3, 0.001, 0.3, 0.8, 10, 2},
                        {"dusty", 0.2, 0.001, 0.2, 0.5, 5, 20}};
  const media::Image printed =
      RenderRandomEmblem(80, 5, 2, StreamId::kData, 8);
  for (const Case& c : cases) {
    media::ScanProfile sp;
    sp.rotation_deg = c.rotation;
    sp.barrel_k1 = c.barrel;
    sp.jitter_amplitude = c.jitter;
    sp.blur_sigma = c.blur;
    sp.noise_sigma = c.noise;
    sp.dust_per_megapixel = c.dust;
    sp.seed = 77;
    EXPECT_TRUE(ExpectSameAsReference({c.name, media::Scan(printed, sp), 80}));
  }
}

// A rendered emblem printed and scanned with `profile`'s writer and scanner.
media::Image PrintAndScan(const media::MediaProfile& profile, int data_side,
                          StreamId stream, uint64_t seed) {
  media::Image printed = RenderRandomEmblem(
      data_side, profile.dots_per_cell, 2, stream, seed);
  if (profile.bitonal_write) {
    for (auto& px : printed.mutable_pixels()) px = px < 128 ? 0 : 255;
  }
  return media::Scan(printed, profile.scan);
}

TEST(DetectDiffTest, MediaProfileScans) {
  // One small emblem through each profile's writer and scanner, as in
  // mocoder_test's MediaProfileRoundTrip.
  for (const media::MediaProfile& profile : media::AllProfiles()) {
    EXPECT_TRUE(ExpectSameAsReference(
        {profile.name + " n80", PrintAndScan(profile, 80, StreamId::kData, 12),
         80}));
  }
  // Two full 16 mm microfilm frames (the emblem fills the frame; 4972x4972
  // bitonal scans with the reader's lens curvature), one per stream.
  const media::MediaProfile film = media::Microfilm16mm();
  const int quiet = 2;
  const int data_side = std::min(film.frame_width, film.frame_height) /
                            film.dots_per_cell -
                        2 * kFrameCells - 2 * quiet;
  for (StreamId stream : {StreamId::kData, StreamId::kSystem}) {
    EXPECT_TRUE(ExpectSameAsReference(
        {"microfilm full frame " + std::to_string(static_cast<int>(stream)),
         PrintAndScan(film, data_side, stream, 21), data_side}));
  }
}

TEST(DetectDiffTest, OtsuBlockBoundaries) {
  // The threshold's histogram counts 64-pixel blocks of pure 0/255 apart
  // from the rest. These frames put every kind of block, and a tail, in
  // front of both detectors.
  const media::Image rendered =
      RenderRandomEmblem(65, 3, 3, StreamId::kData, 31);
  const size_t pixels = rendered.pixels().size();
  ASSERT_NE(rendered.width() % 64, 0);
  ASSERT_NE(pixels % 64, 0u);
  EXPECT_TRUE(ExpectSameAsReference({"rendered 243x243", rendered, 65}));

  // Mid-gray pixels in some blocks, on block edges, and in the tail; the
  // grays move the threshold away from the one of a pure 0/255 frame.
  Rng rng(64);
  media::Image sprinkled = rendered;
  std::vector<uint8_t>& px = sprinkled.mutable_pixels();
  const size_t blocks = pixels / 64;
  for (size_t block = 0; block < blocks; block += 1 + rng.Below(12)) {
    const size_t at = block * 64 + (block % 3 == 0   ? 0
                                    : block % 3 == 1 ? 63
                                                     : rng.Below(64));
    px[at] = static_cast<uint8_t>(96 + rng.Below(64));
  }
  px[blocks * 64] = 140;
  px[pixels - 1] = 120;
  EXPECT_TRUE(ExpectSameAsReference({"rendered, gray sprinkled", sprinkled,
                                     65}));

  // A black speck in the bottom-right quiet zone whose last-row pixels are
  // dark gray, all of them in the tail. Counted, they lift the threshold
  // from 1 to 41, which makes them black and moves the bounding box of
  // solid pixels. In the first frame the grays are in the tail's whole
  // 4-pixel groups; in the second only the image's last pixel is gray.
  const int w = rendered.width();
  const int h = rendered.height();
  const int tail_x = static_cast<int>(blocks * 64 % static_cast<size_t>(w));
  ASSERT_GT(w - tail_x, 40);
  for (int last_gray : {0, 1}) {
    media::Image speck = rendered;
    const int x_end = last_gray ? w : w - 5;
    speck.FillRect(tail_x + 4, h - 3, x_end - tail_x - 4, 3, 0);
    if (last_gray) {
      speck.set(w - 1, h - 1, 40);
    } else {
      speck.FillRect(tail_x + 4, h - 1, x_end - tail_x - 4, 1, 40);
    }
    ExpectSameAsReference(
        {"speck in the tail, last pixel gray " + std::to_string(last_gray),
         speck, 65});
  }

  // A gray scan of the same frame: few blocks hold only 0 and 255.
  media::ScanProfile sp;
  sp.blur_sigma = 0.6;
  sp.noise_sigma = 4;
  sp.seed = 9;
  const media::Image gray = media::Scan(rendered, sp);
  ASSERT_TRUE(std::any_of(gray.pixels().begin(), gray.pixels().end(),
                          [](uint8_t v) { return v != 0 && v != 255; }));
  ASSERT_NE(gray.pixels().size() % 64, 0u);
  EXPECT_TRUE(ExpectSameAsReference({"gray scan", gray, 65}));

  // Uniform images: every block is pure, with and without a tail. Neither
  // holds an emblem; both detectors must agree on how they fail.
  for (uint8_t level : {0, 255}) {
    for (int side : {64, 243}) {
      ExpectSameAsReference({"uniform " + std::to_string(level) + " " +
                                 std::to_string(side),
                             media::Image(side, side, level), 65});
    }
  }
}

TEST(DetectDiffTest, DegenerateImages) {
  // No emblem in any of these: both detectors must fail the same way.
  auto no_emblem = [](const char* name, const media::Image& image) {
    EXPECT_FALSE(ExpectSameAsReference({name, image, 65}));
  };
  no_emblem("blank", media::Image(200, 200, 255));
  no_emblem("1x1 white", media::Image(1, 1, 255));
  no_emblem("1x1 black", media::Image(1, 1, 0));
  no_emblem("3x3 black", media::Image(3, 3, 0));
  media::Image dot(3, 3, 255);
  dot.set(1, 1, 0);
  no_emblem("3x3 dot", dot);
  // A checkerboard is half black, but no black pixel has four black
  // neighbours, so there is no solid pixel anywhere.
  media::Image checker(64, 48, 255);
  for (int y = 0; y < checker.height(); ++y) {
    for (int x = 0; x < checker.width(); ++x) {
      if ((x + y) % 2 == 0) checker.set(x, y, 0);
    }
  }
  no_emblem("checkerboard", checker);
  // A small solid square: solid pixels, but too small for a border.
  media::Image speck(100, 100, 255);
  speck.FillRect(40, 40, 6, 6, 0);
  no_emblem("speck", speck);
}

}  // namespace
}  // namespace mocoder
}  // namespace ule
