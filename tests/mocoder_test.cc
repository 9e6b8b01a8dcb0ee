// Tests for MOCoder: emblem geometry/capacity, modulation round trips,
// inner RS protection (7.2% claim), detection under scan distortion, the
// outer 17+3 group code, full stream round trips through each media
// profile, and the DecodeStream contract.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "media/profiles.h"
#include "media/scanner.h"
#include "mocoder/detect.h"
#include "mocoder/emblem.h"
#include "mocoder/mocoder.h"
#include "mocoder/outer.h"
#include "rs/reed_solomon.h"
#include "support/crc32.h"
#include "support/parallel.h"
#include "support/random.h"

namespace ule {
namespace media {

// Value-parameterized test names end in the printed GetParam(). gtest's
// default for a struct is a byte dump, which for a profile holds the
// address inside its std::string and so changes from run to run; print the
// profile by name instead.
static void PrintTo(const MediaProfile& p, std::ostream* os) {
  *os << p.name;
}

}  // namespace media

namespace mocoder {
namespace {

Bytes RandomPayload(Rng* rng, int n) {
  return RandomBytes(rng, static_cast<size_t>(n));
}

EmblemHeader MakeHeader(StreamId stream, uint16_t seq, BytesView payload) {
  EmblemHeader h;
  h.stream = stream;
  h.seq = seq;
  h.total = 1;
  h.stream_len = static_cast<uint32_t>(payload.size());
  h.payload_crc = Crc32(payload);
  return h;
}

// Converts a clean cell grid directly into the intensity array the decoder
// expects (no print/scan in between).
Bytes GridToIntensities(const CellGrid& grid, int data_side) {
  Bytes out(static_cast<size_t>(data_side) * data_side);
  const int o = kFrameCells;
  for (int y = 0; y < data_side; ++y) {
    for (int x = 0; x < data_side; ++x) {
      out[static_cast<size_t>(y) * data_side + x] =
          grid.at(o + x, o + y) ? 10 : 245;
    }
  }
  return out;
}

// ---------------- geometry & capacity ----------------

TEST(EmblemTest, CapacityFormula) {
  // N=65: 65*64/2 = 2080 bits = 260 bytes -> 1 block -> 223-20 payload.
  EXPECT_EQ(EmblemBlocks(65), 1);
  EXPECT_EQ(EmblemCapacity(65), 203);
  // N=128: 8128 bits = 1016 bytes -> 3 blocks.
  EXPECT_EQ(EmblemBlocks(128), 3);
  EXPECT_EQ(EmblemCapacity(128), 3 * 223 - 20);
  // Too small for one block:
  EXPECT_EQ(EmblemCapacity(20), 0);
}

TEST(EmblemTest, HeaderRoundTrip) {
  EmblemHeader h;
  h.stream = StreamId::kSystem;
  h.seq = 1234;
  h.total = 4321;
  h.stream_len = 0xDEADBEEF;
  h.payload_crc = 0xCAFEBABE;
  const Bytes wire = SerializeHeader(h);
  ASSERT_EQ(wire.size(), static_cast<size_t>(kHeaderSize));
  auto back = ParseHeader(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().stream, StreamId::kSystem);
  EXPECT_EQ(back.value().seq, 1234);
  EXPECT_EQ(back.value().total, 4321);
  EXPECT_EQ(back.value().stream_len, 0xDEADBEEFu);
  EXPECT_EQ(back.value().payload_crc, 0xCAFEBABEu);
}

TEST(EmblemTest, HeaderRejectsBadMagicAndVersion) {
  EmblemHeader h;
  Bytes wire = SerializeHeader(h);
  Bytes bad = wire;
  bad[0] = 'X';
  EXPECT_FALSE(ParseHeader(bad).ok());
  bad = wire;
  bad[2] = 99;
  EXPECT_FALSE(ParseHeader(bad).ok());
}

TEST(EmblemTest, BuildRejectsWrongPayloadSize) {
  EmblemHeader h;
  EXPECT_FALSE(BuildEmblem(h, Bytes(10), 65).ok());
  EXPECT_FALSE(BuildEmblem(h, Bytes(1000), 20).ok());
}

TEST(EmblemTest, GridHasBorderAndSyncRow) {
  Rng rng(1);
  const Bytes payload = RandomPayload(&rng, EmblemCapacity(65));
  auto grid = BuildEmblem(MakeHeader(StreamId::kData, 0, payload), payload, 65);
  ASSERT_TRUE(grid.ok());
  const CellGrid& g = grid.value();
  EXPECT_EQ(g.side, 65 + 2 * kFrameCells);
  // Border ring black, gap ring white.
  for (int i = 0; i < g.side; ++i) {
    EXPECT_EQ(g.at(i, 0), 1);
    EXPECT_EQ(g.at(i, 2), 1);
    EXPECT_EQ(g.at(0, i), 1);
    EXPECT_EQ(g.at(g.side - 1, i), 1);
  }
  for (int i = kBorderCells; i < g.side - kBorderCells; ++i) {
    EXPECT_EQ(g.at(i, kBorderCells), 0) << i;
    EXPECT_EQ(g.at(i, kBorderCells + 1), 0) << i;
  }
  // Sync row: data emblems start with two black cells.
  EXPECT_EQ(g.at(kFrameCells + 0, kFrameCells), 1);
  EXPECT_EQ(g.at(kFrameCells + 1, kFrameCells), 1);
  EXPECT_EQ(g.at(kFrameCells + 2, kFrameCells), 0);
  EXPECT_EQ(g.at(kFrameCells + 3, kFrameCells), 0);
}

TEST(EmblemTest, SystemEmblemsInvertSyncRow) {
  Rng rng(2);
  const Bytes payload = RandomPayload(&rng, EmblemCapacity(65));
  auto grid =
      BuildEmblem(MakeHeader(StreamId::kSystem, 0, payload), payload, 65);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid.value().at(kFrameCells + 0, kFrameCells), 0);
  EXPECT_EQ(grid.value().at(kFrameCells + 2, kFrameCells), 1);
}

TEST(EmblemTest, ManchesterClockTransitionEveryBit) {
  // In the data rows, every bit occupies two cells and the level always
  // changes at the bit boundary; verify no run of 4 equal cells exists
  // along the serpentine (max run is 3: X | !X !X | X... wait — levels:
  // runs can be at most 2 within a bit plus continuation; assert <= 4
  // conservatively and that long runs are absent).
  Rng rng(3);
  const Bytes payload = RandomPayload(&rng, EmblemCapacity(65));
  auto grid = BuildEmblem(MakeHeader(StreamId::kData, 0, payload), payload, 65);
  ASSERT_TRUE(grid.ok());
  const CellGrid& g = grid.value();
  const int n = 65;
  const int o = kFrameCells;
  int run = 1;
  int max_run = 1;
  int prev = -1;
  const int total_cells = (n - 1) * n;
  for (int k = 0; k < total_cells; ++k) {
    const int row = k / n;
    const int col = k % n;
    const int x = (row % 2 == 0) ? col : (n - 1 - col);
    const int y = 1 + row;
    const int cell = g.at(o + x, o + y);
    if (cell == prev) {
      ++run;
      max_run = std::max(max_run, run);
    } else {
      run = 1;
    }
    prev = cell;
  }
  // Differential Manchester bounds runs to 3 cells (one half + a full bit
  // without mid transition... the guaranteed boundary transition caps it).
  EXPECT_LE(max_run, 3);
}

// ---------------- clean round trip ----------------

class EmblemRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(EmblemRoundTrip, CleanIntensities) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n));
  const Bytes payload = RandomPayload(&rng, EmblemCapacity(n));
  const EmblemHeader h = MakeHeader(StreamId::kData, 7, payload);
  auto grid = BuildEmblem(h, payload, n);
  ASSERT_TRUE(grid.ok());
  EmblemHeader out_h;
  EmblemDecodeInfo info;
  auto back = DecodeEmblemIntensities(GridToIntensities(grid.value(), n), n,
                                      &out_h, &info);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), payload);
  EXPECT_EQ(out_h.seq, 7);
  EXPECT_EQ(info.rs_errors_corrected, 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EmblemRoundTrip,
                         ::testing::Values(65, 80, 128, 200));

TEST(EmblemTest, IntensityDamageWithinBudgetCorrected) {
  // Flip cells corresponding to ~5% of the coded bytes: the inner RS code
  // must absorb it (paper: up to 7.2% per emblem).
  const int n = 128;
  Rng rng(5);
  const Bytes payload = RandomPayload(&rng, EmblemCapacity(n));
  auto grid = BuildEmblem(MakeHeader(StreamId::kData, 0, payload), payload, n);
  ASSERT_TRUE(grid.ok());
  Bytes cells = GridToIntensities(grid.value(), n);
  // Damage a contiguous horizontal band (localised damage; interleaving
  // spreads it across blocks).
  const int band_rows = 3;
  for (int y = 40; y < 40 + band_rows; ++y) {
    for (int x = 0; x < n; ++x) {
      cells[static_cast<size_t>(y) * n + x] = 128;  // destroyed: mid-gray
    }
  }
  EmblemDecodeInfo info;
  auto back = DecodeEmblemIntensities(cells, n, nullptr, &info);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), payload);
  EXPECT_GT(info.rs_errors_corrected, 0);
}

TEST(EmblemTest, ExcessDamageFailsCleanly) {
  const int n = 65;
  Rng rng(6);
  const Bytes payload = RandomPayload(&rng, EmblemCapacity(n));
  auto grid = BuildEmblem(MakeHeader(StreamId::kData, 0, payload), payload, n);
  ASSERT_TRUE(grid.ok());
  Bytes cells = GridToIntensities(grid.value(), n);
  // Destroy half the data area.
  for (int y = 1; y < n / 2; ++y) {
    for (int x = 0; x < n; ++x) {
      cells[static_cast<size_t>(y) * n + x] =
          static_cast<uint8_t>(rng.Below(256));
    }
  }
  auto back = DecodeEmblemIntensities(cells, n, nullptr);
  EXPECT_FALSE(back.ok());
}

// ---------------- detection through print & scan ----------------

TEST(DetectTest, CleanRenderAndSample) {
  const int n = 80;
  Rng rng(7);
  const Bytes payload = RandomPayload(&rng, EmblemCapacity(n));
  auto grid = BuildEmblem(MakeHeader(StreamId::kData, 0, payload), payload, n);
  ASSERT_TRUE(grid.ok());
  const media::Image img = RenderEmblem(grid.value(), 4);
  DetectInfo dinfo;
  auto cells = SampleEmblem(img, n, &dinfo);
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  EXPECT_NEAR(dinfo.cell_pitch, 4.0, 0.1);
  EXPECT_NEAR(dinfo.rotation_deg, 0.0, 0.2);
  auto back = DecodeEmblemIntensities(cells.value(), n, nullptr);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), payload);
}

struct ScanCase {
  const char* name;
  double rotation;
  double barrel;
  double jitter;
  double blur;
  double noise;
  double dust;
};

// Print by name, not as gtest's byte dump of the `name` pointer (see
// media::PrintTo above).
void PrintTo(const ScanCase& c, std::ostream* os) { *os << c.name; }

class DetectUnderDistortion : public ::testing::TestWithParam<ScanCase> {};

TEST_P(DetectUnderDistortion, DecodesThroughScan) {
  const ScanCase& c = GetParam();
  const int n = 80;
  Rng rng(8);
  const Bytes payload = RandomPayload(&rng, EmblemCapacity(n));
  auto grid = BuildEmblem(MakeHeader(StreamId::kData, 3, payload), payload, n);
  ASSERT_TRUE(grid.ok());
  const media::Image printed = RenderEmblem(grid.value(), 5);

  media::ScanProfile sp;
  sp.rotation_deg = c.rotation;
  sp.barrel_k1 = c.barrel;
  sp.jitter_amplitude = c.jitter;
  sp.blur_sigma = c.blur;
  sp.noise_sigma = c.noise;
  sp.dust_per_megapixel = c.dust;
  sp.seed = 77;
  const media::Image scanned = media::Scan(printed, sp);

  auto cells = SampleEmblem(scanned, n);
  ASSERT_TRUE(cells.ok()) << c.name << ": " << cells.status().ToString();
  EmblemHeader h;
  auto back = DecodeEmblemIntensities(cells.value(), n, &h);
  ASSERT_TRUE(back.ok()) << c.name << ": " << back.status().ToString();
  EXPECT_EQ(back.value(), payload) << c.name;
  EXPECT_EQ(h.seq, 3);
}

const ScanCase kScanCases[] = {{"clean", 0, 0, 0, 0, 0, 0},
                               {"rotated", 1.0, 0, 0, 0.3, 3, 0},
                               {"lens", 0.2, 0.004, 0, 0.3, 3, 0},
                               {"jitter", 0.2, 0, 0.5, 0.3, 3, 0},
                               {"noisy", 0.3, 0.001, 0.3, 0.8, 10, 2},
                               {"dusty", 0.2, 0.001, 0.2, 0.5, 5, 20}};

INSTANTIATE_TEST_SUITE_P(Profiles, DetectUnderDistortion,
                         ::testing::ValuesIn(kScanCases),
                         [](const auto& info) { return info.param.name; });

TEST(DetectTest, FailsWithoutEmblem) {
  media::Image blank(200, 200, 255);
  EXPECT_FALSE(SampleEmblem(blank, 65).ok());
}

TEST(DetectTest, DegenerateBorderIsCorruption) {
  // A thick diagonal bar: its bounding box passes for a border, but the
  // fitted top and left edges are the same line (slope 1), so their corner
  // is a division by zero. That must be refused, not turned into NaN
  // geometry and NaN-to-int casts.
  media::Image img(200, 200, 255);
  for (int y = 20; y <= 180; ++y) {
    for (int x = 20; x <= 180; ++x) {
      if (std::abs(y - x) < 10) img.set(x, y, 0);
    }
  }
  DetectInfo info;
  auto cells = SampleEmblem(img, 65, &info);
  ASSERT_FALSE(cells.ok());
  EXPECT_EQ(cells.status().code(), StatusCode::kCorruption)
      << cells.status().ToString();
}

// ---------------- lens calibration search ----------------

TEST(DetectTest, LensSearchCostPinnedOnCleanEmblem) {
  // The lens calibration dominates SampleEmblem's cost, and its cost is the
  // number of candidate k values it scores. A rendered frame has no lens
  // distortion, so the search must settle on exactly k = 0, and a change
  // to the search that scores more candidates must update this count on
  // purpose.
  const int n = 128;
  Rng rng(128);
  const Bytes payload = RandomPayload(&rng, EmblemCapacity(n));
  auto grid = BuildEmblem(MakeHeader(StreamId::kData, 0, payload), payload, n);
  ASSERT_TRUE(grid.ok());
  DetectInfo info;
  auto cells = SampleEmblem(RenderEmblem(grid.value(), 4), n, &info);
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  EXPECT_EQ(info.lens_k, 0.0);
  EXPECT_EQ(info.lens_candidates, 35);
}

// A printed emblem of the lens-search parity corpus: known payload and the
// rendered image its scans are made from.
struct ParityEmblem {
  int data_side = 0;
  Bytes payload;
  media::Image image;
};

// An emblem of random payload, rendered at `dots` per cell.
ParityEmblem RenderParityEmblem(int data_side, int dots, StreamId stream,
                              uint64_t seed) {
  ParityEmblem s;
  s.data_side = data_side;
  Rng rng(seed);
  s.payload = RandomPayload(&rng, EmblemCapacity(data_side));
  auto grid = BuildEmblem(MakeHeader(stream, 1, s.payload), s.payload,
                          data_side);
  EXPECT_TRUE(grid.ok()) << grid.status().ToString();
  s.image = RenderEmblem(grid.value(), dots);
  return s;
}

std::string Named(const char* prefix, double value, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s%g%s", prefix, value, suffix);
  return buf;
}

// One scan of the corpus before it is made: the printed emblem (shared by
// the scans of one print), the scan's name, and the scanner profile, or
// none for a clean render that is decoded as printed.
struct ParityCase {
  std::shared_ptr<const ParityEmblem> printed;
  std::string name;
  std::optional<media::ScanProfile> profile;
};

// The lens-search parity corpus. It covers what the lens calibration has
// to get right: lens strengths through and beyond the candidate range, the
// DetectUnderDistortion profiles over several scanner seeds, the
// single-axis sweeps of bench_scan_distortion, each media profile, full
// microfilm frames and clean renders. Scans are made when a case runs, so
// only the worker running a microfilm case holds a scanned microfilm frame.
std::vector<ParityCase> ParityCorpus() {
  std::vector<ParityCase> corpus;
  auto scan_of = [&](const std::shared_ptr<const ParityEmblem>& printed,
                     std::string name, const media::ScanProfile& sp) {
    corpus.push_back({printed, std::move(name), sp});
  };
  auto print = [](ParityEmblem s) {
    return std::make_shared<const ParityEmblem>(std::move(s));
  };
  for (int n : {65, 128}) {
    const auto printed = print(RenderParityEmblem(n, 4, StreamId::kData, n));
    std::vector<double> lens = {0, 0.04};
    for (int i = 1; i <= 15; ++i) {
      lens.push_back(0.002 * i);
      lens.push_back(-0.002 * i);
    }
    for (double k : lens) {
      media::ScanProfile sp;
      sp.barrel_k1 = k;
      sp.blur_sigma = 0.3;
      sp.noise_sigma = 3;
      sp.seed = 7;
      scan_of(printed, Named("lens ", k, (" n" + std::to_string(n)).c_str()),
              sp);
    }
  }
  {
    const auto printed = print(RenderParityEmblem(80, 5, StreamId::kData, 8));
    for (const ScanCase& c : kScanCases) {
      for (uint64_t seed : {77, 78, 79, 80}) {
        media::ScanProfile sp;
        sp.rotation_deg = c.rotation;
        sp.barrel_k1 = c.barrel;
        sp.jitter_amplitude = c.jitter;
        sp.blur_sigma = c.blur;
        sp.noise_sigma = c.noise;
        sp.dust_per_megapixel = c.dust;
        sp.seed = seed;
        scan_of(printed, std::string(c.name) + " seed " + std::to_string(seed),
                sp);
      }
    }
  }
  {
    const auto printed =
        print(RenderParityEmblem(96, 4, StreamId::kData, 600));
    struct Axis {
      const char* name;
      double media::ScanProfile::*field;
      std::vector<double> values;
    };
    const Axis axes[] = {
        {"rotation ", &media::ScanProfile::rotation_deg,
         {0.5, 1.0, 2.0, 4.0, 8.0}},
        {"jitter ", &media::ScanProfile::jitter_amplitude,
         {0.5, 1.0, 1.5, 2.5, 4.0}},
        {"blur ", &media::ScanProfile::blur_sigma,
         {0.8, 1.2, 1.6, 2.0, 2.6}},
        {"noise ", &media::ScanProfile::noise_sigma,
         {0.0, 10.0, 25.0, 45.0, 70.0, 100.0}},
        {"dust ", &media::ScanProfile::dust_per_megapixel,
         {5.0, 20.0, 60.0, 150.0, 400.0}},
        {"fade ", &media::ScanProfile::fade, {0.2, 0.4, 0.6, 0.75, 0.9}}};
    for (const Axis& axis : axes) {
      for (double v : axis.values) {
        media::ScanProfile sp;
        sp.blur_sigma = 0.3;
        sp.noise_sigma = 3;
        sp.seed = 777;
        sp.*axis.field = v;
        scan_of(printed, Named(axis.name, v, " n96"), sp);
      }
    }
  }
  for (const media::MediaProfile& profile : media::AllProfiles()) {
    ParityEmblem printed =
        RenderParityEmblem(80, profile.dots_per_cell, StreamId::kData, 12);
    if (profile.bitonal_write) {
      for (auto& px : printed.image.mutable_pixels()) px = px < 128 ? 0 : 255;
    }
    scan_of(print(std::move(printed)), profile.name + " n80", profile.scan);
  }
  {
    // Full 16 mm microfilm frames: the emblem fills the 4972x4972 frame and
    // the reader's lens bends its edges.
    const media::MediaProfile film = media::Microfilm16mm();
    const int quiet = 2;
    const int data_side = std::min(film.frame_width, film.frame_height) /
                              film.dots_per_cell -
                          2 * kFrameCells - 2 * quiet;
    for (StreamId stream : {StreamId::kData, StreamId::kSystem}) {
      ParityEmblem printed =
          RenderParityEmblem(data_side, film.dots_per_cell, stream, 21);
      for (auto& px : printed.image.mutable_pixels()) px = px < 128 ? 0 : 255;
      scan_of(print(std::move(printed)),
              "microfilm full frame " +
                  std::to_string(static_cast<int>(stream)),
              film.scan);
    }
  }
  for (int n : {65, 128}) {
    corpus.push_back({print(RenderParityEmblem(n, 3, StreamId::kData, 3 * n)),
                      "clean 3-dot n" + std::to_string(n), std::nullopt});
  }
  return corpus;
}

TEST(DetectTest, LensSearchKeepsDecodeOutcomes) {
  // Every scan here must decode to its exact payload, except the listed
  // ones, which must still fail: if one of them starts to decode, its list
  // is stale. The lists are the outcomes of the exhaustive 96-candidate
  // lens sweep that the coarse-to-fine search replaced.
  //
  // Scans the exhaustive sweep could not decode either:
  const std::set<std::string> expected_failures = {
      "lens 0.04 n128",  "lens -0.026 n128", "lens -0.03 n128",
      "rotation 8 n96",  "jitter 4 n96",     "blur 2 n96",
      "blur 2.6 n96",    "noise 70 n96",     "noise 100 n96"};
  // The one scan the exhaustive sweep decoded and the search does not. On
  // it the score rises with k up to 0.0208, and an outer candidate wins
  // only on a margin over the best so far, so the answer is the first
  // candidate to clear the margin: 0.0128 in the sweep, 0.0152 in the
  // search, whose grid the inner code cannot correct. The search decodes
  // "lens -0.018 n128" and "lens -0.02 n128" instead, which the sweep did
  // not.
  const std::set<std::string> lost_to_search = {"lens -0.028 n128"};
  // Scanned and decoded on the shared pool; checked in corpus order.
  const std::vector<ParityCase> corpus = ParityCorpus();
  std::vector<char> decoded(corpus.size(), 0);
  Status st = ParallelFor(0, corpus.size(), [&](size_t i) {
    const ParityEmblem& printed = *corpus[i].printed;
    const media::Image image =
        corpus[i].profile ? media::Scan(printed.image, *corpus[i].profile)
                          : printed.image;
    auto cells = SampleEmblem(image, printed.data_side);
    if (cells.ok()) {
      auto back =
          DecodeEmblemIntensities(cells.value(), printed.data_side, nullptr);
      decoded[i] = back.ok() && back.value() == printed.payload;
    }
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (size_t i = 0; i < corpus.size(); ++i) {
    const std::string& name = corpus[i].name;
    if (expected_failures.count(name) + lost_to_search.count(name) != 0) {
      EXPECT_FALSE(decoded[i]) << name << " decodes now";
    } else {
      EXPECT_TRUE(decoded[i]) << name;
    }
  }
  EXPECT_EQ(corpus.size(), 126u);
}

// ---------------- outer code ----------------

TEST(OuterTest, EmblemCounts) {
  // 100 bytes at capacity 50 -> 2 data emblems -> 1 group -> 2+3 total.
  EXPECT_EQ(DataEmblemCount(100, 50), 2);
  EXPECT_EQ(TotalEmblemCount(100, 50), 5);
  // 18 data emblems -> 2 groups -> 18 + 6.
  EXPECT_EQ(TotalEmblemCount(18 * 50, 50), 24);
  // Empty stream still ships one emblem + parity.
  EXPECT_EQ(DataEmblemCount(0, 50), 1);
  EXPECT_EQ(TotalEmblemCount(0, 50), 4);
}

TEST(OuterTest, RoundTripNoLoss) {
  Rng rng(9);
  const Bytes stream = RandomPayload(&rng, 1000);
  const int cap = 64;
  auto payloads = BuildGroupPayloads(stream, cap);
  std::map<uint16_t, Bytes> present;
  for (size_t i = 0; i < payloads.size(); ++i) {
    if (payloads[i]) present[static_cast<uint16_t>(i)] = *payloads[i];
  }
  auto back = ReassembleStream(present, stream.size(), cap);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), stream);
}

class OuterLossSweep : public ::testing::TestWithParam<int> {};

TEST_P(OuterLossSweep, RecoversUpToThreeLostPerGroup) {
  const int losses = GetParam();
  Rng rng(static_cast<uint64_t>(10 + losses));
  const Bytes stream = RandomPayload(&rng, 40 * 64);  // 40 data emblems
  const int cap = 64;
  auto payloads = BuildGroupPayloads(stream, cap);
  std::map<uint16_t, Bytes> present;
  for (size_t i = 0; i < payloads.size(); ++i) {
    if (payloads[i]) present[static_cast<uint16_t>(i)] = *payloads[i];
  }
  // Drop `losses` emblems from each group.
  const int groups = static_cast<int>(payloads.size()) / kGroupSize;
  for (int g = 0; g < groups; ++g) {
    int dropped = 0;
    while (dropped < losses) {
      const uint16_t seq = static_cast<uint16_t>(
          g * kGroupSize + static_cast<int>(rng.Below(kGroupSize)));
      if (present.erase(seq)) ++dropped;
    }
  }
  auto back = ReassembleStream(present, stream.size(), cap);
  if (losses <= kGroupParity) {
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value(), stream);
  } else {
    EXPECT_FALSE(back.ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Losses, OuterLossSweep, ::testing::Range(0, 6));

// The parity emblems are part of the format: each byte column of a group
// is one RS(20,17) codeword over the 17 data payloads (virtual tail slots
// zero), so every parity row must equal a per-column Codec::Encode.
TEST(OuterTest, ParityRowsEqualPerColumnEncode) {
  Rng rng(77);
  const int cap = 64;
  const Bytes stream = RandomPayload(&rng, 40 * cap - 10);  // 17 + 17 + 6
  auto payloads = BuildGroupPayloads(stream, cap);
  ASSERT_EQ(payloads.size(), 3u * kGroupSize);
  const rs::Codec outer(kGroupSize, kGroupData);
  for (int g = 0; g < 3; ++g) {
    for (int j = 0; j < cap; ++j) {
      Bytes column(kGroupData, 0);
      for (int s = 0; s < kGroupData; ++s) {
        const auto& row = payloads[static_cast<size_t>(g * kGroupSize + s)];
        if (row) column[static_cast<size_t>(s)] = (*row)[static_cast<size_t>(j)];
      }
      const Bytes cw = outer.Encode(column).TakeValue();
      for (int p = 0; p < kGroupParity; ++p) {
        const auto& row =
            payloads[static_cast<size_t>(g * kGroupSize + kGroupData + p)];
        ASSERT_TRUE(row.has_value()) << "group " << g << " parity " << p;
        ASSERT_EQ((*row)[static_cast<size_t>(j)],
                  cw[static_cast<size_t>(kGroupData + p)])
            << "group " << g << " parity " << p << " column " << j;
      }
    }
  }
  // The final group's data slots past the stream are virtual: not emitted.
  EXPECT_TRUE(payloads[2 * kGroupSize + 5].has_value());
  EXPECT_FALSE(payloads[2 * kGroupSize + 6].has_value());
}

// A present row that is itself wrong, on top of lost rows. With one
// erasure the per-column decoder still has the budget to place the error,
// so the lost row comes back exact (the present row is returned as
// received); with two erasures the column is past the budget.
class OuterWrongPresentRow : public ::testing::Test {
 protected:
  static constexpr int kCap = 64;

  void SetUp() override {
    Rng rng(91);
    stream_ = RandomPayload(&rng, kGroupData * kCap);
    auto payloads = BuildGroupPayloads(stream_, kCap);
    for (size_t i = 0; i < payloads.size(); ++i) {
      if (payloads[i]) present_[static_cast<uint16_t>(i)] = *payloads[i];
    }
    present_[0][kFlipColumn] ^= 0x5A;
  }

  Bytes Row(int s) const {
    return Bytes(stream_.begin() + s * kCap, stream_.begin() + (s + 1) * kCap);
  }

  static constexpr size_t kFlipColumn = 13;
  Bytes stream_;
  std::map<uint16_t, Bytes> present_;
};

TEST_F(OuterWrongPresentRow, OneErasurePlusErrorRecoversTheLostRow) {
  present_.erase(5);
  auto data = RecoverGroupData(0, present_, stream_.size(), kCap);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data.value()[5], Row(5));
  EXPECT_EQ(data.value()[0], present_.at(0));
  EXPECT_NE(data.value()[0], Row(0));
  for (int s = 1; s < kGroupData; ++s) {
    EXPECT_EQ(data.value()[static_cast<size_t>(s)], Row(s)) << "slot " << s;
  }
}

TEST_F(OuterWrongPresentRow, TwoErasuresPlusErrorAreCorruption) {
  present_.erase(5);
  present_.erase(18);
  auto data = RecoverGroupData(0, present_, stream_.size(), kCap);
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kCorruption);
  EXPECT_NE(data.status().message().find(
                "too many errors (locator degree 1, erasures 2)"),
            std::string::npos)
      << data.status().ToString();
}

// ---------------- full stream round trips ----------------

// What EncodeToSink hands its sink, collected in sequence order (`frames`
// stays empty unless rendered).
struct Encoded {
  std::vector<EncodedEmblem> emblems;
  std::vector<media::Image> frames;
};

Encoded Encode(BytesView stream, StreamId id, const Options& opt,
               bool render = true) {
  Encoded out;
  Status st = EncodeToSink(
      stream, id, opt, render,
      [&](EncodedEmblem&& emblem, media::Image&& frame) -> Status {
        out.emblems.push_back(std::move(emblem));
        if (render) out.frames.push_back(std::move(frame));
        return Status::OK();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

Status DiscardSink(EncodedEmblem&&, media::Image&&) { return Status::OK(); }

// Pulls copies of `frames` in order, then reports the end of the reel.
FramePull PullFrames(const std::vector<media::Image>& frames) {
  return [&frames, i = size_t{0}]() mutable
         -> Result<std::optional<media::PackedFrame>> {
    if (i == frames.size()) return std::optional<media::PackedFrame>();
    return std::optional<media::PackedFrame>(frames[i++]);
  };
}

TEST(MocoderTest, OptionsValidationRejectsNonsense) {
  const Bytes stream{1, 2, 3};
  Options bad_side;
  bad_side.data_side = 0;
  EXPECT_EQ(EncodeToSink(stream, StreamId::kData, bad_side, false,
                         DiscardSink)
                .code(),
            StatusCode::kInvalidArgument);
  bad_side.data_side = -128;
  EXPECT_EQ(EncodeToSink(stream, StreamId::kData, bad_side, false,
                         DiscardSink)
                .code(),
            StatusCode::kInvalidArgument);

  Options bad_dots;
  bad_dots.dots_per_cell = 0;
  EXPECT_EQ(EncodeToSink(stream, StreamId::kData, bad_dots, true,
                         DiscardSink)
                .code(),
            StatusCode::kInvalidArgument);
  const std::vector<media::Image> blank{media::Image(8, 8, 255)};
  EXPECT_EQ(DecodeStream(PullFrames(blank), StreamId::kData, bad_dots)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  Options bad_quiet;
  bad_quiet.quiet_cells = -1;
  EXPECT_EQ(DecodeStream(PullFrames({}), StreamId::kData, bad_quiet)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  Options bad_threads;
  bad_threads.threads = -4;
  EXPECT_EQ(EncodeToSink(stream, StreamId::kData, bad_threads, false,
                         DiscardSink)
                .code(),
            StatusCode::kInvalidArgument);

  EXPECT_TRUE(ValidateOptions(Options{}).ok());
}

TEST(MocoderTest, StreamBeyondSixteenBitSequenceRejected) {
  // Emblem headers carry 16-bit seq and total fields. At data_side 65
  // (203-byte payloads) 11,305,476 bytes fill 3276 groups of 17 data
  // emblems, the last slot being 65519. This stream needs a 3277th group:
  // its slots would reach 65539 and its total would be 65536, so it must
  // be refused instead of wrapping into duplicate sequence numbers.
  Options opt;
  opt.data_side = 65;
  ASSERT_EQ(EmblemCapacity(opt.data_side), 203);
  const Bytes stream = RandomBytes(15, 11'308'115);
  Status st = EncodeToSink(stream, StreamId::kData, opt, /*render=*/false,
                           DiscardSink);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();

  // The largest stream that fits is accepted; the sink stops the encode
  // after the first emblem to keep the test fast.
  const size_t max_len = size_t{3276} * kGroupData * 203;
  st = EncodeToSink(
      BytesView(stream.data(), max_len), StreamId::kData, opt,
      /*render=*/false, [](EncodedEmblem&&, media::Image&&) {
        return Status::ResourceExhausted("stop after the first emblem");
      });
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
}

TEST(MocoderTest, ParallelEncodeDecodeMatchesSerial) {
  Rng rng(77);
  const Bytes stream = RandomPayload(&rng, 9000);
  Options serial;
  serial.data_side = 80;
  serial.threads = 1;
  Options parallel = serial;
  parallel.threads = 4;

  Encoded a = Encode(stream, StreamId::kData, serial);
  Encoded b = Encode(stream, StreamId::kData, parallel);
  ASSERT_EQ(a.emblems.size(), b.emblems.size());
  for (size_t i = 0; i < a.emblems.size(); ++i) {
    EXPECT_EQ(a.emblems[i].header.seq, b.emblems[i].header.seq);
    EXPECT_EQ(a.emblems[i].grid.cells, b.emblems[i].grid.cells);
    EXPECT_EQ(a.frames[i].pixels(), b.frames[i].pixels());
  }
  DecodeStats stats_a, stats_b;
  auto dec_a = DecodeStream(PullFrames(a.frames), StreamId::kData, serial,
                            nullptr, false, &stats_a);
  auto dec_b = DecodeStream(PullFrames(b.frames), StreamId::kData, parallel,
                            nullptr, false, &stats_b);
  ASSERT_TRUE(dec_a.ok());
  ASSERT_TRUE(dec_b.ok());
  EXPECT_EQ(dec_a.value(), stream);
  EXPECT_EQ(dec_b.value(), dec_a.value());
  EXPECT_EQ(stats_b.emblems_decoded, stats_a.emblems_decoded);
  EXPECT_EQ(stats_b.rs_errors_corrected, stats_a.rs_errors_corrected);
}

class MediaProfileRoundTrip
    : public ::testing::TestWithParam<media::MediaProfile> {};

TEST_P(MediaProfileRoundTrip, PrintScanDecode) {
  const media::MediaProfile profile = GetParam();
  Rng rng(12);
  const Bytes stream = RandomPayload(&rng, 2000);
  Options opt;
  opt.data_side = 80;
  opt.dots_per_cell = profile.dots_per_cell;
  Encoded encoded = Encode(stream, StreamId::kData, opt);

  std::vector<media::Image> scans;
  for (media::Image& printed : encoded.frames) {
    if (profile.bitonal_write) {
      for (auto& px : printed.mutable_pixels()) px = px < 128 ? 0 : 255;
    }
    scans.push_back(media::Scan(printed, profile.scan));
  }
  auto back = DecodeStream(PullFrames(scans), StreamId::kData, opt);
  ASSERT_TRUE(back.ok()) << profile.name << ": " << back.status().ToString();
  EXPECT_EQ(back.value(), stream) << profile.name;
}

INSTANTIATE_TEST_SUITE_P(AllMedia, MediaProfileRoundTrip,
                         ::testing::ValuesIn(media::AllProfiles()),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(MocoderTest, LostEmblemsRecoveredThroughImages) {
  Rng rng(13);
  const Bytes stream = RandomPayload(&rng, 4000);
  Options opt;
  opt.data_side = 80;
  Encoded encoded = Encode(stream, StreamId::kData, opt);
  std::vector<media::Image> kept;
  size_t skipped = 0;
  for (size_t i = 0; i < encoded.emblems.size(); ++i) {
    if (skipped < 2 && encoded.emblems[i].header.seq % 5 == 1) {
      ++skipped;  // simulate two destroyed frames
      continue;
    }
    kept.push_back(std::move(encoded.frames[i]));
  }
  ASSERT_EQ(skipped, 2u);
  DecodeStats stats;
  auto back = DecodeStream(PullFrames(kept), StreamId::kData, opt, nullptr,
                           false, &stats);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), stream);
  EXPECT_GT(stats.emblems_recovered, 0);
}

TEST(MocoderTest, WrongStreamIdRejected) {
  Rng rng(14);
  const Bytes stream = RandomPayload(&rng, 100);
  Options opt;
  opt.data_side = 65;
  Encoded encoded = Encode(stream, StreamId::kSystem, opt);
  EXPECT_FALSE(
      DecodeStream(PullFrames(encoded.frames), StreamId::kData, opt).ok());
}

// ---------------- DecodeStream contract ----------------

// The native inner decode, for GridDecodeFns that wrap it.
GridDecodeResult DecodeNative(BytesView grid, int data_side) {
  GridDecodeResult out;
  auto payload = DecodeEmblemIntensities(grid, data_side, &out.header);
  if (!payload.ok()) return out;
  out.ok = true;
  out.payload = payload.TakeValue();
  return out;
}

// Every case runs serially (threads 1: the reader decodes every scan
// itself) and on pool workers (threads 4: decoders drain the channel the
// reader fills).
class StreamDecoderContract : public ::testing::TestWithParam<int> {
 protected:
  StreamDecoderContract() {
    opt_.data_side = 65;
    opt_.threads = GetParam();
    // 2000 bytes at 203 per emblem: data slots 0..9 and parity 17..19,
    // emitted in that order, so pull index i carries seq i for i < 10.
    stream_ = RandomBytes(16, 2000);
    encoded_ = Encode(stream_, StreamId::kData, opt_);
  }

  Options opt_;
  Bytes stream_;
  Encoded encoded_;
};

TEST_P(StreamDecoderContract, FinishRethrowsLowestPushIndexException) {
  const int side = opt_.data_side;
  try {
    (void)DecodeStream(
        PullFrames(encoded_.frames), StreamId::kData, opt_,
        [side](BytesView grid) {
          GridDecodeResult r = DecodeNative(grid, side);
          if (r.ok && r.header.seq == 3) {
            // Let index 5 throw first in time on pool workers.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            throw std::runtime_error("pull 3");
          }
          if (r.ok && r.header.seq == 5) throw std::runtime_error("pull 5");
          return r;
        });
    ADD_FAILURE() << "DecodeStream did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "pull 3");
  }
}

TEST_P(StreamDecoderContract, ReadErrorWaitsForInFlightDecodes) {
  // The pull fails after 8 scans. The decode function writes through a
  // heap pointer that dies right after DecodeStream returns: a decode
  // still running past the return would be a use-after-free (caught by
  // the ASan and TSan jobs).
  auto calls = std::make_unique<std::atomic<int>>(0);
  std::atomic<int>* counter = calls.get();
  const int side = opt_.data_side;
  FramePull frames = PullFrames(encoded_.frames);
  int pulled = 0;
  auto out = DecodeStream(
      [&]() -> Result<std::optional<media::PackedFrame>> {
        if (pulled == 8) return Status::IoError("reel torn at frame 8");
        ++pulled;
        return frames();
      },
      StreamId::kData, opt_, [counter, side](BytesView grid) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        counter->fetch_add(1);
        return DecodeNative(grid, side);
      });
  EXPECT_LE(calls->load(), 8);
  calls.reset();
  EXPECT_EQ(out.status().code(), StatusCode::kIoError);
  EXPECT_EQ(out.status().message(), "reel torn at frame 8");
}

TEST_P(StreamDecoderContract, ThrowingPullDoesNotHang) {
  // The reader must close the channel when the pull throws, or the
  // decoders blocked on it would wait forever (the ctest timeout would
  // catch the hang).
  FramePull frames = PullFrames(encoded_.frames);
  int pulled = 0;
  try {
    (void)DecodeStream(
        [&]() -> Result<std::optional<media::PackedFrame>> {
          if (pulled == 5) throw std::runtime_error("scanner jammed");
          ++pulled;
          return frames();
        },
        StreamId::kData, opt_);
    ADD_FAILURE() << "DecodeStream did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "scanner jammed");
  }
}

TEST_P(StreamDecoderContract, CountUnsampledDecidesIfBlankScansCount) {
  std::vector<media::Image> scans{media::Image(200, 200, 255)};
  scans.insert(scans.end(), encoded_.frames.begin(), encoded_.frames.end());
  for (bool count_unsampled : {false, true}) {
    DecodeStats stats;
    auto out = DecodeStream(PullFrames(scans), StreamId::kData, opt_,
                            nullptr, count_unsampled, &stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out.value(), stream_);
    const int frames = static_cast<int>(encoded_.frames.size());
    EXPECT_EQ(stats.emblems_decoded, frames);
    EXPECT_EQ(stats.emblems_total, frames + (count_unsampled ? 1 : 0))
        << "count_unsampled=" << count_unsampled;
  }
}

TEST_P(StreamDecoderContract, StatsStepsSumGridDecodeSteps) {
  const int side = opt_.data_side;
  uint64_t expected = 0;
  for (const EncodedEmblem& emblem : encoded_.emblems) {
    expected += 1000 + emblem.header.seq;
  }
  DecodeStats stats;
  auto out = DecodeStream(
      PullFrames(encoded_.frames), StreamId::kData, opt_,
      [side](BytesView grid) {
        GridDecodeResult r = DecodeNative(grid, side);
        r.steps = 1000 + r.header.seq;
        return r;
      },
      false, &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(stats.steps, expected);
}

TEST_P(StreamDecoderContract, PackedScansDecodeLikeReadyOnes) {
  // The same scans as packed PBM records: whichever index decodes one
  // expands it into that index's own raster — the reader too, when a slow
  // decode keeps the channel full. Output and stats must not move.
  const int side = opt_.data_side;
  const GridDecodeFn slow = [side](BytesView grid) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return DecodeNative(grid, side);
  };
  DecodeStats ready_stats;
  auto ready = DecodeStream(PullFrames(encoded_.frames), StreamId::kData,
                            opt_, slow, false, &ready_stats);
  ASSERT_TRUE(ready.ok()) << ready.status().ToString();

  std::vector<Bytes> records;
  for (const media::Image& frame : encoded_.frames) {
    records.push_back(frame.ToPbm());
  }
  size_t i = 0;
  DecodeStats packed_stats;
  auto packed = DecodeStream(
      [&]() -> Result<std::optional<media::PackedFrame>> {
        if (i == records.size()) return std::optional<media::PackedFrame>();
        ULE_ASSIGN_OR_RETURN(
            media::PackedFrame frame,
            media::PackedFrame::Parse(records[i++], media::NetpbmFormat::kPbm));
        return std::optional<media::PackedFrame>(std::move(frame));
      },
      StreamId::kData, opt_, slow, false, &packed_stats);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  EXPECT_EQ(packed.value(), stream_);
  EXPECT_EQ(packed.value(), ready.value());
  EXPECT_EQ(packed_stats.emblems_total, ready_stats.emblems_total);
  EXPECT_EQ(packed_stats.emblems_decoded, ready_stats.emblems_decoded);
  EXPECT_EQ(packed_stats.rs_errors_corrected, ready_stats.rs_errors_corrected);
}

INSTANTIATE_TEST_SUITE_P(Threads, StreamDecoderContract,
                         ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

// The sink runs serially, in sequence order, on whichever worker drains
// the window; a failing or throwing sink must stop the encode right there.
// Each sink call sleeps 1 ms, far longer than building an emblem, so at
// threads 4 the window of 8 emblems is full and the other workers wait at
// its gate when the sink fails: a failure that did not release them would
// hang the test.
class EncodeToSinkContract : public ::testing::TestWithParam<int> {
 protected:
  EncodeToSinkContract() {
    opt_.data_side = 65;
    opt_.threads = GetParam();
    // 40 data emblems of 203 bytes: three groups, 49 real slots with a
    // virtual gap (seqs 46..56) before the last group's parity.
    stream_ = RandomBytes(17, 40 * 203);
    Options serial = opt_;
    serial.threads = 1;
    for (const EncodedEmblem& e :
         Encode(stream_, StreamId::kData, serial, /*render=*/false).emblems) {
      seqs_.push_back(e.header.seq);
    }
  }

  Options opt_;
  Bytes stream_;
  std::vector<uint16_t> seqs_;  // every sink call of a complete encode
};

TEST_P(EncodeToSinkContract, FailingSinkSeesExactlyItsCallsInOrder) {
  ASSERT_EQ(seqs_.size(), 49u);
  for (size_t k : {size_t{1}, size_t{2}, size_t{9}, size_t{46}, size_t{49}}) {
    std::vector<uint16_t> seen;
    const Status st = EncodeToSink(
        stream_, StreamId::kData, opt_, /*render=*/true,
        [&](EncodedEmblem&& emblem, media::Image&& frame) -> Status {
          EXPECT_FALSE(frame.empty());
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          seen.push_back(emblem.header.seq);
          if (seen.size() == k) {
            return Status::IoError("reel full at call " + std::to_string(k));
          }
          return Status::OK();
        });
    EXPECT_EQ(st.code(), StatusCode::kIoError) << "k=" << k;
    EXPECT_EQ(st.message(), "reel full at call " + std::to_string(k));
    EXPECT_EQ(seen, std::vector<uint16_t>(seqs_.begin(), seqs_.begin() + k))
        << "k=" << k;
  }
}

TEST_P(EncodeToSinkContract, ThrowingSinkRethrowsWithoutLaterCalls) {
  for (size_t k : {size_t{1}, size_t{12}, size_t{47}}) {
    std::atomic<size_t> calls{0};
    try {
      (void)EncodeToSink(
          stream_, StreamId::kData, opt_, /*render=*/false,
          [&](EncodedEmblem&& emblem, media::Image&&) -> Status {
            EXPECT_EQ(emblem.header.seq, seqs_[calls.load()]);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            if (calls.fetch_add(1) + 1 == k) {
              throw std::runtime_error("spool write threw");
            }
            return Status::OK();
          });
      ADD_FAILURE() << "EncodeToSink did not rethrow, k=" << k;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "spool write threw");
    }
    // Every worker has returned by now: a later call would show here.
    EXPECT_EQ(calls.load(), k);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, EncodeToSinkContract,
                         ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mocoder
}  // namespace ule
