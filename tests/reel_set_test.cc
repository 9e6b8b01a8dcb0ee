// The ULE-R1 reel-set layer: sharding one archive across many ULE-C1
// reels under a catalog, restoring them in catalog order with
// byte-identical output at any shard size, and degrading cleanly —
// a deleted reel, a truncated reel, or a flipped catalog byte must cost
// exactly the frames involved (surfaced as Status), never a crash or a
// silently wrong restore.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/micr_olonys.h"
#include "filmstore/container.h"
#include "filmstore/parity.h"
#include "filmstore/reel_reader.h"
#include "filmstore/reel_set.h"
#include "filmstore/scanner_source.h"
#include "filmstore/scrub.h"
#include "media/scanner.h"
#include "mocoder/mocoder.h"
#include "rs/reed_solomon.h"
#include "support/crc32.h"
#include "support/io.h"
#include "support/random.h"
#include "tests/filmstore_testutil.h"

namespace ule {
namespace filmstore {
namespace {

using testutil::ByFrames;
using testutil::Drain;
using testutil::EncodedStream;
using testutil::ExpectSameFrames;
using testutil::FillSink;
using testutil::MakeStream;
using testutil::SmallOptions;

/// Builds a sharded reel set on disk and returns its catalog path.
std::string WriteSet(const std::string& name, const EncodedStream& data,
                     const EncodedStream& system, const ShardPolicy& shard,
                     int parity_reels = 0) {
  const std::string path = testing::TempDir() + name;
  testutil::WriteSetAt(path, data, system, shard, parity_reels);
  return path;
}

TEST(ReelSetTest, ShardsByFramesAndRoundTripsAtAnyThreadCount) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 3000, 31);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 700, 32);
  const std::string path =
      WriteSet("reelset_frames.uler", data, system, ByFrames(5));

  auto reader = ReelSetReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_STREQ(reader.value()->kind(), "ULE-R1 reel set");
  EXPECT_GE(reader.value()->catalog().reels.size(), 3u);
  EXPECT_EQ(reader.value()->surviving_reels(),
            reader.value()->catalog().reels.size());
  EXPECT_EQ(reader.value()->catalog().archive_id, 0x1DB2026u);
  EXPECT_EQ(reader.value()->frame_count(mocoder::StreamId::kData),
            data.frames.size());
  EXPECT_EQ(reader.value()->frame_count(mocoder::StreamId::kSystem),
            system.frames.size());
  EXPECT_TRUE(reader.value()->has_bootstrap());
  auto bootstrap = reader.value()->ReadBootstrap();
  ASSERT_TRUE(bootstrap.ok());
  EXPECT_EQ(bootstrap.value(), "THE BOOTSTRAP\n");

  // Every reel honors the policy; ranges tile the stream contiguously.
  size_t expect_first_data = 0, expect_first_record = 0;
  for (const CatalogReel& row : reader.value()->catalog().reels) {
    EXPECT_LE(row.data_frames + row.system_frames, 5u);
    EXPECT_EQ(row.first_record, expect_first_record);
    EXPECT_EQ(row.first_data_frame, expect_first_data);
    expect_first_record += row.records;
    expect_first_data += row.data_frames;
  }

  // Byte-identical frame delivery across the reel boundaries.
  auto data_source = reader.value()->OpenFrames(mocoder::StreamId::kData);
  ExpectSameFrames(Drain(*data_source), data.frames);
  auto system_source = reader.value()->OpenFrames(mocoder::StreamId::kSystem);
  ExpectSameFrames(Drain(*system_source), system.frames);
  EXPECT_TRUE(reader.value()->Verify().ok());
}

TEST(ReelSetTest, ShardsByBytesKeepsEveryReelUnderTheCap) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 2500, 33);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 400, 34);
  ShardPolicy shard;
  shard.max_bytes_per_reel = 80 * 1000;
  const std::string path =
      WriteSet("reelset_bytes.uler", data, system, shard);

  auto reader = ReelSetReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const ReelCatalog& catalog = reader.value()->catalog();
  EXPECT_GE(catalog.reels.size(), 3u);
  for (size_t i = 0; i < catalog.reels.size(); ++i) {
    // The cap binds the *sealed file*, except the final reel which also
    // carries the Bootstrap document unconditionally.
    if (!catalog.reels[i].has_bootstrap) {
      EXPECT_LE(catalog.reels[i].bytes, shard.max_bytes_per_reel)
          << "reel " << i;
    }
    std::error_code ec;
    EXPECT_EQ(std::filesystem::file_size(
                  testing::TempDir() + catalog.reels[i].name, ec),
              catalog.reels[i].bytes)
        << "reel " << i;
  }
  auto source = reader.value()->OpenFrames(mocoder::StreamId::kData);
  ExpectSameFrames(Drain(*source), data.frames);
}

TEST(ReelSetTest, OpenReelPicksTheCatalogBackend) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 600, 35);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 0, 36);
  const std::string path =
      WriteSet("reelset_openreel.uler", data, system, ByFrames(2));
  auto reel = OpenReel(path);
  ASSERT_TRUE(reel.ok()) << reel.status().ToString();
  EXPECT_STREQ(reel.value()->kind(), "ULE-R1 reel set");
  auto source = reel.value()->OpenFrames(mocoder::StreamId::kData);
  ExpectSameFrames(Drain(*source), data.frames);
}

TEST(ReelSetTest, CatalogSerializationRoundTrips) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 900, 37);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 300, 38);
  const std::string path =
      WriteSet("reelset_catalog.uler", data, system, ByFrames(4));
  auto catalog = LoadCatalog(path);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  auto reparsed = ReelCatalog::Parse(catalog.value().Serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value().archive_id, catalog.value().archive_id);
  ASSERT_EQ(reparsed.value().reels.size(), catalog.value().reels.size());
  for (size_t i = 0; i < catalog.value().reels.size(); ++i) {
    EXPECT_EQ(reparsed.value().reels[i].name, catalog.value().reels[i].name);
    EXPECT_EQ(reparsed.value().reels[i].file_crc,
              catalog.value().reels[i].file_crc);
    EXPECT_EQ(reparsed.value().reels[i].first_record,
              catalog.value().reels[i].first_record);
  }
}

class ReelSetFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case as its own process, concurrently, against the
    // same TempDir — every file name must carry the test name.
    test_name_ = ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name();
    data_ = MakeStream(mocoder::StreamId::kData, 2200, 40);
    system_ = MakeStream(mocoder::StreamId::kSystem, 500, 41);
    path_ = WriteSet("fault_" + test_name_ + ".uler", data_, system_,
                     ByFrames(4));
    auto catalog = LoadCatalog(path_);
    ASSERT_TRUE(catalog.ok());
    catalog_ = std::move(catalog).TakeValue();
    ASSERT_GE(catalog_.reels.size(), 3u);
  }

  std::string ReelPath(size_t i) const {
    return testing::TempDir() + catalog_.reels[i].name;
  }

  /// The data frames every reel except `dead` owns, in stream order —
  /// what a degraded restore must still deliver, exactly.
  std::vector<media::Image> SurvivingDataFrames(size_t dead) const {
    std::vector<media::Image> expected;
    for (size_t i = 0; i < catalog_.reels.size(); ++i) {
      if (i == dead) continue;
      const CatalogReel& row = catalog_.reels[i];
      for (uint32_t j = 0; j < row.data_frames; ++j) {
        expected.push_back(data_.frames[row.first_data_frame + j]);
      }
    }
    return expected;
  }

  std::string test_name_;
  EncodedStream data_;
  EncodedStream system_;
  std::string path_;
  ReelCatalog catalog_;
};

TEST_F(ReelSetFaultTest, DeletedReelDegradesToItsFrameRange) {
  const size_t dead = 1;
  ASSERT_TRUE(std::filesystem::remove(ReelPath(dead)));
  auto reader = ReelSetReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value()->surviving_reels(), catalog_.reels.size() - 1);
  EXPECT_FALSE(reader.value()->reel_status(dead).ok());
  EXPECT_NE(reader.value()->reel_status(dead).message().find("reel 1"),
            std::string::npos);
  // The surviving reels still serve exactly their frame ranges.
  auto source = reader.value()->OpenFrames(mocoder::StreamId::kData);
  ExpectSameFrames(Drain(*source), SurvivingDataFrames(dead));
  // Verify refuses the set and names the missing reel.
  Status verify = reader.value()->Verify();
  ASSERT_FALSE(verify.ok());
  EXPECT_NE(verify.message().find(catalog_.reels[dead].name),
            std::string::npos);
}

TEST_F(ReelSetFaultTest, TruncatedReelDegradesToItsFrameRange) {
  const size_t dead = 2;
  // Cut the reel mid-record: it loses its footer, so it no longer opens,
  // and the set degrades exactly as with a missing file.
  auto bytes = ReadFileBytes(ReelPath(dead));
  ASSERT_TRUE(bytes.ok());
  Bytes cut(bytes.value().begin(),
            bytes.value().begin() + bytes.value().size() / 2);
  ASSERT_TRUE(WriteFileBytes(ReelPath(dead), cut).ok());

  auto reader = ReelSetReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value()->surviving_reels(), catalog_.reels.size() - 1);
  EXPECT_EQ(reader.value()->reel_status(dead).code(),
            StatusCode::kCorruption);
  auto source = reader.value()->OpenFrames(mocoder::StreamId::kData);
  ExpectSameFrames(Drain(*source), SurvivingDataFrames(dead));
  EXPECT_FALSE(reader.value()->Verify().ok());
}

TEST_F(ReelSetFaultTest, FlippedCatalogByteIsRejected) {
  auto bytes = ReadFileBytes(path_);
  ASSERT_TRUE(bytes.ok());
  Bytes mutated = std::move(bytes).TakeValue();
  mutated[mutated.size() / 2] ^= 0x20;
  ASSERT_TRUE(WriteFileBytes(path_, mutated).ok());
  auto reader = ReelSetReader::Open(path_);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption)
      << reader.status().ToString();
}

TEST_F(ReelSetFaultTest, UnknownCatalogVersionIsUnimplemented) {
  auto bytes = ReadFileBytes(path_);
  ASSERT_TRUE(bytes.ok());
  Bytes mutated = std::move(bytes).TakeValue();
  mutated[4] = 9;  // catalog binary version
  // Re-seal the CRC so only the version is "wrong" — a future catalog
  // must be rejected as unimplemented, not misread as corrupt.
  const uint32_t crc = Crc32(BytesView(mutated).subspan(0, mutated.size() - 8));
  for (int i = 0; i < 4; ++i) {
    mutated[mutated.size() - 8 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  ASSERT_TRUE(WriteFileBytes(path_, mutated).ok());
  auto reader = ReelSetReader::Open(path_);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kUnimplemented)
      << reader.status().ToString();
}

TEST_F(ReelSetFaultTest, FlippedRecordByteSurfacesMidStreamWithContext) {
  // Flip one payload byte inside reel 1's record region. The reel still
  // opens (its index is intact), so the error must surface exactly at
  // that frame during the read — as a Status naming the offset, never as
  // wrong pixels.
  auto bytes = ReadFileBytes(ReelPath(1));
  ASSERT_TRUE(bytes.ok());
  Bytes mutated = std::move(bytes).TakeValue();
  mutated[kContainerHeaderBytes + kContainerRecordHeaderBytes + 40] ^= 0xFF;
  ASSERT_TRUE(WriteFileBytes(ReelPath(1), mutated).ok());

  auto reader = ReelSetReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader.value()->reel_status(1).ok());  // index is intact
  auto source = reader.value()->OpenFrames(mocoder::StreamId::kData);
  // Frames before the bad record still arrive (reel 0's full range).
  const uint32_t good = catalog_.reels[0].data_frames;
  for (uint32_t i = 0; i < good; ++i) {
    auto next = source->Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(next.value().has_value());
    EXPECT_EQ(next.value()->TakeImage().pixels(), data_.frames[i].pixels());
  }
  auto bad = source->Next();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  EXPECT_NE(bad.status().message().find("offset"), std::string::npos)
      << bad.status().message();

  Status verify = reader.value()->Verify();
  ASSERT_FALSE(verify.ok());
  EXPECT_NE(verify.message().find(catalog_.reels[1].name),
            std::string::npos);
}

TEST(ReelSetTest, SeekReadsInterleaveWithStreamingAcrossReels) {
  // ReadFrame resolves a *global* frame position through the catalog to
  // the owning reel; interleaving it with an open streaming source must
  // disturb neither, even when consecutive seeks hop reels.
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 3000, 50);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 600, 51);
  const std::string path =
      WriteSet("reelset_interleave.uler", data, system, ByFrames(4));
  auto reader = ReelSetReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_GE(reader.value()->catalog().reels.size(), 3u);
  const ReelReader& seek = *reader.value();

  auto source = reader.value()->OpenFrames(mocoder::StreamId::kData);
  std::vector<media::Image> streamed;
  for (size_t i = 0; i < data.frames.size(); ++i) {
    // Seek to the mirror-image position before every streamed pull.
    const size_t mirror = data.frames.size() - 1 - i;
    auto seeked = seek.ReadFrame(mocoder::StreamId::kData, mirror);
    ASSERT_TRUE(seeked.ok()) << seeked.status().ToString();
    EXPECT_EQ(seeked.value().pixels(), data.frames[mirror].pixels());
    auto next = source->Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(next.value().has_value());
    streamed.push_back(next.value()->TakeImage());
  }
  ExpectSameFrames(streamed, data.frames);
  auto sys = seek.ReadFrame(mocoder::StreamId::kSystem, 0);
  ASSERT_TRUE(sys.ok());
  EXPECT_EQ(sys.value().pixels(), system.frames.front().pixels());
  auto past_end =
      seek.ReadFrame(mocoder::StreamId::kData, data.frames.size());
  ASSERT_FALSE(past_end.ok());
  EXPECT_EQ(past_end.status().code(), StatusCode::kOutOfRange);
}

TEST(ReelSetTest, SeekIntoDamagedReelNamesTheFrame) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 2200, 52);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 0, 53);
  const std::string path =
      WriteSet("reelset_seek_dead.uler", data, system, ByFrames(4));
  auto catalog = LoadCatalog(path);
  ASSERT_TRUE(catalog.ok());
  ASSERT_GE(catalog.value().reels.size(), 3u);
  const CatalogReel& dead = catalog.value().reels[1];
  ASSERT_GT(dead.data_frames, 0u);
  ASSERT_TRUE(std::filesystem::remove(testing::TempDir() + dead.name));

  auto reader = ReelSetReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  // Frames on live reels still seek fine.
  auto live = reader.value()->ReadFrame(mocoder::StreamId::kData, 0);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  // A frame on the dead reel fails with the frame named, not a crash.
  auto lost = reader.value()->ReadFrame(mocoder::StreamId::kData,
                                        dead.first_data_frame);
  ASSERT_FALSE(lost.ok());
  EXPECT_NE(lost.status().message().find("damaged reel"), std::string::npos)
      << lost.status().ToString();
}

TEST(ReelSetTest, CurrentReelStatsIsSafeDuringAppendsAndRollovers) {
  // One thread archives across several reel rollovers while another
  // polls CurrentReelStats (a progress UI); TSan (the CI job runs every
  // fast suite) must see no race, and each snapshot must be internally
  // consistent: total frames never decrease.
  const std::string path = testing::TempDir() + "reelset_stats_race.uler";
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 4000, 54);
  ReelSetWriter::Options opt;
  opt.shard = ByFrames(3);
  auto writer = ReelSetWriter::Create(path, SmallOptions(), opt);
  ASSERT_TRUE(writer.ok());

  std::atomic<bool> done{false};
  size_t last_total = 0;
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      size_t total = 0;
      for (const ReelStats& s : writer.value()->CurrentReelStats()) {
        total += s.frames;
      }
      EXPECT_GE(total, last_total);
      last_total = total;
    }
  });
  for (size_t i = 0; i < data.frames.size(); ++i) {
    media::Image frame = data.frames[i];
    ASSERT_TRUE(writer.value()
                    ->Append(mocoder::StreamId::kData, data.emblems[i],
                             std::move(frame))
                    .ok());
  }
  done.store(true, std::memory_order_release);
  poller.join();
  ASSERT_TRUE(writer.value()->Finish().ok());
  ASSERT_GE(writer.value()->reel_count(), 3u);
  size_t final_total = 0;
  for (const ReelStats& s : writer.value()->CurrentReelStats()) {
    final_total += s.frames;
  }
  EXPECT_GE(final_total, data.frames.size());
}

// ---------------------------------------------------------------------------
// ULE-P1 parity: catalog section round trip, rejection of a corrupted
// section, and transparent whole-reel reconstruction on open.

TEST(ReelSetParityTest, ParityCatalogSectionRoundTripsThroughSerializeParse) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 2200, 60);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 400, 61);
  const std::string path = WriteSet("parity_catalog.uler", data, system,
                                    ByFrames(4), /*parity_reels=*/2);
  auto catalog = LoadCatalog(path);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  ASSERT_TRUE(catalog.value().parity.present());
  EXPECT_EQ(catalog.value().parity.parity_reels, 2u);
  ASSERT_EQ(catalog.value().parity.reels.size(), 2u);
  // The stripe spans the longest data reel; every parity file adds its
  // 16-byte header on top and really exists with those exact bytes.
  uint64_t longest = 0;
  for (const CatalogReel& row : catalog.value().reels) {
    longest = std::max(longest, row.bytes);
  }
  EXPECT_EQ(catalog.value().parity.stripe_bytes, longest);
  for (size_t p = 0; p < 2; ++p) {
    const CatalogParityReel& row = catalog.value().parity.reels[p];
    EXPECT_EQ(row.name, std::filesystem::path(ParityReelFileName(path, p))
                            .filename()
                            .string());
    EXPECT_EQ(row.bytes, kParityReelHeaderBytes + longest);
    auto digest = DigestFile(testing::TempDir() + row.name);
    ASSERT_TRUE(digest.ok()) << digest.status().ToString();
    EXPECT_EQ(digest.value().bytes, row.bytes);
    EXPECT_EQ(digest.value().crc, row.file_crc);
  }

  auto reparsed = ReelCatalog::Parse(catalog.value().Serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value().parity.parity_reels,
            catalog.value().parity.parity_reels);
  EXPECT_EQ(reparsed.value().parity.stripe_bytes,
            catalog.value().parity.stripe_bytes);
  ASSERT_EQ(reparsed.value().parity.reels.size(), 2u);
  for (size_t p = 0; p < 2; ++p) {
    EXPECT_EQ(reparsed.value().parity.reels[p].name,
              catalog.value().parity.reels[p].name);
    EXPECT_EQ(reparsed.value().parity.reels[p].file_crc,
              catalog.value().parity.reels[p].file_crc);
  }
}

// FORMAT.md §10.1 promises that stripe byte j of parity reel p is parity
// symbol p of the RS(n+m, n) codeword over byte j of every data reel
// (zero-padded to the stripe). Checked here per offset with the plain
// codec, for n = 3, m = 2.
TEST(ReelSetParityTest, ParityStripeEqualsPerOffsetEncode) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 1400, 72);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 300, 73);
  const std::string path = WriteSet("parity_pin.uler", data, system,
                                    ByFrames(5), /*parity_reels=*/2);
  auto catalog = LoadCatalog(path);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  const size_t n = catalog.value().reels.size();
  const size_t m = catalog.value().parity.reels.size();
  ASSERT_EQ(n, 3u);
  ASSERT_EQ(m, 2u);
  const uint64_t stripe = catalog.value().parity.stripe_bytes;

  std::vector<Bytes> reels;
  bool padded = false;
  for (const CatalogReel& row : catalog.value().reels) {
    auto bytes = ReadFileBytes(testing::TempDir() + row.name);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    padded |= bytes.value().size() < stripe;
    reels.push_back(std::move(bytes).TakeValue());
    reels.back().resize(stripe, 0);
  }
  EXPECT_TRUE(padded) << "every reel spans the stripe: padding unexercised";
  std::vector<Bytes> parity;
  for (const CatalogParityReel& row : catalog.value().parity.reels) {
    auto bytes = ReadFileBytes(testing::TempDir() + row.name);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    ASSERT_EQ(bytes.value().size(), kParityReelHeaderBytes + stripe);
    parity.push_back(std::move(bytes).TakeValue());
  }

  const rs::Codec codec(static_cast<int>(n + m), static_cast<int>(n));
  Bytes word(n);
  for (uint64_t j = 0; j < stripe; ++j) {
    for (size_t i = 0; i < n; ++i) word[i] = reels[i][j];
    const Bytes cw = codec.Encode(word).TakeValue();
    for (size_t p = 0; p < m; ++p) {
      ASSERT_EQ(parity[p][kParityReelHeaderBytes + j], cw[n + p])
          << "parity reel " << p << " offset " << j;
    }
  }
}

TEST(ReelSetParityTest, CorruptedParityCatalogSectionIsRejected) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 1400, 62);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 0, 63);
  const std::string path = WriteSet("parity_badsection.uler", data, system,
                                    ByFrames(4), /*parity_reels=*/1);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  Bytes mutated = std::move(bytes).TakeValue();
  // Break the parity section's magic (past the header, so the reel rows
  // still parse) and re-seal the catalog CRC: the section itself must be
  // rejected as corrupt, not masked by the file checksum.
  size_t section = 0;
  for (size_t i = 8; i + 4 <= mutated.size(); ++i) {
    if (mutated[i] == 'U' && mutated[i + 1] == 'L' && mutated[i + 2] == 'E' &&
        mutated[i + 3] == 'P') {
      section = i;
      break;
    }
  }
  ASSERT_GT(section, 0u) << "catalog carries no ULE-P1 section";
  mutated[section] = 'X';
  const uint32_t crc = Crc32(BytesView(mutated).subspan(0, mutated.size() - 8));
  for (int i = 0; i < 4; ++i) {
    mutated[mutated.size() - 8 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  ASSERT_TRUE(WriteFileBytes(path, mutated).ok());
  auto reader = ReelSetReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption)
      << reader.status().ToString();
  EXPECT_NE(reader.status().message().find("trailing bytes"),
            std::string::npos)
      << reader.status().ToString();
}

TEST(ReelSetParityTest, ParityHealsLostReelsTransparently) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 2200, 64);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 500, 65);
  const std::string path = WriteSet("parity_heal.uler", data, system,
                                    ByFrames(4), /*parity_reels=*/2);
  auto catalog = LoadCatalog(path);
  ASSERT_TRUE(catalog.ok());
  const size_t reels = catalog.value().reels.size();
  ASSERT_GE(reels, 3u);
  // The stripe is the longest data reel, and each .ulep file is the
  // 16-byte ULE-P1 header plus one stripe (docs/FORMAT.md §10.1).
  const ParityInfo& parity = catalog.value().parity;
  ASSERT_EQ(parity.reels.size(), 2u);
  uint64_t longest = 0;
  for (const CatalogReel& reel : catalog.value().reels) {
    longest = std::max(longest, reel.bytes);
  }
  EXPECT_EQ(parity.stripe_bytes, longest);
  for (const CatalogParityReel& reel : parity.reels) {
    EXPECT_EQ(reel.bytes, 16u + parity.stripe_bytes) << reel.name;
    EXPECT_EQ(std::filesystem::file_size(testing::TempDir() + reel.name),
              16u + parity.stripe_bytes)
        << reel.name;
  }
  // Lose two whole reels — exactly the parity budget.
  ASSERT_TRUE(std::filesystem::remove(testing::TempDir() +
                                      catalog.value().reels[0].name));
  ASSERT_TRUE(std::filesystem::remove(testing::TempDir() +
                                      catalog.value().reels[reels - 1].name));

  auto reader = ReelSetReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  // Every reel is serviceable again; the set remembers which two were
  // rebuilt, and that their files on disk are still damaged.
  EXPECT_EQ(reader.value()->surviving_reels(), reels);
  EXPECT_EQ(reader.value()->reconstructed_reels(), 2u);
  EXPECT_TRUE(reader.value()->reel_reconstructed(0));
  EXPECT_TRUE(reader.value()->reel_reconstructed(reels - 1));
  EXPECT_FALSE(reader.value()->reel_reconstructed(1));
  EXPECT_TRUE(reader.value()->reel_status(0).ok());
  EXPECT_FALSE(reader.value()->reel_damage(0).ok());

  // Frame delivery is byte-identical to the undamaged archive, and the
  // Bootstrap (lost with the final reel) is back.
  auto source = reader.value()->OpenFrames(mocoder::StreamId::kData);
  ExpectSameFrames(Drain(*source), data.frames);
  auto sys = reader.value()->OpenFrames(mocoder::StreamId::kSystem);
  ExpectSameFrames(Drain(*sys), system.frames);
  auto bootstrap = reader.value()->ReadBootstrap();
  ASSERT_TRUE(bootstrap.ok()) << bootstrap.status().ToString();
  EXPECT_EQ(bootstrap.value(), "THE BOOTSTRAP\n");

  // Verify judges the artifact as stored: the reconstruction does not
  // mask the damage, and the report names a lost reel.
  Status verify = reader.value()->Verify();
  ASSERT_FALSE(verify.ok());
  EXPECT_NE(verify.message().find(catalog.value().reels[0].name),
            std::string::npos)
      << verify.ToString();

  // reconstruct=false opens the set as a parity-less reader would: two
  // reels dead, no recovery temp files written.
  ReelOpenOptions opt;
  opt.reconstruct = false;
  auto raw = ReelSetReader::Open(path, opt);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_EQ(raw.value()->surviving_reels(), reels - 2);
  EXPECT_EQ(raw.value()->reconstructed_reels(), 0u);
}

TEST(ReelSetParityTest, LossBeyondParityBudgetDegradesLikeParityless) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 2200, 66);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 0, 67);
  const std::string path = WriteSet("parity_beyond.uler", data, system,
                                    ByFrames(4), /*parity_reels=*/1);
  auto catalog = LoadCatalog(path);
  ASSERT_TRUE(catalog.ok());
  ASSERT_GE(catalog.value().reels.size(), 3u);
  for (size_t i : {size_t{0}, size_t{1}}) {
    ASSERT_TRUE(std::filesystem::remove(testing::TempDir() +
                                        catalog.value().reels[i].name));
  }
  auto reader = ReelSetReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  // Two losses, one parity reel: no reconstruction, per-reel degradation
  // exactly as in a parity-less set.
  EXPECT_EQ(reader.value()->reconstructed_reels(), 0u);
  EXPECT_EQ(reader.value()->surviving_reels(),
            catalog.value().reels.size() - 2);
  EXPECT_FALSE(reader.value()->reel_status(0).ok());
  EXPECT_FALSE(reader.value()->Verify().ok());
}

TEST(ReelSetParityTest, VerifyNamesDamagedParityReel) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 1400, 68);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 300, 69);
  const std::string path = WriteSet("parity_flip.uler", data, system,
                                    ByFrames(4), /*parity_reels=*/2);
  auto catalog = LoadCatalog(path);
  ASSERT_TRUE(catalog.ok());
  const std::string parity_name = catalog.value().parity.reels[1].name;
  const std::string parity_path = testing::TempDir() + parity_name;
  auto bytes = ReadFileBytes(parity_path);
  ASSERT_TRUE(bytes.ok());
  Bytes mutated = std::move(bytes).TakeValue();
  mutated[kParityReelHeaderBytes + 7] ^= 0x40;
  ASSERT_TRUE(WriteFileBytes(parity_path, mutated).ok());

  auto reader = ReelSetReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  // Data reels are untouched — nothing to reconstruct, frames intact —
  // but the silent parity damage is on record and Verify names the file
  // (this used to be skipped entirely).
  EXPECT_EQ(reader.value()->reconstructed_reels(), 0u);
  EXPECT_TRUE(reader.value()->parity_status(0).ok());
  EXPECT_FALSE(reader.value()->parity_status(1).ok());
  auto source = reader.value()->OpenFrames(mocoder::StreamId::kData);
  ExpectSameFrames(Drain(*source), data.frames);
  Status verify = reader.value()->Verify();
  ASSERT_FALSE(verify.ok());
  EXPECT_NE(verify.message().find(parity_name), std::string::npos)
      << verify.ToString();
}

TEST(ReelSetParityTest, ForgedReelNamesCannotLeaveTheArchiveDirectory) {
  // Catalog rows name their reels by bare file name. A forged row (CRC
  // re-sealed, so only the name is wrong) naming anything that resolves
  // elsewhere must be refused at parse time — before open, parity repair
  // or scrub joins it onto the catalog's directory and reads or writes
  // outside the archive.
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 2200, 70);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 0, 71);
  const std::string dir = testing::TempDir() + "forged_names/";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "forged.uler";
  testutil::WriteSetAt(path, data, system, ByFrames(4), /*parity_reels=*/1);
  auto pristine = LoadCatalog(path);
  ASSERT_TRUE(pristine.ok()) << pristine.status().ToString();
  const std::string victim = testing::TempDir() + "victim.ulec";
  std::filesystem::remove(victim);

  const std::string bad_names[] = {
      "",   "../victim.ulec", "..", ".", "sub/reel.ulec", "sub\\reel.ulec",
      std::string("reel\0.ulec", 10)};
  for (const bool parity_row : {false, true}) {
    const std::string row = parity_row ? "parity reel 0" : "reel 0";
    auto forge = [&](const std::string& name) {
      ReelCatalog forged = pristine.value();
      (parity_row ? forged.parity.reels[0].name : forged.reels[0].name) =
          name;
      return forged.Serialize();
    };
    for (const std::string& bad : bad_names) {
      auto parsed = ReelCatalog::Parse(forge(bad));
      ASSERT_FALSE(parsed.ok()) << row << " named '" << bad << "'";
      EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
      EXPECT_NE(parsed.status().message().find("catalog " + row + " "),
                std::string::npos)
          << parsed.status().ToString();
    }
    // On disk the forged set neither opens nor lets a scrub repair write
    // the "missing" reel one directory above the archive.
    ASSERT_TRUE(WriteFileBytes(path, forge("../victim.ulec")).ok());
    EXPECT_FALSE(ReelSetReader::Open(path).ok()) << row;
    auto scrubbed = ScrubArchive(path, /*repair=*/true);
    ASSERT_TRUE(scrubbed.ok()) << scrubbed.status().ToString();
    EXPECT_EQ(scrubbed.value().state, ArchiveState::kDataLoss) << row;
    EXPECT_FALSE(std::filesystem::exists(victim)) << row;
  }
}

// ---------------------------------------------------------------------------
// Full pipeline: core::ArchiveDumpStreaming onto a reel set

core::ArchiveOptions TestArchiveOptions(int threads) {
  core::ArchiveOptions options;
  options.emblem = SmallOptions();
  options.emblem.threads = threads;
  return options;
}

std::string TestDump() {
  std::string dump;
  for (int i = 0; i < 40; ++i) {
    dump += "INSERT INTO lineitem VALUES (" + std::to_string(i * 37) +
            ", 'part-" + std::to_string(i) + "', 'supplier-" +
            std::to_string(i % 7) + "', 4.25, 'archival layout emulation');\n";
  }
  return dump;
}

TEST(ReelSetPipelineTest, ShardedArchiveRestoresIdenticallyToSingleReel) {
  const std::string dump = TestDump();
  const std::string single_path = testing::TempDir() + "pipe_single.ulec";
  const std::string set_path = testing::TempDir() + "pipe_set.uler";

  // One archive, two shapes: a single container and a ≥3-reel set.
  auto single = ContainerWriter::Create(single_path, SmallOptions());
  ASSERT_TRUE(single.ok());
  auto single_summary = core::ArchiveDumpStreaming(
      dump, TestArchiveOptions(2), *single.value());
  ASSERT_TRUE(single_summary.ok()) << single_summary.status().ToString();
  ASSERT_TRUE(single.value()
                  ->AppendBootstrap(single_summary.value().bootstrap_text)
                  .ok());
  ASSERT_TRUE(single.value()->Finish().ok());
  ASSERT_EQ(single_summary.value().reels.size(), 1u);

  ReelSetWriter::Options sopt;
  sopt.shard.max_frames_per_reel = 3;
  auto set = ReelSetWriter::Create(set_path, SmallOptions(), sopt);
  ASSERT_TRUE(set.ok());
  auto set_summary =
      core::ArchiveDumpStreaming(dump, TestArchiveOptions(2), *set.value());
  ASSERT_TRUE(set_summary.ok()) << set_summary.status().ToString();
  ASSERT_TRUE(
      set.value()->AppendBootstrap(set_summary.value().bootstrap_text).ok());
  ASSERT_TRUE(set.value()->Finish().ok());
  EXPECT_GE(set.value()->reel_count(), 3u);
  // The summary's per-reel stats came from the sink mid-stream: one row
  // per reel, frames summing to the stream totals.
  size_t stat_frames = 0;
  for (const ReelStats& s : set_summary.value().reels) {
    stat_frames += s.frames;
  }
  EXPECT_EQ(stat_frames, set_summary.value().data_frames +
                             set_summary.value().system_frames);

  // Restores are byte-identical across backend, thread count, and stats.
  auto single_reel = OpenReel(single_path);
  ASSERT_TRUE(single_reel.ok());
  core::RestoreStats single_stats;
  auto single_data = single_reel.value()->OpenFrames(mocoder::StreamId::kData);
  auto single_system =
      single_reel.value()->OpenFrames(mocoder::StreamId::kSystem);
  auto single_restored = core::RestoreNativeStreaming(
      *single_data, single_system.get(),
      single_reel.value()->emblem_options(), &single_stats);
  ASSERT_TRUE(single_restored.ok()) << single_restored.status().ToString();
  EXPECT_EQ(single_restored.value(), dump);

  for (const int threads : {1, 4}) {
    auto set_reel = ReelSetReader::Open(set_path);
    ASSERT_TRUE(set_reel.ok());
    mocoder::Options restore_options = set_reel.value()->emblem_options();
    restore_options.threads = threads;
    core::RestoreStats set_stats;
    auto set_data = set_reel.value()->OpenFrames(mocoder::StreamId::kData);
    auto set_system = set_reel.value()->OpenFrames(mocoder::StreamId::kSystem);
    auto set_restored = core::RestoreNativeStreaming(
        *set_data, set_system.get(), restore_options, &set_stats);
    ASSERT_TRUE(set_restored.ok()) << set_restored.status().ToString();
    EXPECT_EQ(set_restored.value(), single_restored.value());
    EXPECT_EQ(set_stats.data_stream.emblems_total,
              single_stats.data_stream.emblems_total);
    EXPECT_EQ(set_stats.data_stream.emblems_decoded,
              single_stats.data_stream.emblems_decoded);
    EXPECT_EQ(set_stats.data_stream.emblems_recovered,
              single_stats.data_stream.emblems_recovered);
    EXPECT_EQ(set_stats.system_stream.emblems_decoded,
              single_stats.system_stream.emblems_decoded);
  }
}

TEST(ReelSetPipelineTest, LostReelWithinOuterBudgetStillRestoresExactly) {
  const std::string dump = TestDump();
  const std::string set_path = testing::TempDir() + "pipe_lost.uler";
  ReelSetWriter::Options sopt;
  // ≤3 frames per reel: losing one whole reel stays inside the outer
  // code's 3-erasures-per-group budget.
  sopt.shard.max_frames_per_reel = 3;
  auto set = ReelSetWriter::Create(set_path, SmallOptions(), sopt);
  ASSERT_TRUE(set.ok());
  auto summary =
      core::ArchiveDumpStreaming(dump, TestArchiveOptions(2), *set.value());
  ASSERT_TRUE(summary.ok());
  ASSERT_TRUE(
      set.value()->AppendBootstrap(summary.value().bootstrap_text).ok());
  ASSERT_TRUE(set.value()->Finish().ok());
  ASSERT_GE(set.value()->reel_count(), 3u);
  // Reel 0 always owns the first data emblems (frames arrive data
  // stream first), so losing it forces real outer-code recovery.
  ASSERT_GT(set.value()->catalog().reels[0].data_frames, 0u);
  ASSERT_TRUE(std::filesystem::remove(testing::TempDir() +
                                      set.value()->catalog().reels[0].name));

  auto reader = ReelSetReader::Open(set_path);
  ASSERT_TRUE(reader.ok());
  core::RestoreStats stats;
  auto data = reader.value()->OpenFrames(mocoder::StreamId::kData);
  auto system = reader.value()->OpenFrames(mocoder::StreamId::kSystem);
  auto restored = core::RestoreNativeStreaming(
      *data, system.get(), reader.value()->emblem_options(), &stats);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), dump);
  EXPECT_GT(stats.data_stream.emblems_recovered, 0);
}

TEST(ReelSetPipelineTest, ScannerShimRestoresThroughSimulatedScans) {
  const std::string dump = TestDump();
  const std::string set_path = testing::TempDir() + "pipe_scan.uler";
  // The scan simulation needs decode margin: 4 dots per cell (the same
  // pitch end_to_end_test scans at), not the 2 the fast tests render.
  mocoder::Options emblem = SmallOptions();
  emblem.dots_per_cell = 4;
  core::ArchiveOptions archive_options;
  archive_options.emblem = emblem;
  archive_options.emblem.threads = 2;
  ReelSetWriter::Options sopt;
  sopt.shard.max_frames_per_reel = 4;
  auto set = ReelSetWriter::Create(set_path, emblem, sopt);
  ASSERT_TRUE(set.ok());
  auto summary =
      core::ArchiveDumpStreaming(dump, archive_options, *set.value());
  ASSERT_TRUE(summary.ok());
  ASSERT_TRUE(set.value()->Finish().ok());
  ASSERT_GE(set.value()->reel_count(), 3u);

  auto reader = ReelSetReader::Open(set_path);
  ASSERT_TRUE(reader.ok());

  // The realistic path: every frame leaves the reels through the scanner
  // simulation (the same distortion end_to_end_test survives), one at a
  // time — no intermediate scan vector exists.
  ScannerSource::Options scan;
  scan.profile.rotation_deg = 0.4;
  scan.profile.blur_sigma = 0.6;
  scan.profile.noise_sigma = 6;
  scan.profile.seed = 321;
  auto data_scans = std::make_unique<ScannerSource>(
      reader.value()->OpenFrames(mocoder::StreamId::kData), scan);
  auto system_scans = std::make_unique<ScannerSource>(
      reader.value()->OpenFrames(mocoder::StreamId::kSystem), scan);
  auto restored = core::RestoreNativeStreaming(
      *data_scans, system_scans.get(), reader.value()->emblem_options());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), dump);
}

}  // namespace
}  // namespace filmstore
}  // namespace ule
