// Film-store backends: round trips through the in-memory store, the
// directory-of-scans store and the ULE-C1 spool container, plus fault
// injection on the container — truncation, flipped bytes, unknown
// versions — which must surface as clean Status errors, never crashes or
// silently corrupted restores.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/micr_olonys.h"
#include "core/record_index.h"
#include "filmstore/container.h"
#include "filmstore/directory_store.h"
#include "filmstore/frame_store.h"
#include "filmstore/reel_reader.h"
#include "filmstore/scrub.h"
#include "mocoder/mocoder.h"
#include "support/crc32.h"
#include "support/io.h"
#include "support/random.h"
#include "tests/golden.h"

namespace ule {
namespace filmstore {
namespace {

mocoder::Options SmallOptions() {
  mocoder::Options opt;
  opt.data_side = 65;  // smallest geometry: fast encodes
  opt.dots_per_cell = 2;
  return opt;
}

/// A small deterministic payload encoded + rendered into frames of one
/// stream (the shape ArchiveDumpStreaming hands a sink).
struct EncodedStream {
  Bytes payload;
  std::vector<mocoder::EncodedEmblem> emblems;
  std::vector<media::Image> frames;
};

EncodedStream MakeStream(mocoder::StreamId id, size_t payload_bytes,
                         uint32_t seed) {
  EncodedStream out;
  out.payload = RandomBytes(seed, payload_bytes);
  const mocoder::Options opt = SmallOptions();
  Status st = mocoder::EncodeToSink(
      out.payload, id, opt, /*render=*/true,
      [&](mocoder::EncodedEmblem&& emblem, media::Image&& frame) -> Status {
        out.emblems.push_back(std::move(emblem));
        out.frames.push_back(std::move(frame));
        return Status::OK();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

/// Drains a source into a vector, failing the test on any error.
std::vector<media::Image> Drain(FrameSource& source) {
  std::vector<media::Image> frames;
  for (;;) {
    auto next = source.Next();
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok() || !next.value().has_value()) break;
    frames.push_back(next.value()->TakeImage());
  }
  return frames;
}

void ExpectSameFrames(const std::vector<media::Image>& a,
                      const std::vector<media::Image>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pixels(), b[i].pixels()) << "frame " << i;
  }
}

/// Writes both streams (and a bootstrap) through any sink.
void FillSink(FrameSink& sink, const EncodedStream& data,
              const EncodedStream& system) {
  for (size_t i = 0; i < data.frames.size(); ++i) {
    media::Image frame = data.frames[i];
    ASSERT_TRUE(sink.Append(mocoder::StreamId::kData, data.emblems[i],
                            std::move(frame))
                    .ok());
  }
  for (size_t i = 0; i < system.frames.size(); ++i) {
    media::Image frame = system.frames[i];
    ASSERT_TRUE(sink.Append(mocoder::StreamId::kSystem, system.emblems[i],
                            std::move(frame))
                    .ok());
  }
}

TEST(MemoryStoreTest, RoundTripBothStreams) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 4000, 1);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 900, 2);
  MemoryStore store;
  FillSink(store, data, system);
  EXPECT_EQ(store.frames(mocoder::StreamId::kData).size(),
            data.frames.size());
  EXPECT_EQ(store.emblems(mocoder::StreamId::kSystem).size(),
            system.emblems.size());
  auto data_source = store.OpenFrames(mocoder::StreamId::kData);
  ExpectSameFrames(Drain(*data_source), data.frames);
  auto system_source = store.OpenFrames(mocoder::StreamId::kSystem);
  ExpectSameFrames(Drain(*system_source), system.frames);

  // The stored frames still decode back to the payload.
  auto frames = store.OpenFrames(mocoder::StreamId::kData);
  auto decoded = mocoder::DecodeStream([&] { return frames->Next(); },
                                       mocoder::StreamId::kData,
                                       SmallOptions());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), data.payload);
}

TEST(FrameStoreTest, FunctionAdaptersMatchCallbacks) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 1000, 3);
  std::vector<media::Image> collected;
  FunctionSink sink([&](mocoder::StreamId id,
                        const mocoder::EncodedEmblem& emblem,
                        media::Image&& frame) -> Status {
    EXPECT_EQ(emblem.header.stream, id);
    if (id == mocoder::StreamId::kData) collected.push_back(std::move(frame));
    return Status::OK();
  });
  FillSink(sink, data, MakeStream(mocoder::StreamId::kSystem, 0, 4));
  ExpectSameFrames(collected, data.frames);

  size_t i = 0;
  FunctionSource source([&]() -> Result<std::optional<media::Image>> {
    if (i >= collected.size()) return std::optional<media::Image>();
    return std::optional<media::Image>(collected[i++]);
  });
  ExpectSameFrames(Drain(source), data.frames);
}

// Regression: a backing-store read failure must surface as a non-OK
// Status, not masquerade as end-of-reel and silently truncate the
// restore to however many frames happened to precede the failure.
TEST(FrameStoreTest, MidReelReadErrorAbortsRestore) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 2000, 9);
  size_t i = 0;
  FunctionSource source([&]() -> Result<std::optional<media::Image>> {
    if (i == data.frames.size() / 2) {
      return Status::IoError("simulated mid-reel read failure");
    }
    if (i >= data.frames.size()) return std::optional<media::Image>();
    return std::optional<media::Image>(data.frames[i++]);
  });
  auto restored =
      core::RestoreNativeStreaming(source, nullptr, SmallOptions());
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().ToString().find("mid-reel read failure"),
            std::string::npos)
      << restored.status().ToString();
}

TEST(DirectoryStoreTest, RoundTripWithManifestAndBootstrap) {
  const std::string dir = testing::TempDir() + "filmstore_dir_rt";
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 3000, 5);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 700, 6);
  auto writer = DirectoryWriter::Create(dir, SmallOptions());
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  FillSink(*writer.value(), data, system);
  ASSERT_TRUE(writer.value()->AppendBootstrap("BOOTSTRAP TEXT\n").ok());
  ASSERT_TRUE(writer.value()->Finish().ok());

  auto reader = DirectoryReader::Open(dir);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value()->emblem_options().data_side, 65);
  EXPECT_EQ(reader.value()->frame_count(mocoder::StreamId::kData),
            data.frames.size());
  EXPECT_EQ(reader.value()->frame_count(mocoder::StreamId::kSystem),
            system.frames.size());
  auto bootstrap = reader.value()->ReadBootstrap();
  ASSERT_TRUE(bootstrap.ok());
  EXPECT_EQ(bootstrap.value(), "BOOTSTRAP TEXT\n");
  auto source = reader.value()->OpenFrames(mocoder::StreamId::kData);
  ExpectSameFrames(Drain(*source), data.frames);
  EXPECT_TRUE(reader.value()->Verify().ok());
}

TEST(DirectoryStoreTest, BitonalPbmRoundTripsRenderedFrames) {
  const std::string dir = testing::TempDir() + "filmstore_dir_pbm";
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 500, 7);
  DirectoryWriter::Options dopt;
  dopt.bitonal = true;
  auto writer = DirectoryWriter::Create(dir, SmallOptions(), dopt);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  FillSink(*writer.value(), data, MakeStream(mocoder::StreamId::kSystem, 0, 8));
  ASSERT_TRUE(writer.value()->Finish().ok());

  auto reader = DirectoryReader::Open(dir);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader.value()->bitonal());
  // Rendered frames are pure 0/255, so the bitonal codec is lossless.
  auto source = reader.value()->OpenFrames(mocoder::StreamId::kData);
  ExpectSameFrames(Drain(*source), data.frames);
}

TEST(DirectoryStoreTest, AppendAfterFinishFails) {
  // Same sealing contract as the ULE-C1 writer: a finished reel rejects
  // further appends.
  const std::string dir = testing::TempDir() + "filmstore_dir_sealed";
  auto writer = DirectoryWriter::Create(dir, SmallOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Finish().ok());
  EXPECT_EQ(writer.value()->AppendBootstrap("late").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(writer.value()->Finish().code(), StatusCode::kInvalidArgument);
}

TEST(DirectoryStoreTest, MissingManifestIsNotFound) {
  const std::string dir = testing::TempDir() + "filmstore_dir_empty";
  ASSERT_TRUE(DirectoryWriter::Create(dir, SmallOptions()).ok());  // mkdir
  auto reader = DirectoryReader::Open(dir);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

TEST(DirectoryStoreTest, CreateClearsStaleReelArtifacts) {
  // Re-archiving into the same directory must not leave frames of a
  // previous, larger reel behind (a human browsing the folder would
  // mistake them for part of the archive). Unrelated files survive.
  const std::string dir = testing::TempDir() + "filmstore_dir_stale";
  ASSERT_TRUE(std::filesystem::create_directories(dir) ||
              std::filesystem::exists(dir));
  ASSERT_TRUE(WriteFileText(dir + "/data-0099.pgm", "stale").ok());
  ASSERT_TRUE(WriteFileText(dir + "/system-0007.pbm", "stale").ok());
  ASSERT_TRUE(WriteFileText(dir + "/manifest.txt", "stale").ok());
  ASSERT_TRUE(WriteFileText(dir + "/notes.txt", "keep me").ok());

  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 300, 20);
  auto writer = DirectoryWriter::Create(dir, SmallOptions());
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(dir + "/data-0099.pgm"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/system-0007.pbm"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/notes.txt"));
  media::Image frame = data.frames[0];
  ASSERT_TRUE(writer.value()
                  ->Append(mocoder::StreamId::kData, data.emblems[0],
                           std::move(frame))
                  .ok());
  ASSERT_TRUE(writer.value()->Finish().ok());
  auto reader = DirectoryReader::Open(dir);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value()->frame_count(mocoder::StreamId::kData), 1u);
}

// ---------------------------------------------------------------------------
// ULE-C1 container

/// Builds a sealed container on disk and returns its path.
std::string WriteContainer(const std::string& name, const EncodedStream& data,
                           const EncodedStream& system,
                           bool bitonal = false) {
  const std::string path = testing::TempDir() + name;
  ContainerWriter::Options copt;
  copt.bitonal = bitonal;
  auto writer = ContainerWriter::Create(path, SmallOptions(), copt);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  FillSink(*writer.value(), data, system);
  EXPECT_TRUE(writer.value()->AppendBootstrap("THE BOOTSTRAP\n").ok());
  EXPECT_TRUE(writer.value()->Finish().ok());
  return path;
}

TEST(ContainerTest, RoundTripBothCodecs) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 2500, 9);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 600, 10);
  for (const bool bitonal : {false, true}) {
    const std::string path = WriteContainer(
        bitonal ? "rt_pbm.ulec" : "rt_pgm.ulec", data, system, bitonal);
    auto reader = ContainerReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader.value()->emblem_options().data_side, 65);
    EXPECT_EQ(reader.value()->emblem_options().threads, 0);
    EXPECT_EQ(reader.value()->frame_count(mocoder::StreamId::kData),
              data.frames.size());
    EXPECT_EQ(reader.value()->frame_count(mocoder::StreamId::kSystem),
              system.frames.size());
    EXPECT_TRUE(reader.value()->has_bootstrap());
    auto bootstrap = reader.value()->ReadBootstrap();
    ASSERT_TRUE(bootstrap.ok());
    EXPECT_EQ(bootstrap.value(), "THE BOOTSTRAP\n");
    auto data_source = reader.value()->OpenFrames(mocoder::StreamId::kData);
    ExpectSameFrames(Drain(*data_source), data.frames);
    auto system_source =
        reader.value()->OpenFrames(mocoder::StreamId::kSystem);
    ExpectSameFrames(Drain(*system_source), system.frames);
    EXPECT_TRUE(reader.value()->Verify().ok());

    // Sequence slots recorded in the index match the emblem headers.
    size_t frame_i = 0;
    for (const ContainerEntry& e : reader.value()->entries()) {
      if (e.type != RecordType::kDataFrame) continue;
      EXPECT_EQ(e.seq, data.emblems[frame_i++].header.seq);
    }
  }
}

TEST(ContainerTest, EmptyContainerOpensWithZeroRecords) {
  const std::string path = testing::TempDir() + "empty.ulec";
  auto writer = ContainerWriter::Create(path, SmallOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Finish().ok());
  auto reader = ContainerReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader.value()->entries().empty());
  EXPECT_FALSE(reader.value()->has_bootstrap());
  EXPECT_EQ(reader.value()->ReadBootstrap().status().code(),
            StatusCode::kNotFound);
}

TEST(ContainerTest, AppendAfterFinishFails) {
  const std::string path = testing::TempDir() + "sealed.ulec";
  auto writer = ContainerWriter::Create(path, SmallOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Finish().ok());
  EXPECT_EQ(writer.value()->AppendBootstrap("late").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(writer.value()->Finish().code(), StatusCode::kInvalidArgument);
}

TEST(ContainerTest, UnfinishedContainerDoesNotOpen) {
  // A writer that died mid-archive leaves no footer; the file must not
  // pass for a reel.
  const std::string path = testing::TempDir() + "unfinished.ulec";
  {
    auto writer = ContainerWriter::Create(path, SmallOptions());
    ASSERT_TRUE(writer.ok());
    const EncodedStream data = MakeStream(mocoder::StreamId::kData, 500, 11);
    media::Image frame = data.frames[0];
    ASSERT_TRUE(writer.value()
                    ->Append(mocoder::StreamId::kData, data.emblems[0],
                             std::move(frame))
                    .ok());
    // No Finish.
  }
  auto reader = ContainerReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

class ContainerFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case as its own process, concurrently, against the
    // same TempDir — every file name must carry the test name.
    test_name_ = ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name();
    data_ = MakeStream(mocoder::StreamId::kData, 1500, 12);
    system_ = MakeStream(mocoder::StreamId::kSystem, 400, 13);
    path_ = WriteContainer("fault_" + test_name_ + ".ulec", data_, system_);
    auto bytes = ReadFileBytes(path_);
    ASSERT_TRUE(bytes.ok());
    pristine_ = std::move(bytes).TakeValue();
  }

  /// Writes a mutated copy of the pristine container and returns its path.
  std::string Mutated(const Bytes& bytes, const std::string& name) {
    const std::string path = testing::TempDir() + test_name_ + "_" + name;
    EXPECT_TRUE(WriteFileBytes(path, bytes).ok());
    return path;
  }

  std::string test_name_;

  EncodedStream data_;
  EncodedStream system_;
  std::string path_;
  Bytes pristine_;
};

TEST_F(ContainerFaultTest, TruncatedFileFailsToOpen) {
  for (const double keep : {0.95, 0.5, 0.01}) {
    Bytes cut(pristine_.begin(),
              pristine_.begin() +
                  static_cast<size_t>(pristine_.size() * keep));
    auto reader = ContainerReader::Open(Mutated(cut, "truncated.ulec"));
    ASSERT_FALSE(reader.ok()) << "keep=" << keep;
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruption)
        << reader.status().ToString();
  }
}

TEST_F(ContainerFaultTest, FlippedPayloadByteIsCaughtByCrc) {
  // Flip one byte inside the first frame payload (the record region
  // starts after the 16-byte header + 12-byte record header).
  Bytes bytes = pristine_;
  bytes[100] ^= 0xFF;
  const std::string path = Mutated(bytes, "flipped.ulec");
  // The index is intact, so the container still opens...
  auto reader = ContainerReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  // ...but both the integrity pass and the frame source report Corruption.
  Status verify = reader.value()->Verify();
  EXPECT_EQ(verify.code(), StatusCode::kCorruption) << verify.ToString();
  auto source = reader.value()->OpenFrames(mocoder::StreamId::kData);
  auto next = source->Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kCorruption);
}

TEST_F(ContainerFaultTest, FlippedIndexCrcByteIsCaught) {
  // Reads are driven by the trailing index, so a flipped byte in the
  // index (here: entry 0's stored payload CRC) must be caught by the
  // footer's index checksum before any payload is trusted.
  Bytes bytes = pristine_;
  // Footer (last 20 bytes): u64 index_offset | u32 count | u32 crc | magic.
  uint64_t index_offset = 0;
  for (int i = 0; i < 8; ++i) {
    index_offset |= static_cast<uint64_t>(bytes[bytes.size() - 20 + i])
                    << (8 * i);
  }
  ASSERT_LT(index_offset + 12, bytes.size());
  bytes[index_offset + 12] ^= 0x01;  // entry 0's payload_crc field
  auto broken = ContainerReader::Open(Mutated(bytes, "bad_index.ulec"));
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.status().code(), StatusCode::kCorruption)
      << broken.status().ToString();
}

TEST_F(ContainerFaultTest, UnknownContainerVersionIsRejected) {
  Bytes bytes = pristine_;
  bytes[4] = 9;  // header version byte
  auto reader = ContainerReader::Open(Mutated(bytes, "future.ulec"));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kUnimplemented)
      << reader.status().ToString();
}

TEST_F(ContainerFaultTest, BadMagicIsRejected) {
  Bytes bytes = pristine_;
  bytes[0] = 'X';
  auto reader = ContainerReader::Open(Mutated(bytes, "badmagic.ulec"));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST_F(ContainerFaultTest, FooterMagicFlipIsRejected) {
  Bytes bytes = pristine_;
  bytes[bytes.size() - 1] ^= 0xFF;
  auto reader = ContainerReader::Open(Mutated(bytes, "badfooter.ulec"));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Append-resume: recovering an unfinished spool

TEST(ContainerResumeTest, ScanRecoversEveryCompleteRecord) {
  const std::string path = testing::TempDir() + "resume_scan.ulec";
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 1200, 30);
  {
    auto writer = ContainerWriter::Create(path, SmallOptions());
    ASSERT_TRUE(writer.ok());
    for (size_t i = 0; i < data.frames.size(); ++i) {
      media::Image frame = data.frames[i];
      ASSERT_TRUE(writer.value()
                      ->Append(mocoder::StreamId::kData, data.emblems[i],
                               std::move(frame))
                      .ok());
    }
    // The writer dies here: no Finish, no index, no footer.
  }
  ASSERT_FALSE(ContainerReader::Open(path).ok());

  auto scan = ScanSpool(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_FALSE(scan.value().sealed);
  EXPECT_EQ(scan.value().entries.size(), data.frames.size());
  EXPECT_EQ(scan.value().dropped_bytes, 0u);
  EXPECT_EQ(scan.value().emblem_options.data_side, 65);
}

TEST(ContainerResumeTest, ResumeContinuesAppendingAndSeals) {
  const std::string path = testing::TempDir() + "resume_continue.ulec";
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 1500, 32);
  const size_t half = data.frames.size() / 2;
  ASSERT_GT(half, 0u);
  {
    auto writer = ContainerWriter::Create(path, SmallOptions());
    ASSERT_TRUE(writer.ok());
    for (size_t i = 0; i < half; ++i) {
      media::Image frame = data.frames[i];
      ASSERT_TRUE(writer.value()
                      ->Append(mocoder::StreamId::kData, data.emblems[i],
                               std::move(frame))
                      .ok());
    }
    // Interrupted mid-archive.
  }
  auto resumed = ContainerWriter::Resume(path);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (size_t i = half; i < data.frames.size(); ++i) {
    media::Image frame = data.frames[i];
    ASSERT_TRUE(resumed.value()
                    ->Append(mocoder::StreamId::kData, data.emblems[i],
                             std::move(frame))
                    .ok());
  }
  ASSERT_TRUE(resumed.value()->AppendBootstrap("RESUMED\n").ok());
  ASSERT_TRUE(resumed.value()->Finish().ok());

  // The sealed container is indistinguishable from an uninterrupted one.
  auto reader = ContainerReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto source = reader.value()->OpenFrames(mocoder::StreamId::kData);
  ExpectSameFrames(Drain(*source), data.frames);
  auto bootstrap = reader.value()->ReadBootstrap();
  ASSERT_TRUE(bootstrap.ok());
  EXPECT_EQ(bootstrap.value(), "RESUMED\n");
  EXPECT_TRUE(reader.value()->Verify().ok());
}

TEST(ContainerResumeTest, MidRecordTruncationLosesOnlyTheTailRecord) {
  const std::string path = testing::TempDir() + "resume_torn.ulec";
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 1500, 33);
  ASSERT_GE(data.frames.size(), 2u);
  {
    auto writer = ContainerWriter::Create(path, SmallOptions());
    ASSERT_TRUE(writer.ok());
    for (size_t i = 0; i < data.frames.size(); ++i) {
      media::Image frame = data.frames[i];
      ASSERT_TRUE(writer.value()
                      ->Append(mocoder::StreamId::kData, data.emblems[i],
                               std::move(frame))
                      .ok());
    }
    // No Finish; then the host also tears the last record.
  }
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::filesystem::resize_file(path, bytes.value().size() - 100);

  auto scan = ScanSpool(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan.value().entries.size(), data.frames.size() - 1);
  EXPECT_GT(scan.value().dropped_bytes, 0u);

  auto resumed = ContainerWriter::Resume(path);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_TRUE(resumed.value()->Finish().ok());
  auto reader = ContainerReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<media::Image> expected(data.frames.begin(),
                                     data.frames.end() - 1);
  auto source = reader.value()->OpenFrames(mocoder::StreamId::kData);
  ExpectSameFrames(Drain(*source), expected);
}

TEST(ContainerResumeTest, SealedContainerIsNotResumable) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 400, 35);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 0, 36);
  const std::string path =
      WriteContainer("resume_sealed.ulec", data, system);
  auto scan = ScanSpool(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().sealed);
  EXPECT_EQ(scan.value().entries.size(),
            data.frames.size() + system.frames.size() + 1);  // +bootstrap
  auto resumed = ContainerWriter::Resume(path);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ContainerResumeTest, VerifyNamesTheRecordAndByteOffset) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 900, 37);
  const std::string path = WriteContainer(
      "resume_verify.ulec", data, MakeStream(mocoder::StreamId::kSystem, 0,
                                             38));
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  Bytes mutated = std::move(bytes).TakeValue();
  mutated[kContainerHeaderBytes + kContainerRecordHeaderBytes + 7] ^= 0xFF;
  ASSERT_TRUE(WriteFileBytes(path, mutated).ok());
  auto reader = ContainerReader::Open(path);
  ASSERT_TRUE(reader.ok());
  Status verify = reader.value()->Verify();
  ASSERT_FALSE(verify.ok());
  // The operator must learn *which* record died and where, not just that
  // something is wrong somewhere in the reel.
  EXPECT_NE(verify.message().find("record 0"), std::string::npos)
      << verify.ToString();
  EXPECT_NE(verify.message().find(
                "offset " + std::to_string(kContainerHeaderBytes +
                                           kContainerRecordHeaderBytes)),
            std::string::npos)
      << verify.ToString();
}

TEST(ContainerResumeTest, ScanSpoolRejectsEmptyFile) {
  // A zero-byte spool (the writer died before the header landed) is not
  // resumable material — it must be reported as not-a-spool, not walked.
  const std::string path = testing::TempDir() + "scan_empty.ulec";
  ASSERT_TRUE(WriteFileBytes(path, Bytes()).ok());
  auto scan = ScanSpool(path);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kCorruption)
      << scan.status().ToString();
}

TEST(ContainerResumeTest, ScanSpoolReportsZeroRecordSealedContainer) {
  // Sealed-but-empty is a legal artifact; the scan must report it sealed
  // with no records instead of misparsing the footer as record bytes.
  const std::string path = testing::TempDir() + "scan_zero.ulec";
  auto writer = ContainerWriter::Create(path, SmallOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Finish().ok());
  auto scan = ScanSpool(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan.value().sealed);
  EXPECT_TRUE(scan.value().entries.empty());
  EXPECT_EQ(scan.value().dropped_bytes, 0u);
}

TEST(ContainerTest, ReadPayloadRejectsForeignEntry) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 800, 40);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 0, 41);
  const std::string path = WriteContainer("foreign.ulec", data, system);
  auto reader = ContainerReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_FALSE(reader.value()->entries().empty());

  // A genuine entry reads fine...
  EXPECT_TRUE(reader.value()->ReadPayload(reader.value()->entries()[0]).ok());

  // ...but an entry this container never issued (stale, or from another
  // reel) must be refused, not used to read arbitrary file bytes.
  ContainerEntry foreign = reader.value()->entries()[0];
  foreign.offset += 1;
  auto read = reader.value()->ReadPayload(foreign);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kOutOfRange)
      << read.status().ToString();

  ContainerEntry fabricated;
  fabricated.offset = 1u << 20;
  fabricated.payload_len = 64;
  auto read2 = reader.value()->ReadPayload(fabricated);
  ASSERT_FALSE(read2.ok());
  EXPECT_EQ(read2.status().code(), StatusCode::kOutOfRange);
}

TEST(ContainerTest, SeekReadsInterleaveWithStreaming) {
  // The seek path (ReelReader::ReadFrame) and the streaming path
  // (OpenFrames/Next) must not disturb each other on either single-reel
  // backend: stream half the reel, seek around it, stream the rest.
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 3000, 42);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 500, 43);
  const std::string file_path =
      WriteContainer("interleave.ulec", data, system);
  const std::string dir = testing::TempDir() + "interleave_dir";
  {
    auto writer = DirectoryWriter::Create(dir, SmallOptions());
    ASSERT_TRUE(writer.ok());
    FillSink(*writer.value(), data, system);
    ASSERT_TRUE(writer.value()->Finish().ok());
  }

  for (const std::string& target : {file_path, dir}) {
    auto reel = OpenReel(target);
    ASSERT_TRUE(reel.ok()) << reel.status().ToString();
    const ReelReader* seek = reel.value().get();

    auto source = reel.value()->OpenFrames(mocoder::StreamId::kData);
    const size_t half = data.frames.size() / 2;
    std::vector<media::Image> streamed;
    for (size_t i = 0; i < half; ++i) {
      auto next = source->Next();
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      ASSERT_TRUE(next.value().has_value());
      streamed.push_back(next.value()->TakeImage());
    }
    // Seek all over the reel (both streams) mid-drain.
    auto last = seek->ReadFrame(mocoder::StreamId::kData,
                                data.frames.size() - 1);
    ASSERT_TRUE(last.ok()) << last.status().ToString();
    EXPECT_EQ(last.value().pixels(), data.frames.back().pixels());
    auto first_sys = seek->ReadFrame(mocoder::StreamId::kSystem, 0);
    ASSERT_TRUE(first_sys.ok()) << first_sys.status().ToString();
    EXPECT_EQ(first_sys.value().pixels(), system.frames.front().pixels());
    auto past_end = seek->ReadFrame(mocoder::StreamId::kData,
                                    data.frames.size());
    ASSERT_FALSE(past_end.ok());
    EXPECT_EQ(past_end.status().code(), StatusCode::kOutOfRange);
    // The streaming source resumes exactly where it left off.
    for (auto& frame : Drain(*source)) streamed.push_back(std::move(frame));
    ExpectSameFrames(streamed, data.frames);
  }
}

TEST(ContainerTest, CurrentReelStatsIsSafeDuringAppends) {
  // One thread archives, another polls CurrentReelStats (the shape a
  // progress UI has); TSan (the CI thread-sanitizer job runs every fast
  // suite) must see no race, and every observed snapshot must be
  // internally consistent (monotonic frames/bytes).
  const std::string path = testing::TempDir() + "stats_race.ulec";
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 4000, 44);
  auto writer = ContainerWriter::Create(path, SmallOptions());
  ASSERT_TRUE(writer.ok());

  std::atomic<bool> done{false};
  size_t last_frames = 0;
  uint64_t last_bytes = 0;
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto stats = writer.value()->CurrentReelStats();
      ASSERT_EQ(stats.size(), 1u);
      EXPECT_GE(stats[0].frames, last_frames);
      EXPECT_GE(stats[0].bytes, last_bytes);
      last_frames = stats[0].frames;
      last_bytes = stats[0].bytes;
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
  const auto final_stats = writer.value()->CurrentReelStats();
  ASSERT_EQ(final_stats.size(), 1u);
  EXPECT_GE(final_stats[0].frames, data.frames.size());
}

TEST(ReelReaderTest, OpenReelPicksTheBackendFromThePath) {
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 400, 21);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 200, 22);

  const std::string file_path =
      WriteContainer("reel_iface.ulec", data, system);
  auto container_reel = OpenReel(file_path);
  ASSERT_TRUE(container_reel.ok()) << container_reel.status().ToString();
  EXPECT_STREQ(container_reel.value()->kind(), "ULE-C1 container");

  const std::string dir = testing::TempDir() + "reel_iface_dir";
  auto writer = DirectoryWriter::Create(dir, SmallOptions());
  ASSERT_TRUE(writer.ok());
  FillSink(*writer.value(), data, system);
  ASSERT_TRUE(writer.value()->Finish().ok());
  auto dir_reel = OpenReel(dir);
  ASSERT_TRUE(dir_reel.ok()) << dir_reel.status().ToString();
  EXPECT_STREQ(dir_reel.value()->kind(), "directory");

  // Same contract through the interface: counts, geometry, frames.
  for (const auto& reel : {std::cref(container_reel), std::cref(dir_reel)}) {
    const ReelReader& r = *reel.get().value();
    EXPECT_EQ(r.emblem_options().data_side, 65);
    EXPECT_EQ(r.frame_count(mocoder::StreamId::kData), data.frames.size());
    auto source = r.OpenFrames(mocoder::StreamId::kData);
    ExpectSameFrames(Drain(*source), data.frames);
    EXPECT_TRUE(r.Verify().ok());
  }
}

// ---------------------------------------------------------------------------
// Packed frames: reel sources hand DecodeStream checked records, and its
// workers expand them

std::string SmallDump() {
  std::string dump;
  for (int i = 0; i < 40; ++i) {
    dump += "INSERT INTO lineitem VALUES (" + std::to_string(i * 37) +
            ", 'part-" + std::to_string(i) + "', 'supplier-" +
            std::to_string(i % 7) + "', 4.25, 'archival layout emulation');\n";
  }
  return dump;
}

uint64_t GetLe(const Bytes& b, size_t at, int n) {
  uint64_t v = 0;
  for (int i = 0; i < n; ++i) v |= static_cast<uint64_t>(b[at + i]) << (8 * i);
  return v;
}

void PutLe32(Bytes& b, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) b[at + i] = static_cast<uint8_t>(v >> (8 * i));
}

/// Raises the first width digit of a netpbm frame to '9' (same digit
/// count, so no byte moves): the header still parses, but the pixel bytes
/// no longer cover the image, so only the image decode can fail.
void ForgeWidth(Bytes& frame, size_t at) {
  ASSERT_EQ(frame[at], 'P');
  ASSERT_TRUE(frame[at + 3] >= '1' && frame[at + 3] <= '8');
  frame[at + 3] = '9';
}

/// Forges the width of the `k`-th data-frame record of a sealed ULE-C1
/// container and re-seals the record and index CRCs, so the record reads
/// and checksums clean. Returns the record's sequence slot.
uint16_t ForgeDataRecordWidth(const std::string& path, size_t k) {
  auto read = ReadFileBytes(path);
  EXPECT_TRUE(read.ok());
  Bytes bytes = std::move(read).TakeValue();
  const size_t footer = bytes.size() - kContainerFooterBytes;
  const size_t index = GetLe(bytes, footer, 8);
  const size_t count = GetLe(bytes, footer + 8, 4);
  uint16_t seq = 0;
  size_t seen = 0;
  for (size_t i = 0; i < count; ++i) {
    const size_t entry = index + i * kContainerIndexEntryBytes;
    if (bytes[entry + 16] != static_cast<uint8_t>(RecordType::kDataFrame) ||
        seen++ != k) {
      continue;
    }
    const size_t offset = GetLe(bytes, entry, 8);
    const size_t len = GetLe(bytes, entry + 8, 4);
    seq = static_cast<uint16_t>(GetLe(bytes, entry + 18, 2));
    ForgeWidth(bytes, offset);
    const uint32_t crc = Crc32(BytesView(bytes).subspan(offset, len));
    PutLe32(bytes, offset - 4, crc);  // the record header's CRC field
    PutLe32(bytes, entry + 12, crc);  // the index entry's
  }
  EXPECT_EQ(seen >= k + 1, true) << "no data record " << k;
  PutLe32(bytes, footer + 12,
          Crc32(BytesView(bytes).subspan(index,
                                         count * kContainerIndexEntryBytes)));
  EXPECT_TRUE(WriteFileBytes(path, bytes).ok());
  return seq;
}

/// Archives SmallDump() through `sink` and appends its Bootstrap.
void ArchiveSmallDump(ArchiveWriter& sink, int threads) {
  core::ArchiveOptions options;
  options.emblem = SmallOptions();
  options.emblem.threads = threads;
  auto summary = core::ArchiveDumpStreaming(SmallDump(), options, sink);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  ASSERT_TRUE(sink.AppendBootstrap(summary.value().bootstrap_text).ok());
  ASSERT_TRUE(sink.Finish().ok());
}

Result<std::string> RestoreReel(const std::string& path, int threads,
                                core::RestoreStats* stats = nullptr) {
  ULE_ASSIGN_OR_RETURN(auto reel, OpenReel(path));
  mocoder::Options options = reel->emblem_options();
  options.threads = threads;
  auto data = reel->OpenFrames(mocoder::StreamId::kData);
  auto system = reel->OpenFrames(mocoder::StreamId::kSystem);
  return core::RestoreNativeStreaming(*data, system.get(), options, stats);
}

void ExpectSameStats(const mocoder::DecodeStats& a,
                     const mocoder::DecodeStats& b) {
  EXPECT_EQ(a.emblems_total, b.emblems_total);
  EXPECT_EQ(a.emblems_decoded, b.emblems_decoded);
  EXPECT_EQ(a.emblems_recovered, b.emblems_recovered);
  EXPECT_EQ(a.rs_errors_corrected, b.rs_errors_corrected);
  EXPECT_EQ(a.steps, b.steps);
}

// Every case runs serially (threads 1) and with the reader handing packed
// records to pool workers (threads 4).
class PackedReelRestore : public ::testing::TestWithParam<int> {
 protected:
  /// A per-case path, so concurrent ctest processes never share a file.
  static std::string TempPath(const std::string& suffix) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->name()) + "_" + suffix;
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    return testing::TempDir() + name;
  }
};

TEST_P(PackedReelRestore, BitonalContainerMatchesTheRenderedFrames) {
  // The same archive twice: its rendered frames held in memory (ready
  // pixels) and a bitonal container (packed PBM records). Output and
  // DecodeStats must not depend on who expands the pixels or where.
  MemoryStore memory;
  core::ArchiveOptions options;
  options.emblem = SmallOptions();
  ASSERT_TRUE(core::ArchiveDumpStreaming(SmallDump(), options, memory).ok());
  auto memory_data = memory.OpenFrames(mocoder::StreamId::kData);
  auto memory_system = memory.OpenFrames(mocoder::StreamId::kSystem);
  mocoder::Options serial = SmallOptions();
  serial.threads = 1;
  core::RestoreStats expected;
  auto reference = core::RestoreNativeStreaming(
      *memory_data, memory_system.get(), serial, &expected);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference.value(), SmallDump());
  ASSERT_GE(memory.frames(mocoder::StreamId::kData).size(), 5u);

  const std::string path = TempPath("bitonal.ulec");
  ContainerWriter::Options copt;
  copt.bitonal = true;
  auto writer = ContainerWriter::Create(path, SmallOptions(), copt);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ArchiveSmallDump(*writer.value(), GetParam());
  core::RestoreStats stats;
  auto restored = RestoreReel(path, GetParam(), &stats);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), reference.value());
  ExpectSameStats(stats.data_stream, expected.data_stream);
  ExpectSameStats(stats.system_stream, expected.system_stream);
}

TEST_P(PackedReelRestore, UndecodableContainerRecordNamesItsFrame) {
  // Record 2's PBM header promises more pixels than it carries, under
  // valid record and index CRCs. The reader's parse fails at pull 2, and
  // that read error wins over the decodes in flight, at any thread count.
  const std::string path = TempPath("forged.ulec");
  ContainerWriter::Options copt;
  copt.bitonal = true;
  auto writer = ContainerWriter::Create(path, SmallOptions(), copt);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ArchiveSmallDump(*writer.value(), GetParam());
  const uint16_t seq = ForgeDataRecordWidth(path, 2);

  auto restored = RestoreReel(path, GetParam());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
  EXPECT_NE(restored.status().message().find(
                "frame seq " + std::to_string(seq) + " (payload offset "),
            std::string::npos)
      << restored.status().ToString();
  EXPECT_NE(restored.status().message().find("truncated PBM"),
            std::string::npos)
      << restored.status().ToString();
}

TEST_P(PackedReelRestore, UndecodableDirectoryFrameNamesItsFile) {
  const std::string dir = TempPath("forged_dir");
  DirectoryWriter::Options dopt;
  dopt.bitonal = true;
  auto writer = DirectoryWriter::Create(dir, SmallOptions(), dopt);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ArchiveSmallDump(*writer.value(), GetParam());
  const std::string name = FrameFileName(mocoder::StreamId::kData, 2, true);
  auto frame = ReadFileBytes(JoinPath(dir, name));
  ASSERT_TRUE(frame.ok());
  Bytes forged = frame.value();
  ForgeWidth(forged, 0);
  ASSERT_TRUE(WriteFileBytes(JoinPath(dir, name), forged).ok());

  auto restored = RestoreReel(dir, GetParam());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
  EXPECT_NE(restored.status().message().find(name), std::string::npos)
      << restored.status().ToString();
  auto reader = DirectoryReader::Open(dir);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const Status verify = reader.value()->Verify();
  EXPECT_EQ(verify.code(), StatusCode::kCorruption);
  EXPECT_NE(verify.message().find(name), std::string::npos)
      << verify.ToString();
}

INSTANTIATE_TEST_SUITE_P(Threads, PackedReelRestore, ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST(ContainerTest, ForgedFrameHeaderFailsVerifyAndScrub) {
  // Verify and scrub only parse frame records; a record whose CRCs hold
  // but whose image does not decode must still fail both.
  const std::string path = testing::TempDir() + "forged_scrub.ulec";
  ContainerWriter::Options copt;
  copt.bitonal = true;
  auto writer = ContainerWriter::Create(path, SmallOptions(), copt);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ArchiveSmallDump(*writer.value(), 1);
  ASSERT_TRUE(ContainerReader::Open(path).value()->Verify().ok());
  ForgeDataRecordWidth(path, 2);

  auto reader = ContainerReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const Status verify = reader.value()->Verify();
  EXPECT_EQ(verify.code(), StatusCode::kCorruption);
  EXPECT_NE(verify.message().find("does not decode"), std::string::npos)
      << verify.ToString();
  auto health = ScrubArchive(path, /*repair=*/false);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_NE(health.value().state, ArchiveState::kHealthy);
}

TEST(GoldenArchiveTest, C1RestoresNatively) {
  // An archive written by an earlier commit (tests/golden/README.md) must
  // keep restoring byte for byte through today's readers and decoders.
  auto reel = OpenReel(testutil::GoldenPath("c1_v1.ulec"));
  ASSERT_TRUE(reel.ok()) << reel.status().ToString();
  auto expected = ReadFileText(testutil::GoldenPath("c1_v1.sql"));
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // The golden covers the segmented (UDBS) stream shape.
  auto section = reel.value()->ReadIndexSection();
  ASSERT_TRUE(section.ok()) << section.status().ToString();
  auto index = core::RecordIndex::Parse(section.value());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_TRUE(index.value().segmented);
  EXPECT_GE(index.value().chunks.size(), 3u);

  for (const int threads : {1, 4}) {
    mocoder::Options options = reel.value()->emblem_options();
    options.threads = threads;
    auto data = reel.value()->OpenFrames(mocoder::StreamId::kData);
    auto system = reel.value()->OpenFrames(mocoder::StreamId::kSystem);
    core::RestoreStats stats;
    auto restored =
        core::RestoreNativeStreaming(*data, system.get(), options, &stats);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored.value(), expected.value()) << "threads " << threads;
    EXPECT_EQ(stats.data_stream.emblems_decoded, 5);
    EXPECT_EQ(stats.system_stream.emblems_decoded, 8);
  }
}

}  // namespace
}  // namespace filmstore
}  // namespace ule
