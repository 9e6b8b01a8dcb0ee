/// \file filmstore_testutil.h
/// \brief Shared helpers for suites that build film-store reels on disk
/// (reel_set_test, scrub_test): deterministic encoded streams, sharded
/// reel sets with optional ULE-P1 parity, and frame comparisons.

#ifndef ULE_TESTS_FILMSTORE_TESTUTIL_H_
#define ULE_TESTS_FILMSTORE_TESTUTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "filmstore/frame_store.h"
#include "filmstore/reel_set.h"
#include "media/image.h"
#include "mocoder/mocoder.h"
#include "support/bytes.h"
#include "support/random.h"

namespace ule {
namespace filmstore {
namespace testutil {

inline mocoder::Options SmallOptions() {
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

inline EncodedStream MakeStream(mocoder::StreamId id, size_t payload_bytes,
                                uint32_t seed) {
  EncodedStream out;
  out.payload = RandomBytes(seed, payload_bytes);
  Status st = mocoder::EncodeToSink(
      out.payload, id, SmallOptions(), /*render=*/true,
      [&](mocoder::EncodedEmblem&& emblem, media::Image&& frame) -> Status {
        out.emblems.push_back(std::move(emblem));
        out.frames.push_back(std::move(frame));
        return Status::OK();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

/// Drains a source into a vector, failing the test on any error.
inline std::vector<media::Image> Drain(FrameSource& source) {
  std::vector<media::Image> frames;
  for (;;) {
    auto next = source.Next();
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok() || !next.value().has_value()) break;
    frames.push_back(next.value()->TakeImage());
  }
  return frames;
}

inline void ExpectSameFrames(const std::vector<media::Image>& a,
                             const std::vector<media::Image>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pixels(), b[i].pixels()) << "frame " << i;
  }
}

inline void FillSink(FrameSink& sink, const EncodedStream& data,
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

inline ShardPolicy ByFrames(size_t n) {
  ShardPolicy p;
  p.max_frames_per_reel = n;
  return p;
}

/// Builds a sharded reel set (optionally with ULE-P1 parity) at `path`.
inline void WriteSetAt(const std::string& path, const EncodedStream& data,
                       const EncodedStream& system, const ShardPolicy& shard,
                       int parity_reels = 0) {
  ReelSetWriter::Options opt;
  opt.shard = shard;
  opt.archive_id = 0x1DB2026;
  opt.parity_reels = parity_reels;
  auto writer = ReelSetWriter::Create(path, SmallOptions(), opt);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  FillSink(*writer.value(), data, system);
  ASSERT_TRUE(writer.value()->AppendBootstrap("THE BOOTSTRAP\n").ok());
  Status finished = writer.value()->Finish();
  ASSERT_TRUE(finished.ok()) << finished.ToString();
}

}  // namespace testutil
}  // namespace filmstore
}  // namespace ule

#endif  // ULE_TESTS_FILMSTORE_TESTUTIL_H_
