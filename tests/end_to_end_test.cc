// End-to-end integration tests: Figure 2 of the paper, both directions.
// A TPC-H database is dumped, archived to emblems + Bootstrap, "printed"
// and "scanned" through the media simulator, then restored — through the
// native decoders AND through the full ULE nested-emulation path using
// only the Bootstrap document.

#include <gtest/gtest.h>

#include "core/micr_olonys.h"
#include "dbcoder/dbcoder.h"
#include "decoders/dbdecode.h"
#include "decoders/modecode.h"
#include "dynarisc/assembler.h"
#include "filmstore/container.h"
#include "filmstore/frame_store.h"
#include "filmstore/reel_reader.h"
#include "media/scanner.h"
#include "minidb/sqldump.h"
#include "olonys/bootstrap.h"
#include "olonys/dynarisc_in_verisc.h"
#include "support/crc32.h"
#include "support/io.h"
#include "tests/golden.h"
#include "tests/testutil.h"
#include "tpch/tpch.h"
#include "verisc/implementations.h"

namespace ule {
namespace core {
namespace {

using mocoder::StreamId;
using testutil::SmallArchiveOptions;
using testutil::SmallTpchDump;

// The smallest useful dump for the nested-emulation tests (which run ~2-3
// decimal orders slower than native).
constexpr char kTinyDump[] = "CREATE TABLE t (\n    a bigint\n);\n"
                             "COPY t (a) FROM stdin;\n1\n2\n3\n\\.\n";

/// Native restore of everything in an in-memory film store.
Result<std::string> RestoreNativeFromStore(const filmstore::MemoryStore& store,
                                           const mocoder::Options& options,
                                           RestoreStats* stats = nullptr) {
  auto data = store.OpenFrames(StreamId::kData);
  auto system = store.OpenFrames(StreamId::kSystem);
  return RestoreNativeStreaming(*data, system.get(), options, stats);
}

/// Emulated restore (Bootstrap + scans only) of an in-memory film store.
Result<std::string> RestoreEmulatedFromStore(
    const filmstore::MemoryStore& store, const std::string& bootstrap_text,
    const mocoder::Options& options, RestoreStats* stats = nullptr,
    verisc::VmFunction vm = &verisc::Run) {
  auto data = store.OpenFrames(StreamId::kData);
  auto system = store.OpenFrames(StreamId::kSystem);
  return RestoreEmulatedStreaming(*data, *system, bootstrap_text, options,
                                  stats, vm);
}

void ExpectSameStats(const mocoder::DecodeStats& a,
                     const mocoder::DecodeStats& b) {
  EXPECT_EQ(a.emblems_total, b.emblems_total);
  EXPECT_EQ(a.emblems_decoded, b.emblems_decoded);
  EXPECT_EQ(a.emblems_recovered, b.emblems_recovered);
  EXPECT_EQ(a.rs_errors_corrected, b.rs_errors_corrected);
}

TEST(EndToEndTest, ArchiveProducesAllArtifacts) {
  const std::string dump = SmallTpchDump();
  ArchiveOptions opt = SmallArchiveOptions();
  opt.emblem.threads = 4;
  filmstore::MemoryStore store;
  auto summary = ArchiveDumpStreaming(dump, opt, store);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_GT(store.emblems(StreamId::kData).size(), 0u);
  EXPECT_GT(store.emblems(StreamId::kSystem).size(), 0u);
  EXPECT_FALSE(summary.value().bootstrap_text.empty());
  for (StreamId id : {StreamId::kData, StreamId::kSystem}) {
    EXPECT_EQ(store.frames(id).size(), store.emblems(id).size());
    for (const auto& emblem : store.emblems(id)) {
      EXPECT_EQ(emblem.header.stream, id);
    }
  }
  EXPECT_EQ(summary.value().data_frames,
            store.frames(StreamId::kData).size());
  EXPECT_EQ(summary.value().system_frames,
            store.frames(StreamId::kSystem).size());
  EXPECT_EQ(summary.value().dump_bytes, dump.size());
  EXPECT_LT(summary.value().compressed_bytes, summary.value().dump_bytes);
  // The summary reports the machine's actual parallelism while the
  // recorded archival options stay thread-neutral.
  EXPECT_EQ(summary.value().threads_used, 4);
  EXPECT_EQ(summary.value().emblem_options.threads, 0);
}

TEST(EndToEndTest, NativeRestoreCleanImages) {
  const std::string dump = SmallTpchDump();
  filmstore::MemoryStore store;
  auto summary = ArchiveDumpStreaming(dump, SmallArchiveOptions(), store);
  ASSERT_TRUE(summary.ok());
  RestoreStats stats;
  auto restored =
      RestoreNativeFromStore(store, summary.value().emblem_options, &stats);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), dump);
  EXPECT_EQ(stats.data_stream.emblems_decoded,
            stats.data_stream.emblems_total);
}

TEST(EndToEndTest, NativeRestoreThroughScanner) {
  const std::string dump = SmallTpchDump();
  filmstore::MemoryStore store;
  auto summary = ArchiveDumpStreaming(dump, SmallArchiveOptions(), store);
  ASSERT_TRUE(summary.ok());
  media::ScanProfile sp;
  sp.rotation_deg = 0.4;
  sp.blur_sigma = 0.6;
  sp.noise_sigma = 6;
  sp.dust_per_megapixel = 2;
  sp.seed = 321;
  std::vector<media::Image> data_scans, system_scans;
  for (const auto& img : store.frames(StreamId::kData)) {
    data_scans.push_back(media::Scan(img, sp));
  }
  for (const auto& img : store.frames(StreamId::kSystem)) {
    system_scans.push_back(media::Scan(img, sp));
  }
  filmstore::VectorSource data_source(data_scans);
  filmstore::VectorSource system_source(system_scans);
  auto restored = RestoreNativeStreaming(data_source, &system_source,
                                         summary.value().emblem_options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), dump);
}

TEST(EndToEndTest, RestoredDumpLoadsAndQueries) {
  // The "bare-metal queries after restoration" claim (§2): the restored
  // dump loads into a fresh database and answers queries identically.
  tpch::Options topt;
  topt.scale_factor = 0.0002;
  auto db = tpch::Generate(topt);
  ASSERT_TRUE(db.ok());
  const std::string dump = minidb::DumpSql(db.value());

  filmstore::MemoryStore store;
  auto summary = ArchiveDumpStreaming(dump, SmallArchiveOptions(), store);
  ASSERT_TRUE(summary.ok());
  auto restored = RestoreNativeFromStore(store, summary.value().emblem_options);
  ASSERT_TRUE(restored.ok());

  auto reloaded = minidb::LoadSql(restored.value());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(reloaded.value().SameContentAs(db.value()));

  const minidb::Table* li = reloaded.value().GetTable("lineitem");
  ASSERT_NE(li, nullptr);
  const minidb::Table* li0 = db.value().GetTable("lineitem");
  EXPECT_EQ(li->CountWhere(nullptr), li0->CountWhere(nullptr));
  auto sum_restored = li->SumWhere("l_extendedprice", nullptr);
  auto sum_original = li0->SumWhere("l_extendedprice", nullptr);
  ASSERT_TRUE(sum_restored.ok());
  EXPECT_EQ(sum_restored.value(), sum_original.value());
}

TEST(EndToEndTest, FullyEmulatedRestore) {
  // The headline: restoration with nothing but the Bootstrap document,
  // the scans, and a 4-instruction VM.
  const std::string dump = kTinyDump;
  ArchiveOptions opt;
  opt.emblem.data_side = 65;  // smallest emblems: fastest emulation
  filmstore::MemoryStore store;
  auto summary = ArchiveDumpStreaming(dump, opt, store);
  ASSERT_TRUE(summary.ok());
  RestoreStats stats;
  auto restored = RestoreEmulatedFromStore(
      store, summary.value().bootstrap_text, summary.value().emblem_options,
      &stats);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), dump);
  EXPECT_GT(stats.emulated_steps, 0u);
}

TEST(EndToEndTest, EmulatedRestoreOnIndependentVm) {
  // Same, on an independently written VeRisc implementation ("student").
  const std::string dump = "hello archive\n";
  ArchiveOptions opt;
  opt.emblem.data_side = 65;
  filmstore::MemoryStore store;
  auto summary = ArchiveDumpStreaming(dump, opt, store);
  ASSERT_TRUE(summary.ok());
  const auto& impls = verisc::AllImplementations();
  auto restored = RestoreEmulatedFromStore(
      store, summary.value().bootstrap_text, summary.value().emblem_options,
      nullptr, impls[1].run);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), dump);
}

TEST(EndToEndTest, EmulatedRestoreOfSegmentedArchive) {
  // With a record index the DBCoder stream is written segmented (UDBS);
  // the emulated path runs the archived DBDecode once per segment and
  // must still return the dump byte for byte.
  const std::string dump =
      "CREATE TABLE t (\n    a bigint\n);\n"
      "COPY t (a) FROM stdin;\n1\n2\n3\n4\n5\n6\n\\.\n"
      "CREATE TABLE u (\n    b text\n);\n"
      "COPY u (b) FROM stdin;\nx\ny\n\\.\n";
  ArchiveOptions opt;
  opt.emblem.data_side = 65;  // smallest emblems: fastest emulation
  opt.build_index = true;
  opt.index_chunk_bytes = 8;
  filmstore::MemoryStore store;
  auto summary = ArchiveDumpStreaming(dump, opt, store);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();

  // The archived stream really is segmented, so the per-segment branch
  // of the emulated DBDecode driver is the one under test.
  auto frames = store.OpenFrames(StreamId::kData);
  auto stream = mocoder::DecodeStream([&] { return frames->Next(); },
                                      StreamId::kData,
                                      summary.value().emblem_options);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  ASSERT_TRUE(dbcoder::IsSegmented(stream.value()));
  auto segments = dbcoder::ListSegments(stream.value());
  ASSERT_TRUE(segments.ok()) << segments.status().ToString();
  EXPECT_GE(segments.value().size(), 2u);

  // Segments run in parallel: the dump, the stats and the step count
  // must not depend on the thread count.
  RestoreStats stats[2];
  const int thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    mocoder::Options options = summary.value().emblem_options;
    options.threads = thread_counts[i];
    auto restored = RestoreEmulatedFromStore(
        store, summary.value().bootstrap_text, options, &stats[i]);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored.value(), dump) << "threads " << thread_counts[i];
  }
  ExpectSameStats(stats[1].data_stream, stats[0].data_stream);
  ExpectSameStats(stats[1].system_stream, stats[0].system_stream);
  EXPECT_GT(stats[0].emulated_steps,
            stats[0].system_stream.steps + stats[0].data_stream.steps);
  EXPECT_EQ(stats[1].emulated_steps, stats[0].emulated_steps);
}

/// Writes `data_stream` and the serialized `dbdecode` as the data and
/// system streams of an in-memory reel, the way ArchiveDumpStreaming
/// does, and returns the Bootstrap text. Lets a test put any recovered
/// stream, or any archived DBDecode, in front of the emulated restore.
std::string ArchiveStreams(BytesView data_stream,
                           const dynarisc::Program& dbdecode,
                           const mocoder::Options& options,
                           filmstore::MemoryStore* store) {
  const Bytes system_stream = dbdecode.Serialize();
  for (const auto& [stream, id] :
       {std::pair<BytesView, StreamId>(data_stream, StreamId::kData),
        std::pair<BytesView, StreamId>(system_stream, StreamId::kSystem)}) {
    const Status s = mocoder::EncodeToSink(
        stream, id, options, /*render=*/true,
        [&, id = id](mocoder::EncodedEmblem&& emblem, media::Image&& frame) {
          return store->Append(id, emblem, std::move(frame));
        });
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return olonys::GenerateBootstrapText(olonys::DynaRiscInterpreter(),
                                       decoders::ModecodeProgram());
}

/// A segmented LZAC stream of a small dump, cut into `count` segments.
Bytes SegmentedStream(size_t count, std::vector<dbcoder::SegmentSpan>* spans) {
  std::string dump;
  for (int i = 0; dump.size() < 400; ++i) {
    dump += "INSERT INTO t VALUES (" + std::to_string(i * 7919 % 1000) + ");\n";
  }
  const size_t step = dump.size() / count;
  spans->assign(count, {});
  for (size_t i = 0; i < count; ++i) {
    (*spans)[i].raw_offset = i * step;
    (*spans)[i].raw_len = i + 1 < count ? step : dump.size() - i * step;
  }
  auto stream =
      dbcoder::EncodeSegmented(ToBytes(dump), dbcoder::Scheme::kLzac, spans);
  EXPECT_TRUE(stream.ok()) << stream.status().ToString();
  return stream.value();
}

mocoder::Options TinyEmblems(int threads) {
  mocoder::Options options;
  options.data_side = 65;  // smallest emblems: fastest emulation
  options.threads = threads;
  return options;
}

/// Emulated restore of `store` at threads 1 and 4: both must fail with the
/// same Status, which is returned.
Status ExpectSameFailureAtOneAndFourThreads(const filmstore::MemoryStore& store,
                                            const std::string& bootstrap) {
  Status first;
  for (const int threads : {1, 4}) {
    RestoreStats stats;
    auto restored = RestoreEmulatedFromStore(store, bootstrap,
                                             TinyEmblems(threads), &stats);
    EXPECT_FALSE(restored.ok()) << "threads " << threads;
    if (restored.ok()) return Status::OK();
    if (threads == 1) {
      first = restored.status();
    } else {
      EXPECT_EQ(restored.status().ToString(), first.ToString());
    }
  }
  return first;
}

TEST(EndToEndTest, EmulatedDbDecodeReportsTheLowestFailingSegment) {
  // Two segments of the recovered stream are corrupted behind intact
  // emblems: their decoded bytes miss their UDB1 CRCs. Segments run in
  // parallel, largest first, and the lower-index failure must win at any
  // thread count, though the last segment (the largest) starts first.
  std::vector<dbcoder::SegmentSpan> spans;
  Bytes stream = SegmentedStream(5, &spans);
  ASSERT_GT(spans[4].raw_len, spans[1].raw_len);
  for (const size_t bad : {1u, 4u}) {
    stream[spans[bad].stream_offset + dbcoder::kContainerHeaderBytes + 2] ^=
        0x5A;
  }
  filmstore::MemoryStore store;
  const std::string bootstrap = ArchiveStreams(
      stream, decoders::DbDecodeProgram(), TinyEmblems(1), &store);
  const Status status = ExpectSameFailureAtOneAndFourThreads(store, bootstrap);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_NE(status.message().find("DBDecode segment 1 of 5"),
            std::string::npos)
      << status.ToString();
}

TEST(EndToEndTest, ForgedSegmentTableFailsBeforeDbDecodeRuns) {
  // A segment table that disagrees with its UDB1 headers, or a segment
  // that is no UDB1 container, is Corruption before any DBDecode step.
  std::vector<dbcoder::SegmentSpan> spans;
  const Bytes valid = SegmentedStream(4, &spans);
  const size_t table_end = 20 + spans.size() * 4 + 4;

  Bytes forged_total = valid;
  forged_total[12] ^= 1;  // raw total (u64 at offset 12), CRC re-sealed
  const uint32_t crc = Crc32(BytesView(forged_total).first(table_end - 4));
  for (int b = 0; b < 4; ++b) {
    forged_total[table_end - 4 + b] = static_cast<uint8_t>(crc >> (8 * b));
  }
  Bytes forged_magic = valid;
  forged_magic[spans[2].stream_offset] = 'X';  // "UDB1" -> "XDB1"

  for (const Bytes& stream : {forged_total, forged_magic}) {
    filmstore::MemoryStore store;
    const std::string bootstrap = ArchiveStreams(
        stream, decoders::DbDecodeProgram(), TinyEmblems(4), &store);
    RestoreStats stats;
    auto restored =
        RestoreEmulatedFromStore(store, bootstrap, TinyEmblems(4), &stats);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kCorruption)
        << restored.status().ToString();
    EXPECT_GT(stats.data_stream.steps, 0u);
    EXPECT_EQ(stats.emulated_steps,
              stats.system_stream.steps + stats.data_stream.steps);
  }
}

TEST(EndToEndTest, SpinningDbDecodeStopsAtItsSegmentBudget) {
  // An archived "DBDecode" that never halts is stopped by each segment's
  // budget (startup allowance + raw length x steps per byte), long before
  // the fixed cap, and the error names the lowest segment.
  auto spin = dynarisc::Assemble(".entry main\nmain:\n      JUMP  main\n");
  ASSERT_TRUE(spin.ok()) << spin.status().ToString();
  std::vector<dbcoder::SegmentSpan> spans;
  const Bytes stream = SegmentedStream(3, &spans);
  filmstore::MemoryStore store;
  const std::string bootstrap =
      ArchiveStreams(stream, spin.value(), TinyEmblems(1), &store);
  const Status status = ExpectSameFailureAtOneAndFourThreads(store, bootstrap);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
      << status.ToString();
  EXPECT_NE(status.message().find("DBDecode segment 0 of 3 ran out of its "
                                  "step budget"),
            std::string::npos)
      << status.ToString();
}

TEST(EndToEndTest, ParallelArchiveAndRestoreMatchSerialByteForByte) {
  // The determinism contract of the parallel pipeline: any thread count
  // produces byte-identical artifacts and restores byte-identical output.
  const std::string dump = SmallTpchDump();
  ArchiveOptions serial_opt = SmallArchiveOptions();
  serial_opt.emblem.threads = 1;
  ArchiveOptions parallel_opt = SmallArchiveOptions();
  parallel_opt.emblem.threads = 4;

  filmstore::MemoryStore serial, parallel;
  auto serial_summary = ArchiveDumpStreaming(dump, serial_opt, serial);
  auto parallel_summary = ArchiveDumpStreaming(dump, parallel_opt, parallel);
  ASSERT_TRUE(serial_summary.ok());
  ASSERT_TRUE(parallel_summary.ok());
  EXPECT_EQ(serial_summary.value().bootstrap_text,
            parallel_summary.value().bootstrap_text);
  EXPECT_EQ(serial_summary.value().compressed_bytes,
            parallel_summary.value().compressed_bytes);
  const auto& serial_emblems = serial.emblems(StreamId::kData);
  const auto& parallel_emblems = parallel.emblems(StreamId::kData);
  ASSERT_EQ(serial_emblems.size(), parallel_emblems.size());
  for (size_t i = 0; i < serial_emblems.size(); ++i) {
    EXPECT_EQ(serial_emblems[i].header.seq, parallel_emblems[i].header.seq);
    EXPECT_EQ(serial_emblems[i].grid.cells, parallel_emblems[i].grid.cells);
  }
  for (StreamId id : {StreamId::kData, StreamId::kSystem}) {
    const auto& serial_frames = serial.frames(id);
    const auto& parallel_frames = parallel.frames(id);
    ASSERT_EQ(serial_frames.size(), parallel_frames.size());
    for (size_t i = 0; i < serial_frames.size(); ++i) {
      EXPECT_EQ(serial_frames[i].pixels(), parallel_frames[i].pixels());
    }
  }

  // Cross-restore: parallel restore of the serial archive and vice versa,
  // so a mode-dependent decode bug cannot hide behind a same-mode pairing.
  RestoreStats serial_stats, parallel_stats;
  auto restored_serial =
      RestoreNativeFromStore(parallel, serial_opt.emblem, &serial_stats);
  auto restored_parallel =
      RestoreNativeFromStore(serial, parallel_opt.emblem, &parallel_stats);
  ASSERT_TRUE(restored_serial.ok()) << restored_serial.status().ToString();
  ASSERT_TRUE(restored_parallel.ok()) << restored_parallel.status().ToString();
  EXPECT_EQ(restored_serial.value(), dump);
  EXPECT_EQ(restored_parallel.value(), restored_serial.value());
  ExpectSameStats(parallel_stats.data_stream, serial_stats.data_stream);
  ExpectSameStats(parallel_stats.system_stream, serial_stats.system_stream);
}

TEST(EndToEndTest, ParallelEmulatedRestoreMatchesSerial) {
  // Nested emulation fans out per emblem; output, per-stream stats and
  // the emulated step count must not depend on the thread count.
  const std::string dump = kTinyDump;
  ArchiveOptions opt;
  opt.emblem.data_side = 65;  // smallest emblems: fastest emulation
  filmstore::MemoryStore store;
  auto summary = ArchiveDumpStreaming(dump, opt, store);
  ASSERT_TRUE(summary.ok());

  mocoder::Options serial_opt = summary.value().emblem_options;
  serial_opt.threads = 1;
  mocoder::Options parallel_opt = summary.value().emblem_options;
  parallel_opt.threads = 4;
  RestoreStats serial_stats, parallel_stats;
  auto serial = RestoreEmulatedFromStore(store, summary.value().bootstrap_text,
                                         serial_opt, &serial_stats);
  auto parallel = RestoreEmulatedFromStore(
      store, summary.value().bootstrap_text, parallel_opt, &parallel_stats);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(serial.value(), dump);
  EXPECT_EQ(parallel.value(), serial.value());
  ExpectSameStats(parallel_stats.data_stream, serial_stats.data_stream);
  ExpectSameStats(parallel_stats.system_stream, serial_stats.system_stream);
  EXPECT_GT(serial_stats.emulated_steps, 0u);
  EXPECT_EQ(parallel_stats.emulated_steps, serial_stats.emulated_steps);
}

TEST(EndToEndTest, ContainerSpoolRoundTripAcrossThreadCounts) {
  // The acceptance path: a TPC-H dump spooled to a ULE-C1 container on
  // disk restores byte-identically through the container's own sources,
  // at thread counts 1 and 4, and the two containers are byte-identical.
  const std::string dump = SmallTpchDump();
  std::string container_bytes[2];
  const int thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    ArchiveOptions opt = SmallArchiveOptions();
    opt.emblem.threads = thread_counts[i];
    const std::string path = testing::TempDir() + "e2e_spool_" +
                             std::to_string(thread_counts[i]) + ".ulec";
    auto writer = filmstore::ContainerWriter::Create(path, opt.emblem);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    auto summary = ArchiveDumpStreaming(dump, opt, *writer.value());
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    ASSERT_TRUE(writer.value()->AppendBootstrap(
        summary.value().bootstrap_text).ok());
    ASSERT_TRUE(writer.value()->Finish().ok());

    auto reader = filmstore::ContainerReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader.value()->frame_count(mocoder::StreamId::kData),
              summary.value().data_frames);
    EXPECT_EQ(reader.value()->frame_count(mocoder::StreamId::kSystem),
              summary.value().system_frames);
    ASSERT_TRUE(reader.value()->Verify().ok());

    auto data_source = reader.value()->OpenFrames(mocoder::StreamId::kData);
    auto system_source =
        reader.value()->OpenFrames(mocoder::StreamId::kSystem);
    // Restore with the *container's* recorded geometry, not the writer's
    // options: the reel must be self-describing.
    auto restored = RestoreNativeStreaming(*data_source, system_source.get(),
                                           reader.value()->emblem_options());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored.value(), dump);

    auto bytes = ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    container_bytes[i] = ToString(bytes.value());
  }
  // Byte-identical at any thread count: the spool is deterministic.
  EXPECT_EQ(container_bytes[0], container_bytes[1]);
}

TEST(EndToEndTest, SurvivesLostEmblems) {
  const std::string dump = SmallTpchDump();
  filmstore::MemoryStore store;
  auto summary = ArchiveDumpStreaming(dump, SmallArchiveOptions(), store);
  ASSERT_TRUE(summary.ok());
  // Destroy two data frames entirely (within the 3-per-20 outer budget).
  const auto& frames = store.frames(StreamId::kData);
  std::vector<media::Image> data_scans;
  for (size_t i = 0; i < frames.size(); ++i) {
    if (i == 1 || i == 4) continue;
    data_scans.push_back(frames[i]);
  }
  filmstore::VectorSource data_source(data_scans);
  auto system_source = store.OpenFrames(StreamId::kSystem);
  RestoreStats stats;
  auto restored =
      RestoreNativeStreaming(data_source, system_source.get(),
                             summary.value().emblem_options, &stats);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), dump);
  EXPECT_GT(stats.data_stream.emblems_recovered, 0);
}

TEST(EndToEndTest, TooManyLostEmblemsFailsCleanly) {
  const std::string dump = SmallTpchDump();
  filmstore::MemoryStore store;
  auto summary = ArchiveDumpStreaming(dump, SmallArchiveOptions(), store);
  ASSERT_TRUE(summary.ok());
  const auto& frames = store.frames(StreamId::kData);
  if (frames.size() < 6) GTEST_SKIP() << "archive too small to lose 4 emblems";
  const std::vector<media::Image> data_scans(frames.begin() + 4,
                                             frames.end());
  filmstore::VectorSource data_source(data_scans);
  auto system_source = store.OpenFrames(StreamId::kSystem);
  auto restored = RestoreNativeStreaming(data_source, system_source.get(),
                                         summary.value().emblem_options);
  EXPECT_FALSE(restored.ok());
}

TEST(GoldenArchiveTest, C1RestoresThroughItsOwnBootstrap) {
  // The future user's path on an archive written by an earlier commit
  // (tests/golden/README.md): only its Bootstrap and frames are used, so
  // the MODecode and DBDecode that run are the ones archived back then.
  auto reel = filmstore::OpenReel(testutil::GoldenPath("c1_v1.ulec"));
  ASSERT_TRUE(reel.ok()) << reel.status().ToString();
  auto expected = ReadFileText(testutil::GoldenPath("c1_v1.sql"));
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto bootstrap = reel.value()->ReadBootstrap();
  ASSERT_TRUE(bootstrap.ok()) << bootstrap.status().ToString();
  // The golden predates the MODecode rewrite, so the old decoder is
  // provably the one that runs.
  auto parsed = olonys::ParseBootstrapText(bootstrap.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed.value().mocoder.image, decoders::ModecodeProgram().image);

  RestoreStats stats[2];
  const int thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    mocoder::Options options = reel.value()->emblem_options();
    options.threads = thread_counts[i];
    auto data = reel.value()->OpenFrames(StreamId::kData);
    auto system = reel.value()->OpenFrames(StreamId::kSystem);
    auto restored = RestoreEmulatedStreaming(*data, *system, bootstrap.value(),
                                             options, &stats[i]);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored.value(), expected.value())
        << "threads " << thread_counts[i];
  }
  ExpectSameStats(stats[1].data_stream, stats[0].data_stream);
  ExpectSameStats(stats[1].system_stream, stats[0].system_stream);
  EXPECT_GT(stats[0].emulated_steps, 0u);
  EXPECT_EQ(stats[1].emulated_steps, stats[0].emulated_steps);
}

}  // namespace
}  // namespace core
}  // namespace ule
