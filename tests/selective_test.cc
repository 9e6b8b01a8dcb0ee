// Selective restoration: the ULE-S1 record index (chunk planning, wire
// form, derivation) and core::RestoreSelective — which must read strictly
// fewer frame records AND payload bytes than a full restore, exactly the
// pinned I/O budget, while returning the byte-exact slice of the dump, on
// both a single ULE-C1 container and a sharded ULE-R1 reel set.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/micr_olonys.h"
#include "core/record_index.h"
#include "core/selective.h"
#include "dbcoder/dbcoder.h"
#include "filmstore/container.h"
#include "filmstore/reel_reader.h"
#include "filmstore/reel_set.h"
#include "minidb/sqldump.h"
#include "support/io.h"
#include "tpch/tpch.h"

namespace ule {
namespace core {
namespace {

mocoder::Options SmallOptions() {
  mocoder::Options opt;
  opt.data_side = 65;  // smallest geometry: fast encodes
  opt.dots_per_cell = 2;
  opt.threads = 4;
  return opt;
}

ArchiveOptions IndexedOptions() {
  ArchiveOptions options;
  options.emblem = SmallOptions();
  options.build_index = true;
  return options;
}

/// A small TPC-H dump (every table present, a few hundred rows).
const std::string& TestDump() {
  static const std::string* dump = [] {
    tpch::Options topt;
    topt.scale_factor = 0.0005;
    auto db = tpch::Generate(topt);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return new std::string(minidb::DumpSql(db.value()));
  }();
  return *dump;
}

/// Archives TestDump() into a sealed single container and returns its path.
std::string WriteIndexedContainer(const std::string& name,
                                  const ArchiveOptions& options) {
  const std::string path = testing::TempDir() + name;
  auto writer = filmstore::ContainerWriter::Create(path, options.emblem);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  auto summary = ArchiveDumpStreaming(TestDump(), options, *writer.value());
  EXPECT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(
      writer.value()->AppendBootstrap(summary.value().bootstrap_text).ok());
  EXPECT_TRUE(writer.value()->Finish().ok());
  return path;
}

/// Same archive sharded across many reels under a ULE-R1 catalog.
std::string WriteIndexedReelSet(const std::string& name,
                                const ArchiveOptions& options) {
  const std::string path = testing::TempDir() + name;
  filmstore::ReelSetWriter::Options sopt;
  sopt.shard.max_frames_per_reel = 64;
  auto writer =
      filmstore::ReelSetWriter::Create(path, options.emblem, sopt);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  auto summary = ArchiveDumpStreaming(TestDump(), options, *writer.value());
  EXPECT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(
      writer.value()->AppendBootstrap(summary.value().bootstrap_text).ok());
  EXPECT_TRUE(writer.value()->Finish().ok());
  EXPECT_GE(writer.value()->reel_count(), 3u);
  return path;
}

/// The exact dump byte slice a whole-table restore must reproduce.
std::string TableSlice(const RecordIndex& index, const std::string& dump,
                       const std::string& table) {
  const std::vector<size_t> chunks = index.ChunksOfTable(table);
  EXPECT_FALSE(chunks.empty());
  const IndexChunk& first = index.chunks[chunks.front()];
  const IndexChunk& last = index.chunks[chunks.back()];
  return dump.substr(static_cast<size_t>(first.raw_offset),
                     static_cast<size_t>(last.raw_offset + last.raw_len -
                                         first.raw_offset));
}

// ---------------------------------------------------------------------------
// PlanDumpChunks

TEST(RecordIndexTest, PlanCoversTheDumpContiguously) {
  const std::string& dump = TestDump();
  auto plan = PlanDumpChunks(dump, 16 * 1024);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  uint64_t expect = 0;
  for (const IndexChunk& c : plan.value()) {
    EXPECT_EQ(c.raw_offset, expect);
    EXPECT_GT(c.raw_len, 0u);
    expect += c.raw_len;
  }
  EXPECT_EQ(expect, dump.size());

  // Schema chunks carry no rows; row chunks number rows contiguously and
  // every table's text ends with the COPY terminator.
  std::string last_table;
  uint64_t next_row = 0;
  for (const IndexChunk& c : plan.value()) {
    if (c.table.empty()) continue;  // prologue/filler
    if (c.table != last_table) {
      EXPECT_EQ(c.row_count, 0u) << "schema chunk of " << c.table;
      last_table = c.table;
      next_row = 0;
      continue;
    }
    EXPECT_EQ(c.row_begin, next_row) << c.table;
    EXPECT_GT(c.row_count, 0u);
    next_row += c.row_count;
  }
  for (const std::string table : {"region", "orders", "lineitem"}) {
    auto chunks = [&] {
      RecordIndex idx;
      idx.chunks = plan.value();
      return idx.ChunksOfTable(table);
    }();
    ASSERT_GE(chunks.size(), 2u) << table;  // schema + >=1 row chunk
    const IndexChunk& last = plan.value()[chunks.back()];
    const std::string tail = dump.substr(
        static_cast<size_t>(last.raw_offset + last.raw_len - 4), 4);
    EXPECT_EQ(tail, "\\.\n\n") << table;
  }
}

TEST(RecordIndexTest, PlanRejectsTruncatedDumps) {
  const std::string& dump = TestDump();
  // Cut inside the first table's rows: the COPY terminator is gone.
  const size_t cut = dump.find("\\.\n") - 10;
  auto plan = PlanDumpChunks(dump.substr(0, cut), 16 * 1024);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument)
      << plan.status().ToString();
}

// ---------------------------------------------------------------------------
// ULE-S1 wire form

TEST(RecordIndexTest, SerializeParseRoundTrips) {
  const std::string& dump = TestDump();
  auto stream = dbcoder::Encode(
      BytesView(reinterpret_cast<const uint8_t*>(dump.data()), dump.size()),
      dbcoder::Scheme::kLzac);
  ASSERT_TRUE(stream.ok());
  auto index = DeriveRecordIndex(dump, stream.value(), 16 * 1024);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_FALSE(index.value().segmented);  // plain UDB1 stream
  EXPECT_EQ(index.value().dump_len, dump.size());
  EXPECT_EQ(index.value().stream_len, stream.value().size());

  const Bytes wire = index.value().Serialize();
  auto parsed = RecordIndex::Parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().scheme, index.value().scheme);
  EXPECT_EQ(parsed.value().segmented, index.value().segmented);
  EXPECT_EQ(parsed.value().dump_len, index.value().dump_len);
  ASSERT_EQ(parsed.value().chunks.size(), index.value().chunks.size());
  for (size_t i = 0; i < parsed.value().chunks.size(); ++i) {
    EXPECT_EQ(parsed.value().chunks[i].table, index.value().chunks[i].table);
    EXPECT_EQ(parsed.value().chunks[i].raw_offset,
              index.value().chunks[i].raw_offset);
    EXPECT_EQ(parsed.value().chunks[i].row_count,
              index.value().chunks[i].row_count);
    EXPECT_EQ(parsed.value().chunks[i].stream_offset,
              index.value().chunks[i].stream_offset);
  }
  EXPECT_EQ(parsed.value().Tables(), index.value().Tables());

  // One flipped byte anywhere is caught by the trailing CRC.
  Bytes mutated = wire;
  mutated[mutated.size() / 2] ^= 0x10;
  auto corrupt = RecordIndex::Parse(mutated);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kCorruption);

  // A future binary version is refused as unimplemented, not misparsed.
  Bytes future = wire;
  future[4] = 9;  // version byte
  auto unknown = RecordIndex::Parse(future);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kUnimplemented);
}

TEST(RecordIndexTest, DeriveMatchesSegmentedStreamSpans) {
  const std::string& dump = TestDump();
  auto plan = PlanDumpChunks(dump, 16 * 1024);
  ASSERT_TRUE(plan.ok());
  std::vector<dbcoder::SegmentSpan> spans;
  for (const IndexChunk& c : plan.value()) {
    spans.push_back({c.raw_offset, c.raw_len, 0, 0});
  }
  auto stream = dbcoder::EncodeSegmented(
      BytesView(reinterpret_cast<const uint8_t*>(dump.data()), dump.size()),
      dbcoder::Scheme::kLzac, &spans);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();

  auto derived = DeriveRecordIndex(dump, stream.value(), 16 * 1024);
  ASSERT_TRUE(derived.ok()) << derived.status().ToString();
  EXPECT_TRUE(derived.value().segmented);
  ASSERT_EQ(derived.value().chunks.size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(derived.value().chunks[i].stream_offset,
              spans[i].stream_offset);
    EXPECT_EQ(derived.value().chunks[i].stream_len, spans[i].stream_len);
  }
}

// ---------------------------------------------------------------------------
// Selective restore — acceptance: strictly fewer reads, byte-identical
// output, on both single-container and sharded archives.

/// What a full restore and a selective restore of `orders` read on the
/// TestDump() fixtures. The archive bytes, the record index and the cache
/// policy fix every figure, so they are exact I/O budgets, identical at
/// any thread count. Both fixtures hold the same frame records, so they
/// share one budget: `orders` needs 134 of the 1003 records, and the two
/// cache hits are emblems its chunks share.
struct ExpectedIo {
  uint64_t full_records;
  uint64_t full_bytes;
  uint64_t records_read;
  uint64_t bytes_read;
  size_t emblems_decoded;
  size_t cache_hits;
};
constexpr ExpectedIo kOrdersIo = {1003, 25053937, 134, 3347186, 134, 2};

void RunAcceptance(const std::string& archive_path) {
  const std::string& dump = TestDump();

  // Full restore, metered at the reader: every frame record is read.
  uint64_t full_records = 0, full_bytes = 0;
  {
    auto reader = filmstore::OpenReel(archive_path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    auto data = reader.value()->OpenFrames(mocoder::StreamId::kData);
    auto system = reader.value()->OpenFrames(mocoder::StreamId::kSystem);
    mocoder::Options options = reader.value()->emblem_options();
    options.threads = 4;
    auto restored = RestoreNativeStreaming(*data, system.get(), options);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ASSERT_EQ(restored.value(), dump);
    const filmstore::ReadCounters full = reader.value()->read_counters();
    full_records = full.records;
    full_bytes = full.bytes;
    ASSERT_GT(full_records, 0u);
    EXPECT_EQ(full_records, kOrdersIo.full_records);
    EXPECT_EQ(full_bytes, kOrdersIo.full_bytes);
  }

  // Selective restore of one table through a fresh reader.
  auto reader = filmstore::OpenReel(archive_path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  RestorePredicate pred;
  pred.table = "orders";
  SelectiveOptions options;
  options.threads = 4;
  SelectiveStats stats;
  auto selective =
      RestoreSelective(*reader.value(), pred, options, &stats);
  ASSERT_TRUE(selective.ok()) << selective.status().ToString();

  // Byte-identical to the corresponding slice of the full dump.
  auto section = reader.value()->ReadIndexSection();
  ASSERT_TRUE(section.ok()) << section.status().ToString();
  auto index = RecordIndex::Parse(section.value());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(selective.value(), TableSlice(index.value(), dump, "orders"));

  // Strictly fewer frame records AND payload bytes than the full path.
  EXPECT_GT(stats.records_read, 0u);
  EXPECT_LT(stats.records_read, full_records)
      << "selective restore read the whole archive";
  EXPECT_GT(stats.bytes_read, 0u);
  EXPECT_LT(stats.bytes_read, full_bytes);
  EXPECT_GT(stats.chunks_decoded, 0u);
  // ...and exactly the budgeted reads, decodes and cache hits.
  EXPECT_EQ(stats.records_read, kOrdersIo.records_read);
  EXPECT_EQ(stats.bytes_read, kOrdersIo.bytes_read);
  EXPECT_EQ(stats.emblems_decoded, kOrdersIo.emblems_decoded);
  EXPECT_EQ(stats.cache_hits, kOrdersIo.cache_hits);
}

TEST(SelectiveRestoreTest, AcceptanceOnSingleContainer) {
  RunAcceptance(WriteIndexedContainer("selective_acc.ulec",
                                      IndexedOptions()));
}

TEST(SelectiveRestoreTest, AcceptanceOnShardedReelSet) {
  RunAcceptance(WriteIndexedReelSet("selective_acc.uler",
                                    IndexedOptions()));
}

// ---------------------------------------------------------------------------
// Predicates

TEST(SelectiveRestoreTest, RowRangeReturnsExactlyThoseRows) {
  const std::string path =
      WriteIndexedContainer("selective_rows.ulec", IndexedOptions());
  auto reader = filmstore::OpenReel(path);
  ASSERT_TRUE(reader.ok());
  auto restorer = SelectiveRestorer::Open(*reader.value());
  ASSERT_TRUE(restorer.ok()) << restorer.status().ToString();

  // Expected rows come from the dump text itself.
  const std::string slice =
      TableSlice(restorer.value().index(), TestDump(), "orders");
  const size_t header_end = slice.find("FROM stdin;\n");
  ASSERT_NE(header_end, std::string::npos);
  const std::string header = slice.substr(0, header_end + 12);
  std::vector<std::string> rows;
  size_t pos = header.size();
  while (pos < slice.size() && slice.compare(pos, 2, "\\.") != 0) {
    const size_t eol = slice.find('\n', pos);
    rows.push_back(slice.substr(pos, eol - pos + 1));
    pos = eol + 1;
  }
  ASSERT_GT(rows.size(), 10u);

  RestorePredicate pred;
  pred.table = "orders";
  pred.row_begin = 3;
  pred.row_count = 4;
  auto restored = restorer.value().Restore(pred);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::string expected = header;
  for (size_t i = 3; i < 7; ++i) expected += rows[i];
  expected += "\\.\n\n";
  EXPECT_EQ(restored.value(), expected);

  // A range reaching past the end clips instead of failing.
  pred.row_begin = rows.size() - 2;
  pred.row_count = UINT64_MAX;
  auto tail = restorer.value().Restore(pred);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ(tail.value(),
            header + rows[rows.size() - 2] + rows.back() + "\\.\n\n");
}

TEST(SelectiveRestoreTest, ColumnProjectionKeepsTableOrder) {
  const std::string path =
      WriteIndexedContainer("selective_cols.ulec", IndexedOptions());
  auto reader = filmstore::OpenReel(path);
  ASSERT_TRUE(reader.ok());

  RestorePredicate pred;
  pred.table = "region";
  // Request out of table order; the projection preserves table order.
  pred.columns = {"r_name", "r_regionkey"};
  pred.row_count = 2;
  SelectiveStats stats;
  auto restored =
      RestoreSelective(*reader.value(), pred, SelectiveOptions(), &stats);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const std::string& text = restored.value();
  EXPECT_NE(text.find("CREATE TABLE region ("), std::string::npos);
  EXPECT_NE(text.find("COPY region (r_regionkey, r_name) FROM stdin;"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("0\tAFRICA\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("r_comment"), std::string::npos) << text;

  // Unknown columns are named, not silently dropped.
  pred.columns = {"no_such_column"};
  auto bad = RestoreSelective(*reader.value(), pred);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("no_such_column"),
            std::string::npos);
}

TEST(SelectiveRestoreTest, UnknownTableNamesTheAvailableOnes) {
  const std::string path =
      WriteIndexedContainer("selective_unknown.ulec", IndexedOptions());
  auto reader = filmstore::OpenReel(path);
  ASSERT_TRUE(reader.ok());
  RestorePredicate pred;
  pred.table = "no_such_table";
  auto restored = RestoreSelective(*reader.value(), pred);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kNotFound);
  EXPECT_NE(restored.status().message().find("lineitem"), std::string::npos)
      << restored.status().ToString();
}

TEST(SelectiveRestoreTest, UnindexedArchiveFallsBackToDerivedIndex) {
  ArchiveOptions options = IndexedOptions();
  options.build_index = false;
  const std::string path =
      WriteIndexedContainer("selective_unindexed.ulec", options);
  auto reader = filmstore::OpenReel(path);
  ASSERT_TRUE(reader.ok());

  // No section on the reel: opening by index is NotFound.
  RestorePredicate pred;
  pred.table = "orders";
  auto direct = RestoreSelective(*reader.value(), pred);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kNotFound);

  // The index is derivable from one full decode; the unsegmented stream
  // (plain Encode is deterministic) cross-checks against the archive.
  const std::string& dump = TestDump();
  auto stream = dbcoder::Encode(
      BytesView(reinterpret_cast<const uint8_t*>(dump.data()), dump.size()),
      options.scheme);
  ASSERT_TRUE(stream.ok());
  auto derived =
      DeriveRecordIndex(dump, stream.value(), kDefaultIndexChunkBytes);
  ASSERT_TRUE(derived.ok()) << derived.status().ToString();
  auto restorer =
      SelectiveRestorer::Open(*reader.value(), derived.value(), {});
  ASSERT_TRUE(restorer.ok()) << restorer.status().ToString();
  auto restored = restorer.value().Restore(pred);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), TableSlice(derived.value(), dump, "orders"));
}

}  // namespace
}  // namespace core
}  // namespace ule
