// Conformance tests for the archived DynaRisc decoders: DBDecode and
// MODecode must produce byte-identical results to the native C++ decoders,
// both on the native DynaRisc emulator and (for representative cases)
// under full nested emulation (VeRisc hosting DynaRisc).

#include <gtest/gtest.h>

#include <string>

#include "core/micr_olonys.h"
#include "dbcoder/dbcoder.h"
#include "decoders/dbdecode.h"
#include "decoders/modecode.h"
#include "dynarisc/machine.h"
#include "filmstore/frame_store.h"
#include "mocoder/emblem.h"
#include "olonys/dynarisc_in_verisc.h"
#include "support/crc32.h"
#include "support/random.h"

namespace ule {
namespace decoders {
namespace {

Bytes ArchiveText(Rng* rng, size_t approx) {
  static const char* kWords[] = {"INSERT", "INTO",  "lineitem", "VALUES",
                                 "1995-03-15", "0.07", "TRUCK", "COLLECT COD",
                                 "regular", "deposits"};
  std::string s = "CREATE TABLE lineitem (l_orderkey bigint);\n";
  while (s.size() < approx) {
    s += kWords[rng->Below(10)];
    s += (rng->Below(6) == 0) ? "\n" : " ";
  }
  return ToBytes(s);
}

// ---------------- DBDecode ----------------

class DbDecodeConformance : public ::testing::TestWithParam<dbcoder::Scheme> {
};

TEST_P(DbDecodeConformance, MatchesNativeDecoder) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  const Bytes raw = ArchiveText(&rng, 6000);
  auto container = dbcoder::Encode(raw, GetParam());
  ASSERT_TRUE(container.ok());

  auto out = dynarisc::RunProgram(DbDecodeProgram(), container.value());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value(), raw);
}

TEST_P(DbDecodeConformance, RandomPayload) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 200);
  const Bytes raw = RandomBytes(&rng, 3000);
  auto container = dbcoder::Encode(raw, GetParam());
  ASSERT_TRUE(container.ok());
  auto out = dynarisc::RunProgram(DbDecodeProgram(), container.value());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value(), raw);
}

TEST_P(DbDecodeConformance, EmptyPayload) {
  auto container = dbcoder::Encode({}, GetParam());
  ASSERT_TRUE(container.ok());
  auto out = dynarisc::RunProgram(DbDecodeProgram(), container.value());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out.value().empty());
}

INSTANTIATE_TEST_SUITE_P(ArchivedSchemes, DbDecodeConformance,
                         ::testing::Values(dbcoder::Scheme::kStore,
                                           dbcoder::Scheme::kLzss,
                                           dbcoder::Scheme::kLzac),
                         [](const auto& info) {
                           return dbcoder::SchemeName(info.param);
                         });

TEST(DbDecodeTest, BadMagicProducesNoOutput) {
  Bytes junk = ToBytes("XXXXsomething that is not a container");
  auto out = dynarisc::RunProgram(DbDecodeProgram(), junk);
  ASSERT_TRUE(out.ok());  // halts cleanly
  EXPECT_TRUE(out.value().empty());
}

TEST(DbDecodeTest, LongMatchesExerciseWindowWrap) {
  // Highly repetitive data > window size: matches wrap the ring buffer.
  std::string s;
  for (int i = 0; i < 1200; ++i) s += "abcdefghijklmnopqrstuvwxyz0123456789";
  const Bytes raw = ToBytes(s);
  for (auto scheme : {dbcoder::Scheme::kLzss, dbcoder::Scheme::kLzac}) {
    auto container = dbcoder::Encode(raw, scheme);
    ASSERT_TRUE(container.ok());
    auto out = dynarisc::RunProgram(DbDecodeProgram(), container.value());
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out.value(), raw) << dbcoder::SchemeName(scheme);
  }
}

TEST(DbDecodeTest, NestedEmulationLzac) {
  // The full ULE stack: LZAC decoding inside DynaRisc inside VeRisc.
  Rng rng(42);
  const Bytes raw = ArchiveText(&rng, 800);
  auto container = dbcoder::Encode(raw, dbcoder::Scheme::kLzac);
  ASSERT_TRUE(container.ok());
  auto out = olonys::RunNested(DbDecodeProgram(), container.value());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value(), raw);
}

// ---------------- MODecode ----------------

Bytes GridToIntensities(const mocoder::CellGrid& grid, int n) {
  Bytes out(static_cast<size_t>(n) * n);
  const int o = mocoder::kFrameCells;
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      out[static_cast<size_t>(y) * n + x] = grid.at(o + x, o + y) ? 12 : 240;
    }
  }
  return out;
}

/// One MODecode conformance case: `flipped_cells` destroys random cells
/// (mid-gray).
struct EmblemCase {
  int n;
  int flipped_cells;
};

/// One MODecode case with exact byte damage: `errors_per_block` corrupts
/// exactly that many distinct codeword bytes in every RS block by
/// inverting one half-cell of each (16 is the RS(255,223) correction
/// limit); `halt_block` >= 0 instead puts 17 byte errors into that block
/// only, so MODecode must emit the blocks before it and halt.
struct ByteDamageCase {
  int n;
  int errors_per_block;
  int halt_block;
};

/// Inverts the first half-cell of coded byte `index` of an N x N
/// intensity grid, which flips that byte's first bit. Data cells run
/// serpentine over rows 1..N-1, two half-cells per bit, MSB first.
void InvertCodedByte(Bytes* cells, int n, size_t index) {
  const size_t k = index * 16;
  const size_t row = k / static_cast<size_t>(n);
  const size_t col = k % static_cast<size_t>(n);
  const size_t x = row % 2 == 0 ? col : static_cast<size_t>(n) - 1 - col;
  uint8_t& cell = (*cells)[(1 + row) * static_cast<size_t>(n) + x];
  cell = cell < 128 ? 240 : 12;
}

/// Corrupts `count` distinct codeword bytes of RS block `block`.
void CorruptBlock(Bytes* cells, int n, int block, int count, Rng* rng) {
  const int blocks = mocoder::EmblemBlocks(n);
  std::vector<int> positions(255);
  for (int j = 0; j < 255; ++j) positions[j] = j;
  for (int j = 0; j < count; ++j) {
    std::swap(positions[j], positions[j + rng->Below(255 - j)]);
    InvertCodedByte(cells, n,
                    static_cast<size_t>(positions[j]) * blocks + block);
  }
}

/// Damages an emblem as the case says, decodes it natively and through
/// MODecode, and checks that the two agree.
void ExpectModecodeMatchesNative(int n, int flipped_cells,
                                 int errors_per_block, int halt_block) {
  Rng rng(static_cast<uint64_t>(n) * 31 +
          static_cast<uint64_t>(flipped_cells));
  const int cap = mocoder::EmblemCapacity(n);
  ASSERT_GT(cap, 0);
  Bytes payload = RandomBytes(&rng, static_cast<size_t>(cap));
  mocoder::EmblemHeader h;
  h.stream = mocoder::StreamId::kData;
  h.seq = 5;
  h.total = 9;
  h.stream_len = static_cast<uint32_t>(cap);
  h.payload_crc = Crc32(payload);
  auto grid = mocoder::BuildEmblem(h, payload, n);
  ASSERT_TRUE(grid.ok());
  Bytes cells = GridToIntensities(grid.value(), n);
  for (int i = 0; i < flipped_cells; ++i) {
    cells[rng.Below(cells.size())] = 128;
  }
  const int blocks = mocoder::EmblemBlocks(n);
  if (errors_per_block > 0) {
    for (int b = 0; b < blocks; ++b) {
      CorruptBlock(&cells, n, b, errors_per_block, &rng);
    }
  }
  if (halt_block >= 0) CorruptBlock(&cells, n, halt_block, 17, &rng);

  // Native reference decode (payload-level).
  mocoder::EmblemHeader native_h;
  mocoder::EmblemDecodeInfo info;
  auto native = mocoder::DecodeEmblemIntensities(cells, n, &native_h, &info);

  // DynaRisc MODecode produces the full container.
  const Bytes input = PackModecodeInput(cells, n);
  auto out = dynarisc::RunProgram(ModecodeProgram(), input);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  if (halt_block >= 0) {
    // Beyond the correction limit: the native decoder refuses the emblem
    // and MODecode halts after the blocks before the bad one.
    EXPECT_FALSE(native.ok());
    EXPECT_EQ(out.value().size(), static_cast<size_t>(halt_block) * 223);
    return;
  }
  ASSERT_TRUE(native.ok()) << native.status().ToString();
  if (errors_per_block > 0) {
    EXPECT_EQ(info.rs_errors_corrected, blocks * errors_per_block);
  }
  ASSERT_EQ(out.value().size(), static_cast<size_t>(blocks) * 223);
  // Container = header + payload (+ padding).
  auto parsed = mocoder::ParseHeader(out.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().seq, 5);
  const Bytes asm_payload(out.value().begin() + mocoder::kHeaderSize,
                          out.value().begin() + mocoder::kHeaderSize + cap);
  EXPECT_EQ(asm_payload, native.value());
  EXPECT_EQ(asm_payload, payload);
}

class ModecodeConformance : public ::testing::TestWithParam<EmblemCase> {};

TEST_P(ModecodeConformance, MatchesNativeDecoder) {
  const EmblemCase c = GetParam();
  ExpectModecodeMatchesNative(c.n, c.flipped_cells, 0, -1);
}

INSTANTIATE_TEST_SUITE_P(
    Emblems, ModecodeConformance,
    ::testing::Values(EmblemCase{65, 0}, EmblemCase{65, 8},
                      EmblemCase{80, 0}, EmblemCase{80, 20},
                      EmblemCase{128, 0}, EmblemCase{128, 40},
                      EmblemCase{128, 60},
                      // Microfilm geometry: odd N, 142 blocks.
                      EmblemCase{763, 0},
                      // The largest N MODecode takes: 226 blocks fill the
                      // coded buffer up to the stack.
                      EmblemCase{962, 0}));

class ModecodeByteDamage : public ::testing::TestWithParam<ByteDamageCase> {};

TEST_P(ModecodeByteDamage, MatchesNativeDecoder) {
  const ByteDamageCase c = GetParam();
  ExpectModecodeMatchesNative(c.n, 0, c.errors_per_block, c.halt_block);
}

INSTANTIATE_TEST_SUITE_P(
    Emblems, ModecodeByteDamage,
    ::testing::Values(ByteDamageCase{763, 16, -1}, ByteDamageCase{763, 0, 7},
                      ByteDamageCase{962, 16, -1}));

TEST(ModecodeTest, GridBeyondTheMemoryMapHalts) {
  // N = 1000 needs 244 RS blocks, more than the 64 KB map holds: the
  // native decoder takes it, MODecode halts with no output.
  const int n = 1000;
  Rng rng(10);
  const int cap = mocoder::EmblemCapacity(n);
  Bytes payload = RandomBytes(&rng, static_cast<size_t>(cap));
  mocoder::EmblemHeader h;
  h.payload_crc = Crc32(payload);
  h.stream_len = static_cast<uint32_t>(cap);
  auto grid = mocoder::BuildEmblem(h, payload, n);
  ASSERT_TRUE(grid.ok());
  const Bytes cells = GridToIntensities(grid.value(), n);
  mocoder::EmblemHeader native_h;
  auto native = mocoder::DecodeEmblemIntensities(cells, n, &native_h);
  ASSERT_TRUE(native.ok()) << native.status().ToString();
  EXPECT_EQ(native.value(), payload);
  auto out =
      dynarisc::RunProgram(ModecodeProgram(), PackModecodeInput(cells, n));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out.value().empty());
}

TEST(ModecodeTest, ArchiveRefusesGridsBeyondTheMemoryMap) {
  // The limit is exactly where the coded bytes outgrow the 64 KB map.
  EXPECT_EQ(mocoder::EmblemBlocks(kModecodeMaxDataSide), 226);
  EXPECT_EQ(mocoder::EmblemBlocks(kModecodeMaxDataSide + 1), 227);
  // An archive one cell larger would halt its own MODecode, so it is
  // refused before the first frame is written.
  core::ArchiveOptions options;
  options.emblem.data_side = kModecodeMaxDataSide + 1;
  filmstore::MemoryStore store;
  auto summary = core::ArchiveDumpStreaming(
      "CREATE TABLE t (a INTEGER);\nINSERT INTO t VALUES (1);\n", options,
      store);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(summary.status().message().find("962"), std::string::npos)
      << summary.status().ToString();
  for (mocoder::StreamId id :
       {mocoder::StreamId::kData, mocoder::StreamId::kSystem}) {
    EXPECT_TRUE(store.frames(id).empty());
  }
}

TEST(DbDecodeTest, ArchiveRefusesSchemesBeyondLzac) {
  // The archived DBDecode dispatches only store, lzss and lzac; any other
  // scheme falls through to its fail halt, so such an archive could not
  // be restored by its own Bootstrap and is refused before the first
  // frame is written.
  core::ArchiveOptions options;
  options.scheme = dbcoder::Scheme::kColumnar;
  filmstore::MemoryStore store;
  auto summary = core::ArchiveDumpStreaming(
      "CREATE TABLE t (a INTEGER);\nINSERT INTO t VALUES (1);\n", options,
      store);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(summary.status().message().find("columnar"), std::string::npos)
      << summary.status().ToString();
  for (mocoder::StreamId id :
       {mocoder::StreamId::kData, mocoder::StreamId::kSystem}) {
    EXPECT_TRUE(store.frames(id).empty());
  }
}

TEST(ModecodeTest, PinnedInstructionCountOnCleanEmblem) {
  // The emulated restore's cost is MODecode's cost: a slower MODecode
  // must fail here, not only in the benchmark. On a clean emblem the
  // count does not depend on the payload. Update it deliberately: it was
  // 1,386,773 before the rewrite for the VeRisc cost model (167.7 M
  // VeRisc steps on the translated path; 40.9 M after).
  const int n = 128;
  Rng rng(11);
  const int cap = mocoder::EmblemCapacity(n);
  Bytes payload = RandomBytes(&rng, static_cast<size_t>(cap));
  mocoder::EmblemHeader h;
  h.payload_crc = Crc32(payload);
  h.stream_len = static_cast<uint32_t>(cap);
  auto grid = mocoder::BuildEmblem(h, payload, n);
  ASSERT_TRUE(grid.ok());
  const Bytes input = PackModecodeInput(GridToIntensities(grid.value(), n), n);
  dynarisc::Machine machine(ModecodeProgram(), input);
  const dynarisc::RunResult r = machine.Run();
  ASSERT_EQ(r.reason, dynarisc::StopReason::kHalted);
  ASSERT_EQ(r.output.size(), 3u * 223);
  EXPECT_EQ(r.steps, 326714u);
}

TEST(ModecodeTest, SystemEmblemDecodes) {
  const int n = 65;
  Rng rng(7);
  const int cap = mocoder::EmblemCapacity(n);
  Bytes payload = RandomBytes(&rng, static_cast<size_t>(cap));
  mocoder::EmblemHeader h;
  h.stream = mocoder::StreamId::kSystem;
  h.payload_crc = Crc32(payload);
  h.stream_len = static_cast<uint32_t>(cap);
  auto grid = mocoder::BuildEmblem(h, payload, n);
  ASSERT_TRUE(grid.ok());
  const Bytes input = PackModecodeInput(GridToIntensities(grid.value(), n), n);
  auto out = dynarisc::RunProgram(ModecodeProgram(), input);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const Bytes asm_payload(out.value().begin() + mocoder::kHeaderSize,
                          out.value().begin() + mocoder::kHeaderSize + cap);
  EXPECT_EQ(asm_payload, payload);
}

TEST(ModecodeTest, ExcessDamageHaltsEarly) {
  const int n = 65;
  Rng rng(8);
  const int cap = mocoder::EmblemCapacity(n);
  Bytes payload = RandomBytes(&rng, static_cast<size_t>(cap));
  mocoder::EmblemHeader h;
  h.payload_crc = Crc32(payload);
  auto grid = mocoder::BuildEmblem(h, payload, n);
  ASSERT_TRUE(grid.ok());
  Bytes cells = GridToIntensities(grid.value(), n);
  // Destroy a third of the data area: far beyond the 7.2% budget.
  for (size_t i = 0; i < cells.size() / 3; ++i) {
    cells[i + static_cast<size_t>(n)] = static_cast<uint8_t>(rng.Below(256));
  }
  const Bytes input = PackModecodeInput(cells, n);
  auto out = dynarisc::RunProgram(ModecodeProgram(), input);
  ASSERT_TRUE(out.ok());
  const int blocks = mocoder::EmblemBlocks(n);
  EXPECT_LT(out.value().size(), static_cast<size_t>(blocks) * 223);
}

TEST(ModecodeTest, BadGeometryHalts) {
  // N below the minimum: immediate halt, no output.
  Bytes input = PackModecodeInput(Bytes(16, 0), 4);
  auto out = dynarisc::RunProgram(ModecodeProgram(), input);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());
}

TEST(ModecodeTest, NestedEmulationSmallEmblem) {
  // MODecode under full nested emulation (VeRisc -> DynaRisc -> RS math).
  const int n = 65;
  Rng rng(9);
  const int cap = mocoder::EmblemCapacity(n);
  Bytes payload = RandomBytes(&rng, static_cast<size_t>(cap));
  mocoder::EmblemHeader h;
  h.payload_crc = Crc32(payload);
  h.stream_len = static_cast<uint32_t>(cap);
  auto grid = mocoder::BuildEmblem(h, payload, n);
  ASSERT_TRUE(grid.ok());
  Bytes cells = GridToIntensities(grid.value(), n);
  cells[1000] = 128;  // one damaged cell: the RS path must engage
  const Bytes input = PackModecodeInput(cells, n);
  verisc::RunOptions opts;
  opts.max_steps = 20'000'000'000ull;
  auto out = olonys::RunNested(ModecodeProgram(), input, opts);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const Bytes asm_payload(out.value().begin() + mocoder::kHeaderSize,
                          out.value().begin() + mocoder::kHeaderSize + cap);
  EXPECT_EQ(asm_payload, payload);
}

}  // namespace
}  // namespace decoders
}  // namespace ule
