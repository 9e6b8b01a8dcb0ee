// Tests for DBCoder: LZ77 parsing, the range coder, all container schemes
// (store / lzss / lzac / columnar), and compression-ratio orderings that
// experiment E10 relies on.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "dbcoder/columnar.h"
#include "dbcoder/dbcoder.h"
#include "dbcoder/lz77.h"
#include "dbcoder/rangecoder.h"
#include "support/random.h"

namespace ule {
namespace dbcoder {
namespace {

Bytes CompressibleText(Rng* rng, size_t approx) {
  static const char* kWords[] = {"SELECT", "INSERT", "customer", "order",
                                 "lineitem", "1995-03-15", "0.04", "FRANCE",
                                 "shipping", "instructions"};
  std::string s;
  while (s.size() < approx) {
    s += kWords[rng->Below(10)];
    s += (rng->Below(8) == 0) ? "\n" : "\t";
  }
  return ToBytes(s);
}

// ---------------- LZ77 ----------------

TEST(Lz77Test, ParseExpandRoundTripText) {
  Rng rng(1);
  const Bytes data = CompressibleText(&rng, 20000);
  EXPECT_EQ(Expand(Parse(data)), data);
}

TEST(Lz77Test, ParseExpandRoundTripRandom) {
  Rng rng(2);
  const Bytes data = RandomBytes(&rng, 10000);
  EXPECT_EQ(Expand(Parse(data)), data);
}

TEST(Lz77Test, EmptyInput) {
  EXPECT_TRUE(Parse({}).empty());
  EXPECT_TRUE(Expand({}).empty());
}

TEST(Lz77Test, FindsLongRuns) {
  Bytes data(1000, 'a');
  const auto tokens = Parse(data);
  // A run should compress to a handful of tokens, not 1000 literals.
  EXPECT_LT(tokens.size(), 50u);
  EXPECT_EQ(Expand(tokens), data);
}

TEST(Lz77Test, TokensRespectFormatLimits) {
  Rng rng(3);
  const Bytes data = CompressibleText(&rng, 30000);
  for (const Token& t : Parse(data)) {
    if (t.is_match) {
      EXPECT_GE(t.distance, 1u);
      EXPECT_LE(t.distance, kWindowSize);
      EXPECT_GE(t.length, kMinMatch);
      EXPECT_LE(t.length, kMaxMatch);
    }
  }
}

TEST(Lz77Test, OverlappingMatchExpansion) {
  // "abcabcabc..." exercises distance < length copies.
  std::string s;
  for (int i = 0; i < 300; ++i) s += "abc";
  const Bytes data = ToBytes(s);
  EXPECT_EQ(Expand(Parse(data)), data);
}

// ---------------- range coder ----------------

TEST(RangeCoderTest, SingleContextRoundTrip) {
  Rng rng(4);
  std::vector<int> bits(5000);
  for (auto& b : bits) b = rng.Chance(0.8) ? 0 : 1;  // biased source

  RangeEncoder enc;
  uint8_t p = kProbInit;
  for (int b : bits) enc.EncodeBit(&p, b);
  const Bytes stream = enc.Finish();

  RangeDecoder dec(stream);
  uint8_t q = kProbInit;
  for (size_t i = 0; i < bits.size(); ++i) {
    ASSERT_EQ(dec.DecodeBit(&q), bits[i]) << "bit " << i;
  }
}

TEST(RangeCoderTest, BiasedSourceCompresses) {
  Rng rng(5);
  const int n = 80000;
  RangeEncoder enc;
  uint8_t p = kProbInit;
  for (int i = 0; i < n; ++i) enc.EncodeBit(&p, rng.Chance(0.95) ? 0 : 1);
  const Bytes stream = enc.Finish();
  // ~0.286 bits/bit entropy at p=0.95; allow generous slack for the 8-bit
  // probability resolution, but demand clear compression (< 0.6 bits/bit).
  EXPECT_LT(stream.size() * 8.0, n * 0.6);
}

TEST(RangeCoderTest, MultiContextRoundTrip) {
  Rng rng(6);
  std::vector<uint8_t> enc_probs(16, kProbInit);
  std::vector<uint8_t> dec_probs(16, kProbInit);
  std::vector<std::pair<int, int>> trace;  // (context, bit)
  RangeEncoder enc;
  for (int i = 0; i < 20000; ++i) {
    const int ctx = static_cast<int>(rng.Below(16));
    const int bit = rng.Chance(0.1 + 0.05 * ctx) ? 1 : 0;
    enc.EncodeBit(&enc_probs[ctx], bit);
    trace.emplace_back(ctx, bit);
  }
  const Bytes stream = enc.Finish();
  RangeDecoder dec(stream);
  for (auto [ctx, bit] : trace) {
    ASSERT_EQ(dec.DecodeBit(&dec_probs[ctx]), bit);
  }
}

TEST(RangeCoderTest, FirstByteIsZero) {
  RangeEncoder enc;
  uint8_t p = kProbInit;
  enc.EncodeBit(&p, 1);
  const Bytes stream = enc.Finish();
  ASSERT_FALSE(stream.empty());
  EXPECT_EQ(stream[0], 0);  // the Bootstrap decoder spec discards one byte
}

// ---------------- LZ77 + range coder combined ----------------

// Entropy-codes an LZ77 token stream through the range coder and back,
// exactly the composition the LZAC scheme is built on: every token field
// is sent bit-by-bit under its own adaptive context family.
TEST(Lz77RangeCoderTest, TokenStreamRoundTripOnRandomBuffers) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    for (size_t n : {size_t{1}, size_t{37}, size_t{4096}, size_t{50000}}) {
      Rng rng(seed);
      // Half-random, half-repetitive so both literals and matches occur.
      Bytes data = RandomBytes(&rng, n);
      const Bytes prefix(data.begin(), data.begin() + n / 2);
      data.insert(data.end(), prefix.begin(), prefix.end());
      const auto tokens = Parse(data);

      // One context per bit position of each field keeps the model tiny
      // but adaptive, like the archived decoder's layout.
      std::vector<uint8_t> kind(1, kProbInit), lit(8, kProbInit),
          dist(kWindowBits, kProbInit), len(kLengthBits, kProbInit);
      RangeEncoder enc;
      auto put = [&enc](std::vector<uint8_t>& ctx, uint32_t v, int bits) {
        for (int i = bits - 1; i >= 0; --i) {
          enc.EncodeBit(&ctx[static_cast<size_t>(i)],
                        static_cast<int>((v >> i) & 1));
        }
      };
      for (const Token& t : tokens) {
        put(kind, t.is_match ? 1 : 0, 1);
        if (t.is_match) {
          put(dist, static_cast<uint32_t>(t.distance - 1), kWindowBits);
          put(len, static_cast<uint32_t>(t.length - kMinMatch), kLengthBits);
        } else {
          put(lit, t.literal, 8);
        }
      }
      const Bytes stream = enc.Finish();

      std::vector<uint8_t> dkind(1, kProbInit), dlit(8, kProbInit),
          ddist(kWindowBits, kProbInit), dlen(kLengthBits, kProbInit);
      RangeDecoder dec(stream);
      auto get = [&dec](std::vector<uint8_t>& ctx, int bits) {
        uint32_t v = 0;
        for (int i = bits - 1; i >= 0; --i) {
          v |= static_cast<uint32_t>(
                   dec.DecodeBit(&ctx[static_cast<size_t>(i)]))
               << i;
        }
        return v;
      };
      std::vector<Token> decoded;
      decoded.reserve(tokens.size());
      for (size_t i = 0; i < tokens.size(); ++i) {
        Token t;
        t.is_match = get(dkind, 1) != 0;
        if (t.is_match) {
          t.distance = static_cast<uint16_t>(get(ddist, kWindowBits) + 1);
          t.length = static_cast<uint8_t>(get(dlen, kLengthBits) + kMinMatch);
        } else {
          t.literal = static_cast<uint8_t>(get(dlit, 8));
        }
        decoded.push_back(t);
      }
      ASSERT_EQ(Expand(decoded), data) << "seed " << seed << " n " << n;
    }
  }
}

// Full LZAC container pipeline (Parse + range coder inside Encode) across a
// sweep of random buffer sizes, including boundary sizes around the LZ77
// window.
TEST(Lz77RangeCoderTest, LzacContainerSweepOnRandomBuffers) {
  const size_t sizes[] = {0,    1,    2,    3,    255,   256,
                          4095, 8192, 8193, 16384, 40000};
  for (uint64_t seed : {31u, 32u}) {
    for (size_t n : sizes) {
      const Bytes data = RandomBytes(seed * 1000 + n, n);
      auto packed = Encode(data, Scheme::kLzac);
      ASSERT_TRUE(packed.ok()) << packed.status().ToString();
      auto unpacked = Decode(packed.value());
      ASSERT_TRUE(unpacked.ok()) << unpacked.status().ToString();
      EXPECT_EQ(unpacked.value(), data) << "seed " << seed << " n " << n;
    }
  }
}

// ---------------- container schemes ----------------

class SchemeRoundTrip : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeRoundTrip, TextPayload) {
  Rng rng(7);
  const Bytes data = CompressibleText(&rng, 50000);
  auto packed = Encode(data, GetParam());
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  auto back = Decode(packed.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), data);
}

TEST_P(SchemeRoundTrip, RandomPayload) {
  Rng rng(8);
  const Bytes data = RandomBytes(&rng, 20000);
  auto packed = Encode(data, GetParam());
  ASSERT_TRUE(packed.ok());
  auto back = Decode(packed.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), data);
}

TEST_P(SchemeRoundTrip, EmptyPayload) {
  auto packed = Encode({}, GetParam());
  ASSERT_TRUE(packed.ok());
  auto back = Decode(packed.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value().empty());
}

TEST_P(SchemeRoundTrip, OneByte) {
  const Bytes data = {0x42};
  auto packed = Encode(data, GetParam());
  ASSERT_TRUE(packed.ok());
  auto back = Decode(packed.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), data);
}

// A container whose header claims far more output than its stream holds
// must fail as Corruption quickly: decode time and memory are bounded by
// the input, not by the forged length.
TEST_P(SchemeRoundTrip, ForgedRawLengthIsCorruption) {
  Rng rng(11);
  const Bytes data = CompressibleText(&rng, 2500);
  auto packed = Encode(data, GetParam());
  ASSERT_TRUE(packed.ok());
  Bytes forged = packed.TakeValue();
  for (size_t i = 5; i < 9; ++i) forged[i] = 0xFF;  // raw_len = 0xFFFFFFFF
  const auto start = std::chrono::steady_clock::now();
  auto back = Decode(forged);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption)
      << back.status().ToString();
  EXPECT_LT(seconds, 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeRoundTrip,
                         ::testing::Values(Scheme::kStore, Scheme::kLzss,
                                           Scheme::kLzac, Scheme::kColumnar),
                         [](const auto& info) {
                           return SchemeName(info.param);
                         });

TEST(ContainerTest, PeekScheme) {
  auto packed = Encode(ToBytes("hello"), Scheme::kLzss);
  ASSERT_TRUE(packed.ok());
  auto scheme = PeekScheme(packed.value());
  ASSERT_TRUE(scheme.ok());
  EXPECT_EQ(scheme.value(), Scheme::kLzss);
}

TEST(ContainerTest, BadMagicRejected) {
  Bytes junk = ToBytes("XXXXjunkjunkjunkjunk");
  EXPECT_FALSE(Decode(junk).ok());
}

TEST(ContainerTest, PayloadCorruptionDetected) {
  Rng rng(9);
  const Bytes data = CompressibleText(&rng, 5000);
  auto packed = Encode(data, Scheme::kLzac);
  ASSERT_TRUE(packed.ok());
  Bytes tampered = packed.TakeValue();
  tampered[tampered.size() / 2] ^= 0x01;
  auto back = Decode(tampered);
  // Either an explicit decode failure or a CRC mismatch; never wrong bytes.
  EXPECT_FALSE(back.ok());
}

TEST(ContainerTest, TruncationDetected) {
  auto packed = Encode(ToBytes("some text to compress"), Scheme::kLzss);
  ASSERT_TRUE(packed.ok());
  Bytes t = packed.TakeValue();
  t.resize(t.size() / 2);
  EXPECT_FALSE(Decode(t).ok());
}

// ---------------- compression behaviour (shape of E10) ----------------

std::string MakeCopyBlock(Rng* rng, int rows) {
  std::string s = "COPY public.orders (o_id, o_price, o_date, o_status) "
                  "FROM stdin;\n";
  int64_t id = 1000;
  for (int i = 0; i < rows; ++i) {
    id += static_cast<int64_t>(rng->Below(5)) + 1;
    const int64_t cents = 10000 + static_cast<int64_t>(rng->Below(900000));
    const int day = 1 + static_cast<int>(rng->Below(28));
    char date[16];
    std::snprintf(date, sizeof(date), "1995-%02d-%02d",
                  1 + static_cast<int>(rng->Below(12)), day);
    const char* status = (rng->Below(3) == 0) ? "O" : "F";
    s += std::to_string(id) + "\t" + std::to_string(cents / 100) + "." +
         (cents % 100 < 10 ? "0" : "") + std::to_string(cents % 100) + "\t" +
         date + "\t" + status + "\n";
  }
  s += "\\.\n";
  return s;
}

TEST(CompressionShapeTest, LzacBeatsLzssBeatsStore) {
  Rng rng(10);
  const Bytes data = ToBytes(
      "-- archive preamble\n" + MakeCopyBlock(&rng, 3000) + "-- trailer\n");
  const size_t store = Encode(data, Scheme::kStore).value().size();
  const size_t lzss = Encode(data, Scheme::kLzss).value().size();
  const size_t lzac = Encode(data, Scheme::kLzac).value().size();
  EXPECT_LT(lzss, store);
  EXPECT_LT(lzac, lzss);  // arithmetic coding must add real value
}

TEST(CompressionShapeTest, ColumnarBeatsLzacOnTabularData) {
  // The paper's §5 claim: typed columnar encoding beats generic compression
  // on database dumps.
  Rng rng(11);
  const Bytes data = ToBytes(MakeCopyBlock(&rng, 5000));
  const size_t lzac = Encode(data, Scheme::kLzac).value().size();
  const size_t columnar = Encode(data, Scheme::kColumnar).value().size();
  EXPECT_LT(columnar, lzac);
}

TEST(ColumnarTest, NonSqlInputStillRoundTrips) {
  Rng rng(12);
  const Bytes data = RandomBytes(&rng, 4096);
  auto enc = ColumnarEncode(data);
  ASSERT_TRUE(enc.ok());
  auto dec = ColumnarDecode(enc.value(), data.size());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value(), data);
}

TEST(ColumnarTest, RaggedCopyBlockFallsBack) {
  // Rows with inconsistent column counts must still round-trip (verbatim
  // fallback path).
  const std::string text =
      "COPY t (a, b) FROM stdin;\n1\t2\n3\n4\t5\t6\n\\.\n";
  const Bytes data = ToBytes(text);
  auto enc = ColumnarEncode(data);
  ASSERT_TRUE(enc.ok());
  auto dec = ColumnarDecode(enc.value(), data.size());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(ToString(dec.value()), text);
}

TEST(ColumnarTest, LeadingZerosNotMangled) {
  // "007" must not be re-emitted as "7": int inference rejects it.
  const std::string text = "COPY t (a) FROM stdin;\n007\n008\n\\.\n";
  const Bytes data = ToBytes(text);
  auto enc = ColumnarEncode(data);
  ASSERT_TRUE(enc.ok());
  auto dec = ColumnarDecode(enc.value(), data.size());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(ToString(dec.value()), text);
}

TEST(ColumnarTest, UnterminatedCopyIsPlainText) {
  const std::string text = "COPY t (a) FROM stdin;\n1\n2\n";  // no \.
  const Bytes data = ToBytes(text);
  auto enc = ColumnarEncode(data);
  ASSERT_TRUE(enc.ok());
  auto dec = ColumnarDecode(enc.value(), data.size());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(ToString(dec.value()), text);
}

TEST(ColumnarTest, DatesAndNullsRoundTrip) {
  const std::string text =
      "COPY t (d, v) FROM stdin;\n"
      "1992-01-31\t\\N\n1992-02-29\t10\n2024-12-31\t\\N\n\\.\n";
  const Bytes data = ToBytes(text);
  auto enc = ColumnarEncode(data);
  ASSERT_TRUE(enc.ok());
  auto dec = ColumnarDecode(enc.value(), data.size());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(ToString(dec.value()), text);
}

// ---------------- UDBS segmented streams ----------------

TEST(SegmentedTest, RoundTripsWholeAndPerSegment) {
  Rng rng(40);
  const Bytes raw = CompressibleText(&rng, 30000);
  std::vector<SegmentSpan> plan(3);
  plan[0] = {0, 10000, 0, 0};
  plan[1] = {10000, 15000, 0, 0};
  plan[2] = {25000, raw.size() - 25000, 0, 0};
  auto stream = EncodeSegmented(raw, Scheme::kLzac, &plan);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_TRUE(IsSegmented(stream.value()));
  auto scheme = PeekScheme(stream.value());
  ASSERT_TRUE(scheme.ok());
  EXPECT_EQ(scheme.value(), Scheme::kLzac);

  // The whole stream decodes transparently to the original input.
  auto whole = Decode(stream.value());
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(whole.value(), raw);

  // Every segment is a self-contained UDB1 container reproducing
  // exactly its raw span — the property selective restore builds on.
  auto listed = ListSegments(stream.value());
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  ASSERT_EQ(listed.value().size(), plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(listed.value()[i].raw_offset, plan[i].raw_offset);
    EXPECT_EQ(listed.value()[i].raw_len, plan[i].raw_len);
    EXPECT_EQ(listed.value()[i].stream_offset, plan[i].stream_offset);
    EXPECT_EQ(listed.value()[i].stream_len, plan[i].stream_len);
    auto piece = Decode(BytesView(stream.value())
                            .subspan(static_cast<size_t>(plan[i].stream_offset),
                                     static_cast<size_t>(plan[i].stream_len)));
    ASSERT_TRUE(piece.ok()) << piece.status().ToString();
    EXPECT_EQ(piece.value(),
              Bytes(raw.begin() + static_cast<long>(plan[i].raw_offset),
                    raw.begin() + static_cast<long>(plan[i].raw_offset +
                                                    plan[i].raw_len)));
  }
}

TEST(SegmentedTest, RejectsGappyOrShortPlans) {
  Rng rng(41);
  const Bytes raw = CompressibleText(&rng, 5000);
  std::vector<SegmentSpan> gap(2);
  gap[0] = {0, 1000, 0, 0};
  gap[1] = {1500, raw.size() - 1500, 0, 0};  // 500-byte hole
  EXPECT_EQ(EncodeSegmented(raw, Scheme::kLzss, &gap).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<SegmentSpan> quick(1);
  quick[0] = {0, 1000, 0, 0};  // does not cover the input
  EXPECT_EQ(EncodeSegmented(raw, Scheme::kLzss, &quick).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<SegmentSpan> none;
  EXPECT_EQ(EncodeSegmented(raw, Scheme::kLzss, &none).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SegmentedTest, HeaderCorruptionIsCaught) {
  Rng rng(42);
  const Bytes raw = CompressibleText(&rng, 8000);
  std::vector<SegmentSpan> plan(2);
  plan[0] = {0, 4000, 0, 0};
  plan[1] = {4000, raw.size() - 4000, 0, 0};
  auto stream = EncodeSegmented(raw, Scheme::kLzac, &plan);
  ASSERT_TRUE(stream.ok());
  Bytes mutated = stream.value();
  mutated[12] ^= 0xFF;  // inside the segment length table
  EXPECT_FALSE(ListSegments(mutated).ok());
  EXPECT_FALSE(Decode(mutated).ok());
}

TEST(SegmentedTest, ListSegmentsRejectsPlainContainers) {
  auto plain = Encode(ToBytes(std::string("plain old container")),
                      Scheme::kStore);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(IsSegmented(plain.value()));
  EXPECT_FALSE(ListSegments(plain.value()).ok());
  // ...while Decode keeps handling both forms transparently.
  auto decoded = Decode(plain.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), ToBytes(std::string("plain old container")));
}

}  // namespace
}  // namespace dbcoder
}  // namespace ule
