// Unit + property tests for GF(256) arithmetic and the Reed–Solomon codec,
// including the paper's two concrete codes: inner RS(255,223) and outer
// RS(20,17).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "rs/gf256.h"
#include "rs/reed_solomon.h"
#include "support/random.h"

namespace ule {
namespace rs {
namespace {

Bytes RandomPayload(Rng* rng, int n) {
  return RandomBytes(rng, static_cast<size_t>(n));
}

// ---------- GF(256) ----------

TEST(Gf256Test, MulIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(Gf256::Mul(static_cast<uint8_t>(a), 1), a);
    EXPECT_EQ(Gf256::Mul(static_cast<uint8_t>(a), 0), 0);
  }
}

TEST(Gf256Test, MulCommutes) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const uint8_t a = static_cast<uint8_t>(rng.Below(256));
    const uint8_t b = static_cast<uint8_t>(rng.Below(256));
    EXPECT_EQ(Gf256::Mul(a, b), Gf256::Mul(b, a));
  }
}

TEST(Gf256Test, MulMatchesCarrylessReference) {
  // Bitwise (table-free) reference multiplication modulo 0x11D.
  auto ref_mul = [](uint8_t a, uint8_t b) {
    uint16_t acc = 0;
    uint16_t aa = a;
    for (int i = 0; i < 8; ++i) {
      if (b & (1 << i)) acc ^= aa << i;
    }
    for (int bit = 15; bit >= 8; --bit) {
      if (acc & (1 << bit)) acc ^= 0x11D << (bit - 8);
    }
    return static_cast<uint8_t>(acc);
  };
  Rng rng(2);
  for (int i = 0; i < 4000; ++i) {
    const uint8_t a = static_cast<uint8_t>(rng.Below(256));
    const uint8_t b = static_cast<uint8_t>(rng.Below(256));
    EXPECT_EQ(Gf256::Mul(a, b), ref_mul(a, b)) << static_cast<int>(a) << " * "
                                               << static_cast<int>(b);
  }
}

TEST(Gf256Test, InverseIsTwoSided) {
  for (int a = 1; a < 256; ++a) {
    const uint8_t inv = Gf256::Inv(static_cast<uint8_t>(a));
    EXPECT_EQ(Gf256::Mul(static_cast<uint8_t>(a), inv), 1);
  }
}

TEST(Gf256Test, DivUndoesMul) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const uint8_t a = static_cast<uint8_t>(rng.Below(256));
    const uint8_t b = static_cast<uint8_t>(1 + rng.Below(255));
    EXPECT_EQ(Gf256::Div(Gf256::Mul(a, b), b), a);
  }
}

TEST(Gf256Test, ExpLogConsistent) {
  for (int i = 0; i < 255; ++i) {
    EXPECT_EQ(Gf256::Log(Gf256::Exp(i)), i);
  }
  EXPECT_EQ(Gf256::Exp(0), 1);
  EXPECT_EQ(Gf256::Exp(1), 2);  // generator alpha = 2
}

TEST(Gf256Test, PowMatchesRepeatedMul) {
  uint8_t acc = 1;
  for (int p = 0; p < 300; ++p) {
    EXPECT_EQ(Gf256::Pow(3, p), acc);
    acc = Gf256::Mul(acc, 3);
  }
}

// ---------- RS codec basics ----------

TEST(ReedSolomonTest, EncodeIsSystematic) {
  Codec codec(255, 223);
  Rng rng(4);
  const Bytes data = RandomPayload(&rng, 223);
  auto cw = codec.Encode(data);
  ASSERT_TRUE(cw.ok());
  ASSERT_EQ(cw.value().size(), 255u);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), cw.value().begin()));
}

TEST(ReedSolomonTest, EncodeRejectsWrongSize) {
  Codec codec(255, 223);
  EXPECT_FALSE(codec.Encode(Bytes(10)).ok());
  Codec small(20, 17);
  EXPECT_FALSE(small.Encode(Bytes(18)).ok());
}

TEST(ReedSolomonTest, DecodeCleanCodeword) {
  Codec codec(255, 223);
  Rng rng(5);
  const Bytes data = RandomPayload(&rng, 223);
  auto cw = codec.Encode(data);
  ASSERT_TRUE(cw.ok());
  DecodeInfo info;
  auto back = codec.Decode(cw.value(), {}, &info);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
  EXPECT_EQ(info.errors_corrected, 0);
  EXPECT_EQ(info.erasures_corrected, 0);
}

TEST(ReedSolomonTest, DecodeRejectsWrongLength) {
  Codec codec(255, 223);
  EXPECT_FALSE(codec.Decode(Bytes(100)).ok());
}

TEST(ReedSolomonTest, CorrectsMaxErrors) {
  // RS(255,223) corrects exactly 16 unknown errors — the paper's 7.2%
  // intra-emblem damage bound (32/2 = 16 of 223+32 block bytes).
  Codec codec(255, 223);
  Rng rng(6);
  const Bytes data = RandomPayload(&rng, 223);
  Bytes cw = codec.Encode(data).TakeValue();
  std::set<int> positions;
  while (positions.size() < 16) positions.insert(static_cast<int>(rng.Below(255)));
  for (int p : positions) cw[static_cast<size_t>(p)] ^= static_cast<uint8_t>(1 + rng.Below(255));
  DecodeInfo info;
  auto back = codec.Decode(cw, {}, &info);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
  EXPECT_EQ(info.errors_corrected, 16);
}

TEST(ReedSolomonTest, SeventeenErrorsFail) {
  Codec codec(255, 223);
  Rng rng(7);
  const Bytes data = RandomPayload(&rng, 223);
  Bytes cw = codec.Encode(data).TakeValue();
  std::set<int> positions;
  while (positions.size() < 17) positions.insert(static_cast<int>(rng.Below(255)));
  for (int p : positions) cw[static_cast<size_t>(p)] ^= static_cast<uint8_t>(1 + rng.Below(255));
  auto back = codec.Decode(cw);
  // Beyond-capacity decodes must not silently return wrong data: either an
  // error status, or (vanishingly unlikely) a miscorrection — assert failure.
  EXPECT_FALSE(back.ok());
}

TEST(ReedSolomonTest, CorrectsFullErasureBudget) {
  // 32 erasures (known positions) are correctable with 32 parity bytes.
  Codec codec(255, 223);
  Rng rng(8);
  const Bytes data = RandomPayload(&rng, 223);
  Bytes cw = codec.Encode(data).TakeValue();
  std::vector<int> erasures;
  std::set<int> positions;
  while (positions.size() < 32) positions.insert(static_cast<int>(rng.Below(255)));
  for (int p : positions) {
    cw[static_cast<size_t>(p)] = static_cast<uint8_t>(rng.Below(256));
    erasures.push_back(p);
  }
  DecodeInfo info;
  auto back = codec.Decode(cw, erasures, &info);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
}

TEST(ReedSolomonTest, TooManyErasuresRejected) {
  Codec codec(255, 223);
  Bytes cw(255, 0);
  std::vector<int> erasures;
  for (int i = 0; i < 33; ++i) erasures.push_back(i);
  EXPECT_FALSE(codec.Decode(cw, erasures).ok());
}

TEST(ReedSolomonTest, MixedErrorsAndErasures) {
  // 2*errors + erasures <= 32: try 10 errors + 12 erasures.
  Codec codec(255, 223);
  Rng rng(9);
  const Bytes data = RandomPayload(&rng, 223);
  Bytes cw = codec.Encode(data).TakeValue();
  std::set<int> all;
  while (all.size() < 22) all.insert(static_cast<int>(rng.Below(255)));
  std::vector<int> shuffled(all.begin(), all.end());
  std::vector<int> erasures(shuffled.begin(), shuffled.begin() + 12);
  for (size_t i = 0; i < shuffled.size(); ++i) {
    cw[static_cast<size_t>(shuffled[i])] ^= static_cast<uint8_t>(1 + rng.Below(255));
  }
  DecodeInfo info;
  auto back = codec.Decode(cw, erasures, &info);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
}

TEST(ReedSolomonTest, OuterCodeRecoversThreeLostEmblems) {
  // The paper's outer code: 17 data + 3 parity emblems; any 3 of 20 missing
  // are recoverable by erasure decoding (here per byte position).
  Codec outer(20, 17);
  Rng rng(10);
  const Bytes data = RandomPayload(&rng, 17);
  Bytes cw = outer.Encode(data).TakeValue();
  Bytes damaged = cw;
  damaged[2] = 0;
  damaged[9] = 0;
  damaged[19] = 0;
  auto back = outer.Decode(damaged, {2, 9, 19});
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
}

TEST(ReedSolomonTest, OuterCodeFourLostEmblemsFail) {
  Codec outer(20, 17);
  Bytes cw(20, 1);
  EXPECT_FALSE(outer.Decode(cw, {0, 1, 2, 3}).ok());
}

// ---------- Erasure recovery at the configured parity level ----------

// The archive format fixes two codecs: inner RS(255,223) (32 parity bytes
// per emblem block) and outer RS(20,17) (3 parity emblems per group).
// Property: for BOTH codecs, ANY pattern of exactly parity() known-bad
// positions is recoverable, and parity()+1 erasures are rejected rather
// than miscorrected.
class RsConfiguredParity
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RsConfiguredParity, RecoversAnyFullParityErasurePattern) {
  const auto [n, k] = GetParam();
  Codec codec(n, k);
  const int parity = codec.parity();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 977);
    const Bytes data = RandomPayload(&rng, k);
    const Bytes cw = codec.Encode(data).TakeValue();

    Bytes damaged = cw;
    std::set<int> positions;
    while (static_cast<int>(positions.size()) < parity) {
      positions.insert(static_cast<int>(rng.Below(static_cast<uint64_t>(n))));
    }
    std::vector<int> erasures(positions.begin(), positions.end());
    for (int p : erasures) {
      damaged[static_cast<size_t>(p)] =
          static_cast<uint8_t>(rng.Below(256));
    }

    DecodeInfo info;
    auto back = codec.Decode(damaged, erasures, &info);
    ASSERT_TRUE(back.ok()) << "RS(" << n << "," << k << ") seed " << seed
                           << ": " << back.status().ToString();
    EXPECT_EQ(back.value(), data);
    EXPECT_EQ(info.erasures_corrected, parity);
  }
}

TEST_P(RsConfiguredParity, OneBeyondParityBudgetRejected) {
  const auto [n, k] = GetParam();
  Codec codec(n, k);
  Rng rng(4242);
  const Bytes data = RandomPayload(&rng, k);
  Bytes cw = codec.Encode(data).TakeValue();
  std::vector<int> erasures;
  for (int i = 0; i <= codec.parity(); ++i) erasures.push_back(i);
  EXPECT_FALSE(codec.Decode(cw, erasures).ok());
}

INSTANTIATE_TEST_SUITE_P(
    ArchiveCodecs, RsConfiguredParity,
    ::testing::Values(std::make_tuple(255, 223),   // inner, per-emblem
                      std::make_tuple(20, 17)),    // outer, per-group
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& i) {
      return "rs" + std::to_string(std::get<0>(i.param)) + "_" +
             std::to_string(std::get<1>(i.param));
    });

// ---------- Parameterized property sweeps ----------

// (n, k, number of injected errors, number of injected erasures)
using RsCase = std::tuple<int, int, int, int>;

class RsRoundTrip : public ::testing::TestWithParam<RsCase> {};

TEST_P(RsRoundTrip, CorrectsWithinBudget) {
  const auto [n, k, nerr, nerase] = GetParam();
  ASSERT_LE(2 * nerr + nerase, n - k) << "test case exceeds budget";
  Codec codec(n, k);
  Rng rng(static_cast<uint64_t>(n * 1000003 + k * 101 + nerr * 7 + nerase));
  for (int trial = 0; trial < 20; ++trial) {
    const Bytes data = RandomPayload(&rng, k);
    Bytes cw = codec.Encode(data).TakeValue();

    std::set<int> touched;
    while (static_cast<int>(touched.size()) < nerr + nerase) {
      touched.insert(static_cast<int>(rng.Below(static_cast<uint64_t>(n))));
    }
    std::vector<int> positions(touched.begin(), touched.end());
    std::vector<int> erasures(positions.begin(), positions.begin() + nerase);
    for (int p : positions) {
      cw[static_cast<size_t>(p)] ^= static_cast<uint8_t>(1 + rng.Below(255));
    }
    auto back = codec.Decode(cw, erasures);
    ASSERT_TRUE(back.ok()) << "n=" << n << " k=" << k << " errors=" << nerr
                           << " erasures=" << nerase << " trial=" << trial
                           << ": " << back.status().ToString();
    EXPECT_EQ(back.value(), data);
  }
}

INSTANTIATE_TEST_SUITE_P(
    InnerCode, RsRoundTrip,
    ::testing::Values(RsCase{255, 223, 0, 0}, RsCase{255, 223, 1, 0},
                      RsCase{255, 223, 8, 0}, RsCase{255, 223, 16, 0},
                      RsCase{255, 223, 0, 32}, RsCase{255, 223, 0, 17},
                      RsCase{255, 223, 5, 20}, RsCase{255, 223, 15, 2}));

INSTANTIATE_TEST_SUITE_P(
    OuterCode, RsRoundTrip,
    ::testing::Values(RsCase{20, 17, 0, 0}, RsCase{20, 17, 1, 0},
                      RsCase{20, 17, 0, 3}, RsCase{20, 17, 0, 2},
                      RsCase{20, 17, 1, 1}, RsCase{20, 17, 0, 1}));

INSTANTIATE_TEST_SUITE_P(
    OddShapes, RsRoundTrip,
    ::testing::Values(RsCase{15, 9, 3, 0}, RsCase{60, 40, 10, 0},
                      RsCase{255, 128, 60, 7}, RsCase{100, 50, 20, 10},
                      RsCase{10, 2, 4, 0}, RsCase{3, 1, 1, 0}));

// ---------- Seeded sweep with exact correction counts ----------

// Corrupts `errors + erasures` distinct random positions of `cw` (each
// with a non-zero XOR) and returns the erased ones, in random order.
std::vector<int> Damage(Rng* rng, Bytes* cw, int errors, int erasures) {
  const int n = static_cast<int>(cw->size());
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[static_cast<size_t>(i)],
              order[rng->Below(static_cast<uint64_t>(i) + 1)]);
  }
  for (int i = 0; i < errors + erasures; ++i) {
    (*cw)[static_cast<size_t>(order[static_cast<size_t>(i)])] ^=
        static_cast<uint8_t>(1 + rng->Below(255));
  }
  return std::vector<int>(order.begin() + errors,
                          order.begin() + errors + erasures);
}

// The inner code and two parity-reel codes RS(n + m, n): n data reels,
// m parity reels.
class RsCorrectionSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RsCorrectionSweep, ExactDataAndCountsWithinCapacity) {
  const auto [n, k] = GetParam();
  const Codec codec(n, k);
  const int r = codec.parity();
  Rng rng(static_cast<uint64_t>(n) * 7919 + static_cast<uint64_t>(k));
  for (int errors = 0; errors <= codec.max_errors(); ++errors) {
    for (int erasures = 0; 2 * errors + erasures <= r; ++erasures) {
      for (int trial = 0; trial < 3; ++trial) {
        SCOPED_TRACE("RS(" + std::to_string(n) + "," + std::to_string(k) +
                     ") errors " + std::to_string(errors) + " erasures " +
                     std::to_string(erasures) + " trial " +
                     std::to_string(trial));
        const Bytes data = RandomPayload(&rng, k);
        Bytes cw = codec.Encode(data).TakeValue();
        const std::vector<int> erased = Damage(&rng, &cw, errors, erasures);
        DecodeInfo info;
        auto back = codec.Decode(cw, erased, &info);
        ASSERT_TRUE(back.ok()) << back.status().ToString();
        EXPECT_EQ(back.value(), data);
        EXPECT_EQ(info.errors_corrected, errors);
        EXPECT_EQ(info.erasures_corrected, erasures);
      }
    }
  }
}

TEST_P(RsCorrectionSweep, PastCapacityIsCorruption) {
  const auto [n, k] = GetParam();
  const Codec codec(n, k);
  const int r = codec.parity();
  Rng rng(static_cast<uint64_t>(n) * 104729 + static_cast<uint64_t>(k));
  // More erasures than parity symbols: refused before any decoding.
  for (int trial = 0; trial < 3; ++trial) {
    const Bytes data = RandomPayload(&rng, k);
    Bytes cw = codec.Encode(data).TakeValue();
    const std::vector<int> erased = Damage(&rng, &cw, 0, r + 1);
    auto back = codec.Decode(cw, erased);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
  }
  // Errors past capacity: a bounded-distance decoder reports them only
  // when no other codeword lies within its reach of the damaged word. For
  // the inner code (reach 16) that holds for all but a vanishing share of
  // words, so every case here must fail; a short parity-reel code's reach
  // is 1 byte, and a word with 2 errors lands next to another codeword
  // often enough that there is nothing exact to assert.
  if (r < 32) return;
  const std::tuple<int, int> past[] = {{17, 0}, {18, 0}, {12, 10}, {9, 16}};
  for (const auto& [errors, erasures] : past) {
    ASSERT_GT(2 * errors + erasures, r);
    for (int trial = 0; trial < 3; ++trial) {
      SCOPED_TRACE("errors " + std::to_string(errors) + " erasures " +
                   std::to_string(erasures) + " trial " +
                   std::to_string(trial));
      const Bytes data = RandomPayload(&rng, k);
      Bytes cw = codec.Encode(data).TakeValue();
      const std::vector<int> erased = Damage(&rng, &cw, errors, erasures);
      auto back = codec.Decode(cw, erased);
      ASSERT_FALSE(back.ok());
      EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    InnerAndParityReelCodes, RsCorrectionSweep,
    ::testing::Values(std::make_tuple(255, 223),  // inner, per-emblem
                      std::make_tuple(6, 4),      // 4 data + 2 parity reels
                      std::make_tuple(11, 8)),    // 8 data + 3 parity reels
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& i) {
      return "rs" + std::to_string(std::get<0>(i.param)) + "_" +
             std::to_string(std::get<1>(i.param));
    });

// Exhaustive single-error sweep over every position of the outer code.
class RsSinglePosition : public ::testing::TestWithParam<int> {};

TEST_P(RsSinglePosition, AnySinglePositionCorrectable) {
  const int pos = GetParam();
  Codec codec(20, 17);
  Rng rng(42);
  const Bytes data = RandomPayload(&rng, 17);
  Bytes cw = codec.Encode(data).TakeValue();
  cw[static_cast<size_t>(pos)] ^= 0xA5;
  auto back = codec.Decode(cw);
  ASSERT_TRUE(back.ok()) << "position " << pos;
  EXPECT_EQ(back.value(), data);
}

INSTANTIATE_TEST_SUITE_P(AllPositions, RsSinglePosition,
                         ::testing::Range(0, 20));

// ---------- Bulk erasure weights ----------

// XOR_s w[s] * word[s]: the byte one weight row rebuilds.
uint8_t Apply(const Bytes& w, const Bytes& word) {
  uint8_t acc = 0;
  for (size_t s = 0; s < word.size(); ++s) acc ^= Gf256::Mul(w[s], word[s]);
  return acc;
}

class RsErasureWeights
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

// missing = the parity positions is the encoder.
TEST_P(RsErasureWeights, ParityPositionsEncode) {
  const auto [n, k] = GetParam();
  Codec codec(n, k);
  std::vector<int> parity;
  for (int p = k; p < n; ++p) parity.push_back(p);
  auto w = codec.ErasureWeights(parity);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ASSERT_EQ(w.value().size(), parity.size());
  Rng rng(static_cast<uint64_t>(n * 1000 + k));
  for (int trial = 0; trial < 20; ++trial) {
    const Bytes cw = codec.Encode(RandomPayload(&rng, k)).TakeValue();
    for (size_t m = 0; m < parity.size(); ++m) {
      ASSERT_EQ(w.value()[m].size(), static_cast<size_t>(n));
      EXPECT_EQ(Apply(w.value()[m], cw), cw[static_cast<size_t>(k) + m])
          << "RS(" << n << "," << k << ") parity " << m;
    }
  }
}

// Any pattern of up to parity() erasures is rebuilt from the other bytes
// alone: the weights at the missing positions are zero.
TEST_P(RsErasureWeights, RebuildsRandomErasurePatterns) {
  const auto [n, k] = GetParam();
  Codec codec(n, k);
  Rng rng(static_cast<uint64_t>(n * 7 + k));
  for (int trial = 0; trial < 50; ++trial) {
    const Bytes cw = codec.Encode(RandomPayload(&rng, k)).TakeValue();
    const int rho = static_cast<int>(
        rng.Below(static_cast<uint64_t>(codec.parity()) + 1));
    std::set<int> picked;
    while (static_cast<int>(picked.size()) < rho) {
      picked.insert(static_cast<int>(rng.Below(static_cast<uint64_t>(n))));
    }
    std::vector<int> missing(picked.begin(), picked.end());
    for (size_t i = missing.size(); i > 1; --i) {  // any order works
      std::swap(missing[i - 1], missing[rng.Below(i)]);
    }
    auto w = codec.ErasureWeights(missing);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ASSERT_EQ(w.value().size(), missing.size());
    for (size_t m = 0; m < missing.size(); ++m) {
      for (int pos : missing) {
        EXPECT_EQ(w.value()[m][static_cast<size_t>(pos)], 0);
      }
      EXPECT_EQ(Apply(w.value()[m], cw), cw[static_cast<size_t>(missing[m])])
          << "RS(" << n << "," << k << ") trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codes, RsErasureWeights,
    ::testing::Values(std::make_tuple(20, 17), std::make_tuple(7, 5),
                      std::make_tuple(12, 4), std::make_tuple(5, 3),
                      std::make_tuple(255, 223)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& i) {
      return "rs" + std::to_string(std::get<0>(i.param)) + "_" +
             std::to_string(std::get<1>(i.param));
    });

TEST(RsErasureWeightsTest, RejectsBadPositionLists) {
  Codec codec(20, 17);
  EXPECT_TRUE(codec.ErasureWeights({}).ok());
  EXPECT_EQ(codec.ErasureWeights({0, 1, 2, 3}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(codec.ErasureWeights({4, 4}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(codec.ErasureWeights({20}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(codec.ErasureWeights({-1}).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rs
}  // namespace ule
