// Differential tests for the nested-emulation fast paths. The archived
// cold interpreter (boot-from-ports, fetch/decode every guest
// instruction) is the semantic reference; the cached-translation warm
// path and the fused dispatch core underneath it are engine
// accelerations that must be byte-identical on every program — including
// self-modifying ones, jumps into immediate words, illegal opcodes and
// step-limit faults.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>

#include "dynarisc/assembler.h"
#include "dynarisc/isa.h"
#include "dynarisc/machine.h"
#include "olonys/dynarisc_in_verisc.h"
#include "olonys/translation_cache.h"
#include "support/random.h"
#include "verisc/implementations.h"

namespace ule {
namespace olonys {
namespace {

dynarisc::Program Asm(const std::string& src) {
  auto r = dynarisc::Assemble(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.TakeValue() : dynarisc::Program{};
}

// Hand-encoded programs for cases the assembler cannot express (jumps
// into immediate words, instruction words built to be overwritten).
uint16_t Enc(uint8_t op, uint8_t rd, uint8_t rs, uint8_t mode) {
  return static_cast<uint16_t>((op << 11) | (rd << 8) | (rs << 5) | mode);
}

dynarisc::Program FromWords(std::initializer_list<uint16_t> words,
                            uint16_t entry = 0) {
  dynarisc::Program p;
  p.entry = entry;
  for (uint16_t w : words) {
    p.image.push_back(static_cast<uint8_t>(w & 0xFF));
    p.image.push_back(static_cast<uint8_t>(w >> 8));
  }
  return p;
}

// Runs one program through the cold archival path and through the warm
// translated path twice (cache miss, then cache hit), requiring
// byte-identical output everywhere and the expected cache behaviour.
// Returns the agreed output.
Bytes ExpectPathsAgree(const dynarisc::Program& p, BytesView input) {
  TranslationCache::Global().Clear();
  auto cold = RunNested(p, input, {}, &verisc::Run, NestedMode::kCold);
  EXPECT_TRUE(cold.ok()) << cold.status().ToString();
  if (!cold.ok()) return {};

  NestedRunStats miss, hit;
  auto warm1 =
      RunNested(p, input, {}, &verisc::Run, NestedMode::kTranslated, &miss);
  EXPECT_TRUE(warm1.ok()) << warm1.status().ToString();
  auto warm2 =
      RunNested(p, input, {}, &verisc::Run, NestedMode::kTranslated, &hit);
  EXPECT_TRUE(warm2.ok()) << warm2.status().ToString();
  if (!warm1.ok() || !warm2.ok()) return {};

  EXPECT_TRUE(miss.translated);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.translated);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(warm1.value(), cold.value());
  EXPECT_EQ(warm2.value(), cold.value());
  return cold.TakeValue();
}

// Same, also pinned against the native DynaRisc emulator.
void ExpectPathsMatchNative(const dynarisc::Program& p, BytesView input) {
  auto native = dynarisc::RunProgram(p, input);
  ASSERT_TRUE(native.ok()) << native.status().ToString();
  EXPECT_EQ(ExpectPathsAgree(p, input), native.value());
}

// The guest overwrites an upcoming instruction word with SYS #2 via
// STM.W and then falls through into it: the predecoded handler table
// must be invalidated by the store, or the warm path would still run
// the stale LDI and emit a byte the other paths never produce.
TEST(NestedDiffTest, SelfModifyingStoreInvalidatesTranslation) {
  using namespace dynarisc;
  const uint16_t halt_word = Enc(kSys, 0, 0, kSysHalt);
  auto patched = FromWords({
      Enc(kLdi, 0, 0, 0), halt_word,     // R0 = encoded SYS #2 (bytes 0-3)
      Enc(kLdi, 1, 0, 0), 12,            // R1 = target address  (bytes 4-7)
      Enc(kMove, 0, 1, kMoveDstD),       // D0 = R1              (bytes 8-9)
      Enc(kStm, 0, 0, kModeWord),        // mem[12..13] = R0     (bytes 10-11)
      Enc(kLdi, 0, 0, 0), 0x41,          // target: overwritten  (bytes 12-15)
      Enc(kSys, 0, 0, kSysWriteByte),    // never reached once patched
      Enc(kSys, 0, 0, kSysHalt),
  });
  ExpectPathsMatchNative(patched, {});
  EXPECT_TRUE(ExpectPathsAgree(patched, {}).empty());

  // Control: the identical program with the store turned into a no-op
  // ALU instruction reaches the LDI and emits 0x41 — proving the
  // self-modifying variant actually exercised the patch.
  auto control = patched;
  const uint16_t nop = Enc(kAdd, 2, 2, 0);
  control.image[10] = static_cast<uint8_t>(nop & 0xFF);
  control.image[11] = static_cast<uint8_t>(nop >> 8);
  ExpectPathsMatchNative(control, {});
  EXPECT_EQ(ExpectPathsAgree(control, {}), Bytes({0x41}));
}

// DynaRisc allows jumping into the middle of an instruction: the
// immediate word of the LDI doubles as a SYS #2 when entered at its own
// address. Translation predecodes *every* guest address as a potential
// instruction start, so all paths must halt without output.
TEST(NestedDiffTest, JumpIntoImmediateWord) {
  using namespace dynarisc;
  auto p = FromWords({
      Enc(kJump, 0, 0, 0), 6,                      // jump to byte 6
      Enc(kLdi, 1, 0, 0), Enc(kSys, 0, 0, kSysHalt),  // imm bytes 6-7
      Enc(kLdi, 0, 0, 0), 0x05,                    // unreachable
      Enc(kSys, 0, 0, kSysWriteByte),
      Enc(kSys, 0, 0, kSysHalt),
  });
  ExpectPathsMatchNative(p, {});
  EXPECT_TRUE(ExpectPathsAgree(p, {}).empty());
}

// The archived interpreter defines illegal opcodes as halt; the warm
// path must agree (the native emulator faults instead, so it is not
// compared here).
TEST(NestedDiffTest, IllegalOpcodeHaltsOnEveryPath) {
  dynarisc::Program p;
  p.image = {0xFF, 0xFF};
  p.entry = 0;
  EXPECT_TRUE(ExpectPathsAgree(p, {}).empty());
}

// A guest that never halts must exhaust the step budget with the same
// status code on the cold and translated paths (the translated path
// retires fewer VeRisc instructions, but the failure mode is identical).
TEST(NestedDiffTest, StepLimitFaultsIdentically) {
  auto p = Asm("loop: JUMP loop");
  verisc::RunOptions opts;
  opts.max_steps = 300'000'000;  // past cold boot, nowhere near a halt
  auto cold = RunNested(p, {}, opts, &verisc::Run, NestedMode::kCold);
  auto warm = RunNested(p, {}, opts, &verisc::Run, NestedMode::kTranslated);
  ASSERT_FALSE(cold.ok());
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(cold.status().code(), warm.status().code());
}

// The translated path is an engine acceleration of the reference VeRisc
// machine only; demanding it on a portability implementation is an error.
TEST(NestedDiffTest, TranslatedModeRequiresReferenceEngine) {
  auto p = Asm("SYS #2");
  for (const auto& impl : verisc::AllImplementations()) {
    if (impl.run == &verisc::Run) continue;
    auto r = RunNested(p, {}, {}, impl.run, NestedMode::kTranslated);
    EXPECT_FALSE(r.ok()) << impl.name;
  }
}

// Shared-cache bookkeeping: misses insert, hits splice, capacity evicts,
// and eviction never affects correctness.
TEST(NestedDiffTest, TranslationCacheStatsAndEviction) {
  auto& cache = TranslationCache::Global();
  cache.Clear();
  auto a = Asm("LDI R0,#1\nSYS #1\nSYS #2");
  auto b = Asm("LDI R0,#2\nSYS #1\nSYS #2");

  NestedRunStats s;
  ASSERT_TRUE(RunNested(a, {}, {}, &verisc::Run, NestedMode::kTranslated, &s)
                  .ok());
  EXPECT_FALSE(s.cache_hit);
  ASSERT_TRUE(RunNested(a, {}, {}, &verisc::Run, NestedMode::kTranslated, &s)
                  .ok());
  EXPECT_TRUE(s.cache_hit);
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // Capacity 1: alternating programs evict each other every run.
  cache.set_capacity(1);
  for (int round = 0; round < 3; ++round) {
    auto ra = RunNested(a, {}, {}, &verisc::Run, NestedMode::kTranslated, &s);
    ASSERT_TRUE(ra.ok());
    EXPECT_EQ(ra.value(), Bytes({1}));
    auto rb = RunNested(b, {}, {}, &verisc::Run, NestedMode::kTranslated, &s);
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(rb.value(), Bytes({2}));
  }
  stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.evictions, 5u);
  cache.set_capacity(8);
  cache.Clear();
}

// Randomized straight-line programs over the ALU, shifts, moves and
// pointer memory ops, checked against the native emulator on all paths.
// Pointers are confined to a scratch window far above the code so the
// deterministic self-modification test above stays the only writer of
// instruction bytes.
class NestedDiffFuzz : public ::testing::TestWithParam<int> {};

TEST_P(NestedDiffFuzz, RandomProgramsAgreeOnEveryPath) {
  Rng rng(0xD1FF0000u + static_cast<uint32_t>(GetParam()));
  std::string src;
  src += "LDI R5,#0x8000\nMOVE D3,R5\n";
  src += "LDI R6,#0x4000\nMOVE D0,R6\n";  // scratch pointer
  const int n = 12 + static_cast<int>(rng.Below(28));
  for (int i = 0; i < n; ++i) {
    const char* kAlu[] = {"ADD", "ADC", "SUB", "SBB", "CMP",
                          "MUL", "AND", "OR",  "XOR"};
    const char* kShift[] = {"LSL", "LSR", "ASR", "ROR"};
    char buf[64];
    const int rd = static_cast<int>(rng.Below(5));
    const int rs = static_cast<int>(rng.Below(5));
    switch (rng.Below(6)) {
      case 0:
        std::snprintf(buf, sizeof buf, "LDI R%d,#%u\n", rd,
                      static_cast<unsigned>(rng.Below(0x10000)));
        break;
      case 1:
        std::snprintf(buf, sizeof buf, "%s R%d,R%d\n",
                      kAlu[rng.Below(9)], rd, rs);
        break;
      case 2:
        std::snprintf(buf, sizeof buf, "%s R%d,#%u\n",
                      kShift[rng.Below(4)], rd,
                      static_cast<unsigned>(rng.Below(16)));
        break;
      case 3:
        std::snprintf(buf, sizeof buf, "MOVE R%d,R%d\n", rd, rs);
        break;
      case 4:
        std::snprintf(buf, sizeof buf, "STM.%c R%d,[D0+]\n",
                      rng.Below(2) ? 'W' : 'B', rd);
        break;
      default:
        std::snprintf(buf, sizeof buf, "LDM.%c R%d,[D0]\n",
                      rng.Below(2) ? 'W' : 'B', rd);
        break;
    }
    src += buf;
  }
  // Dump the registers so every computed bit reaches the output.
  for (int r = 0; r < 5; ++r) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "MOVE R0,R%d\nSYS #1\n", r);
    src += buf;
  }
  src += "SYS #2\n";

  Bytes input;
  const size_t input_len = 4 + rng.Below(12);
  for (size_t i = 0; i < input_len; ++i) {
    input.push_back(static_cast<uint8_t>(rng.Below(256)));
  }
  ExpectPathsMatchNative(Asm(src), input);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NestedDiffFuzz, ::testing::Range(0, 10));

}  // namespace
}  // namespace olonys
}  // namespace ule
