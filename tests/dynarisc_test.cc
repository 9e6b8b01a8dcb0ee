// Tests for the DynaRisc ISA (Table 1 of the paper + our completion),
// the native emulator and the assembler.
//
// Per-instruction semantics are exercised through small assembled programs
// and direct state inspection — these suites are the normative record of
// what every DynaRisc implementation (native C++ and VeRisc-hosted) must do.

#include <gtest/gtest.h>

#include <string>

#include "dynarisc/assembler.h"
#include "dynarisc/isa.h"
#include "dynarisc/machine.h"

namespace ule {
namespace dynarisc {
namespace {

// Assembles or dies; test-local convenience.
Program Asm(const std::string& src) {
  auto r = Assemble(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.TakeValue() : Program{};
}

// Runs a fragment that ends with SYS #2 and returns the machine for
// state inspection.
Machine RunToHalt(const std::string& src, BytesView input = {}) {
  Machine m(Asm(src), input);
  RunResult r = m.Run();
  EXPECT_EQ(r.reason, StopReason::kHalted) << "program did not halt cleanly";
  return m;
}

// ---------------- encoding ----------------

TEST(IsaTest, EncodingRoundTrip) {
  const uint16_t w = Encode(kLdm, 5, 3, kModeWord | kModePostInc);
  EXPECT_EQ(DecodeOp(w), kLdm);
  EXPECT_EQ(DecodeRd(w), 5);
  EXPECT_EQ(DecodeRs(w), 3);
  EXPECT_EQ(DecodeMode(w), kModeWord | kModePostInc);
}

TEST(IsaTest, TwentyThreeOpcodes) {
  EXPECT_EQ(kOpcodeCount, 23);
  EXPECT_EQ(kSys, 22);
  // Every opcode has a distinct name.
  std::set<std::string> names;
  for (int i = 0; i < kOpcodeCount; ++i) names.insert(OpcodeName(i));
  EXPECT_EQ(names.size(), 23u);
  EXPECT_STREQ(OpcodeName(23), "???");
}

TEST(IsaTest, ImmediateInstructionsIdentified) {
  EXPECT_TRUE(HasImmediate(kLdi));
  EXPECT_TRUE(HasImmediate(kJump));
  EXPECT_TRUE(HasImmediate(kJz));
  EXPECT_TRUE(HasImmediate(kJc));
  EXPECT_TRUE(HasImmediate(kCall));
  EXPECT_FALSE(HasImmediate(kRet));
  EXPECT_FALSE(HasImmediate(kAdd));
  EXPECT_FALSE(HasImmediate(kSys));
}

// ---------------- arithmetic ----------------

TEST(MachineTest, AddBasic) {
  Machine m = RunToHalt("LDI R0,#5\nLDI R1,#7\nADD R0,R1\nSYS #2");
  EXPECT_EQ(m.state().r[0], 12);
  EXPECT_FALSE(m.state().c);
  EXPECT_FALSE(m.state().z);
}

TEST(MachineTest, AddCarryAndZero) {
  Machine m = RunToHalt("LDI R0,#0xFFFF\nLDI R1,#1\nADD R0,R1\nSYS #2");
  EXPECT_EQ(m.state().r[0], 0);
  EXPECT_TRUE(m.state().c);
  EXPECT_TRUE(m.state().z);
}

TEST(MachineTest, AdcPropagatesCarry) {
  // 0xFFFF + 1 sets C; then 10 + 20 + C = 31.
  Machine m = RunToHalt(
      "LDI R0,#0xFFFF\nLDI R1,#1\nADD R0,R1\n"
      "LDI R2,#10\nLDI R3,#20\nADC R2,R3\nSYS #2");
  EXPECT_EQ(m.state().r[2], 31);
  EXPECT_FALSE(m.state().c);
}

TEST(MachineTest, SubBorrow) {
  Machine m = RunToHalt("LDI R0,#3\nLDI R1,#5\nSUB R0,R1\nSYS #2");
  EXPECT_EQ(m.state().r[0], 0xFFFE);  // 3 - 5 mod 2^16
  EXPECT_TRUE(m.state().c);
  EXPECT_FALSE(m.state().z);
}

TEST(MachineTest, SbbUsesBorrow) {
  // 3-5 sets borrow; then 10 - 2 - borrow = 7.
  Machine m = RunToHalt(
      "LDI R0,#3\nLDI R1,#5\nSUB R0,R1\n"
      "LDI R2,#10\nLDI R3,#2\nSBB R2,R3\nSYS #2");
  EXPECT_EQ(m.state().r[2], 7);
  EXPECT_FALSE(m.state().c);
}

TEST(MachineTest, CmpSetsFlagsWithoutWriteback) {
  Machine m = RunToHalt("LDI R0,#9\nLDI R1,#9\nCMP R0,R1\nSYS #2");
  EXPECT_EQ(m.state().r[0], 9);
  EXPECT_TRUE(m.state().z);
  EXPECT_FALSE(m.state().c);
}

TEST(MachineTest, MulProducesHi) {
  Machine m = RunToHalt("LDI R0,#0x1234\nLDI R1,#0x5678\nMUL R0,R1\nSYS #2");
  const uint32_t p = 0x1234u * 0x5678u;
  EXPECT_EQ(m.state().r[0], static_cast<uint16_t>(p));
  EXPECT_EQ(m.state().hi, static_cast<uint16_t>(p >> 16));
  EXPECT_TRUE(m.state().c);  // HI != 0
}

TEST(MachineTest, MulSmallClearsCarry) {
  Machine m = RunToHalt("LDI R0,#100\nLDI R1,#200\nMUL R0,R1\nSYS #2");
  EXPECT_EQ(m.state().r[0], 20000);
  EXPECT_EQ(m.state().hi, 0);
  EXPECT_FALSE(m.state().c);
}

TEST(MachineTest, MoveHiReadsMulHigh) {
  Machine m = RunToHalt(
      "LDI R0,#0x8000\nLDI R1,#4\nMUL R0,R1\nMOVE R5,HI\nSYS #2");
  EXPECT_EQ(m.state().r[5], 2);  // 0x8000*4 = 0x20000
}

// ---------------- logical & shifts ----------------

TEST(MachineTest, AndOrXor) {
  Machine m = RunToHalt(
      "LDI R0,#0xF0F0\nLDI R1,#0x0FF0\n"
      "MOVE R2,R0\nAND R2,R1\n"
      "MOVE R3,R0\nOR  R3,R1\n"
      "MOVE R4,R0\nXOR R4,R1\nSYS #2");
  EXPECT_EQ(m.state().r[2], 0x00F0);
  EXPECT_EQ(m.state().r[3], 0xFFF0);
  EXPECT_EQ(m.state().r[4], 0xFF00);
}

TEST(MachineTest, LogicalZeroSetsZ) {
  Machine m = RunToHalt("LDI R0,#0x00FF\nLDI R1,#0xFF00\nAND R0,R1\nSYS #2");
  EXPECT_TRUE(m.state().z);
}

TEST(MachineTest, ShiftImmediateForms) {
  Machine m = RunToHalt(
      "LDI R0,#1\nLSL R0,#15\n"      // 0x8000
      "LDI R1,#0x8000\nLSR R1,#15\n"  // 1
      "SYS #2");
  EXPECT_EQ(m.state().r[0], 0x8000);
  EXPECT_EQ(m.state().r[1], 1);
}

TEST(MachineTest, ShiftByRegister) {
  Machine m = RunToHalt("LDI R0,#3\nLDI R1,#4\nLSL R0,R1\nSYS #2");
  EXPECT_EQ(m.state().r[0], 48);
}

TEST(MachineTest, LslCarryIsLastBitOut) {
  Machine m = RunToHalt("LDI R0,#0x4001\nLSL R0,#2\nSYS #2");
  // bits out: 0 (bit15) then 1 (the 0x4000 bit) -> C = 1
  EXPECT_EQ(m.state().r[0], 0x0004);
  EXPECT_TRUE(m.state().c);
}

TEST(MachineTest, AsrKeepsSign) {
  Machine m = RunToHalt("LDI R0,#0x8004\nASR R0,#2\nSYS #2");
  EXPECT_EQ(m.state().r[0], 0xE001);
}

TEST(MachineTest, RorRotates) {
  Machine m = RunToHalt("LDI R0,#0x0001\nROR R0,#1\nSYS #2");
  EXPECT_EQ(m.state().r[0], 0x8000);
  EXPECT_TRUE(m.state().c);
}

TEST(MachineTest, ShiftByZeroLeavesCarry) {
  Machine m = RunToHalt(
      "LDI R0,#1\nLDI R1,#1\nADD R0,R0\n"  // clears C (1+1=2 no carry)
      "LDI R2,#0xFFFF\nLDI R3,#1\nADD R2,R3\n"  // sets C
      "LDI R4,#0\nLSR R0,R4\nSYS #2");  // shift by R4=0
  EXPECT_TRUE(m.state().c);  // unchanged by the zero-length shift
}

// ---------------- moves & memory ----------------

TEST(MachineTest, MoveBetweenSpaces) {
  Machine m = RunToHalt(
      "LDI R0,#0x1234\nMOVE D1,R0\nMOVE R2,D1\nMOVE D2,D1\nMOVE R3,D2\n"
      "SYS #2");
  EXPECT_EQ(m.state().d[1], 0x1234);
  EXPECT_EQ(m.state().r[2], 0x1234);
  EXPECT_EQ(m.state().r[3], 0x1234);
}

TEST(MachineTest, LdmStmByteAndWord) {
  Machine m = RunToHalt(
      "LDI R0,#0xABCD\nLDI R1,#0x200\nMOVE D0,R1\n"
      "STM.W R0,[D0]\n"
      "LDM.B R2,[D0]\n"     // low byte: 0xCD
      "LDM.W R3,[D0]\n"
      "SYS #2");
  EXPECT_EQ(m.state().r[2], 0xCD);
  EXPECT_EQ(m.state().r[3], 0xABCD);
  EXPECT_EQ(m.ReadByte(0x200), 0xCD);
  EXPECT_EQ(m.ReadByte(0x201), 0xAB);  // little-endian
}

TEST(MachineTest, PostIncrementAdvancesPointer) {
  Machine m = RunToHalt(
      "LDI R1,#0x300\nMOVE D0,R1\n"
      "LDI R0,#1\nSTM.B R0,[D0+]\n"
      "LDI R0,#2\nSTM.B R0,[D0+]\n"
      "LDI R0,#0x0403\nSTM.W R0,[D0+]\n"
      "MOVE R5,D0\nSYS #2");
  EXPECT_EQ(m.state().r[5], 0x304);
  EXPECT_EQ(m.ReadByte(0x300), 1);
  EXPECT_EQ(m.ReadByte(0x301), 2);
  EXPECT_EQ(m.ReadByte(0x302), 3);
  EXPECT_EQ(m.ReadByte(0x303), 4);
}

TEST(MachineTest, LdmWordSetsZ) {
  Machine m = RunToHalt(
      "LDI R1,#0x400\nMOVE D0,R1\nLDM.W R0,[D0]\nSYS #2");
  EXPECT_TRUE(m.state().z);  // memory is zero-initialised
}

// ---------------- control flow ----------------

TEST(MachineTest, JumpSkips) {
  Machine m = RunToHalt(
      "LDI R0,#1\nJUMP over\nLDI R0,#2\nover: SYS #2");
  EXPECT_EQ(m.state().r[0], 1);
}

TEST(MachineTest, JzTakenAndNotTaken) {
  Machine m = RunToHalt(
      "LDI R0,#0\nLDI R1,#0\nCMP R0,R1\nJZ good\nLDI R2,#9\n"
      "good: LDI R3,#1\nCMP R3,R0\nJZ bad\nLDI R4,#7\nJUMP end\n"
      "bad: LDI R4,#9\nend: SYS #2");
  EXPECT_EQ(m.state().r[2], 0);
  EXPECT_EQ(m.state().r[4], 7);
}

TEST(MachineTest, JncPseudoInstruction) {
  // CMP 7,3 leaves C clear -> JNC taken; CMP 3,7 sets C -> JNC falls through.
  Machine m = RunToHalt(
      "LDI R0,#7\nLDI R1,#3\nCMP R0,R1\nJNC a\nLDI R2,#9\n"
      "a: CMP R1,R0\nJNC b\nLDI R3,#4\nJUMP end\n"
      "b: LDI R3,#9\nend: SYS #2");
  EXPECT_EQ(m.state().r[2], 0);
  EXPECT_EQ(m.state().r[3], 4);
}

TEST(MachineTest, CountdownLoop) {
  Machine m = RunToHalt(
      "LDI R0,#5\nLDI R1,#1\nLDI R2,#0\n"
      "loop: ADD R2,R1\nSUB R0,R1\nJNZ loop\nSYS #2");
  EXPECT_EQ(m.state().r[2], 5);
  EXPECT_EQ(m.state().r[0], 0);
}

TEST(MachineTest, CallRetUsesD3Stack) {
  Machine m = RunToHalt(
      ".entry main\n"
      "fn: LDI R1,#42\nRET\n"
      "main: LDI R0,#0x8000\nMOVE D3,R0\nCALL fn\nLDI R2,#1\nSYS #2");
  EXPECT_EQ(m.state().r[1], 42);
  EXPECT_EQ(m.state().r[2], 1);
  EXPECT_EQ(m.state().d[3], 0x8000);  // balanced push/pop
}

TEST(MachineTest, NestedCalls) {
  Machine m = RunToHalt(
      ".entry main\n"
      "inner: LDI R1,#7\nRET\n"
      "outer: CALL inner\nLDI R2,#8\nRET\n"
      "main: LDI R0,#0x8000\nMOVE D3,R0\nCALL outer\nLDI R3,#9\nSYS #2");
  EXPECT_EQ(m.state().r[1], 7);
  EXPECT_EQ(m.state().r[2], 8);
  EXPECT_EQ(m.state().r[3], 9);
}

// ---------------- SYS I/O ----------------

TEST(MachineTest, SysEchoesInput) {
  const Bytes input = {10, 20, 30};
  Machine m(Asm("loop: SYS #0\nJC done\nSYS #1\nJUMP loop\ndone: SYS #2"),
            input);
  RunResult r = m.Run();
  EXPECT_EQ(r.reason, StopReason::kHalted);
  EXPECT_EQ(r.output, input);
}

TEST(MachineTest, SysEofSetsCarryLeavesR0) {
  const Bytes input = {9};  // Machine keeps a view: input must outlive it
  Machine m(Asm("LDI R0,#0x55\nSYS #0\nSYS #0\nSYS #2"), input);
  m.Run();
  EXPECT_EQ(m.state().r[0], 9);  // second read hit EOF, R0 unchanged
  EXPECT_TRUE(m.state().c);
}

TEST(MachineTest, UnknownSysPortFaults) {
  Machine m(Asm("SYS #9"), {});
  RunResult r = m.Run();
  EXPECT_EQ(r.reason, StopReason::kFault);
}

TEST(MachineTest, IllegalOpcodeFaults) {
  Program p;
  p.image = {0xFF, 0xFF};  // opcode 31
  Machine m(p, {});
  EXPECT_EQ(m.Run().reason, StopReason::kFault);
}

TEST(MachineTest, StepLimitReported) {
  Machine m(Asm("loop: JUMP loop"), {});
  RunOptions opts;
  opts.max_steps = 1000;
  EXPECT_EQ(m.Run(opts).reason, StopReason::kStepLimit);
}

TEST(MachineTest, RunProgramWrapsErrors) {
  auto out = RunProgram(Asm("SYS #2"), {});
  EXPECT_TRUE(out.ok());
  auto fault = RunProgram(Asm("SYS #9"), {});
  EXPECT_EQ(fault.status().code(), StatusCode::kExecutionFault);
}

// ---------------- program container ----------------

TEST(ProgramTest, SerializeRoundTrip) {
  Program p = Asm(".entry main\nmain: LDI R0,#1\nSYS #2");
  const Bytes blob = p.Serialize();
  auto back = Program::Deserialize(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().image, p.image);
  EXPECT_EQ(back.value().entry, p.entry);
}

TEST(ProgramTest, CorruptionDetected) {
  Program p = Asm("SYS #2");
  Bytes blob = p.Serialize();
  blob[6] ^= 1;
  EXPECT_FALSE(Program::Deserialize(blob).ok());
  Bytes truncated(blob.begin(), blob.begin() + 5);
  EXPECT_FALSE(Program::Deserialize(truncated).ok());
}

// ---------------- assembler details ----------------

TEST(AssemblerTest, DirectivesAndExpressions) {
  Program p = Asm(
      ".equ BASE, 0x100\n"
      ".org BASE\n"
      "data: .word 1, 2, data\n"
      ".byte 'A', 'B'\n"
      ".ascii \"hi\"\n"
      ".space 3, 0xEE\n"
      ".word data+2\n");
  ASSERT_GE(p.image.size(), 0x100u + 6 + 2 + 2 + 3 + 2);
  EXPECT_EQ(p.image[0x100], 1);
  EXPECT_EQ(p.image[0x104], 0x00);  // label "data" = 0x100 little-endian
  EXPECT_EQ(p.image[0x105], 0x01);
  EXPECT_EQ(p.image[0x106], 'A');
  EXPECT_EQ(p.image[0x108], 'h');
  EXPECT_EQ(p.image[0x10A], 0xEE);
  EXPECT_EQ(p.image[0x10D], 0x02);  // data+2 low byte
}

TEST(AssemblerTest, ErrorsCarryLineNumbers) {
  auto r = Assemble("LDI R0,#1\nBOGUS R1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(AssemblerTest, RejectsUndefinedSymbol) {
  EXPECT_FALSE(Assemble("JUMP nowhere\n").ok());
}

TEST(AssemblerTest, RejectsDuplicateLabel) {
  EXPECT_FALSE(Assemble("a: SYS #2\na: SYS #2\n").ok());
}

TEST(AssemblerTest, RejectsMissingSizeSuffix) {
  EXPECT_FALSE(Assemble("LDM R0,[D0]\n").ok());
}

TEST(AssemblerTest, RejectsBadShiftAmount) {
  EXPECT_FALSE(Assemble("LSL R0,#16\n").ok());
}

TEST(AssemblerTest, CommentsAndBlankLines) {
  Program p = Asm("; nothing\n\n   ; indented comment\nSYS #2 ; trailing\n");
  EXPECT_EQ(p.image.size(), 2u);
}

}  // namespace
}  // namespace dynarisc
}  // namespace ule
