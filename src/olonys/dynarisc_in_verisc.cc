#include "olonys/dynarisc_in_verisc.h"

#include <cassert>

#include "dynarisc/isa.h"
#include "olonys/translation_cache.h"
#include "verisc/builder.h"
#include "verisc/machine.h"

namespace ule {
namespace olonys {
namespace {

using verisc::Builder;
using Cell = Builder::Cell;
using Label = Builder::Label;
using Fn = Builder::Fn;

/// Generates the interpreter. Structured as one long emitter; every guest
/// architectural element is an interpreter cell, every opcode a handler.
///
/// With `warm_out` set, generates the warm-start variant instead: no table
/// fill and no input-protocol startup (the host pokes the static tables,
/// the guest image and the entry point directly), and the cold main loop's
/// fetch + table decode is replaced by one dispatch through the
/// per-address predecode tables, with per-opcode prologues reading the
/// instruction's predecoded rd/rs/mode fields. STM and CALL redirect the
/// handler-table entries covering every byte they overwrite to a redecode
/// routine, which keeps predecode coherent under guest self-modification.
/// Guest-visible semantics are identical by construction: both variants
/// share every handler body, and immediates are always fetched live from
/// guest memory.
verisc::Program BuildInterpreter(WarmInterpreter* warm_out) {
  const bool warm = warm_out != nullptr;
  Builder b;

  // ---- guest architectural state ----
  const Cell gr = b.NewArray(8);    // R0..R7
  const Cell gd = b.NewArray(4);    // D0..D3
  const Cell ghi = b.NewCell();
  const Cell gz = b.NewCell();      // 0/1
  const Cell gc = b.NewCell();      // 0/1
  const Cell gpc = b.NewCell();

  // ---- interpreter scratch ----
  const Cell fetched = b.NewCell();  // last fetched 16-bit word
  const Cell fhi = b.NewCell();
  const Cell opc = b.NewCell();
  const Cell rdc = b.NewCell();
  const Cell rsc = b.NewCell();
  const Cell modec = b.NewCell();
  const Cell va = b.NewCell();      // first ALU operand (R[rd])
  const Cell vb = b.NewCell();      // second ALU operand (R[rs])
  const Cell val = b.NewCell();     // result in flight / SET_Z input
  const Cell val32 = b.NewCell();   // wide intermediate
  const Cell ptr = b.NewCell();
  const Cell ptr2 = b.NewCell();
  const Cell idx = b.NewCell();
  const Cell amt = b.NewCell();
  const Cell sbit = b.NewCell();
  const Cell mul_i = b.NewCell();
  const Cell plo = b.NewCell();
  const Cell phi = b.NewCell();
  const Cell mlo = b.NewCell();
  const Cell mhi = b.NewCell();
  const Cell nn = b.NewCell();
  const Cell h0 = b.NewCell();
  const Cell h1 = b.NewCell();
  const Cell h2 = b.NewCell();
  const Cell loadlen = b.NewCell();

  // ---- generic table-fill routine ----
  // for (k = 0, v = 0, dst = f_dst; dst != f_end; ) {
  //   mem[dst++] = v; ++k;
  //   if ((k & f_pmask) == 0) v = (v + f_vstep) & f_vmask;
  // }
  const Cell f_dst = b.NewCell();
  const Cell f_end = b.NewCell();
  const Cell f_pmask = b.NewCell();
  const Cell f_vmask = b.NewCell();
  const Cell f_vstep = b.NewCell();
  const Cell f_v = b.NewCell();
  const Cell f_k = b.NewCell();
  Fn fill{};  // cold only: warm tables are host-poked, never filled
  if (!warm) fill = b.DeclareFn();

  // Warm-only plumbing: the redecode routine's address (for invalidation
  // stores) and an address scratch cell for the `ptr - 1` computation.
  Label redecode{};
  Cell redec_c{};
  Cell inv_a{};
  if (warm) {
    redecode = b.NewLabel();
    redec_c = b.NewLabelCell(redecode);
    inv_a = b.NewCell();
  }

  // ---- helper functions ----
  const Fn fetch = b.DeclareFn();   // fetched <- next guest word; GPC += 2
  const Fn setz = b.DeclareFn();    // gz <- (val == 0)
  const Fn load_ab = b.DeclareFn(); // va <- GR[rd], vb <- GR[rs]
  const Fn store_rd = b.DeclareFn();// GR[rd] <- val; gz <- (val == 0)

  // Jump past the function bodies to the start-up code.
  const Label start = b.NewLabel();
  b.Jmp(start);

  // ---------------------------------------------------------------- fill
  if (!warm) {
    b.BeginFn(fill);
    b.LdImm(0);
    b.St(f_v);
    b.St(f_k);
    const Label loop = b.NewLabel();
    b.Bind(loop);
    b.Ld(f_v);
    b.StIndexedAbs(0, f_dst);  // mem[f_dst] <- v
    b.Ld(f_dst);
    b.AddImm(1);
    b.St(f_dst);
    b.Ld(f_k);
    b.AddImm(1);
    b.St(f_k);
    b.And(f_pmask);
    const Label no_step = b.NewLabel();
    b.Jnz(no_step);
    b.Ld(f_v);
    b.AddCell(f_vstep);
    b.And(f_vmask);
    b.St(f_v);
    b.Bind(no_step);
    b.Ld(f_dst);
    b.SubCell(f_end);
    b.Jnz(loop);
    b.Ret(fill);
  }

  // Warm handler prologue: read the instruction's predecoded fields, then
  // step GPC past the instruction word (the cold main loop does both via
  // fetch + table decode before dispatching).
  auto warm_prologue = [&](bool rd, bool rs, bool mode) {
    if (!warm) return;
    if (rd) {
      b.LdIndexedAbs(kRdIdxBase, gpc);
      b.St(rdc);
    }
    if (rs) {
      b.LdIndexedAbs(kRsIdxBase, gpc);
      b.St(rsc);
    }
    if (mode) {
      b.LdIndexedAbs(kModeIdxBase, gpc);
      b.St(modec);
    }
    b.Ld(gpc);
    b.AddImm(2);
    b.AndImm(0xFFFF);
    b.St(gpc);
  };

  // Warm: the guest just overwrote the byte at guest address mem[addr];
  // any instruction covering that byte must be redecoded before it runs
  // again, so point its handler entry at the redecode routine. (Stale
  // rd/rs/mode entries are harmless: execution always routes through the
  // handler table, and redecode refreshes all four.)
  auto warm_invalidate = [&](Cell addr) {
    if (!warm) return;
    b.Ld(redec_c);
    b.StIndexedAbs(kHandlerBase, addr);
  };

  // --------------------------------------------------------------- fetch
  b.BeginFn(fetch);
  {
    b.LdIndexedAbs(kGuestBase, gpc);
    b.St(fetched);
    b.Ld(gpc);
    b.AddImm(1);
    b.AndImm(0xFFFF);
    b.St(gpc);
    b.LdIndexedAbs(kGuestBase, gpc);
    b.St(fhi);
    b.Ld(gpc);
    b.AddImm(1);
    b.AndImm(0xFFFF);
    b.St(gpc);
    b.LdIndexedAbs(kShl8Base, fhi);
    b.AddCell(fetched);
    b.St(fetched);
    b.Ret(fetch);
  }

  // ---------------------------------------------------------------- setz
  b.BeginFn(setz);
  {
    const Label is_zero = b.NewLabel();
    b.Ld(val);
    b.Jz(is_zero);
    b.LdImm(0);
    b.St(gz);
    b.Ret(setz);
    b.Bind(is_zero);
    b.LdImm(1);
    b.St(gz);
    b.Ret(setz);
  }

  // ------------------------------------------------------------- load_ab
  b.BeginFn(load_ab);
  {
    b.LdIndexed(gr, rdc);
    b.St(va);
    b.LdIndexed(gr, rsc);
    b.St(vb);
    b.Ret(load_ab);
  }

  // ------------------------------------------------------------ store_rd
  b.BeginFn(store_rd);
  {
    b.Ld(val);
    b.StIndexed(gr, rdc);
    b.Call(setz);
    b.Ret(store_rd);
  }

  // Emits: gc <- (val32 has bit 16 set) ? 1 : 0.
  auto emit_carry_from_bit16 = [&]() {
    const Label no_carry = b.NewLabel();
    const Label done = b.NewLabel();
    b.Ld(val32);
    b.AndImm(0x10000);
    b.Jz(no_carry);
    b.LdImm(1);
    b.St(gc);
    b.Jmp(done);
    b.Bind(no_carry);
    b.LdImm(0);
    b.St(gc);
    b.Bind(done);
  };

  // Emits: gc <- borrow currently in the VeRisc borrow flag.
  auto emit_carry_from_borrow = [&]() {
    b.LdMapped(2);  // mask: all-ones iff borrow
    b.AndImm(1);
    b.St(gc);
  };

  // ------------------------------------------------------------ dispatch
  const Label mainloop = b.NewLabel();
  const Label halt_handler = b.NewLabel();
  std::vector<Label> handlers(32);
  for (int i = 0; i < 32; ++i) {
    handlers[i] =
        (i < dynarisc::kOpcodeCount) ? b.NewLabel() : halt_handler;
  }
  // Illegal opcodes (23..31) share the halt handler label; create it once.
  // (halt_handler is bound below.)
  const Cell jt = b.NewJumpTable(handlers);

  // ------------------------------------------------------------- startup
  b.Bind(start);
  if (warm) {
    // The host has already poked the static tables, the guest image, the
    // predecode tables and the entry point; the input port carries only
    // the guest's own stream. Nothing to set up.
    b.Jmp(mainloop);
  } else {
    // Fill LSR1: period 2 (pmask 1), step 1, no wrap.
    auto call_fill = [&](uint32_t dst, uint32_t count, uint32_t pmask,
                         uint32_t vmask, uint32_t vstep) {
      b.LdImm(dst);
      b.St(f_dst);
      b.LdImm(dst + count);
      b.St(f_end);
      b.LdImm(pmask);
      b.St(f_pmask);
      b.LdImm(vmask);
      b.St(f_vmask);
      b.LdImm(vstep);
      b.St(f_vstep);
      b.Call(fill);
    };
    call_fill(kLsr1Base, 0x10000, 1, 0xFFFFFFFFu, 1);      // v >> 1
    call_fill(kOpBase, 0x10000, 2047, 0xFFFFFFFFu, 1);     // w >> 11
    call_fill(kRdBase, 0x10000, 255, 7, 1);                // (w >> 8) & 7
    call_fill(kRsBase, 0x10000, 31, 7, 1);                 // (w >> 5) & 7
    call_fill(kShl8Base, 256, 0, 0xFFFFFFFFu, 256);        // b << 8
    call_fill(kShr8Base, 0x10000, 255, 0xFFFFFFFFu, 1);    // v >> 8

    // Header: entry (2 bytes) + length (4 bytes, only 17 bits meaningful).
    b.InByte();
    b.St(h0);
    b.InByte();
    b.St(h1);
    b.LdIndexedAbs(kShl8Base, h1);
    b.AddCell(h0);
    b.St(gpc);

    b.InByte();
    b.St(h0);
    b.InByte();
    b.St(h1);
    b.InByte();
    b.St(h2);
    b.InByte();  // length byte 3: always zero, discarded
    b.LdIndexedAbs(kShl8Base, h1);
    b.AddCell(h0);
    b.St(loadlen);
    const Label len_small = b.NewLabel();
    b.Ld(h2);
    b.Jz(len_small);
    b.Ld(loadlen);
    b.AddImm(0x10000);
    b.St(loadlen);
    b.Bind(len_small);

    // Copy the image into guest memory.
    b.LdImm(0);
    b.St(idx);
    const Label copy_loop = b.NewLabel();
    const Label copy_done = b.NewLabel();
    b.Bind(copy_loop);
    b.Ld(idx);
    b.SubCell(loadlen);
    b.Jz(copy_done);
    b.InByte();
    b.StIndexedAbs(kGuestBase, idx);
    b.Ld(idx);
    b.AddImm(1);
    b.St(idx);
    b.Jmp(copy_loop);
    b.Bind(copy_done);
    b.Jmp(mainloop);
  }

  // ------------------------------------------------------------ mainloop
  b.Bind(mainloop);
  if (warm) {
    // PC <- handler[gpc]: one predecoded dispatch replaces the cold
    // loop's fetch call and three table lookups.
    b.LdIndexedAbs(kHandlerBase, gpc);
    b.StMapped(1);
  } else {
    b.Call(fetch);
    b.LdIndexedAbs(kOpBase, fetched);
    b.St(opc);
    b.LdIndexedAbs(kRdBase, fetched);
    b.St(rdc);
    b.LdIndexedAbs(kRsBase, fetched);
    b.St(rsc);
    b.Ld(fetched);
    b.AndImm(31);
    b.St(modec);
    // PC <- jump_table[op]
    b.LdIndexed(jt, opc);
    b.StMapped(1);
  }

  // ------------------------------------------------------------ ADD / ADC
  for (const bool with_carry : {false, true}) {
    b.Bind(handlers[with_carry ? dynarisc::kAdc : dynarisc::kAdd]);
    warm_prologue(true, true, false);
    b.Call(load_ab);
    b.Ld(va);
    b.AddCell(vb);
    if (with_carry) b.AddCell(gc);
    b.St(val32);
    emit_carry_from_bit16();
    b.Ld(val32);
    b.AndImm(0xFFFF);
    b.St(val);
    b.Call(store_rd);
    b.Jmp(mainloop);
  }

  // ------------------------------------------------------ SUB / SBB / CMP
  for (const uint8_t op : {dynarisc::kSub, dynarisc::kSbb, dynarisc::kCmp}) {
    b.Bind(handlers[op]);
    warm_prologue(true, true, false);
    b.Call(load_ab);
    if (op == dynarisc::kSbb) {
      b.Ld(vb);
      b.AddCell(gc);
      b.St(vb);
    }
    b.Ld(va);
    b.SubCell(vb);           // borrow flag = (va < vb)
    b.St(val32);
    emit_carry_from_borrow();
    b.Ld(val32);
    b.AndImm(0xFFFF);
    b.St(val);
    if (op == dynarisc::kCmp) {
      b.Call(setz);
    } else {
      b.Call(store_rd);
    }
    b.Jmp(mainloop);
  }

  // ----------------------------------------------------------------- MUL
  {
    b.Bind(handlers[dynarisc::kMul]);
    warm_prologue(true, true, false);
    b.Call(load_ab);
    b.LdImm(0);
    b.St(plo);
    b.St(phi);
    b.St(mhi);
    b.Ld(va);
    b.St(mlo);
    b.Ld(vb);
    b.St(nn);
    b.LdImm(16);
    b.St(mul_i);
    const Label loop = b.NewLabel();
    const Label no_add = b.NewLabel();
    const Label no_carry = b.NewLabel();
    const Label no_mcarry = b.NewLabel();
    b.Bind(loop);
    // if (n & 1) { plo += mlo; phi += mhi + carry(plo); }
    b.Ld(nn);
    b.AndImm(1);
    b.Jz(no_add);
    b.Ld(plo);
    b.AddCell(mlo);
    b.St(plo);
    b.Ld(phi);
    b.AddCell(mhi);
    b.St(phi);
    b.Ld(plo);
    b.AndImm(0x10000);
    b.Jz(no_carry);
    b.Ld(phi);
    b.AddImm(1);
    b.St(phi);
    b.Ld(plo);
    b.AndImm(0xFFFF);
    b.St(plo);
    b.Bind(no_carry);
    b.Ld(phi);
    b.AndImm(0xFFFF);
    b.St(phi);
    b.Bind(no_add);
    // m <<= 1 (mlo/mhi pair)
    b.Ld(mlo);
    b.AddCell(mlo);
    b.St(mlo);
    b.Ld(mhi);
    b.AddCell(mhi);
    b.St(mhi);
    b.Ld(mlo);
    b.AndImm(0x10000);
    b.Jz(no_mcarry);
    b.Ld(mhi);
    b.AddImm(1);
    b.St(mhi);
    b.Ld(mlo);
    b.AndImm(0xFFFF);
    b.St(mlo);
    b.Bind(no_mcarry);
    b.Ld(mhi);
    b.AndImm(0xFFFF);
    b.St(mhi);
    // n >>= 1
    b.LdIndexedAbs(kLsr1Base, nn);
    b.St(nn);
    // loop control
    b.Ld(mul_i);
    b.SubImm(1);
    b.St(mul_i);
    b.Jnz(loop);
    // writeback: Rd <- plo, HI <- phi, Z from plo, C = (phi != 0)
    b.Ld(phi);
    b.St(ghi);
    const Label hi_zero = b.NewLabel();
    const Label hi_done = b.NewLabel();
    b.Ld(phi);
    b.Jz(hi_zero);
    b.LdImm(1);
    b.St(gc);
    b.Jmp(hi_done);
    b.Bind(hi_zero);
    b.LdImm(0);
    b.St(gc);
    b.Bind(hi_done);
    b.Ld(plo);
    b.St(val);
    b.Call(store_rd);
    b.Jmp(mainloop);
  }

  // ------------------------------------------------------- AND / OR / XOR
  {
    b.Bind(handlers[dynarisc::kAnd]);
    warm_prologue(true, true, false);
    b.Call(load_ab);
    b.Ld(va);
    b.And(vb);
    b.St(val);
    b.Call(store_rd);
    b.Jmp(mainloop);

    // OR  = a + b - (a & b); XOR = a + b - 2*(a & b). Both fit in 32 bits.
    b.Bind(handlers[dynarisc::kOr]);
    warm_prologue(true, true, false);
    b.Call(load_ab);
    b.Ld(va);
    b.And(vb);
    b.St(val32);
    b.Ld(va);
    b.AddCell(vb);
    b.SubCell(val32);
    b.St(val);
    b.Call(store_rd);
    b.Jmp(mainloop);

    b.Bind(handlers[dynarisc::kXor]);
    warm_prologue(true, true, false);
    b.Call(load_ab);
    b.Ld(va);
    b.And(vb);
    b.St(val32);
    b.Ld(val32);
    b.AddCell(val32);
    b.St(val32);
    b.Ld(va);
    b.AddCell(vb);
    b.SubCell(val32);
    b.St(val);
    b.Call(store_rd);
    b.Jmp(mainloop);
  }

  // ---------------------------------------------------------------- shifts
  // Common amount computation, then one single-bit step loop per opcode.
  const Label shift_body[4] = {b.NewLabel(), b.NewLabel(), b.NewLabel(),
                               b.NewLabel()};
  {
    for (int s = 0; s < 4; ++s) {
      const uint8_t op = static_cast<uint8_t>(dynarisc::kLsl + s);
      b.Bind(handlers[op]);
      warm_prologue(true, true, true);
      // amount: mode bit0 ? rs | (mode bit1 ? 8 : 0) : R[rs] & 15
      const Label from_reg = b.NewLabel();
      const Label have_amt = b.NewLabel();
      const Label no_plus8 = b.NewLabel();
      b.Ld(modec);
      b.AndImm(1);
      b.Jz(from_reg);
      b.Ld(rsc);
      b.St(amt);
      b.Ld(modec);
      b.AndImm(2);
      b.Jz(no_plus8);
      b.Ld(amt);
      b.AddImm(8);
      b.St(amt);
      b.Bind(no_plus8);
      b.Jmp(have_amt);
      b.Bind(from_reg);
      b.LdIndexed(gr, rsc);
      b.AndImm(15);
      b.St(amt);
      b.Bind(have_amt);
      b.LdIndexed(gr, rdc);
      b.St(val);
      b.Jmp(shift_body[s]);
    }

    for (int s = 0; s < 4; ++s) {
      const Label loop = b.NewLabel();
      const Label done = b.NewLabel();
      b.Bind(shift_body[s]);
      b.Bind(loop);
      b.Ld(amt);
      b.Jz(done);
      switch (s) {
        case 0: {  // LSL: c = bit15; v = (v << 1) & 0xFFFF
          const Label no_c = b.NewLabel();
          const Label c_done = b.NewLabel();
          b.Ld(val);
          b.AndImm(0x8000);
          b.Jz(no_c);
          b.LdImm(1);
          b.St(gc);
          b.Jmp(c_done);
          b.Bind(no_c);
          b.LdImm(0);
          b.St(gc);
          b.Bind(c_done);
          b.Ld(val);
          b.AddCell(val);
          b.AndImm(0xFFFF);
          b.St(val);
          break;
        }
        case 1: {  // LSR: c = bit0; v >>= 1
          b.Ld(val);
          b.AndImm(1);
          b.St(gc);
          b.LdIndexedAbs(kLsr1Base, val);
          b.St(val);
          break;
        }
        case 2: {  // ASR: c = bit0; v = (v >> 1) | (v & 0x8000)
          b.Ld(val);
          b.AndImm(1);
          b.St(gc);
          b.Ld(val);
          b.AndImm(0x8000);
          b.St(sbit);
          b.LdIndexedAbs(kLsr1Base, val);
          b.AddCell(sbit);
          b.St(val);
          break;
        }
        case 3: {  // ROR: c = bit0; v = (v >> 1) | (c << 15)
          b.Ld(val);
          b.AndImm(1);
          b.St(gc);
          const Label no_wrap = b.NewLabel();
          const Label wrap_done = b.NewLabel();
          b.LdIndexedAbs(kLsr1Base, val);
          b.St(ptr2);
          b.Ld(gc);
          b.Jz(no_wrap);
          b.Ld(ptr2);
          b.AddImm(0x8000);
          b.St(ptr2);
          b.Bind(no_wrap);
          (void)wrap_done;
          b.Ld(ptr2);
          b.St(val);
          break;
        }
      }
      b.Ld(amt);
      b.SubImm(1);
      b.St(amt);
      b.Jmp(loop);
      b.Bind(done);
      b.Call(store_rd);
      b.Jmp(mainloop);
    }
  }

  // ---------------------------------------------------------------- MOVE
  {
    b.Bind(handlers[dynarisc::kMove]);
    warm_prologue(true, true, true);
    const Label src_d = b.NewLabel();
    const Label src_hi = b.NewLabel();
    const Label have_src = b.NewLabel();
    const Label dst_d = b.NewLabel();
    const Label done = b.NewLabel();
    b.Ld(modec);
    b.AndImm(4);
    b.Jnz(src_hi);
    b.Ld(modec);
    b.AndImm(2);
    b.Jnz(src_d);
    b.LdIndexed(gr, rsc);
    b.St(val);
    b.Jmp(have_src);
    b.Bind(src_d);
    b.Ld(rsc);
    b.AndImm(3);
    b.St(idx);
    b.LdIndexed(gd, idx);
    b.St(val);
    b.Jmp(have_src);
    b.Bind(src_hi);
    b.Ld(ghi);
    b.St(val);
    b.Bind(have_src);
    b.Ld(modec);
    b.AndImm(1);
    b.Jnz(dst_d);
    b.Ld(val);
    b.StIndexed(gr, rdc);
    b.Jmp(done);
    b.Bind(dst_d);
    b.Ld(rdc);
    b.AndImm(3);
    b.St(idx);
    b.Ld(val);
    b.StIndexed(gd, idx);
    b.Bind(done);
    b.Call(setz);
    b.Jmp(mainloop);
  }

  // ----------------------------------------------------------------- LDI
  {
    b.Bind(handlers[dynarisc::kLdi]);
    warm_prologue(true, false, false);
    b.Call(fetch);
    b.Ld(fetched);
    b.St(val);
    b.Call(store_rd);
    b.Jmp(mainloop);
  }

  // ----------------------------------------------------------------- LDM
  {
    b.Bind(handlers[dynarisc::kLdm]);
    warm_prologue(true, true, true);
    const Label byte_access = b.NewLabel();
    const Label no_inc = b.NewLabel();
    b.Ld(rsc);
    b.AndImm(3);
    b.St(idx);
    b.LdIndexed(gd, idx);
    b.St(ptr);
    b.LdIndexedAbs(kGuestBase, ptr);
    b.St(val);
    b.Ld(modec);
    b.AndImm(dynarisc::kModeWord);
    b.Jz(byte_access);
    b.Ld(ptr);
    b.AddImm(1);
    b.AndImm(0xFFFF);
    b.St(ptr2);
    b.LdIndexedAbs(kGuestBase, ptr2);
    b.St(fhi);
    b.LdIndexedAbs(kShl8Base, fhi);
    b.AddCell(val);
    b.St(val);
    b.Bind(byte_access);
    b.Ld(modec);
    b.AndImm(dynarisc::kModePostInc);
    b.Jz(no_inc);
    // step = 1 + (mode & kModeWord), branch-free (kModeWord == 1; jumping
    // here would clobber R, which carries the new pointer value).
    b.Ld(modec);
    b.AndImm(dynarisc::kModeWord);
    b.AddImm(1);
    b.St(sbit);  // reuse as step scratch
    b.Ld(ptr);
    b.AddCell(sbit);
    b.AndImm(0xFFFF);
    b.StIndexed(gd, idx);
    b.Bind(no_inc);
    b.Call(store_rd);
    b.Jmp(mainloop);
  }

  // ----------------------------------------------------------------- STM
  {
    b.Bind(handlers[dynarisc::kStm]);
    warm_prologue(true, true, true);
    const Label byte_access = b.NewLabel();
    const Label no_inc = b.NewLabel();
    b.Ld(rdc);
    b.AndImm(3);
    b.St(idx);
    b.LdIndexed(gd, idx);
    b.St(ptr);
    b.LdIndexed(gr, rsc);
    b.St(val);
    b.Ld(val);
    b.AndImm(0xFF);
    b.StIndexedAbs(kGuestBase, ptr);
    if (warm) {
      // A 2-byte instruction starting at ptr-1 or ptr covers this byte.
      b.Ld(ptr);
      b.SubImm(1);
      b.AndImm(0xFFFF);
      b.St(inv_a);
      warm_invalidate(inv_a);
      warm_invalidate(ptr);
    }
    b.Ld(modec);
    b.AndImm(dynarisc::kModeWord);
    b.Jz(byte_access);
    b.Ld(ptr);
    b.AddImm(1);
    b.AndImm(0xFFFF);
    b.St(ptr2);
    b.LdIndexedAbs(kShr8Base, val);
    b.StIndexedAbs(kGuestBase, ptr2);
    warm_invalidate(ptr2);
    b.Bind(byte_access);
    b.Ld(modec);
    b.AndImm(dynarisc::kModePostInc);
    b.Jz(no_inc);
    b.Ld(modec);
    b.AndImm(dynarisc::kModeWord);
    b.AddImm(1);
    b.St(sbit);
    b.Ld(ptr);
    b.AddCell(sbit);
    b.AndImm(0xFFFF);
    b.StIndexed(gd, idx);
    b.Bind(no_inc);
    b.Jmp(mainloop);
  }

  // ------------------------------------------- JUMP / JZ / JC / CALL / RET
  {
    b.Bind(handlers[dynarisc::kJump]);
    warm_prologue(false, false, false);
    b.Call(fetch);
    b.Ld(fetched);
    b.St(gpc);
    b.Jmp(mainloop);

    b.Bind(handlers[dynarisc::kJz]);
    warm_prologue(false, false, false);
    b.Call(fetch);
    b.Ld(gz);
    {
      const Label no = b.NewLabel();
      b.Jz(no);
      b.Ld(fetched);
      b.St(gpc);
      b.Bind(no);
    }
    b.Jmp(mainloop);

    b.Bind(handlers[dynarisc::kJc]);
    warm_prologue(false, false, false);
    b.Call(fetch);
    b.Ld(gc);
    {
      const Label no = b.NewLabel();
      b.Jz(no);
      b.Ld(fetched);
      b.St(gpc);
      b.Bind(no);
    }
    b.Jmp(mainloop);

    b.Bind(handlers[dynarisc::kCall]);
    warm_prologue(false, false, false);
    b.Call(fetch);
    // D3 -= 2; guest[D3] = pc.lo; guest[D3+1] = pc.hi; pc = fetched.
    b.Ld(Builder::At(gd, 3));
    b.SubImm(2);
    b.AndImm(0xFFFF);
    b.St(Builder::At(gd, 3));
    b.St(ptr);
    b.Ld(gpc);
    b.AndImm(0xFF);
    b.StIndexedAbs(kGuestBase, ptr);
    b.Ld(ptr);
    b.AddImm(1);
    b.AndImm(0xFFFF);
    b.St(ptr2);
    b.LdIndexedAbs(kShr8Base, gpc);
    b.StIndexedAbs(kGuestBase, ptr2);
    if (warm) {
      // The pushed return address overwrote guest bytes ptr and ptr2.
      b.Ld(ptr);
      b.SubImm(1);
      b.AndImm(0xFFFF);
      b.St(inv_a);
      warm_invalidate(inv_a);
      warm_invalidate(ptr);
      warm_invalidate(ptr2);
    }
    b.Ld(fetched);
    b.St(gpc);
    b.Jmp(mainloop);

    b.Bind(handlers[dynarisc::kRet]);
    warm_prologue(false, false, false);
    b.Ld(Builder::At(gd, 3));
    b.St(ptr);
    b.AddImm(1);
    b.AndImm(0xFFFF);
    b.St(ptr2);
    b.LdIndexedAbs(kGuestBase, ptr);
    b.St(val);
    b.LdIndexedAbs(kGuestBase, ptr2);
    b.St(fhi);
    b.LdIndexedAbs(kShl8Base, fhi);
    b.AddCell(val);
    b.St(gpc);
    b.Ld(Builder::At(gd, 3));
    b.AddImm(2);
    b.AndImm(0xFFFF);
    b.St(Builder::At(gd, 3));
    b.Jmp(mainloop);
  }

  // ----------------------------------------------------------------- SYS
  {
    b.Bind(handlers[dynarisc::kSys]);
    warm_prologue(false, false, true);
    const Label sys_read = b.NewLabel();
    const Label sys_write = b.NewLabel();
    b.Ld(modec);
    b.Jz(sys_read);
    b.Ld(modec);
    b.SubImm(dynarisc::kSysWriteByte);
    b.Jz(sys_write);
    // port 2 and any unknown port: halt.
    b.Jmp(halt_handler);

    b.Bind(sys_read);
    {
      const Label eof = b.NewLabel();
      b.InByte();
      b.St(val32);
      b.SubImm(0xFFFFFFFFu);
      b.Jz(eof);
      b.Ld(val32);
      b.St(Builder::At(gr, 0));
      b.LdImm(0);
      b.St(gc);
      b.Jmp(mainloop);
      b.Bind(eof);
      b.LdImm(1);
      b.St(gc);
      b.Jmp(mainloop);
    }

    b.Bind(sys_write);
    b.Ld(Builder::At(gr, 0));
    b.AndImm(0xFF);
    b.OutByte();
    b.Jmp(mainloop);
  }

  // ---------------------------------------------------------------- halt
  b.Bind(halt_handler);
  b.Halt();

  // ------------------------------------------------------------- redecode
  if (warm) {
    // An invalidated handler entry lands here. Recompute the four
    // predecode words for the instruction at GPC from the live guest
    // bytes (exactly the cold fetch + table decode), then re-dispatch:
    // H[gpc] is fresh now, so the main loop reaches the real handler.
    b.Bind(redecode);
    b.LdIndexedAbs(kGuestBase, gpc);
    b.St(h0);
    b.Ld(gpc);
    b.AddImm(1);
    b.AndImm(0xFFFF);
    b.St(h1);
    b.LdIndexedAbs(kGuestBase, h1);
    b.St(h2);
    b.LdIndexedAbs(kShl8Base, h2);
    b.AddCell(h0);
    b.St(fetched);
    b.LdIndexedAbs(kOpBase, fetched);
    b.St(opc);
    b.LdIndexed(jt, opc);
    b.StIndexedAbs(kHandlerBase, gpc);
    b.LdIndexedAbs(kRdBase, fetched);
    b.StIndexedAbs(kRdIdxBase, gpc);
    b.LdIndexedAbs(kRsBase, fetched);
    b.StIndexedAbs(kRsIdxBase, gpc);
    b.Ld(fetched);
    b.AndImm(31);
    b.StIndexedAbs(kModeIdxBase, gpc);
    b.Jmp(mainloop);
  }

  auto built = b.Build();
  assert(built.ok() && "interpreter generation failed");
  verisc::Program program = built.TakeValue();
  if (warm_out) {
    warm_out->gpc_addr = b.CellAddress(gpc);
    for (int i = 0; i < 32; ++i) {
      warm_out->handler_addr[i] = b.LabelAddress(handlers[i]);
    }
  }
  return program;
}

/// Runs a loaded machine to completion within the caller's step budget.
/// Shared by the cold and warm reference paths.
Result<Bytes> DriveMachine(verisc::Machine& machine,
                           const verisc::RunOptions& options) {
  switch (machine.RunFor(options.max_steps)) {
    case verisc::MachineState::kHalted:
      return machine.TakeOutput();
    case verisc::MachineState::kFault:
      return Status::ExecutionFault("nested emulation fault");
    default:
      return Status::ResourceExhausted("nested emulation exceeded step limit");
  }
}

}  // namespace

const verisc::Program& DynaRiscInterpreter() {
  static const verisc::Program kProgram = BuildInterpreter(nullptr);
  return kProgram;
}

const WarmInterpreter& WarmDynaRiscInterpreter() {
  static const WarmInterpreter kWarm = [] {
    WarmInterpreter w;
    w.program = BuildInterpreter(&w);
    return w;
  }();
  return kWarm;
}

Bytes PackNestedInput(const dynarisc::Program& program, BytesView input) {
  assert(program.image.size() <= dynarisc::kMemorySize);
  ByteWriter w;
  w.PutU16(program.entry);
  w.PutU32(static_cast<uint32_t>(program.image.size()));
  w.PutBytes(program.image);
  w.PutBytes(input);
  return w.TakeBytes();
}

Result<Bytes> RunNested(const dynarisc::Program& program, BytesView input,
                        const verisc::RunOptions& options,
                        verisc::VmFunction vm, NestedMode mode,
                        NestedRunStats* stats) {
  if (stats != nullptr) *stats = NestedRunStats{};
  const bool reference = (vm == nullptr || vm == &verisc::Run);
  if (!reference && mode == NestedMode::kTranslated) {
    return Status::InvalidArgument(
        "NestedMode::kTranslated requires the reference VeRisc engine");
  }

  if (reference) {
    // Reference path: drive the execution engine directly. The
    // per-thread machine keeps its 4 MiB memory image across nested
    // invocations.
    verisc::Machine& machine = verisc::ThreadLocalMachine();

    if (mode != NestedMode::kCold) {
      // Warm path: the shared translation cache has already expanded the
      // guest image and predecoded every guest address, so poke that
      // state straight into machine memory and start in the dispatch
      // loop — no table fill, no header parse, no byte-by-byte copy.
      bool cache_hit = false;
      TranslationCache::EntryPtr entry =
          TranslationCache::Global().Acquire(program, &cache_hit);
      const WarmInterpreter& warm = WarmDynaRiscInterpreter();

      // The 1 MiB of static shift/decode tables survives across frames
      // as long as nobody else re-loaded this thread's machine since our
      // last run (load_seq detects any interleaved Load).
      static thread_local const verisc::Machine* resident_machine = nullptr;
      static thread_local uint64_t resident_seq = 0;
      const bool resident = resident_machine == &machine &&
                            resident_seq == machine.load_seq() &&
                            resident_seq != 0;
      if (resident) {
        ULE_RETURN_IF_ERROR(machine.LoadNoZero(warm.program));
      } else {
        ULE_RETURN_IF_ERROR(machine.Load(warm.program));
        const StaticTables& tables = WarmStaticTables();
        machine.WriteWords(kLsr1Base, tables.low.data(), tables.low.size());
        machine.WriteWords(kShr8Base, tables.high.data(),
                           tables.high.size());
      }
      machine.WriteWords(kGuestBase, entry->guest_words.data(),
                         entry->guest_words.size());
      machine.WriteWords(kHandlerBase, entry->decode_words.data(),
                         entry->decode_words.size());
      const uint32_t entry_word = entry->entry_point;
      machine.WriteWords(warm.gpc_addr, &entry_word, 1);
      resident_machine = &machine;
      resident_seq = machine.load_seq();
      // No archival input protocol: the port carries the guest stream.
      machine.SetInput(input);

      Result<Bytes> out = DriveMachine(machine, options);
      if (stats != nullptr) {
        const verisc::Machine::RunStats rs = machine.LastRunStats();
        stats->translated = true;
        stats->cache_hit = cache_hit;
        stats->steps = rs.retired;
        stats->fused = rs.fused;
      }
      return out;
    }

    // Cold path: the archived interpreter bootstraps itself from the
    // input port, exactly as a future implementer would run it.
    const Bytes packed = PackNestedInput(program, input);
    ULE_RETURN_IF_ERROR(machine.Load(DynaRiscInterpreter()));
    machine.SetInput(packed);
    Result<Bytes> out = DriveMachine(machine, options);
    if (stats != nullptr) {
      const verisc::Machine::RunStats rs = machine.LastRunStats();
      stats->steps = rs.retired;
      stats->fused = rs.fused;
    }
    return out;
  }

  // Portability path: an independently written VeRisc implementation that
  // only offers the monolithic VmFunction entry point.
  const Bytes packed = PackNestedInput(program, input);
  ULE_ASSIGN_OR_RETURN(verisc::RunResult r,
                       vm(DynaRiscInterpreter(), packed, options));
  if (stats != nullptr) stats->steps = r.steps;
  switch (r.reason) {
    case verisc::StopReason::kHalted:
      return std::move(r.output);
    case verisc::StopReason::kFault:
      return Status::ExecutionFault("nested emulation fault");
    case verisc::StopReason::kStepLimit:
      return Status::ResourceExhausted("nested emulation exceeded step limit");
  }
  return Status::ExecutionFault("unreachable");
}

}  // namespace olonys
}  // namespace ule
