#include "decoders/modecode.h"

#include <cassert>

#include "dynarisc/assembler.h"

namespace ule {
namespace decoders {
namespace {

/// MODecode in DynaRisc assembly. See modecode.h for the I/O protocol and
/// dbdecode.cc for the register conventions shared by the archived
/// decoders.
///
/// ## Cost model
/// A future restore runs this program on the DynaRisc interpreter, itself
/// a VeRisc program, so what counts is VeRisc steps per DynaRisc
/// instruction on the translated path, not DynaRisc instructions.
/// Measured per instruction: SYS 64-66, JUMP 78, JZ/JC 90, CMP 96,
/// AND 103, SUB 113, OR 119, SBB 124, LDI 126, XOR 129, ADD 130,
/// LDM.B 134 (163 with post-increment), MOVE 137, STM.B 137 (166),
/// LDM.W 167, STM.W 174, LSR #1 179, LSL #1 196, LSL #3 300, MUL 1631,
/// and CALL + RET 227. JNZ/JNC assemble to JZ/JC over a JUMP, so a
/// taken JNZ costs 168. Hence the hot loops keep their state in
/// registers, never CALL, shift by one at most, and turn flags into
/// values with SBB/ADC instead of branching on them.
///
/// ## Hot loops and their registers
///   * Demodulation (`demod_rows`), per pair of half-cells: R1 threshold,
///     R2 the byte being packed above a sentinel bit, R3 the pass count,
///     R4 = 0, R5 the pair value -(black1 + black2), R7 = 1, D1 the coded
///     write pointer; right-to-left rows add R6 (reversed byte) and D0
///     (BITBUF). Two pairs per pass, no per-cell counter and no bound on
///     the coded length: every byte of the grid is stored.
///   * Syndromes (`syn_j`), per codeword byte: two syndromes per pass,
///     accumulators R4 and R0, R5 = &exp[log z1] and R1 = &exp2[log z2],
///     R2 = &log[0], R6 the byte, D1 the codeword pointer, five bytes per
///     pass. gfmul is inlined with its zero test replaced by a sentinel:
///     log[0] = 255 and exp[log z + 255] is zeroed while its syndrome
///     runs.
///
/// ## Memory map
/// (.equ addresses beyond the image are zero-initialised; the image must
/// stay below 0x1400.)
///   0x1400  GF(256) exp table, 510 bytes (doubled to avoid mod 255)
///   0x1600  GF(256) log table, 256 bytes; log[0] = 255
///   0x1700  RS scratch: synd[32] lambda[33] prevb[33] tmpp[33] omega[32]
///   0x1800  codeword buffer, 255 bytes
///   0x1900  variables
///   0x1A00  BITBUF: reversed bytes of one right-to-left row (<= 61)
///   0x1B00  GFEXP2: copy of the exp table for the second syndrome
///   0x1E00  interleaved coded bytes: every whole byte of the grid,
///           N(N-1)/16 <= 57,780 at the largest N that passes the
///           blocks <= 226 check (962), so the writes end below 0xFFB4
///           and the blocks*255 <= 57,630 bytes the RS stage reads
///   0xFFF0  stack top
constexpr std::string_view kSource = R"(
; ---------------------------------------------------------------- layout
.equ GFEXP,    0x1400
.equ GFLOG,    0x1600
.equ SYND,     0x1700      ; 32 bytes
.equ LAMBDA,   0x1720      ; 33 bytes
.equ PREVB,    0x1748      ; 33 bytes
.equ TMPP,     0x1770      ; 33 bytes
.equ OMEGA,    0x1798      ; 32 bytes
.equ CWBUF,    0x1800      ; 255 bytes
; variables (16-bit words)
.equ NV,       0x1900      ; grid side N
.equ THRV,     0x1902      ; threshold (kept in R1 during demod)
.equ BLOCKSV,  0x1904
.equ PASSESV,  0x1906      ; (N/2 + 1) / 2: passes of a row's pair loop
.equ ODDV,     0x1908      ; N & 1
.equ ROWSV,    0x190A      ; demodulation rows left
.equ PODDV,    0x190C      ; (N/2) & 1: the pair loop enters at pair 2
.equ SALOV,    0x190E      ; 32-bit sum A (sync phase A)
.equ SAHIV,    0x1910
.equ SBLOV,    0x1912
.equ SBHIV,    0x1914
.equ CAV,      0x1916      ; phase A cell count
.equ CBV,      0x1918
.equ AZV,      0x191A      ; OR of all syndromes of current block
.equ BLKV,     0x191E      ; current block
.equ BMLV,     0x1920      ; BM: L
.equ BMMV,     0x1922      ; BM: m
.equ BMBV,     0x1924      ; BM: b
.equ BMDV,     0x1926      ; BM: delta
.equ BMSV,     0x1928      ; BM: step
.equ DEGV,     0x192A      ; deg(lambda)
.equ ROOTSV,   0x192C      ; Chien root count
.equ XINVV,    0x192E      ; current X^-1
.equ POSAV,    0x1930      ; current position a
.equ MEANAV,   0x1932
.equ PENDV,    0x1936      ; pending first half-cell between rows
.equ BITBUF,   0x1A00
.equ GFEXP2,   0x1B00
.equ CODED,    0x1E00
.equ STACKTOP, 0xFFF0

.entry main

main:
      LDI   R1, #STACKTOP
      MOVE  D3, R1
      CALL  gf_init
      ; N (two bytes, little-endian)
      SYS   #0
      MOVE  R6, R0
      SYS   #0
      MOVE  R7, R0
      LSL   R7, #8
      OR    R6, R7
      LDI   R7, #NV
      MOVE  D2, R7
      STM.W R6, [D2]
      ; sanity: 8 <= N <= 1000
      LDI   R7, #8
      CMP   R6, R7
      JC    fail
      LDI   R7, #1001
      CMP   R6, R7
      JNC   fail
      ; bytes = (N * (N-1)) >> 4 ; blocks = bytes / 255
      MOVE  R4, R6
      LDI   R7, #1
      SUB   R4, R7           ; N-1
      MUL   R4, R6           ; product low in R4, high in HI
      MOVE  R5, HI
      LDI   R7, #4
shift16:
      LSR   R4, #1           ; 32-bit right shift by 1: low then carry-in
      MOVE  R6, R5
      LDI   R0, #1
      AND   R6, R0
      JZ    no_carry_bit
      LDI   R6, #0x8000
      OR    R4, R6
no_carry_bit:
      LSR   R5, #1
      LDI   R6, #1
      SUB   R7, R6
      JNZ   shift16
      ; R4 = bytes (R5 must now be zero for N <= 1000)
      LDI   R6, #0
      CMP   R5, R6
      JNZ   fail
      ; blocks = bytes / 255 by repeated subtraction
      LDI   R5, #0           ; quotient
div255:
      LDI   R7, #255
      CMP   R4, R7
      JC    div255_done
      SUB   R4, R7
      LDI   R7, #1
      ADD   R5, R7
      JUMP  div255
div255_done:
      LDI   R7, #0
      CMP   R5, R7
      JZ    fail             ; too small for one RS block
      LDI   R7, #227
      CMP   R5, R7
      JNC   fail             ; coded buffer would exceed the address space
      LDI   R6, #BLOCKSV
      MOVE  D2, R6
      STM.W R5, [D2]
      ; row geometry of the demodulation loops
      LDI   R6, #NV
      MOVE  D2, R6
      LDM.W R5, [D2]
      LDI   R7, #1
      MOVE  R4, R5
      AND   R4, R7
      LDI   R6, #ODDV
      MOVE  D2, R6
      STM.W R4, [D2]
      MOVE  R4, R5
      LSR   R4, #1           ; whole pairs per row
      MOVE  R3, R4
      AND   R3, R7
      LDI   R6, #PODDV
      MOVE  D2, R6
      STM.W R3, [D2]
      ADD   R4, R7
      LSR   R4, #1
      LDI   R6, #PASSESV
      MOVE  D2, R6
      STM.W R4, [D2]
      SUB   R5, R7
      LDI   R6, #ROWSV
      MOVE  D2, R6
      STM.W R5, [D2]
      CALL  sync_row
      CALL  demod_rows
      CALL  rs_blocks
      SYS   #2

fail:
      SYS   #2

; ----------------------------------------------------------- GF tables
; exp[i] = alpha^i (doubled to 510 entries), log[exp[i]] = i.
gf_init:
      LDI   R4, #1           ; x
      LDI   R5, #0           ; i
gfi_loop:
      LDI   R6, #GFEXP
      ADD   R6, R5
      MOVE  D2, R6
      STM.B R4, [D2]
      LDI   R6, #GFLOG
      MOVE  R7, R4
      LDI   R0, #0xFF
      AND   R7, R0
      ADD   R6, R7
      MOVE  D2, R6
      STM.B R5, [D2]
      LSL   R4, #1
      MOVE  R6, R4
      LDI   R7, #0x100
      AND   R6, R7
      JZ    gfi_nored
      LDI   R7, #0x11D
      XOR   R4, R7
gfi_nored:
      LDI   R7, #1
      ADD   R5, R7
      LDI   R7, #255
      CMP   R5, R7
      JNZ   gfi_loop
      ; duplicate: exp[255+i] = exp[i]
      LDI   R5, #0
gfi_dup:
      LDI   R6, #GFEXP
      ADD   R6, R5
      MOVE  D2, R6
      LDM.B R4, [D2]
      LDI   R6, #GFEXP
      ADD   R6, R5
      LDI   R7, #255
      ADD   R6, R7
      MOVE  D2, R6
      STM.B R4, [D2]
      LDI   R7, #1
      ADD   R5, R7
      LDI   R7, #255
      CMP   R5, R7
      JNZ   gfi_dup
      ; log[0] = 255: the syndrome loop's zero sentinel
      LDI   R6, #GFLOG
      MOVE  D2, R6
      LDI   R7, #255
      STM.B R7, [D2]
      ; the syndrome loop's second copy of the exp table
      LDI   R6, #GFEXP
      MOVE  D0, R6
      LDI   R6, #GFEXP2
      MOVE  D1, R6
      LDI   R5, #255         ; words
      LDI   R7, #1
gfi_copy:
      LDM.W R6, [D0+]
      STM.W R6, [D1+]
      SUB   R5, R7
      JNZ   gfi_copy
      RET

; gfmul: R6 = R6 * R7 in GF(256). Clobbers R0, R7, D2.
gfmul:
      LDI   R0, #0
      CMP   R6, R0
      JZ    gfmul_zero
      CMP   R7, R0
      JZ    gfmul_zero
      LDI   R0, #GFLOG
      ADD   R6, R0
      MOVE  D2, R6
      LDM.B R6, [D2]
      LDI   R0, #GFLOG
      ADD   R7, R0
      MOVE  D2, R7
      LDM.B R7, [D2]
      ADD   R6, R7
      LDI   R0, #GFEXP
      ADD   R6, R0
      MOVE  D2, R6
      LDM.B R6, [D2]
      RET
gfmul_zero:
      LDI   R6, #0
      RET

; gfdiv: R6 = R6 / R7 in GF(256), R7 != 0. Clobbers R0, R7, D2.
gfdiv:
      LDI   R0, #0
      CMP   R6, R0
      JZ    gfdiv_zero
      LDI   R0, #GFLOG
      ADD   R6, R0
      MOVE  D2, R6
      LDM.B R6, [D2]
      LDI   R0, #GFLOG
      ADD   R7, R0
      MOVE  D2, R7
      LDM.B R7, [D2]
      LDI   R0, #255
      ADD   R6, R0
      SUB   R6, R7
      LDI   R0, #GFEXP
      ADD   R6, R0
      MOVE  D2, R6
      LDM.B R6, [D2]
      RET
gfdiv_zero:
      LDI   R6, #0
      RET

; ------------------------------------------------------------- sync row
; Reads row 0, accumulates 32-bit sums per 2-cell phase, derives the
; demodulation threshold (meanA + meanB) / 2 into THRV.
sync_row:
      LDI   R6, #NV
      MOVE  D2, R6
      LDM.W R5, [D2]         ; N cells to read
      LDI   R4, #0           ; x
sync_cell:
      SYS   #0
      ; phase: ((x >> 1) & 1) == 0 -> A
      MOVE  R6, R4
      LSR   R6, #1
      LDI   R7, #1
      AND   R6, R7
      JZ    sync_a
      ; B: SB += v ; CB += 1
      LDI   R6, #SBLOV
      MOVE  D2, R6
      LDM.W R6, [D2]
      ADD   R6, R0
      STM.W R6, [D2]
      JNC   sync_b_nc
      LDI   R6, #SBHIV
      MOVE  D2, R6
      LDM.W R6, [D2]
      LDI   R7, #1
      ADD   R6, R7
      STM.W R6, [D2]
sync_b_nc:
      LDI   R6, #CBV
      MOVE  D2, R6
      LDM.W R6, [D2]
      LDI   R7, #1
      ADD   R6, R7
      STM.W R6, [D2]
      JUMP  sync_next
sync_a:
      LDI   R6, #SALOV
      MOVE  D2, R6
      LDM.W R6, [D2]
      ADD   R6, R0
      STM.W R6, [D2]
      JNC   sync_a_nc
      LDI   R6, #SAHIV
      MOVE  D2, R6
      LDM.W R6, [D2]
      LDI   R7, #1
      ADD   R6, R7
      STM.W R6, [D2]
sync_a_nc:
      LDI   R6, #CAV
      MOVE  D2, R6
      LDM.W R6, [D2]
      LDI   R7, #1
      ADD   R6, R7
      STM.W R6, [D2]
sync_next:
      LDI   R7, #1
      ADD   R4, R7
      SUB   R5, R7
      JNZ   sync_cell
      ; meanA = SA / CA ; meanB = SB / CB (32/16 division, quotient <= 255)
      LDI   R6, #SALOV
      MOVE  D2, R6
      LDM.W R2, [D2]
      LDI   R6, #SAHIV
      MOVE  D2, R6
      LDM.W R3, [D2]
      LDI   R6, #CAV
      MOVE  D2, R6
      LDM.W R5, [D2]
      CALL  div32
      LDI   R6, #MEANAV
      MOVE  D2, R6
      STM.W R4, [D2]
      LDI   R6, #SBLOV
      MOVE  D2, R6
      LDM.W R2, [D2]
      LDI   R6, #SBHIV
      MOVE  D2, R6
      LDM.W R3, [D2]
      LDI   R6, #CBV
      MOVE  D2, R6
      LDM.W R5, [D2]
      CALL  div32
      LDI   R6, #MEANAV
      MOVE  D2, R6
      LDM.W R6, [D2]
      ADD   R6, R4
      LSR   R6, #1
      LDI   R7, #THRV
      MOVE  D2, R7
      STM.W R6, [D2]
      ; zero contrast is undecodable
      LDI   R6, #MEANAV
      MOVE  D2, R6
      LDM.W R6, [D2]
      CMP   R6, R4
      JZ    fail
      RET

; div32: R4 = (R3:R2) / R5 for small quotients (repeated subtraction;
; quotient <= 255 because the dividend is a sum of <= N intensity bytes).
; Clobbers R2, R3, R6, R7.
div32:
      LDI   R4, #0
div32_loop:
      LDI   R7, #0
      CMP   R3, R7
      JNZ   div32_sub        ; high word nonzero -> definitely >= divisor
      CMP   R2, R5
      JC    div32_done       ; low < divisor
div32_sub:
      MOVE  R6, R2
      SUB   R2, R5
      JNC   div32_nb
      LDI   R7, #1
      SUB   R3, R7
div32_nb:
      LDI   R7, #1
      ADD   R4, R7
      JUMP  div32_loop
div32_done:
      RET

; ----------------------------------------------------------- demodulate
; Rows 1..N-1 arrive row-major; the serpentine runs odd rows left to
; right and even rows right to left. A bit is the XOR of its two
; half-cells (differential Manchester), so a pair of cells reads the
; same in either direction, and a right-to-left row can be demodulated
; as it arrives: its bits are packed into "reversed" bytes in BITBUF and
; then shifted out last byte first, low bit first, which is stream
; order. With odd N a pair straddles every row boundary; its first half
; waits in PENDV.
;
; A half-cell is black when its intensity is below the threshold: CMP
; sets C and SBB turns C into 0 or -1, so a pair leaves -(black1 +
; black2) in R5, whose low bit is the data bit. LSR #1 moves that bit
; into C and ADC shifts it into the byte being packed, below a sentinel:
; a packing register starts at 0x100, and the eighth ADC carries the
; sentinel out when its byte is complete. Pair loops run two pairs per
; pass and enter at the second when the row has an odd pair count.
;
; R0 = input, R1 = threshold, R2 = stream byte being packed, R3 = pass
; count / BITBUF read pointer, R4 = 0, R5 = pair value, R6 = reversed
; byte being packed, R7 = 1, D0 = BITBUF write pointer, D1 = coded
; write pointer.
demod_rows:
      LDI   R6, #THRV
      MOVE  D2, R6
      LDM.W R1, [D2]
      LDI   R2, #0x100
      LDI   R4, #0
      LDI   R7, #1
      LDI   R6, #CODED
      MOVE  D1, R6
drow_fwd:
      LDI   R6, #PASSESV
      MOVE  D2, R6
      LDM.W R3, [D2]
      LDI   R6, #PODDV
      MOVE  D2, R6
      LDM.W R6, [D2]
      JNZ   fw_pair2
fw_pair1:
      SYS   #0
      CMP   R0, R1
      SBB   R5, R5
      SYS   #0
      CMP   R0, R1
      SBB   R5, R4
      LSR   R5, #1
      ADC   R2, R2
      JC    fw_byte1
fw_pair2:
      SYS   #0
      CMP   R0, R1
      SBB   R5, R5
      SYS   #0
      CMP   R0, R1
      SBB   R5, R4
      LSR   R5, #1
      ADC   R2, R2
      JC    fw_byte2
fw_next:
      SUB   R3, R7
      JNZ   fw_pair1
      ; odd N: the row's last half-cell opens a pair the next row closes
      LDI   R6, #ODDV
      MOVE  D2, R6
      LDM.W R6, [D2]
      JZ    fw_done
      SYS   #0
      CMP   R0, R1
      SBB   R5, R5
      LDI   R6, #PENDV
      MOVE  D2, R6
      STM.W R5, [D2]
fw_done:
      CALL  drow_count
      JZ    drow_done
      ; right-to-left row: reversed bytes into BITBUF
      LDI   R6, #BITBUF
      MOVE  D0, R6
      LDI   R6, #PASSESV
      MOVE  D2, R6
      LDM.W R3, [D2]
      LDI   R6, #0x100
      LDI   R5, #PODDV
      MOVE  D2, R5
      LDM.W R5, [D2]
      JNZ   bw_pair2
bw_pair1:
      SYS   #0
      CMP   R0, R1
      SBB   R5, R5
      SYS   #0
      CMP   R0, R1
      SBB   R5, R4
      LSR   R5, #1
      ADC   R6, R6
      JC    bw_store1
bw_pair2:
      SYS   #0
      CMP   R0, R1
      SBB   R5, R5
      SYS   #0
      CMP   R0, R1
      SBB   R5, R4
      LSR   R5, #1
      ADC   R6, R6
      JC    bw_store2
bw_next:
      SUB   R3, R7
      JNZ   bw_pair1
      ; odd N: the rightmost half-cell closes the pending pair; its bit
      ; is the row's first in stream order
      LDI   R5, #ODDV
      MOVE  D2, R5
      LDM.W R5, [D2]
      JZ    bw_tail
      LDI   R5, #PENDV
      MOVE  D2, R5
      LDM.W R5, [D2]
      SYS   #0
      CMP   R0, R1
      SBB   R5, R4
      LSR   R5, #1
      ADC   R6, R6
      JNC   bw_tail
      STM.B R6, [D0+]
      LDI   R6, #0x100
bw_tail:
      ; the partial reversed byte holds the row's first bits
      LDI   R5, #0x100
bw_part:
      CMP   R6, R5
      JZ    bw_whole
      LSR   R6, #1
      ADC   R2, R2
      JNC   bw_part
      STM.B R2, [D1+]
      LDI   R2, #0x100
      JUMP  bw_part
bw_whole:
      ; then the whole reversed bytes, last stored first
      MOVE  R3, D0
      LDI   R5, #BITBUF
bw_rbyte:
      CMP   R3, R5
      JZ    bw_done
      SUB   R3, R7
      MOVE  D2, R3
      LDM.B R6, [D2]
      LSR   R6, #1
      ADC   R2, R2
      JC    bw_out1
bw_in1:
      LSR   R6, #1
      ADC   R2, R2
      JC    bw_out2
bw_in2:
      LSR   R6, #1
      ADC   R2, R2
      JC    bw_out3
bw_in3:
      LSR   R6, #1
      ADC   R2, R2
      JC    bw_out4
bw_in4:
      LSR   R6, #1
      ADC   R2, R2
      JC    bw_out5
bw_in5:
      LSR   R6, #1
      ADC   R2, R2
      JC    bw_out6
bw_in6:
      LSR   R6, #1
      ADC   R2, R2
      JC    bw_out7
bw_in7:
      LSR   R6, #1
      ADC   R2, R2
      JNC   bw_rbyte
      STM.B R2, [D1+]
      LDI   R2, #0x100
      JUMP  bw_rbyte
bw_done:
      CALL  drow_count
      JNZ   drow_fwd
drow_done:
      RET
fw_byte1:
      STM.B R2, [D1+]
      LDI   R2, #0x100
      JUMP  fw_pair2
fw_byte2:
      STM.B R2, [D1+]
      LDI   R2, #0x100
      JUMP  fw_next
bw_store1:
      STM.B R6, [D0+]
      LDI   R6, #0x100
      JUMP  bw_pair2
bw_store2:
      STM.B R6, [D0+]
      LDI   R6, #0x100
      JUMP  bw_next
bw_out1:
      STM.B R2, [D1+]
      LDI   R2, #0x100
      JUMP  bw_in1
bw_out2:
      STM.B R2, [D1+]
      LDI   R2, #0x100
      JUMP  bw_in2
bw_out3:
      STM.B R2, [D1+]
      LDI   R2, #0x100
      JUMP  bw_in3
bw_out4:
      STM.B R2, [D1+]
      LDI   R2, #0x100
      JUMP  bw_in4
bw_out5:
      STM.B R2, [D1+]
      LDI   R2, #0x100
      JUMP  bw_in5
bw_out6:
      STM.B R2, [D1+]
      LDI   R2, #0x100
      JUMP  bw_in6
bw_out7:
      STM.B R2, [D1+]
      LDI   R2, #0x100
      JUMP  bw_in7

; drow_count: one row done; Z = 1 when it was the last. Clobbers R6, D2.
drow_count:
      LDI   R6, #ROWSV
      MOVE  D2, R6
      LDM.W R6, [D2]
      SUB   R6, R7
      STM.W R6, [D2]
      RET

; ------------------------------------------------------------ RS blocks
rs_blocks:
      LDI   R6, #BLKV
      MOVE  D2, R6
      LDI   R7, #0
      STM.W R7, [D2]
blk_loop:
      ; gather codeword: cw[j] = coded[j*blocks + blk]
      LDI   R6, #BLKV
      MOVE  D2, R6
      LDM.W R4, [D2]
      LDI   R6, #CODED
      ADD   R4, R6           ; &coded[blk]
      LDI   R6, #BLOCKSV
      MOVE  D2, R6
      LDM.W R2, [D2]         ; stride
      LDI   R6, #CWBUF
      MOVE  D0, R6
      LDI   R5, #255
      LDI   R7, #1
gather:
      MOVE  D2, R4
      LDM.B R6, [D2]
      STM.B R6, [D0+]
      ADD   R4, R2
      SUB   R5, R7
      JNZ   gather
      ; syndromes S_i = cw(alpha^(i+1)), i = 0..31, two per pass, by
      ; Horner: acc = acc * z ^ cw[j], where acc * z = exp[log acc +
      ; log z]. R4/R5 = acc and &exp[log z] of the pass's first
      ; syndrome, R0/R1 = acc and &exp2[log z] of its second, which reads
      ; the copy of the exp table at GFEXP2. log[0] is 255 and each
      ; table's exp[log z + 255] is zeroed while the pass runs, so a zero
      ; acc needs no test; no other acc reaches that entry
      ; (log acc <= 254).
      LDI   R6, #SYND
      MOVE  D0, R6
      LDI   R6, #AZV
      MOVE  D2, R6
      LDI   R4, #0
      STM.W R4, [D2]
      LDI   R2, #GFLOG
      LDI   R5, #GFEXP+1
      LDI   R1, #GFEXP2+2
syn_loop:
      LDI   R0, #0
      LDI   R6, #255
      ADD   R6, R5
      MOVE  D2, R6
      STM.B R0, [D2]
      LDI   R6, #255
      ADD   R6, R1
      MOVE  D2, R6
      STM.B R0, [D2]
      LDI   R4, #0
      LDI   R6, #CWBUF
      MOVE  D1, R6
      LDI   R3, #51          ; 255 bytes, five per pass
syn_j:
      LDM.B R6, [D1+]
      ADD   R4, R2
      MOVE  D2, R4
      LDM.B R4, [D2]
      ADD   R4, R5
      MOVE  D2, R4
      LDM.B R4, [D2]
      XOR   R4, R6
      ADD   R0, R2
      MOVE  D2, R0
      LDM.B R0, [D2]
      ADD   R0, R1
      MOVE  D2, R0
      LDM.B R0, [D2]
      XOR   R0, R6
      LDM.B R6, [D1+]
      ADD   R4, R2
      MOVE  D2, R4
      LDM.B R4, [D2]
      ADD   R4, R5
      MOVE  D2, R4
      LDM.B R4, [D2]
      XOR   R4, R6
      ADD   R0, R2
      MOVE  D2, R0
      LDM.B R0, [D2]
      ADD   R0, R1
      MOVE  D2, R0
      LDM.B R0, [D2]
      XOR   R0, R6
      LDM.B R6, [D1+]
      ADD   R4, R2
      MOVE  D2, R4
      LDM.B R4, [D2]
      ADD   R4, R5
      MOVE  D2, R4
      LDM.B R4, [D2]
      XOR   R4, R6
      ADD   R0, R2
      MOVE  D2, R0
      LDM.B R0, [D2]
      ADD   R0, R1
      MOVE  D2, R0
      LDM.B R0, [D2]
      XOR   R0, R6
      LDM.B R6, [D1+]
      ADD   R4, R2
      MOVE  D2, R4
      LDM.B R4, [D2]
      ADD   R4, R5
      MOVE  D2, R4
      LDM.B R4, [D2]
      XOR   R4, R6
      ADD   R0, R2
      MOVE  D2, R0
      LDM.B R0, [D2]
      ADD   R0, R1
      MOVE  D2, R0
      LDM.B R0, [D2]
      XOR   R0, R6
      LDM.B R6, [D1+]
      ADD   R4, R2
      MOVE  D2, R4
      LDM.B R4, [D2]
      ADD   R4, R5
      MOVE  D2, R4
      LDM.B R4, [D2]
      XOR   R4, R6
      ADD   R0, R2
      MOVE  D2, R0
      LDM.B R0, [D2]
      ADD   R0, R1
      MOVE  D2, R0
      LDM.B R0, [D2]
      XOR   R0, R6
      SUB   R3, R7
      JNZ   syn_j
      STM.B R4, [D0+]        ; synd[i], synd[i+1]
      STM.B R0, [D0+]
      OR    R4, R0
      LDI   R6, #AZV
      MOVE  D2, R6
      LDM.W R0, [D2]
      OR    R0, R4
      STM.W R0, [D2]
      ; restore exp[log z + 255] = exp[log z] in both tables
      MOVE  D2, R5
      LDM.B R4, [D2]
      LDI   R6, #255
      ADD   R6, R5
      MOVE  D2, R6
      STM.B R4, [D2]
      MOVE  D2, R1
      LDM.B R4, [D2]
      LDI   R6, #255
      ADD   R6, R1
      MOVE  D2, R6
      STM.B R4, [D2]
      LDI   R6, #2
      ADD   R5, R6
      ADD   R1, R6
      LDI   R6, #GFEXP+33
      CMP   R5, R6
      JNZ   syn_loop
      ; clean block?
      LDI   R6, #AZV
      MOVE  D2, R6
      LDM.W R6, [D2]
      JZ    blk_emit
      CALL  berlekamp
      CALL  chien_forney
blk_emit:
      ; emit the 223 data bytes of this codeword
      LDI   R6, #CWBUF
      MOVE  D1, R6
      LDI   R5, #223
      LDI   R7, #1
emit_j:
      LDM.B R0, [D1+]
      SYS   #1
      SUB   R5, R7
      JNZ   emit_j
      ; next block
      LDI   R6, #BLKV
      MOVE  D2, R6
      LDM.W R6, [D2]
      ADD   R6, R7
      STM.W R6, [D2]
      LDI   R7, #BLOCKSV
      MOVE  D2, R7
      LDM.W R7, [D2]
      CMP   R6, R7
      JNZ   blk_loop
      RET

; ----------------------------------------------------- Berlekamp-Massey
; Error-only BM over SYND[0..31]; lambda (ascending) in LAMBDA[0..32].
berlekamp:
      ; lambda = [1,0,..], prevb = [1,0,..]
      LDI   R5, #33
      LDI   R6, #LAMBDA
      MOVE  D0, R6
      LDI   R6, #PREVB
      MOVE  D1, R6
      LDI   R7, #0
bm_clear:
      STM.B R7, [D0+]
      STM.B R7, [D1+]
      LDI   R6, #1
      SUB   R5, R6
      JNZ   bm_clear
      LDI   R6, #LAMBDA
      MOVE  D2, R6
      LDI   R7, #1
      STM.B R7, [D2]
      LDI   R6, #PREVB
      MOVE  D2, R6
      STM.B R7, [D2]
      ; L = 0, m = 1, b = 1, step = 0
      LDI   R6, #BMLV
      MOVE  D2, R6
      LDI   R7, #0
      STM.W R7, [D2]
      LDI   R6, #BMSV
      MOVE  D2, R6
      STM.W R7, [D2]
      LDI   R6, #BMMV
      MOVE  D2, R6
      LDI   R7, #1
      STM.W R7, [D2]
      LDI   R6, #BMBV
      MOVE  D2, R6
      STM.W R7, [D2]
bm_step:
      ; delta = synd[step] + sum_{i=1..L} lambda[i]*synd[step-i]
      LDI   R6, #BMSV
      MOVE  D2, R6
      LDM.W R4, [D2]         ; step
      LDI   R6, #SYND
      ADD   R6, R4
      MOVE  D2, R6
      LDM.B R5, [D2]         ; delta
      LDI   R3, #1           ; i
bm_delta:
      LDI   R6, #BMLV
      MOVE  D2, R6
      LDM.W R6, [D2]
      CMP   R6, R3
      JC    bm_delta_done    ; L < i
      CMP   R4, R3
      JC    bm_delta_done    ; step < i (synd index would go negative)
      LDI   R6, #LAMBDA
      ADD   R6, R3
      MOVE  D2, R6
      LDM.B R6, [D2]
      MOVE  R2, R4
      SUB   R2, R3
      LDI   R7, #SYND
      ADD   R2, R7
      MOVE  D2, R2
      LDM.B R7, [D2]
      CALL  gfmul
      XOR   R5, R6
      LDI   R7, #1
      ADD   R3, R7
      JUMP  bm_delta
bm_delta_done:
      LDI   R6, #BMDV
      MOVE  D2, R6
      STM.W R5, [D2]
      LDI   R7, #0
      CMP   R5, R7
      JNZ   bm_update
      ; delta == 0: ++m
      LDI   R6, #BMMV
      MOVE  D2, R6
      LDM.W R6, [D2]
      LDI   R7, #1
      ADD   R6, R7
      LDI   R7, #BMMV
      MOVE  D2, R7
      STM.W R6, [D2]
      JUMP  bm_next
bm_update:
      ; tmpp = lambda
      LDI   R5, #33
      LDI   R6, #LAMBDA
      MOVE  D0, R6
      LDI   R6, #TMPP
      MOVE  D1, R6
bm_copy:
      LDM.B R6, [D0+]
      STM.B R6, [D1+]
      LDI   R7, #1
      SUB   R5, R7
      JNZ   bm_copy
      ; scale = delta / b
      LDI   R6, #BMDV
      MOVE  D2, R6
      LDM.W R6, [D2]
      LDI   R7, #BMBV
      MOVE  D2, R7
      LDM.W R7, [D2]
      CALL  gfdiv
      MOVE  R2, R6           ; scale
      ; lambda[i+m] ^= prevb[i] * scale for i = 0 .. 32-m
      LDI   R3, #0           ; i
bm_adj:
      LDI   R6, #BMMV
      MOVE  D2, R6
      LDM.W R6, [D2]
      MOVE  R4, R3
      ADD   R4, R6           ; i + m
      LDI   R7, #33
      CMP   R4, R7
      JNC   bm_adj_done
      LDI   R6, #PREVB
      ADD   R6, R3
      MOVE  D2, R6
      LDM.B R6, [D2]
      MOVE  R7, R2
      CALL  gfmul
      MOVE  R7, R6
      LDI   R6, #LAMBDA
      ADD   R6, R4
      MOVE  D2, R6
      LDM.B R6, [D2]
      XOR   R6, R7
      STM.B R6, [D2]
      LDI   R7, #1
      ADD   R3, R7
      JUMP  bm_adj
bm_adj_done:
      ; if 2L <= step: prevb = tmpp; b = delta; L = step+1-L; m = 1
      ; else ++m
      LDI   R6, #BMLV
      MOVE  D2, R6
      LDM.W R6, [D2]
      LSL   R6, #1
      LDI   R7, #BMSV
      MOVE  D2, R7
      LDM.W R7, [D2]
      CMP   R7, R6
      JC    bm_inc_m         ; step < 2L
      ; swap branch
      LDI   R5, #33
      LDI   R6, #TMPP
      MOVE  D0, R6
      LDI   R6, #PREVB
      MOVE  D1, R6
bm_copy2:
      LDM.B R6, [D0+]
      STM.B R6, [D1+]
      LDI   R7, #1
      SUB   R5, R7
      JNZ   bm_copy2
      LDI   R6, #BMDV
      MOVE  D2, R6
      LDM.W R6, [D2]
      LDI   R7, #BMBV
      MOVE  D2, R7
      STM.W R6, [D2]
      LDI   R6, #BMSV
      MOVE  D2, R6
      LDM.W R6, [D2]
      LDI   R7, #1
      ADD   R6, R7
      LDI   R7, #BMLV
      MOVE  D2, R7
      LDM.W R7, [D2]
      SUB   R6, R7
      LDI   R7, #BMLV
      MOVE  D2, R7
      STM.W R6, [D2]
      LDI   R6, #BMMV
      MOVE  D2, R6
      LDI   R7, #1
      STM.W R7, [D2]
      JUMP  bm_next
bm_inc_m:
      LDI   R6, #BMMV
      MOVE  D2, R6
      LDM.W R6, [D2]
      LDI   R7, #1
      ADD   R6, R7
      STM.W R6, [D2]
bm_next:
      LDI   R6, #BMSV
      MOVE  D2, R6
      LDM.W R6, [D2]
      LDI   R7, #1
      ADD   R6, R7
      LDI   R7, #BMSV
      MOVE  D2, R7
      STM.W R6, [D2]
      LDI   R7, #32
      CMP   R6, R7
      JNZ   bm_step
      ; deg(lambda)
      LDI   R4, #0           ; deg
      LDI   R3, #0           ; i
deg_loop:
      LDI   R6, #LAMBDA
      ADD   R6, R3
      MOVE  D2, R6
      LDM.B R6, [D2]
      LDI   R7, #0
      CMP   R6, R7
      JZ    deg_zero
      MOVE  R4, R3
deg_zero:
      LDI   R7, #1
      ADD   R3, R7
      LDI   R7, #33
      CMP   R3, R7
      JNZ   deg_loop
      LDI   R6, #DEGV
      MOVE  D2, R6
      STM.W R4, [D2]
      ; consistency: deg == L and 2*deg <= 32
      LDI   R6, #BMLV
      MOVE  D2, R6
      LDM.W R6, [D2]
      CMP   R4, R6
      JNZ   fail
      LSL   R4, #1
      LDI   R7, #33
      CMP   R4, R7
      JNC   fail
      RET

; -------------------------------------------------------- Chien/Forney
chien_forney:
      ; omega = (synd * lambda) mod x^32
      LDI   R3, #0           ; i
om_i:
      LDI   R4, #0           ; acc
      LDI   R5, #0           ; k
om_k:
      CMP   R3, R5
      JC    om_k_done        ; i < k
      LDI   R6, #DEGV
      MOVE  D2, R6
      LDM.W R6, [D2]
      CMP   R6, R5
      JC    om_k_done        ; deg < k
      LDI   R6, #LAMBDA
      ADD   R6, R5
      MOVE  D2, R6
      LDM.B R6, [D2]
      MOVE  R2, R3
      SUB   R2, R5
      LDI   R7, #SYND
      ADD   R2, R7
      MOVE  D2, R2
      LDM.B R7, [D2]
      CALL  gfmul
      XOR   R4, R6
      LDI   R7, #1
      ADD   R5, R7
      JUMP  om_k
om_k_done:
      LDI   R6, #OMEGA
      ADD   R6, R3
      MOVE  D2, R6
      STM.B R4, [D2]
      LDI   R7, #1
      ADD   R3, R7
      LDI   R7, #32
      CMP   R3, R7
      JNZ   om_i
      ; Chien search over positions a = 0..254
      LDI   R6, #ROOTSV
      MOVE  D2, R6
      LDI   R7, #0
      STM.W R7, [D2]
      LDI   R6, #POSAV
      MOVE  D2, R6
      STM.W R7, [D2]
ch_a:
      ; xinv = exp[255 - (254 - a)] = exp[a + 1]
      LDI   R6, #POSAV
      MOVE  D2, R6
      LDM.W R6, [D2]
      LDI   R7, #GFEXP
      ADD   R6, R7
      LDI   R7, #1
      ADD   R6, R7
      MOVE  D2, R6
      LDM.B R6, [D2]
      LDI   R7, #XINVV
      MOVE  D2, R7
      STM.W R6, [D2]
      ; eval lambda(xinv), Horner over 0..deg from the top
      LDI   R6, #DEGV
      MOVE  D2, R6
      LDM.W R3, [D2]         ; i = deg
      LDI   R4, #0           ; acc
ch_ev:
      MOVE  R6, R4
      LDI   R7, #XINVV
      MOVE  D2, R7
      LDM.W R7, [D2]
      CALL  gfmul
      MOVE  R4, R6
      LDI   R6, #LAMBDA
      ADD   R6, R3
      MOVE  D2, R6
      LDM.B R6, [D2]
      XOR   R4, R6
      LDI   R7, #0
      CMP   R3, R7
      JZ    ch_ev_done
      LDI   R7, #1
      SUB   R3, R7
      JUMP  ch_ev
ch_ev_done:
      LDI   R7, #0
      CMP   R4, R7
      JNZ   ch_next
      CALL  forney
ch_next:
      LDI   R6, #POSAV
      MOVE  D2, R6
      LDM.W R6, [D2]
      LDI   R7, #1
      ADD   R6, R7
      LDI   R7, #POSAV
      MOVE  D2, R7
      STM.W R6, [D2]
      LDI   R7, #255
      CMP   R6, R7
      JNZ   ch_a
      ; all errata found?
      LDI   R6, #ROOTSV
      MOVE  D2, R6
      LDM.W R6, [D2]
      LDI   R7, #DEGV
      MOVE  D2, R7
      LDM.W R7, [D2]
      CMP   R6, R7
      JNZ   fail
      RET

; forney: corrects cw[a] for the current root. magnitude =
; omega(xinv) / lambda'(xinv) (fcr = 1). Clobbers R0..R7 except R1? uses all.
forney:
      LDI   R6, #ROOTSV
      MOVE  D2, R6
      LDM.W R6, [D2]
      LDI   R7, #1
      ADD   R6, R7
      LDI   R7, #ROOTSV
      MOVE  D2, R7
      STM.W R6, [D2]
      ; num = omega(xinv), Horner over 0..31
      LDI   R3, #31
      LDI   R4, #0
fo_num:
      MOVE  R6, R4
      LDI   R7, #XINVV
      MOVE  D2, R7
      LDM.W R7, [D2]
      CALL  gfmul
      MOVE  R4, R6
      LDI   R6, #OMEGA
      ADD   R6, R3
      MOVE  D2, R6
      LDM.B R6, [D2]
      XOR   R4, R6
      LDI   R7, #0
      CMP   R3, R7
      JZ    fo_num_done
      LDI   R7, #1
      SUB   R3, R7
      JUMP  fo_num
fo_num_done:
      ; den = sum over odd i <= deg of lambda[i] * xinv^(i-1)
      LDI   R6, #XINVV
      MOVE  D2, R6
      LDM.W R6, [D2]
      MOVE  R7, R6
      CALL  gfmul            ; xinv^2
      MOVE  R2, R6           ; xi2
      LDI   R5, #1           ; pw = 1
      LDI   R3, #1           ; i
      LDI   R0, #0
      LDI   R6, #BMDV        ; reuse BMDV as den accumulator
      MOVE  D2, R6
      STM.W R0, [D2]
fo_den:
      LDI   R6, #DEGV
      MOVE  D2, R6
      LDM.W R6, [D2]
      CMP   R6, R3
      JC    fo_den_done      ; deg < i
      LDI   R6, #LAMBDA
      ADD   R6, R3
      MOVE  D2, R6
      LDM.B R6, [D2]
      MOVE  R7, R5
      CALL  gfmul
      MOVE  R7, R6
      LDI   R6, #BMDV
      MOVE  D2, R6
      LDM.W R6, [D2]
      XOR   R6, R7
      STM.W R6, [D2]
      ; pw *= xi2 ; i += 2
      MOVE  R6, R5
      MOVE  R7, R2
      CALL  gfmul
      MOVE  R5, R6
      LDI   R7, #2
      ADD   R3, R7
      JUMP  fo_den
fo_den_done:
      LDI   R6, #BMDV
      MOVE  D2, R6
      LDM.W R7, [D2]
      LDI   R6, #0
      CMP   R7, R6
      JZ    fail
      MOVE  R6, R4
      CALL  gfdiv            ; magnitude = num / den
      MOVE  R7, R6
      ; cw[a] ^= magnitude
      LDI   R6, #POSAV
      MOVE  D2, R6
      LDM.W R6, [D2]
      LDI   R0, #CWBUF
      ADD   R6, R0
      MOVE  D2, R6
      LDM.B R6, [D2]
      XOR   R6, R7
      STM.B R6, [D2]
      RET
)";

}  // namespace

std::string_view ModecodeSource() { return kSource; }

const dynarisc::Program& ModecodeProgram() {
  static const dynarisc::Program kProgram = [] {
    auto assembled = dynarisc::Assemble(kSource);
    assert(assembled.ok() && "MODecode assembly failed");
    return assembled.TakeValue();
  }();
  return kProgram;
}

Bytes PackModecodeInput(BytesView intensities, int data_side) {
  ByteWriter w;
  w.PutU16(static_cast<uint16_t>(data_side));
  w.PutBytes(intensities);
  return w.TakeBytes();
}

}  // namespace decoders
}  // namespace ule
