/// \file modecode.h
/// \brief MODecode: the MOCoder decoder written in DynaRisc assembly.
///
/// This program is archived *as text* in the Bootstrap document (letters,
/// Part III) because it is the decoder that turns scanned emblems back into
/// bytes — it cannot itself be stored as emblems (paper §3.2). It runs on
/// the (nested) Olonys emulator.
///
/// ## I/O protocol
/// Input: the cell-grid side N as two little-endian bytes, then the N*N
/// sampled data-area intensities (row-major, 0 = black) produced by the
/// host-side preprocessing step (mocoder::SampleEmblem or, in the future,
/// whatever image library the user has — the Bootstrap describes the
/// sampling).
/// Output: the emblem's RS-corrected container — blocks*223 bytes: the
/// 20-byte header followed by the payload (+ zero padding). Header parsing,
/// payload CRC verification and outer-code reassembly are host steps
/// documented in the Bootstrap.
///
/// On unrecoverable damage (an RS block beyond 16 errors) the program
/// halts early; truncated output signals the failure.
///
/// Implementation limit: blocks <= 226, i.e. N <= 962, so the interleaved
/// codeword buffer fits the 16-bit address space. Paper-scale emblems
/// (N = 942 on A4, N = 962 on microfilm) fit; a larger N halts with no
/// output, and core::ValidateArchiveOptions refuses to archive one.

#ifndef ULE_DECODERS_MODECODE_H_
#define ULE_DECODERS_MODECODE_H_

#include <string_view>

#include "dynarisc/machine.h"
#include "support/bytes.h"

namespace ule {
namespace decoders {

/// The largest data_side MODecode decodes (226 RS blocks). Archives are
/// refused beyond it, since their own Bootstrap could not restore them.
constexpr int kModecodeMaxDataSide = 962;

/// The DynaRisc assembly source of MODecode.
std::string_view ModecodeSource();

/// The assembled program (cached).
const dynarisc::Program& ModecodeProgram();

/// Packs an intensity grid into the program's input format.
Bytes PackModecodeInput(BytesView intensities, int data_side);

}  // namespace decoders
}  // namespace ule

#endif  // ULE_DECODERS_MODECODE_H_
