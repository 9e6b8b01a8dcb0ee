/// \file dynarisc_in_verisc.h
/// \brief The DynaRisc emulator implemented as a VeRisc program — the
/// paper's nested emulation core (§3.2).
///
/// "Using just these four VeRisc instructions, we have built an emulator
/// that can interpret the broader DynaRisc ISA." This module is that
/// artefact: a VeRisc instruction stream, generated once via the VeRisc
/// macro-assembler, which fetches, decodes and executes DynaRisc programs.
/// It is this program (letter-encoded) that gets archived in the Bootstrap
/// document, so a future user who has implemented the 4-instruction VeRisc
/// machine can run the archived DynaRisc decoders without knowing anything
/// about DynaRisc itself.
///
/// ## Input protocol (self-contained bootstrapping)
/// The interpreter receives everything through the VeRisc input port:
///
///     [entry.lo, entry.hi]  [len b0..b3, little-endian]  [len image bytes]
///     [... remaining bytes = the DynaRisc program's own input stream]
///
/// and forwards the guest's SYS output to the VeRisc output port. No host
/// pokes VeRisc memory: a future implementer only needs the I/O ports.
///
/// ## VeRisc memory layout used by the interpreter
///
///     0x00010 .. code+data   the interpreter itself (< 0x10000)
///     0x10000  LSR1 table    lsr1[v] = v >> 1            (64 Ki words)
///     0x20000  OP table      op[w]   = w >> 11           (64 Ki words)
///     0x30000  RD table      rd[w]   = (w >> 8) & 7      (64 Ki words)
///     0x40000  RS table      rs[w]   = (w >> 5) & 7      (64 Ki words)
///     0x50000  guest memory  one DynaRisc byte per word  (64 Ki words)
///     0x60000  SHR8 table    shr8[v] = v >> 8            (64 Ki words)
///     0x70000  SHL8 table    shl8[b] = b << 8            (256 words)
///
/// The tables are filled at startup by a generic fill routine (VeRisc has
/// no shift instruction; the tables *are* the shifter). DynaRisc's 16-bit
/// registers and flags live in interpreter cells.

#ifndef ULE_OLONYS_DYNARISC_IN_VERISC_H_
#define ULE_OLONYS_DYNARISC_IN_VERISC_H_

#include <array>
#include <cstdint>

#include "dynarisc/machine.h"
#include "support/bytes.h"
#include "support/status.h"
#include "verisc/verisc.h"

namespace ule {
namespace olonys {

/// Table / guest-region base addresses (word addresses in VeRisc memory).
inline constexpr uint32_t kLsr1Base = 0x10000;
inline constexpr uint32_t kOpBase = 0x20000;
inline constexpr uint32_t kRdBase = 0x30000;
inline constexpr uint32_t kRsBase = 0x40000;
inline constexpr uint32_t kGuestBase = 0x50000;
inline constexpr uint32_t kShr8Base = 0x60000;
inline constexpr uint32_t kShl8Base = 0x70000;

/// Per-guest-address predecode tables used only by the warm-start
/// interpreter variant (never archived; a future implementer sees only the
/// cold layout above). `handler[a]` is the VeRisc address of the handler
/// for the instruction starting at guest address `a`; the other three hold
/// its decoded rd/rs/mode fields. Host-computed by the translation cache;
/// kept coherent under guest self-modification by STM/CALL invalidation.
inline constexpr uint32_t kHandlerBase = 0x80000;
inline constexpr uint32_t kRdIdxBase = 0x90000;
inline constexpr uint32_t kRsIdxBase = 0xA0000;
inline constexpr uint32_t kModeIdxBase = 0xB0000;

/// Returns the (memoised) DynaRisc interpreter as a VeRisc program.
/// Generation is deterministic: the same program words on every call and
/// every platform, which is what makes it archivable.
const verisc::Program& DynaRiscInterpreter();

/// \brief The warm-start interpreter variant plus its host-poke metadata.
///
/// Same guest semantics as DynaRiscInterpreter(), but it skips the startup
/// work entirely (no table fill, no header parse, no image copy) and
/// dispatches through the per-address predecode tables: the host loads the
/// static tables, the guest image, the predecoded handler/operand tables
/// and the entry point directly into machine memory, and the input port
/// carries only the guest's own input stream. This program is an engine
/// acceleration — it is never archived and never leaves this process.
struct WarmInterpreter {
  verisc::Program program;
  /// Cell address to poke with the guest entry point before running.
  uint32_t gpc_addr = 0;
  /// VeRisc handler address per 5-bit guest opcode (23..31 = halt).
  std::array<uint32_t, 32> handler_addr{};
};
const WarmInterpreter& WarmDynaRiscInterpreter();

/// Packs a DynaRisc program and its input stream into the interpreter's
/// input protocol described above.
Bytes PackNestedInput(const dynarisc::Program& program, BytesView input);

/// Which execution path RunNested takes on the reference VeRisc engine.
enum class NestedMode {
  kAuto,        ///< translated when available, else cold
  kCold,        ///< always boot the archived interpreter from the ports
  kTranslated,  ///< require the cached-translation warm path
};

/// Observability for one RunNested call (bench/test instrumentation).
struct NestedRunStats {
  bool translated = false;   ///< warm path taken
  bool cache_hit = false;    ///< translation served from the shared cache
  uint64_t steps = 0;        ///< VeRisc instructions retired
  uint64_t fused = 0;        ///< of those, retired in fused superinstructions
};

/// \brief Runs `program` under nested emulation: the DynaRisc interpreter
/// (a VeRisc program) executes it on top of the VeRisc implementation `vm`
/// (defaults to the library reference; the portability experiment passes
/// the independently written ones).
///
/// Returns the guest's output bytes. The guest halting via SYS #2 (or
/// hitting an illegal opcode, which the archived interpreter defines as
/// halt) ends the run.
///
/// On the reference engine the guest's instruction stream is predecoded
/// once per program via the shared translation cache and later frames skip
/// the interpreter's startup and fetch/decode work (`mode` selects the
/// path explicitly for tests; foreign `vm` implementations always take the
/// cold archival protocol). Output bytes are identical on every path.
Result<Bytes> RunNested(const dynarisc::Program& program, BytesView input,
                        const verisc::RunOptions& options = {},
                        verisc::VmFunction vm = &verisc::Run,
                        NestedMode mode = NestedMode::kAuto,
                        NestedRunStats* stats = nullptr);

}  // namespace olonys
}  // namespace ule

#endif  // ULE_OLONYS_DYNARISC_IN_VERISC_H_
