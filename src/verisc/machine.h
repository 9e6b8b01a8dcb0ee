/// \file machine.h
/// \brief The reusable VeRisc execution engine.
///
/// `verisc::Run` (verisc.h) is the library's one-shot reference entry
/// point; this header is the engine underneath it. A `Machine` owns the
/// 2^20-word memory image once and reuses it across `Load` calls (only the
/// dirtied region is re-zeroed), exposes the input/output ports as
/// pluggable interfaces, and executes through a specialized
/// opcode×address-class dispatch core: every instruction is routed to one
/// of eight handlers (LD/ST/SBB/AND × mapped/plain-memory), so the
/// per-instruction mapped-address interception of the naive interpreter
/// disappears from the plain-memory fast path. When the library is built
/// with `ULE_THREADED_DISPATCH` (default on GNU/Clang, see the CMake
/// option), the core additionally uses computed-goto direct threading.
///
/// Callers that only need the paper semantics should keep using
/// `verisc::Run`; it is a thin adapter over a per-thread Machine. Callers
/// that drive long emulations (the nested DynaRisc-in-VeRisc pipeline)
/// use the Machine directly and run it with `RunFor` under a step budget;
/// a run paused at its budget can be resumed with another `RunFor`.

#ifndef ULE_VERISC_MACHINE_H_
#define ULE_VERISC_MACHINE_H_

#include <cstdint>
#include <vector>

#include "support/bytes.h"
#include "support/status.h"
#include "verisc/verisc.h"

namespace ule {
namespace verisc {

/// Source of bytes for the memory-mapped input port (address 3).
class InputPort {
 public:
  virtual ~InputPort() = default;
  /// Returns the next byte (0..255), or 0xFFFFFFFF at end of input.
  virtual uint32_t ReadByte() = 0;
};

/// Sink for bytes written to the memory-mapped output port (address 4).
class OutputPort {
 public:
  virtual ~OutputPort() = default;
  virtual void WriteByte(uint8_t byte) = 0;
};

/// InputPort over a non-owned byte view (the spec's default behaviour).
class BytesInputPort final : public InputPort {
 public:
  BytesInputPort() = default;
  explicit BytesInputPort(BytesView bytes) : bytes_(bytes) {}
  void Reset(BytesView bytes) {
    bytes_ = bytes;
    pos_ = 0;
  }
  uint32_t ReadByte() override {
    return pos_ < bytes_.size() ? bytes_[pos_++] : 0xFFFFFFFFu;
  }

 private:
  BytesView bytes_;
  size_t pos_ = 0;
};

/// OutputPort that appends into an owned buffer.
class BytesOutputPort final : public OutputPort {
 public:
  void WriteByte(uint8_t byte) override { bytes_.push_back(byte); }
  const Bytes& bytes() const { return bytes_; }
  Bytes TakeBytes() { return std::move(bytes_); }
  void Clear() { bytes_.clear(); }

 private:
  Bytes bytes_;
};

/// Machine status after a `RunFor` slice.
enum class MachineState {
  kReady,   ///< loaded, no instruction executed yet
  kPaused,  ///< slice budget exhausted; call RunFor again to continue
  kHalted,  ///< program wrote the halt port
  kFault,   ///< illegal opcode/address or PC out of range
};

/// \brief A VeRisc machine with reusable memory and pluggable ports.
///
/// Not thread-safe; use one Machine per thread (see ThreadLocalMachine).
class Machine {
 public:
  /// Allocates (and zeroes) the 4 MiB memory image once.
  Machine();

  /// Machines constructed process-wide since start. Each construction is a
  /// 4 MiB allocate-and-zero, so the pipeline keeps this flat: the pool
  /// persistence tests assert that consecutive parallel stages reuse the
  /// per-thread machines instead of building new ones.
  static uint64_t TotalConstructed();

  /// \brief Loads `program` at kProgramOrigin and resets R/B/PC/steps.
  ///
  /// Memory is reused: only the region dirtied by previous loads/stores is
  /// re-zeroed, which makes repeated (e.g. nested-emulation) runs cheap.
  /// Ports are reset to the built-in byte-buffer ports with empty input.
  /// When the program carries a fusion plan and the engine was built with
  /// computed-goto dispatch, fusible sequences are quickened in place (in
  /// machine memory only — `program` itself is never modified).
  Status Load(const Program& program);

  /// \brief Load variant that skips the dirty-region re-zero.
  ///
  /// The caller promises to overwrite — or not depend on — every word it
  /// previously dirtied beyond the program image. Used by the warm-start
  /// nested interpreter, which re-pokes its guest image and decode tables
  /// each frame and keeps its large static tables across frames.
  Status LoadNoZero(const Program& program);

  /// Monotonic count of Load/LoadNoZero calls on this machine. Lets a
  /// caller detect whether anyone else re-loaded the machine since it last
  /// set up resident state (e.g. the warm interpreter's static tables).
  uint64_t load_seq() const { return load_seq_; }

  /// \brief Writes `count` words at absolute address `addr`.
  ///
  /// Host-side state injection (decode tables, guest images, entry-point
  /// cells); extends the dirty region so a later Load re-zeroes it.
  void WriteWords(uint32_t addr, const uint32_t* words, size_t count);

  /// Feeds `input` to the built-in input port. The view is not copied and
  /// must outlive the run.
  void SetInput(BytesView input);

  /// Plugs caller-owned ports (not owned; nullptr restores the built-in
  /// port). Allows streaming I/O without materialising buffers.
  void SetPorts(InputPort* input, OutputPort* output);

  /// \brief Executes up to `budget` further instructions.
  ///
  /// Returns kPaused when the budget ran out (the machine can continue),
  /// kHalted/kFault when the program stopped. Calling RunFor again after
  /// kHalted/kFault returns the same state without executing anything.
  MachineState RunFor(uint64_t budget);

  /// Instructions executed since the last Load.
  uint64_t steps() const { return steps_; }
  /// Current machine state (kReady until the first RunFor).
  MachineState state() const { return state_; }

  /// Per-run execution statistics (reset by Load/LoadNoZero).
  struct RunStats {
    uint64_t retired = 0;  ///< instructions executed (== steps())
    uint64_t fused = 0;    ///< of those, retired inside fused handlers
    uint64_t slices = 0;   ///< RunFor calls that entered the core
    uint64_t faults = 0;   ///< 1 when the run ended in kFault
  };
  /// Statistics for the run since the last Load — the dispatch-core
  /// instrumentation benches use to report fusion coverage.
  RunStats LastRunStats() const {
    return RunStats{steps_, fused_, slices_,
                    state_ == MachineState::kFault ? 1ull : 0ull};
  }

  /// Bytes written to the built-in output port since the last Load.
  const Bytes& output() const { return default_out_.bytes(); }
  Bytes TakeOutput() { return default_out_.TakeBytes(); }

  /// One-shot convenience preserving the exact `verisc::Run` contract
  /// (reason/step accounting); reuses this machine's memory.
  Result<RunResult> RunProgram(const Program& program, BytesView input,
                               const RunOptions& options);

 private:
  Status LoadImpl(const Program& program, bool zero_dirty);

  std::vector<uint32_t> mem_;
  uint32_t r_ = 0;
  uint32_t borrow_ = 0;
  uint32_t pc_ = kProgramOrigin;
  uint64_t steps_ = 0;
  uint64_t fused_ = 0;
  uint64_t slices_ = 0;
  uint64_t load_seq_ = 0;
  /// One past the highest word that may be non-zero (for cheap re-zeroing).
  uint32_t dirty_end_ = kProgramOrigin;
  MachineState state_ = MachineState::kReady;

  BytesInputPort default_in_;
  BytesOutputPort default_out_;
  InputPort* in_ = &default_in_;
  OutputPort* out_ = &default_out_;
};

/// \brief Per-thread scratch Machine.
///
/// The 4 MiB memory image is allocated once per thread and reused by every
/// `verisc::Run` / nested-emulation call on that thread — the engine-level
/// fix for the "zero-fill and reallocate 4 MiB per nested Run" cost. Do
/// not hold the reference across calls that may themselves run VeRisc
/// programs (the machine is not reentrant).
Machine& ThreadLocalMachine();

}  // namespace verisc
}  // namespace ule

#endif  // ULE_VERISC_MACHINE_H_
