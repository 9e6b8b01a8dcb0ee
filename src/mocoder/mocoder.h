/// \file mocoder.h
/// \brief MOCoder façade: byte streams ⇄ emblem images (paper §3.1).
///
/// Encoding: stream bytes → group payloads (outer parity) → emblem grids
/// (inner RS + differential-Manchester modulation) → printable images.
/// Decoding: scanned images → sampled intensity grids → per-emblem decode
/// → outer reassembly (erasure recovery of whole lost emblems).
///
/// There is one pipeline per direction, and both stream (`EncodeToSink` /
/// `StreamDecoder`): emblems flow stage-to-stage through a bounded window
/// on the shared thread pool, so peak memory for grids and frames is
/// O(threads × emblem) — the shape `core::ArchiveDumpStreaming`, both
/// `core` restores and real scanners use. The on-film format is specified
/// in docs/FORMAT.md.

#ifndef ULE_MOCODER_MOCODER_H_
#define ULE_MOCODER_MOCODER_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "media/image.h"
#include "mocoder/detect.h"
#include "mocoder/emblem.h"
#include "mocoder/outer.h"
#include "support/bytes.h"
#include "support/status.h"

namespace ule {
namespace mocoder {

/// Format parameters shared by archival and restoration (recorded in the
/// Bootstrap document alongside the emblem geometry description).
struct Options {
  int data_side = 128;     ///< data-area cells per side (N)
  int dots_per_cell = 4;   ///< print pitch
  int quiet_cells = 2;     ///< white margin around the border
  /// Worker threads for per-emblem encode/render/decode fan-out.
  /// 0 = automatic (`ULE_THREADS` env or all hardware threads); 1 = serial.
  /// Not an archival parameter: output is byte-identical at any setting.
  int threads = 0;
};

/// Rejects nonsensical format parameters (non-positive data_side /
/// dots_per_cell, negative quiet_cells or threads) with InvalidArgument.
/// Every encode/decode entry point validates through this.
Status ValidateOptions(const Options& options);

/// One encoded emblem with its rendered image.
struct EncodedEmblem {
  EmblemHeader header;
  CellGrid grid;
};

/// \brief Receives one encoded emblem (and, when rendering was requested,
/// its frame) in sequence order. A non-OK status aborts the encode.
using EmblemSink =
    std::function<Status(EncodedEmblem&& emblem, media::Image&& frame)>;

/// \brief Splits `stream` into emblems (with outer parity) for the given
/// stream id and hands each one — with its frame when `render` is set —
/// to `sink` in sequence order through a bounded window, so peak
/// grid/frame memory is O(threads × emblem). Virtual (all-zero tail)
/// slots are skipped, so sequence numbers may have gaps. Emblem
/// construction and rendering for different sequence numbers run fused on
/// the shared pool workers; `sink` runs on the calling thread. `frame` is
/// an empty image when `render` is false. InvalidArgument when the
/// stream needs a sequence slot beyond the header's 16-bit `seq`/`total`
/// fields (docs/FORMAT.md §4).
Status EncodeToSink(BytesView stream, StreamId id, const Options& options,
                    bool render, const EmblemSink& sink);

/// Renders one encoded emblem to pixels.
media::Image Render(const EncodedEmblem& emblem, const Options& options);

/// Per-stream statistics of StreamDecoder (experiment E8/E12 report these).
struct DecodeStats {
  int emblems_total = 0;      ///< scans pushed (see count_unsampled)
  int emblems_decoded = 0;    ///< emblems whose inner decode succeeded
  int emblems_recovered = 0;  ///< lost emblems rebuilt by the outer code
  int rs_errors_corrected = 0;
  uint64_t steps = 0;  ///< summed GridDecodeResult::steps of every push
};

/// Outcome of decoding one sampled intensity grid (see GridDecodeFn).
struct GridDecodeResult {
  bool ok = false;      ///< header+payload recovered (any stream id)
  EmblemHeader header;  ///< valid when ok
  Bytes payload;        ///< exactly EmblemCapacity(data_side) bytes when ok
  int rs_errors_corrected = 0;
  uint64_t steps = 0;   ///< VM instructions (emulated decoders; else 0)
};

/// \brief Decodes one data_side × data_side intensity grid into header +
/// payload. Must be thread-safe (called concurrently from pool workers).
/// The default is the native inner decode (DecodeEmblemIntensities); the
/// emulated restore path plugs in the archived MODecode program running
/// under nested emulation.
using GridDecodeFn = std::function<GridDecodeResult(BytesView grid)>;

/// \brief Push-driven streaming decoder for one emblem stream.
///
/// Scans are pushed one at a time — from a frame source, a scanner, or a
/// frame generator — and are sampled + inner-decoded concurrently on the
/// shared pool with a bounded number in flight, so peak image/grid memory
/// is O(threads × emblem) regardless of archive size. Only the small
/// per-emblem records (header + payload) accumulate. `Finish` performs the
/// deterministic serial merge (outer-code reassembly) in push order,
/// making output and DecodeStats byte-identical at any thread count.
/// Tolerates missing/destroyed emblems up to the outer code's budget (3
/// per group of 20).
///
/// Not thread-safe: Push/Finish must be called from one thread.
class StreamDecoder {
 public:
  /// `decode` replaces the native inner decode when set.
  /// `count_unsampled` controls whether scans whose emblem could not be
  /// sampled at all count into DecodeStats::emblems_total (the native
  /// restore excludes them; the emulated restore path counts every scan).
  StreamDecoder(StreamId id, const Options& options,
                GridDecodeFn decode = nullptr, bool count_unsampled = false);
  /// Drains outstanding work (discarding results) if Finish was not called.
  ~StreamDecoder();

  StreamDecoder(const StreamDecoder&) = delete;
  StreamDecoder& operator=(const StreamDecoder&) = delete;

  /// Queues one scan, transferring ownership. Blocks (by helping decode)
  /// when the bounded window is full.
  Status Push(media::Image scan);

  /// Completes all queued work and reassembles the stream. An exception
  /// thrown by the decode function (or during sampling) is captured on the
  /// worker and rethrown here, lowest push index first — the ParallelFor
  /// contract. A second Finish, or a Push after Finish, returns
  /// InvalidArgument.
  Result<Bytes> Finish(DecodeStats* stats = nullptr);

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace mocoder
}  // namespace ule

#endif  // ULE_MOCODER_MOCODER_H_
