/// \file mocoder.h
/// \brief MOCoder façade: byte streams ⇄ emblem images (paper §3.1).
///
/// Encoding: stream bytes → group payloads (outer parity) → emblem grids
/// (inner RS + differential-Manchester modulation) → printable images.
/// Decoding: scanned images → sampled intensity grids → per-emblem decode
/// → outer reassembly (erasure recovery of whole lost emblems).
///
/// There is one pipeline per direction, each one `ParallelFor` on the
/// shared thread pool with a bounded window, so peak memory for grids and
/// frames is O(threads × emblem): `EncodeToSink` hands emblems to a sink
/// in sequence order (whichever worker finds the next emblem ready feeds
/// the sink), and `DecodeStream` pulls scans from a reel, a scanner or a
/// frame generator (the calling thread is the reader).
/// `core::ArchiveDumpStreaming` and both `core` restores are built on
/// them. The on-film format is specified in docs/FORMAT.md.

#ifndef ULE_MOCODER_MOCODER_H_
#define ULE_MOCODER_MOCODER_H_

#include <cstdint>
#include <functional>
#include <optional>

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
/// the shared pool workers; `sink` runs serially, in sequence order, on
/// whichever thread drains (the caller or a pool worker), so it must not
/// depend on thread identity. A failing or throwing sink stops the encode:
/// no later sink call happens, and its status (or exception) is returned
/// (rethrown). `frame` is an empty image when `render` is false. InvalidArgument when the
/// stream needs a sequence slot beyond the header's 16-bit `seq`/`total`
/// fields (docs/FORMAT.md §4).
Status EncodeToSink(BytesView stream, StreamId id, const Options& options,
                    bool render, const EmblemSink& sink);

/// Renders one encoded emblem to pixels.
media::Image Render(const EncodedEmblem& emblem, const Options& options);

/// Per-stream statistics of DecodeStream (experiment E8/E12 report these).
struct DecodeStats {
  int emblems_total = 0;      ///< scans pulled (see count_unsampled)
  int emblems_decoded = 0;    ///< emblems whose inner decode succeeded
  int emblems_recovered = 0;  ///< lost emblems rebuilt by the outer code
  int rs_errors_corrected = 0;
  uint64_t steps = 0;  ///< summed GridDecodeResult::steps of every scan
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

/// \brief Pulls the next scan of a stream: a scan, std::nullopt at the
/// end of the reel, or an error Status (the shape of
/// filmstore::FrameSource::Next).
using FramePull = std::function<Result<std::optional<media::Image>>()>;

/// \brief Decodes one emblem stream from scans pulled one at a time.
///
/// One ParallelFor on the shared pool: the calling thread pulls scans in
/// order into a bounded channel (2 × threads scans), decoding a queued
/// scan itself while the channel is full, and every worker (the caller
/// too, once the reel ends) samples and inner-decodes scans off it. Peak
/// image/grid memory is O(threads × emblem); only the small per-emblem
/// records accumulate. The outer-code merge runs serially in pull order,
/// so output and DecodeStats are byte-identical at any thread count.
/// Tolerates missing/destroyed emblems up to the outer code's budget (3
/// per group of 20).
///
/// `next` runs on the calling thread until it returns nullopt or an
/// error. `decode` replaces the native inner
/// decode when set. `count_unsampled` counts scans whose emblem could not
/// be sampled at all into DecodeStats::emblems_total (the emulated
/// restore does; the native one does not). Once every decode in flight
/// has finished, a read error (Status or exception) from `next` wins;
/// otherwise an exception from `decode` or sampling is rethrown, lowest
/// pull index first — the ParallelFor contract.
Result<Bytes> DecodeStream(const FramePull& next, StreamId id,
                           const Options& options,
                           GridDecodeFn decode = nullptr,
                           bool count_unsampled = false,
                           DecodeStats* stats = nullptr);

}  // namespace mocoder
}  // namespace ule

#endif  // ULE_MOCODER_MOCODER_H_
