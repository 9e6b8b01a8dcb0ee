/// \file micr_olonys.h
/// \brief Micr'Olonys: the end-to-end ULE archival system (paper §3.3).
///
/// Archival (Fig. 2a):
///   1. db_dump extracts the database as text        (minidb::DumpSql)
///   2. DBCoder compresses it                        (dbcoder::Encode)
///   3. MOCoder turns it into data emblems           (mocoder)
///   4. the decoders are written in DynaRisc         (src/decoders)
///   5. DBDecode's instruction stream becomes system emblems
///   6. MODecode + the DynaRisc emulator become the Bootstrap letters
///   7. everything is rendered to media frames       (media)
///
/// ArchiveDumpStreaming runs all seven, handing each rendered frame to a
/// filmstore sink.
///
/// Restoration (Fig. 2b) — two paths through the same scanned frames, both
/// pulling them from filmstore sources:
///   * RestoreNativeStreaming: contemporary C++ decoders (the archival-time
///     check);
///   * RestoreEmulatedStreaming: the future user's path — only the
///     Bootstrap document and the scans are used: the VeRisc emulator is
///     instantiated, the DynaRisc emulator is loaded from the Bootstrap
///     letters, MODecode decodes the system emblems to recover DBDecode,
///     and DBDecode decodes the data stream back into the SQL dump.

#ifndef ULE_CORE_MICR_OLONYS_H_
#define ULE_CORE_MICR_OLONYS_H_

#include <string>
#include <vector>

#include "core/record_index.h"
#include "dbcoder/dbcoder.h"
#include "filmstore/frame_store.h"
#include "media/image.h"
#include "media/profiles.h"
#include "mocoder/mocoder.h"
#include "support/status.h"
#include "verisc/verisc.h"

namespace ule {
namespace core {

/// \brief Version string of the complete on-film archival format.
///
/// Covers every layer a future historian must understand: the emblem
/// geometry and header, the outer RS(20,17) grouping, the DBCoder
/// container, and the Bootstrap document chain. The normative,
/// human-readable specification lives in docs/FORMAT.md, which records
/// this exact string; the docs check (tools/check_docs.py) fails the
/// build when the two diverge. Bump only with a documented, decodable
/// migration path — archived media cannot be re-written.
inline constexpr char kUleFormatVersion[] = "ULE-F1";

/// Archival parameters.
///
/// `emblem.threads` is the pipeline-wide parallelism knob: emblem
/// encode/render/decode and the data/system stream fan-out all honour it
/// (0 = automatic via `ULE_THREADS`/hardware threads, 1 = fully serial).
/// Output is byte-identical at any thread count.
struct ArchiveOptions {
  dbcoder::Scheme scheme = dbcoder::Scheme::kLzac;  ///< DBCoder scheme
  mocoder::Options emblem;                          ///< emblem geometry
  /// Build the ULE-S1 record index (docs/FORMAT.md §11): the dump is
  /// chunked along its table structure, the DBCoder stream is written
  /// segmented (UDBS, §11.1) so each chunk decodes independently, and
  /// ArchiveDumpStreaming hands the serialized index to the sink when it
  /// is an ArchiveWriter (Finish persists it). Costs a little
  /// compression ratio (per-chunk contexts); enables RestoreSelective.
  bool build_index = false;
  /// Target dump bytes per index chunk (0 = kDefaultIndexChunkBytes).
  size_t index_chunk_bytes = 0;
};

/// What remains of a streaming archive after the frames have been written
/// out: the Bootstrap document and the numbers the benches report.
struct ArchiveSummary {
  std::string bootstrap_text;       ///< the seven-page document
  mocoder::Options emblem_options;  ///< recorded for restoration (threads=0:
                                    ///< parallelism is never archival)
  /// Worker threads the archiving machine actually used (the resolved
  /// value of ArchiveOptions::emblem.threads) — reporting only, not part
  /// of the archived format.
  int threads_used = 0;
  size_t dump_bytes = 0;
  size_t compressed_bytes = 0;
  size_t data_frames = 0;
  size_t system_frames = 0;
  /// How the sink split the archive across physical reels (one entry per
  /// reel for sharding/spooling backends, empty for sinks with no reel
  /// notion). Reported by the sink itself after the last frame lands, so
  /// benches and ulectl can account per reel without knowing the backend.
  std::vector<filmstore::ReelStats> reels;
};

/// Checks `options` before anything is written: the emblem options must
/// be valid, data_side must not exceed decoders::kModecodeMaxDataSide, and
/// the DBCoder scheme must be one the archived DBDecode decodes (store,
/// lzss or lzac), or the archive's own Bootstrap could not restore it.
Status ValidateArchiveOptions(const ArchiveOptions& options);

/// \brief Steps 1-7: archives a textual database dump. Frames flow to
/// `sink` (any filmstore backend — an in-memory store, a directory of
/// scans, the ULE-C1 spool container, or a sharding reel set) through the
/// shared-pool streaming pipeline, so peak frame memory is
/// O(threads × emblem) — the shape a film recorder consumes, even when
/// the archive is much larger than RAM. The emblems and frames handed to
/// `sink` are byte-identical at any thread count.
Result<ArchiveSummary> ArchiveDumpStreaming(const std::string& sql_dump,
                                            const ArchiveOptions& options,
                                            filmstore::FrameSink& sink);

/// Restoration statistics (reported by the benches).
struct RestoreStats {
  mocoder::DecodeStats data_stream;
  mocoder::DecodeStats system_stream;
  /// VeRisc instructions of the emulated path: MODecode's
  /// (system_stream.steps + data_stream.steps) plus DBDecode's.
  uint64_t emulated_steps = 0;
};

/// \brief Fast restoration path with contemporary (C++) decoders. Frames
/// are pulled one at a time from any filmstore::FrameSource (an in-memory
/// store, a scanner shim, a directory of scans, a ULE-C1 container) and
/// decoded concurrently with at most O(threads) frames in flight. The
/// system stream is decoded first (it must match the in-tree decoder the
/// emulated path runs), then the data stream, each with the full thread
/// budget. A null `system_frames` (or one yielding nothing) skips the
/// system-stream verification.
Result<std::string> RestoreNativeStreaming(
    filmstore::FrameSource& data_frames,
    filmstore::FrameSource* system_frames,
    const mocoder::Options& emblem_options, RestoreStats* stats = nullptr);

/// \brief The full ULE path: restores using ONLY the Bootstrap text and the
/// scans, pulled one at a time from filmstore sources. `vm` is the user's
/// VeRisc implementation (any of verisc::AllImplementations, default the
/// reference).
///
/// The system emblems are decoded first, by the archived MODecode running
/// under nested emulation, which recovers the archived DBDecode program;
/// the data stream follows (reel order), and DBDecode (again under nested
/// emulation) then decompresses it. Each stream gets the full thread
/// budget: per-scan nested decodes fan out across `emblem_options.threads`
/// pool workers with O(threads) frames in flight, so `vm` must be
/// reentrant (true for all of AllImplementations — each run uses only
/// local state). The archived DBDecode then runs once per UDBS segment,
/// segments in parallel on the same workers, each within a step budget
/// derived from its raw length (ResourceExhausted naming the segment
/// beyond it); a segment whose output misses its UDB1 raw length or CRC
/// is Corruption. Output, per-stream DecodeStats, the emulated step count
/// and any error are identical at any thread count. `stats` is filled as
/// the stages finish, so a failed restore still reports what it counted.
Result<std::string> RestoreEmulatedStreaming(
    filmstore::FrameSource& data_frames,
    filmstore::FrameSource& system_frames,
    const std::string& bootstrap_text, const mocoder::Options& emblem_options,
    RestoreStats* stats = nullptr,
    verisc::VmFunction vm = &verisc::Run);

}  // namespace core
}  // namespace ule

#endif  // ULE_CORE_MICR_OLONYS_H_
