/// \file reel_reader.h
/// \brief Uniform read surface over any sealed reel on disk.
///
/// `ContainerReader` (single-file ULE-C1), `DirectoryReader` (folder of
/// frame images) and `ReelSetReader` (ULE-R1 catalog over many sharded
/// reels) expose the same contract; this interface names it so tools
/// open "a reel" without caring which backend wrote it. `OpenReel` picks
/// the backend from the path (directory → directory reel, file starting
/// with the ULE-R1 magic → reel-set catalog, anything else → ULE-C1
/// container).

#ifndef ULE_FILMSTORE_REEL_READER_H_
#define ULE_FILMSTORE_REEL_READER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "filmstore/frame_store.h"
#include "media/image.h"
#include "mocoder/mocoder.h"
#include "support/bytes.h"
#include "support/status.h"

namespace ule {
namespace filmstore {

/// \brief Cumulative frame-record read accounting of one reader: how
/// many records were fetched from the backing store and how many payload
/// bytes they carried. Selective restoration is judged by exactly this —
/// a partial restore must *read* less, not just decode less — so the
/// counters live at the reader, where every streaming source and seek
/// read it hands out reports in.
struct ReadCounters {
  uint64_t records = 0;  ///< frame records fetched
  uint64_t bytes = 0;    ///< payload bytes of those records
};

/// \brief Shared mutable cell behind ReelReader::read_counters().
/// Sources opened by a reader hold a reference, so reads keep counting
/// even when they outlive the reader; increments are relaxed atomics
/// (sources fan record loads out across pool workers).
struct ReadCounterCell {
  std::atomic<uint64_t> records{0};
  std::atomic<uint64_t> bytes{0};

  void Count(uint64_t payload_bytes) {
    records.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(payload_bytes, std::memory_order_relaxed);
  }
  ReadCounters Snapshot() const {
    return ReadCounters{records.load(std::memory_order_relaxed),
                        bytes.load(std::memory_order_relaxed)};
  }
};

class ReelReader {
 public:
  virtual ~ReelReader() = default;

  /// Human-readable backend name ("ULE-C1 container", "directory").
  virtual const char* kind() const = 0;
  /// Recorded emblem geometry (threads = 0: never archival).
  virtual const mocoder::Options& emblem_options() const = 0;
  /// Frame records of one stream (in append = sequence order).
  virtual size_t frame_count(mocoder::StreamId id) const = 0;
  virtual bool has_bootstrap() const = 0;
  /// Reads the archived Bootstrap document; NotFound when the reel was
  /// written without one.
  virtual Result<std::string> ReadBootstrap() const = 0;
  /// Pull source over one stream's frames, loading one frame per Next()
  /// call. Self-contained; may outlive the reader.
  virtual std::unique_ptr<FrameSource> OpenFrames(
      mocoder::StreamId id) const = 0;
  /// \brief Random access by stream + emitted position — the read
  /// primitive beneath selective restoration. Reads (and validates, where
  /// the backend has checksums) one frame of `id`'s stream by its 0-based
  /// position in the order OpenFrames yields and `frame_count` counts.
  /// OutOfRange past the end; a damaged backing record surfaces as the
  /// read error the streaming path would hit at that frame. Safe to
  /// interleave with an open streaming source (readers are stateless per
  /// call).
  virtual Result<media::Image> ReadFrame(mocoder::StreamId id,
                                         size_t index) const = 0;
  /// Re-reads every record and validates what the backend can guarantee
  /// (ULE-C1: every CRC; directory: every frame file parses).
  virtual Status Verify() const = 0;
  /// \brief The serialized ULE-S1 record-index section the archive was
  /// written with (docs/FORMAT.md §11), for `core::RecordIndex::Parse`.
  /// NotFound for a reel archived before (or without) indexing — such
  /// archives stay fully restorable and an index can be re-derived by a
  /// one-pass scan (`core::DeriveRecordIndex`).
  virtual Result<Bytes> ReadIndexSection() const = 0;
  /// Frame-record reads served so far — by streaming sources this reader
  /// opened and by seek reads (ReadFrame). Thread-safe snapshot.
  virtual ReadCounters read_counters() const = 0;
};

struct ReelOpenOptions {
  /// Reel sets with ULE-P1 parity transparently rebuild up to m damaged
  /// reels on open. Verify-style callers turn this off: they judge the
  /// artifact as stored, and must not write recovery temp files into
  /// the archive directory.
  bool reconstruct = true;
};

/// Opens the reel at `path` with the matching backend.
Result<std::unique_ptr<ReelReader>> OpenReel(
    const std::string& path, const ReelOpenOptions& options = {});

}  // namespace filmstore
}  // namespace ule

#endif  // ULE_FILMSTORE_REEL_READER_H_
