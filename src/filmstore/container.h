/// \file container.h
/// \brief The ULE-C1 single-file spool container (docs/FORMAT.md §9).
///
/// A film recorder consumes frames one at a time; an archive larger than
/// RAM must therefore be able to leave the machine the same way. The
/// ULE-C1 container is the append-only on-disk shape of one reel:
///
///   header | record* | index | footer
///
/// Records (frames, one per emblem, plus an optional Bootstrap-document
/// record) are written strictly append-only as `core::ArchiveDumpStreaming`
/// emits them, so the writer holds O(1) frames and peak archive RSS stays
/// O(threads × emblem). Every record carries a CRC-32 of its payload; the
/// trailing index (one fixed-size entry per record, itself CRC-protected)
/// lets a reader seek straight to any frame, and the fixed-size footer at
/// EOF locates the index. Frames are stored as PGM (lossless) or PBM
/// (bitonal reels) images — the same serialization every other artifact
/// in the repo uses.
///
/// A reader never loads the whole file: `FrameSource`s returned by
/// `ContainerReader::OpenFrames` seek record-at-a-time, so restoration
/// through `core::RestoreNativeStreaming` / `RestoreEmulatedStreaming` is
/// bounded-memory end to end. Corruption surfaces as Status: a truncated
/// file fails to open (no footer), a flipped payload byte fails its CRC on
/// read, and an unknown container version is rejected as Unimplemented.
///
/// An *unfinished* spool (the writer died before Finish) is not lost:
/// because records are append-only and individually CRC'd, a sequential
/// scan (`ScanSpool`) recovers every complete record, and
/// `ContainerWriter::Resume` reopens the spool to keep appending or to
/// seal it — losing at most the final partial record. `ulectl resume`
/// drives this from the shell.

#ifndef ULE_FILMSTORE_CONTAINER_H_
#define ULE_FILMSTORE_CONTAINER_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "filmstore/frame_store.h"
#include "filmstore/reel_reader.h"
#include "mocoder/mocoder.h"
#include "support/bytes.h"
#include "support/status.h"

namespace ule {
namespace filmstore {

/// \brief Version string of the ULE-C1 spool container format.
///
/// Documented in docs/FORMAT.md (§9), which records this exact string;
/// tools/check_docs.py fails the build when the two diverge — the same
/// contract `core::kUleFormatVersion` has for the on-film format. The
/// one-byte binary version in the container header is the wire form of
/// this string's trailing number.
inline constexpr char kUleContainerFormatVersion[] = "ULE-C1";

/// Binary version byte written in the container header (the "1" in
/// ULE-C1). Readers reject anything else with Unimplemented.
inline constexpr uint8_t kContainerBinaryVersion = 1;

/// Record types (first byte of every record and index entry).
enum class RecordType : uint8_t {
  kDataFrame = 0,    ///< one rendered emblem of the data stream
  kSystemFrame = 1,  ///< one rendered emblem of the system stream
  kBootstrap = 2,    ///< the printed Bootstrap document (UTF-8 text)
  kIndex = 3,        ///< the ULE-S1 record-index section (FORMAT.md §11)
};

/// Fixed sizes of the ULE-C1 framing (docs/FORMAT.md §9). Public so the
/// reel-set sharding policy can project a reel's sealed file size and so
/// tests/tools can compute record offsets without reverse-engineering.
inline constexpr size_t kContainerHeaderBytes = 16;
inline constexpr size_t kContainerRecordHeaderBytes = 12;
inline constexpr size_t kContainerIndexEntryBytes = 20;
inline constexpr size_t kContainerFooterBytes = 20;

/// Payload codecs for frame records.
enum class FrameCodec : uint8_t {
  kPgm = 0,  ///< binary PGM (P5): lossless for any grayscale frame
  kPbm = 1,  ///< binary PBM (P4): bitonal; exact for rendered 0/255 frames
};

/// One parsed index entry: where a record's payload lives and how to
/// validate and decode it.
struct ContainerEntry {
  uint64_t offset = 0;       ///< file offset of the payload bytes
  uint32_t payload_len = 0;  ///< payload size in bytes
  uint32_t payload_crc = 0;  ///< CRC-32 of the payload bytes
  RecordType type = RecordType::kDataFrame;
  FrameCodec codec = FrameCodec::kPgm;  ///< meaningful for frame records
  uint16_t seq = 0;          ///< emblem sequence slot (0 for bootstrap)
};

/// \brief What a sequential scan recovered from a ULE-C1 spool
/// (docs/FORMAT.md §9.1: append-resume scan rules).
struct RecoveredSpool {
  mocoder::Options emblem_options;      ///< from the spool header
  std::vector<ContainerEntry> entries;  ///< every complete record, in order
  uint64_t recovered_bytes = 0;  ///< header + complete records
  uint64_t dropped_bytes = 0;    ///< trailing partial/corrupt record bytes
  bool sealed = false;  ///< the file already has a valid index + footer
};

/// \brief Recovers the complete records of an unfinished spool by
/// sequential scan: validates the header, then walks record headers,
/// checking each payload's CRC, and stops at the first incomplete or
/// corrupt record (everything before it is intact by construction of the
/// append-only format). A sealed container is reported with
/// `sealed = true` and its index entries instead of being re-scanned.
/// Corruption when the header itself is damaged, Unimplemented for an
/// unknown container version.
Result<RecoveredSpool> ScanSpool(const std::string& path);

/// \brief Append-only ULE-C1 writer; plugs into `ArchiveDumpStreaming` as
/// its FrameSink so frames spool to disk as they are rendered.
///
/// Call `Finish()` to seal the container (writes the index + footer); a
/// writer destroyed without Finish leaves a file with no footer, which
/// readers reject — an aborted archive can never masquerade as a reel.
class ContainerWriter final : public ArchiveWriter {
 public:
  struct Options {
    /// Store frames as bitonal PBM (8x smaller; exact for rendered
    /// frames, lossy for grayscale scans) instead of PGM.
    bool bitonal = false;
  };

  /// Creates (truncates) `path` and writes the container header. The
  /// emblem geometry is recorded so the container is self-describing for
  /// restoration; its `threads` knob is not stored (never archival).
  static Result<std::unique_ptr<ContainerWriter>> Create(
      const std::string& path, const mocoder::Options& emblem_options,
      const Options& options);
  static Result<std::unique_ptr<ContainerWriter>> Create(
      const std::string& path, const mocoder::Options& emblem_options) {
    return Create(path, emblem_options, Options());
  }

  /// \brief Reopens an *unfinished* spool (a writer that died before
  /// Finish) for appending: recovers every complete record by sequential
  /// scan (ScanSpool), truncates the trailing partial record if any, and
  /// positions the writer after the last complete record. The recovered
  /// records keep their index entries, so a subsequent Finish seals the
  /// container exactly as if the original writer had never died.
  /// InvalidArgument when the container is already sealed (it opens
  /// normally; there is nothing to resume).
  static Result<std::unique_ptr<ContainerWriter>> Resume(
      const std::string& path, const Options& options);
  static Result<std::unique_ptr<ContainerWriter>> Resume(
      const std::string& path) {
    return Resume(path, Options());
  }
  /// Resume from an already-completed scan of `path` (the ScanSpool
  /// result), so callers that inspected the spool first don't pay the
  /// sequential CRC pass twice. The scan must be current and unsealed.
  static Result<std::unique_ptr<ContainerWriter>> Resume(
      const std::string& path, RecoveredSpool scan, const Options& options);

  ~ContainerWriter() override;

  ContainerWriter(const ContainerWriter&) = delete;
  ContainerWriter& operator=(const ContainerWriter&) = delete;

  /// Spools one rendered frame (FrameSink). Serial, append-only.
  Status Append(mocoder::StreamId id, const mocoder::EncodedEmblem& emblem,
                media::Image&& frame) override;

  /// Appends one already-serialized record. This is the primitive Append
  /// and AppendBootstrap build on; the reel-set writer uses it directly so
  /// it can serialize a frame once, size the record against the shard
  /// budget, and then spool those exact bytes.
  Status AppendRecord(RecordType type, FrameCodec codec, uint16_t seq,
                      BytesView payload);

  /// Appends the Bootstrap document so the reel restores (even emulated)
  /// from the container alone. At most one per container.
  Status AppendBootstrap(const std::string& text) override;

  /// Stores the ULE-S1 record-index section; Finish writes it as a
  /// `kIndex` record ahead of the trailing index + footer.
  Status SetIndexSection(Bytes section) override;

  /// Writes the index + footer and closes the file. Required; appending
  /// after Finish (or finishing twice) is InvalidArgument.
  Status Finish() override;

  /// Bytes written so far (records only until Finish adds the tail).
  /// Thread-safe: may be polled while another thread appends.
  uint64_t bytes_written() const;

  /// Frame records appended so far (bootstrap/index records excluded).
  /// Thread-safe: may be polled while another thread appends.
  size_t frames_written() const;

  /// One entry: this container is a single reel. Thread-safe — safe to
  /// poll (e.g. for progress display) while the archiving thread is
  /// mid-Append; the snapshot is consistent at record granularity.
  std::vector<ReelStats> CurrentReelStats() const override;

 private:
  ContainerWriter(const std::string& path, const Options& options,
                  bool truncate);

  Status WriteRaw(BytesView bytes);

  std::string path_;
  Options options_;
  std::ofstream out_;
  std::vector<ContainerEntry> entries_;
  Bytes index_section_;
  bool has_index_section_ = false;
  uint64_t offset_ = 0;
  bool finished_ = false;
  bool has_bootstrap_ = false;
  /// Guards the counters CurrentReelStats() snapshots (`offset_`,
  /// `frame_records_`) against a poll racing a mid-Append mutation.
  /// Append/Finish stay single-threaded; only the stats surface is
  /// concurrent.
  mutable std::mutex stats_mu_;
  size_t frame_records_ = 0;
};

/// \brief Random-access ULE-C1 reader. Open validates the header, footer
/// and index (structure + index CRC) without touching record payloads;
/// payload CRCs are checked on every read.
class ContainerReader final : public ReelReader {
 public:
  /// Opens and validates `path`. Corruption for a damaged or truncated
  /// container, Unimplemented for an unknown container version, IoError
  /// when the host cannot read the file.
  static Result<std::unique_ptr<ContainerReader>> Open(
      const std::string& path);

  const std::string& path() const { return path_; }
  const std::vector<ContainerEntry>& entries() const { return entries_; }

  const char* kind() const override { return "ULE-C1 container"; }
  const mocoder::Options& emblem_options() const override {
    return emblem_options_;
  }
  size_t frame_count(mocoder::StreamId id) const override;
  bool has_bootstrap() const override;
  Result<std::string> ReadBootstrap() const override;
  /// Pull source over one stream's frames, decoding record-at-a-time with
  /// CRC validation — O(1) frames in memory regardless of reel size.
  std::unique_ptr<FrameSource> OpenFrames(
      mocoder::StreamId id) const override;
  /// Seeks straight to one frame record via the trailing index and reads
  /// just that record (ReadPayload + codec decode). Thread-safe; safe to
  /// interleave with an open streaming source.
  Result<media::Image> ReadFrame(mocoder::StreamId id,
                                 size_t index) const override;
  /// Reads, CRC-validates and returns one record's payload bytes.
  /// OutOfRange when `entry` is not one of this container's index
  /// entries (by offset/length), so a stale or foreign entry cannot read
  /// arbitrary file bytes.
  Result<Bytes> ReadPayload(const ContainerEntry& entry) const;
  /// The ULE-S1 section of the `kIndex` record, when present.
  Result<Bytes> ReadIndexSection() const override;
  ReadCounters read_counters() const override { return counters_->Snapshot(); }
  /// Re-reads every record payload and validates its CRC (and that frame
  /// payloads decode as images).
  Status Verify() const override;

 private:
  ContainerReader() = default;

  Result<Bytes> ReadPayloadUnchecked(const ContainerEntry& entry) const;

  std::string path_;
  mocoder::Options emblem_options_;
  std::vector<ContainerEntry> entries_;
  /// Positions (into entries_) of each stream's frame records, in
  /// emitted order — the seek path's frame index → record map.
  std::vector<size_t> data_records_;
  std::vector<size_t> system_records_;
  std::shared_ptr<ReadCounterCell> counters_ =
      std::make_shared<ReadCounterCell>();
};

/// Decodes one frame payload with its recorded codec (shared by the
/// reader, Verify, and tests).
Result<media::Image> DecodeFramePayload(FrameCodec codec, BytesView payload);

}  // namespace filmstore
}  // namespace ule

#endif  // ULE_FILMSTORE_CONTAINER_H_
