/// \file reel_set.h
/// \brief Sharding one archive across many reels: the ULE-R1 reel-set
/// catalog (docs/FORMAT.md §10).
///
/// A physical reel has bounded capacity and fails independently of its
/// neighbors, so a production archive is a *set* of ULE-C1 containers
/// plus one small catalog describing how the frame stream was split:
///
///   set.uler            the ULE-R1 catalog (this file's format)
///   set-000.ulec        reel 0: the first shard of frames
///   set-001.ulec        reel 1: ...
///
/// `ReelSetWriter` is a `FrameSink`: `core::ArchiveDumpStreaming` spools
/// into it unchanged, and the writer rolls to a fresh reel whenever the
/// sharding policy (max frames and/or max projected file bytes per reel)
/// says the current one is full. Every reel is an ordinary sealed ULE-C1
/// container — each opens, verifies and restores on its own — and the
/// catalog records, per reel, its frame ranges in the global stream and
/// the CRC-32 of its sealed file bytes.
///
/// `ReelSetReader` is a `ReelReader`: `ulectl restore/inspect/verify`
/// walk a reel set exactly like a single reel. Reading chains the reels'
/// own ULE-C1 frame sources in catalog order, so restored output and
/// `DecodeStats` are byte-identical to the single-container path at any
/// shard size. A damaged or missing reel degrades to a per-reel
/// `Status`: the set still opens, the surviving reels still restore
/// every frame they own, and the outer code (FORMAT.md §4) recovers what
/// it can of the rest.

#ifndef ULE_FILMSTORE_REEL_SET_H_
#define ULE_FILMSTORE_REEL_SET_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "filmstore/container.h"
#include "filmstore/frame_store.h"
#include "filmstore/reel_reader.h"
#include "mocoder/mocoder.h"
#include "support/bytes.h"
#include "support/status.h"

namespace ule {
namespace filmstore {

/// \brief Version string of the ULE-R1 reel-set catalog format.
///
/// Documented in docs/FORMAT.md (§10), which records this exact string;
/// tools/check_docs.py fails the build when the two diverge — the same
/// contract `core::kUleFormatVersion` and `kUleContainerFormatVersion`
/// have for their layers.
inline constexpr char kUleReelSetFormatVersion[] = "ULE-R1";

/// Binary version byte written in the catalog header (the "1" in
/// ULE-R1). Readers reject anything else with Unimplemented.
inline constexpr uint8_t kReelSetBinaryVersion = 1;

/// \brief When to roll to the next reel. Zero means "unbounded" for that
/// axis; with both zero the set degenerates to a single reel. A reel
/// never splits a record: the first frame of a reel always fits.
struct ShardPolicy {
  size_t max_frames_per_reel = 0;   ///< frame records per reel
  uint64_t max_bytes_per_reel = 0;  ///< projected sealed file size cap
};

/// Size + CRC-32 of a sealed file, streamed in bounded chunks — a reel
/// can be far larger than RAM, and sealing/verifying/scrubbing it must
/// not break the bounded-memory story by slurping it whole.
struct FileDigest {
  uint64_t bytes = 0;
  uint32_t crc = 0;
};

Result<FileDigest> DigestFile(const std::string& path);

/// One reel's row in the catalog: where its records sit in the global
/// stream and what its sealed file must look like.
struct CatalogReel {
  std::string name;            ///< bare file name in the catalog's directory
  uint32_t first_record = 0;   ///< global index of its first record
  uint32_t records = 0;        ///< records in this reel (incl. bootstrap)
  uint32_t first_data_frame = 0;    ///< global data-frame index range...
  uint32_t data_frames = 0;         ///< ...[first, first + count)
  uint32_t first_system_frame = 0;  ///< same for the system stream
  uint32_t system_frames = 0;
  bool has_bootstrap = false;  ///< this reel carries the Bootstrap record
  uint64_t bytes = 0;          ///< sealed file size
  uint32_t file_crc = 0;       ///< CRC-32 of the sealed file bytes
};

/// One parity reel's row in the catalog's ULE-P1 section: its file name
/// and what the encoded file must look like (docs/FORMAT.md §10.1).
struct CatalogParityReel {
  std::string name;       ///< bare file name in the catalog's directory
  uint64_t bytes = 0;     ///< encoded file size (header + stripe)
  uint32_t file_crc = 0;  ///< CRC-32 of the encoded file bytes
};

/// \brief The catalog's optional ULE-P1 parity section: m RS(n+m, n)
/// parity reels striped across the data reels' sealed file bytes, so
/// any n of the n+m files reconstruct the set (docs/FORMAT.md §10.1).
struct ParityInfo {
  uint8_t parity_reels = 0;   ///< m; 0 = no parity section
  uint64_t stripe_bytes = 0;  ///< per-stream length (longest data reel)
  std::vector<CatalogParityReel> reels;

  bool present() const { return parity_reels > 0; }
};

/// \brief The ULE-R1 catalog: one archive's identity, geometry, and the
/// reels it was sharded across (docs/FORMAT.md §10).
struct ReelCatalog {
  uint64_t archive_id = 0;          ///< caller-chosen archive identity
  mocoder::Options emblem_options;  ///< recorded geometry (threads = 0)
  std::vector<CatalogReel> reels;
  ParityInfo parity;                ///< optional ULE-P1 section

  size_t frame_count(mocoder::StreamId id) const;

  /// Serializes to the ULE-R1 wire form (CRC-protected).
  Bytes Serialize() const;
  /// Parses and validates a serialized catalog: magic, binary version
  /// (Unimplemented when unknown), trailing CRC, geometry, and that every
  /// reel name is a bare file name (not empty, `.` or `..`, and without
  /// `/`, `\` or NUL) — Corruption naming the row otherwise.
  static Result<ReelCatalog> Parse(BytesView bytes);
};

/// Reads and parses the catalog file at `path`.
Result<ReelCatalog> LoadCatalog(const std::string& path);

/// Reel file name within a set: "<catalog stem>-000.ulec", ... (shared
/// by the writer, reader and tests).
std::string ReelFileName(const std::string& catalog_path, size_t index);

/// \brief FrameSink that shards one archive across N ULE-C1 reels and
/// writes the ULE-R1 catalog on Finish. Plugs into
/// `core::ArchiveDumpStreaming` exactly like a single container; peak
/// memory stays O(1) frames.
class ReelSetWriter final : public ArchiveWriter {
 public:
  struct Options {
    ShardPolicy shard;
    ContainerWriter::Options container;  ///< per-reel options (bitonal)
    uint64_t archive_id = 0;             ///< recorded in the catalog
    /// ULE-P1 parity reels to encode on Finish (0 = none). Any
    /// `parity_reels` whole reels of the finished set can then be lost
    /// and reconstructed byte-identically.
    int parity_reels = 0;
  };

  /// Prepares a set whose catalog will live at `catalog_path`; reels are
  /// created lazily next to it (`ReelFileName`) as frames arrive.
  static Result<std::unique_ptr<ReelSetWriter>> Create(
      const std::string& catalog_path, const mocoder::Options& emblem_options,
      const Options& options);

  /// Spools one frame, rolling to a new reel when the policy says the
  /// current one is full (FrameSink). Serial, append-only.
  Status Append(mocoder::StreamId id, const mocoder::EncodedEmblem& emblem,
                media::Image&& frame) override;

  /// Appends the Bootstrap document to the current (last) reel. At most
  /// one per set; never triggers a roll — the Bootstrap rides with the
  /// final shard.
  Status AppendBootstrap(const std::string& text) override;

  /// Stores the ULE-S1 record-index section; Finish appends it as a
  /// kIndex record on the final reel (counted in that reel's catalog
  /// row), so the index rides with the shard a historian reads last.
  /// At most once, before Finish.
  Status SetIndexSection(Bytes section) override;

  /// Seals the last reel and writes the catalog. Required; appending
  /// after Finish (or finishing twice) is InvalidArgument.
  Status Finish() override;

  /// One entry per reel opened so far (sealed reels report their final
  /// size; the open reel its bytes written). Thread-safe: progress
  /// reporters may call this while the archiving thread appends.
  std::vector<ReelStats> CurrentReelStats() const override;

  size_t reel_count() const { return catalog_.reels.size(); }
  /// The catalog as built so far (complete and on disk after Finish).
  const ReelCatalog& catalog() const { return catalog_; }

 private:
  ReelSetWriter(std::string catalog_path, mocoder::Options emblem_options,
                Options options);

  /// Seals the open reel and records its sealed size + file CRC.
  Status SealCurrentReel();
  /// Rolls if appending `payload_bytes` more would overflow the policy,
  /// then makes sure a reel is open.
  Status EnsureRoomFor(uint64_t payload_bytes);

  std::string catalog_path_;
  mocoder::Options emblem_options_;
  Options options_;
  ReelCatalog catalog_;
  std::unique_ptr<ContainerWriter> current_;
  size_t current_frames_ = 0;   ///< frame records in the open reel
  size_t current_records_ = 0;  ///< all records in the open reel
  size_t total_records_ = 0;
  size_t data_frames_total_ = 0;
  size_t system_frames_total_ = 0;
  Bytes index_section_;
  bool has_index_section_ = false;
  bool finished_ = false;
  bool has_bootstrap_ = false;

  /// Guards what CurrentReelStats reads against the archiving thread:
  /// the `current_` pointer swaps (roll/seal) and the sealed-reel stats.
  /// The live reel's own counters are protected by ContainerWriter.
  mutable std::mutex stats_mu_;
  std::vector<ReelStats> sealed_stats_;
  std::string live_name_;  ///< catalog name of the open reel
};

/// \brief ReelReader over a ULE-R1 catalog and its reels. Opening
/// validates the catalog and tries every reel; a reel that is missing,
/// truncated or inconsistent with the catalog gets a per-reel error
/// Status instead of failing the whole set, and every surviving reel
/// still serves its frame ranges.
class ReelSetReader final : public ReelReader {
 public:
  /// Opens the catalog at `path`. Fails only when the catalog itself is
  /// unreadable/corrupt; per-reel damage is reported via reel_status().
  /// When the catalog carries a ULE-P1 section, every reel is digested on
  /// open and, with `options.reconstruct`, up to m damaged data reels are
  /// rebuilt from parity (into temp files removed when the reader
  /// closes) before the per-emblem recovery ever sees a loss.
  static Result<std::unique_ptr<ReelSetReader>> Open(
      const std::string& path, const ReelOpenOptions& options = {});
  ~ReelSetReader() override;

  const std::string& path() const { return path_; }
  const ReelCatalog& catalog() const { return catalog_; }
  /// OK when reel `i` is *serviceable* — it opened and matches the
  /// catalog, possibly after parity reconstruction; the failure Status
  /// (naming the reel) otherwise.
  const Status& reel_status(size_t i) const { return reel_status_[i]; }
  /// OK when reel `i`'s file on disk is pristine (matches its catalog
  /// row byte-for-byte); the damage found otherwise — even when the
  /// reel was since reconstructed and serves frames again.
  const Status& reel_damage(size_t i) const { return reel_damage_[i]; }
  /// True when reel `i` is served from a parity-reconstructed copy.
  bool reel_reconstructed(size_t i) const { return reconstructed_[i]; }
  size_t reconstructed_reels() const;
  /// Per parity reel (ULE-P1 section order): OK when its file matches
  /// the catalog. Empty when the set has no parity.
  const Status& parity_status(size_t p) const { return parity_status_[p]; }
  size_t surviving_reels() const;

  const char* kind() const override { return "ULE-R1 reel set"; }
  const mocoder::Options& emblem_options() const override {
    return catalog_.emblem_options;
  }
  /// Catalog totals — what the archive owns, including frames whose reel
  /// is currently damaged (restoration then counts them as losses for
  /// the outer code to recover).
  size_t frame_count(mocoder::StreamId id) const override {
    return catalog_.frame_count(id);
  }
  bool has_bootstrap() const override;
  Result<std::string> ReadBootstrap() const override;
  /// Pull source over one stream's frames across every *surviving* reel,
  /// in global stream order: each reel's own container source in catalog
  /// order, each dropped (its file closed) once drained.
  std::unique_ptr<FrameSource> OpenFrames(
      mocoder::StreamId id) const override;
  /// Reads one frame by its *global* stream position: the catalog's
  /// per-reel frame ranges name the owning reel, the read lands on that
  /// reel's record. A frame whose reel is damaged reports the reel's
  /// failure Status (the outer code treats it as a loss).
  Result<media::Image> ReadFrame(mocoder::StreamId id,
                                 size_t index) const override;
  /// Scans the reels last-to-first for the ULE-S1 record; writers put it
  /// on the final reel, but any surviving copy is accepted.
  Result<Bytes> ReadIndexSection() const override;
  /// The reels' own counters (streamed and seek reads), summed.
  ReadCounters read_counters() const override;
  /// Validates the whole set *as stored*: every data and parity reel
  /// matches its catalog row (sealed size + file CRC, via `AssessSet`)
  /// and every data reel passes the container integrity pass.
  /// Reconstruction does not mask damage here — a reel serving from a
  /// parity-rebuilt copy still fails Verify with the original damage,
  /// because the artifact on disk needs repair. The error names the
  /// first failing reel in catalog order (index + file) and record.
  Status Verify() const override;

 private:
  ReelSetReader() = default;

  std::string path_;  ///< the catalog file
  std::string dir_;   ///< reels live next to the catalog
  ReelCatalog catalog_;
  std::vector<std::unique_ptr<ContainerReader>> reels_;  ///< null when dead
  std::vector<Status> reel_status_;
  std::vector<Status> reel_damage_;    ///< pre-reconstruction, per data reel
  std::vector<Status> parity_status_;  ///< per parity reel
  std::vector<bool> reconstructed_;    ///< reel i serves a rebuilt copy
  std::vector<std::string> temp_files_;  ///< rebuilt copies, removed on close
};

}  // namespace filmstore
}  // namespace ule

#endif  // ULE_FILMSTORE_REEL_SET_H_
