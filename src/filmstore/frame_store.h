/// \file frame_store.h
/// \brief The film-store boundary: where rendered frames go during an
/// archive and where scanned frames come from during a restore.
///
/// The archive/restore pipeline in `core` streams frames one at a time
/// with O(threads × emblem) peak memory; this header defines the small
/// polymorphic interfaces the pipeline hands those frames across:
///
///   * `FrameSink`    — receives each rendered frame during archival;
///   * `FrameSource`  — yields scanned frames one at a time at restore.
///
/// Backends live next door: `MemoryStore` (below — frames in vectors, for
/// archives that fit in RAM), `DirectoryStore` (one image file per frame,
/// human-browsable), the single-file ULE-C1 container (`container.h`)
/// that spools archives larger than RAM to disk, and the ULE-R1 reel set
/// (`reel_set.h`) that shards one archive across many such containers.
/// The on-disk writers all implement `ArchiveWriter` (FrameSink + the
/// AppendBootstrap/Finish finalization half), so drivers seal any of
/// them through one pointer. `FunctionSink`/`FunctionSource` adapt
/// ad-hoc lambdas for call sites that just want a callback;
/// `VectorSource` replays scans a caller already holds in a vector;
/// `ScannerSource` (`scanner_source.h`) wraps any source in the print/scan
/// degradation model.

#ifndef ULE_FILMSTORE_FRAME_STORE_H_
#define ULE_FILMSTORE_FRAME_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "media/image.h"
#include "mocoder/mocoder.h"
#include "support/status.h"

namespace ule {
namespace filmstore {

/// \brief Per-reel accounting a sink can expose while (and after) an
/// archive streams through it. Single-reel backends report one entry;
/// the sharding `ReelSetWriter` (reel_set.h) reports one per reel, which
/// is how `core::ArchiveSummary` learns how the archive was split.
struct ReelStats {
  std::string name;      ///< reel path (or file name within a set)
  size_t frames = 0;     ///< frame records appended so far
  uint64_t bytes = 0;    ///< bytes written so far (final after Finish)
};

/// \brief Receives one rendered frame (and its encoded emblem) during a
/// streaming archive. Frames arrive grouped by stream — every data frame,
/// then every system frame — in sequence order within each stream, i.e.
/// reel order. A non-OK status aborts the archive. Calls never overlap,
/// and each returns before the next begins, but they come from whichever
/// pipeline worker drains mocoder::EncodeToSink's window — the archiving
/// thread or a pool worker — so a sink must not depend on thread identity
/// or thread-local state.
class FrameSink {
 public:
  virtual ~FrameSink() = default;

  virtual Status Append(mocoder::StreamId id,
                        const mocoder::EncodedEmblem& emblem,
                        media::Image&& frame) = 0;

  /// Per-reel accounting for backends that write physical reels; empty
  /// for sinks with no reel notion (memory, ad-hoc callbacks).
  virtual std::vector<ReelStats> CurrentReelStats() const { return {}; }
};

/// \brief The full writer contract of an on-disk reel backend: frames
/// stream in through FrameSink, then the caller appends the Bootstrap
/// document and seals the artifact. ContainerWriter, DirectoryWriter and
/// ReelSetWriter all implement this, so drivers (ulectl, benches) can
/// finalize any backend through one pointer instead of per-type plumbing.
class ArchiveWriter : public FrameSink {
 public:
  /// Archives the Bootstrap document so the artifact restores (even
  /// emulated) on its own. At most one per archive.
  virtual Status AppendBootstrap(const std::string& text) = 0;
  /// \brief Hands the writer the serialized ULE-S1 record-index section
  /// (core::RecordIndex::Serialize) describing the archive streamed
  /// through it; Finish persists it (as a container record, on the last
  /// reel of a set, or as a sidecar file) so a later selective restore
  /// can map tables/rows to frame records. Optional — at most once,
  /// before Finish. The section is opaque bytes at this layer.
  virtual Status SetIndexSection(Bytes section) = 0;
  /// Seals the artifact (indexes, manifests, catalogs). Required;
  /// appending after Finish (or finishing twice) is InvalidArgument.
  virtual Status Finish() = 0;
};

/// \brief Pull source of scanned frames for streaming restoration: yields
/// the next frame, nullopt when the reel is exhausted, or an error Status
/// when the backing store is unreadable (I/O failure, corrupt record).
/// Called serially from the restoring thread.
class FrameSource {
 public:
  virtual ~FrameSource() = default;

  virtual Result<std::optional<media::Image>> Next() = 0;
};

/// Adapts a callback to FrameSink.
class FunctionSink final : public FrameSink {
 public:
  using Fn = std::function<Status(mocoder::StreamId id,
                                  const mocoder::EncodedEmblem& emblem,
                                  media::Image&& frame)>;
  explicit FunctionSink(Fn fn) : fn_(std::move(fn)) {}

  Status Append(mocoder::StreamId id, const mocoder::EncodedEmblem& emblem,
                media::Image&& frame) override {
    return fn_(id, emblem, std::move(frame));
  }

 private:
  Fn fn_;
};

/// \brief Adapts a pull callback to FrameSource. The callback carries the
/// full FrameSource contract — a frame, end-of-reel, or an error Status —
/// so a backing-store read failure aborts the restore instead of
/// masquerading as a short reel.
class FunctionSource final : public FrameSource {
 public:
  using Fn = std::function<Result<std::optional<media::Image>>()>;
  explicit FunctionSource(Fn fn) : fn_(std::move(fn)) {}

  Result<std::optional<media::Image>> Next() override { return fn_(); }

 private:
  Fn fn_;
};

/// \brief Yields copies of the images of a vector, in order. The vector
/// must outlive the source.
class VectorSource final : public FrameSource {
 public:
  explicit VectorSource(const std::vector<media::Image>& frames)
      : frames_(&frames) {}

  Result<std::optional<media::Image>> Next() override {
    if (next_ >= frames_->size()) return std::optional<media::Image>();
    return std::optional<media::Image>((*frames_)[next_++]);
  }

 private:
  const std::vector<media::Image>* frames_;
  size_t next_ = 0;
};

/// \brief In-memory film store: frames (and their emblems) accumulate in
/// per-stream vectors. Peak memory is O(archive); use the ULE-C1
/// container (`container.h`) when the archive may not fit in RAM.
class MemoryStore final : public FrameSink {
 public:
  Status Append(mocoder::StreamId id, const mocoder::EncodedEmblem& emblem,
                media::Image&& frame) override;

  const std::vector<media::Image>& frames(mocoder::StreamId id) const {
    return Slot(id).frames;
  }
  const std::vector<mocoder::EncodedEmblem>& emblems(
      mocoder::StreamId id) const {
    return Slot(id).emblems;
  }

  /// Source over the stored frames of one stream (yields copies). The
  /// store must outlive the source; frames appended after the call are
  /// picked up until the source reports end-of-reel.
  std::unique_ptr<FrameSource> OpenFrames(mocoder::StreamId id) const;

 private:
  struct Stream {
    std::vector<mocoder::EncodedEmblem> emblems;
    std::vector<media::Image> frames;
  };
  const Stream& Slot(mocoder::StreamId id) const {
    return id == mocoder::StreamId::kData ? data_ : system_;
  }
  Stream& Slot(mocoder::StreamId id) {
    return id == mocoder::StreamId::kData ? data_ : system_;
  }

  Stream data_;
  Stream system_;
};

}  // namespace filmstore
}  // namespace ule

#endif  // ULE_FILMSTORE_FRAME_STORE_H_
