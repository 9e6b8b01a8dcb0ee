/// \file selective.h
/// \brief Selective restoration: read only the frames a predicate needs.
///
/// A full restore (micr_olonys.h) pulls every frame off the reel; this
/// module answers "restore table `orders`" (optionally a row range and a
/// column subset) by resolving the predicate through the ULE-S1 record
/// index (record_index.h):
///
///   predicate → dump chunks → stream byte ranges → data emblem
///   sequence numbers → frame records (outer.h arithmetic) → seek reads
///   (filmstore::ReelReader::ReadFrame)
///
/// Only the touched frame records are read and only the touched emblems
/// are decoded; a decoded-payload LRU cache (32 MiB, and never less than
/// twice one group's payloads) keeps chunk overlaps and group recovery
/// from re-reading. An emblem whose inner decode fails falls
/// back to fetching its whole group (including parity frames) and
/// erasure-decoding it, exactly like the streaming path.
///
/// Whole-table selections return the *exact byte slice* of the full dump
/// (schema + rows + terminator); row-range and column selections return a
/// well-formed dump projection (schema text, the selected rows, a
/// synthesized terminator) that `minidb::LoadSql` loads directly.

#ifndef ULE_CORE_SELECTIVE_H_
#define ULE_CORE_SELECTIVE_H_

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/record_index.h"
#include "filmstore/reel_reader.h"
#include "mocoder/mocoder.h"
#include "support/status.h"

namespace ule {
namespace core {

/// What to restore. `table` is required; an empty column list means every
/// column; the default row range means every row.
struct RestorePredicate {
  std::string table;
  std::vector<std::string> columns;  ///< table order is preserved
  uint64_t row_begin = 0;
  uint64_t row_count = UINT64_MAX;

  bool all_rows() const { return row_begin == 0 && row_count == UINT64_MAX; }
  bool all_columns() const { return columns.empty(); }
};

struct SelectiveOptions {
  /// Worker threads for the fan-out over needed frame records (0 =
  /// automatic, same convention as the rest of the pipeline).
  int threads = 0;
};

/// What one selective restore cost (reader-level reads come from
/// `ReelReader::read_counters`, so they cover exactly what hit storage).
struct SelectiveStats {
  uint64_t records_read = 0;    ///< frame records fetched from the reel
  uint64_t bytes_read = 0;      ///< payload bytes of those records
  size_t emblems_decoded = 0;   ///< inner decodes run (cache misses)
  size_t emblems_recovered = 0; ///< emblems rebuilt by the outer code
  size_t chunks_decoded = 0;    ///< dump chunks materialized
  size_t cache_hits = 0;        ///< payloads served from the LRU cache
};

/// \brief Resolves predicates against one archive through its record
/// index. Open once, restore many predicates — the payload cache and the
/// (lazily) decoded whole stream persist across calls. Not thread-safe;
/// one restorer per thread.
class SelectiveRestorer {
 public:
  /// Opens `reader`'s own ULE-S1 section; NotFound when the archive
  /// carries no index — derive one with DeriveRecordIndex after a full
  /// restore and use the overload.
  static Result<SelectiveRestorer> Open(const filmstore::ReelReader& reader,
                                        const SelectiveOptions& options = {});
  /// Same, with an externally supplied (e.g. derived) index. The index
  /// must describe this archive; stream length and frame counts are
  /// cross-checked.
  static Result<SelectiveRestorer> Open(const filmstore::ReelReader& reader,
                                        RecordIndex index,
                                        const SelectiveOptions& options = {});

  const RecordIndex& index() const { return index_; }

  /// Restores the dump text selected by `pred` (see file comment for the
  /// exact shape). NotFound names the available tables when `pred.table`
  /// is not in the archive; a row range reaching past the table's end is
  /// clipped.
  Result<std::string> Restore(const RestorePredicate& pred,
                              SelectiveStats* stats = nullptr);

 private:
  SelectiveRestorer() = default;

  Result<std::string> ChunkText(size_t chunk_index);
  Result<Bytes> StreamSlice(uint64_t offset, uint64_t len);
  /// Seek-reads and inner-decodes the emblem with sequence number `seq`.
  /// Pure (no cache/stats mutation): safe to fan out across workers.
  Result<Bytes> FetchEmblem(uint16_t seq) const;
  Status RecoverGroup(int group);
  Status EnsureWholeDump();

  /// Bounded LRU over decoded emblem payloads, keyed by sequence number.
  /// It keeps no counters: a restore's hits and inner decodes are counted
  /// in its SelectiveStats (`cache_hits`, `emblems_decoded`).
  class PayloadCache {
   public:
    explicit PayloadCache(size_t budget) : budget_(budget) {}
    const Bytes* Get(uint16_t seq);
    void Put(uint16_t seq, Bytes payload);

   private:
    size_t budget_;
    size_t bytes_ = 0;
    std::list<uint16_t> lru_;  ///< front = most recently used
    std::unordered_map<uint16_t,
                       std::pair<Bytes, std::list<uint16_t>::iterator>>
        entries_;
  };

  const filmstore::ReelReader* reader_ = nullptr;
  RecordIndex index_;
  SelectiveOptions options_;
  int capacity_ = 0;  ///< payload bytes per emblem
  std::optional<PayloadCache> cache_;
  std::optional<std::string> whole_dump_;  ///< unsegmented fallback
  SelectiveStats run_;  ///< accumulator of the restore in progress
};

/// One-shot convenience over SelectiveRestorer: open the reader's index
/// and restore a single predicate.
Result<std::string> RestoreSelective(const filmstore::ReelReader& reader,
                                     const RestorePredicate& pred,
                                     const SelectiveOptions& options = {},
                                     SelectiveStats* stats = nullptr);

}  // namespace core
}  // namespace ule

#endif  // ULE_CORE_SELECTIVE_H_
