/// \file dbcoder.h
/// \brief DBCoder: the database layout encoder/decoder (paper §3.1).
///
/// DBCoder "manages compression of archived databases from their textual,
/// software-independent format into a compressed binary layout". The
/// container wraps one of several schemes:
///
///   * kStore     — no compression (baseline).
///   * kLzss      — byte/bit-oriented LZ77 (no entropy coding): simplest
///                  archived decoder; robustness baseline.
///   * kLzac      — LZ77 + adaptive binary arithmetic coding: the paper's
///                  generic scheme ("close to 7-Zip's LZMA"). This is the
///                  default archival scheme; its decoder is archived as
///                  DynaRisc assembly.
///   * kColumnar  — the paper's future-work scheme (§5): parses the SQL
///                  dump's COPY blocks and applies typed, per-column
///                  encodings (dictionary/delta/run-length); used by the
///                  compression experiment (E10).
///
/// Container layout ("UDB1"): magic, scheme byte, u32 raw length, u32
/// CRC-32 of the raw payload, then the scheme's stream. The archived
/// DynaRisc DBDecode program parses this same container.
///
/// ## Segmented streams ("UDBS", docs/FORMAT.md §11.1)
///
/// The adaptive schemes (kLzac in particular) carry stream-long decoder
/// state, so a plain UDB1 container has no random access: restoring one
/// table means decompressing everything before it. When an archive is
/// built with a record index (ULE-S1), the raw dump is instead cut into
/// chunks and each chunk becomes its *own* UDB1 container; the "UDBS"
/// wrapper frames them with a CRC-protected length table. Each segment
/// decodes independently, so a selective restore decompresses only the
/// chunks a predicate touches. `Decode` understands both shapes.

#ifndef ULE_DBCODER_DBCODER_H_
#define ULE_DBCODER_DBCODER_H_

#include <string>
#include <vector>

#include "support/bytes.h"
#include "support/status.h"

namespace ule {
namespace dbcoder {

/// Compression scheme identifiers (byte 4 of the container).
enum class Scheme : uint8_t {
  kStore = 0,
  kLzss = 1,
  kLzac = 2,
  kColumnar = 3,
};

/// Human-readable scheme name.
const char* SchemeName(Scheme scheme);

/// Compresses `raw` into a DBCoder container with the given scheme.
Result<Bytes> Encode(BytesView raw, Scheme scheme);

/// Decodes a DBCoder container produced by Encode (any scheme; the scheme
/// byte in the container decides). Validates the payload CRC.
Result<Bytes> Decode(BytesView container);

/// Size of a UDB1 container's header: magic, scheme byte, u32 raw
/// length, u32 CRC-32 of the raw payload.
inline constexpr size_t kContainerHeaderBytes = 13;

/// The header fields of one UDB1 container.
struct ContainerHeader {
  Scheme scheme = Scheme::kStore;  ///< as recorded; may be unknown
  uint32_t raw_len = 0;
  uint32_t raw_crc = 0;
};

/// Parses the header of a UDB1 container (not a UDBS stream): Corruption
/// when it is too short or its magic is wrong.
Result<ContainerHeader> ParseContainerHeader(BytesView container);

/// Peeks the scheme byte of a container without decoding (UDB1 or UDBS).
Result<Scheme> PeekScheme(BytesView container);

/// One independently decodable span of a segmented ("UDBS") stream:
/// which raw bytes it reproduces and where its UDB1 container sits in
/// the stream. All offsets are absolute (raw side: into the original
/// input; stream side: into the full UDBS stream).
struct SegmentSpan {
  uint64_t raw_offset = 0;
  uint64_t raw_len = 0;
  uint64_t stream_offset = 0;
  uint64_t stream_len = 0;
};

/// \brief Compresses `raw` into a segmented "UDBS" stream. `segments`
/// is in-out: the caller pre-fills `raw_offset`/`raw_len` with a
/// contiguous, gap-free partition of `raw` (the record-index chunk
/// plan); EncodeSegmented fills in each segment's `stream_offset`/
/// `stream_len`. Every segment is a complete, self-contained UDB1
/// container, so `Decode(stream.substr(seg))` yields exactly that
/// segment's raw bytes.
Result<Bytes> EncodeSegmented(BytesView raw, Scheme scheme,
                              std::vector<SegmentSpan>* segments);

/// True when `stream` starts with the "UDBS" segmented magic.
bool IsSegmented(BytesView stream);

/// Parses a segmented stream's header + length table (CRC-checked) and
/// reconstructs every span, raw side included (each segment container
/// records its own raw length). Fails on a plain UDB1 container.
Result<std::vector<SegmentSpan>> ListSegments(BytesView stream);

}  // namespace dbcoder
}  // namespace ule

#endif  // ULE_DBCODER_DBCODER_H_
