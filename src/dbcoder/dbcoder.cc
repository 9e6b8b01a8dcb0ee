#include "dbcoder/dbcoder.h"

#include <algorithm>

#include "dbcoder/columnar.h"
#include "dbcoder/lz77.h"
#include "dbcoder/rangecoder.h"
#include "support/crc32.h"

namespace ule {
namespace dbcoder {
namespace {

constexpr std::string_view kMagic = "UDB1";

// Segmented-stream framing (docs/FORMAT.md §11.1): magic, binary
// version, the shared scheme byte, the segment length table, and a
// CRC-32 over all of it, followed by the segment containers themselves.
constexpr std::string_view kSegmentedMagic = "UDBS";
constexpr uint8_t kSegmentedBinaryVersion = 1;
// magic(4) + version(1) + scheme(1) + reserved(2) + count(4) + raw_total(8)
constexpr size_t kSegmentedHeaderBytes = 20;

// ---- LZSS bit stream: flag bit, then literal byte or 13-bit distance-1 +
// 5-bit length-kMinMatch. MSB-first. ----

Bytes LzssEncode(BytesView raw) {
  BitWriter w;
  for (const Token& t : Parse(raw)) {
    if (t.is_match) {
      w.PutBit(1);
      w.PutBits(t.distance - 1u, kWindowBits);
      w.PutBits(t.length - kMinMatch, kLengthBits);
    } else {
      w.PutBit(0);
      w.PutBits(t.literal, 8);
    }
  }
  return w.Finish();
}

Result<Bytes> LzssDecode(BytesView stream, size_t raw_len) {
  BitReader r(stream);
  Bytes out;
  out.reserve(std::min(raw_len, stream.size() * kMaxExpansion));
  while (out.size() < raw_len) {
    const int flag = r.GetBit();
    if (flag < 0) return Status::Corruption("LZSS: truncated stream");
    if (flag == 0) {
      uint32_t lit;
      if (!r.GetBits(8, &lit)) return Status::Corruption("LZSS: bad literal");
      out.push_back(static_cast<uint8_t>(lit));
    } else {
      uint32_t dist, len;
      if (!r.GetBits(kWindowBits, &dist) || !r.GetBits(kLengthBits, &len)) {
        return Status::Corruption("LZSS: bad match");
      }
      dist += 1;
      len += kMinMatch;
      if (dist > out.size()) return Status::Corruption("LZSS: bad distance");
      const size_t start = out.size() - dist;
      for (uint32_t i = 0; i < len && out.size() < raw_len; ++i) {
        out.push_back(out[start + i]);
      }
    }
  }
  return out;
}

// ---- LZAC: the same token structure, every bit arithmetic-coded. Context
// layout (mirrored by the DynaRisc decoder, decoders/dbdecode.cc):
//   [0]         flag (after literal)
//   [1]         flag (after match)
//   [2..257]    literal bit-tree (256 nodes)
//   [258..321]  distance high bit-tree (first 6 of 13 bits, 64 nodes)
//   [322..353]  length bit-tree (32 nodes)
//   [354]       direct-bit context (for the low 7 distance bits; fixed use)
constexpr int kCtxFlagLit = 0;
constexpr int kCtxFlagMatch = 1;
constexpr int kCtxLiteral = 2;      // 256
constexpr int kCtxDistHigh = 258;   // 64
constexpr int kCtxLength = 322;     // 32
constexpr int kCtxDirect = 354;     // 1 (re-adapting shared context)
constexpr int kCtxCount = 355;

class LzacContexts {
 public:
  LzacContexts() { probs_.assign(kCtxCount, kProbInit); }
  uint8_t* at(int i) { return &probs_[static_cast<size_t>(i)]; }

 private:
  std::vector<uint8_t> probs_;
};

// Encodes `bits` of `value` MSB-first through a bit tree rooted at `base`
// with 2^bits-1 usable nodes (classic LZMA bit-tree: node index doubles).
void TreeEncode(RangeEncoder* enc, LzacContexts* ctx, int base, uint32_t value,
                int bits) {
  uint32_t node = 1;
  for (int i = bits - 1; i >= 0; --i) {
    const int bit = (value >> i) & 1;
    enc->EncodeBit(ctx->at(base + static_cast<int>(node) - 1), bit);
    node = (node << 1) | static_cast<uint32_t>(bit);
  }
}

uint32_t TreeDecode(RangeDecoder* dec, LzacContexts* ctx, int base, int bits) {
  uint32_t node = 1;
  for (int i = 0; i < bits; ++i) {
    const int bit = dec->DecodeBit(ctx->at(base + static_cast<int>(node) - 1));
    node = (node << 1) | static_cast<uint32_t>(bit);
  }
  return node - (1u << bits);
}

Bytes LzacEncode(BytesView raw) {
  RangeEncoder enc;
  LzacContexts ctx;
  bool prev_match = false;
  for (const Token& t : Parse(raw)) {
    uint8_t* flag_ctx = ctx.at(prev_match ? kCtxFlagMatch : kCtxFlagLit);
    if (t.is_match) {
      enc.EncodeBit(flag_ctx, 1);
      const uint32_t dist = t.distance - 1u;  // 13 bits
      TreeEncode(&enc, &ctx, kCtxDistHigh, dist >> 7, 6);
      for (int i = 6; i >= 0; --i) {
        enc.EncodeBit(ctx.at(kCtxDirect), (dist >> i) & 1);
      }
      TreeEncode(&enc, &ctx, kCtxLength, t.length - kMinMatch, kLengthBits);
      prev_match = true;
    } else {
      enc.EncodeBit(flag_ctx, 0);
      TreeEncode(&enc, &ctx, kCtxLiteral, t.literal, 8);
      prev_match = false;
    }
  }
  return enc.Finish();
}

Result<Bytes> LzacDecode(BytesView stream, size_t raw_len) {
  RangeDecoder dec(stream);
  LzacContexts ctx;
  Bytes out;
  out.reserve(std::min(raw_len, stream.size() * kMaxExpansion));
  bool prev_match = false;
  while (out.size() < raw_len) {
    // Past the encoder's flush the decoder only sees zero bytes: a raw
    // length the stream cannot fill is corrupt, and must not cost time
    // linear in the forged length before the CRC check rejects it.
    if (dec.overrun() > kFlushBytes) {
      return Status::Corruption("LZAC: stream ends before raw length");
    }
    uint8_t* flag_ctx = ctx.at(prev_match ? kCtxFlagMatch : kCtxFlagLit);
    if (dec.DecodeBit(flag_ctx) == 0) {
      out.push_back(static_cast<uint8_t>(TreeDecode(&dec, &ctx, kCtxLiteral, 8)));
      prev_match = false;
    } else {
      uint32_t dist = TreeDecode(&dec, &ctx, kCtxDistHigh, 6);
      for (int i = 0; i < 7; ++i) {
        dist = (dist << 1) |
               static_cast<uint32_t>(dec.DecodeBit(ctx.at(kCtxDirect)));
      }
      dist += 1;
      const uint32_t len = TreeDecode(&dec, &ctx, kCtxLength, kLengthBits) +
                           kMinMatch;
      if (dist > out.size()) return Status::Corruption("LZAC: bad distance");
      const size_t start = out.size() - dist;
      for (uint32_t i = 0; i < len && out.size() < raw_len; ++i) {
        out.push_back(out[start + i]);
      }
      prev_match = true;
    }
  }
  return out;
}

}  // namespace

// Bridges for columnar.cc, which compresses its text sections and string
// blobs with the same LZAC stream format.
Result<Bytes> LzacEncodeForColumnar(BytesView raw) { return LzacEncode(raw); }
Result<Bytes> LzacDecodeForColumnar(BytesView stream, size_t raw_len) {
  return LzacDecode(stream, raw_len);
}

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kStore:
      return "store";
    case Scheme::kLzss:
      return "lzss";
    case Scheme::kLzac:
      return "lzac";
    case Scheme::kColumnar:
      return "columnar";
  }
  return "unknown";
}

Result<Bytes> Encode(BytesView raw, Scheme scheme) {
  Bytes stream;
  switch (scheme) {
    case Scheme::kStore:
      stream.assign(raw.begin(), raw.end());
      break;
    case Scheme::kLzss:
      stream = LzssEncode(raw);
      break;
    case Scheme::kLzac:
      stream = LzacEncode(raw);
      break;
    case Scheme::kColumnar: {
      ULE_ASSIGN_OR_RETURN(stream, ColumnarEncode(raw));
      break;
    }
    default:
      return Status::InvalidArgument("unknown DBCoder scheme");
  }
  ByteWriter w;
  w.PutString(kMagic);
  w.PutU8(static_cast<uint8_t>(scheme));
  w.PutU32(static_cast<uint32_t>(raw.size()));
  w.PutU32(Crc32(raw));
  w.PutBytes(stream);
  return w.TakeBytes();
}

Result<Scheme> PeekScheme(BytesView container) {
  if (IsSegmented(container)) {
    if (container.size() < kSegmentedHeaderBytes) {
      return Status::Corruption("DBCoder: segmented stream too short");
    }
    return static_cast<Scheme>(container[5]);
  }
  ULE_ASSIGN_OR_RETURN(ContainerHeader header,
                       ParseContainerHeader(container));
  return header.scheme;
}

Result<ContainerHeader> ParseContainerHeader(BytesView container) {
  if (container.size() < kContainerHeaderBytes) {
    return Status::Corruption("DBCoder: too short");
  }
  if (ToString(container.first(4)) != kMagic) {
    return Status::Corruption("DBCoder: bad magic");
  }
  ContainerHeader header;
  header.scheme = static_cast<Scheme>(container[4]);
  ByteReader r(container.subspan(5));
  ULE_RETURN_IF_ERROR(r.GetU32(&header.raw_len));
  ULE_RETURN_IF_ERROR(r.GetU32(&header.raw_crc));
  return header;
}

bool IsSegmented(BytesView stream) {
  return stream.size() >= 4 &&
         ToString(BytesView(stream.data(), 4)) == kSegmentedMagic;
}

Result<Bytes> EncodeSegmented(BytesView raw, Scheme scheme,
                              std::vector<SegmentSpan>* segments) {
  if (segments == nullptr || segments->empty()) {
    return Status::InvalidArgument(
        "EncodeSegmented needs a non-empty segment plan");
  }
  // The plan must tile the input exactly: segment boundaries ARE the
  // random-access boundaries, so a gap or overlap would silently decode
  // to something other than `raw`.
  uint64_t expect = 0;
  for (const SegmentSpan& seg : *segments) {
    if (seg.raw_offset != expect) {
      return Status::InvalidArgument(
          "segment plan has a gap/overlap at raw offset " +
          std::to_string(seg.raw_offset));
    }
    expect += seg.raw_len;
  }
  if (expect != raw.size()) {
    return Status::InvalidArgument("segment plan does not cover the input");
  }

  std::vector<Bytes> containers;
  containers.reserve(segments->size());
  for (const SegmentSpan& seg : *segments) {
    ULE_ASSIGN_OR_RETURN(
        Bytes container,
        Encode(raw.subspan(static_cast<size_t>(seg.raw_offset),
                           static_cast<size_t>(seg.raw_len)),
               scheme));
    containers.push_back(std::move(container));
  }

  ByteWriter w;
  w.PutString(kSegmentedMagic);
  w.PutU8(kSegmentedBinaryVersion);
  w.PutU8(static_cast<uint8_t>(scheme));
  w.PutU16(0);  // reserved
  w.PutU32(static_cast<uint32_t>(segments->size()));
  w.PutU64(raw.size());
  for (const Bytes& container : containers) {
    w.PutU32(static_cast<uint32_t>(container.size()));
  }
  w.PutU32(Crc32(w.bytes()));

  uint64_t stream_offset = w.size();
  for (size_t i = 0; i < containers.size(); ++i) {
    (*segments)[i].stream_offset = stream_offset;
    (*segments)[i].stream_len = containers[i].size();
    stream_offset += containers[i].size();
    w.PutBytes(containers[i]);
  }
  return w.TakeBytes();
}

Result<std::vector<SegmentSpan>> ListSegments(BytesView stream) {
  if (!IsSegmented(stream)) {
    return Status::InvalidArgument("not a segmented (UDBS) stream");
  }
  if (stream.size() < kSegmentedHeaderBytes + 4) {
    return Status::Corruption("DBCoder: segmented stream too short");
  }
  if (stream[4] != kSegmentedBinaryVersion) {
    return Status::Unimplemented("unsupported UDBS version " +
                                 std::to_string(stream[4]));
  }
  ByteReader r(stream.subspan(8));
  uint32_t count = 0;
  uint64_t raw_total = 0;
  ULE_RETURN_IF_ERROR(r.GetU32(&count));
  ULE_RETURN_IF_ERROR(r.GetU64(&raw_total));
  const size_t table_end = kSegmentedHeaderBytes +
                           static_cast<size_t>(count) * 4 + 4;
  if (count == 0 || stream.size() < table_end) {
    return Status::Corruption("UDBS segment table does not fit the stream");
  }
  uint32_t stored_crc = 0;
  {
    ByteReader c(stream.subspan(table_end - 4));
    ULE_RETURN_IF_ERROR(c.GetU32(&stored_crc));
  }
  if (Crc32(stream.subspan(0, table_end - 4)) != stored_crc) {
    return Status::Corruption("UDBS segment table CRC mismatch");
  }

  std::vector<SegmentSpan> segments;
  segments.reserve(count);
  uint64_t stream_offset = table_end;
  uint64_t raw_offset = 0;
  ByteReader lens(stream.subspan(kSegmentedHeaderBytes));
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    ULE_RETURN_IF_ERROR(lens.GetU32(&len));
    if (len < kContainerHeaderBytes || stream_offset + len > stream.size()) {
      return Status::Corruption("UDBS segment " + std::to_string(i) +
                                " overruns the stream");
    }
    // Each segment is a full UDB1 container; its raw length sits at
    // container offset 5 (after magic + scheme byte).
    uint32_t seg_raw = 0;
    ByteReader h(stream.subspan(static_cast<size_t>(stream_offset) + 5));
    ULE_RETURN_IF_ERROR(h.GetU32(&seg_raw));
    SegmentSpan seg;
    seg.raw_offset = raw_offset;
    seg.raw_len = seg_raw;
    seg.stream_offset = stream_offset;
    seg.stream_len = len;
    segments.push_back(seg);
    stream_offset += len;
    raw_offset += seg_raw;
  }
  if (stream_offset != stream.size()) {
    return Status::Corruption("UDBS stream has trailing bytes");
  }
  if (raw_offset != raw_total) {
    return Status::Corruption("UDBS raw total disagrees with its segments");
  }
  return segments;
}

Result<Bytes> Decode(BytesView container) {
  if (IsSegmented(container)) {
    ULE_ASSIGN_OR_RETURN(std::vector<SegmentSpan> segments,
                         ListSegments(container));
    Bytes raw;
    for (const SegmentSpan& seg : segments) {
      ULE_ASSIGN_OR_RETURN(
          Bytes part,
          Decode(container.subspan(static_cast<size_t>(seg.stream_offset),
                                   static_cast<size_t>(seg.stream_len))));
      raw.insert(raw.end(), part.begin(), part.end());
    }
    return raw;
  }
  ULE_ASSIGN_OR_RETURN(ContainerHeader header,
                       ParseContainerHeader(container));
  const uint32_t raw_len = header.raw_len;
  const BytesView stream = container.subspan(kContainerHeaderBytes);

  Bytes raw;
  switch (header.scheme) {
    case Scheme::kStore:
      if (stream.size() < raw_len) {
        return Status::Corruption("store: truncated");
      }
      raw.assign(stream.begin(), stream.begin() + raw_len);
      break;
    case Scheme::kLzss: {
      ULE_ASSIGN_OR_RETURN(raw, LzssDecode(stream, raw_len));
      break;
    }
    case Scheme::kLzac: {
      ULE_ASSIGN_OR_RETURN(raw, LzacDecode(stream, raw_len));
      break;
    }
    case Scheme::kColumnar: {
      ULE_ASSIGN_OR_RETURN(raw, ColumnarDecode(stream, raw_len));
      break;
    }
    default:
      return Status::Corruption("DBCoder: unknown scheme byte " +
                                std::to_string(container[4]));
  }
  if (raw.size() != raw_len) {
    return Status::Corruption("DBCoder: length mismatch after decode");
  }
  if (Crc32(raw) != header.raw_crc) {
    return Status::Corruption("DBCoder: payload CRC mismatch");
  }
  return raw;
}

}  // namespace dbcoder
}  // namespace ule
