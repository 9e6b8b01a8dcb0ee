#include "dbcoder/columnar.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dbcoder/lz77.h"
#include "support/date.h"

namespace ule {
namespace dbcoder {

// The verbatim fallback reuses LZAC through the public container API.
Result<Bytes> LzacEncodeForColumnar(BytesView raw);
Result<Bytes> LzacDecodeForColumnar(BytesView stream, size_t raw_len);

namespace {

// ---- varint / zigzag ----

void PutVarint(Bytes* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

Status GetVarint(ByteReader* r, uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    uint8_t b;
    ULE_RETURN_IF_ERROR(r->GetU8(&b));
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if (!(b & 0x80)) break;
    shift += 7;
    if (shift > 63) return Status::Corruption("varint too long");
  }
  *out = v;
  return Status::OK();
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// ---- value parsing with exact-reconstruction guarantees ----

// Plain integer with no leading zeros (except "0"), optional '-'.
std::optional<int64_t> ParseExactInt(const std::string& s) {
  if (s.empty() || s.size() > 18) return std::nullopt;
  size_t i = (s[0] == '-') ? 1 : 0;
  if (i == s.size()) return std::nullopt;
  if (s[i] == '0' && s.size() > i + 1) return std::nullopt;
  int64_t v = 0;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return std::nullopt;
    v = v * 10 + (s[i] - '0');
  }
  return (s[0] == '-') ? -v : v;
}

// Decimal "intpart.frac" with exactly `scale` fraction digits.
std::optional<int64_t> ParseExactDecimal(const std::string& s, int scale) {
  const size_t dot = s.find('.');
  if (dot == std::string::npos) return std::nullopt;
  if (static_cast<int>(s.size() - dot - 1) != scale) return std::nullopt;
  const std::string ip = s.substr(0, dot);
  const std::string fp = s.substr(dot + 1);
  const bool neg = !ip.empty() && ip[0] == '-';
  const std::string ip_digits = neg ? ip.substr(1) : ip;
  if (ip_digits.empty()) return std::nullopt;
  if (ip_digits[0] == '0' && ip_digits.size() > 1) return std::nullopt;
  int64_t intpart = 0;
  for (char c : ip_digits) {
    if (c < '0' || c > '9') return std::nullopt;
    intpart = intpart * 10 + (c - '0');
  }
  int64_t frac = 0;
  for (char c : fp) {
    if (c < '0' || c > '9') return std::nullopt;
    frac = frac * 10 + (c - '0');
  }
  int64_t pow10 = 1;
  for (int i = 0; i < scale; ++i) pow10 *= 10;
  const int64_t v = intpart * pow10 + frac;
  return neg ? -v : v;
}

std::string FormatDecimal(int64_t v, int scale) {
  const bool neg = v < 0;
  uint64_t a = neg ? static_cast<uint64_t>(-v) : static_cast<uint64_t>(v);
  uint64_t pow10 = 1;
  for (int i = 0; i < scale; ++i) pow10 *= 10;
  std::string frac = std::to_string(a % pow10);
  frac.insert(0, static_cast<size_t>(scale) - frac.size(), '0');
  return (neg ? "-" : "") + std::to_string(a / pow10) + "." + frac;
}

// ---- column encodings ----

enum ColumnKind : uint8_t {
  kColInt = 0,
  kColDecimal = 1,
  kColDate = 2,
  kColDict = 3,
  kColBlob = 4,
};

// Section tags of the stream.
enum SectionTag : uint8_t { kSectionText = 0, kSectionCopy = 1, kSectionEnd = 2 };

struct CopyBlock {
  std::string header;                            // the COPY ... line, with \n
  std::vector<std::vector<std::string>> rows;    // [row][col]
  size_t columns = 0;
};

// Scans `text` from `pos`: if a well-formed COPY block starts there, parses
// it (header line through the "\." line) and returns it.
std::optional<CopyBlock> TryParseCopy(const std::string& text, size_t pos,
                                      size_t* end_pos) {
  if (text.compare(pos, 5, "COPY ") != 0) return std::nullopt;
  const size_t hdr_end = text.find('\n', pos);
  if (hdr_end == std::string::npos) return std::nullopt;
  CopyBlock block;
  block.header = text.substr(pos, hdr_end - pos + 1);
  if (block.header.find("FROM stdin;") == std::string::npos) return std::nullopt;

  size_t p = hdr_end + 1;
  while (true) {
    const size_t line_end = text.find('\n', p);
    if (line_end == std::string::npos) return std::nullopt;  // unterminated
    const std::string line = text.substr(p, line_end - p);
    p = line_end + 1;
    if (line == "\\.") break;
    std::vector<std::string> fields;
    size_t start = 0;
    while (true) {
      const size_t tab = line.find('\t', start);
      if (tab == std::string::npos) {
        fields.push_back(line.substr(start));
        break;
      }
      fields.push_back(line.substr(start, tab - start));
      start = tab + 1;
    }
    if (block.rows.empty()) {
      block.columns = fields.size();
    } else if (fields.size() != block.columns) {
      return std::nullopt;  // ragged rows: not reconstructible columnarly
    }
    block.rows.push_back(std::move(fields));
  }
  *end_pos = p;
  return block;
}

std::string ReassembleCopy(const CopyBlock& block) {
  std::string out = block.header;
  for (const auto& row : block.rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c) out.push_back('\t');
      out += row[c];
    }
    out.push_back('\n');
  }
  out += "\\.\n";
  return out;
}

// Encodes one column; chooses the cheapest applicable kind.
void EncodeColumn(const std::vector<std::vector<std::string>>& rows, size_t col,
                  Bytes* out) {
  std::vector<const std::string*> vals;
  vals.reserve(rows.size());
  for (const auto& r : rows) vals.push_back(&r[col]);

  // Integers?
  {
    std::vector<int64_t> ints;
    ints.reserve(vals.size());
    bool ok = true;
    for (const auto* v : vals) {
      auto p = ParseExactInt(*v);
      if (!p) {
        ok = false;
        break;
      }
      ints.push_back(*p);
    }
    if (ok) {
      out->push_back(kColInt);
      int64_t prev = 0;
      for (int64_t v : ints) {
        PutVarint(out, ZigZag(v - prev));
        prev = v;
      }
      return;
    }
  }
  // Decimals with a uniform scale?
  {
    const size_t dot = vals[0]->find('.');
    if (dot != std::string::npos) {
      const int scale = static_cast<int>(vals[0]->size() - dot - 1);
      if (scale >= 1 && scale <= 9) {
        std::vector<int64_t> decs;
        decs.reserve(vals.size());
        bool ok = true;
        for (const auto* v : vals) {
          auto p = ParseExactDecimal(*v, scale);
          if (!p) {
            ok = false;
            break;
          }
          decs.push_back(*p);
        }
        if (ok) {
          out->push_back(kColDecimal);
          out->push_back(static_cast<uint8_t>(scale));
          int64_t prev = 0;
          for (int64_t v : decs) {
            PutVarint(out, ZigZag(v - prev));
            prev = v;
          }
          return;
        }
      }
    }
  }
  // Dates?
  {
    std::vector<int64_t> days;
    days.reserve(vals.size());
    bool ok = true;
    for (const auto* v : vals) {
      auto p = ParseDate(*v);
      if (!p.ok()) {
        ok = false;
        break;
      }
      days.push_back(p.value());
    }
    if (ok) {
      out->push_back(kColDate);
      int64_t prev = 0;
      for (int64_t v : days) {
        PutVarint(out, ZigZag(v - prev));
        prev = v;
      }
      return;
    }
  }
  // Small-cardinality dictionary?
  {
    std::map<std::string, size_t> dict;
    for (const auto* v : vals) {
      if (dict.size() > 255) break;
      dict.emplace(*v, 0);
    }
    if (dict.size() <= 255 && dict.size() * 4 < vals.size() * 3) {
      out->push_back(kColDict);
      PutVarint(out, dict.size());
      size_t next = 0;
      for (auto& [key, id] : dict) {
        id = next++;
        PutVarint(out, key.size());
        out->insert(out->end(), key.begin(), key.end());
      }
      for (const auto* v : vals) {
        out->push_back(static_cast<uint8_t>(dict[*v]));
      }
      return;
    }
  }
  // Fallback: newline-joined blob, LZAC-compressed.
  {
    std::string joined;
    for (const auto* v : vals) {
      joined += *v;
      joined.push_back('\n');
    }
    out->push_back(kColBlob);
    const Bytes raw = ToBytes(joined);
    const Bytes packed = LzacEncodeForColumnar(raw).TakeValue();
    PutVarint(out, raw.size());
    PutVarint(out, packed.size());
    out->insert(out->end(), packed.begin(), packed.end());
  }
}

Status DecodeColumn(ByteReader* r, size_t row_count,
                    std::vector<std::string>* out) {
  out->clear();
  out->reserve(row_count);
  uint8_t kind;
  ULE_RETURN_IF_ERROR(r->GetU8(&kind));
  switch (kind) {
    case kColInt:
    case kColDate: {
      int64_t prev = 0;
      for (size_t i = 0; i < row_count; ++i) {
        uint64_t zz;
        ULE_RETURN_IF_ERROR(GetVarint(r, &zz));
        prev += UnZigZag(zz);
        out->push_back(kind == kColInt ? std::to_string(prev)
                                       : FormatDate(prev));
      }
      return Status::OK();
    }
    case kColDecimal: {
      uint8_t scale;
      ULE_RETURN_IF_ERROR(r->GetU8(&scale));
      int64_t prev = 0;
      for (size_t i = 0; i < row_count; ++i) {
        uint64_t zz;
        ULE_RETURN_IF_ERROR(GetVarint(r, &zz));
        prev += UnZigZag(zz);
        out->push_back(FormatDecimal(prev, scale));
      }
      return Status::OK();
    }
    case kColDict: {
      uint64_t dict_size;
      ULE_RETURN_IF_ERROR(GetVarint(r, &dict_size));
      std::vector<std::string> dict;
      dict.reserve(dict_size);
      for (uint64_t i = 0; i < dict_size; ++i) {
        uint64_t len;
        ULE_RETURN_IF_ERROR(GetVarint(r, &len));
        Bytes s;
        ULE_RETURN_IF_ERROR(r->GetBytes(len, &s));
        dict.push_back(ToString(s));
      }
      for (size_t i = 0; i < row_count; ++i) {
        uint8_t id;
        ULE_RETURN_IF_ERROR(r->GetU8(&id));
        if (id >= dict.size()) return Status::Corruption("dict id range");
        out->push_back(dict[id]);
      }
      return Status::OK();
    }
    case kColBlob: {
      uint64_t raw_len, packed_len;
      ULE_RETURN_IF_ERROR(GetVarint(r, &raw_len));
      ULE_RETURN_IF_ERROR(GetVarint(r, &packed_len));
      Bytes packed;
      ULE_RETURN_IF_ERROR(r->GetBytes(packed_len, &packed));
      ULE_ASSIGN_OR_RETURN(Bytes joined,
                           LzacDecodeForColumnar(packed, raw_len));
      const std::string text = ToString(joined);
      size_t pos = 0;
      for (size_t i = 0; i < row_count; ++i) {
        const size_t nl = text.find('\n', pos);
        if (nl == std::string::npos) return Status::Corruption("blob rows");
        out->push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
      }
      return Status::OK();
    }
    default:
      return Status::Corruption("unknown column kind");
  }
}

void EmitTextSection(const std::string& text, Bytes* out) {
  if (text.empty()) return;
  out->push_back(kSectionText);
  const Bytes raw = ToBytes(text);
  const Bytes packed = LzacEncodeForColumnar(raw).TakeValue();
  PutVarint(out, raw.size());
  PutVarint(out, packed.size());
  out->insert(out->end(), packed.begin(), packed.end());
}

}  // namespace

Result<Bytes> ColumnarEncode(BytesView raw) {
  const std::string text = ToString(raw);
  Bytes out;
  std::string pending_text;
  size_t pos = 0;
  while (pos < text.size()) {
    // COPY blocks start at a line beginning.
    const bool at_line_start = (pos == 0) || (text[pos - 1] == '\n');
    std::optional<CopyBlock> block;
    size_t end_pos = pos;
    if (at_line_start) block = TryParseCopy(text, pos, &end_pos);
    if (block) {
      // Verify exact reconstruction before committing to columnar form.
      const std::string original = text.substr(pos, end_pos - pos);
      Bytes encoded;
      encoded.push_back(kSectionCopy);
      PutVarint(&encoded, ToBytes(block->header).size());
      encoded.insert(encoded.end(), block->header.begin(), block->header.end());
      PutVarint(&encoded, block->rows.size());
      PutVarint(&encoded, block->columns);
      for (size_t c = 0; c < block->columns; ++c) {
        EncodeColumn(block->rows, c, &encoded);
      }
      if (ReassembleCopy(*block) == original) {
        EmitTextSection(pending_text, &out);
        pending_text.clear();
        out.insert(out.end(), encoded.begin(), encoded.end());
        pos = end_pos;
        continue;
      }
    }
    // Accumulate one line of plain text.
    const size_t nl = text.find('\n', pos);
    const size_t line_end = (nl == std::string::npos) ? text.size() : nl + 1;
    pending_text += text.substr(pos, line_end - pos);
    pos = line_end;
  }
  EmitTextSection(pending_text, &out);
  out.push_back(kSectionEnd);
  return out;
}

Result<Bytes> ColumnarDecode(BytesView stream, size_t raw_len) {
  ByteReader r(stream);
  std::string out;
  // Only a hint: a dictionary column may expand past the LZ bound, and
  // then the buffer grows as usual.
  out.reserve(std::min(raw_len, stream.size() * kMaxExpansion));
  while (true) {
    uint8_t tag;
    ULE_RETURN_IF_ERROR(r.GetU8(&tag));
    if (tag == kSectionEnd) break;
    if (tag == kSectionText) {
      uint64_t text_len, packed_len;
      ULE_RETURN_IF_ERROR(GetVarint(&r, &text_len));
      ULE_RETURN_IF_ERROR(GetVarint(&r, &packed_len));
      Bytes packed;
      ULE_RETURN_IF_ERROR(r.GetBytes(packed_len, &packed));
      ULE_ASSIGN_OR_RETURN(Bytes text, LzacDecodeForColumnar(packed, text_len));
      out += ToString(text);
    } else if (tag == kSectionCopy) {
      uint64_t header_len, row_count, col_count;
      ULE_RETURN_IF_ERROR(GetVarint(&r, &header_len));
      Bytes header;
      ULE_RETURN_IF_ERROR(r.GetBytes(header_len, &header));
      ULE_RETURN_IF_ERROR(GetVarint(&r, &row_count));
      ULE_RETURN_IF_ERROR(GetVarint(&r, &col_count));
      std::vector<std::vector<std::string>> cols(col_count);
      for (size_t c = 0; c < col_count; ++c) {
        ULE_RETURN_IF_ERROR(DecodeColumn(&r, row_count, &cols[c]));
      }
      out += ToString(header);
      for (size_t i = 0; i < row_count; ++i) {
        for (size_t c = 0; c < col_count; ++c) {
          if (c) out.push_back('\t');
          out += cols[c][i];
        }
        out.push_back('\n');
      }
      out += "\\.\n";
    } else {
      return Status::Corruption("columnar: unknown section tag");
    }
  }
  return ToBytes(out);
}

}  // namespace dbcoder
}  // namespace ule
