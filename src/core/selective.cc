#include "core/selective.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <string_view>

#include "mocoder/detect.h"
#include "mocoder/outer.h"
#include "support/parallel.h"

namespace ule {
namespace core {

namespace {

/// Budget of the decoded-payload LRU cache in bytes.
constexpr size_t kCacheBytes = 32u << 20;

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// The schema chunk, re-parsed for column projection: table name plus
/// the column definitions in dump order.
struct SchemaParts {
  std::string table;
  std::vector<std::string> names;
  std::vector<std::string> defs;  ///< "name type", no trailing comma
};

Result<SchemaParts> ParseSchemaChunk(const std::string& text) {
  SchemaParts parts;
  size_t pos = 0;
  bool in_columns = false;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    const std::string_view line(
        text.data() + pos, (eol == std::string::npos ? text.size() : eol) - pos);
    if (line.rfind("CREATE TABLE ", 0) == 0) {
      std::string_view name = line.substr(13);
      const size_t cut = name.find_first_of(" (");
      if (cut != std::string_view::npos) name = name.substr(0, cut);
      parts.table = std::string(name);
      in_columns = true;
    } else if (in_columns) {
      std::string_view def = Trim(line);
      if (def == ");") {
        in_columns = false;
      } else if (!def.empty()) {
        if (def.back() == ',') def.remove_suffix(1);
        const size_t sp = def.find(' ');
        if (sp == std::string_view::npos) {
          return Status::Corruption("schema chunk has a malformed column "
                                    "definition: " + std::string(def));
        }
        parts.names.emplace_back(def.substr(0, sp));
        parts.defs.emplace_back(def);
      }
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  if (parts.table.empty() || parts.names.empty()) {
    return Status::Corruption("schema chunk has no CREATE TABLE block");
  }
  return parts;
}

std::string BuildProjectedSchema(const SchemaParts& parts,
                                 const std::vector<size_t>& keep) {
  std::string out = "CREATE TABLE " + parts.table + " (\n";
  for (size_t i = 0; i < keep.size(); ++i) {
    out += "    " + parts.defs[keep[i]];
    out += i + 1 < keep.size() ? ",\n" : "\n";
  }
  out += ");\n";
  out += "COPY " + parts.table + " (";
  for (size_t i = 0; i < keep.size(); ++i) {
    if (i) out += ", ";
    out += parts.names[keep[i]];
  }
  out += ") FROM stdin;\n";
  return out;
}

/// Keeps the selected tab-separated fields of one row line (positions
/// ascending). Corruption when the row has fewer fields than the schema.
Result<std::string> ProjectRow(std::string_view line, size_t field_count,
                               const std::vector<size_t>& keep) {
  std::vector<std::string_view> fields;
  fields.reserve(field_count);
  size_t start = 0;
  for (;;) {
    const size_t tab = line.find('\t', start);
    if (tab == std::string_view::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
  if (fields.size() != field_count) {
    return Status::Corruption("row has " + std::to_string(fields.size()) +
                              " fields where the schema has " +
                              std::to_string(field_count));
  }
  std::string out;
  for (size_t i = 0; i < keep.size(); ++i) {
    if (i) out += '\t';
    out.append(fields[keep[i]].data(), fields[keep[i]].size());
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// PayloadCache

const Bytes* SelectiveRestorer::PayloadCache::Get(uint16_t seq) {
  auto it = entries_.find(seq);
  if (it == entries_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.second);
  return &it->second.first;
}

void SelectiveRestorer::PayloadCache::Put(uint16_t seq, Bytes payload) {
  auto it = entries_.find(seq);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.second);
    bytes_ -= it->second.first.size();
    bytes_ += payload.size();
    it->second.first = std::move(payload);
  } else {
    bytes_ += payload.size();
    lru_.push_front(seq);
    entries_.emplace(seq, std::make_pair(std::move(payload), lru_.begin()));
  }
  while (bytes_ > budget_ && entries_.size() > 1) {
    const uint16_t victim = lru_.back();
    lru_.pop_back();
    auto v = entries_.find(victim);
    bytes_ -= v->second.first.size();
    entries_.erase(v);
  }
}

// ---------------------------------------------------------------------------
// SelectiveRestorer

Result<SelectiveRestorer> SelectiveRestorer::Open(
    const filmstore::ReelReader& reader, const SelectiveOptions& options) {
  ULE_ASSIGN_OR_RETURN(Bytes section, reader.ReadIndexSection());
  ULE_ASSIGN_OR_RETURN(RecordIndex index, RecordIndex::Parse(section));
  return Open(reader, std::move(index), options);
}

Result<SelectiveRestorer> SelectiveRestorer::Open(
    const filmstore::ReelReader& reader, RecordIndex index,
    const SelectiveOptions& options) {
  const int capacity =
      mocoder::EmblemCapacity(reader.emblem_options().data_side);
  if (capacity <= 0) {
    return Status::InvalidArgument("emblem geometry too small");
  }
  // Cross-check that the index describes *this* archive before trusting
  // its byte ranges: the emblem arithmetic over its stream length must
  // reproduce the reel's data-frame count exactly.
  const size_t want = static_cast<size_t>(
      mocoder::TotalEmblemCount(index.stream_len, capacity));
  const size_t have = reader.frame_count(mocoder::StreamId::kData);
  if (want != have) {
    return Status::InvalidArgument(
        "record index describes a " + std::to_string(want) +
        "-frame data stream but the reel has " + std::to_string(have) +
        " data frames");
  }
  SelectiveRestorer r;
  r.reader_ = &reader;
  r.index_ = std::move(index);
  r.options_ = options;
  r.capacity_ = capacity;
  // Group recovery caches a whole group's data payloads at once; a budget
  // below that would evict its own results mid-recovery.
  r.cache_.emplace(std::max(
      kCacheBytes, static_cast<size_t>(mocoder::kGroupSize) * capacity * 2));
  return r;
}

Result<Bytes> SelectiveRestorer::FetchEmblem(uint16_t seq) const {
  const int frame =
      mocoder::FrameIndexOfSeq(seq, index_.stream_len, capacity_);
  if (frame < 0) {
    return Status::InvalidArgument("emblem seq " + std::to_string(seq) +
                                   " is virtual (never emitted)");
  }
  ULE_ASSIGN_OR_RETURN(
      media::Image scan,
      reader_->ReadFrame(mocoder::StreamId::kData, static_cast<size_t>(frame)));
  ULE_ASSIGN_OR_RETURN(
      Bytes grid,
      mocoder::SampleEmblem(scan, reader_->emblem_options().data_side));
  mocoder::EmblemHeader header;
  ULE_ASSIGN_OR_RETURN(
      Bytes payload,
      mocoder::DecodeEmblemIntensities(
          grid, reader_->emblem_options().data_side, &header));
  if (header.stream != mocoder::StreamId::kData || header.seq != seq) {
    return Status::Corruption(
        "data frame " + std::to_string(frame) + " carries emblem seq " +
        std::to_string(header.seq) + ", expected " + std::to_string(seq));
  }
  return payload;
}

Status SelectiveRestorer::RecoverGroup(int group) {
  // Pull everything the group still has — data slots and parity — and let
  // the outer code rebuild the rest (up to 3 losses per group, FORMAT.md
  // §4). Failed inner decodes are exactly the losses recovery exists for.
  std::map<uint16_t, Bytes> payloads;
  for (int s = 0; s < mocoder::kGroupSize; ++s) {
    const uint16_t seq =
        static_cast<uint16_t>(group * mocoder::kGroupSize + s);
    if (const Bytes* cached = cache_->Get(seq)) {
      payloads.emplace(seq, *cached);
      continue;
    }
    if (mocoder::FrameIndexOfSeq(seq, index_.stream_len, capacity_) < 0) {
      continue;  // virtual slot: RecoverGroupData zero-fills it
    }
    auto fetched = FetchEmblem(seq);
    if (fetched.ok()) {
      run_.emblems_decoded += 1;
      payloads.emplace(seq, std::move(fetched).TakeValue());
    }
  }
  ULE_ASSIGN_OR_RETURN(
      std::vector<Bytes> data,
      mocoder::RecoverGroupData(group, payloads, index_.stream_len,
                                capacity_));
  const int data_count =
      mocoder::DataEmblemCount(index_.stream_len, capacity_);
  for (int s = 0; s < mocoder::kGroupData; ++s) {
    const int d = group * mocoder::kGroupData + s;
    if (d >= data_count) break;
    const uint16_t seq = mocoder::SeqOfDataIndex(d);
    if (payloads.find(seq) == payloads.end()) run_.emblems_recovered += 1;
    cache_->Put(seq, std::move(data[s]));
  }
  return Status::OK();
}

Result<Bytes> SelectiveRestorer::StreamSlice(uint64_t offset, uint64_t len) {
  Bytes out;
  out.reserve(len);
  if (len == 0) return out;
  if (offset + len > index_.stream_len) {
    return Status::InvalidArgument("stream slice past the end");
  }
  const uint64_t cap = static_cast<uint64_t>(capacity_);
  const int first = static_cast<int>(offset / cap);
  const int last = static_cast<int>((offset + len + cap - 1) / cap);

  // Payloads already decoded stay in the cache; the rest fan out across
  // workers (seek reads and inner decodes are pure), then land in the
  // cache serially. `local` pins this slice's payloads against eviction.
  std::map<int, Bytes> local;
  std::vector<int> missing;
  for (int d = first; d < last; ++d) {
    if (const Bytes* p = cache_->Get(mocoder::SeqOfDataIndex(d))) {
      run_.cache_hits += 1;
      local.emplace(d, *p);
    } else {
      missing.push_back(d);
    }
  }
  if (!missing.empty()) {
    std::vector<std::optional<Result<Bytes>>> fetched(missing.size());
    ULE_RETURN_IF_ERROR(ParallelFor(
        0, missing.size(),
        [&](size_t i) -> Status {
          fetched[i] = FetchEmblem(mocoder::SeqOfDataIndex(missing[i]));
          return Status::OK();
        },
        options_.threads));
    for (size_t i = 0; i < missing.size(); ++i) {
      const int d = missing[i];
      Result<Bytes>& r = *fetched[i];
      if (r.ok()) {
        run_.emblems_decoded += 1;
        cache_->Put(mocoder::SeqOfDataIndex(d), r.value());
        local.emplace(d, std::move(r).TakeValue());
        continue;
      }
      // Lost emblem: rebuild its whole group through the outer code.
      ULE_RETURN_IF_ERROR(RecoverGroup(d / mocoder::kGroupData));
      const Bytes* p = cache_->Get(mocoder::SeqOfDataIndex(d));
      if (p == nullptr) {
        return Status::Corruption("group recovery did not yield emblem " +
                                  std::to_string(d));
      }
      local.emplace(d, *p);
    }
  }
  for (int d = first; d < last; ++d) {
    const Bytes& payload = local.at(d);
    const uint64_t emblem_begin = static_cast<uint64_t>(d) * cap;
    const uint64_t begin = std::max(offset, emblem_begin);
    const uint64_t end = std::min(offset + len, emblem_begin + cap);
    out.insert(out.end(), payload.begin() + (begin - emblem_begin),
               payload.begin() + (end - emblem_begin));
  }
  return out;
}

Result<std::string> SelectiveRestorer::ChunkText(size_t chunk_index) {
  const IndexChunk& c = index_.chunks[chunk_index];
  run_.chunks_decoded += 1;
  if (!index_.segmented) {
    // Unsegmented stream: everything decodes in one piece. Decode once,
    // slice many — later predicates hit the materialized dump.
    ULE_RETURN_IF_ERROR(EnsureWholeDump());
    return whole_dump_->substr(c.raw_offset, c.raw_len);
  }
  ULE_ASSIGN_OR_RETURN(Bytes slice, StreamSlice(c.stream_offset,
                                                c.stream_len));
  ULE_ASSIGN_OR_RETURN(Bytes raw, dbcoder::Decode(slice));
  if (raw.size() != c.raw_len) {
    return Status::Corruption(
        "dump chunk " + std::to_string(chunk_index) + " decoded to " +
        std::to_string(raw.size()) + " bytes, index records " +
        std::to_string(c.raw_len));
  }
  return ToString(raw);
}

Status SelectiveRestorer::EnsureWholeDump() {
  if (whole_dump_.has_value()) return Status::OK();
  ULE_ASSIGN_OR_RETURN(Bytes stream, StreamSlice(0, index_.stream_len));
  ULE_ASSIGN_OR_RETURN(Bytes raw, dbcoder::Decode(stream));
  if (raw.size() != index_.dump_len) {
    return Status::Corruption("archive decoded to " +
                              std::to_string(raw.size()) +
                              " bytes, index records " +
                              std::to_string(index_.dump_len));
  }
  whole_dump_ = ToString(raw);
  return Status::OK();
}

Result<std::string> SelectiveRestorer::Restore(const RestorePredicate& pred,
                                               SelectiveStats* stats) {
  run_ = SelectiveStats{};
  const filmstore::ReadCounters before = reader_->read_counters();
  if (pred.table.empty()) {
    return Status::InvalidArgument("selective restore needs a table");
  }
  const std::vector<size_t> chunks = index_.ChunksOfTable(pred.table);
  if (chunks.empty()) {
    std::string tables;
    for (const std::string& t : index_.Tables()) {
      if (!tables.empty()) tables += ", ";
      tables += t;
    }
    return Status::NotFound("table '" + pred.table +
                            "' is not in the archive (tables: " + tables +
                            ")");
  }

  std::string out;
  if (pred.all_rows() && pred.all_columns()) {
    // Whole table: the exact byte slice of the full dump.
    for (size_t i : chunks) {
      ULE_ASSIGN_OR_RETURN(std::string text, ChunkText(i));
      out += text;
    }
  } else {
    // Projection: schema text (column-filtered when asked), the selected
    // rows, then a synthesized terminator — a well-formed dump of its own.
    ULE_ASSIGN_OR_RETURN(std::string schema_text, ChunkText(chunks.front()));
    ULE_ASSIGN_OR_RETURN(SchemaParts schema, ParseSchemaChunk(schema_text));
    std::vector<size_t> keep;
    if (pred.all_columns()) {
      out += schema_text;
    } else {
      for (size_t i = 0; i < schema.names.size(); ++i) {
        if (std::find(pred.columns.begin(), pred.columns.end(),
                      schema.names[i]) != pred.columns.end()) {
          keep.push_back(i);
        }
      }
      for (const std::string& want : pred.columns) {
        if (std::find(schema.names.begin(), schema.names.end(), want) ==
            schema.names.end()) {
          return Status::InvalidArgument(
              "table '" + pred.table + "' has no column '" + want + "'");
        }
      }
      out += BuildProjectedSchema(schema, keep);
    }

    const uint64_t total_rows = index_.RowsOfTable(pred.table);
    const uint64_t row_begin = std::min(pred.row_begin, total_rows);
    const uint64_t row_end =
        row_begin + std::min(pred.row_count, total_rows - row_begin);
    for (size_t ci : chunks) {
      const IndexChunk& c = index_.chunks[ci];
      if (c.row_count == 0) continue;
      if (c.row_begin >= row_end || c.row_begin + c.row_count <= row_begin) {
        continue;
      }
      ULE_ASSIGN_OR_RETURN(std::string text, ChunkText(ci));
      size_t pos = 0;
      for (uint64_t r = c.row_begin; r < c.row_begin + c.row_count; ++r) {
        const size_t eol = text.find('\n', pos);
        if (eol == std::string::npos) {
          return Status::Corruption("dump chunk decodes to fewer rows than "
                                    "the index records");
        }
        if (r >= row_begin && r < row_end) {
          const std::string_view line(text.data() + pos, eol - pos);
          if (pred.all_columns()) {
            out.append(line.data(), line.size());
          } else {
            ULE_ASSIGN_OR_RETURN(
                std::string projected,
                ProjectRow(line, schema.names.size(), keep));
            out += projected;
          }
          out += '\n';
        }
        pos = eol + 1;
      }
    }
    out += "\\.\n\n";
  }

  const filmstore::ReadCounters after = reader_->read_counters();
  run_.records_read = after.records - before.records;
  run_.bytes_read = after.bytes - before.bytes;
  if (stats != nullptr) *stats = run_;
  return out;
}

Result<std::string> RestoreSelective(const filmstore::ReelReader& reader,
                                     const RestorePredicate& pred,
                                     const SelectiveOptions& options,
                                     SelectiveStats* stats) {
  ULE_ASSIGN_OR_RETURN(SelectiveRestorer restorer,
                       SelectiveRestorer::Open(reader, options));
  return restorer.Restore(pred, stats);
}

}  // namespace core
}  // namespace ule
