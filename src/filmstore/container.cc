#include "filmstore/container.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "support/crc32.h"

namespace ule {
namespace filmstore {

// On-disk layout (docs/FORMAT.md §9; all integers little-endian):
//
//   header (16 bytes):
//     0   4  magic "ULEC"
//     4   1  binary version (kContainerBinaryVersion)
//     5   1  reserved (0)
//     6   2  emblem data_side
//     8   2  emblem dots_per_cell
//     10  2  emblem quiet_cells
//     12  4  reserved (0)
//   record (12-byte header + payload), append-only:
//     0   1  type (RecordType)
//     1   1  codec (FrameCodec; 0 for bootstrap text)
//     2   2  emblem sequence slot (0 for bootstrap)
//     4   4  payload length
//     8   4  CRC-32 of the payload bytes
//   index: one 20-byte entry per record, in append order:
//     0   8  file offset of the payload bytes
//     8   4  payload length
//     12  4  payload CRC-32
//     16  1  type
//     17  1  codec
//     18  2  sequence slot
//   footer (20 bytes, at EOF):
//     0   8  file offset of the index
//     8   4  index entry count
//     12  4  CRC-32 of the raw index bytes
//     16  4  magic "CIDX"

namespace {

constexpr char kMagic[4] = {'U', 'L', 'E', 'C'};
constexpr char kFooterMagic[4] = {'C', 'I', 'D', 'X'};
constexpr size_t kHeaderBytes = kContainerHeaderBytes;
constexpr size_t kRecordHeaderBytes = kContainerRecordHeaderBytes;
constexpr size_t kIndexEntryBytes = kContainerIndexEntryBytes;
constexpr size_t kFooterBytes = kContainerFooterBytes;

Bytes SerializeIndex(const std::vector<ContainerEntry>& entries) {
  ByteWriter w;
  for (const ContainerEntry& e : entries) {
    w.PutU64(e.offset);
    w.PutU32(e.payload_len);
    w.PutU32(e.payload_crc);
    w.PutU8(static_cast<uint8_t>(e.type));
    w.PutU8(static_cast<uint8_t>(e.codec));
    w.PutU16(e.seq);
  }
  return w.TakeBytes();
}

/// Reads and CRC-validates one record payload from an already-open
/// stream (so whole-file passes pay one open, not one per record).
Result<Bytes> ReadPayloadFrom(std::ifstream& in, const std::string& path,
                              const ContainerEntry& entry) {
  in.clear();
  in.seekg(static_cast<std::streamoff>(entry.offset));
  Bytes payload(entry.payload_len);
  in.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(payload.size()));
  if (!in) return Status::IoError("short read in " + path);
  if (Crc32(payload) != entry.payload_crc) {
    return Status::Corruption("record CRC mismatch in " + path);
  }
  return payload;
}

/// Validates the 16-byte container header and extracts the recorded
/// emblem geometry (shared by the random-access reader and the
/// sequential spool scan).
Status ParseContainerHeader(BytesView header, const std::string& path,
                            mocoder::Options* emblem_options) {
  if (!std::equal(kMagic, kMagic + 4, header.begin())) {
    return Status::Corruption("bad container magic (not ULE-C1): " + path);
  }
  if (header[4] != kContainerBinaryVersion) {
    return Status::Unimplemented(
        "unsupported ULE-C1 container version " + std::to_string(header[4]) +
        " (this reader understands version " +
        std::to_string(kContainerBinaryVersion) + "): " + path);
  }
  ByteReader r(header.subspan(6));
  uint16_t data_side = 0, dots = 0, quiet = 0;
  ULE_RETURN_IF_ERROR(r.GetU16(&data_side));
  ULE_RETURN_IF_ERROR(r.GetU16(&dots));
  ULE_RETURN_IF_ERROR(r.GetU16(&quiet));
  emblem_options->data_side = data_side;
  emblem_options->dots_per_cell = dots;
  emblem_options->quiet_cells = quiet;
  emblem_options->threads = 0;
  return mocoder::ValidateOptions(*emblem_options);
}

/// Context prefix for per-record errors: which record, where in the file.
std::string RecordContext(size_t index, const ContainerEntry& entry) {
  return "record " + std::to_string(index) + " (seq " +
         std::to_string(entry.seq) + ", payload offset " +
         std::to_string(entry.offset) + ")";
}

/// Reads, CRC-validates and decodes one frame record from an open stream;
/// a failed read or CRC names the record by sequence number and offset.
Result<media::Image> ReadFrameFrom(std::ifstream& in, const std::string& path,
                                   const ContainerEntry& entry) {
  auto payload = ReadPayloadFrom(in, path, entry);
  if (!payload.ok()) {
    return Status(payload.status().code(),
                  "frame seq " + std::to_string(entry.seq) +
                      " (payload offset " + std::to_string(entry.offset) +
                      "): " + payload.status().message());
  }
  return DecodeFramePayload(entry.codec, payload.value());
}

/// FrameSource over a subset of a sealed container's records. Owns its
/// file handle (opened lazily) so it can outlive the ContainerReader;
/// successful record reads report into the reader's counter cell.
class ContainerSource final : public FrameSource {
 public:
  ContainerSource(std::string path, std::vector<ContainerEntry> entries,
                  std::shared_ptr<ReadCounterCell> counters)
      : path_(std::move(path)),
        entries_(std::move(entries)),
        counters_(std::move(counters)) {}

  Result<std::optional<media::Image>> Next() override {
    if (next_ >= entries_.size()) return std::optional<media::Image>();
    if (!in_.is_open()) {
      in_.open(path_, std::ios::binary);
      if (!in_) return Status::IoError("cannot open " + path_);
    }
    const ContainerEntry& e = entries_[next_++];
    ULE_ASSIGN_OR_RETURN(media::Image frame, ReadFrameFrom(in_, path_, e));
    if (counters_) counters_->Count(e.payload_len);
    return std::optional<media::Image>(std::move(frame));
  }

 private:
  std::string path_;
  std::vector<ContainerEntry> entries_;
  std::shared_ptr<ReadCounterCell> counters_;
  std::ifstream in_;
  size_t next_ = 0;
};

}  // namespace

Result<media::Image> DecodeFramePayload(FrameCodec codec, BytesView payload) {
  switch (codec) {
    case FrameCodec::kPgm:
      return media::Image::FromPgm(payload);
    case FrameCodec::kPbm:
      return media::Image::FromPbm(payload);
  }
  return Status::Corruption("unknown frame codec " +
                            std::to_string(static_cast<int>(codec)));
}

// ---------------------------------------------------------------------------
// Writer

ContainerWriter::ContainerWriter(const std::string& path,
                                 const Options& options, bool truncate)
    : path_(path),
      options_(options),
      out_(path, truncate ? (std::ios::binary | std::ios::trunc)
                          : (std::ios::binary | std::ios::app)) {}

Result<std::unique_ptr<ContainerWriter>> ContainerWriter::Create(
    const std::string& path, const mocoder::Options& emblem_options,
    const Options& options) {
  ULE_RETURN_IF_ERROR(mocoder::ValidateOptions(emblem_options));
  if (emblem_options.data_side > 0xFFFF ||
      emblem_options.dots_per_cell > 0xFFFF ||
      emblem_options.quiet_cells > 0xFFFF) {
    return Status::InvalidArgument(
        "emblem geometry exceeds the container's u16 fields");
  }
  auto writer = std::unique_ptr<ContainerWriter>(
      new ContainerWriter(path, options, /*truncate=*/true));
  if (!writer->out_) {
    return Status::IoError("cannot create " + path);
  }
  ByteWriter header;
  header.PutBytes(BytesView(reinterpret_cast<const uint8_t*>(kMagic), 4));
  header.PutU8(kContainerBinaryVersion);
  header.PutU8(0);  // reserved
  header.PutU16(static_cast<uint16_t>(emblem_options.data_side));
  header.PutU16(static_cast<uint16_t>(emblem_options.dots_per_cell));
  header.PutU16(static_cast<uint16_t>(emblem_options.quiet_cells));
  header.PutU32(0);  // reserved
  ULE_RETURN_IF_ERROR(writer->WriteRaw(header.bytes()));
  return writer;
}

Result<std::unique_ptr<ContainerWriter>> ContainerWriter::Resume(
    const std::string& path, const Options& options) {
  ULE_ASSIGN_OR_RETURN(RecoveredSpool scan, ScanSpool(path));
  return Resume(path, std::move(scan), options);
}

Result<std::unique_ptr<ContainerWriter>> ContainerWriter::Resume(
    const std::string& path, RecoveredSpool scan, const Options& options) {
  if (scan.sealed) {
    return Status::InvalidArgument(
        "container is already sealed (nothing to resume): " + path);
  }
  // Drop the trailing partial record (if any) so the file ends exactly at
  // the last complete record, then append from there.
  if (scan.dropped_bytes > 0) {
    std::error_code ec;
    std::filesystem::resize_file(path, scan.recovered_bytes, ec);
    if (ec) {
      return Status::IoError("cannot truncate partial record in " + path +
                             ": " + ec.message());
    }
  }
  auto writer = std::unique_ptr<ContainerWriter>(
      new ContainerWriter(path, options, /*truncate=*/false));
  if (!writer->out_) {
    return Status::IoError("cannot reopen " + path);
  }
  writer->offset_ = scan.recovered_bytes;
  writer->entries_ = std::move(scan.entries);
  for (const ContainerEntry& e : writer->entries_) {
    if (e.type == RecordType::kBootstrap) writer->has_bootstrap_ = true;
  }
  return writer;
}

ContainerWriter::~ContainerWriter() = default;

Status ContainerWriter::WriteRaw(BytesView bytes) {
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!out_) return Status::IoError("write failed: " + path_);
  std::lock_guard<std::mutex> lock(stats_mu_);
  offset_ += bytes.size();
  return Status::OK();
}

Status ContainerWriter::AppendRecord(RecordType type, FrameCodec codec,
                                     uint16_t seq, BytesView payload) {
  if (finished_) {
    return Status::InvalidArgument("container already finished: " + path_);
  }
  if (payload.size() > 0xFFFFFFFFull) {
    return Status::InvalidArgument("record payload exceeds 4 GiB");
  }
  ContainerEntry entry;
  entry.offset = offset_ + kRecordHeaderBytes;
  entry.payload_len = static_cast<uint32_t>(payload.size());
  entry.payload_crc = Crc32(payload);
  entry.type = type;
  entry.codec = codec;
  entry.seq = seq;

  ByteWriter record;
  record.PutU8(static_cast<uint8_t>(type));
  record.PutU8(static_cast<uint8_t>(codec));
  record.PutU16(seq);
  record.PutU32(entry.payload_len);
  record.PutU32(entry.payload_crc);
  ULE_RETURN_IF_ERROR(WriteRaw(record.bytes()));
  ULE_RETURN_IF_ERROR(WriteRaw(payload));
  entries_.push_back(entry);
  if (type == RecordType::kDataFrame || type == RecordType::kSystemFrame) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    frame_records_ += 1;
  }
  return Status::OK();
}

Status ContainerWriter::Append(mocoder::StreamId id,
                               const mocoder::EncodedEmblem& emblem,
                               media::Image&& frame) {
  const RecordType type = id == mocoder::StreamId::kData
                              ? RecordType::kDataFrame
                              : RecordType::kSystemFrame;
  const FrameCodec codec =
      options_.bitonal ? FrameCodec::kPbm : FrameCodec::kPgm;
  const Bytes payload = options_.bitonal ? frame.ToPbm() : frame.ToPgm();
  return AppendRecord(type, codec, emblem.header.seq, payload);
}

Status ContainerWriter::AppendBootstrap(const std::string& text) {
  if (has_bootstrap_) {
    return Status::InvalidArgument("container already has a bootstrap record");
  }
  ULE_RETURN_IF_ERROR(AppendRecord(RecordType::kBootstrap, FrameCodec::kPgm,
                                   0, ToBytes(text)));
  has_bootstrap_ = true;
  return Status::OK();
}

size_t ContainerWriter::frames_written() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return frame_records_;
}

uint64_t ContainerWriter::bytes_written() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return offset_;
}

std::vector<ReelStats> ContainerWriter::CurrentReelStats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return {ReelStats{path_, frame_records_, offset_}};
}

Status ContainerWriter::SetIndexSection(Bytes section) {
  if (finished_) {
    return Status::InvalidArgument("container already finished: " + path_);
  }
  if (has_index_section_) {
    return Status::InvalidArgument(
        "container already has a record-index section");
  }
  index_section_ = std::move(section);
  has_index_section_ = true;
  return Status::OK();
}

Status ContainerWriter::Finish() {
  if (finished_) {
    return Status::InvalidArgument("container already finished: " + path_);
  }
  if (has_index_section_) {
    ULE_RETURN_IF_ERROR(AppendRecord(RecordType::kIndex, FrameCodec::kPgm, 0,
                                     index_section_));
    has_index_section_ = false;  // spooled; do not re-append on a retry
    index_section_.clear();
  }
  const uint64_t index_offset = offset_;
  const Bytes index = SerializeIndex(entries_);
  ULE_RETURN_IF_ERROR(WriteRaw(index));
  ByteWriter footer;
  footer.PutU64(index_offset);
  footer.PutU32(static_cast<uint32_t>(entries_.size()));
  footer.PutU32(Crc32(index));
  footer.PutBytes(BytesView(reinterpret_cast<const uint8_t*>(kFooterMagic), 4));
  ULE_RETURN_IF_ERROR(WriteRaw(footer.bytes()));
  out_.flush();
  if (!out_) return Status::IoError("flush failed: " + path_);
  out_.close();
  finished_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reader

Result<std::unique_ptr<ContainerReader>> ContainerReader::Open(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  if (file_size < kHeaderBytes + kFooterBytes) {
    return Status::Corruption("not a ULE-C1 container (too small): " + path);
  }

  auto read_at = [&](uint64_t offset, size_t n) -> Result<Bytes> {
    in.seekg(static_cast<std::streamoff>(offset));
    Bytes buf(n);
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(n));
    if (!in) return Status::IoError("short read in " + path);
    return buf;
  };

  ULE_ASSIGN_OR_RETURN(Bytes header, read_at(0, kHeaderBytes));
  auto reader = std::unique_ptr<ContainerReader>(new ContainerReader());
  reader->path_ = path;
  ULE_RETURN_IF_ERROR(
      ParseContainerHeader(header, path, &reader->emblem_options_));

  ULE_ASSIGN_OR_RETURN(Bytes footer,
                       read_at(file_size - kFooterBytes, kFooterBytes));
  if (!std::equal(kFooterMagic, kFooterMagic + 4, footer.begin() + 16)) {
    return Status::Corruption(
        "container index footer missing (file truncated?): " + path);
  }
  uint64_t index_offset = 0;
  uint32_t index_count = 0, index_crc = 0;
  {
    ByteReader r(footer);
    ULE_RETURN_IF_ERROR(r.GetU64(&index_offset));
    ULE_RETURN_IF_ERROR(r.GetU32(&index_count));
    ULE_RETURN_IF_ERROR(r.GetU32(&index_crc));
  }
  const uint64_t index_bytes =
      static_cast<uint64_t>(index_count) * kIndexEntryBytes;
  if (index_offset < kHeaderBytes ||
      index_offset + index_bytes + kFooterBytes != file_size) {
    return Status::Corruption("container index does not fit the file: " +
                              path);
  }
  ULE_ASSIGN_OR_RETURN(Bytes index,
                       read_at(index_offset, static_cast<size_t>(index_bytes)));
  if (Crc32(index) != index_crc) {
    return Status::Corruption("container index CRC mismatch: " + path);
  }

  ByteReader r(index);
  reader->entries_.reserve(index_count);
  for (uint32_t i = 0; i < index_count; ++i) {
    ContainerEntry e;
    uint8_t type = 0, codec = 0;
    ULE_RETURN_IF_ERROR(r.GetU64(&e.offset));
    ULE_RETURN_IF_ERROR(r.GetU32(&e.payload_len));
    ULE_RETURN_IF_ERROR(r.GetU32(&e.payload_crc));
    ULE_RETURN_IF_ERROR(r.GetU8(&type));
    ULE_RETURN_IF_ERROR(r.GetU8(&codec));
    ULE_RETURN_IF_ERROR(r.GetU16(&e.seq));
    if (type > static_cast<uint8_t>(RecordType::kIndex) ||
        codec > static_cast<uint8_t>(FrameCodec::kPbm)) {
      return Status::Corruption("container index entry " + std::to_string(i) +
                                " has an unknown type/codec: " + path);
    }
    e.type = static_cast<RecordType>(type);
    e.codec = static_cast<FrameCodec>(codec);
    if (e.offset < kHeaderBytes + kRecordHeaderBytes ||
        e.offset + e.payload_len > index_offset) {
      return Status::Corruption("container index entry " + std::to_string(i) +
                                " points outside the record region: " + path);
    }
    if (e.type == RecordType::kDataFrame) {
      reader->data_records_.push_back(reader->entries_.size());
    } else if (e.type == RecordType::kSystemFrame) {
      reader->system_records_.push_back(reader->entries_.size());
    }
    reader->entries_.push_back(e);
  }
  return reader;
}

size_t ContainerReader::frame_count(mocoder::StreamId id) const {
  return id == mocoder::StreamId::kData ? data_records_.size()
                                        : system_records_.size();
}

bool ContainerReader::has_bootstrap() const {
  for (const ContainerEntry& e : entries_) {
    if (e.type == RecordType::kBootstrap) return true;
  }
  return false;
}

Result<Bytes> ContainerReader::ReadPayloadUnchecked(
    const ContainerEntry& entry) const {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path_);
  return ReadPayloadFrom(in, path_, entry);
}

Result<Bytes> ContainerReader::ReadPayload(const ContainerEntry& entry) const {
  // Accept only entries that are verbatim rows of this container's
  // index: the entry names a file region, and a stale or hand-built one
  // must fail loudly instead of reading arbitrary bytes.
  const bool known = std::any_of(
      entries_.begin(), entries_.end(), [&](const ContainerEntry& e) {
        return e.offset == entry.offset && e.payload_len == entry.payload_len &&
               e.payload_crc == entry.payload_crc && e.type == entry.type;
      });
  if (!known) {
    return Status::OutOfRange("entry (payload offset " +
                              std::to_string(entry.offset) +
                              ") is not a record of this container: " + path_);
  }
  return ReadPayloadUnchecked(entry);
}

Result<std::string> ContainerReader::ReadBootstrap() const {
  for (const ContainerEntry& e : entries_) {
    if (e.type != RecordType::kBootstrap) continue;
    ULE_ASSIGN_OR_RETURN(Bytes payload, ReadPayloadUnchecked(e));
    return ToString(payload);
  }
  return Status::NotFound("container has no bootstrap record: " + path_);
}

Result<Bytes> ContainerReader::ReadIndexSection() const {
  for (const ContainerEntry& e : entries_) {
    if (e.type != RecordType::kIndex) continue;
    return ReadPayloadUnchecked(e);
  }
  return Status::NotFound("container has no record-index section: " + path_);
}

std::unique_ptr<FrameSource> ContainerReader::OpenFrames(
    mocoder::StreamId id) const {
  const RecordType want = id == mocoder::StreamId::kData
                              ? RecordType::kDataFrame
                              : RecordType::kSystemFrame;
  std::vector<ContainerEntry> frames;
  for (const ContainerEntry& e : entries_) {
    if (e.type == want) frames.push_back(e);
  }
  return std::make_unique<ContainerSource>(path_, std::move(frames), counters_);
}

Result<media::Image> ContainerReader::ReadFrame(mocoder::StreamId id,
                                                size_t index) const {
  const std::vector<size_t>& records =
      id == mocoder::StreamId::kData ? data_records_ : system_records_;
  if (index >= records.size()) {
    return Status::OutOfRange(
        "frame " + std::to_string(index) + " out of range (stream has " +
        std::to_string(records.size()) + " frames): " + path_);
  }
  const ContainerEntry& e = entries_[records[index]];
  ULE_ASSIGN_OR_RETURN(Bytes payload, ReadPayloadUnchecked(e));
  counters_->Count(e.payload_len);
  return DecodeFramePayload(e.codec, payload);
}

Status ContainerReader::Verify() const {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path_);
  for (size_t i = 0; i < entries_.size(); ++i) {
    const ContainerEntry& e = entries_[i];
    auto payload = ReadPayloadFrom(in, path_, e);
    if (!payload.ok()) {
      return Status(payload.status().code(),
                    RecordContext(i, e) + ": " + payload.status().message());
    }
    if (e.type == RecordType::kDataFrame ||
        e.type == RecordType::kSystemFrame) {
      auto frame = DecodeFramePayload(e.codec, payload.value());
      if (!frame.ok()) {
        return Status(frame.status().code(),
                      RecordContext(i, e) + " does not decode: " +
                          frame.status().message());
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Append-resume: sequential record scan of an unfinished spool

Result<RecoveredSpool> ScanSpool(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  if (file_size < kHeaderBytes) {
    return Status::Corruption("not a ULE-C1 spool (too small): " + path);
  }

  RecoveredSpool out;
  Bytes header(kHeaderBytes);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(header.data()),
          static_cast<std::streamsize>(header.size()));
  if (!in) return Status::IoError("short read in " + path);
  ULE_RETURN_IF_ERROR(ParseContainerHeader(header, path,
                                           &out.emblem_options));

  // A sealed container already knows its records; report it as such so
  // resume is a deliberate no-op instead of a rescan that would misparse
  // the trailing index as record bytes.
  if (auto sealed = ContainerReader::Open(path); sealed.ok()) {
    out.sealed = true;
    out.entries = sealed.value()->entries();
    out.recovered_bytes = file_size;
    return out;
  }

  // Walk records front to back. Each step trusts nothing beyond what it
  // just validated: a short header, an implausible type/codec, a payload
  // overrunning EOF, or a CRC mismatch all end the scan — everything
  // before that point is complete by the append-only construction.
  uint64_t offset = kHeaderBytes;
  while (offset + kRecordHeaderBytes <= file_size) {
    Bytes rec(kRecordHeaderBytes);
    in.clear();
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(reinterpret_cast<char*>(rec.data()),
            static_cast<std::streamsize>(rec.size()));
    if (!in) break;
    ContainerEntry e;
    uint8_t type = 0, codec = 0;
    ByteReader r(rec);
    (void)r.GetU8(&type);
    (void)r.GetU8(&codec);
    (void)r.GetU16(&e.seq);
    (void)r.GetU32(&e.payload_len);
    (void)r.GetU32(&e.payload_crc);
    if (type > static_cast<uint8_t>(RecordType::kIndex) ||
        codec > static_cast<uint8_t>(FrameCodec::kPbm)) {
      break;  // not a record header (index bytes or a torn write)
    }
    e.type = static_cast<RecordType>(type);
    e.codec = static_cast<FrameCodec>(codec);
    e.offset = offset + kRecordHeaderBytes;
    if (e.offset + e.payload_len > file_size) break;  // partial payload
    auto payload = ReadPayloadFrom(in, path, e);
    if (!payload.ok()) break;  // torn or corrupt payload
    out.entries.push_back(e);
    offset = e.offset + e.payload_len;
  }
  out.recovered_bytes = offset;
  out.dropped_bytes = file_size - offset;
  return out;
}

}  // namespace filmstore
}  // namespace ule
