#include "filmstore/reel_set.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <utility>

#include "filmstore/parity.h"
#include "support/crc32.h"
#include "support/io.h"

namespace ule {
namespace filmstore {

// ULE-R1 catalog wire form (docs/FORMAT.md §10; integers little-endian):
//
//   header (16 bytes):
//     0   4  magic "ULER"
//     4   1  binary version (kReelSetBinaryVersion)
//     5   1  reserved (0)
//     6   2  emblem data_side
//     8   2  emblem dots_per_cell
//     10  2  emblem quiet_cells
//     12  4  reserved (0)
//   u64 archive_id, u32 reel_count, then per reel:
//     u16 name_len | name bytes (a bare file name in the catalog's directory)
//     u32 first_record | u32 records
//     u32 first_data_frame | u32 data_frames
//     u32 first_system_frame | u32 system_frames
//     u8  has_bootstrap
//     u64 sealed file bytes | u32 CRC-32 of the sealed file bytes
//   optional ULE-P1 parity section (docs/FORMAT.md §10.1):
//     magic "ULEP" | u8 parity binary version | u8 parity reel count m
//     u16 reserved (0) | u64 stripe bytes, then per parity reel:
//       u16 name_len | name bytes | u64 file bytes | u32 file CRC-32
//   trailer (8 bytes at EOF):
//     u32 CRC-32 of all preceding bytes | magic "RCAT"

namespace {

constexpr char kCatalogMagic[4] = {'U', 'L', 'E', 'R'};
constexpr char kCatalogTrailerMagic[4] = {'R', 'C', 'A', 'T'};
constexpr char kCatalogParityMagic[4] = {'U', 'L', 'E', 'P'};
constexpr size_t kCatalogHeaderBytes = 16;
constexpr size_t kCatalogTrailerBytes = 8;

/// Reads one u16-length-prefixed reel name; `row` ("reel 3", "parity
/// reel 0") names the catalog row in errors. Names are bare file names in
/// the catalog's directory — writers only ever store `path.filename()` —
/// so anything that could resolve elsewhere once joined onto that
/// directory is refused here, before a reader, repair or scrub touches
/// the file system with it.
Result<std::string> ParseReelName(ByteReader& r, const std::string& row) {
  uint16_t name_len = 0;
  ULE_RETURN_IF_ERROR(r.GetU16(&name_len));
  if (name_len == 0 || name_len > r.remaining()) {
    return Status::Corruption("catalog " + row +
                              " has an implausible name length");
  }
  Bytes bytes;
  ULE_RETURN_IF_ERROR(r.GetBytes(name_len, &bytes));
  std::string name(bytes.begin(), bytes.end());
  if (name == "." || name == ".." ||
      name.find_first_of(std::string("/\\\0", 3)) != std::string::npos) {
    return Status::Corruption("catalog " + row +
                              " name is not a bare file name");
  }
  return name;
}

/// \brief Pull source over one stream across many reels: drains each
/// reel's own container source in catalog order and drops it — closing
/// its file — once it ends. Each reel counts its own reads.
class ReelChainSource final : public FrameSource {
 public:
  explicit ReelChainSource(std::vector<std::unique_ptr<FrameSource>> reels)
      : reels_(std::move(reels)) {}

  Result<std::optional<media::PackedFrame>> Next() override {
    while (next_ < reels_.size()) {
      ULE_ASSIGN_OR_RETURN(std::optional<media::PackedFrame> frame,
                           reels_[next_]->Next());
      if (frame.has_value()) return frame;
      reels_[next_++].reset();  // drained: close its file
    }
    return std::optional<media::PackedFrame>();
  }

 private:
  std::vector<std::unique_ptr<FrameSource>> reels_;
  size_t next_ = 0;  ///< the reel being drained
};

}  // namespace

// ---------------------------------------------------------------------------
// Catalog

Result<FileDigest> DigestFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  FileDigest digest;
  Bytes chunk(1 << 20);
  for (;;) {
    in.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(chunk.size()));
    const size_t got = static_cast<size_t>(in.gcount());
    if (got == 0) break;
    digest.crc = Crc32(BytesView(chunk).subspan(0, got), digest.crc);
    digest.bytes += got;
    if (!in) break;  // short final chunk: EOF
  }
  if (in.bad()) return Status::IoError("read failed: " + path);
  return digest;
}

size_t ReelCatalog::frame_count(mocoder::StreamId id) const {
  size_t n = 0;
  for (const CatalogReel& reel : reels) {
    n += id == mocoder::StreamId::kData ? reel.data_frames
                                        : reel.system_frames;
  }
  return n;
}

Bytes ReelCatalog::Serialize() const {
  ByteWriter w;
  w.PutBytes(BytesView(reinterpret_cast<const uint8_t*>(kCatalogMagic), 4));
  w.PutU8(kReelSetBinaryVersion);
  w.PutU8(0);  // reserved
  w.PutU16(static_cast<uint16_t>(emblem_options.data_side));
  w.PutU16(static_cast<uint16_t>(emblem_options.dots_per_cell));
  w.PutU16(static_cast<uint16_t>(emblem_options.quiet_cells));
  w.PutU32(0);  // reserved
  w.PutU64(archive_id);
  w.PutU32(static_cast<uint32_t>(reels.size()));
  for (const CatalogReel& reel : reels) {
    w.PutU16(static_cast<uint16_t>(reel.name.size()));
    w.PutBytes(ToBytes(reel.name));
    w.PutU32(reel.first_record);
    w.PutU32(reel.records);
    w.PutU32(reel.first_data_frame);
    w.PutU32(reel.data_frames);
    w.PutU32(reel.first_system_frame);
    w.PutU32(reel.system_frames);
    w.PutU8(reel.has_bootstrap ? 1 : 0);
    w.PutU64(reel.bytes);
    w.PutU32(reel.file_crc);
  }
  if (parity.present()) {
    w.PutBytes(
        BytesView(reinterpret_cast<const uint8_t*>(kCatalogParityMagic), 4));
    w.PutU8(kParityBinaryVersion);
    w.PutU8(parity.parity_reels);
    w.PutU16(0);  // reserved
    w.PutU64(parity.stripe_bytes);
    for (const CatalogParityReel& reel : parity.reels) {
      w.PutU16(static_cast<uint16_t>(reel.name.size()));
      w.PutBytes(ToBytes(reel.name));
      w.PutU64(reel.bytes);
      w.PutU32(reel.file_crc);
    }
  }
  const uint32_t crc = Crc32(w.bytes());
  w.PutU32(crc);
  w.PutBytes(
      BytesView(reinterpret_cast<const uint8_t*>(kCatalogTrailerMagic), 4));
  return w.TakeBytes();
}

Result<ReelCatalog> ReelCatalog::Parse(BytesView bytes) {
  if (bytes.size() < kCatalogHeaderBytes + 12 + kCatalogTrailerBytes) {
    return Status::Corruption("not a ULE-R1 catalog (too small)");
  }
  if (!std::equal(kCatalogMagic, kCatalogMagic + 4, bytes.begin())) {
    return Status::Corruption("bad catalog magic (not ULE-R1)");
  }
  if (bytes[4] != kReelSetBinaryVersion) {
    return Status::Unimplemented(
        "unsupported ULE-R1 catalog version " + std::to_string(bytes[4]) +
        " (this reader understands version " +
        std::to_string(kReelSetBinaryVersion) + ")");
  }
  const BytesView trailer = bytes.subspan(bytes.size() - kCatalogTrailerBytes);
  if (!std::equal(kCatalogTrailerMagic, kCatalogTrailerMagic + 4,
                  trailer.begin() + 4)) {
    return Status::Corruption("catalog trailer magic missing (truncated?)");
  }
  const BytesView body = bytes.subspan(0, bytes.size() - kCatalogTrailerBytes);
  uint32_t stored_crc = 0;
  {
    ByteReader r(trailer);
    ULE_RETURN_IF_ERROR(r.GetU32(&stored_crc));
  }
  if (Crc32(body) != stored_crc) {
    return Status::Corruption("catalog CRC mismatch");
  }

  ReelCatalog catalog;
  ByteReader r(body.subspan(6));
  uint16_t data_side = 0, dots = 0, quiet = 0;
  uint32_t reserved = 0, reel_count = 0;
  ULE_RETURN_IF_ERROR(r.GetU16(&data_side));
  ULE_RETURN_IF_ERROR(r.GetU16(&dots));
  ULE_RETURN_IF_ERROR(r.GetU16(&quiet));
  ULE_RETURN_IF_ERROR(r.GetU32(&reserved));
  ULE_RETURN_IF_ERROR(r.GetU64(&catalog.archive_id));
  ULE_RETURN_IF_ERROR(r.GetU32(&reel_count));
  catalog.emblem_options.data_side = data_side;
  catalog.emblem_options.dots_per_cell = dots;
  catalog.emblem_options.quiet_cells = quiet;
  catalog.emblem_options.threads = 0;
  ULE_RETURN_IF_ERROR(mocoder::ValidateOptions(catalog.emblem_options));
  // Bound the count against what the body could possibly hold (a reel
  // row is at least 40 bytes) before reserving: a crafted count must
  // surface as Status, not as a giant allocation.
  constexpr size_t kMinReelRowBytes = 40;
  if (reel_count > r.remaining() / kMinReelRowBytes) {
    return Status::Corruption("catalog reel count " +
                              std::to_string(reel_count) +
                              " does not fit the file");
  }
  catalog.reels.reserve(reel_count);
  for (uint32_t i = 0; i < reel_count; ++i) {
    CatalogReel reel;
    ULE_ASSIGN_OR_RETURN(reel.name,
                         ParseReelName(r, "reel " + std::to_string(i)));
    uint8_t has_bootstrap = 0;
    ULE_RETURN_IF_ERROR(r.GetU32(&reel.first_record));
    ULE_RETURN_IF_ERROR(r.GetU32(&reel.records));
    ULE_RETURN_IF_ERROR(r.GetU32(&reel.first_data_frame));
    ULE_RETURN_IF_ERROR(r.GetU32(&reel.data_frames));
    ULE_RETURN_IF_ERROR(r.GetU32(&reel.first_system_frame));
    ULE_RETURN_IF_ERROR(r.GetU32(&reel.system_frames));
    ULE_RETURN_IF_ERROR(r.GetU8(&has_bootstrap));
    ULE_RETURN_IF_ERROR(r.GetU64(&reel.bytes));
    ULE_RETURN_IF_ERROR(r.GetU32(&reel.file_crc));
    reel.has_bootstrap = has_bootstrap != 0;
    catalog.reels.push_back(std::move(reel));
  }
  // Anything after the reel rows must be the (optional) ULE-P1 parity
  // section; a parity-less catalog ends right here. Both shapes ride
  // under the same trailer CRC already checked above.
  if (r.remaining() != 0) {
    uint8_t magic[4] = {0, 0, 0, 0};
    for (uint8_t& c : magic) ULE_RETURN_IF_ERROR(r.GetU8(&c));
    if (!std::equal(kCatalogParityMagic, kCatalogParityMagic + 4, magic)) {
      return Status::Corruption("catalog has trailing bytes after its reels");
    }
    uint8_t parity_version = 0, parity_count = 0;
    uint16_t reserved16 = 0;
    ULE_RETURN_IF_ERROR(r.GetU8(&parity_version));
    ULE_RETURN_IF_ERROR(r.GetU8(&parity_count));
    ULE_RETURN_IF_ERROR(r.GetU16(&reserved16));
    if (parity_version != kParityBinaryVersion) {
      return Status::Unimplemented(
          "unsupported ULE-P1 parity section version " +
          std::to_string(parity_version) + " (this reader understands "
          "version " + std::to_string(kParityBinaryVersion) + ")");
    }
    if (parity_count == 0) {
      return Status::Corruption("catalog parity section lists no reels");
    }
    if (reel_count + parity_count > 255) {
      return Status::Corruption(
          "catalog parity section overflows RS(n+m <= 255): " +
          std::to_string(reel_count) + " data + " +
          std::to_string(parity_count) + " parity reels");
    }
    catalog.parity.parity_reels = parity_count;
    ULE_RETURN_IF_ERROR(r.GetU64(&catalog.parity.stripe_bytes));
    catalog.parity.reels.reserve(parity_count);
    for (uint8_t p = 0; p < parity_count; ++p) {
      CatalogParityReel reel;
      ULE_ASSIGN_OR_RETURN(
          reel.name, ParseReelName(r, "parity reel " + std::to_string(p)));
      ULE_RETURN_IF_ERROR(r.GetU64(&reel.bytes));
      ULE_RETURN_IF_ERROR(r.GetU32(&reel.file_crc));
      catalog.parity.reels.push_back(std::move(reel));
    }
  }
  if (r.remaining() != 0) {
    return Status::Corruption("catalog has trailing bytes after its parity "
                              "section");
  }
  return catalog;
}

Result<ReelCatalog> LoadCatalog(const std::string& path) {
  ULE_ASSIGN_OR_RETURN(Bytes bytes, ReadFileBytes(path));
  auto catalog = ReelCatalog::Parse(bytes);
  if (!catalog.ok()) {
    return Status(catalog.status().code(),
                  catalog.status().message() + ": " + path);
  }
  return catalog;
}

std::string ReelFileName(const std::string& catalog_path, size_t index) {
  const std::filesystem::path p(catalog_path);
  char suffix[16];
  std::snprintf(suffix, sizeof suffix, "-%03zu.ulec", index);
  return (p.parent_path() / (p.stem().string() + suffix)).string();
}

// ---------------------------------------------------------------------------
// Writer

ReelSetWriter::ReelSetWriter(std::string catalog_path,
                             mocoder::Options emblem_options, Options options)
    : catalog_path_(std::move(catalog_path)),
      emblem_options_(std::move(emblem_options)),
      options_(std::move(options)) {
  catalog_.archive_id = options_.archive_id;
  catalog_.emblem_options = emblem_options_;
  catalog_.emblem_options.threads = 0;  // geometry only, never parallelism
}

Result<std::unique_ptr<ReelSetWriter>> ReelSetWriter::Create(
    const std::string& catalog_path, const mocoder::Options& emblem_options,
    const Options& options) {
  ULE_RETURN_IF_ERROR(mocoder::ValidateOptions(emblem_options));
  return std::unique_ptr<ReelSetWriter>(
      new ReelSetWriter(catalog_path, emblem_options, options));
}

Status ReelSetWriter::SealCurrentReel() {
  if (!current_) return Status::OK();
  ULE_RETURN_IF_ERROR(current_->Finish());
  CatalogReel& row = catalog_.reels.back();
  const std::string path = ReelFileName(catalog_path_,
                                        catalog_.reels.size() - 1);
  ULE_ASSIGN_OR_RETURN(FileDigest sealed, DigestFile(path));
  row.bytes = sealed.bytes;
  row.file_crc = sealed.crc;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    sealed_stats_.push_back(
        ReelStats{row.name, row.data_frames + row.system_frames, sealed.bytes});
    current_.reset();
  }
  current_frames_ = 0;
  current_records_ = 0;
  return Status::OK();
}

Status ReelSetWriter::EnsureRoomFor(uint64_t payload_bytes) {
  if (current_ && current_frames_ > 0) {
    bool roll = false;
    if (options_.shard.max_frames_per_reel > 0 &&
        current_frames_ >= options_.shard.max_frames_per_reel) {
      roll = true;
    }
    if (options_.shard.max_bytes_per_reel > 0) {
      // Project the reel's *sealed* size — records plus the index and
      // footer Finish will add — so the cap bounds the artifact on disk,
      // not just the record region.
      const uint64_t projected =
          current_->bytes_written() + kContainerRecordHeaderBytes +
          payload_bytes +
          (current_records_ + 1) * kContainerIndexEntryBytes +
          kContainerFooterBytes;
      if (projected > options_.shard.max_bytes_per_reel) roll = true;
    }
    if (roll) ULE_RETURN_IF_ERROR(SealCurrentReel());
  }
  if (!current_) {
    const std::string path = ReelFileName(catalog_path_,
                                          catalog_.reels.size());
    ULE_ASSIGN_OR_RETURN(
        std::unique_ptr<ContainerWriter> opened,
        ContainerWriter::Create(path, emblem_options_, options_.container));
    CatalogReel row;
    row.name = std::filesystem::path(path).filename().string();
    row.first_record = static_cast<uint32_t>(total_records_);
    row.first_data_frame = static_cast<uint32_t>(data_frames_total_);
    row.first_system_frame = static_cast<uint32_t>(system_frames_total_);
    std::lock_guard<std::mutex> lock(stats_mu_);
    live_name_ = row.name;
    catalog_.reels.push_back(std::move(row));
    current_ = std::move(opened);
  }
  return Status::OK();
}

Status ReelSetWriter::Append(mocoder::StreamId id,
                             const mocoder::EncodedEmblem& emblem,
                             media::Image&& frame) {
  if (finished_) {
    return Status::InvalidArgument("reel set already finished: " +
                                   catalog_path_);
  }
  // Serialize once, up front: the shard policy needs the record's exact
  // size before deciding which reel it lands on.
  const FrameCodec codec =
      options_.container.bitonal ? FrameCodec::kPbm : FrameCodec::kPgm;
  const Bytes payload =
      options_.container.bitonal ? frame.ToPbm() : frame.ToPgm();
  ULE_RETURN_IF_ERROR(EnsureRoomFor(payload.size()));
  const RecordType type = id == mocoder::StreamId::kData
                              ? RecordType::kDataFrame
                              : RecordType::kSystemFrame;
  ULE_RETURN_IF_ERROR(
      current_->AppendRecord(type, codec, emblem.header.seq, payload));
  CatalogReel& row = catalog_.reels.back();
  row.records += 1;
  if (id == mocoder::StreamId::kData) {
    row.data_frames += 1;
    data_frames_total_ += 1;
  } else {
    row.system_frames += 1;
    system_frames_total_ += 1;
  }
  current_frames_ += 1;
  current_records_ += 1;
  total_records_ += 1;
  return Status::OK();
}

Status ReelSetWriter::AppendBootstrap(const std::string& text) {
  if (finished_) {
    return Status::InvalidArgument("reel set already finished: " +
                                   catalog_path_);
  }
  if (has_bootstrap_) {
    return Status::InvalidArgument("reel set already has a bootstrap record");
  }
  // The Bootstrap rides with the final shard, whatever the budget says: a
  // historian holding the last reel of a set can always boot from it.
  if (!current_) ULE_RETURN_IF_ERROR(EnsureRoomFor(0));
  ULE_RETURN_IF_ERROR(current_->AppendBootstrap(text));
  CatalogReel& row = catalog_.reels.back();
  row.records += 1;
  row.has_bootstrap = true;
  has_bootstrap_ = true;
  current_records_ += 1;
  total_records_ += 1;
  return Status::OK();
}

Status ReelSetWriter::SetIndexSection(Bytes section) {
  if (finished_) {
    return Status::InvalidArgument("reel set already finished: " +
                                   catalog_path_);
  }
  if (has_index_section_) {
    return Status::InvalidArgument(
        "reel set already has a record-index section: " + catalog_path_);
  }
  index_section_ = std::move(section);
  has_index_section_ = true;
  return Status::OK();
}

Status ReelSetWriter::Finish() {
  if (finished_) {
    return Status::InvalidArgument("reel set already finished: " +
                                   catalog_path_);
  }
  // An empty archive still produces one (empty) reel, mirroring the
  // single-container shape.
  if (!current_ && catalog_.reels.empty()) {
    ULE_RETURN_IF_ERROR(EnsureRoomFor(0));
  }
  if (has_index_section_) {
    // The index record lands on the final reel, past its frames, and is
    // counted in that reel's catalog row like any other record.
    ULE_RETURN_IF_ERROR(current_->AppendRecord(
        RecordType::kIndex, FrameCodec::kPgm, 0, index_section_));
    catalog_.reels.back().records += 1;
    current_records_ += 1;
    total_records_ += 1;
    index_section_.clear();
    has_index_section_ = false;
  }
  ULE_RETURN_IF_ERROR(SealCurrentReel());
  ULE_RETURN_IF_ERROR(WriteFileBytes(catalog_path_, catalog_.Serialize()));
  if (options_.parity_reels > 0) {
    // Parity is a function of the sealed reel bytes, so it can only be
    // encoded now; Build rewrites the catalog with the ULE-P1 section.
    ULE_ASSIGN_OR_RETURN(
        catalog_, ParityReelWriter::Build(catalog_path_,
                                          options_.parity_reels));
  }
  finished_ = true;
  return Status::OK();
}

std::vector<ReelStats> ReelSetWriter::CurrentReelStats() const {
  // Sealed reels come from the snapshot this writer maintains; the open
  // reel reports through the container's own (thread-safe) counters. The
  // catalog rows are the archiving thread's private state and are not
  // touched here.
  std::lock_guard<std::mutex> lock(stats_mu_);
  std::vector<ReelStats> stats = sealed_stats_;
  if (current_) {
    std::vector<ReelStats> live = current_->CurrentReelStats();
    if (!live.empty()) {
      live.front().name = live_name_;
      stats.push_back(std::move(live.front()));
    }
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Reader

ReelSetReader::~ReelSetReader() {
  for (const std::string& temp : temp_files_) std::remove(temp.c_str());
}

Result<std::unique_ptr<ReelSetReader>> ReelSetReader::Open(
    const std::string& path, const ReelOpenOptions& opt) {
  ULE_ASSIGN_OR_RETURN(ReelCatalog catalog, LoadCatalog(path));
  auto reader = std::unique_ptr<ReelSetReader>(new ReelSetReader());
  reader->path_ = path;
  reader->dir_ = std::filesystem::path(path).parent_path().string();
  reader->catalog_ = std::move(catalog);

  // Try every reel; damage stays per-reel. A reel that opens but
  // disagrees with the catalog is treated as damaged too — a renamed or
  // swapped file must not silently serve another archive's frames.
  const ReelCatalog& cat = reader->catalog_;
  for (size_t i = 0; i < cat.reels.size(); ++i) {
    const CatalogReel& row = cat.reels[i];
    const std::string reel_path = JoinPath(reader->dir_, row.name);
    const std::string context =
        "reel " + std::to_string(i) + " (" + row.name + "): ";
    auto opened = ContainerReader::Open(reel_path);
    if (!opened.ok()) {
      reader->reels_.emplace_back(nullptr);
      reader->reel_status_.push_back(Status(
          opened.status().code(), context + opened.status().message()));
      continue;
    }
    std::unique_ptr<ContainerReader> reel = std::move(opened).TakeValue();
    Status status = Status::OK();
    if (reel->entries().size() != row.records ||
        reel->frame_count(mocoder::StreamId::kData) != row.data_frames ||
        reel->frame_count(mocoder::StreamId::kSystem) != row.system_frames ||
        reel->has_bootstrap() != row.has_bootstrap) {
      status = Status::Corruption(context +
                                  "record counts disagree with the catalog");
    } else if (reel->emblem_options().data_side !=
                   cat.emblem_options.data_side ||
               reel->emblem_options().dots_per_cell !=
                   cat.emblem_options.dots_per_cell ||
               reel->emblem_options().quiet_cells !=
                   cat.emblem_options.quiet_cells) {
      status = Status::Corruption(context +
                                  "emblem geometry disagrees with the "
                                  "catalog");
    }
    if (!status.ok()) reel.reset();
    reader->reels_.push_back(std::move(reel));
    reader->reel_status_.push_back(std::move(status));
  }
  reader->reel_damage_ = reader->reel_status_;
  reader->reconstructed_.assign(cat.reels.size(), false);

  // A parity-protected set is digested on open: the catalog's per-file
  // CRCs catch silent flips a structural open never sees, and whatever
  // they catch (up to m whole streams) is rebuilt from parity into temp
  // copies before any frame is served — the per-emblem recovery above
  // this layer then has nothing to do.
  if (cat.parity.present()) {
    reader->parity_status_.assign(cat.parity.reels.size(), Status::OK());
    ULE_ASSIGN_OR_RETURN(SetHealth health, AssessSet(cat, reader->dir_));
    for (size_t p : health.damaged_parity) {
      reader->parity_status_[p] = Status::Corruption(
          "parity reel " + std::to_string(p) + " (" +
          cat.parity.reels[p].name + "): file disagrees with the catalog");
    }
    for (size_t i : health.damaged_data) {
      if (reader->reel_damage_[i].ok()) {
        reader->reel_damage_[i] = Status::Corruption(
            "reel " + std::to_string(i) + " (" + cat.reels[i].name +
            "): file bytes disagree with the catalog (silent corruption)");
      }
    }
    if (!health.damaged_data.empty() && opt.reconstruct &&
        Recoverable(cat, health)) {
      // Unique temp suffix: two readers may heal the same set at once.
      static std::atomic<uint64_t> recovery_seq{0};
      const std::string suffix =
          ".recovered." + std::to_string(recovery_seq.fetch_add(1));
      ReconstructOptions ropt;
      ropt.data_suffix = suffix;
      auto rebuilt = ReconstructDamaged(cat, reader->dir_, health, ropt);
      if (rebuilt.ok()) {
        for (size_t i : health.damaged_data) {
          const std::string rebuilt_path =
              JoinPath(reader->dir_, cat.reels[i].name + suffix);
          reader->temp_files_.push_back(rebuilt_path);
          auto opened = ContainerReader::Open(rebuilt_path);
          if (!opened.ok()) continue;  // keep the original damage Status
          reader->reels_[i] = std::move(opened).TakeValue();
          reader->reel_status_[i] = Status::OK();
          reader->reconstructed_[i] = true;
        }
      }
      // A failed reconstruction leaves the per-reel damage in place:
      // the set degrades exactly like a parity-less one. Likewise when
      // the damage exceeds parity's reach — a silently-flipped reel
      // that still opens keeps serving, and its record CRCs fail
      // exactly at the flipped record, nowhere else.
    }
  }
  return reader;
}

size_t ReelSetReader::reconstructed_reels() const {
  size_t n = 0;
  for (bool r : reconstructed_) n += r ? 1 : 0;
  return n;
}

size_t ReelSetReader::surviving_reels() const {
  size_t n = 0;
  for (const Status& s : reel_status_) n += s.ok() ? 1 : 0;
  return n;
}

bool ReelSetReader::has_bootstrap() const {
  for (size_t i = 0; i < catalog_.reels.size(); ++i) {
    if (catalog_.reels[i].has_bootstrap && reel_status_[i].ok()) return true;
  }
  return false;
}

Result<std::string> ReelSetReader::ReadBootstrap() const {
  for (size_t i = 0; i < catalog_.reels.size(); ++i) {
    if (!catalog_.reels[i].has_bootstrap) continue;
    if (!reel_status_[i].ok()) {
      return Status(reel_status_[i].code(),
                    "the bootstrap reel is damaged: " +
                        reel_status_[i].message());
    }
    return reels_[i]->ReadBootstrap();
  }
  return Status::NotFound("reel set has no bootstrap record: " + path_);
}

std::unique_ptr<FrameSource> ReelSetReader::OpenFrames(
    mocoder::StreamId id) const {
  std::vector<std::unique_ptr<FrameSource>> reels;
  for (size_t i = 0; i < reels_.size(); ++i) {
    // A dead reel's frames are lost; a parity-reconstructed one serves
    // from its rebuilt copy.
    if (reel_status_[i].ok()) reels.push_back(reels_[i]->OpenFrames(id));
  }
  return std::make_unique<ReelChainSource>(std::move(reels));
}

Result<media::Image> ReelSetReader::ReadFrame(mocoder::StreamId id,
                                              size_t index) const {
  for (size_t i = 0; i < catalog_.reels.size(); ++i) {
    const CatalogReel& row = catalog_.reels[i];
    const size_t first = id == mocoder::StreamId::kData
                             ? row.first_data_frame
                             : row.first_system_frame;
    const size_t count =
        id == mocoder::StreamId::kData ? row.data_frames : row.system_frames;
    if (index < first || index >= first + count) continue;
    if (!reel_status_[i].ok()) {
      return Status(reel_status_[i].code(),
                    "frame " + std::to_string(index) +
                        " lives on a damaged reel: " +
                        reel_status_[i].message());
    }
    return reels_[i]->ReadFrame(id, index - first);
  }
  return Status::OutOfRange(
      "frame " + std::to_string(index) + " out of range (set has " +
      std::to_string(catalog_.frame_count(id)) + " frames): " + path_);
}

Result<Bytes> ReelSetReader::ReadIndexSection() const {
  for (size_t i = reels_.size(); i > 0; --i) {
    if (!reel_status_[i - 1].ok()) continue;
    auto section = reels_[i - 1]->ReadIndexSection();
    if (section.ok() || section.status().code() != StatusCode::kNotFound) {
      return section;
    }
  }
  return Status::NotFound("reel set has no record-index section: " + path_);
}

ReadCounters ReelSetReader::read_counters() const {
  ReadCounters total;
  for (const auto& reel : reels_) {
    if (!reel) continue;
    const ReadCounters r = reel->read_counters();
    total.records += r.records;
    total.bytes += r.bytes;
  }
  return total;
}

Status ReelSetReader::Verify() const {
  // The digest sweep Open and scrub run: every data and parity reel must
  // match its catalog row (sealed size + file CRC).
  ULE_ASSIGN_OR_RETURN(SetHealth health, AssessSet(catalog_, dir_));
  for (size_t i = 0; i < catalog_.reels.size(); ++i) {
    const std::string context =
        "reel " + std::to_string(i) + " (" + catalog_.reels[i].name + "): ";
    // Pre-reconstruction damage: a reel serving from a parity-rebuilt
    // copy is still a damaged artifact on disk, and verify's job is to
    // say so (scrub's is to repair it).
    if (!reel_damage_[i].ok()) return reel_damage_[i];
    // Damaged indices are sorted and any below `i` returned already.
    if (!health.damaged_data.empty() && health.damaged_data.front() == i) {
      return Status::Corruption(context +
                                "file size or CRC disagrees with the catalog");
    }
    Status deep = reels_[i]->Verify();
    if (!deep.ok()) {
      return Status(deep.code(), context + deep.message());
    }
  }
  // Parity reels are part of the artifact too: a set whose parity
  // rotted is one failure away from real loss.
  if (!health.damaged_parity.empty()) {
    const size_t p = health.damaged_parity.front();
    return Status::Corruption("parity reel " + std::to_string(p) + " (" +
                              catalog_.parity.reels[p].name +
                              "): file size or CRC disagrees with the "
                              "catalog");
  }
  return Status::OK();
}

}  // namespace filmstore
}  // namespace ule
