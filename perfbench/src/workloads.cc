#include "workloads.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <utility>

#include "filmstore/container.h"
#include "filmstore/reel_reader.h"
#include "filmstore/scrub.h"
#include "media/profiles.h"
#include "media/scanner.h"
#include "minidb/sqldump.h"
#include "support/parallel.h"
#include "support/random.h"
#include "tpch/tpch.h"

namespace perfbench {

using namespace ule;

namespace {

constexpr double kArchiveSessionSf = 0.002;
constexpr double kEmulatedRestoreSf = 0.0002;
constexpr size_t kMicrofilmPayloadBytes = 102 * 1000;
constexpr uint64_t kMaxPayloadDraws = 8;
constexpr uint64_t kLookupRows = 100;
constexpr uint64_t kLookupSeed = 19920101;
constexpr size_t kLookupsPerPass = 160;  // 20 per table
// A pass runs in this many rounds, each with its share of every operation
// (the one emulated restore in the last), so each metric's samples spread
// over the pass and a stall of the host a few seconds long cannot decide
// a median.
constexpr size_t kRounds = 8;
// The probe reel is the same for every --seed: its ~27 KB dump is so small
// that the seed's data alone moved its emulated KB/s by 7-9% over five
// seeds (the frame count steps as the dump size moves).
constexpr uint64_t kProbeSeed = 20000101;

/// Frame sink of the microfilm set-up: prints each frame bitonally,
/// scans it through the profile's distortion model and spools the scan.
/// Frames are scanned in batches of kThreads on the shared pool, so no
/// more than kThreads printed frames and kThreads scans are alive.
///
/// Every frame gets the profile's own damage placement (E5's).
class ScanningSink final : public filmstore::FrameSink {
 public:
  ScanningSink(filmstore::ContainerWriter& out, media::ScanProfile profile)
      : out_(out), profile_(profile) {}

  Status Append(mocoder::StreamId id, const mocoder::EncodedEmblem& emblem,
                media::Image&& frame) override {
    pending_.push_back(Pending{id, emblem.header, std::move(frame)});
    if (pending_.size() == static_cast<size_t>(kThreads)) return Flush();
    return Status::OK();
  }

  Status Flush() {
    ULE_RETURN_IF_ERROR(ParallelFor(
        0, pending_.size(),
        [&](size_t i) -> Status {
          media::Image& image = pending_[i].image;
          for (auto& px : image.mutable_pixels()) px = px < 128 ? 0 : 255;
          image = media::Scan(image, profile_);
          return Status::OK();
        },
        kThreads));
    for (Pending& p : pending_) {
      mocoder::EncodedEmblem emblem;
      emblem.header = p.header;
      ULE_RETURN_IF_ERROR(out_.Append(p.id, emblem, std::move(p.image)));
    }
    pending_.clear();
    return Status::OK();
  }

 private:
  struct Pending {
    mocoder::StreamId id;
    mocoder::EmblemHeader header;
    media::Image image;
  };
  filmstore::ContainerWriter& out_;
  media::ScanProfile profile_;
  std::vector<Pending> pending_;
};

core::ArchiveOptions MicrofilmArchiveOptions(
    const media::MediaProfile& profile) {
  core::ArchiveOptions options;
  options.scheme = dbcoder::Scheme::kStore;  // incompressible payload
  options.emblem.dots_per_cell = profile.dots_per_cell;
  // The emblem fills the frame (ring + quiet-zone geometry), as in E5.
  const int usable = std::min(profile.frame_width, profile.frame_height);
  options.emblem.data_side =
      usable / profile.dots_per_cell - 2 * mocoder::kFrameCells -
      2 * options.emblem.quiet_cells;
  options.emblem.threads = kThreads;
  return options;
}

/// The set-up's test that the payload survived the scanner: a native
/// restore of the scans, outside the op counters.
bool ScansRestore(const std::string& path, const std::string& payload) {
  auto reader = filmstore::ContainerReader::Open(path);
  if (!reader.ok()) return false;
  mocoder::Options options = reader.value()->emblem_options();
  options.threads = kThreads;
  auto data = reader.value()->OpenFrames(mocoder::StreamId::kData);
  auto system = reader.value()->OpenFrames(mocoder::StreamId::kSystem);
  auto out = core::RestoreNativeStreaming(*data, system.get(), options);
  return out.ok() && out.value() == payload;
}

Status ArchiveScans(const std::string& payload, const std::string& path) {
  const media::MediaProfile profile = media::Microfilm16mm();
  const core::ArchiveOptions options = MicrofilmArchiveOptions(profile);
  filmstore::ContainerWriter::Options copt;
  copt.bitonal = true;  // the scans are bitonal: PBM is lossless for them
  ULE_ASSIGN_OR_RETURN(auto writer, filmstore::ContainerWriter::Create(
                                        path, options.emblem, copt));
  ScanningSink sink(*writer, profile.scan);
  ULE_ASSIGN_OR_RETURN(core::ArchiveSummary summary,
                       core::ArchiveDumpStreaming(payload, options, sink));
  ULE_RETURN_IF_ERROR(sink.Flush());
  ULE_RETURN_IF_ERROR(writer->AppendBootstrap(summary.bootstrap_text));
  return writer->Finish();
}

void Fail(PassResult* r, const std::string& what) {
  r->failed += 1;
  r->failures.push_back(what);
}

/// Runs `fn` as one operation: timed, and recorded as an op when traced.
template <typename Fn>
double TimeOp(Tracer* tracer, const char* name, Fn&& fn) {
  const int op = tracer != nullptr ? tracer->BeginOp(name) : 0;
  const Clock::time_point t0 = Clock::now();
  fn(op);
  const double seconds = Seconds(t0, Clock::now());
  if (tracer != nullptr) tracer->EndOp(op);
  return seconds;
}

/// The lookups of one pass: tables in turn (uniform over tables), a
/// start row at a random fraction of the table, 100 rows. Every pass and
/// every --seed issues the same sequence: lookup latencies cluster by
/// table and by whether a lookup straddles two index chunks, so a
/// percentile of a seed- or pass-drawn sequence jumps between clusters
/// from run to run (25-31% spread over ten seeds); a fixed sequence over
/// seeded data does not.
std::vector<core::RestorePredicate> LookupSequence(const Reel& reel,
                                                   size_t n) {
  Rng rng(kLookupSeed);
  const std::vector<std::string> tables = reel.db.TableNames();
  std::vector<core::RestorePredicate> preds;
  for (size_t i = 0; i < n; ++i) {
    core::RestorePredicate pred;
    pred.table = tables[i % tables.size()];
    const size_t rows = reel.db.GetTable(pred.table)->row_count();
    pred.row_begin =
        static_cast<uint64_t>(rng.NextDouble() * static_cast<double>(rows));
    pred.row_count = kLookupRows;
    preds.push_back(std::move(pred));
  }
  return preds;
}

/// (type, length, CRC, seq) of every record of a container.
std::vector<std::tuple<int, uint32_t, uint32_t, uint16_t>> Signature(
    const std::string& path) {
  std::vector<std::tuple<int, uint32_t, uint32_t, uint16_t>> sig;
  auto reader = filmstore::ContainerReader::Open(path);
  if (!reader.ok()) return sig;
  for (const filmstore::ContainerEntry& e : reader.value()->entries()) {
    sig.emplace_back(static_cast<int>(e.type), e.payload_len, e.payload_crc,
                     e.seq);
  }
  return sig;
}

}  // namespace

WorkFiles::~WorkFiles() {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

std::string WorkFiles::Fresh(const std::string& stem) {
  return dir_ + "/" + stem + "-" + std::to_string(next_++) + ".ulec";
}

void WorkFiles::Settle() const {
  const int fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

std::optional<Kind> ParseKind(std::string_view name) {
  for (Kind kind : {Kind::kArchiveSession, Kind::kEmulatedRestore,
                    Kind::kMicrofilmScan}) {
    if (name == KindName(kind)) return kind;
  }
  return std::nullopt;
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kArchiveSession:
      return "tpch_archive_session";
    case Kind::kEmulatedRestore:
      return "tpch_emulated_restore";
    case Kind::kMicrofilmScan:
      return "microfilm_scan_restore";
  }
  return "";
}

const Reel& Workload::emulated_reel() const {
  return kind == Kind::kEmulatedRestore ? main : *probe;
}

const Reel& Workload::lookup_reel() const {
  return kind == Kind::kMicrofilmScan ? *probe : main;
}

Result<Reel> MakeTpchReel(double scale_factor, uint64_t seed,
                          std::string path) {
  tpch::Options options;
  options.scale_factor = scale_factor;
  options.seed = seed;
  Reel reel;
  ULE_ASSIGN_OR_RETURN(reel.db, tpch::Generate(options));
  reel.dump = minidb::DumpSql(reel.db);
  reel.path = std::move(path);
  return reel;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + salt);
  return rng.Next();
}

core::ArchiveOptions DefaultArchiveOptions() {
  core::ArchiveOptions options;
  options.scheme = dbcoder::Scheme::kLzac;
  options.emblem.data_side = 128;
  options.emblem.dots_per_cell = 4;
  options.emblem.threads = kThreads;
  options.build_index = true;
  return options;
}

Result<Workload> Setup(Kind kind, uint64_t seed, WorkFiles& files) {
  Workload w;
  w.kind = kind;
  w.archive_options = DefaultArchiveOptions();
  const uint64_t tpch_seed = DeriveSeed(seed, 1);
  switch (kind) {
    case Kind::kArchiveSession:
    case Kind::kEmulatedRestore: {
      const bool session = kind == Kind::kArchiveSession;
      ULE_ASSIGN_OR_RETURN(
          w.main,
          MakeTpchReel(session ? kArchiveSessionSf : kEmulatedRestoreSf,
                       tpch_seed, files.Fresh("reel")));
      ULE_RETURN_IF_ERROR(ArchiveToContainer(w.main.dump, w.archive_options,
                                             false, w.main.path)
                              .status());
      w.archive_reps = session ? 2 : 10;
      w.scrub_reps = session ? 4 : 50;
      w.native_reps = session ? 2 : 8;
      break;
    }
    case Kind::kMicrofilmScan: {
      // This profile sits at the edge of the inner code: with the same
      // damage, about one payload in ten loses 4 of its 7 data frames,
      // past the outer code's 3. The workload measures restores that
      // succeed, so a payload the scans do not restore is replaced by the
      // seed's next draw.
      for (uint64_t draw = 0;; ++draw) {
        if (draw == kMaxPayloadDraws) {
          return Status::Corruption("no payload drawn from this seed "
                                    "survives the microfilm scanner");
        }
        Rng rng(DeriveSeed(seed, 2 + 100 * draw));
        w.main.dump = ToString(RandomBytes(&rng, kMicrofilmPayloadBytes));
        w.main.path = files.Fresh("c_scans");
        ULE_RETURN_IF_ERROR(ArchiveScans(w.main.dump, w.main.path));
        if (ScansRestore(w.main.path, w.main.dump)) break;
        std::error_code ec;
        std::filesystem::remove(w.main.path, ec);
      }
      w.archive_options = MicrofilmArchiveOptions(media::Microfilm16mm());
      w.archive_bitonal = true;  // the film writer is bitonal
      w.archive_reps = 4;
      w.scrub_reps = 4;
      w.native_reps = 2;
      break;
    }
  }
  if (kind != Kind::kEmulatedRestore) {
    ULE_ASSIGN_OR_RETURN(
        Reel probe, MakeTpchReel(kProbeSf, kProbeSeed, files.Fresh("probe")));
    ULE_RETURN_IF_ERROR(ArchiveToContainer(probe.dump, DefaultArchiveOptions(),
                                           false, probe.path)
                            .status());
    w.probe = std::move(probe);
  }
  return w;
}

bool ScrubOp(const std::string& path, Tracer* tracer, LayerCounts* counts,
             PassResult* r) {
  r->attempted += 1;
  bool healthy = false;
  r->scrub_s.push_back(TimeOp(tracer, "scrub", [&](int op) {
    if (tracer != nullptr) {
      healthy = TracedScrub(path, *tracer, op, counts);
      return;
    }
    auto health = filmstore::ScrubArchive(path, /*repair=*/false);
    healthy = health.ok() &&
              health.value().state == filmstore::ArchiveState::kHealthy;
  }));
  std::error_code ec;
  r->scrubbed_bytes = std::filesystem::file_size(path, ec);
  r->scrub_healthy = healthy;
  if (!healthy) Fail(r, "scrub: " + path + " is not healthy");
  return healthy;
}

bool RestoreNativeOp(const Reel& reel, Tracer* tracer, LayerCounts* counts,
                     PassResult* r) {
  r->attempted += 1;
  Result<std::string> out = Status::InvalidArgument("not run");
  r->native_stats = core::RestoreStats();
  r->restore_native_s.push_back(TimeOp(tracer, "restore_native", [&](int op) {
    if (tracer != nullptr) {
      out = TracedRestoreNative(reel.path, kThreads, *tracer, op, counts,
                                &r->native_stats);
      return;
    }
    auto reader = filmstore::ContainerReader::Open(reel.path);
    if (!reader.ok()) {
      out = reader.status();
      return;
    }
    mocoder::Options options = reader.value()->emblem_options();
    options.threads = kThreads;
    auto data = reader.value()->OpenFrames(mocoder::StreamId::kData);
    auto system = reader.value()->OpenFrames(mocoder::StreamId::kSystem);
    out = core::RestoreNativeStreaming(*data, system.get(), options,
                                       &r->native_stats);
  }));
  if (!out.ok()) {
    Fail(r, "restore_native: " + out.status().ToString());
    return false;
  }
  r->native_out = out.TakeValue();
  if (r->native_out != reel.dump) {
    Fail(r, "restore_native: output differs from the dump");
    return false;
  }
  return true;
}

bool RestoreEmulatedOp(const Reel& reel, Tracer* tracer, LayerCounts* counts,
                       PassResult* r) {
  r->attempted += 1;
  Result<std::string> out = Status::InvalidArgument("not run");
  r->emulated_stats = core::RestoreStats();
  r->restore_emulated_s.push_back(
      TimeOp(tracer, "restore_emulated", [&](int op) {
    if (tracer != nullptr) {
      out = TracedRestoreEmulated(reel.path, kThreads, *tracer, op, counts,
                                  &r->emulated_stats);
      return;
    }
    auto reader = filmstore::ContainerReader::Open(reel.path);
    if (!reader.ok()) {
      out = reader.status();
      return;
    }
    auto text = reader.value()->ReadBootstrap();
    if (!text.ok()) {
      out = text.status();
      return;
    }
    mocoder::Options options = reader.value()->emblem_options();
    options.threads = kThreads;
    auto data = reader.value()->OpenFrames(mocoder::StreamId::kData);
    auto system = reader.value()->OpenFrames(mocoder::StreamId::kSystem);
    out = core::RestoreEmulatedStreaming(*data, *system, text.value(), options,
                                         &r->emulated_stats);
  }));
  if (!out.ok()) {
    Fail(r, "restore_emulated: " + out.status().ToString());
    return false;
  }
  r->emulated_out = out.TakeValue();
  if (r->emulated_out != reel.dump) {
    Fail(r, "restore_emulated: output differs from the dump");
    return false;
  }
  return true;
}

bool LookupOp(const Reel& reel, const core::RestorePredicate& pred,
              Tracer* tracer, PassResult* r) {
  r->attempted += 1;
  Result<std::string> out = Status::InvalidArgument("not run");
  core::SelectiveStats stats;
  uint64_t records = 0;
  const double seconds = TimeOp(tracer, "lookup", [&](int op) {
    // Opened afresh per lookup, as `ulectl restore --table --rows` does.
    Result<std::unique_ptr<filmstore::ReelReader>> reader =
        Status::InvalidArgument("not opened");
    {
      std::optional<Span> span;
      if (tracer != nullptr) span.emplace(*tracer, "filmstore.open", op);
      reader = filmstore::OpenReel(reel.path);
    }
    if (!reader.ok()) {
      out = reader.status();
      return;
    }
    core::SelectiveOptions options;
    options.threads = kThreads;
    {
      std::optional<Span> span;
      if (tracer != nullptr) span.emplace(*tracer, "core.selective", op);
      out = core::RestoreSelective(*reader.value(), pred, options, &stats);
    }
    records = reader.value()->read_counters().records;
  });
  const std::string what = "lookup " + pred.table + " rows " +
                           std::to_string(pred.row_begin) + "+" +
                           std::to_string(pred.row_count);
  if (!out.ok()) {
    Fail(r, what + ": " + out.status().ToString());
    return false;
  }
  r->lookup_s.push_back(seconds);
  r->lookup_records += records;
  r->lookup_emblems += stats.emblems_decoded;
  r->lookup_chunks += stats.chunks_decoded;
  // The rows must be exactly those rows of the generated table.
  auto loaded = minidb::LoadSql(out.value());
  const minidb::Table* got =
      loaded.ok() ? loaded.value().GetTable(pred.table) : nullptr;
  const minidb::Table* want = reel.db.GetTable(pred.table);
  bool same = got != nullptr && want != nullptr;
  if (same) {
    const auto& rows = want->rows();
    const size_t begin = std::min<size_t>(pred.row_begin, rows.size());
    const size_t end =
        std::min<size_t>(begin + pred.row_count, rows.size());
    same = std::equal(got->rows().begin(), got->rows().end(),
                      rows.begin() + begin, rows.begin() + end) &&
           got->rows().size() == end - begin;
  }
  if (!same) {
    Fail(r, what + ": rows differ from the generated table");
    return false;
  }
  return true;
}

void ArchiveOp(const Workload& w, WorkFiles& files, Tracer* tracer,
               PassResult* r) {
  const std::string path = files.Fresh("archive");
  r->attempted += 1;
  Result<size_t> frames = Status::InvalidArgument("not run");
  r->archive_s.push_back(TimeOp(tracer, "archive", [&](int op) {
    frames = ArchiveToContainer(w.main.dump, w.archive_options,
                                w.archive_bitonal, path, tracer, op);
  }));
  if (frames.ok()) {
    r->frames = frames.value();
  } else {
    Fail(r, "archive: " + frames.status().ToString());
  }
  std::error_code ec;
  r->container_bytes = std::filesystem::file_size(path, ec);
  if (r->archive_s.size() == 1) r->archive_signature = Signature(path);
  std::filesystem::remove(path, ec);
}

PassResult RunPass(const Workload& w, WorkFiles& files, Tracer* tracer,
                   LayerCounts* counts) {
  PassResult r;
  const Reel& lookups = w.lookup_reel();
  const std::vector<core::RestorePredicate> preds =
      LookupSequence(lookups, kLookupsPerPass);
  // [first, last) of n operations that fall to round `round`.
  const auto share = [](size_t n, size_t round) {
    return std::make_pair(n * round / kRounds, n * (round + 1) / kRounds);
  };
  for (size_t round = 0; round < kRounds; ++round) {
    for (auto [i, end] = share(w.archive_reps, round); i < end; ++i) {
      ArchiveOp(w, files, tracer, &r);
    }
    for (auto [i, end] = share(w.scrub_reps, round); i < end; ++i) {
      ScrubOp(w.main.path, tracer, counts, &r);
    }
    for (auto [i, end] = share(w.native_reps, round); i < end; ++i) {
      RestoreNativeOp(w.main, tracer, counts, &r);
    }
    for (auto [i, end] = share(1, round); i < end; ++i) {
      RestoreEmulatedOp(w.emulated_reel(), tracer, counts, &r);
    }
    for (auto [i, end] = share(preds.size(), round); i < end; ++i) {
      LookupOp(lookups, preds[i], tracer, &r);
    }
  }
  return r;
}

}  // namespace perfbench
