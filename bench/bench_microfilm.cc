// Experiments E5 + E6 — microfilm and cinema film (paper §4):
//   E5: 102 KB image -> 3 emblems in 3888x5498 bitonal microfilm frames;
//       capacity model: 1.3 GB per 66 m reel.
//   E6: the same payload in 2048x1556 (2K) cinema frames scanned at 4K
//       grayscale; cinema scans are sharper -> decode margin is larger.
// The paper's payload was a TIFF image (already-compressed, incompressible
// bytes); ours is random bytes of the same size.

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bench/bench_report.h"
#include "core/micr_olonys.h"
#include "core/selective.h"
#include "dbcoder/dbcoder.h"
#include "filmstore/container.h"
#include "filmstore/frame_store.h"
#include "filmstore/parity.h"
#include "filmstore/reel_reader.h"
#include "filmstore/reel_set.h"
#include "filmstore/scrub.h"
#include "media/profiles.h"
#include "media/scanner.h"
#include "minidb/sqldump.h"
#include "mocoder/outer.h"
#include "rs/gf256.h"
#include "support/crc32.h"
#include "support/kernels.h"
#include "support/parallel.h"
#include "support/random.h"
#include "tpch/tpch.h"

using namespace ule;
using Clock = std::chrono::steady_clock;

namespace {

/// Shared archive setup for one media profile: incompressible-payload
/// scheme and an emblem sized to the frame (ring + quiet-zone geometry).
/// Both the materialized and streaming runs must archive with identical
/// options or the memory comparison is meaningless.
core::ArchiveOptions MakeArchiveOptions(const media::MediaProfile& profile,
                                        int dots_per_cell) {
  core::ArchiveOptions options;
  options.scheme = dbcoder::Scheme::kStore;  // incompressible payload
  options.emblem.dots_per_cell = dots_per_cell;
  const int usable = std::min(profile.frame_width, profile.frame_height);
  options.emblem.data_side = usable / dots_per_cell - 2 * 5 - 2 * 2;
  return options;
}

struct RunResult {
  size_t data_emblems = 0;    // data slots only
  size_t parity_emblems = 0;  // outer-code overhead
  int emblem_capacity = 0;
  bool exact = false;
  int rs_errors = 0;
  double archive_s = 0;
  double restore_s = 0;
};

RunResult RunOn(const media::MediaProfile& profile, const std::string& payload,
                int dots_per_cell) {
  const core::ArchiveOptions options = MakeArchiveOptions(profile,
                                                          dots_per_cell);
  RunResult out;
  out.emblem_capacity = mocoder::EmblemCapacity(options.emblem.data_side);
  filmstore::MemoryStore store;
  const auto t0 = Clock::now();
  auto archive = core::ArchiveDumpStreaming(payload, options, store);
  out.archive_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!archive.ok()) return out;
  for (const auto& e : store.emblems(mocoder::StreamId::kData)) {
    if (mocoder::IsParitySlot(e.header.seq)) {
      ++out.parity_emblems;
    } else {
      ++out.data_emblems;
    }
  }

  std::vector<media::Image> data_scans, system_scans;
  for (const auto& img : store.frames(mocoder::StreamId::kData)) {
    media::Image printed = img;
    if (profile.bitonal_write) {
      for (auto& px : printed.mutable_pixels()) px = px < 128 ? 0 : 255;
    }
    data_scans.push_back(media::Scan(printed, profile.scan));
  }
  for (const auto& img : store.frames(mocoder::StreamId::kSystem)) {
    media::Image printed = img;
    if (profile.bitonal_write) {
      for (auto& px : printed.mutable_pixels()) px = px < 128 ? 0 : 255;
    }
    system_scans.push_back(media::Scan(printed, profile.scan));
  }
  core::RestoreStats stats;
  const auto t1 = Clock::now();
  filmstore::VectorSource data_source(data_scans);
  filmstore::VectorSource system_source(system_scans);
  auto restored = core::RestoreNativeStreaming(
      data_source, &system_source, archive.value().emblem_options, &stats);
  out.restore_s = std::chrono::duration<double>(Clock::now() - t1).count();
  out.exact = restored.ok() && restored.value() == payload;
  out.rs_errors = stats.data_stream.rs_errors_corrected;
  return out;
}

/// End-to-end *streaming* pipeline on the same media profile: frames flow
/// archive → print/scan simulation → streaming decoders one at a time,
/// bounded by the pipeline window, with no vector of frames or scans ever
/// materialized. Returns wall seconds; fills gauges for the memory story.
struct StreamingResult {
  bool exact = false;
  double seconds = 0;
  size_t frames = 0;
  size_t frame_bytes = 0;        ///< pixels of one frame
  size_t peak_window_frames = 0; ///< most frames alive in the pipe at once
};

StreamingResult RunStreaming(const media::MediaProfile& profile,
                             const std::string& payload, int dots_per_cell) {
  const core::ArchiveOptions options = MakeArchiveOptions(profile,
                                                          dots_per_cell);
  StreamingResult out;
  mocoder::Options decode_options = options.emblem;
  mocoder::StreamDecoder data_decoder(mocoder::StreamId::kData,
                                      decode_options);
  mocoder::StreamDecoder system_decoder(mocoder::StreamId::kSystem,
                                        decode_options);
  const auto t0 = Clock::now();
  filmstore::FunctionSink sink(
      [&](mocoder::StreamId id, const mocoder::EncodedEmblem&,
          media::Image&& frame) -> Status {
        // One frame in hand: "print" it, "scan" it, push the scan into
        // the matching stream decoder. Nothing accumulates here.
        out.frames += 1;
        out.frame_bytes = frame.pixels().size();
        if (profile.bitonal_write) {
          for (auto& px : frame.mutable_pixels()) px = px < 128 ? 0 : 255;
        }
        media::Image scan = media::Scan(frame, profile.scan);
        auto& decoder = id == mocoder::StreamId::kData ? data_decoder
                                                       : system_decoder;
        return decoder.Push(std::move(scan));
      });
  auto summary = core::ArchiveDumpStreaming(payload, options, sink);
  if (!summary.ok()) return out;
  auto container = data_decoder.Finish();
  auto system_stream = system_decoder.Finish();
  if (!container.ok() || !system_stream.ok()) return out;
  auto restored = dbcoder::Decode(container.value());
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  out.exact = restored.ok() && ToString(restored.value()) == payload;
  // The documented window contract: at most 2×threads frames in the
  // encode ring plus 2×threads scans in a decoder channel.
  out.peak_window_frames = 4 * static_cast<size_t>(ResolveThreadCount(0));
  return out;
}

/// Spool-to-disk pipeline: frames flow archive → ULE-C1 container on
/// disk (append-only), then back container → streaming restore, with no
/// frame vector ever materialized. This is the larger-than-RAM shape:
/// peak RSS stays O(threads × emblem) while the archive lives on disk.
struct SpoolResult {
  bool exact = false;
  double write_s = 0;  ///< archive + container spool (frames to disk)
  double read_s = 0;   ///< container read + streaming native restore
  size_t frames = 0;
  uint64_t container_bytes = 0;
};

SpoolResult RunSpool(const media::MediaProfile& profile,
                     const std::string& payload, int dots_per_cell) {
  const core::ArchiveOptions options = MakeArchiveOptions(profile,
                                                          dots_per_cell);
  SpoolResult out;
  const std::string path = "bench_microfilm_spool.ulec";
  // The spool file is scratch; drop it on every exit path.
  struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  } cleanup{path};
  filmstore::ContainerWriter::Options copt;
  copt.bitonal = profile.bitonal_write;  // film reels are bitonal: PBM
  auto writer = filmstore::ContainerWriter::Create(path, options.emblem,
                                                   copt);
  if (!writer.ok()) return out;
  const auto t0 = Clock::now();
  auto summary = core::ArchiveDumpStreaming(payload, options,
                                            *writer.value());
  if (!summary.ok() || !writer.value()->Finish().ok()) return out;
  out.write_s = std::chrono::duration<double>(Clock::now() - t0).count();
  out.frames = summary.value().data_frames + summary.value().system_frames;
  std::error_code ec;
  out.container_bytes = std::filesystem::file_size(path, ec);

  const auto t1 = Clock::now();
  auto reader = filmstore::ContainerReader::Open(path);
  if (!reader.ok()) return out;
  auto data_source = reader.value()->OpenFrames(mocoder::StreamId::kData);
  auto system_source = reader.value()->OpenFrames(mocoder::StreamId::kSystem);
  auto restored = core::RestoreNativeStreaming(
      *data_source, system_source.get(), reader.value()->emblem_options());
  out.read_s = std::chrono::duration<double>(Clock::now() - t1).count();
  out.exact = restored.ok() && restored.value() == payload;
  return out;
}

/// Sharded spool: the same payload split across a ULE-R1 reel set of
/// `reel_target` reels, then restored through the parallel reel-set
/// source. Shard sizing reuses the frame count the single-spool run
/// measured.
struct ShardedResult {
  bool exact = false;
  double write_s = 0;
  double read_s = 0;
  size_t reels = 0;
  uint64_t total_bytes = 0;  ///< all reels + catalog
};

ShardedResult RunSharded(const media::MediaProfile& profile,
                         const std::string& payload, int dots_per_cell,
                         size_t frames, size_t reel_target) {
  const core::ArchiveOptions options = MakeArchiveOptions(profile,
                                                          dots_per_cell);
  ShardedResult out;
  const std::string catalog = "bench_microfilm_set.uler";
  struct RemoveOnExit {
    std::string catalog;
    size_t reels = 0;
    ~RemoveOnExit() {
      std::error_code ec;
      for (size_t i = 0; i < reels; ++i) {
        std::filesystem::remove(filmstore::ReelFileName(catalog, i), ec);
      }
      std::filesystem::remove(catalog, ec);
    }
  } cleanup{catalog};
  filmstore::ReelSetWriter::Options sopt;
  sopt.shard.max_frames_per_reel =
      std::max<size_t>(1, (frames + reel_target - 1) / reel_target);
  sopt.container.bitonal = profile.bitonal_write;
  auto writer = filmstore::ReelSetWriter::Create(catalog, options.emblem,
                                                 sopt);
  if (!writer.ok()) return out;
  const auto t0 = Clock::now();
  auto summary = core::ArchiveDumpStreaming(payload, options,
                                            *writer.value());
  // Record the reel count before bailing on errors: reels already on
  // disk must be cleaned up even when the run aborts mid-archive.
  cleanup.reels = writer.value()->reel_count();
  if (!summary.ok() || !writer.value()->Finish().ok()) return out;
  out.write_s = std::chrono::duration<double>(Clock::now() - t0).count();
  out.reels = cleanup.reels = writer.value()->reel_count();
  for (const filmstore::ReelStats& reel : writer.value()->CurrentReelStats()) {
    out.total_bytes += reel.bytes;
  }
  std::error_code ec;
  out.total_bytes += std::filesystem::file_size(catalog, ec);

  const auto t1 = Clock::now();
  auto reader = filmstore::ReelSetReader::Open(catalog);
  if (!reader.ok()) return out;
  auto data_source = reader.value()->OpenFrames(mocoder::StreamId::kData);
  auto system_source = reader.value()->OpenFrames(mocoder::StreamId::kSystem);
  auto restored = core::RestoreNativeStreaming(
      *data_source, system_source.get(), reader.value()->emblem_options());
  out.read_s = std::chrono::duration<double>(Clock::now() - t1).count();
  out.exact = restored.ok() && restored.value() == payload;
  return out;
}

/// Parity + scrub: a sharded reel set protected with m=2 ULE-P1 parity
/// reels, then a small fleet of copies with whole reels knocked out,
/// repaired by the scrub engine. Measures the parity-encode cost (the
/// write-side overhead of whole-reel protection) and scrub+repair
/// throughput across archives.
struct ParityScrubResult {
  bool ok = false;  ///< every injected loss repaired, fleet exits 0
  double encode_s = 0;        ///< ParityReelWriter::Build over the set
  uint64_t data_bytes = 0;    ///< all data reels (the parity input)
  uint64_t parity_bytes = 0;  ///< the encoded parity files
  double scrub_s = 0;  ///< ScrubFleet with repair across the fleet
  size_t archives = 0;
  size_t repaired = 0;  ///< archives rebuilt from parity
  uint64_t repaired_bytes = 0;
};

ParityScrubResult RunParityScrub(const media::MediaProfile& profile,
                                 const std::string& payload,
                                 int dots_per_cell, size_t frames,
                                 size_t reel_target, size_t archives) {
  namespace fs = std::filesystem;
  const core::ArchiveOptions options = MakeArchiveOptions(profile,
                                                          dots_per_cell);
  ParityScrubResult out;
  const fs::path root = "bench_microfilm_fleet";
  struct RemoveOnExit {
    fs::path root;
    ~RemoveOnExit() {
      std::error_code ec;
      fs::remove_all(root, ec);
    }
  } cleanup{root};
  std::error_code ec;
  fs::remove_all(root, ec);
  if (!fs::create_directories(root / "a00", ec) || ec) return out;
  const std::string catalog = (root / "a00" / "set.uler").string();
  filmstore::ReelSetWriter::Options sopt;
  sopt.shard.max_frames_per_reel =
      std::max<size_t>(1, (frames + reel_target - 1) / reel_target);
  sopt.container.bitonal = profile.bitonal_write;
  auto writer = filmstore::ReelSetWriter::Create(catalog, options.emblem,
                                                 sopt);
  if (!writer.ok()) return out;
  auto summary = core::ArchiveDumpStreaming(payload, options,
                                            *writer.value());
  if (!summary.ok() || !writer.value()->Finish().ok()) return out;
  for (const filmstore::ReelStats& reel : writer.value()->CurrentReelStats()) {
    out.data_bytes += reel.bytes;
  }

  const auto t0 = Clock::now();
  auto sealed = filmstore::ParityReelWriter::Build(catalog, 2);
  out.encode_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!sealed.ok()) return out;
  for (const filmstore::CatalogParityReel& reel : sealed.value().parity.reels) {
    out.parity_bytes += reel.bytes;
  }

  // Clone the sealed archive into a fleet and knock one data reel out
  // of every other copy: the scrub must rebuild each from parity.
  size_t expect_repaired = 0;
  for (size_t i = 1; i < archives; ++i) {
    char name[8];
    std::snprintf(name, sizeof name, "a%02zu", i);
    fs::copy(root / "a00", root / name, fs::copy_options::recursive, ec);
    if (ec) return out;
  }
  for (size_t i = 0; i < archives; i += 2) {
    char name[8];
    std::snprintf(name, sizeof name, "a%02zu", i);
    const std::string victim =
        filmstore::ReelFileName((root / name / "set.uler").string(), 0);
    if (!fs::remove(victim, ec) || ec) return out;
    ++expect_repaired;
  }

  filmstore::ScrubOptions scrub_options;
  scrub_options.repair = true;
  const auto t1 = Clock::now();
  auto fleet = filmstore::ScrubFleet(root.string(), scrub_options);
  out.scrub_s = std::chrono::duration<double>(Clock::now() - t1).count();
  if (!fleet.ok()) return out;
  out.archives = fleet.value().archives.size();
  out.repaired = fleet.value().repaired;
  out.repaired_bytes = fleet.value().repaired_bytes;
  out.ok = out.archives == archives && out.repaired == expect_repaired &&
           out.repaired_bytes > 0 && fleet.value().ExitCode() == 0;
  return out;
}

/// Selective restore vs the full pipe: a TPC-H dump archived with a
/// ULE-S1 record index on small emblems (the record-I/O ratio is the
/// point here, not film geometry), then one table restored through the
/// index while the reader's counters record exactly what hit storage.
struct SelectiveBench {
  bool ok = false;  ///< slice byte-identical AND strictly fewer reads
  double full_s = 0;
  double selective_s = 0;
  filmstore::ReadCounters full;
  core::SelectiveStats stats;
  core::SelectiveRestorer::CacheCounters cache;
};

SelectiveBench RunSelective(const std::string& table) {
  SelectiveBench out;
  tpch::Options topt;
  topt.scale_factor = 0.002;
  auto db = tpch::Generate(topt);
  if (!db.ok()) return out;
  const std::string dump = minidb::DumpSql(db.value());
  core::ArchiveOptions options;
  options.emblem.data_side = 65;
  options.emblem.dots_per_cell = 2;
  options.build_index = true;
  const std::string path = "bench_microfilm_selective.ulec";
  struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  } cleanup{path};
  auto writer = filmstore::ContainerWriter::Create(path, options.emblem);
  if (!writer.ok()) return out;
  auto summary = core::ArchiveDumpStreaming(dump, options, *writer.value());
  if (!summary.ok() || !writer.value()->Finish().ok()) return out;

  auto full_reader = filmstore::ContainerReader::Open(path);
  if (!full_reader.ok()) return out;
  const auto t0 = Clock::now();
  auto data = full_reader.value()->OpenFrames(mocoder::StreamId::kData);
  auto system = full_reader.value()->OpenFrames(mocoder::StreamId::kSystem);
  auto full = core::RestoreNativeStreaming(
      *data, system.get(), full_reader.value()->emblem_options());
  out.full_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!full.ok() || full.value() != dump) return out;
  out.full = full_reader.value()->read_counters();

  auto reader = filmstore::ContainerReader::Open(path);
  if (!reader.ok()) return out;
  core::RestorePredicate pred;
  pred.table = table;
  // Open the restorer explicitly (not the one-shot) so the decoded-payload
  // LRU's own hit/miss/eviction counters are observable afterwards.
  const auto t1 = Clock::now();
  auto restorer = core::SelectiveRestorer::Open(*reader.value());
  if (!restorer.ok()) return out;
  auto slice = restorer.value().Restore(pred, &out.stats);
  out.selective_s = std::chrono::duration<double>(Clock::now() - t1).count();
  out.cache = restorer.value().cache_counters();
  out.ok = slice.ok() && !slice.value().empty() &&
           full.value().find(slice.value()) != std::string::npos &&
           out.stats.records_read > 0 && out.stats.bytes_read > 0 &&
           out.stats.records_read < out.full.records &&
           out.stats.bytes_read < out.full.bytes;
  return out;
}

}  // namespace

int main() {
  bench::BenchReport report;
  // 102 KB of incompressible payload (the paper archived a 102 KB TIFF).
  Rng rng(9600);
  std::string payload(102 * 1000, '\0');
  for (auto& c : payload) c = static_cast<char>(rng.Below(256));

  // ---- Streaming pipeline first (so the process RSS high-water mark
  // still reflects the bounded pipeline, not a materialized baseline):
  // a multi-emblem payload archived, printed, scanned and restored with
  // no frame vector ever held. ----
  std::printf("=== streaming pipeline: bounded-memory archive+restore ===\n");
  std::string big_payload(300 * 1000, '\0');
  for (auto& c : big_payload) c = static_cast<char>(rng.Below(256));
  const auto film_profile = media::Microfilm16mm();
  const StreamingResult st =
      RunStreaming(film_profile, big_payload, film_profile.dots_per_cell);
  const uint64_t rss_after_streaming = bench::MaxRssBytes();
  std::printf("%-42s %10zu\n", "frames through the pipe (300 KB payload)",
              st.frames);
  std::printf("%-42s %10s\n", "streamed restore byte-exact",
              st.exact ? "yes" : "NO");
  std::printf("%-42s %9.1fM\n", "one frame (pixels)", st.frame_bytes / 1e6);
  std::printf("%-42s %10zu\n", "max frames alive (window model)",
              st.peak_window_frames);
  std::printf("%-42s %9.1fM\n", "materialized would hold (frames+scans)",
              2.0 * st.frames * st.frame_bytes / 1e6);
  std::printf("%-42s %9.1fM\n", "peak RSS after streaming run",
              rss_after_streaming / 1e6);
  report.Add("microfilm_stream_archive_restore", 1, st.seconds,
             static_cast<double>(big_payload.size()));
  report.AddGauge("stream_frame_bytes", static_cast<double>(st.frame_bytes),
                  "bytes");
  // Per worker: the window scales with the thread count, so the whole
  // window would compare a 16-thread runner against a 1-core baseline.
  report.AddGauge("stream_window_frames_per_worker",
                  static_cast<double>(st.peak_window_frames) /
                      ResolveThreadCount(0),
                  "frames");
  report.AddGauge("peak_rss_after_streaming",
                  static_cast<double>(rss_after_streaming), "bytes");

  // ---- Spool-to-disk: the same payload archived straight into a ULE-C1
  // container and restored from it, still before the materialized
  // baseline so the RSS gauge reflects the bounded pipeline. ----
  std::printf("\n=== spool-to-disk: ULE-C1 container write/read ===\n");
  const SpoolResult sp =
      RunSpool(film_profile, big_payload, film_profile.dots_per_cell);
  const uint64_t rss_after_spool = bench::MaxRssBytes();
  std::printf("%-42s %10s\n", "container restore byte-exact",
              sp.exact ? "yes" : "NO");
  std::printf("%-42s %10zu\n", "frames spooled", sp.frames);
  std::printf("%-42s %9.1fM\n", "container size",
              sp.container_bytes / 1e6);
  std::printf("%-42s %9.1fM/s\n", "container write (archive+spool)",
              sp.write_s > 0 ? sp.container_bytes / 1e6 / sp.write_s : 0.0);
  std::printf("%-42s %9.1fM/s\n", "container read (restore)",
              sp.read_s > 0 ? sp.container_bytes / 1e6 / sp.read_s : 0.0);
  std::printf("%-42s %9.1fM\n", "peak RSS after spool run",
              rss_after_spool / 1e6);
  report.Add("container_spool_write", 1, sp.write_s,
             static_cast<double>(sp.container_bytes));
  report.Add("container_spool_read", 1, sp.read_s,
             static_cast<double>(sp.container_bytes));
  report.AddGauge("container_bytes", static_cast<double>(sp.container_bytes),
                  "bytes");
  report.AddGauge("peak_rss_after_spool",
                  static_cast<double>(rss_after_spool), "bytes");

  // ---- Sharded reel set: the same payload split across reels under a
  // ULE-R1 catalog (1 reel vs 4), write + parallel read throughput. ----
  std::printf("\n=== sharded reel set: ULE-R1 write/read, 1 vs 4 reels ===\n");
  bool sharded_exact = true;
  for (const size_t reel_target : {size_t{1}, size_t{4}}) {
    const ShardedResult sh = RunSharded(film_profile, big_payload,
                                        film_profile.dots_per_cell,
                                        sp.frames, reel_target);
    sharded_exact = sharded_exact && sh.exact;
    const std::string tag = std::to_string(reel_target) + "reel";
    std::printf("%-42s %10zu\n", ("reels written (target " + tag + ")").c_str(),
                sh.reels);
    std::printf("%-42s %10s\n", "reel-set restore byte-exact",
                sh.exact ? "yes" : "NO");
    std::printf("%-42s %9.1fM/s\n", "reel-set write (archive+spool)",
                sh.write_s > 0 ? sh.total_bytes / 1e6 / sh.write_s : 0.0);
    std::printf("%-42s %9.1fM/s\n", "reel-set read (parallel restore)",
                sh.read_s > 0 ? sh.total_bytes / 1e6 / sh.read_s : 0.0);
    report.Add("reelset_spool_write_" + tag, 1, sh.write_s,
               static_cast<double>(sh.total_bytes));
    report.Add("reelset_spool_read_" + tag, 1, sh.read_s,
               static_cast<double>(sh.total_bytes));
    report.AddGauge("reelset_reels_" + tag, static_cast<double>(sh.reels),
                    "reels");
  }

  // ---- Parity + scrub: ULE-P1 encode cost over the sharded set, then
  // a 6-archive fleet with whole reels deleted, repaired by the scrub
  // engine. ----
  std::printf("\n=== parity + scrub: ULE-P1 encode and fleet repair ===\n");
  const ParityScrubResult ps = RunParityScrub(film_profile, big_payload,
                                              film_profile.dots_per_cell,
                                              sp.frames, 4, 6);
  std::printf("%-42s %10s\n", "fleet repaired + scrub exits 0",
              ps.ok ? "yes" : "NO");
  std::printf("%-42s %9.1fM/s\n", "parity encode (m=2 over data reels)",
              ps.encode_s > 0 ? ps.data_bytes / 1e6 / ps.encode_s : 0.0);
  std::printf("%-42s %9.1f%%\n", "parity storage overhead",
              ps.data_bytes > 0 ? 100.0 * ps.parity_bytes / ps.data_bytes
                                : 0.0);
  std::printf("%-42s %9.1f/s\n", "scrub+repair (archives per second)",
              ps.scrub_s > 0 ? ps.archives / ps.scrub_s : 0.0);
  std::printf("%-42s %9.1fM\n", "bytes rewritten from parity",
              ps.repaired_bytes / 1e6);
  report.Add("parity_encode_m2", 1, ps.encode_s,
             static_cast<double>(ps.data_bytes));
  report.Add("scrub_fleet_repair", ps.archives, ps.scrub_s,
             static_cast<double>(ps.repaired_bytes));
  report.AddGauge("parity_overhead_pct",
                  ps.data_bytes > 0
                      ? 100.0 * ps.parity_bytes / ps.data_bytes
                      : 0.0,
                  "percent");
  report.AddGauge("scrub_repaired_bytes",
                  static_cast<double>(ps.repaired_bytes), "bytes");

  // The same payload materialized (every frame and scan in vectors): the
  // RSS delta against the gauge above is the bounded-memory win.
  const RunResult big_mat =
      RunOn(film_profile, big_payload, film_profile.dots_per_cell);
  const uint64_t rss_after_materialized = bench::MaxRssBytes();
  std::printf("%-42s %10s\n", "materialized restore byte-exact (same)",
              big_mat.exact ? "yes" : "NO");
  std::printf("%-42s %9.1fM\n", "peak RSS after materialized run",
              rss_after_materialized / 1e6);
  report.Add("microfilm_materialized_archive_restore", 1,
             big_mat.archive_s + big_mat.restore_s,
             static_cast<double>(big_payload.size()));
  report.AddGauge("peak_rss_after_materialized",
                  static_cast<double>(rss_after_materialized), "bytes");

  // ---- Selective restore: the ULE-S1 index in action. The records/
  // bytes gauges are deterministic — the regression check treats them as
  // hard I/O budgets, not timings. ----
  std::printf("\n=== selective restore: one table vs the whole reel ===\n");
  const SelectiveBench sel = RunSelective("orders");
  std::printf("%-42s %10s\n", "slice byte-identical + strictly fewer reads",
              sel.ok ? "yes" : "NO");
  std::printf("%-42s %6llu / %llu\n", "records read, selective / full",
              static_cast<unsigned long long>(sel.stats.records_read),
              static_cast<unsigned long long>(sel.full.records));
  std::printf("%-42s %5.1fM / %.1fM\n", "payload bytes read, selective / full",
              sel.stats.bytes_read / 1e6, sel.full.bytes / 1e6);
  std::printf("%-42s %10zu\n", "emblems decoded (cache misses)",
              sel.stats.emblems_decoded);
  report.Add("selective_restore_orders", 1, sel.selective_s,
             static_cast<double>(sel.stats.bytes_read));
  report.Add("selective_full_baseline", 1, sel.full_s,
             static_cast<double>(sel.full.bytes));
  report.AddGauge("selective_records_read",
                  static_cast<double>(sel.stats.records_read), "records");
  report.AddGauge("selective_bytes_read",
                  static_cast<double>(sel.stats.bytes_read), "bytes");
  report.AddGauge("selective_full_records_read",
                  static_cast<double>(sel.full.records), "records");
  report.AddGauge("selective_full_bytes_read",
                  static_cast<double>(sel.full.bytes), "bytes");
  std::printf("%-42s %zu hit / %zu miss / %zu evicted\n",
              "decoded-payload LRU",
              static_cast<size_t>(sel.cache.hits),
              static_cast<size_t>(sel.cache.misses),
              static_cast<size_t>(sel.cache.evictions));
  report.AddGauge("selective_cache_hits",
                  static_cast<double>(sel.cache.hits), "hits");
  report.AddGauge("selective_cache_misses",
                  static_cast<double>(sel.cache.misses), "misses");
  report.AddGauge("selective_cache_evictions",
                  static_cast<double>(sel.cache.evictions), "evictions");

  std::printf("\n=== E5: microfilm archive (IMAGELINK 9600 geometry) ===\n");
  const auto film = media::Microfilm16mm();
  const RunResult mf = RunOn(film, payload, film.dots_per_cell);
  std::printf("%-42s %10s %10s\n", "quantity", "paper", "measured");
  std::printf("%-42s %10s %10zu\n", "data emblems for 102 KB", "3",
              mf.data_emblems);
  std::printf("%-42s %10s %10zu\n", "outer-code parity emblems", "-",
              mf.parity_emblems);
  std::printf("%-42s %10s %10s\n", "frame size (write)", "3888x5498",
              "3888x5498");
  std::printf("%-42s %10s %10s\n", "bitonal scan restores payload", "yes",
              mf.exact ? "yes" : "NO");
  // Reel model: one emblem per frame at the frame pitch.
  const double frames_per_reel = film.reel_length_mm / film.frame_pitch_mm;
  std::printf("%-42s %10s %9.2fG\n", "reel capacity model (66 m)", "1.3G",
              frames_per_reel * mf.emblem_capacity / 1e9);
  std::printf("  (gap vs paper: our conservative %d px/cell; Micr'Olonys "
              "packs ~2 px/cell)\n", film.dots_per_cell);

  std::printf("\n=== E6: cinema film archive (Arrilaser 2K -> 4K scan) ===\n");
  const auto cine = media::CinemaFilm35mm();
  const RunResult cf = RunOn(cine, payload, 2);
  std::printf("%-42s %10s %10zu\n", "data emblems for 102 KB", "3",
              cf.data_emblems);
  std::printf("%-42s %10s %10zu\n", "outer-code parity emblems", "-",
              cf.parity_emblems);
  std::printf("%-42s %10s %10s\n", "4K grayscale scan restores payload",
              "yes", cf.exact ? "yes" : "NO");
  std::printf("%-42s %10s %10d\n", "RS byte errors corrected (microfilm)",
              "-", mf.rs_errors);
  std::printf("%-42s %10s %10d\n", "RS byte errors corrected (cinema)", "-",
              cf.rs_errors);
  std::printf("\nshape check: a handful of emblems per 100 KB payload on "
              "both media; both decode bit-exactly.\n");

  const double bytes = static_cast<double>(payload.size());
  report.Add("microfilm_archive", 1, mf.archive_s, bytes);
  report.Add("microfilm_restore_native", 1, mf.restore_s, bytes);
  report.Add("cinema_archive", 1, cf.archive_s, bytes);
  report.Add("cinema_restore_native", 1, cf.restore_s, bytes);

  // ---- Hot kernels: scalar baseline vs the dispatched tier, over a
  // scrub-shaped buffer (bigger than any cache level). Byte-identity of
  // the measured variant is asserted in-run and folded into the exit
  // code — a fast-but-wrong kernel fails the bench, not just the gate.
  // Placed last so the earlier peak-RSS gauges are undisturbed.
  bool kernels_ok = true;
  {
    constexpr size_t kKernelBufBytes = size_t{8} << 20;
    Rng krng(0xC0DEC);
    const Bytes kbuf = RandomBytes(&krng, kKernelBufBytes);
    const kernels::KernelSet& scalar = kernels::Scalar();
    const kernels::KernelSet& active = kernels::Active();

    constexpr int kCrcIters = 24;
    auto time_crc = [&](const kernels::KernelSet& k, uint32_t* out) {
      uint32_t acc = 0xFFFFFFFFu;
      const auto t0 = Clock::now();
      for (int i = 0; i < kCrcIters; ++i) {
        acc = k.crc32_update(acc, kbuf.data(), kbuf.size());
      }
      *out = acc;
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    uint32_t crc_scalar = 0, crc_active = 0;
    const double crc_scalar_s = time_crc(scalar, &crc_scalar);
    const double crc_active_s = time_crc(active, &crc_active);
    kernels_ok = kernels_ok && crc_scalar == crc_active;

    constexpr int kGfIters = 24;
    auto time_gf = [&](const kernels::KernelSet& k, Bytes* acc) {
      acc->assign(kKernelBufBytes, 0);
      const auto t0 = Clock::now();
      for (int i = 0; i < kGfIters; ++i) {
        k.gf256_mul_accum(acc->data(), kbuf.data(),
                          static_cast<uint8_t>(2 + i), kKernelBufBytes);
      }
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    Bytes gf_scalar, gf_active;
    const double gf_scalar_s = time_gf(scalar, &gf_scalar);
    const double gf_active_s = time_gf(active, &gf_active);
    kernels_ok = kernels_ok && gf_scalar == gf_active;

    const double kb = static_cast<double>(kKernelBufBytes);
    const double crc_mb_s = kCrcIters * kb / crc_active_s / 1e6;
    const double gf_mb_s = kGfIters * kb / gf_active_s / 1e6;
    std::printf("\nhot kernels (%s):\n", kernels::Describe().c_str());
    std::printf("  %-28s %10.0f MB/s   scalar %8.0f MB/s   %5.1fx\n",
                "crc32 digest", crc_mb_s,
                kCrcIters * kb / crc_scalar_s / 1e6,
                crc_scalar_s / crc_active_s);
    std::printf("  %-28s %10.0f MB/s   scalar %8.0f MB/s   %5.1fx\n",
                "gf256 multiply-accumulate", gf_mb_s,
                kGfIters * kb / gf_scalar_s / 1e6,
                gf_scalar_s / gf_active_s);
    std::printf("  byte-identical to scalar: %s\n",
                kernels_ok ? "yes" : "NO");

    report.Add("crc32_digest_scalar", kCrcIters, crc_scalar_s,
               kCrcIters * kb);
    report.Add("crc32_digest_active", kCrcIters, crc_active_s,
               kCrcIters * kb);
    report.Add("gf256_accum_scalar", kGfIters, gf_scalar_s, kGfIters * kb);
    report.Add("gf256_accum_active", kGfIters, gf_active_s, kGfIters * kb);
    report.AddGauge("crc32_kernel_speedup", crc_scalar_s / crc_active_s,
                    "x");
    report.AddGauge("gf256_kernel_speedup", gf_scalar_s / gf_active_s,
                    "x");
  }

  report.Write("microfilm");
  return (mf.exact && cf.exact && st.exact && sp.exact && sharded_exact &&
          ps.ok && big_mat.exact && sel.ok && kernels_ok)
             ? 0
             : 1;
}
