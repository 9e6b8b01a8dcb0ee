// Experiments E5 + E6 — microfilm and cinema film (paper §4):
//   E5: 102 KB image -> 3 emblems in 3888x5498 bitonal microfilm frames;
//       capacity model: 1.3 GB per 66 m reel.
//   E6: the same payload in 2048x1556 (2K) cinema frames scanned at 4K
//       grayscale; cinema scans are sharper -> decode margin is larger.
// The paper's payload was a TIFF image (already-compressed, incompressible
// bytes); ours is random bytes of the same size. Both restore what
// filmstore::ScannerSource hands back for the stored frames.
//
// Alongside the paper tables it times what perfbench (BENCHMARK.json)
// does not: ULE-R1 reel-set write/read at 1 vs 4 reels, ULE-P1 parity
// encode plus fleet scrub-repair, cinema archive/restore, and the scalar
// vs dispatched CRC32/GF(256) kernels. Every restore, the fleet repair
// and the kernel byte-identity are checked in-run; any failure makes
// the exit code 1. Records go to BENCH_microfilm.json (bench_report.h).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "core/micr_olonys.h"
#include "dbcoder/dbcoder.h"
#include "filmstore/frame_store.h"
#include "filmstore/parity.h"
#include "filmstore/reel_set.h"
#include "filmstore/scanner_source.h"
#include "filmstore/scrub.h"
#include "media/profiles.h"
#include "mocoder/outer.h"
#include "support/kernels.h"
#include "support/random.h"

using namespace ule;
using Clock = std::chrono::steady_clock;

namespace {

/// Shared archive setup for one media profile: incompressible-payload
/// scheme and an emblem sized to the frame (ring + quiet-zone geometry).
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
  int frame_width = 0;  // first stored data frame, as written
  int frame_height = 0;
  bool exact = false;
  int rs_errors = 0;
  double archive_s = 0;
  double restore_s = 0;
};

/// One stored stream as the scanner hands it back: ScannerSource prints
/// each frame (bitonally on film) and scans frame i with seed + i.
Result<std::vector<media::Image>> ScanStream(
    const filmstore::MemoryStore& store, mocoder::StreamId id,
    const media::MediaProfile& profile) {
  filmstore::ScannerSource::Options options;
  options.profile = profile.scan;
  options.bitonal_print = profile.bitonal_write;
  filmstore::ScannerSource source(store.OpenFrames(id), options);
  std::vector<media::Image> scans;
  while (true) {
    ULE_ASSIGN_OR_RETURN(std::optional<media::Image> scan, source.Next());
    if (!scan.has_value()) return scans;
    scans.push_back(std::move(*scan));
  }
}

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

  const media::Image& first = store.frames(mocoder::StreamId::kData).front();
  out.frame_width = first.width();
  out.frame_height = first.height();

  // Scan before the clock starts, so restore_s times decoding only (the
  // print/scan model costs far more than the decode it feeds).
  auto data_scans = ScanStream(store, mocoder::StreamId::kData, profile);
  auto system_scans = ScanStream(store, mocoder::StreamId::kSystem, profile);
  if (!data_scans.ok() || !system_scans.ok()) return out;
  filmstore::VectorSource data_source(data_scans.value());
  filmstore::VectorSource system_source(system_scans.value());
  core::RestoreStats stats;
  const auto t1 = Clock::now();
  auto restored = core::RestoreNativeStreaming(
      data_source, &system_source, archive.value().emblem_options, &stats);
  out.restore_s = std::chrono::duration<double>(Clock::now() - t1).count();
  out.exact = restored.ok() && restored.value() == payload;
  out.rs_errors = stats.data_stream.rs_errors_corrected;
  return out;
}

/// Sharded spool: the payload archived into a ULE-R1 reel set of at most
/// `frames_per_reel` frames per reel (0 = one reel), then restored
/// through the reel set's chained per-reel sources.
struct ShardedResult {
  bool exact = false;
  double write_s = 0;
  double read_s = 0;
  size_t frames = 0;  ///< data + system frames archived
  size_t reels = 0;
  uint64_t total_bytes = 0;  ///< all reels + catalog
};

ShardedResult RunSharded(const media::MediaProfile& profile,
                         const std::string& payload, int dots_per_cell,
                         size_t frames_per_reel) {
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
  sopt.shard.max_frames_per_reel = frames_per_reel;
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
  out.frames = summary.value().data_frames + summary.value().system_frames;
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
                                 int dots_per_cell, size_t frames_per_reel,
                                 size_t archives) {
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
  sopt.shard.max_frames_per_reel = frames_per_reel;
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

}  // namespace

int main() {
  bench::BenchReport report;
  // 102 KB of incompressible payload (the paper archived a 102 KB TIFF).
  Rng rng(9600);
  std::string payload(102 * 1000, '\0');
  for (auto& c : payload) c = static_cast<char>(rng.Below(256));

  // ---- Sharded reel set: a 300 KB payload on microfilm split across
  // reels under a ULE-R1 catalog (1 reel vs 4), write + read
  // throughput. The 4-reel split is sized from the 1-reel frame count. ----
  std::printf("=== sharded reel set: ULE-R1 write/read, 1 vs 4 reels ===\n");
  std::string big_payload(300 * 1000, '\0');
  for (auto& c : big_payload) c = static_cast<char>(rng.Below(256));
  const auto film_profile = media::Microfilm16mm();
  auto report_set = [&](const std::string& tag, const ShardedResult& sh) {
    std::printf("%-42s %10zu\n", ("reels written (target " + tag + ")").c_str(),
                sh.reels);
    std::printf("%-42s %10s\n", "reel-set restore byte-exact",
                sh.exact ? "yes" : "NO");
    std::printf("%-42s %9.1fM/s\n", "reel-set write (archive+spool)",
                sh.write_s > 0 ? sh.total_bytes / 1e6 / sh.write_s : 0.0);
    std::printf("%-42s %9.1fM/s\n", "reel-set read (restore)",
                sh.read_s > 0 ? sh.total_bytes / 1e6 / sh.read_s : 0.0);
    report.Add("reelset_spool_write_" + tag, 1, sh.write_s,
               static_cast<double>(sh.total_bytes));
    report.Add("reelset_spool_read_" + tag, 1, sh.read_s,
               static_cast<double>(sh.total_bytes));
    report.AddGauge("reelset_reels_" + tag, static_cast<double>(sh.reels),
                    "reels");
  };
  const ShardedResult one_reel =
      RunSharded(film_profile, big_payload, film_profile.dots_per_cell, 0);
  report_set("1reel", one_reel);
  const size_t frames_per_quarter =
      std::max<size_t>(1, (one_reel.frames + 3) / 4);
  const ShardedResult four_reels =
      RunSharded(film_profile, big_payload, film_profile.dots_per_cell,
                 frames_per_quarter);
  report_set("4reel", four_reels);

  // ---- Parity + scrub: ULE-P1 encode cost over the 4-reel split, then
  // a 6-archive fleet with whole reels deleted, repaired by the scrub
  // engine. ----
  std::printf("\n=== parity + scrub: ULE-P1 encode and fleet repair ===\n");
  const ParityScrubResult ps = RunParityScrub(film_profile, big_payload,
                                              film_profile.dots_per_cell,
                                              frames_per_quarter, 6);
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

  std::printf("\n=== E5: microfilm archive (IMAGELINK 9600 geometry) ===\n");
  const auto film = media::Microfilm16mm();
  const RunResult mf = RunOn(film, payload, film.dots_per_cell);
  std::printf("%-42s %10s %10s\n", "quantity", "paper", "measured");
  std::printf("%-42s %10s %10zu\n", "data emblems for 102 KB", "3",
              mf.data_emblems);
  std::printf("%-42s %10s %10zu\n", "outer-code parity emblems", "-",
              mf.parity_emblems);
  const std::string frame_size =
      std::to_string(mf.frame_width) + "x" + std::to_string(mf.frame_height);
  std::printf("%-42s %10s %10s\n", "frame size (write)", "3888x5498",
              frame_size.c_str());
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

  // Microfilm archive and scanned restore are timed by perfbench's
  // microfilm_scan_restore workload; cinema film is timed only here.
  const double bytes = static_cast<double>(payload.size());
  report.Add("cinema_archive", 1, cf.archive_s, bytes);
  report.Add("cinema_restore_native", 1, cf.restore_s, bytes);

  // ---- Hot kernels: scalar baseline vs the dispatched tier, over a
  // scrub-shaped buffer (bigger than any cache level). Byte-identity of
  // the measured variant is asserted in-run and folded into the exit
  // code — a fast-but-wrong kernel fails the bench, not just the gate.
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
  return (mf.exact && cf.exact && one_reel.exact && four_reels.exact &&
          ps.ok && kernels_ok)
             ? 0
             : 1;
}
