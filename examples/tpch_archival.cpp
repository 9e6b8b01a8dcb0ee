// The paper-archive scenario (§4, experiment E4): a TPC-H database is
// dumped to ~a configurable size, archived as emblems sized for A4 paper
// at 600 dpi, and restored. Prints the same quantities the paper reports
// (emblem count, per-page density).

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "core/micr_olonys.h"
#include "filmstore/frame_store.h"
#include "media/profiles.h"
#include "minidb/sqldump.h"
#include "support/parallel.h"
#include "tpch/tpch.h"

using namespace ule;
using Clock = std::chrono::steady_clock;

int main(int argc, char** argv) {
  // Usage: tpch_archival [dump_bytes] [threads]
  // Default 120 KB keeps the example fast; pass a size for the full-paper
  // 1.2 MB run (bench_paper_archive does that with timing tables).
  const size_t target = argc > 1 ? std::strtoul(argv[1], nullptr, 10)
                                 : 120 * 1000;
  // Archive/restore parallelism: argv[2] if given, else ULE_THREADS, else
  // all hardware threads (1 = serial; output is identical either way).
  const int threads = argc > 2 ? std::atoi(argv[2]) : 0;

  std::printf("generating TPC-H for a ~%zu byte dump...\n", target);
  auto db = tpch::GenerateForDumpSize(target);
  if (!db.ok()) return 1;
  const std::string dump = minidb::DumpSql(db.value());
  std::printf("dump: %zu bytes, %zu rows\n", dump.size(),
              db.value().TotalRows());

  const media::MediaProfile profile = media::PaperA4Laser600();
  core::ArchiveOptions options;
  // Emblem sized to the printable width of A4 at 600 dpi.
  options.emblem.dots_per_cell = 5;
  options.emblem.data_side =
      profile.frame_width / 5 - 2 * 5 - 2 * 2;  // frame/pitch - rings - quiet
  options.emblem.threads = threads;
  std::printf("pipeline threads: %d\n", ResolveThreadCount(threads));

  const auto t0 = Clock::now();
  filmstore::MemoryStore paper;
  auto archive = core::ArchiveDumpStreaming(dump, options, paper);
  const auto t1 = Clock::now();
  if (!archive.ok()) {
    std::printf("archive failed: %s\n", archive.status().ToString().c_str());
    return 1;
  }
  const double encode_s =
      std::chrono::duration<double>(t1 - t0).count();
  const size_t pages = archive.value().data_frames;
  std::printf("emblems: %zu data + %zu system (paper reports 26 data for "
              "1.2 MB)\n",
              archive.value().data_frames, archive.value().system_frames);
  std::printf("density: %.1f KB/page (paper: 50 KB/page)\n",
              pages ? static_cast<double>(dump.size()) / 1000.0 / pages : 0);
  std::printf("encode time: %.2f s\n", encode_s);

  const auto t2 = Clock::now();
  mocoder::Options restore_options = archive.value().emblem_options;
  restore_options.threads = threads;  // recorded options are always auto
  auto data_frames = paper.OpenFrames(mocoder::StreamId::kData);
  auto system_frames = paper.OpenFrames(mocoder::StreamId::kSystem);
  auto restored = core::RestoreNativeStreaming(
      *data_frames, system_frames.get(), restore_options);
  const auto t3 = Clock::now();
  if (!restored.ok()) {
    std::printf("restore failed: %s\n", restored.status().ToString().c_str());
    return 1;
  }
  std::printf("restore time: %.2f s; byte-exact: %s\n",
              std::chrono::duration<double>(t3 - t2).count(),
              restored.value() == dump ? "yes" : "NO");
  return restored.value() == dump ? 0 : 1;
}
