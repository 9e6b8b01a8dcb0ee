// ulectl — command-line driver for the ULE film-store pipeline.
//
// Exercises the full dump → container → restore loop from the shell,
// producing and consuming real on-disk artifacts (the ULE-C1 spool
// container or a browsable directory of frame images):
//
//   ulectl archive --in dump.sql --out reel.ulec
//   ulectl archive --tpch 0.0002 --out reel/ --dir --pbm
//   ulectl archive --in dump.sql --out set.uler --shard-frames 8
//   ulectl inspect reel.ulec          (or set.uler, or a reel directory)
//   ulectl inspect --index reel.ulec  (tables/rows of the ULE-S1 index)
//   ulectl verify  reel.ulec
//   ulectl restore --in set.uler --out restored.sql [--emulated]
//   ulectl restore --in set.uler --out orders.sql --table orders
//                  [--columns o_orderkey,o_totalprice] [--rows 100:50]
//   ulectl resume  spool.ulec         (recover an interrupted archive)
//
// Archival spools frames straight to disk (peak RSS O(threads × emblem),
// archives larger than RAM are fine); restoration pulls them back
// frame-at-a-time through the streaming native or fully emulated path.
// With --shard-frames/--shard-bytes one archive spans many ULE-C1 reels
// under a ULE-R1 catalog; reels restore one after another in catalog
// order, and a lost reel only costs the frames it owned.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/micr_olonys.h"
#include "core/record_index.h"
#include "core/selective.h"
#include "dbcoder/dbcoder.h"
#include "filmstore/container.h"
#include "filmstore/directory_store.h"
#include "filmstore/frame_store.h"
#include "filmstore/parity.h"
#include "filmstore/reel_reader.h"
#include "filmstore/reel_set.h"
#include "filmstore/scrub.h"
#include "minidb/sqldump.h"
#include "support/crc32.h"
#include "support/io.h"
#include "support/kernels.h"
#include "tpch/tpch.h"

using namespace ule;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <command> [options] [reel]\n"
      "\n"
      "commands:\n"
      "  archive   write a film-store reel (or sharded reel set) from a\n"
      "            SQL dump\n"
      "  restore   restore the SQL dump from a reel or reel set\n"
      "  inspect   describe a reel (geometry, records, sizes, reels)\n"
      "  verify    re-read every record and validate its checksums\n"
      "            (exit 0 healthy, 1 repairable from parity, 2 data loss)\n"
      "  resume    recover an interrupted ULE-C1 spool: rescan its\n"
      "            complete records and seal it\n"
      "  scrub     sweep a directory tree of archives: verify each,\n"
      "            repair what ULE-P1 parity allows, report fleet health\n"
      "            (exit codes as for verify, over the whole fleet)\n"
      "  version   print format versions and the resolved CPU kernel set\n"
      "            (include this in bug reports)\n"
      "\n"
      "common options:\n"
      "  --in PATH          input (archive: SQL dump; others: the reel)\n"
      "  --out PATH         output (archive: the reel; restore: SQL dump)\n"
      "  --threads N        worker threads (0 = all hardware threads)\n"
      "\n"
      "archive options:\n"
      "  --tpch SF          generate a TPC-H dump at scale SF instead of --in\n"
      "  --dump-out PATH    also save the archived dump text (for diffing)\n"
      "  --dir              write a browsable directory of frame images\n"
      "                     instead of a ULE-C1 container file\n"
      "  --pbm              store frames as bitonal PBM (smaller; exact for\n"
      "                     rendered frames)\n"
      "  --shard-frames N   split the archive across reels of at most N\n"
      "                     frames each (--out names the ULE-R1 catalog)\n"
      "  --shard-bytes N    split across reels of at most N file bytes\n"
      "  --parity M         also encode M ULE-P1 parity reels: any M whole\n"
      "                     reels of the set can then be lost and rebuilt\n"
      "  --scheme NAME      dbcoder scheme: store|lzss|lzac (columnar is\n"
      "                     not archivable until DBDecode decodes it)\n"
      "  --data-side N      emblem data-area side (default 128)\n"
      "  --dots-per-cell N  render pitch (default 4)\n"
      "  --no-index         skip the ULE-S1 record index (restore\n"
      "                     --table is then unavailable on the archive)\n"
      "\n"
      "restore options:\n"
      "  --emulated         full ULE path: only the reel's Bootstrap\n"
      "                     document and frames are used (slow)\n"
      "  --table NAME       selective: restore one table through the\n"
      "                     ULE-S1 index, reading only its frame records\n"
      "  --columns A,B,...  selective: keep only these columns\n"
      "  --rows BEGIN:COUNT selective: keep COUNT rows starting at BEGIN\n"
      "                     (0-based)\n"
      "\n"
      "inspect options:\n"
      "  --index            also list the ULE-S1 record index (tables,\n"
      "                     rows, chunks)\n"
      "\n"
      "scrub options (the bare path argument is the fleet root):\n"
      "  --repair           rewrite damaged reels from parity in place\n"
      "  --report PATH      write the JSON fleet health report here\n"
      "  --checkpoint PATH  journal finished archives; a re-run with the\n"
      "                     same journal resumes where the sweep stopped\n"
      "  --max-archives N   scrub at most N new archives this run\n",
      argv0);
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "ulectl: %s\n", status.ToString().c_str());
  return 1;
}

struct Args {
  std::string command;
  std::string in;
  std::string out;
  std::string dump_out;
  std::optional<double> tpch_sf;
  bool dir = false;
  bool pbm = false;
  bool emulated = false;
  int threads = 0;
  int data_side = 128;
  int dots_per_cell = 4;
  int shard_frames = 0;
  int64_t shard_bytes = 0;
  int parity = 0;            ///< archive: ULE-P1 parity reels to encode
  bool repair = false;       ///< scrub: rewrite damaged reels from parity
  std::string report;        ///< scrub: JSON report path
  std::string checkpoint;    ///< scrub: resume journal path
  int max_archives = 0;      ///< scrub: bound on new archives this run
  dbcoder::Scheme scheme = dbcoder::Scheme::kLzac;
  bool no_index = false;    ///< archive: skip the ULE-S1 record index
  bool show_index = false;  ///< inspect: list the record index
  std::string table;        ///< restore: selective predicate
  std::vector<std::string> columns;
  uint64_t row_begin = 0;
  uint64_t row_count = UINT64_MAX;
  bool rows_set = false;
};

bool ParseScheme(const std::string& name, dbcoder::Scheme* out) {
  if (name == "store") *out = dbcoder::Scheme::kStore;
  else if (name == "lzss") *out = dbcoder::Scheme::kLzss;
  else if (name == "lzac") *out = dbcoder::Scheme::kLzac;
  else if (name == "columnar") *out = dbcoder::Scheme::kColumnar;
  else return false;
  return true;
}

/// Strict numeric option parsers: trailing garbage ("1Z8", "4x") is an
/// error, not a silently truncated value.
Result<int> ParseInt(const std::string& flag, const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE || v < 0 ||
      v > 1000000) {
    return Status::InvalidArgument(flag + " needs a non-negative integer, "
                                   "got: " + s);
  }
  return static_cast<int>(v);
}

Result<int64_t> ParseInt64(const std::string& flag, const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE || v < 0) {
    return Status::InvalidArgument(flag + " needs a non-negative integer, "
                                   "got: " + s);
  }
  return static_cast<int64_t>(v);
}

Result<uint64_t> ParseUint64(const std::string& flag, const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE ||
      s.find('-') != std::string::npos) {
    return Status::InvalidArgument(flag + " needs a non-negative integer, "
                                   "got: " + s);
  }
  return static_cast<uint64_t>(v);
}

Result<double> ParseDouble(const std::string& flag, const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument(flag + " needs a number, got: " + s);
  }
  return v;
}

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) return Status::InvalidArgument("missing command");
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(arg + " needs a value");
      }
      return std::string(argv[++i]);
    };
    if (arg == "--in") {
      ULE_ASSIGN_OR_RETURN(args.in, value());
    } else if (arg == "--out") {
      ULE_ASSIGN_OR_RETURN(args.out, value());
    } else if (arg == "--dump-out") {
      ULE_ASSIGN_OR_RETURN(args.dump_out, value());
    } else if (arg == "--tpch") {
      ULE_ASSIGN_OR_RETURN(std::string sf, value());
      ULE_ASSIGN_OR_RETURN(double parsed_sf, ParseDouble(arg, sf));
      if (parsed_sf <= 0) {
        return Status::InvalidArgument("--tpch needs a positive scale");
      }
      args.tpch_sf = parsed_sf;
    } else if (arg == "--dir") {
      args.dir = true;
    } else if (arg == "--pbm") {
      args.pbm = true;
    } else if (arg == "--emulated") {
      args.emulated = true;
    } else if (arg == "--threads") {
      ULE_ASSIGN_OR_RETURN(std::string v, value());
      ULE_ASSIGN_OR_RETURN(args.threads, ParseInt(arg, v));
    } else if (arg == "--shard-frames") {
      ULE_ASSIGN_OR_RETURN(std::string v, value());
      ULE_ASSIGN_OR_RETURN(args.shard_frames, ParseInt(arg, v));
    } else if (arg == "--shard-bytes") {
      ULE_ASSIGN_OR_RETURN(std::string v, value());
      ULE_ASSIGN_OR_RETURN(args.shard_bytes, ParseInt64(arg, v));
    } else if (arg == "--parity") {
      ULE_ASSIGN_OR_RETURN(std::string v, value());
      ULE_ASSIGN_OR_RETURN(args.parity, ParseInt(arg, v));
    } else if (arg == "--repair") {
      args.repair = true;
    } else if (arg == "--report") {
      ULE_ASSIGN_OR_RETURN(args.report, value());
    } else if (arg == "--checkpoint") {
      ULE_ASSIGN_OR_RETURN(args.checkpoint, value());
    } else if (arg == "--max-archives") {
      ULE_ASSIGN_OR_RETURN(std::string v, value());
      ULE_ASSIGN_OR_RETURN(args.max_archives, ParseInt(arg, v));
    } else if (arg == "--data-side") {
      ULE_ASSIGN_OR_RETURN(std::string v, value());
      ULE_ASSIGN_OR_RETURN(args.data_side, ParseInt(arg, v));
    } else if (arg == "--dots-per-cell") {
      ULE_ASSIGN_OR_RETURN(std::string v, value());
      ULE_ASSIGN_OR_RETURN(args.dots_per_cell, ParseInt(arg, v));
    } else if (arg == "--scheme") {
      ULE_ASSIGN_OR_RETURN(std::string v, value());
      if (!ParseScheme(v, &args.scheme)) {
        return Status::InvalidArgument("unknown scheme: " + v);
      }
    } else if (arg == "--no-index") {
      args.no_index = true;
    } else if (arg == "--index") {
      args.show_index = true;
    } else if (arg == "--table") {
      ULE_ASSIGN_OR_RETURN(args.table, value());
    } else if (arg == "--columns") {
      ULE_ASSIGN_OR_RETURN(std::string list, value());
      size_t start = 0;
      while (start <= list.size()) {
        const size_t comma = list.find(',', start);
        const std::string name =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (name.empty()) {
          return Status::InvalidArgument("--columns has an empty name in: " +
                                         list);
        }
        args.columns.push_back(name);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (arg == "--rows") {
      ULE_ASSIGN_OR_RETURN(std::string range, value());
      const size_t colon = range.find(':');
      if (colon == std::string::npos) {
        return Status::InvalidArgument("--rows needs BEGIN:COUNT, got: " +
                                       range);
      }
      ULE_ASSIGN_OR_RETURN(args.row_begin,
                           ParseUint64(arg, range.substr(0, colon)));
      ULE_ASSIGN_OR_RETURN(args.row_count,
                           ParseUint64(arg, range.substr(colon + 1)));
      args.rows_set = true;
    } else if (!arg.empty() && arg[0] != '-' && args.in.empty()) {
      args.in = arg;  // bare positional: the reel (inspect/verify/restore)
    } else {
      return Status::InvalidArgument("unknown option: " + arg);
    }
  }
  return args;
}

int RunArchive(const Args& args) {
  if (args.out.empty()) {
    return Fail(Status::InvalidArgument("archive needs --out"));
  }
  core::ArchiveOptions options;
  options.scheme = args.scheme;
  options.emblem.data_side = args.data_side;
  options.emblem.dots_per_cell = args.dots_per_cell;
  options.emblem.threads = args.threads;
  // The index costs a little compression and buys `restore --table`;
  // archives meant to be restored are worth making seekable by default.
  options.build_index = !args.no_index;
  // Refuse bad options before the dump is generated or read, and before
  // a writer creates the output.
  Status valid = core::ValidateArchiveOptions(options);
  if (!valid.ok()) return Fail(valid);

  const bool sharded = args.shard_frames > 0 || args.shard_bytes > 0;
  if (sharded && args.dir) {
    return Fail(Status::InvalidArgument(
        "--shard-frames/--shard-bytes shard across ULE-C1 reels; they do "
        "not combine with --dir"));
  }
  if (args.parity > 0 && !sharded) {
    return Fail(Status::InvalidArgument(
        "--parity protects a sharded reel set; combine it with "
        "--shard-frames or --shard-bytes"));
  }

  std::string dump;
  if (args.tpch_sf.has_value()) {
    tpch::Options topt;
    topt.scale_factor = *args.tpch_sf;
    auto db = tpch::Generate(topt);
    if (!db.ok()) return Fail(db.status());
    dump = minidb::DumpSql(db.value());
    std::printf("generated TPC-H dump at SF %g: %zu bytes\n", *args.tpch_sf,
                dump.size());
  } else if (!args.in.empty()) {
    auto text = ReadFileText(args.in);
    if (!text.ok()) return Fail(text.status());
    dump = std::move(text).TakeValue();
  } else {
    return Fail(Status::InvalidArgument("archive needs --in or --tpch"));
  }
  if (!args.dump_out.empty()) {
    Status s = WriteFileText(args.dump_out, dump);
    if (!s.ok()) return Fail(s);
  }

  // Every backend spools frame-at-a-time: nothing is materialized even
  // when the archive is far larger than RAM. All three writers speak
  // ArchiveWriter, so only construction is per-backend.
  std::unique_ptr<filmstore::ArchiveWriter> writer;
  const filmstore::ReelSetWriter* reelset = nullptr;
  if (args.dir) {
    filmstore::DirectoryWriter::Options dopt;
    dopt.bitonal = args.pbm;
    auto created =
        filmstore::DirectoryWriter::Create(args.out, options.emblem, dopt);
    if (!created.ok()) return Fail(created.status());
    writer = std::move(created).TakeValue();
  } else if (sharded) {
    filmstore::ReelSetWriter::Options sopt;
    sopt.shard.max_frames_per_reel = static_cast<size_t>(args.shard_frames);
    sopt.shard.max_bytes_per_reel = static_cast<uint64_t>(args.shard_bytes);
    sopt.parity_reels = args.parity;
    sopt.container.bitonal = args.pbm;
    // The archive's identity in the catalog: content-derived, so
    // re-archiving the same dump is recognizably the same archive.
    // (View, not copy: the dump can be huge.)
    sopt.archive_id = Crc32(BytesView(
        reinterpret_cast<const uint8_t*>(dump.data()), dump.size()));
    auto created =
        filmstore::ReelSetWriter::Create(args.out, options.emblem, sopt);
    if (!created.ok()) return Fail(created.status());
    reelset = created.value().get();
    writer = std::move(created).TakeValue();
  } else {
    filmstore::ContainerWriter::Options copt;
    copt.bitonal = args.pbm;
    auto created =
        filmstore::ContainerWriter::Create(args.out, options.emblem, copt);
    if (!created.ok()) return Fail(created.status());
    writer = std::move(created).TakeValue();
  }

  auto summary = core::ArchiveDumpStreaming(dump, options, *writer);
  if (!summary.ok()) return Fail(summary.status());
  Status tail = writer->AppendBootstrap(summary.value().bootstrap_text);
  if (!tail.ok()) return Fail(tail);
  tail = writer->Finish();
  if (!tail.ok()) return Fail(tail);

  std::error_code ec;
  const uint64_t reel_bytes =
      (args.dir || sharded) ? 0 : std::filesystem::file_size(args.out, ec);
  std::printf("archived %zu dump bytes -> %s\n", summary.value().dump_bytes,
              args.out.c_str());
  std::printf("  scheme            %s\n", dbcoder::SchemeName(args.scheme));
  std::printf("  compressed bytes  %zu\n", summary.value().compressed_bytes);
  std::printf("  data frames       %zu\n", summary.value().data_frames);
  std::printf("  system frames     %zu\n", summary.value().system_frames);
  std::printf("  bootstrap bytes   %zu\n",
              summary.value().bootstrap_text.size());
  if (reel_bytes > 0) {
    std::printf("  container bytes   %llu\n",
                static_cast<unsigned long long>(reel_bytes));
  }
  std::printf("  threads used      %d\n", summary.value().threads_used);
  if (reelset != nullptr) {
    // Final per-reel accounting (post-Finish: sealed sizes, catalog on
    // disk). The pre-Finish view lives in summary.reels.
    std::printf("  reels             %zu\n", reelset->reel_count());
    for (const filmstore::ReelStats& reel : reelset->CurrentReelStats()) {
      std::printf("    %-18s %6zu frames %12llu bytes\n", reel.name.c_str(),
                  reel.frames, static_cast<unsigned long long>(reel.bytes));
    }
    const filmstore::ParityInfo& parity = reelset->catalog().parity;
    if (parity.present()) {
      std::printf("  parity reels      %u (%s; survives any %u lost reels)\n",
                  parity.parity_reels, filmstore::kUleParityFormatVersion,
                  parity.parity_reels);
      for (const filmstore::CatalogParityReel& reel : parity.reels) {
        std::printf("    %-18s %12llu bytes\n", reel.name.c_str(),
                    static_cast<unsigned long long>(reel.bytes));
      }
    }
  }
  return 0;
}

int RunRestoreSelective(const Args& args) {
  if (args.emulated) {
    return Fail(Status::InvalidArgument(
        "--table restores through the contemporary decoders; it does not "
        "combine with --emulated"));
  }
  auto reel = filmstore::OpenReel(args.in);
  if (!reel.ok()) return Fail(reel.status());

  core::RestorePredicate pred;
  pred.table = args.table;
  pred.columns = args.columns;
  pred.row_begin = args.row_begin;
  pred.row_count = args.row_count;
  core::SelectiveOptions options;
  options.threads = args.threads;
  auto restorer = core::SelectiveRestorer::Open(*reel.value(), options);
  if (!restorer.ok() && restorer.status().code() == StatusCode::kNotFound) {
    return Fail(Status::NotFound(
        "no ULE-S1 record index on this reel (archived with --no-index), so "
        "--table is unavailable; restore the whole dump without --table"));
  }
  if (!restorer.ok()) return Fail(restorer.status());
  core::SelectiveStats stats;
  auto restored = restorer.value().Restore(pred, &stats);
  if (!restored.ok()) return Fail(restored.status());
  Status s = WriteFileText(args.out, restored.value());
  if (!s.ok()) return Fail(s);

  std::printf("restored table %s (%zu bytes) -> %s (selective path)\n",
              pred.table.c_str(), restored.value().size(), args.out.c_str());
  if (!pred.all_columns()) {
    std::printf("  columns           %zu of the table's kept\n",
                pred.columns.size());
  }
  if (args.rows_set) {
    std::printf("  rows              %llu starting at %llu\n",
                static_cast<unsigned long long>(pred.row_count),
                static_cast<unsigned long long>(pred.row_begin));
  }
  std::printf("  records read      %llu (%llu payload bytes)\n",
              static_cast<unsigned long long>(stats.records_read),
              static_cast<unsigned long long>(stats.bytes_read));
  std::printf("  emblems decoded   %zu (%zu recovered, %zu cache hits)\n",
              stats.emblems_decoded, stats.emblems_recovered,
              stats.cache_hits);
  std::printf("  chunks decoded    %zu\n", stats.chunks_decoded);
  return 0;
}

int RunRestore(const Args& args) {
  if (args.in.empty() || args.out.empty()) {
    return Fail(Status::InvalidArgument("restore needs --in and --out"));
  }
  if (!args.table.empty()) return RunRestoreSelective(args);
  if (!args.columns.empty() || args.rows_set) {
    return Fail(Status::InvalidArgument(
        "--columns/--rows select within one table; they need --table"));
  }
  auto reel = filmstore::OpenReel(args.in);
  if (!reel.ok()) return Fail(reel.status());
  mocoder::Options options = reel.value()->emblem_options();
  options.threads = args.threads;
  if (auto* set = dynamic_cast<filmstore::ReelSetReader*>(reel.value().get())) {
    // Restoring through damage is the point of the reel set, but the user
    // should know the frames of a dead reel are riding on the outer code.
    for (size_t i = 0; i < set->catalog().reels.size(); ++i) {
      if (!set->reel_status(i).ok()) {
        std::fprintf(stderr, "ulectl: warning: %s\n",
                     set->reel_status(i).ToString().c_str());
      }
    }
  }

  Result<std::string> restored = Status::InvalidArgument("unreachable");
  core::RestoreStats stats;
  auto data_source = reel.value()->OpenFrames(mocoder::StreamId::kData);
  auto system_source = reel.value()->OpenFrames(mocoder::StreamId::kSystem);
  if (args.emulated) {
    auto bootstrap = reel.value()->ReadBootstrap();
    if (!bootstrap.ok()) return Fail(bootstrap.status());
    restored = core::RestoreEmulatedStreaming(*data_source, *system_source,
                                              bootstrap.value(), options,
                                              &stats);
  } else {
    restored = core::RestoreNativeStreaming(*data_source, system_source.get(),
                                            options, &stats);
  }
  if (!restored.ok()) return Fail(restored.status());
  Status s = WriteFileText(args.out, restored.value());
  if (!s.ok()) return Fail(s);

  std::printf("restored %zu dump bytes -> %s (%s path)\n",
              restored.value().size(), args.out.c_str(),
              args.emulated ? "fully emulated" : "native");
  std::printf("  data emblems      %d/%d decoded, %d recovered\n",
              stats.data_stream.emblems_decoded,
              stats.data_stream.emblems_total,
              stats.data_stream.emblems_recovered);
  std::printf("  system emblems    %d/%d decoded, %d recovered\n",
              stats.system_stream.emblems_decoded,
              stats.system_stream.emblems_total,
              stats.system_stream.emblems_recovered);
  if (args.emulated) {
    // VeRisc steps of the two archived decoders, kept apart.
    const uint64_t modecode_steps =
        stats.system_stream.steps + stats.data_stream.steps;
    std::printf("  MODecode steps    %llu\n",
                static_cast<unsigned long long>(modecode_steps));
    std::printf("  DBDecode steps    %llu\n",
                static_cast<unsigned long long>(stats.emulated_steps -
                                                modecode_steps));
  }
  return 0;
}

int RunInspect(const Args& args) {
  if (args.in.empty()) {
    return Fail(Status::InvalidArgument("inspect needs a reel path"));
  }
  auto reel = filmstore::OpenReel(args.in);
  if (!reel.ok()) return Fail(reel.status());
  const mocoder::Options& opt = reel.value()->emblem_options();
  std::printf("%s: ULE film-store reel (%s)\n", args.in.c_str(),
              reel.value()->kind());
  if (const auto* container =
          dynamic_cast<const filmstore::ContainerReader*>(reel.value().get())) {
    std::printf("  container version %s\n",
                filmstore::kUleContainerFormatVersion);
    std::error_code ec;
    std::printf("  file bytes        %llu\n",
                static_cast<unsigned long long>(
                    std::filesystem::file_size(args.in, ec)));
    std::printf("  records           %zu\n", container->entries().size());
  }
  if (const auto* set =
          dynamic_cast<const filmstore::ReelSetReader*>(reel.value().get())) {
    const filmstore::ReelCatalog& catalog = set->catalog();
    std::printf("  catalog version   %s\n",
                filmstore::kUleReelSetFormatVersion);
    std::printf("  archive id        %016llx\n",
                static_cast<unsigned long long>(catalog.archive_id));
    std::printf("  reels             %zu (%zu readable)\n",
                catalog.reels.size(), set->surviving_reels());
    for (size_t i = 0; i < catalog.reels.size(); ++i) {
      const filmstore::CatalogReel& row = catalog.reels[i];
      std::printf("    %-18s %6u frames %12llu bytes  %s\n",
                  row.name.c_str(), row.data_frames + row.system_frames,
                  static_cast<unsigned long long>(row.bytes),
                  set->reel_reconstructed(i)
                      ? "reconstructed from parity"
                      : set->reel_status(i).ok()
                            ? "ok"
                            : set->reel_status(i).ToString().c_str());
    }
    if (catalog.parity.present()) {
      std::printf("  parity version    %s (%u reels)\n",
                  filmstore::kUleParityFormatVersion,
                  catalog.parity.parity_reels);
      for (size_t p = 0; p < catalog.parity.reels.size(); ++p) {
        const filmstore::CatalogParityReel& row = catalog.parity.reels[p];
        std::printf("    %-18s %12llu bytes  %s\n", row.name.c_str(),
                    static_cast<unsigned long long>(row.bytes),
                    set->parity_status(p).ok()
                        ? "ok"
                        : set->parity_status(p).ToString().c_str());
      }
    }
  }
  std::printf("  emblem geometry   data_side %d, dots_per_cell %d, "
              "quiet_cells %d\n",
              opt.data_side, opt.dots_per_cell, opt.quiet_cells);
  std::printf("  data frames       %zu\n",
              reel.value()->frame_count(mocoder::StreamId::kData));
  std::printf("  system frames     %zu\n",
              reel.value()->frame_count(mocoder::StreamId::kSystem));
  std::printf("  bootstrap         %s\n",
              reel.value()->has_bootstrap() ? "present" : "absent");

  auto section = reel.value()->ReadIndexSection();
  if (!section.ok() && section.status().code() != StatusCode::kNotFound) {
    return Fail(section.status());
  }
  std::printf("  record index      %s\n",
              section.ok() ? "present (ULE-S1)" : "absent");
  if (args.show_index) {
    if (!section.ok()) {
      return Fail(Status::NotFound(
          "no ULE-S1 record index on this reel (archived with --no-index?)"));
    }
    auto index = core::RecordIndex::Parse(section.value());
    if (!index.ok()) return Fail(index.status());
    std::printf("  index version     %s\n", core::kUleIndexFormatVersion);
    std::printf("  dump bytes        %llu (%llu compressed, %s)\n",
                static_cast<unsigned long long>(index.value().dump_len),
                static_cast<unsigned long long>(index.value().stream_len),
                index.value().segmented ? "segmented" : "whole-stream");
    for (const std::string& table : index.value().Tables()) {
      size_t chunks = 0;
      for (const core::IndexChunk& c : index.value().chunks) {
        if (c.table == table) ++chunks;
      }
      std::printf("    %-18s %10llu rows %6zu chunks\n", table.c_str(),
                  static_cast<unsigned long long>(
                      index.value().RowsOfTable(table)),
                  chunks);
    }
  }
  return 0;
}

int RunVerify(const Args& args) {
  if (args.in.empty()) {
    return Fail(Status::InvalidArgument("verify needs a reel path"));
  }
  // Exit contract (shared with scrub): 0 healthy, 1 damaged but
  // repairable from ULE-P1 parity, 2 data loss / unreadable. Opened
  // without transparent reconstruction: verify judges the artifact as
  // stored and never writes into the archive directory.
  filmstore::ReelOpenOptions ropt;
  ropt.reconstruct = false;
  auto reel = filmstore::OpenReel(args.in, ropt);
  if (!reel.ok()) {
    Fail(reel.status());
    return 2;
  }
  Status s = reel.value()->Verify();
  if (!s.ok()) {
    Fail(s);
    if (const auto* set = dynamic_cast<const filmstore::ReelSetReader*>(
            reel.value().get())) {
      const std::string dir =
          std::filesystem::path(args.in).parent_path().string();
      auto health = filmstore::AssessSet(set->catalog(), dir);
      if (health.ok() && !health.value().clean() &&
          filmstore::Recoverable(set->catalog(), health.value())) {
        std::fprintf(stderr,
                     "ulectl: repairable from parity — run `ulectl scrub "
                     "--repair` on the archive's directory\n");
        return 1;
      }
    }
    return 2;
  }
  const size_t records =
      reel.value()->frame_count(mocoder::StreamId::kData) +
      reel.value()->frame_count(mocoder::StreamId::kSystem) +
      (reel.value()->has_bootstrap() ? 1 : 0);
  // Directory reels carry no checksums; their integrity pass only proves
  // every frame file still parses. Say which guarantee was checked.
  const bool checksummed =
      dynamic_cast<const filmstore::DirectoryReader*>(reel.value().get()) ==
      nullptr;
  std::printf("%s: OK (%zu records, %s)\n", args.in.c_str(), records,
              checksummed ? "every checksum valid"
                          : "every frame file parses");
  return 0;
}

int RunScrub(const Args& args) {
  if (args.in.empty()) {
    return Fail(Status::InvalidArgument(
        "scrub needs the fleet root directory (bare path or --in)"));
  }
  filmstore::ScrubOptions options;
  options.repair = args.repair;
  options.threads = args.threads;
  options.checkpoint_path = args.checkpoint;
  options.max_archives = static_cast<size_t>(args.max_archives);
  auto report = filmstore::ScrubFleet(args.in, options);
  if (!report.ok()) return Fail(report.status());
  const filmstore::FleetReport& fleet = report.value();

  std::printf("%s: scrubbed %zu archives (%zu resumed from checkpoint)\n",
              args.in.c_str(), fleet.archives.size(), fleet.resumed);
  std::printf("  healthy           %zu\n", fleet.healthy);
  std::printf("  repaired          %zu (%llu bytes rewritten)\n",
              fleet.repaired,
              static_cast<unsigned long long>(fleet.repaired_bytes));
  std::printf("  repairable        %zu%s\n", fleet.repairable,
              fleet.repairable > 0 ? " (re-run with --repair)" : "");
  std::printf("  data loss         %zu\n", fleet.data_loss);
  std::printf("  errors            %zu\n", fleet.errors);
  for (const filmstore::ArchiveHealth& health : fleet.archives) {
    if (health.state == filmstore::ArchiveState::kHealthy) continue;
    std::printf("    %-10s %s%s%s\n",
                filmstore::ArchiveStateName(health.state),
                health.path.c_str(), health.detail.empty() ? "" : ": ",
                health.detail.c_str());
  }
  if (!args.report.empty()) {
    Status written = WriteFileText(args.report, fleet.ToJson());
    if (!written.ok()) return Fail(written);
    std::printf("  report            %s\n", args.report.c_str());
  }
  return fleet.ExitCode();
}

int RunResume(const Args& args) {
  if (args.in.empty()) {
    return Fail(Status::InvalidArgument("resume needs a spool path"));
  }
  auto scan = filmstore::ScanSpool(args.in);
  if (!scan.ok()) return Fail(scan.status());
  if (scan.value().sealed) {
    std::printf("%s: already sealed (%zu records) — nothing to resume\n",
                args.in.c_str(), scan.value().entries.size());
    return 0;
  }
  std::printf("%s: interrupted spool\n", args.in.c_str());
  std::printf("  complete records  %zu\n", scan.value().entries.size());
  std::printf("  recovered bytes   %llu\n",
              static_cast<unsigned long long>(scan.value().recovered_bytes));
  std::printf("  dropped bytes     %llu (trailing partial record)\n",
              static_cast<unsigned long long>(scan.value().dropped_bytes));
  // Hand the completed scan to Resume: one sequential CRC pass over the
  // spool, not two.
  auto writer = filmstore::ContainerWriter::Resume(
      args.in, std::move(scan).TakeValue(),
      filmstore::ContainerWriter::Options());
  if (!writer.ok()) return Fail(writer.status());
  Status sealed = writer.value()->Finish();
  if (!sealed.ok()) return Fail(sealed);
  std::printf("sealed: %s now opens as a ULE-C1 reel\n", args.in.c_str());
  return 0;
}

int RunVersion() {
  std::printf("ulectl — Universal Layout Emulation archival toolchain\n");
  std::printf("  formats   %s film, %s container, %s reel set, %s parity, "
              "%s record index\n",
              core::kUleFormatVersion, filmstore::kUleContainerFormatVersion,
              filmstore::kUleReelSetFormatVersion,
              filmstore::kUleParityFormatVersion,
              core::kUleIndexFormatVersion);
  std::printf("  kernels   %s\n", kernels::Describe().c_str());
  std::printf("  knobs     ULE_THREADS (worker threads), "
              "ULE_KERNELS=scalar|ssse3|avx2|auto\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "ulectl: %s\n", args.status().ToString().c_str());
    return Usage(argv[0]);
  }
  const std::string& command = args.value().command;
  if (command == "archive") return RunArchive(args.value());
  if (command == "restore") return RunRestore(args.value());
  if (command == "inspect") return RunInspect(args.value());
  if (command == "verify") return RunVerify(args.value());
  if (command == "scrub") return RunScrub(args.value());
  if (command == "resume") return RunResume(args.value());
  if (command == "version") return RunVersion();
  std::fprintf(stderr, "ulectl: unknown command: %s\n", command.c_str());
  return Usage(argv[0]);
}
