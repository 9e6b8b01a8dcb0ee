// The archival benchmark: runs one seeded workload through the library's
// public APIs and prints its metrics as one JSON line.
//
//   ule_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --workdir <dir> [--trace-out <file>] [--commit <id>]
//   ule_perfbench --self-test --seed <n> --workdir <dir>
//
// --trace 0 sets up the workload several times (setup_s is their median),
// then runs passes until --seconds would be exceeded and reports the
// end-to-end metrics as medians over passes. --trace 1 runs one untraced
// pass and the same pass traced (see pipeline.h), cross-checks the two,
// and reports the per-layer metrics. Every op is checked byte for byte;
// a wrong result or a non-OK Status counts as failed, never aborts.
// perfbench/run.py builds this program and passes the arguments on.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_report.h"
#include "core/record_index.h"
#include "dbcoder/dbcoder.h"
#include "filmstore/container.h"
#include "mocoder/mocoder.h"
#include "support/kernels.h"
#include "support/parallel.h"
#include "trace.h"
#include "workloads.h"

using namespace ule;
using namespace perfbench;

namespace {


struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string workdir;
  std::string trace_out;
  std::string commit = "unknown";
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (a == "--workload") {
      args->workload = v;
    } else if (a == "--seed") {
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      args->trace = std::atoi(v.c_str());
    } else if (a == "--workdir") {
      args->workdir = v;
    } else if (a == "--trace-out") {
      args->trace_out = v;
    } else if (a == "--commit") {
      args->commit = v;
    } else {
      return false;
    }
  }
  return !args->workdir.empty() &&
         (args->self_test || !args->workload.empty());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double Sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}

using Metrics = std::vector<std::tuple<std::string, double, std::string>>;

void PrintResult(bool correct, int attempted, int failed,
                 const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", name.c_str(), value, unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// The run context: records taken under different contexts are never
/// compared.
void PrintContext(const Args& args, int passes, size_t lookup_samples) {
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"threads\": %d, \"kernels\": \"%s\", \"build_type\": \"%s\", "
      "\"nproc\": %u, \"commit\": \"%s\", \"passes\": %d, "
      "\"lookup_samples\": %zu}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace, std::min(ResolveThreadCount(kThreads),
                           ThreadPool::kMaxThreads),
      kernels::Describe().c_str(), ULE_PERFBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), args.commit.c_str(), passes,
      lookup_samples);
}

void ReportFailures(const PassResult& r) {
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
}

/// Starts peak_rss_mb afresh after set-up, so that it measures the passes
/// and not the set-up (the microfilm scans peak far above the restores).
/// Heap the set-up freed is handed back first; writing 5 to clear_refs
/// resets the high-water mark that getrusage reports.
void ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  if (!clear_refs) {
    std::fprintf(stderr,
                 "perfbench: cannot reset the peak RSS; peak_rss_mb "
                 "includes set-up\n");
  }
}

double PeakRssMb() { return static_cast<double>(bench::MaxRssBytes()) / 1e6; }

/// Deletes the files a set-up wrote.
void RemoveSetup(const Workload& w) {
  std::error_code ec;
  std::filesystem::remove(w.main.path, ec);
  if (w.probe) std::filesystem::remove(w.probe->path, ec);
}

int RunUntraced(const Args& args, Kind kind, WorkFiles& files) {
  // Set-up is timed several times and reported as a median: the
  // microfilm set-up scans for ~8 s, the archive session's takes ~0.2 s
  // and the emulated workload's ~0.02 s.
  const int setup_runs = kind == Kind::kMicrofilmScan      ? 3
                         : kind == Kind::kEmulatedRestore ? 15
                                                          : 5;
  std::vector<double> setup_s;
  std::optional<Workload> w;
  for (int i = 0; i < setup_runs; ++i) {
    if (w) RemoveSetup(*w);
    const Clock::time_point t0 = Clock::now();
    auto setup = Setup(kind, args.seed, files);
    if (!setup.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   setup.status().ToString().c_str());
      return 1;
    }
    w.emplace(setup.TakeValue());
    setup_s.push_back(Seconds(t0, Clock::now()));
  }
  files.Settle();
  ResetPeakRss();

  std::vector<PassResult> passes;
  const Clock::time_point start = Clock::now();
  double last = 0;
  do {
    const Clock::time_point t0 = Clock::now();
    passes.push_back(RunPass(*w, files, nullptr, nullptr));
    const PassResult& p = passes.back();
    ReportFailures(p);
    last = Seconds(t0, Clock::now());
    std::fprintf(stderr,
                 "perfbench: pass %zu: %.3f s (archive %.3f, scrub %.3f, "
                 "native %.3f, emulated %.3f, %zu lookups %.3f)\n",
                 passes.size() - 1, last, Sum(p.archive_s), Sum(p.scrub_s),
                 Sum(p.restore_native_s), Sum(p.restore_emulated_s),
                 p.lookup_s.size(), Sum(p.lookup_s));
  } while (Seconds(start, Clock::now()) + last <= args.seconds);

  const double dump_mb = static_cast<double>(w->main.dump.size()) / 1e6;
  const double emulated_kb =
      static_cast<double>(w->emulated_reel().dump.size()) / 1e3;
  std::vector<double> archive, scrub, native, emulated, lookup_ms;
  int attempted = 0;
  int failed = 0;
  for (const PassResult& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    for (double s : p.archive_s) archive.push_back(dump_mb / s);
    for (double s : p.scrub_s) {
      scrub.push_back(static_cast<double>(p.scrubbed_bytes) / 1e6 / s);
    }
    for (double s : p.restore_native_s) native.push_back(dump_mb / s);
    for (double s : p.restore_emulated_s) emulated.push_back(emulated_kb / s);
    for (double s : p.lookup_s) lookup_ms.push_back(s * 1e3);
  }
  const PassResult& last_pass = passes.back();
  const Metrics metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"archive_mb_s", Median(archive), "MB/s"},
      {"restore_native_mb_s", Median(native), "MB/s"},
      {"restore_emulated_kb_s", Median(emulated), "KB/s"},
      {"lookup_p50_ms", Median(lookup_ms), "ms"},
      {"scrub_mb_s", Median(scrub), "MB/s"},
      {"stored_bytes_per_dump_byte",
       static_cast<double>(last_pass.container_bytes) /
           static_cast<double>(w->main.dump.size()),
       "ratio"},
      {"frames_per_dump_mb", static_cast<double>(last_pass.frames) / dump_mb,
       "1/MB"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  PrintContext(args, static_cast<int>(passes.size()), lookup_ms.size());
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

bool SameStats(const mocoder::DecodeStats& a, const mocoder::DecodeStats& b) {
  return a.emblems_total == b.emblems_total &&
         a.emblems_decoded == b.emblems_decoded &&
         a.emblems_recovered == b.emblems_recovered &&
         a.rs_errors_corrected == b.rs_errors_corrected;
}

double Total(const PassResult& p) {
  return Sum(p.archive_s) + Sum(p.scrub_s) + Sum(p.restore_native_s) +
         Sum(p.restore_emulated_s) + Sum(p.lookup_s);
}

/// The archive's DBCoder stream and frames once more, outside any
/// operation: ArchiveDumpStreaming makes both calls internally, where the
/// benchmark cannot time them.
Status StandaloneEncode(const Workload& w, Tracer& tracer, size_t* encoded) {
  Bytes stream;
  {
    Span span(tracer, "dbcoder.encode", 0);
    if (w.archive_options.build_index) {
      ULE_ASSIGN_OR_RETURN(
          std::vector<core::IndexChunk> chunks,
          core::PlanDumpChunks(w.main.dump,
                               w.archive_options.index_chunk_bytes));
      std::vector<dbcoder::SegmentSpan> segments(chunks.size());
      for (size_t i = 0; i < chunks.size(); ++i) {
        segments[i].raw_offset = chunks[i].raw_offset;
        segments[i].raw_len = chunks[i].raw_len;
      }
      ULE_ASSIGN_OR_RETURN(
          stream, dbcoder::EncodeSegmented(ToBytes(w.main.dump),
                                           w.archive_options.scheme,
                                           &segments));
    } else {
      ULE_ASSIGN_OR_RETURN(stream, dbcoder::Encode(ToBytes(w.main.dump),
                                                   w.archive_options.scheme));
    }
  }
  *encoded = stream.size();
  Span span(tracer, "mocoder.encode_render", 0);
  return mocoder::EncodeToSink(
      stream, mocoder::StreamId::kData, w.archive_options.emblem,
      /*render=*/true,
      [](mocoder::EncodedEmblem&&, media::Image&&) { return Status::OK(); });
}

int RunTraced(const Args& args, Kind kind, WorkFiles& files) {
  auto setup = Setup(kind, args.seed, files);
  if (!setup.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 setup.status().ToString().c_str());
    return 1;
  }
  Workload w = setup.TakeValue();
  files.Settle();
  // One of each operation, so the traced pass and its untraced twin
  // compare op for op.
  w.archive_reps = w.scrub_reps = w.native_reps = 1;

  const PassResult plain = RunPass(w, files, nullptr, nullptr);
  ReportFailures(plain);

  Tracer tracer;
  LayerCounts counts;
  const PassResult traced = RunPass(w, files, &tracer, &counts);
  ReportFailures(traced);
  size_t encoded = 0;
  const Status standalone = StandaloneEncode(w, tracer, &encoded);

  // Cross-checks: the decomposition must measure the same program.
  std::vector<std::pair<const char*, bool>> checks = {
      {"standalone encode", standalone.ok()},
      {"archive bytes",
       !plain.archive_signature.empty() &&
           traced.archive_signature == plain.archive_signature &&
           traced.container_bytes == plain.container_bytes},
      {"scrub verdict", traced.scrub_healthy == plain.scrub_healthy},
      {"native output", traced.native_out == plain.native_out},
      {"native data stats", SameStats(traced.native_stats.data_stream,
                                      plain.native_stats.data_stream)},
      {"native system stats", SameStats(traced.native_stats.system_stream,
                                        plain.native_stats.system_stream)},
      {"emulated output", traced.emulated_out == plain.emulated_out},
      {"emulated data stats", SameStats(traced.emulated_stats.data_stream,
                                        plain.emulated_stats.data_stream)},
      {"emulated system stats",
       SameStats(traced.emulated_stats.system_stream,
                 plain.emulated_stats.system_stream)},
      {"emulated steps", counts.modecode_steps + counts.dbdecode_steps ==
                             plain.emulated_stats.emulated_steps},
      {"rs errors", counts.rs_errors ==
                        static_cast<uint64_t>(
                            plain.native_stats.data_stream.rs_errors_corrected +
                            plain.native_stats.system_stream
                                .rs_errors_corrected)},
      {"lookup records", traced.lookup_records == plain.lookup_records},
  };
  int attempted = plain.attempted + traced.attempted;
  int failed = plain.failed + traced.failed;
  for (const auto& [name, ok] : checks) {
    attempted += 1;
    if (!ok) {
      failed += 1;
      std::fprintf(stderr, "perfbench: FAILED cross-check: %s\n", name);
    }
  }

  double restore_wall = 0;
  for (const OpRecord& op : tracer.ops()) {
    if (op.name == "restore_native" || op.name == "restore_emulated") {
      restore_wall += Seconds(op.start, op.end);
    }
  }
  const double restore_busy =
      tracer.BusyInOps("restore_native") + tracer.BusyInOps("restore_emulated");
  const double nested_s =
      tracer.Busy("olonys.modecode") + tracer.Busy("olonys.dbdecode");
  const double steps =
      static_cast<double>(counts.modecode_steps + counts.dbdecode_steps);
  const double lookups = static_cast<double>(traced.lookup_s.size());
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const Metrics metrics = {
      {"filmstore.read_s", tracer.Busy("filmstore.read"), "s"},
      {"filmstore.read_mb", static_cast<double>(counts.read_bytes) / 1e6, "MB"},
      {"filmstore.append_s", tracer.Busy("filmstore.append"), "s"},
      {"filmstore.records_per_lookup",
       per(static_cast<double>(traced.lookup_records), lookups), "count"},
      {"media.unpack_s", tracer.Busy("media.unpack"), "s"},
      {"media.unpack_mpix", static_cast<double>(counts.unpack_pixels) / 1e6,
       "Mpix"},
      {"mocoder.sample_s", tracer.Busy("mocoder.sample"), "s"},
      {"mocoder.sample_calls", static_cast<double>(counts.sample_calls),
       "count"},
      {"mocoder.sample_failed", static_cast<double>(counts.sample_failed),
       "count"},
      {"mocoder.inner_s", tracer.Busy("mocoder.inner"), "s"},
      {"mocoder.inner_failed", static_cast<double>(counts.inner_failed),
       "count"},
      {"rs.errors_corrected", static_cast<double>(counts.rs_errors), "count"},
      {"mocoder.outer_s", tracer.Busy("mocoder.outer"), "s"},
      {"mocoder.emblems_recovered",
       static_cast<double>(counts.emblems_recovered), "count"},
      {"mocoder.encode_render_s", tracer.Busy("mocoder.encode_render"), "s"},
      {"dbcoder.encode_s", tracer.Busy("dbcoder.encode"), "s"},
      {"dbcoder.decode_s", tracer.Busy("dbcoder.decode"), "s"},
      {"dbcoder.ratio",
       per(static_cast<double>(w.main.dump.size()),
           static_cast<double>(encoded)),
       "ratio"},
      {"core.lookup_emblems_decoded",
       static_cast<double>(traced.lookup_emblems), "count"},
      {"core.lookup_chunks_decoded", static_cast<double>(traced.lookup_chunks),
       "count"},
      {"core.idle_share", 1.0 - per(restore_busy, restore_wall * kThreads),
       "ratio"},
      {"olonys.bootstrap_parse_s", tracer.Busy("olonys.bootstrap_parse"),
       "s"},
      {"olonys.modecode_s", tracer.Busy("olonys.modecode"), "s"},
      {"olonys.modecode_steps", static_cast<double>(counts.modecode_steps),
       "count"},
      {"olonys.dbdecode_s", tracer.Busy("olonys.dbdecode"), "s"},
      {"olonys.dbdecode_steps", static_cast<double>(counts.dbdecode_steps),
       "count"},
      {"olonys.dbdecode_segments",
       static_cast<double>(counts.dbdecode_segments), "count"},
      {"verisc.steps_per_s", per(steps, nested_s), "1/s"},
      {"verisc.fused_share",
       per(static_cast<double>(counts.nested_fused), steps), "ratio"},
      {"olonys.translation_hit_rate",
       per(static_cast<double>(counts.nested_cache_hits),
           static_cast<double>(counts.nested_calls)),
       "ratio"},
      {"trace.overhead_pct", 100.0 * (per(Total(traced), Total(plain)) - 1.0),
       "%"},
  };
  if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
  }
  PrintContext(args, 1, traced.lookup_s.size());
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

/// Flips one byte of one frame record in a copy of a container.
Status DamageCopy(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::copy_file(
      from, to, std::filesystem::copy_options::overwrite_existing, ec);
  if (ec) return Status::IoError("cannot copy " + from);
  ULE_ASSIGN_OR_RETURN(auto reader, filmstore::ContainerReader::Open(to));
  for (const filmstore::ContainerEntry& e : reader->entries()) {
    if (e.type != filmstore::RecordType::kDataFrame) continue;
    std::fstream f(to, std::ios::in | std::ios::out | std::ios::binary);
    const auto at = static_cast<std::streamoff>(e.offset + e.payload_len / 2);
    char byte = 0;
    f.seekg(at);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(at);
    f.write(&byte, 1);
    return f.good() ? Status::OK() : Status::IoError("cannot damage " + to);
  }
  return Status::NotFound("no data frame record in " + from);
}

/// Runs every operation once on `reel`; returns the accounting.
PassResult AllOps(const Reel& reel) {
  PassResult r;
  ScrubOp(reel.path, nullptr, nullptr, &r);
  RestoreNativeOp(reel, nullptr, nullptr, &r);
  RestoreEmulatedOp(reel, nullptr, nullptr, &r);
  for (const std::string& table : reel.db.TableNames()) {
    core::RestorePredicate pred;
    pred.table = table;
    pred.row_count = 100;
    LookupOp(reel, pred, nullptr, &r);
  }
  return r;
}

/// A damaged container must make the operations that read the damaged
/// record count as failed: no crash, and no fast success.
int SelfTest(const Args& args, WorkFiles& files) {
  auto reel = MakeTpchReel(kProbeSf, DeriveSeed(args.seed, 1),
                           files.Fresh("selftest"));
  if (!reel.ok()) return 1;
  if (!ArchiveToContainer(reel.value().dump, DefaultArchiveOptions(), false,
                          reel.value().path)
           .ok()) {
    return 1;
  }
  const PassResult clean = AllOps(reel.value());

  Reel damaged = reel.TakeValue();
  const std::string damaged_path = files.Fresh("selftest_damaged");
  if (!DamageCopy(damaged.path, damaged_path).ok()) return 1;
  damaged.path = damaged_path;
  PassResult hurt;
  const bool scrub_ok = ScrubOp(damaged.path, nullptr, nullptr, &hurt);
  const bool native_ok = RestoreNativeOp(damaged, nullptr, nullptr, &hurt);
  const bool emulated_ok = RestoreEmulatedOp(damaged, nullptr, nullptr, &hurt);
  int lookups_failed = 0;
  for (const std::string& table : damaged.db.TableNames()) {
    core::RestorePredicate pred;
    pred.table = table;
    pred.row_count = 100;
    if (!LookupOp(damaged, pred, nullptr, &hurt)) ++lookups_failed;
  }
  ReportFailures(hurt);

  const bool pass = clean.failed == 0 && !scrub_ok && !native_ok &&
                    !emulated_ok &&
                    hurt.failed == 3 + lookups_failed;
  std::printf(
      "{\"self_test\": \"%s\", \"clean\": {\"attempted\": %d, \"failed\": "
      "%d}, \"damaged\": {\"attempted\": %d, \"failed\": %d, "
      "\"lookups_failed\": %d}}\n",
      pass ? "pass" : "fail", clean.attempted, clean.failed, hurt.attempted,
      hurt.failed, lookups_failed);
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc malloc runs with one arena and fixed thresholds, so that every
  // run reuses memory the same way. With its defaults, whether a scrub's
  // or an archive's per-frame buffers (~0.3 MB) faulted in fresh pages
  // depended on the run's allocation history and halved scrub_mb_s in
  // about one run in eight; mapping each 25 MB microfilm scan afresh made
  // the microfilm figures move by 25% between hours, as the price of a
  // first touch moved on a 4-vCPU VM; and with a heap per thread, which
  // heap kept which scan moved the microfilm peak RSS between 296 and
  // 387 MB. Blocks up to 32 MiB now come from the one heap, whose top is
  // trimmed only past 64 MiB.
  ::mallopt(M_ARENA_MAX, 1);
  ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
  ::mallopt(M_TRIM_THRESHOLD, 64 << 20);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ule_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir> "
                 "[--trace-out <file>] [--commit <id>]\n"
                 "       ule_perfbench --self-test --seed <n> "
                 "--workdir <dir>\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.workdir.c_str());
    return 1;
  }
  WorkFiles files(args.workdir);
  if (args.self_test) return SelfTest(args, files);
  const std::optional<Kind> kind = ParseKind(args.workload);
  if (!kind) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  return args.trace != 0 ? RunTraced(args, *kind, files)
                         : RunUntraced(args, *kind, files);
}
