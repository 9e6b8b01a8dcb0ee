#include "core/micr_olonys.h"

#include <algorithm>
#include <string>

#include "decoders/dbdecode.h"
#include "decoders/modecode.h"
#include "olonys/bootstrap.h"
#include "olonys/dynarisc_in_verisc.h"
#include "support/crc32.h"
#include "support/parallel.h"

namespace ule {
namespace core {

Status ValidateArchiveOptions(const ArchiveOptions& options) {
  ULE_RETURN_IF_ERROR(mocoder::ValidateOptions(options.emblem));
  if (options.emblem.data_side > decoders::kModecodeMaxDataSide) {
    return Status::InvalidArgument(
        "emblem data_side " + std::to_string(options.emblem.data_side) +
        " exceeds " + std::to_string(decoders::kModecodeMaxDataSide) +
        ", the largest grid the archived MODecode decodes");
  }
  if (options.scheme > dbcoder::Scheme::kLzac) {
    return Status::InvalidArgument(
        std::string("DBCoder scheme ") + dbcoder::SchemeName(options.scheme) +
        " cannot be archived: the archived DBDecode decodes only store, "
        "lzss and lzac");
  }
  return Status::OK();
}

Result<ArchiveSummary> ArchiveDumpStreaming(const std::string& sql_dump,
                                            const ArchiveOptions& options,
                                            filmstore::FrameSink& sink) {
  ULE_RETURN_IF_ERROR(ValidateArchiveOptions(options));
  ArchiveSummary summary;
  summary.emblem_options = options.emblem;
  // The recorded options describe the archived *geometry*; the archiving
  // machine's thread count is not an archival parameter and must not leak
  // into (and silently serialize) a future restorer's environment. It is
  // still worth reporting (benches, ulectl), outside the recorded options.
  summary.emblem_options.threads = 0;
  summary.threads_used = ResolveThreadCount(options.emblem.threads);
  summary.dump_bytes = sql_dump.size();

  // With build_index the stream is written segmented (UDBS) along the
  // dump's chunk plan, so a selective restore can decode one chunk
  // without its neighbors; the finished index is handed to the sink
  // below, once the frame layout it describes is actually on the reel.
  Bytes container;
  Bytes index_section;
  if (options.build_index) {
    ULE_ASSIGN_OR_RETURN(
        std::vector<IndexChunk> chunks,
        PlanDumpChunks(sql_dump, options.index_chunk_bytes));
    std::vector<dbcoder::SegmentSpan> segments(chunks.size());
    for (size_t i = 0; i < chunks.size(); ++i) {
      segments[i].raw_offset = chunks[i].raw_offset;
      segments[i].raw_len = chunks[i].raw_len;
    }
    ULE_ASSIGN_OR_RETURN(container,
                         dbcoder::EncodeSegmented(ToBytes(sql_dump),
                                                  options.scheme, &segments));
    for (size_t i = 0; i < chunks.size(); ++i) {
      chunks[i].stream_offset = segments[i].stream_offset;
      chunks[i].stream_len = segments[i].stream_len;
    }
    RecordIndex index;
    index.scheme = options.scheme;
    index.segmented = true;
    index.dump_len = sql_dump.size();
    index.stream_len = container.size();
    index.chunks = std::move(chunks);
    index_section = index.Serialize();
  } else {
    ULE_ASSIGN_OR_RETURN(container,
                         dbcoder::Encode(ToBytes(sql_dump), options.scheme));
  }
  summary.compressed_bytes = container.size();
  summary.bootstrap_text = olonys::GenerateBootstrapText(
      olonys::DynaRiscInterpreter(), decoders::ModecodeProgram());

  // The two streams are emitted back to back (data first) so the sink
  // sees frames in reel order; each stream parallelizes internally with
  // the full thread budget. Only O(threads) frames exist at any moment.
  const Bytes dbdecode_stream = decoders::DbDecodeProgram().Serialize();
  auto stream_out = [&](BytesView stream, mocoder::StreamId id,
                        size_t* frames) -> Status {
    return mocoder::EncodeToSink(
        stream, id, options.emblem, /*render=*/true,
        [&](mocoder::EncodedEmblem&& emblem, media::Image&& frame) -> Status {
          *frames += 1;
          return sink.Append(id, emblem, std::move(frame));
        });
  };
  ULE_RETURN_IF_ERROR(stream_out(container, mocoder::StreamId::kData,
                                 &summary.data_frames));
  ULE_RETURN_IF_ERROR(stream_out(dbdecode_stream, mocoder::StreamId::kSystem,
                                 &summary.system_frames));
  if (options.build_index) {
    // Persisting the index needs the full writer contract; a sink with no
    // finalization half (memory, ad-hoc callbacks) has nowhere durable to
    // put it, and such archives are restored from RAM anyway.
    if (auto* writer = dynamic_cast<filmstore::ArchiveWriter*>(&sink)) {
      ULE_RETURN_IF_ERROR(writer->SetIndexSection(std::move(index_section)));
    }
  }
  // Per-reel accounting comes from the sink: a sharding backend knows how
  // it split the stream, core does not. (The byte counts grow a little
  // more when the caller appends the Bootstrap and finishes the reels.)
  summary.reels = sink.CurrentReelStats();
  return summary;
}

namespace {

/// Pull-decodes one stream: mocoder::DecodeStream reads `source` and
/// keeps at most O(threads) of its frames alive.
/// `decode` (when set) replaces the native inner decode — the emulated
/// path plugs in the archived MODecode under nested emulation, and also
/// counts unsampled scans (the historian's stats are about the reel).
/// With `skip_if_empty`, a source yielding nothing returns empty bytes
/// (the "no system reel to verify" case).
Result<Bytes> DecodeSourceStream(filmstore::FrameSource& source,
                                 mocoder::StreamId id,
                                 const mocoder::Options& emblem_options,
                                 mocoder::GridDecodeFn decode,
                                 bool count_unsampled, bool skip_if_empty,
                                 mocoder::DecodeStats* stats) {
  bool empty = true;  // the source yielded neither a frame nor an error
  Result<Bytes> stream = mocoder::DecodeStream(
      [&] {
        auto frame = source.Next();
        empty = empty && frame.ok() && !frame.value().has_value();
        return frame;
      },
      id, emblem_options, std::move(decode), count_unsampled, stats);
  if (skip_if_empty && empty) return Bytes();
  return stream;
}

/// Step cap of one archived MODecode run (and the ceiling of every
/// DBDecode segment's budget): ~2 minutes at ~1.7 G VeRisc steps/s.
constexpr uint64_t kNestedStepCap = 200'000'000'000ull;

/// Runs a DynaRisc program under nested emulation via the *parsed
/// Bootstrap* interpreter (not the in-tree one), for at most `max_steps`
/// VeRisc steps (ResourceExhausted beyond), adding the steps retired to
/// `*steps`.
Result<Bytes> RunViaBootstrap(const verisc::Program& interpreter,
                              const dynarisc::Program& guest, BytesView input,
                              verisc::VmFunction vm, uint64_t max_steps,
                              uint64_t* steps) {
  verisc::RunOptions opts;
  opts.max_steps = max_steps;
  // When the parsed Bootstrap's emulator is word-for-word the in-tree
  // interpreter (the round-trip guarantee olonys_test pins down) and the
  // caller runs the reference engine, route through RunNested so the
  // shared translation cache and the warm-start interpreter apply across
  // every frame of the restore. Output bytes are unchanged; `steps`
  // counts the VeRisc instructions the engine actually retired.
  if ((vm == nullptr || vm == &verisc::Run) &&
      interpreter.words == olonys::DynaRiscInterpreter().words) {
    olonys::NestedRunStats nested_stats;
    Result<Bytes> out =
        olonys::RunNested(guest, input, opts, &verisc::Run,
                          olonys::NestedMode::kAuto, &nested_stats);
    if (steps) *steps += nested_stats.steps;
    return out;
  }
  const Bytes packed = olonys::PackNestedInput(guest, input);
  ULE_ASSIGN_OR_RETURN(verisc::RunResult r, vm(interpreter, packed, opts));
  if (steps) *steps += r.steps;
  if (r.reason == verisc::StopReason::kStepLimit) {
    return Status::ResourceExhausted("nested emulation exceeded step limit");
  }
  if (r.reason != verisc::StopReason::kHalted) {
    return Status::ExecutionFault("nested emulation did not halt cleanly");
  }
  return std::move(r.output);
}

/// Builds the archived decode of one sampled grid (Bootstrap steps 5-7):
/// pack the lattice, run MODecode under nested emulation, then apply the
/// Bootstrap-documented header parse + CRC check. Thread-safe: each call
/// uses only local state plus the caller thread's scratch machine. The
/// interpreter/modecode programs are captured by reference and must
/// outlive the returned function.
mocoder::GridDecodeFn MakeNestedGridDecode(const verisc::Program& interpreter,
                                           const dynarisc::Program& modecode,
                                           int data_side,
                                           verisc::VmFunction vm) {
  const int blocks = mocoder::EmblemBlocks(data_side);
  const int capacity = mocoder::EmblemCapacity(data_side);
  return [&interpreter, &modecode, vm, data_side, blocks,
          capacity](BytesView grid) {
    mocoder::GridDecodeResult out;
    const Bytes input = decoders::PackModecodeInput(grid, data_side);
    auto container = RunViaBootstrap(interpreter, modecode, input, vm,
                                     kNestedStepCap, &out.steps);
    if (!container.ok()) return out;
    if (container.value().size() != static_cast<size_t>(blocks) * 223) {
      return out;  // MODecode halted early: unrecoverable
    }
    auto header = mocoder::ParseHeader(container.value());
    if (!header.ok()) return out;
    Bytes payload(container.value().begin() + mocoder::kHeaderSize,
                  container.value().begin() + mocoder::kHeaderSize + capacity);
    if (Crc32(payload) != header.value().payload_crc) return out;
    out.ok = true;
    out.header = header.value();
    out.payload = std::move(payload);
    return out;
  };
}

/// VeRisc steps the archived DBDecode may spend per output byte, by the
/// scheme a segment's UDB1 header records. Each is about 3x the worst
/// figure measured on the cold nested path (the slower one, which foreign
/// VeRisc implementations take), over TPC-H text, random bytes, zeros and
/// a period-5 pattern of 4 KB: store 7.6 K, LZSS 42.7 K and LZAC 82.9 K,
/// all three on random bytes. TPC-H text costs LZAC 30 K/byte cold and
/// 25.0 K warm (5,569,468,095 steps for the 222,541-byte SF 0.0002 dump),
/// so its budget is ~10x what it uses. A scheme the in-tree DBDecode does
/// not know gets the largest budget: a later archive's decoder might.
uint64_t DbDecodeStepsPerByte(dbcoder::Scheme scheme) {
  switch (scheme) {
    case dbcoder::Scheme::kStore:
      return 25'000;
    case dbcoder::Scheme::kLzss:
      return 130'000;
    default:
      return 250'000;
  }
}

/// Startup allowance of every DBDecode run: 5x the cold path's ~19.8 M
/// steps of interpreter bootstrap (the warm path starts in ~0.2 M).
constexpr uint64_t kDbDecodeStartupSteps = 100'000'000;

/// Runs the archived DBDecode over the recovered DBCoder stream. A
/// segmented stream (UDBS, docs/FORMAT.md §11.1) is *framing* only: the
/// contemporary driver walks the segment table and runs the archived
/// decoder once per UDB1 segment, concatenating the outputs — the
/// Bootstrap-documented decoder itself never sees the framing. A plain
/// UDB1 stream is one segment.
///
/// Segments are independent, so they run concurrently on up to `threads`
/// workers, largest first (the tail is then a small one). Each gets its
/// own step budget, startup allowance plus raw_len x DbDecodeStepsPerByte
/// (capped at kNestedStepCap), and its output must match the raw length
/// and CRC of its UDB1 header. Outputs and step counts land in
/// per-segment slots and are joined in index order, every segment runs
/// even after another one failed, and the lowest-index failure is
/// returned, so the output, `*steps` and any error are the same at every
/// thread count.
Result<Bytes> RunDbDecode(const verisc::Program& interpreter,
                          const dynarisc::Program& dbdecode, BytesView stream,
                          int threads, verisc::VmFunction vm,
                          uint64_t* steps) {
  std::vector<dbcoder::SegmentSpan> spans;
  if (dbcoder::IsSegmented(stream)) {
    // ListSegments already rejects a table whose raw total disagrees with
    // the raw lengths the segments' UDB1 headers record.
    ULE_ASSIGN_OR_RETURN(spans, dbcoder::ListSegments(stream));
  } else {
    spans.push_back({0, 0, 0, stream.size()});
  }
  const size_t n = spans.size();
  auto name = [n](size_t i) {
    return "DBDecode segment " + std::to_string(i) + " of " +
           std::to_string(n);
  };
  auto segment_bytes = [&](size_t i) {
    return stream.subspan(static_cast<size_t>(spans[i].stream_offset),
                          static_cast<size_t>(spans[i].stream_len));
  };

  // Every header is checked before anything runs.
  std::vector<dbcoder::ContainerHeader> headers(n);
  for (size_t i = 0; i < n; ++i) {
    Result<dbcoder::ContainerHeader> header =
        dbcoder::ParseContainerHeader(segment_bytes(i));
    if (!header.ok()) {
      return Status::Corruption(name(i) + ": " + header.status().message());
    }
    headers[i] = header.value();
  }

  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return headers[a].raw_len > headers[b].raw_len;
  });
  std::vector<Result<Bytes>> outputs(n, Bytes());
  std::vector<uint64_t> segment_steps(n, 0);
  auto budget = [&](size_t i) {
    return std::min(kDbDecodeStartupSteps +
                        uint64_t{headers[i].raw_len} *
                            DbDecodeStepsPerByte(headers[i].scheme),
                    kNestedStepCap);
  };
  ULE_RETURN_IF_ERROR(ParallelFor(
      0, n,
      [&](size_t k) {
        const size_t i = order[k];
        outputs[i] = RunViaBootstrap(interpreter, dbdecode, segment_bytes(i),
                                     vm, budget(i), &segment_steps[i]);
        return Status::OK();
      },
      threads));

  for (uint64_t s : segment_steps) *steps += s;
  Bytes out;
  for (size_t i = 0; i < n; ++i) {
    const Status& status = outputs[i].status();
    if (status.code() == StatusCode::kResourceExhausted) {
      return Status::ResourceExhausted(
          name(i) + " ran out of its step budget (" +
          std::to_string(budget(i)) + " VeRisc steps for " +
          std::to_string(headers[i].raw_len) + " raw bytes)");
    }
    if (!status.ok()) {
      return Status(status.code(), name(i) + ": " + status.message());
    }
    const Bytes& piece = outputs[i].value();
    if (piece.size() != headers[i].raw_len ||
        Crc32(piece) != headers[i].raw_crc) {
      return Status::Corruption(name(i) +
                                ": output does not match its raw length and "
                                "CRC");
    }
    out.insert(out.end(), piece.begin(), piece.end());
  }
  return out;
}

}  // namespace

Result<std::string> RestoreNativeStreaming(
    filmstore::FrameSource& data_frames,
    filmstore::FrameSource* system_frames,
    const mocoder::Options& emblem_options, RestoreStats* stats) {
  ULE_RETURN_IF_ERROR(mocoder::ValidateOptions(emblem_options));
  RestoreStats local;

  // The streams are decoded back to back (reel order), each with the full
  // thread budget.
  if (system_frames != nullptr) {
    // The system stream must match the in-tree decoder the emulated path
    // runs. An empty source is skipped (no system reel to verify).
    ULE_RETURN_IF_ERROR(
        DecodeSourceStream(*system_frames, mocoder::StreamId::kSystem,
                           emblem_options, nullptr, /*count_unsampled=*/false,
                           /*skip_if_empty=*/true, &local.system_stream)
            .status());
  }
  ULE_ASSIGN_OR_RETURN(
      Bytes container,
      DecodeSourceStream(data_frames, mocoder::StreamId::kData,
                         emblem_options, nullptr, /*count_unsampled=*/false,
                         /*skip_if_empty=*/false, &local.data_stream));
  ULE_ASSIGN_OR_RETURN(Bytes dump, dbcoder::Decode(container));
  if (stats) *stats = local;
  return ToString(dump);
}

Result<std::string> RestoreEmulatedStreaming(
    filmstore::FrameSource& data_frames,
    filmstore::FrameSource& system_frames,
    const std::string& bootstrap_text, const mocoder::Options& emblem_options,
    RestoreStats* stats, verisc::VmFunction vm) {
  ULE_RETURN_IF_ERROR(mocoder::ValidateOptions(emblem_options));
  // Counters land in `*stats` as the stages finish, so a failed restore
  // still reports the steps it spent.
  RestoreStats scratch;
  RestoreStats& local = stats != nullptr ? *stats : scratch;
  local = RestoreStats();

  // Step 1-2 (Fig. 2b): parse the Bootstrap; it yields the DynaRisc
  // emulator (a VeRisc program) and the MODecode program.
  ULE_ASSIGN_OR_RETURN(olonys::ParsedBootstrap bootstrap,
                       olonys::ParseBootstrapText(bootstrap_text));

  // Steps 4-5, reel order: the system stream first (it yields the
  // archived DBDecode program), then the data stream. The two reels are
  // pulled back to back — a spool reader hands us one frame at a time —
  // so each decode gets the full thread budget; per-scan nested decodes
  // fan out across pool workers, each reusing its thread-local VeRisc
  // machine. Every scan counts into emblems_total (unlike the native
  // path): the historian's stats are about the reel, not about what
  // sampled cleanly. Step counters are per stream (DecodeStats::steps)
  // and summed afterwards, keeping the aggregate deterministic.
  const mocoder::GridDecodeFn nested_decode = MakeNestedGridDecode(
      bootstrap.dynarisc_emulator, bootstrap.mocoder,
      emblem_options.data_side, vm);
  ULE_ASSIGN_OR_RETURN(
      Bytes dbdecode_stream,
      DecodeSourceStream(system_frames, mocoder::StreamId::kSystem,
                         emblem_options, nested_decode,
                         /*count_unsampled=*/true, /*skip_if_empty=*/false,
                         &local.system_stream));
  ULE_ASSIGN_OR_RETURN(
      Bytes container,
      DecodeSourceStream(data_frames, mocoder::StreamId::kData,
                         emblem_options, nested_decode,
                         /*count_unsampled=*/true, /*skip_if_empty=*/false,
                         &local.data_stream));
  local.emulated_steps =
      local.system_stream.steps + local.data_stream.steps;

  // Step 5 (tail): the recovered DBDecode decompresses the data stream.
  ULE_ASSIGN_OR_RETURN(dynarisc::Program dbdecode,
                       dynarisc::Program::Deserialize(dbdecode_stream));
  ULE_ASSIGN_OR_RETURN(
      Bytes dump,
      RunDbDecode(bootstrap.dynarisc_emulator, dbdecode, container,
                  emblem_options.threads, vm, &local.emulated_steps));
  return ToString(dump);
}

}  // namespace core
}  // namespace ule
