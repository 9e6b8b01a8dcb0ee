#include "pipeline.h"

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "decoders/modecode.h"
#include "dynarisc/machine.h"
#include "filmstore/container.h"
#include "mocoder/detect.h"
#include "mocoder/emblem.h"
#include "mocoder/outer.h"
#include "olonys/bootstrap.h"
#include "olonys/dynarisc_in_verisc.h"
#include "support/crc32.h"
#include "support/parallel.h"

namespace perfbench {

using namespace ule;

namespace {

/// Outcome of one pushed frame (the library's StreamDecoder record).
struct Outcome {
  bool sampled = false;
  mocoder::GridDecodeResult r;
  uint64_t fused = 0;
  bool nested = false;
  bool cache_hit = false;
};

/// Decodes one sampled grid into `out.r` (native inner decode, or the
/// archived MODecode under nested emulation). Runs on pool workers.
using GridFn = std::function<void(BytesView grid, Outcome& out)>;

/// State shared with the pool helpers, which may outlive a failing call
/// until they drain (the same ownership StreamDecoder::Impl has).
struct DecodeState {
  struct Item {
    Outcome* out = nullptr;
    media::Image frame;
  };

  mocoder::StreamId id = mocoder::StreamId::kData;
  int data_side = 0;
  GridFn grid_fn;
  Tracer* tracer = nullptr;
  int op = 0;
  std::unique_ptr<BoundedChannel<Item>> channel;
  std::mutex mu;
  std::condition_variable cv;
  int active = 0;
  bool threw = false;

  void Process(Item& item) {
    try {
      Bytes cells;
      {
        Span span(*tracer, "mocoder.sample", op);
        auto sampled = mocoder::SampleEmblem(item.frame, data_side);
        if (!sampled.ok()) return;
        cells = sampled.TakeValue();
      }
      item.out->sampled = true;
      grid_fn(cells, *item.out);
      mocoder::GridDecodeResult& r = item.out->r;
      if (r.ok && r.header.stream != id) r.ok = false;
      if (!r.ok) r.payload.clear();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      threw = true;
    }
  }

  void HelperLoop() {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++active;
    }
    while (auto item = channel->Pop()) Process(*item);
    {
      std::lock_guard<std::mutex> lock(mu);
      --active;
    }
    cv.notify_all();
  }

  /// Closes the channel, decodes what is left on this thread and waits
  /// for the helpers.
  void Drain() {
    channel->Close();
    while (auto item = channel->TryPop()) Process(*item);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return active == 0; });
  }
};

/// One stream of a container, pulled and decoded like
/// core's DecodeSourceStream over a ContainerReader source: records are
/// read and unpacked on the calling thread, sampled and inner-decoded on
/// up to `threads` workers (threads - 1 pool helpers plus the caller
/// when the window of 2 x threads is full), then reassembled serially in
/// push order.
Result<Bytes> DecodeStream(const filmstore::ContainerReader& reader,
                           mocoder::StreamId id, int threads, GridFn grid_fn,
                           bool count_unsampled, bool skip_if_empty,
                           Tracer& tracer, int op, LayerCounts* counts,
                           mocoder::DecodeStats* stats) {
  const filmstore::RecordType type = id == mocoder::StreamId::kData
                                         ? filmstore::RecordType::kDataFrame
                                         : filmstore::RecordType::kSystemFrame;
  const int workers = std::min(ResolveThreadCount(threads),
                               ThreadPool::kMaxThreads);
  auto state = std::make_shared<DecodeState>();
  state->id = id;
  state->data_side = reader.emblem_options().data_side;
  state->grid_fn = std::move(grid_fn);
  state->tracer = &tracer;
  state->op = op;
  state->channel = std::make_unique<BoundedChannel<DecodeState::Item>>(
      static_cast<size_t>(2 * workers));

  std::deque<Outcome> outcomes;
  int helpers = 0;
  Status status = Status::OK();
  for (const filmstore::ContainerEntry& entry : reader.entries()) {
    if (entry.type != type) continue;
    Bytes payload;
    {
      Span span(tracer, "filmstore.read", op);
      auto read = reader.ReadPayload(entry);
      if (!read.ok()) {
        status = read.status();
        break;
      }
      payload = read.TakeValue();
    }
    counts->read_bytes += payload.size();
    DecodeState::Item item;
    {
      Span span(tracer, "media.unpack", op);
      auto frame = filmstore::DecodeFramePayload(entry.codec, payload);
      if (!frame.ok()) {
        status = frame.status();
        break;
      }
      item.frame = frame.TakeValue();
    }
    counts->unpack_pixels += static_cast<uint64_t>(item.frame.width()) *
                             static_cast<uint64_t>(item.frame.height());
    outcomes.emplace_back();
    item.out = &outcomes.back();
    if (workers <= 1) {
      state->Process(item);
      continue;
    }
    if (helpers < workers - 1) {
      ++helpers;
      SharedPool().EnsureWorkers(helpers);
      SharedPool().Submit([state] { state->HelperLoop(); });
    }
    while (!state->channel->TryPush(item)) {
      if (auto queued = state->channel->TryPop()) state->Process(*queued);
    }
  }
  state->Drain();
  ULE_RETURN_IF_ERROR(status);
  if (state->threw) return Status::ExecutionFault("a layer call threw");
  if (skip_if_empty && outcomes.empty()) return Bytes();

  Span span(tracer, "mocoder.outer", op);
  std::map<uint16_t, Bytes> payloads;
  uint32_t stream_len = 0;
  bool have_len = false;
  mocoder::DecodeStats local;
  for (Outcome& o : outcomes) {
    counts->sample_calls += 1;
    if (!o.sampled) counts->sample_failed += 1;
    if (o.sampled && !o.r.ok) counts->inner_failed += 1;
    counts->modecode_steps += o.r.steps;
    if (o.nested) {
      counts->nested_calls += 1;
      counts->nested_fused += o.fused;
      if (o.cache_hit) counts->nested_cache_hits += 1;
    }
    if (o.sampled || count_unsampled) local.emblems_total += 1;
    if (!o.r.ok) continue;
    local.emblems_decoded += 1;
    local.rs_errors_corrected += o.r.rs_errors_corrected;
    stream_len = o.r.header.stream_len;
    have_len = true;
    payloads[o.r.header.seq] = std::move(o.r.payload);
  }
  if (!have_len) {
    return Status::Corruption("no emblem of the requested stream decoded");
  }
  const int capacity = mocoder::EmblemCapacity(state->data_side);
  const int data_count = mocoder::DataEmblemCount(stream_len, capacity);
  int present_data = 0;
  for (const auto& [seq, payload] : payloads) {
    if (!mocoder::IsParitySlot(seq) && mocoder::DataIndexOf(seq) < data_count) {
      ++present_data;
    }
  }
  ULE_ASSIGN_OR_RETURN(Bytes stream,
                       mocoder::ReassembleStream(payloads, stream_len,
                                                 capacity));
  local.emblems_recovered = data_count - present_data;
  counts->rs_errors += static_cast<uint64_t>(local.rs_errors_corrected);
  counts->emblems_recovered += static_cast<uint64_t>(local.emblems_recovered);
  *stats = local;
  return stream;
}

GridFn NativeGridFn(int data_side, Tracer& tracer, int op) {
  return [data_side, &tracer, op](BytesView grid, Outcome& out) {
    Span span(tracer, "mocoder.inner", op);
    mocoder::EmblemHeader header;
    mocoder::EmblemDecodeInfo info;
    auto payload =
        mocoder::DecodeEmblemIntensities(grid, data_side, &header, &info);
    if (!payload.ok()) return;
    out.r.ok = true;
    out.r.header = header;
    out.r.payload = payload.TakeValue();
    out.r.rs_errors_corrected = info.rs_errors_corrected;
  };
}

/// The step budget core's RunViaBootstrap gives every nested run.
verisc::RunOptions NestedOptions() {
  verisc::RunOptions options;
  options.max_steps = 200'000'000'000ull;
  return options;
}

/// The archived MODecode under nested emulation, then the
/// Bootstrap-documented header parse and CRC check.
GridFn EmulatedGridFn(const dynarisc::Program& modecode, int data_side,
                      Tracer& tracer, int op) {
  const int blocks = mocoder::EmblemBlocks(data_side);
  const int capacity = mocoder::EmblemCapacity(data_side);
  return [&modecode, data_side, blocks, capacity, &tracer, op](
             BytesView grid, Outcome& out) {
    olonys::NestedRunStats nested;
    Result<Bytes> container = [&] {
      Span span(tracer, "olonys.modecode", op);
      const Bytes input = decoders::PackModecodeInput(grid, data_side);
      return olonys::RunNested(modecode, input, NestedOptions(), &verisc::Run,
                               olonys::NestedMode::kAuto, &nested);
    }();
    out.nested = true;
    out.r.steps = nested.steps;
    out.fused = nested.fused;
    out.cache_hit = nested.cache_hit;
    if (!container.ok()) return;
    const Bytes& bytes = container.value();
    if (bytes.size() != static_cast<size_t>(blocks) * 223) return;
    auto header = mocoder::ParseHeader(bytes);
    if (!header.ok()) return;
    Bytes payload(bytes.begin() + mocoder::kHeaderSize,
                  bytes.begin() + mocoder::kHeaderSize + capacity);
    if (Crc32(payload) != header.value().payload_crc) return;
    out.r.ok = true;
    out.r.header = header.value();
    out.r.payload = std::move(payload);
  };
}

Result<std::unique_ptr<filmstore::ContainerReader>> OpenTraced(
    const std::string& path, Tracer& tracer, int op) {
  Span span(tracer, "filmstore.open", op);
  return filmstore::ContainerReader::Open(path);
}

/// Times the writer calls ArchiveDumpStreaming and the caller make.
class TimedWriter final : public filmstore::ArchiveWriter {
 public:
  TimedWriter(filmstore::ArchiveWriter& inner, Tracer& tracer, int op)
      : inner_(inner), tracer_(tracer), op_(op) {}

  Status Append(mocoder::StreamId id, const mocoder::EncodedEmblem& emblem,
                media::Image&& frame) override {
    Span span(tracer_, "filmstore.append", op_);
    return inner_.Append(id, emblem, std::move(frame));
  }
  Status AppendBootstrap(const std::string& text) override {
    Span span(tracer_, "filmstore.append", op_);
    return inner_.AppendBootstrap(text);
  }
  Status SetIndexSection(Bytes section) override {
    Span span(tracer_, "filmstore.append", op_);
    return inner_.SetIndexSection(std::move(section));
  }
  Status Finish() override {
    Span span(tracer_, "filmstore.append", op_);
    return inner_.Finish();
  }
  std::vector<filmstore::ReelStats> CurrentReelStats() const override {
    return inner_.CurrentReelStats();
  }


 private:
  filmstore::ArchiveWriter& inner_;
  Tracer& tracer_;
  int op_;
};

}  // namespace

Result<std::string> TracedRestoreNative(const std::string& path, int threads,
                                        Tracer& tracer, int op,
                                        LayerCounts* counts,
                                        core::RestoreStats* stats) {
  ULE_ASSIGN_OR_RETURN(auto reader, OpenTraced(path, tracer, op));
  const int data_side = reader->emblem_options().data_side;
  ULE_RETURN_IF_ERROR(
      DecodeStream(*reader, mocoder::StreamId::kSystem, threads,
                   NativeGridFn(data_side, tracer, op),
                   /*count_unsampled=*/false, /*skip_if_empty=*/true, tracer,
                   op, counts, &stats->system_stream)
          .status());
  ULE_ASSIGN_OR_RETURN(
      Bytes container,
      DecodeStream(*reader, mocoder::StreamId::kData, threads,
                   NativeGridFn(data_side, tracer, op),
                   /*count_unsampled=*/false, /*skip_if_empty=*/false, tracer,
                   op, counts, &stats->data_stream));
  Span span(tracer, "dbcoder.decode", op);
  ULE_ASSIGN_OR_RETURN(Bytes dump, dbcoder::Decode(container));
  return ToString(dump);
}

Result<std::string> TracedRestoreEmulated(const std::string& path,
                                          int threads, Tracer& tracer, int op,
                                          LayerCounts* counts,
                                          core::RestoreStats* stats) {
  ULE_ASSIGN_OR_RETURN(auto reader, OpenTraced(path, tracer, op));
  std::string text;
  {
    Span span(tracer, "filmstore.read", op);
    ULE_ASSIGN_OR_RETURN(text, reader->ReadBootstrap());
  }
  olonys::ParsedBootstrap bootstrap;
  {
    Span span(tracer, "olonys.bootstrap_parse", op);
    ULE_ASSIGN_OR_RETURN(bootstrap, olonys::ParseBootstrapText(text));
  }
  // core routes nested runs through RunNested (translation cache, warm
  // interpreter) only when the Bootstrap's emulator is the in-tree one;
  // every archive this benchmark writes has it.
  if (bootstrap.dynarisc_emulator.words !=
      olonys::DynaRiscInterpreter().words) {
    return Status::Unimplemented(
        "the Bootstrap's DynaRisc emulator differs from the in-tree one");
  }
  const int data_side = reader->emblem_options().data_side;
  const uint64_t modecode_steps_before = counts->modecode_steps;
  ULE_ASSIGN_OR_RETURN(
      Bytes dbdecode_stream,
      DecodeStream(*reader, mocoder::StreamId::kSystem, threads,
                   EmulatedGridFn(bootstrap.mocoder, data_side, tracer, op),
                   /*count_unsampled=*/true, /*skip_if_empty=*/false, tracer,
                   op, counts, &stats->system_stream));
  ULE_ASSIGN_OR_RETURN(
      Bytes container,
      DecodeStream(*reader, mocoder::StreamId::kData, threads,
                   EmulatedGridFn(bootstrap.mocoder, data_side, tracer, op),
                   /*count_unsampled=*/true, /*skip_if_empty=*/false, tracer,
                   op, counts, &stats->data_stream));
  stats->emulated_steps = counts->modecode_steps - modecode_steps_before;
  ULE_ASSIGN_OR_RETURN(dynarisc::Program dbdecode,
                       dynarisc::Program::Deserialize(dbdecode_stream));

  // The DBDecode tail: one nested run per UDBS segment, serially, as
  // core::RunDbDecode does.
  std::vector<dbcoder::SegmentSpan> segments;
  if (dbcoder::IsSegmented(container)) {
    ULE_ASSIGN_OR_RETURN(segments, dbcoder::ListSegments(container));
  } else {
    segments.push_back({0, 0, 0, container.size()});
  }
  Bytes dump;
  for (const dbcoder::SegmentSpan& seg : segments) {
    olonys::NestedRunStats nested;
    Result<Bytes> piece = [&] {
      Span span(tracer, "olonys.dbdecode", op);
      return olonys::RunNested(
          dbdecode,
          BytesView(container).subspan(seg.stream_offset, seg.stream_len),
          NestedOptions(), &verisc::Run, olonys::NestedMode::kAuto, &nested);
    }();
    counts->dbdecode_steps += nested.steps;
    counts->dbdecode_segments += 1;
    counts->nested_calls += 1;
    counts->nested_fused += nested.fused;
    if (nested.cache_hit) counts->nested_cache_hits += 1;
    stats->emulated_steps += nested.steps;
    ULE_RETURN_IF_ERROR(piece.status());
    dump.insert(dump.end(), piece.value().begin(), piece.value().end());
  }
  return ToString(dump);
}

bool TracedScrub(const std::string& path, Tracer& tracer, int op,
                 LayerCounts* counts) {
  auto reader = OpenTraced(path, tracer, op);
  if (!reader.ok()) return false;
  for (const filmstore::ContainerEntry& entry : reader.value()->entries()) {
    Bytes payload;
    {
      Span span(tracer, "filmstore.read", op);
      auto read = reader.value()->ReadPayload(entry);
      if (!read.ok()) return false;
      payload = read.TakeValue();
    }
    counts->read_bytes += payload.size();
    if (entry.type != filmstore::RecordType::kDataFrame &&
        entry.type != filmstore::RecordType::kSystemFrame) {
      continue;
    }
    Span span(tracer, "media.unpack", op);
    auto frame = filmstore::DecodeFramePayload(entry.codec, payload);
    if (!frame.ok()) return false;
    counts->unpack_pixels += static_cast<uint64_t>(frame.value().width()) *
                             static_cast<uint64_t>(frame.value().height());
  }
  return true;
}

Result<size_t> ArchiveToContainer(const std::string& dump,
                                  const core::ArchiveOptions& options,
                                  bool bitonal, const std::string& path,
                                  Tracer* tracer, int op) {
  filmstore::ContainerWriter::Options copt;
  copt.bitonal = bitonal;
  std::unique_ptr<filmstore::ContainerWriter> container;
  {
    std::optional<Span> span;
    if (tracer != nullptr) span.emplace(*tracer, "filmstore.append", op);
    ULE_ASSIGN_OR_RETURN(container, filmstore::ContainerWriter::Create(
                                        path, options.emblem, copt));
  }
  std::optional<TimedWriter> timed;
  if (tracer != nullptr) timed.emplace(*container, *tracer, op);
  filmstore::ArchiveWriter& writer =
      timed ? static_cast<filmstore::ArchiveWriter&>(*timed) : *container;
  ULE_ASSIGN_OR_RETURN(core::ArchiveSummary summary,
                       core::ArchiveDumpStreaming(dump, options, writer));
  ULE_RETURN_IF_ERROR(writer.AppendBootstrap(summary.bootstrap_text));
  ULE_RETURN_IF_ERROR(writer.Finish());
  return summary.data_frames + summary.system_frames;
}

}  // namespace perfbench
