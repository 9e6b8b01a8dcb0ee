#include "mocoder/mocoder.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <string>

#include "support/crc32.h"
#include "support/parallel.h"

namespace ule {
namespace mocoder {

Status ValidateOptions(const Options& options) {
  if (options.data_side <= 0) {
    return Status::InvalidArgument("emblem data_side must be positive");
  }
  if (options.dots_per_cell <= 0) {
    return Status::InvalidArgument("emblem dots_per_cell must be positive");
  }
  if (options.quiet_cells < 0) {
    return Status::InvalidArgument("emblem quiet_cells must be >= 0");
  }
  if (options.threads < 0) {
    return Status::InvalidArgument("emblem threads must be >= 0");
  }
  return Status::OK();
}

Status EncodeToSink(BytesView stream, StreamId id, const Options& options,
                    bool render, const EmblemSink& sink) {
  ULE_RETURN_IF_ERROR(ValidateOptions(options));
  const int capacity = EmblemCapacity(options.data_side);
  if (capacity <= 0) {
    return Status::InvalidArgument("data_side too small for one RS block");
  }
  if (stream.size() > 0xFFFFFFFFull) {
    return Status::InvalidArgument("stream too large for emblem header");
  }
  // The header's seq and total are 16-bit (docs/FORMAT.md §3): a stream
  // whose last group's highest slot does not fit would wrap silently.
  // total <= highest slot + 1 = 20 × groups, which cannot be 65536, so the
  // one check covers both fields. No int overflow: the stream is < 4 GiB
  // and capacity >= 203.
  const int groups =
      (DataEmblemCount(stream.size(), capacity) + kGroupData - 1) / kGroupData;
  if (groups * kGroupSize - 1 > 0xFFFF) {
    return Status::InvalidArgument(
        "stream of " + std::to_string(stream.size()) + " bytes needs " +
        std::to_string(groups * kGroupSize) +
        " emblem slots; the 16-bit header sequence number holds 65536");
  }
  const auto payloads = BuildGroupPayloads(stream, capacity);
  const int total = TotalEmblemCount(stream.size(), capacity);

  // The bounded channel between the construction stage and the sink: ring
  // slots reused modulo the window. ParallelForOrdered guarantees that
  // produce(seq) does not start before consume(seq - window) returned, so
  // at most `window` grids/frames are alive at once — O(threads × emblem)
  // instead of O(archive).
  int workers = ResolveThreadCount(options.threads);
  workers = std::min<int>(workers, ThreadPool::kMaxThreads);
  const int window = std::max(2, 2 * workers);
  struct Slot {
    std::optional<EncodedEmblem> emblem;  // nullopt: virtual zero emblem
    media::Image frame;
  };
  std::vector<Slot> ring(static_cast<size_t>(window));

  return ParallelForOrdered(
      0, payloads.size(),
      [&](size_t seq) -> Status {
        Slot& slot = ring[seq % static_cast<size_t>(window)];
        if (!payloads[seq]) return Status::OK();  // virtual zero emblem
        EmblemHeader h;
        h.stream = id;
        h.seq = static_cast<uint16_t>(seq);
        h.total = static_cast<uint16_t>(total);
        h.stream_len = static_cast<uint32_t>(stream.size());
        h.payload_crc = Crc32(*payloads[seq]);
        ULE_ASSIGN_OR_RETURN(
            CellGrid grid, BuildEmblem(h, *payloads[seq], options.data_side));
        slot.emblem = EncodedEmblem{h, std::move(grid)};
        if (render) slot.frame = Render(*slot.emblem, options);
        return Status::OK();
      },
      [&](size_t seq) -> Status {
        Slot& slot = ring[seq % static_cast<size_t>(window)];
        if (!slot.emblem) return Status::OK();
        Status s = sink(std::move(*slot.emblem), std::move(slot.frame));
        slot.emblem.reset();
        slot.frame = media::Image();
        return s;
      },
      options.threads, window);
}

media::Image Render(const EncodedEmblem& emblem, const Options& options) {
  return RenderEmblem(emblem.grid, options.dots_per_cell, options.quiet_cells);
}

// ---------------------------------------------------------------------------
// StreamDecoder
// ---------------------------------------------------------------------------

namespace {

/// The built-in GridDecodeFn: the contemporary C++ inner decode.
GridDecodeFn NativeGridDecode(int data_side) {
  return [data_side](BytesView grid) {
    GridDecodeResult out;
    EmblemHeader h;
    EmblemDecodeInfo info;
    auto payload = DecodeEmblemIntensities(grid, data_side, &h, &info);
    if (!payload.ok()) return out;  // lost emblem; the outer code recovers
    out.ok = true;
    out.header = h;
    out.payload = payload.TakeValue();
    out.rs_errors_corrected = info.rs_errors_corrected;
    return out;
  };
}

}  // namespace

struct StreamDecoder::Impl {
  StreamId id = StreamId::kData;
  Options options;
  GridDecodeFn decode;
  bool count_unsampled = false;
  Status init = Status::OK();
  int workers = 1;
  bool parallel = false;
  int helpers_spawned = 0;
  bool finished = false;

  /// Per-push outcome, written by exactly one processor. Deque: element
  /// addresses are stable under push_back, so workers hold plain pointers
  /// while the (single) pushing thread grows it.
  struct Record {
    bool sampled = false;
    GridDecodeResult r;
  };
  std::deque<Record> records;

  /// One queued scan to sample and decode.
  struct Item {
    size_t index = 0;  ///< push order, for lowest-index exception reporting
    Record* rec = nullptr;
    media::Image scan;
  };
  std::unique_ptr<BoundedChannel<Item>> channel;
  std::mutex mu;
  std::condition_variable cv;
  int active = 0;  ///< helper tasks currently draining the channel
  /// Lowest push index whose processing threw (SIZE_MAX = none) and the
  /// captured exception; Finish rethrows it, matching ParallelFor's
  /// lowest-index semantics. Guarded by mu.
  size_t first_thrown = static_cast<size_t>(-1);
  std::exception_ptr thrown;

  /// Samples (when needed) and decodes one item into its record. Runs on
  /// pool workers and, when the window is full or during Finish, on the
  /// pushing thread itself — that inline fallback is what keeps the
  /// decoder deadlock-free on a saturated shared pool. Never throws:
  /// pool tasks must not, and a throw on the pushing thread mid-Finish
  /// would let the destructor skip its drain-and-wait while helpers still
  /// run the caller's decode function.
  void Process(Item& item) {
    try {
      ProcessOrThrow(item);
    } catch (...) {
      std::unique_lock<std::mutex> lock(mu);
      if (item.index < first_thrown) {
        first_thrown = item.index;
        thrown = std::current_exception();
      }
    }
  }

  void ProcessOrThrow(Item& item) {
    auto cells = SampleEmblem(item.scan, options.data_side);
    if (!cells.ok()) return;  // rec->sampled stays false
    item.rec->sampled = true;
    GridDecodeResult r = decode(cells.value());
    // The stream-id filter is uniform across decode functions: an emblem
    // of the other stream is a valid decode but not part of this stream.
    if (r.ok && r.header.stream != id) r.ok = false;
    if (!r.ok) r.payload.clear();
    item.rec->r = std::move(r);
  }

  void HelperLoop() {
    {
      std::unique_lock<std::mutex> lock(mu);
      ++active;
    }
    while (auto item = channel->Pop()) Process(*item);
    {
      std::unique_lock<std::mutex> lock(mu);
      --active;
    }
    cv.notify_all();
  }
};

StreamDecoder::StreamDecoder(StreamId id, const Options& options,
                             GridDecodeFn decode, bool count_unsampled)
    : impl_(std::make_shared<Impl>()) {
  impl_->id = id;
  impl_->options = options;
  impl_->decode =
      decode ? std::move(decode) : NativeGridDecode(options.data_side);
  impl_->count_unsampled = count_unsampled;
  impl_->init = ValidateOptions(options);
  if (!impl_->init.ok()) return;
  impl_->workers =
      std::min(ResolveThreadCount(options.threads), ThreadPool::kMaxThreads);
  impl_->parallel = impl_->workers > 1;
  if (impl_->parallel) {
    impl_->channel = std::make_unique<BoundedChannel<Impl::Item>>(
        static_cast<size_t>(2 * impl_->workers));
  }
}

StreamDecoder::~StreamDecoder() {
  if (impl_ == nullptr || impl_->finished || !impl_->parallel) return;
  // Abandoned without Finish (e.g. an exception unwound the caller):
  // drain and wait exactly like Finish. Helpers may still be running a
  // GridDecodeFn that captures the caller's frame by reference, so
  // returning before active == 0 would leave them dereferencing a dead
  // stack frame.
  impl_->channel->Close();
  while (auto item = impl_->channel->TryPop()) impl_->Process(*item);
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->cv.wait(lock, [&] { return impl_->active == 0; });
}

Status StreamDecoder::Push(media::Image scan) {
  Impl& impl = *impl_;
  if (!impl.init.ok()) return impl.init;
  if (impl.finished) {
    return Status::InvalidArgument("StreamDecoder: Push after Finish");
  }
  Impl::Item item;
  item.scan = std::move(scan);
  item.index = impl.records.size();
  impl.records.emplace_back();
  item.rec = &impl.records.back();
  if (!impl.parallel) {
    impl.Process(item);
    return Status::OK();
  }
  // Helpers are spawned lazily, one per pushed item up to workers - 1, so
  // a decode of two scans parks at most one pool worker in Pop instead of
  // a full fleet of idle drain loops.
  if (impl.helpers_spawned < impl.workers - 1) {
    ++impl.helpers_spawned;
    SharedPool().EnsureWorkers(impl.helpers_spawned);
    SharedPool().Submit([self = impl_] { self->HelperLoop(); });
  }
  // Bounded backpressure without blocking: when the window is full, the
  // pushing thread decodes one queued item itself instead of waiting for
  // pool workers that may never come (nested fan-out).
  while (!impl.channel->TryPush(item)) {
    if (auto queued = impl.channel->TryPop()) impl.Process(*queued);
  }
  return Status::OK();
}

Result<Bytes> StreamDecoder::Finish(DecodeStats* stats) {
  Impl& impl = *impl_;
  if (!impl.init.ok()) return impl.init;
  if (impl.finished) {
    return Status::InvalidArgument("StreamDecoder: Finish called twice");
  }
  impl.finished = true;
  if (impl.parallel) {
    impl.channel->Close();
    while (auto item = impl.channel->TryPop()) impl.Process(*item);
    std::unique_lock<std::mutex> lock(impl.mu);
    impl.cv.wait(lock, [&] { return impl.active == 0; });
  }
  // All work is done and no helper is running: safe to surface a capture
  // from a decode callback (lowest push index wins, like ParallelFor).
  if (impl.thrown) std::rethrow_exception(impl.thrown);

  // Deterministic serial merge in push order: later duplicates of a
  // sequence number overwrite earlier ones and the last decoded header's
  // stream_len wins, exactly like the serial loop over a vector of scans.
  std::map<uint16_t, Bytes> payloads;
  uint32_t stream_len = 0;
  bool have_len = false;
  DecodeStats local;
  for (Impl::Record& rec : impl.records) {
    local.steps += rec.r.steps;
    if (rec.sampled || impl.count_unsampled) local.emblems_total += 1;
    if (!rec.r.ok) continue;
    local.emblems_decoded += 1;
    local.rs_errors_corrected += rec.r.rs_errors_corrected;
    stream_len = rec.r.header.stream_len;
    have_len = true;
    payloads[rec.r.header.seq] = std::move(rec.r.payload);
  }
  if (!have_len) {
    return Status::Corruption("no emblem of the requested stream decoded");
  }
  const int capacity = EmblemCapacity(impl.options.data_side);
  const int data_count = DataEmblemCount(stream_len, capacity);
  int present_data = 0;
  for (const auto& [seq, payload] : payloads) {
    if (!IsParitySlot(seq) && DataIndexOf(seq) < data_count) ++present_data;
  }
  ULE_ASSIGN_OR_RETURN(Bytes stream,
                       ReassembleStream(payloads, stream_len, capacity));
  local.emblems_recovered = data_count - present_data;
  if (stats) *stats = local;
  return stream;
}

}  // namespace mocoder
}  // namespace ule
