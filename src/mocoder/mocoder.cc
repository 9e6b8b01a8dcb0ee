#include "mocoder/mocoder.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

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

  // Emblems are built on ParallelFor workers and parked in a ring of
  // 2 × workers slots; seq may start only once seq - window has passed the
  // sink, so at most `window` grids/frames are alive at once —
  // O(threads × emblem) instead of O(archive). The thread that parks slot
  // `next` while nobody drains becomes the drainer and feeds every
  // consecutive parked slot to the sink. The gate cannot deadlock: the
  // seqs below a waiting one were claimed earlier (ParallelFor's claim
  // order), so they all run, and the lowest of them never waits.
  const size_t window = 2 * static_cast<size_t>(
                                ResolveThreadCount(options.threads));
  struct Slot {
    bool parked = false;
    std::optional<EncodedEmblem> emblem;  // nullopt: virtual zero emblem
    media::Image frame;
  };
  struct Ring {
    std::vector<Slot> slots;
    std::mutex mu;
    std::condition_variable gate;  // `next` advanced or a seq failed
    size_t next = 0;               // lowest seq not yet through the sink
    size_t failed = 0;             // lowest failing seq; none: the seq count
    bool draining = false;
  } ring;
  ring.slots.resize(window);
  ring.failed = payloads.size();

  // On every exit but success, a throwing build or sink included: records
  // the failing seq so that higher ones return at once, and ends this
  // thread's drain.
  struct Guard {
    Ring& ring;
    size_t at;
    bool draining = false;
    bool ok = false;
    ~Guard() {
      if (ok) return;
      {
        std::unique_lock<std::mutex> lock(ring.mu);
        ring.failed = std::min(ring.failed, at);
        if (draining) ring.draining = false;
      }
      ring.gate.notify_all();
    }
  };

  return ParallelFor(
      0, payloads.size(),
      [&](size_t seq) -> Status {
        {
          std::unique_lock<std::mutex> lock(ring.mu);
          ring.gate.wait(lock, [&] {
            return seq < ring.next + window || ring.failed < seq;
          });
          if (ring.failed < seq) return Status::OK();
        }
        Guard guard{ring, seq};
        Slot built;
        if (payloads[seq]) {
          EmblemHeader h;
          h.stream = id;
          h.seq = static_cast<uint16_t>(seq);
          h.total = static_cast<uint16_t>(total);
          h.stream_len = static_cast<uint32_t>(stream.size());
          h.payload_crc = Crc32(*payloads[seq]);
          ULE_ASSIGN_OR_RETURN(
              CellGrid grid, BuildEmblem(h, *payloads[seq], options.data_side));
          built.emblem = EncodedEmblem{h, std::move(grid)};
          if (render) built.frame = Render(*built.emblem, options);
        }
        built.parked = true;

        std::unique_lock<std::mutex> lock(ring.mu);
        ring.slots[seq % window] = std::move(built);
        if (seq != ring.next || ring.draining) {
          guard.ok = true;
          return Status::OK();
        }
        ring.draining = guard.draining = true;
        // Only the drainer touches slot `next`, and no seq reuses it before
        // `next` advances, so the sink runs unlocked.
        while (ring.slots[ring.next % window].parked) {
          Slot& slot = ring.slots[ring.next % window];
          guard.at = ring.next;
          lock.unlock();
          if (slot.emblem) {
            ULE_RETURN_IF_ERROR(
                sink(std::move(*slot.emblem), std::move(slot.frame)));
          }
          slot = Slot();
          lock.lock();
          ++ring.next;
          ring.gate.notify_all();
        }
        ring.draining = false;
        guard.ok = true;
        return Status::OK();
      },
      options.threads);
}

media::Image Render(const EncodedEmblem& emblem, const Options& options) {
  return RenderEmblem(emblem.grid, options.dots_per_cell, options.quiet_cells);
}

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

/// Outcome of one pulled scan, written by exactly one decoding thread.
struct Record {
  bool sampled = false;
  GridDecodeResult r;
  std::exception_ptr thrown;  ///< captured from sampling or `decode`
};

/// One pulled scan waiting in the channel.
struct Item {
  Record* rec = nullptr;
  media::Image scan;
};

}  // namespace

Result<Bytes> DecodeStream(const FramePull& next, StreamId id,
                           const Options& options, GridDecodeFn decode,
                           bool count_unsampled, DecodeStats* stats) {
  ULE_RETURN_IF_ERROR(ValidateOptions(options));
  if (!decode) decode = NativeGridDecode(options.data_side);
  const int workers = ResolveThreadCount(options.threads);

  // Deque: element addresses are stable under push_back, so decoders
  // write through plain pointers while the reader grows it.
  std::deque<Record> records;
  BoundedChannel<Item> channel(static_cast<size_t>(2 * workers));

  // Samples and decodes one scan into its record. Never throws: the record
  // keeps the exception for after the join, so every decoder keeps going.
  auto process = [&](Item& item) {
    try {
      auto cells = SampleEmblem(item.scan, options.data_side);
      if (!cells.ok()) return;  // rec->sampled stays false
      item.rec->sampled = true;
      GridDecodeResult r = decode(cells.value());
      // Uniform across decode functions: an emblem of the other stream
      // is a valid decode but not part of this stream.
      if (r.ok && r.header.stream != id) r.ok = false;
      if (!r.ok) r.payload.clear();
      item.rec->r = std::move(r);
    } catch (...) {
      item.rec->thrown = std::current_exception();
    }
  };
  auto read = [&]() -> Status {
    // Closed on every exit path, a throwing pull included, or decoders
    // blocked in Pop would wait forever.
    struct Closer {
      BoundedChannel<Item>& channel;
      ~Closer() { channel.Close(); }
    } closer{channel};
    for (;;) {
      ULE_ASSIGN_OR_RETURN(std::optional<media::Image> scan, next());
      if (!scan.has_value()) return Status::OK();
      Item item{&records.emplace_back(), std::move(*scan)};
      // Backpressure without blocking: when the channel is full the
      // reader decodes a queued scan itself instead of waiting for pool
      // workers that may never come (nested fan-out), so a saturated
      // pool degrades to the serial loop.
      while (!channel.TryPush(item)) {
        if (auto queued = channel.TryPop()) process(*queued);
      }
    }
  };

  // The caller reads at its first index, then drains like every index.
  // It always gets one: the at most workers - 1 pool helpers each block on
  // their first until the reader closes the channel. (On a 4-core host a
  // pool-thread reader decoded 25 MB microfilm scans ~13% slower.)
  const std::thread::id caller = std::this_thread::get_id();
  bool caller_read = false;  // touched by the calling thread only
  ULE_RETURN_IF_ERROR(ParallelFor(
      0, static_cast<size_t>(workers),
      [&](size_t) -> Status {
        if (std::this_thread::get_id() == caller &&
            !std::exchange(caller_read, true)) {
          ULE_RETURN_IF_ERROR(read());
        }
        while (auto item = channel.Pop()) process(*item);
        return Status::OK();
      },
      workers));

  // Deterministic serial merge in pull order: later duplicates of a
  // sequence number overwrite earlier ones and the last decoded header's
  // stream_len wins, exactly like the serial loop over a vector of scans.
  // A captured exception is rethrown lowest pull index first, like
  // ParallelFor.
  std::map<uint16_t, Bytes> payloads;
  uint32_t stream_len = 0;
  bool have_len = false;
  DecodeStats local;
  for (Record& rec : records) {
    if (rec.thrown) std::rethrow_exception(rec.thrown);
    local.steps += rec.r.steps;
    if (rec.sampled || count_unsampled) local.emblems_total += 1;
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
  const int capacity = EmblemCapacity(options.data_side);
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
