#include "mocoder/emblem.h"

#include <algorithm>

#include "rs/reed_solomon.h"
#include "support/crc32.h"

namespace ule {
namespace mocoder {
namespace {

constexpr uint8_t kMagic0 = 'E';
constexpr uint8_t kMagic1 = 'B';

/// Payload bits available in a data area of side N: rows 1..N-1, two cells
/// per bit.
int PayloadBits(int data_side) {
  return (data_side - 1) * data_side / 2;
}

/// The sync/type row pattern: alternating 2-cell blocks, black-first for
/// data-stream emblems and inverted for system emblems.
bool SyncCellBlack(int x, StreamId stream) {
  const bool base = ((x / 2) % 2) == 0;
  return stream == StreamId::kData ? base : !base;
}

/// Serpentine coordinates of the k-th data cell (rows 1..N-1).
/// Row r (1-based within the data area) runs left-to-right when odd,
/// right-to-left when even.
inline void SerpentineCell(int k, int n, int* x, int* y) {
  const int row = k / n;
  const int col = k % n;
  *y = 1 + row;
  *x = (row % 2 == 0) ? col : (n - 1 - col);
}

}  // namespace

int EmblemBlocks(int data_side) {
  const int bytes = PayloadBits(data_side) / 8;
  return bytes / 255;
}

int EmblemCapacity(int data_side) {
  const int blocks = EmblemBlocks(data_side);
  const int capacity = blocks * 223 - kHeaderSize;
  return capacity > 0 ? capacity : 0;
}

Bytes SerializeHeader(const EmblemHeader& header) {
  ByteWriter w;
  w.PutU8(kMagic0);
  w.PutU8(kMagic1);
  w.PutU8(kEmblemVersion);
  w.PutU8(static_cast<uint8_t>(header.stream));
  w.PutU16(header.seq);
  w.PutU16(header.total);
  w.PutU32(header.stream_len);
  w.PutU32(header.payload_crc);
  w.PutU32(0);  // reserved
  return w.TakeBytes();
}

Result<EmblemHeader> ParseHeader(BytesView bytes) {
  if (bytes.size() < kHeaderSize) {
    return Status::Corruption("emblem header too short");
  }
  ByteReader r(bytes);
  uint8_t m0, m1, version, stream;
  EmblemHeader h;
  uint32_t reserved;
  ULE_RETURN_IF_ERROR(r.GetU8(&m0));
  ULE_RETURN_IF_ERROR(r.GetU8(&m1));
  ULE_RETURN_IF_ERROR(r.GetU8(&version));
  ULE_RETURN_IF_ERROR(r.GetU8(&stream));
  ULE_RETURN_IF_ERROR(r.GetU16(&h.seq));
  ULE_RETURN_IF_ERROR(r.GetU16(&h.total));
  ULE_RETURN_IF_ERROR(r.GetU32(&h.stream_len));
  ULE_RETURN_IF_ERROR(r.GetU32(&h.payload_crc));
  ULE_RETURN_IF_ERROR(r.GetU32(&reserved));
  if (m0 != kMagic0 || m1 != kMagic1) {
    return Status::Corruption("emblem header: bad magic");
  }
  if (version != kEmblemVersion) {
    return Status::Corruption("emblem header: unsupported version");
  }
  if (stream > 1) return Status::Corruption("emblem header: bad stream id");
  h.stream = static_cast<StreamId>(stream);
  return h;
}

Result<CellGrid> BuildEmblem(const EmblemHeader& header, BytesView payload,
                             int data_side) {
  const int capacity = EmblemCapacity(data_side);
  if (capacity <= 0) {
    return Status::InvalidArgument("emblem data side " +
                                   std::to_string(data_side) +
                                   " too small for one RS block");
  }
  if (static_cast<int>(payload.size()) != capacity) {
    return Status::InvalidArgument(
        "emblem payload must be exactly " + std::to_string(capacity) +
        " bytes, got " + std::to_string(payload.size()));
  }

  // Container: header + payload, zero-padded to blocks*223.
  const int blocks = EmblemBlocks(data_side);
  Bytes container = SerializeHeader(header);
  container.insert(container.end(), payload.begin(), payload.end());
  container.resize(static_cast<size_t>(blocks) * 223, 0);

  // Inner RS encoding per block, then byte interleaving across blocks.
  static const rs::Codec codec(255, 223);
  std::vector<Bytes> codewords;
  codewords.reserve(static_cast<size_t>(blocks));
  for (int b = 0; b < blocks; ++b) {
    BytesView chunk(container.data() + static_cast<size_t>(b) * 223, 223);
    ULE_ASSIGN_OR_RETURN(Bytes cw, codec.Encode(chunk));
    codewords.push_back(std::move(cw));
  }
  Bytes coded;
  coded.reserve(static_cast<size_t>(blocks) * 255);
  for (int j = 0; j < 255; ++j) {
    for (int b = 0; b < blocks; ++b) {
      coded.push_back(codewords[static_cast<size_t>(b)][static_cast<size_t>(j)]);
    }
  }

  // Build the grid.
  const int n = data_side;
  CellGrid grid;
  grid.side = n + 2 * kFrameCells;
  grid.cells.assign(static_cast<size_t>(grid.side) * grid.side, 0);

  // Border ring (3 cells thick).
  for (int y = 0; y < grid.side; ++y) {
    for (int x = 0; x < grid.side; ++x) {
      const int d = std::min(std::min(x, y), std::min(grid.side - 1 - x,
                                                      grid.side - 1 - y));
      if (d < kBorderCells) grid.set(x, y, 1);
    }
  }

  const int o = kFrameCells;  // data-area origin
  // Sync/type row.
  for (int x = 0; x < n; ++x) {
    grid.set(o + x, o, SyncCellBlack(x, header.stream) ? 1 : 0);
  }

  // Differential Manchester modulation over the serpentine.
  // Level semantics: 1 = black. The level always flips at a bit boundary
  // (clock transition); a mid-bit flip encodes bit 1, no flip encodes 0.
  BitReader bits(coded);
  uint8_t level = 0;
  const int total_bits = PayloadBits(n);
  for (int k = 0; k < total_bits; ++k) {
    int bit = bits.GetBit();
    if (bit < 0) bit = 0;  // padding beyond the coded stream
    int x, y;
    level = static_cast<uint8_t>(!level);  // clock transition
    SerpentineCell(2 * k, n, &x, &y);
    grid.set(o + x, o + y, level);
    if (bit) level = static_cast<uint8_t>(!level);  // mid-bit transition = 1
    SerpentineCell(2 * k + 1, n, &x, &y);
    grid.set(o + x, o + y, level);
  }
  return grid;
}

Result<Bytes> DecodeEmblemIntensities(BytesView intensities, int data_side,
                                      EmblemHeader* header,
                                      EmblemDecodeInfo* info) {
  const int n = data_side;
  if (static_cast<int>(intensities.size()) != n * n) {
    return Status::InvalidArgument("expected " + std::to_string(n * n) +
                                   " intensities");
  }
  const int blocks = EmblemBlocks(n);
  if (blocks <= 0) return Status::InvalidArgument("data side too small");

  // 1. Threshold from the sync row: the two 2-cell phases of the pattern
  // are pure black and pure white; their means give the cut. The phase
  // ordering also reveals the stream type.
  uint64_t sum_a = 0, sum_b = 0;
  int count_a = 0, count_b = 0;
  for (int x = 0; x < n; ++x) {
    const uint8_t v = intensities[static_cast<size_t>(x)];
    if (((x / 2) % 2) == 0) {
      sum_a += v;
      ++count_a;
    } else {
      sum_b += v;
      ++count_b;
    }
  }
  const uint32_t mean_a = static_cast<uint32_t>(sum_a / std::max(count_a, 1));
  const uint32_t mean_b = static_cast<uint32_t>(sum_b / std::max(count_b, 1));
  if (mean_a == mean_b) {
    return Status::Corruption("emblem sync row has no contrast");
  }
  const uint32_t threshold = (mean_a + mean_b) / 2;
  const StreamId sync_stream =
      mean_a < mean_b ? StreamId::kData : StreamId::kSystem;

  // 2. Demodulate (differential Manchester): bit = (second half != first),
  // MSB first. The serpentine is walked one cell at a time: row 1 left to
  // right, and each later row from the end where the previous one stopped.
  const int coded_bytes = blocks * 255;
  Bytes coded(static_cast<size_t>(coded_bytes), 0);
  size_t cell = static_cast<size_t>(n);  // (x 0, y 1)
  int left_in_row = n;
  bool rightward = true;
  auto next_dark = [&]() {
    const bool dark = intensities[cell] < threshold;
    if (--left_in_row == 0) {
      cell += static_cast<size_t>(n);
      left_in_row = n;
      rightward = !rightward;
    } else if (rightward) {
      ++cell;
    } else {
      --cell;
    }
    return dark;
  };
  const int bits = std::min(PayloadBits(n), coded_bytes * 8);
  for (int k = 0; k < bits; ++k) {
    const bool first = next_dark();
    const bool second = next_dark();
    coded[static_cast<size_t>(k) >> 3] |=
        static_cast<uint8_t>((first != second) << (7 - (k & 7)));
  }

  // 3. De-interleave and RS-decode each block.
  static const rs::Codec codec(255, 223);
  Bytes container;
  container.reserve(static_cast<size_t>(blocks) * 223);
  int total_corrected = 0;
  std::vector<Bytes> block_data(static_cast<size_t>(blocks));
  for (int b = 0; b < blocks; ++b) {
    Bytes cw(255);
    for (int j = 0; j < 255; ++j) {
      cw[static_cast<size_t>(j)] =
          coded[static_cast<size_t>(j) * blocks + static_cast<size_t>(b)];
    }
    rs::DecodeInfo dinfo;
    auto decoded = codec.Decode(cw, {}, &dinfo);
    if (!decoded.ok()) {
      return Status::Corruption("emblem block " + std::to_string(b) +
                                " unrecoverable: " +
                                decoded.status().message());
    }
    total_corrected += dinfo.errors_corrected;
    block_data[static_cast<size_t>(b)] = decoded.TakeValue();
  }
  for (const Bytes& b : block_data) {
    container.insert(container.end(), b.begin(), b.end());
  }

  // 4. Header + payload CRC validation.
  ULE_ASSIGN_OR_RETURN(EmblemHeader h, ParseHeader(container));
  if (h.stream != sync_stream) {
    return Status::Corruption("emblem sync row contradicts header stream id");
  }
  const int capacity = blocks * 223 - kHeaderSize;
  Bytes payload(container.begin() + kHeaderSize,
                container.begin() + kHeaderSize + capacity);
  if (Crc32(payload) != h.payload_crc) {
    return Status::Corruption("emblem payload CRC mismatch");
  }
  if (header) *header = h;
  if (info) {
    info->rs_errors_corrected = total_corrected;
    info->blocks = blocks;
  }
  return payload;
}

media::Image RenderEmblem(const CellGrid& grid, int dots_per_cell,
                          int quiet_cells) {
  const int side_px = (grid.side + 2 * quiet_cells) * dots_per_cell;
  media::Image img(side_px, side_px, 255);
  for (int y = 0; y < grid.side; ++y) {
    for (int x = 0; x < grid.side; ++x) {
      if (grid.at(x, y)) {
        img.FillRect((x + quiet_cells) * dots_per_cell,
                     (y + quiet_cells) * dots_per_cell, dots_per_cell,
                     dots_per_cell, 0);
      }
    }
  }
  return img;
}

}  // namespace mocoder
}  // namespace ule
