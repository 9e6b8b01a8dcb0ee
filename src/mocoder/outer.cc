#include "mocoder/outer.h"

#include <algorithm>

#include "rs/gf256.h"
#include "rs/reed_solomon.h"

namespace ule {
namespace mocoder {

int DataEmblemCount(size_t stream_len, int capacity) {
  if (stream_len == 0) return 1;  // an empty stream still gets one emblem
  return static_cast<int>((stream_len + static_cast<size_t>(capacity) - 1) /
                          static_cast<size_t>(capacity));
}

int TotalEmblemCount(size_t stream_len, int capacity) {
  const int d = DataEmblemCount(stream_len, capacity);
  const int groups = (d + kGroupData - 1) / kGroupData;
  const int last_group_data = d - (groups - 1) * kGroupData;
  return (groups - 1) * kGroupSize + last_group_data + kGroupParity;
}

int FrameIndexOfSeq(uint16_t seq, size_t stream_len, int capacity) {
  const int d = DataEmblemCount(stream_len, capacity);
  const int groups = (d + kGroupData - 1) / kGroupData;
  const int g = seq / kGroupSize;
  const int s = seq % kGroupSize;
  if (g >= groups) return -1;
  // Full groups emit all 20 slots, so the frame index is the sequence
  // number itself; only the final group omits its virtual data slots.
  if (g + 1 < groups) return seq;
  const int last_group_data = d - g * kGroupData;  // real data slots
  if (s < kGroupData) {
    return s < last_group_data ? g * kGroupSize + s : -1;  // -1: virtual
  }
  return g * kGroupSize + last_group_data + (s - kGroupData);
}

namespace {

const rs::Codec& OuterCode() {
  static const rs::Codec codec(kGroupSize, kGroupData);
  return codec;
}

// The parity rows of a group whose first kGroupData `rows` are its data:
// one RS(20,17) codeword per byte column, computed as whole rows. Parity
// row p is `XOR_s w[p][s] * row_s` with the weights that rebuild the
// parity positions from the data positions, which the SIMD MulSliceAccum
// kernel walks 16/32 bytes at a time.
std::vector<Bytes> EncodeParityRows(const std::vector<Bytes>& rows) {
  static const std::vector<Bytes> weights =
      OuterCode()
          .ErasureWeights({kGroupData, kGroupData + 1, kGroupData + 2})
          .TakeValue();  // the parity positions: cannot fail
  const size_t capacity = rows[0].size();
  std::vector<Bytes> parity(kGroupParity, Bytes(capacity, 0));
  for (int s = 0; s < kGroupData; ++s) {
    for (int p = 0; p < kGroupParity; ++p) {
      rs::Gf256::MulSliceAccum(parity[static_cast<size_t>(p)].data(),
                               rows[static_cast<size_t>(s)].data(),
                               weights[static_cast<size_t>(p)]
                                      [static_cast<size_t>(s)],
                               capacity);
    }
  }
  return parity;
}

}  // namespace

std::vector<std::optional<Bytes>> BuildGroupPayloads(BytesView stream,
                                                     int capacity) {
  const int d = DataEmblemCount(stream.size(), capacity);
  const int groups = (d + kGroupData - 1) / kGroupData;

  std::vector<std::optional<Bytes>> out(
      static_cast<size_t>(groups) * kGroupSize);
  for (int g = 0; g < groups; ++g) {
    // Collect the 17 (possibly virtual/zero, possibly tail-padded) data
    // payloads of this group.
    std::vector<Bytes> data(kGroupData,
                            Bytes(static_cast<size_t>(capacity), 0));
    for (int s = 0; s < kGroupData; ++s) {
      const int idx = g * kGroupData + s;
      if (idx >= d) continue;  // virtual zero emblem (not emitted)
      const size_t begin = static_cast<size_t>(idx) * capacity;
      const size_t end =
          std::min(stream.size(), begin + static_cast<size_t>(capacity));
      if (begin < end) {
        std::copy(stream.begin() + begin, stream.begin() + end,
                  data[static_cast<size_t>(s)].begin());
      }
      out[static_cast<size_t>(g) * kGroupSize + s] =
          data[static_cast<size_t>(s)];
    }
    std::vector<Bytes> parity = EncodeParityRows(data);
    for (int p = 0; p < kGroupParity; ++p) {
      out[static_cast<size_t>(g) * kGroupSize + kGroupData + p] =
          std::move(parity[static_cast<size_t>(p)]);
    }
  }
  return out;
}

Result<std::vector<Bytes>> RecoverGroupData(
    int group, const std::map<uint16_t, Bytes>& payloads, size_t stream_len,
    int capacity) {
  const int d = DataEmblemCount(stream_len, capacity);
  const size_t cap = static_cast<size_t>(capacity);

  // The group's rows as received: missing and virtual slots read as zero.
  std::vector<Bytes> rows(kGroupSize, Bytes(cap, 0));
  std::vector<bool> present(kGroupSize, false);
  std::vector<int> missing_real;
  for (int s = 0; s < kGroupSize; ++s) {
    const uint16_t seq = static_cast<uint16_t>(group * kGroupSize + s);
    const bool is_virtual =
        s < kGroupData && (group * kGroupData + s) >= d;
    auto it = payloads.find(seq);
    if (it != payloads.end()) {
      if (it->second.size() != cap) {
        return Status::InvalidArgument("emblem payload has wrong size");
      }
      rows[static_cast<size_t>(s)] = it->second;
      present[static_cast<size_t>(s)] = true;
    } else if (!is_virtual) {
      missing_real.push_back(s);
    }
  }
  if (static_cast<int>(missing_real.size()) > kGroupParity) {
    return Status::Corruption(
        "group " + std::to_string(group) + " lost " +
        std::to_string(missing_real.size()) +
        " emblems; only 3 of 20 are recoverable");
  }

  if (!missing_real.empty()) {
    // Bulk erasure repair, whole rows at a time: the weights for these
    // missing positions rebuild every byte column's codeword at once.
    ULE_ASSIGN_OR_RETURN(std::vector<Bytes> weights,
                         OuterCode().ErasureWeights(missing_real));
    for (size_t m = 0; m < missing_real.size(); ++m) {
      Bytes& lost = rows[static_cast<size_t>(missing_real[m])];
      for (int s = 0; s < kGroupSize; ++s) {
        if (!present[static_cast<size_t>(s)]) continue;
        rs::Gf256::MulSliceAccum(lost.data(),
                                 rows[static_cast<size_t>(s)].data(),
                                 weights[m][static_cast<size_t>(s)], cap);
      }
    }

    // With fewer than 3 erasures the repaired column is a codeword only
    // if its parity also equals the encoding of its data. A column where
    // it does not holds a byte *error* on top of the erasures — exactly
    // what the full decoder can still fix (or reject) — so those fall
    // back to the per-column path, ascending, which keeps results and
    // first-failure statuses identical to an all-columns Decode loop.
    const std::vector<Bytes> parity = EncodeParityRows(rows);
    Bytes column(kGroupSize, 0);
    for (size_t j = 0; j < cap; ++j) {
      bool codeword = true;
      for (int p = 0; p < kGroupParity; ++p) {
        codeword &= parity[static_cast<size_t>(p)][j] ==
                    rows[static_cast<size_t>(kGroupData + p)][j];
      }
      if (codeword) continue;
      for (int s = 0; s < kGroupSize; ++s) {
        column[static_cast<size_t>(s)] =
            present[static_cast<size_t>(s)] ? rows[static_cast<size_t>(s)][j]
                                            : 0;
      }
      auto fixed = OuterCode().Decode(column, missing_real);
      if (!fixed.ok()) return fixed.status();
      for (int s : missing_real) {
        if (s < kGroupData) {
          rows[static_cast<size_t>(s)][j] =
              fixed.value()[static_cast<size_t>(s)];
        }
      }
    }
  }

  rows.resize(kGroupData);  // the data slots; virtual ones stay zero
  return rows;
}

Result<Bytes> ReassembleStream(const std::map<uint16_t, Bytes>& payloads,
                               size_t stream_len, int capacity) {
  const int d = DataEmblemCount(stream_len, capacity);
  const int groups = (d + kGroupData - 1) / kGroupData;

  Bytes stream;
  stream.reserve(stream_len);
  for (int g = 0; g < groups; ++g) {
    ULE_ASSIGN_OR_RETURN(std::vector<Bytes> data,
                         RecoverGroupData(g, payloads, stream_len, capacity));
    for (int s = 0; s < kGroupData; ++s) {
      if (g * kGroupData + s >= d) break;
      const size_t want = std::min(static_cast<size_t>(capacity),
                                   stream_len - stream.size());
      stream.insert(stream.end(), data[static_cast<size_t>(s)].begin(),
                    data[static_cast<size_t>(s)].begin() +
                        static_cast<std::ptrdiff_t>(want));
    }
  }
  return stream;
}

}  // namespace mocoder
}  // namespace ule
