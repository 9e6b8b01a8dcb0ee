#include "filmstore/parity.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <utility>

#include "rs/gf256.h"
#include "rs/reed_solomon.h"
#include "support/crc32.h"
#include "support/io.h"
#include "support/parallel.h"

namespace ule {
namespace filmstore {

// ULE-P1 parity reel wire form (docs/FORMAT.md §10.1; integers
// little-endian):
//
//   header (16 bytes):
//     0   4  magic "ULEP"
//     4   1  binary version (kParityBinaryVersion)
//     5   1  parity index p (0-based position in the catalog section)
//     6   2  data reel count n
//     8   2  parity reel count m
//     10  2  reserved (0)
//     12  4  reserved (0)
//   then exactly `stripe_bytes` parity bytes: byte j is parity symbol p
//   of the RS(n+m, n) codeword over byte j of every data reel's sealed
//   file (streams shorter than the stripe are zero-padded).
//
// The file carries no checksum of its own: the catalog's ULE-P1 section
// records its size and CRC-32, exactly like a data reel's row.

namespace {

constexpr char kParityMagic[4] = {'U', 'L', 'E', 'P'};

/// Per-chunk working-set unit for the streaming encode/reconstruct
/// passes; memory stays O((outputs + 1) * chunk) however big the reels.
constexpr size_t kStripeChunkBytes = 1 << 20;

Bytes ParityHeader(size_t parity_index, size_t data_reels,
                   size_t parity_reels) {
  ByteWriter w;
  w.PutBytes(BytesView(reinterpret_cast<const uint8_t*>(kParityMagic), 4));
  w.PutU8(kParityBinaryVersion);
  w.PutU8(static_cast<uint8_t>(parity_index));
  w.PutU16(static_cast<uint16_t>(data_reels));
  w.PutU16(static_cast<uint16_t>(parity_reels));
  w.PutU16(0);  // reserved
  w.PutU32(0);  // reserved
  return w.TakeBytes();
}

/// One input stream of a striped pass: `payload_bytes` real bytes at
/// `offset` in the file, zero-padded (implicitly — zeros contribute
/// nothing to a GF(256) linear combination) to the stripe.
struct StripeInput {
  std::string path;
  uint64_t offset = 0;
  uint64_t payload_bytes = 0;
};

/// One output stream: `head` is written first (parity header; empty for
/// data reels), then the first `payload_bytes` of the computed stripe.
/// The file lands at `tmp_path` and is renamed to `path` on success, so
/// an interrupted pass never leaves a half-written reel in place.
struct StripeOutput {
  std::string path;
  Bytes head;
  uint64_t payload_bytes = 0;  ///< stripe bytes to keep (≤ stripe)
  uint64_t want_bytes = 0;     ///< expected final file size
  uint32_t want_crc = 0;       ///< expected final file CRC-32
};

/// The shared core of encode and reconstruct: streams every input once
/// and writes, for each output o, the GF(256) linear combination
/// `out_o[j] = XOR_r Mul(weights[o][r], in_r[j])` over the stripe.
/// With `verify`, each finished file is checked against its expected
/// size + CRC before being renamed into place (reconstruction knows the
/// catalog's truth; a fresh encode is the truth and skips the check).
Status StripeTransform(const std::vector<StripeInput>& inputs,
                       const std::vector<StripeOutput>& outputs,
                       const std::vector<std::vector<uint8_t>>& weights,
                       uint64_t stripe_bytes, bool verify) {
  std::vector<std::ifstream> in(inputs.size());
  for (size_t r = 0; r < inputs.size(); ++r) {
    in[r].open(inputs[r].path, std::ios::binary);
    if (!in[r]) return Status::IoError("cannot open " + inputs[r].path);
    in[r].seekg(static_cast<std::streamoff>(inputs[r].offset));
    if (!in[r]) return Status::IoError("cannot seek in " + inputs[r].path);
  }

  struct OpenOutput {
    std::ofstream file;
    std::string tmp_path;
    uint64_t remaining = 0;
    uint64_t bytes = 0;
    uint32_t crc = 0;
  };
  std::vector<OpenOutput> out(outputs.size());
  for (size_t o = 0; o < outputs.size(); ++o) {
    out[o].tmp_path = outputs[o].path + ".ule-tmp";
    out[o].file.open(out[o].tmp_path,
                     std::ios::binary | std::ios::trunc);
    if (!out[o].file) {
      return Status::IoError("cannot create " + out[o].tmp_path);
    }
    if (!outputs[o].head.empty()) {
      out[o].file.write(
          reinterpret_cast<const char*>(outputs[o].head.data()),
          static_cast<std::streamsize>(outputs[o].head.size()));
      out[o].crc = Crc32(outputs[o].head, out[o].crc);
      out[o].bytes = outputs[o].head.size();
    }
    out[o].remaining = outputs[o].payload_bytes;
  }

  std::vector<uint64_t> in_remaining(inputs.size());
  for (size_t r = 0; r < inputs.size(); ++r) {
    in_remaining[r] = std::min<uint64_t>(inputs[r].payload_bytes,
                                         stripe_bytes);
  }

  Bytes buf(kStripeChunkBytes);
  std::vector<Bytes> acc(outputs.size());
  for (uint64_t off = 0; off < stripe_bytes; off += kStripeChunkBytes) {
    const size_t len = static_cast<size_t>(
        std::min<uint64_t>(kStripeChunkBytes, stripe_bytes - off));
    for (size_t o = 0; o < outputs.size(); ++o) acc[o].assign(len, 0);
    for (size_t r = 0; r < inputs.size(); ++r) {
      const size_t want = static_cast<size_t>(
          std::min<uint64_t>(len, in_remaining[r]));
      if (want == 0) continue;  // past this stream's end: all zeros
      in[r].read(reinterpret_cast<char*>(buf.data()),
                 static_cast<std::streamsize>(want));
      if (static_cast<size_t>(in[r].gcount()) != want) {
        return Status::IoError("short read: " + inputs[r].path);
      }
      in_remaining[r] -= want;
      for (size_t o = 0; o < outputs.size(); ++o) {
        // acc_o ^= weights[o][r] * chunk — the SIMD-dispatched GF(256)
        // kernel (support/kernels.h), byte-identical to the old lookup.
        rs::Gf256::MulSliceAccum(acc[o].data(), buf.data(), weights[o][r],
                                 want);
      }
    }
    for (size_t o = 0; o < outputs.size(); ++o) {
      const size_t keep = static_cast<size_t>(
          std::min<uint64_t>(len, out[o].remaining));
      if (keep == 0) continue;
      out[o].file.write(reinterpret_cast<const char*>(acc[o].data()),
                        static_cast<std::streamsize>(keep));
      out[o].crc = Crc32(BytesView(acc[o]).subspan(0, keep), out[o].crc);
      out[o].bytes += keep;
      out[o].remaining -= keep;
    }
  }

  for (size_t o = 0; o < outputs.size(); ++o) {
    out[o].file.close();
    if (!out[o].file) {
      std::remove(out[o].tmp_path.c_str());
      return Status::IoError("write failed: " + out[o].tmp_path);
    }
    if (verify && (out[o].bytes != outputs[o].want_bytes ||
                   out[o].crc != outputs[o].want_crc)) {
      std::remove(out[o].tmp_path.c_str());
      return Status::Corruption(
          "reconstruction of " + outputs[o].path +
          " does not match the catalog (a surviving reel must be "
          "silently damaged too)");
    }
    std::error_code ec;
    std::filesystem::rename(out[o].tmp_path, outputs[o].path, ec);
    if (ec) {
      std::remove(out[o].tmp_path.c_str());
      return Status::IoError("cannot rename " + out[o].tmp_path + " to " +
                             outputs[o].path + ": " + ec.message());
    }
  }
  return Status::OK();
}

uint64_t StripeLength(const ReelCatalog& catalog) {
  uint64_t stripe = 0;
  for (const CatalogReel& row : catalog.reels) {
    stripe = std::max(stripe, row.bytes);
  }
  return stripe;
}

}  // namespace

std::string ParityReelFileName(const std::string& catalog_path, size_t index) {
  const std::filesystem::path p(catalog_path);
  char suffix[16];
  std::snprintf(suffix, sizeof suffix, "-p%02zu.ulep", index);
  return (p.parent_path() / (p.stem().string() + suffix)).string();
}

Result<ReelCatalog> ParityReelWriter::Build(const std::string& catalog_path,
                                            int parity_reels) {
  ULE_ASSIGN_OR_RETURN(ReelCatalog catalog, LoadCatalog(catalog_path));
  const size_t n = catalog.reels.size();
  const size_t m = static_cast<size_t>(parity_reels);
  if (parity_reels < 1) {
    return Status::InvalidArgument("parity needs at least one parity reel");
  }
  if (n == 0) {
    return Status::InvalidArgument("reel set has no reels to protect: " +
                                   catalog_path);
  }
  if (n + m > 255) {
    return Status::InvalidArgument(
        "RS(n+m, n) needs n+m <= 255: " + std::to_string(n) +
        " data reels + " + std::to_string(m) + " parity reels");
  }
  const std::string dir =
      std::filesystem::path(catalog_path).parent_path().string();

  // Parity over damaged bytes would notarize the damage as truth, so
  // every data reel must match its row before encoding starts.
  {
    ReelCatalog bare = catalog;
    bare.parity = ParityInfo();
    ULE_ASSIGN_OR_RETURN(SetHealth health, AssessSet(bare, dir));
    if (!health.damaged_data.empty()) {
      const CatalogReel& row = catalog.reels[health.damaged_data.front()];
      return Status::InvalidArgument(
          "cannot encode parity over a damaged set: reel " +
          std::to_string(health.damaged_data.front()) + " (" + row.name +
          ") disagrees with the catalog");
    }
  }

  const uint64_t stripe = StripeLength(catalog);
  // The weights that rebuild the parity positions n..n+m-1 of RS(n+m, n)
  // from the data positions encode: row p, read at the data reels'
  // positions 0..n-1, is parity reel p's weight per data reel.
  std::vector<int> parity_positions(m);
  std::iota(parity_positions.begin(), parity_positions.end(),
            static_cast<int>(n));
  ULE_ASSIGN_OR_RETURN(
      std::vector<Bytes> weights,
      rs::Codec(static_cast<int>(n + m), static_cast<int>(n))
          .ErasureWeights(parity_positions));

  std::vector<StripeInput> inputs(n);
  for (size_t i = 0; i < n; ++i) {
    inputs[i] = StripeInput{JoinPath(dir, catalog.reels[i].name), 0,
                            catalog.reels[i].bytes};
  }
  // A fresh encode *defines* the truth the catalog will record, so the
  // transform runs unverified; the digest below reads back what landed
  // on disk for the catalog rows.
  std::vector<StripeOutput> outputs(m);
  std::vector<std::string> parity_paths(m);
  for (size_t p = 0; p < m; ++p) {
    parity_paths[p] = ParityReelFileName(catalog_path, p);
    outputs[p].path = parity_paths[p];
    outputs[p].head = ParityHeader(p, n, m);
    outputs[p].payload_bytes = stripe;
    outputs[p].want_bytes = kParityReelHeaderBytes + stripe;
  }
  ULE_RETURN_IF_ERROR(
      StripeTransform(inputs, outputs, weights, stripe, /*verify=*/false));

  catalog.parity.parity_reels = static_cast<uint8_t>(m);
  catalog.parity.stripe_bytes = stripe;
  catalog.parity.reels.clear();
  for (size_t p = 0; p < m; ++p) {
    ULE_ASSIGN_OR_RETURN(FileDigest digest, DigestFile(parity_paths[p]));
    CatalogParityReel row;
    row.name = std::filesystem::path(parity_paths[p]).filename().string();
    row.bytes = digest.bytes;
    row.file_crc = digest.crc;
    catalog.parity.reels.push_back(std::move(row));
  }
  ULE_RETURN_IF_ERROR(WriteFileBytes(catalog_path, catalog.Serialize()));
  return catalog;
}

Result<SetHealth> AssessSet(const ReelCatalog& catalog,
                            const std::string& dir) {
  // Digest every reel of the set in parallel on the shared pool — the
  // whole-file CRC pass dominates assessment, and the files are
  // independent. Each index writes only its own flag slot, and the
  // health rows are assembled serially afterwards, so the report is
  // byte-identical to the old serial sweep regardless of thread count.
  const size_t n = catalog.reels.size();
  const size_t total = n + catalog.parity.reels.size();
  std::vector<uint8_t> damaged(total, 0);
  const Status digest_sweep = ParallelFor(0, total, [&](size_t i) {
    uint64_t want_bytes = 0;
    uint32_t want_crc = 0;
    std::string path;
    if (i < n) {
      const CatalogReel& row = catalog.reels[i];
      path = JoinPath(dir, row.name);
      want_bytes = row.bytes;
      want_crc = row.file_crc;
    } else {
      const CatalogParityReel& row = catalog.parity.reels[i - n];
      path = JoinPath(dir, row.name);
      want_bytes = row.bytes;
      want_crc = row.file_crc;
    }
    auto digest = DigestFile(path);
    if (!digest.ok() || digest.value().bytes != want_bytes ||
        digest.value().crc != want_crc) {
      damaged[i] = 1;
    }
    return Status::OK();  // an unreadable reel is damage, not an error
  });
  ULE_RETURN_IF_ERROR(digest_sweep);
  SetHealth health;
  for (size_t i = 0; i < n; ++i) {
    if (damaged[i]) health.damaged_data.push_back(i);
  }
  for (size_t p = n; p < total; ++p) {
    if (damaged[p]) health.damaged_parity.push_back(p - n);
  }
  return health;
}

bool Recoverable(const ReelCatalog& catalog, const SetHealth& health) {
  if (!catalog.parity.present()) return health.clean();
  return health.damaged() <= catalog.parity.parity_reels;
}

Result<uint64_t> ReconstructDamaged(const ReelCatalog& catalog,
                                    const std::string& dir,
                                    const SetHealth& health,
                                    const ReconstructOptions& options) {
  if (!Recoverable(catalog, health)) {
    return Status::InvalidArgument(
        "set is not recoverable: " + std::to_string(health.damaged()) +
        " streams damaged, parity covers " +
        std::to_string(catalog.parity.parity_reels));
  }
  if (health.damaged_data.empty() &&
      (!options.rebuild_parity || health.damaged_parity.empty())) {
    return 0;  // nothing to do
  }
  const size_t n = catalog.reels.size();
  const size_t m = catalog.parity.parity_reels;
  const uint64_t stripe = catalog.parity.stripe_bytes;

  // Streams 0..n-1 are the data reels, n..n+m-1 the parity reels, one
  // RS(n+m, n) codeword position each. The first n surviving streams are
  // the inputs; every other position (exactly m of them, the damaged
  // ones among them) is rebuilt from those by its erasure weight row.
  std::vector<bool> damaged(n + m, false);
  for (size_t i : health.damaged_data) damaged[i] = true;
  for (size_t p : health.damaged_parity) damaged[n + p] = true;
  std::vector<size_t> survivors;
  std::vector<int> missing;
  for (size_t s = 0; s < n + m; ++s) {
    if (!damaged[s] && survivors.size() < n) {
      survivors.push_back(s);
    } else {
      missing.push_back(static_cast<int>(s));
    }
  }
  ULE_ASSIGN_OR_RETURN(
      std::vector<Bytes> rebuild,
      rs::Codec(static_cast<int>(n + m), static_cast<int>(n))
          .ErasureWeights(missing));
  // Stream `pos`'s weight row, restricted to the survivors (the inputs).
  auto weights_of = [&](size_t pos) {
    const Bytes& row = rebuild[static_cast<size_t>(
        std::find(missing.begin(), missing.end(), static_cast<int>(pos)) -
        missing.begin())];
    Bytes w(n);
    for (size_t r = 0; r < n; ++r) w[r] = row[survivors[r]];
    return w;
  };

  std::vector<StripeInput> inputs(n);
  for (size_t r = 0; r < n; ++r) {
    const size_t s = survivors[r];
    if (s < n) {
      inputs[r] = StripeInput{JoinPath(dir, catalog.reels[s].name), 0,
                              catalog.reels[s].bytes};
    } else {
      inputs[r] =
          StripeInput{JoinPath(dir, catalog.parity.reels[s - n].name),
                      kParityReelHeaderBytes, stripe};
    }
  }

  std::vector<StripeOutput> outputs;
  std::vector<std::vector<uint8_t>> weights;
  for (size_t d : health.damaged_data) {
    const CatalogReel& row = catalog.reels[d];
    StripeOutput out;
    out.path = JoinPath(dir, row.name + options.data_suffix);
    out.payload_bytes = row.bytes;
    out.want_bytes = row.bytes;
    out.want_crc = row.file_crc;
    outputs.push_back(std::move(out));
    weights.push_back(weights_of(d));
  }
  if (options.rebuild_parity) {
    for (size_t p : health.damaged_parity) {
      const CatalogParityReel& row = catalog.parity.reels[p];
      StripeOutput out;
      out.path = JoinPath(dir, row.name);
      out.head = ParityHeader(p, n, m);
      out.payload_bytes = stripe;
      out.want_bytes = row.bytes;
      out.want_crc = row.file_crc;
      outputs.push_back(std::move(out));
      weights.push_back(weights_of(n + p));
    }
  }

  uint64_t written = 0;
  for (const StripeOutput& out : outputs) written += out.want_bytes;
  ULE_RETURN_IF_ERROR(
      StripeTransform(inputs, outputs, weights, stripe, /*verify=*/true));
  return written;
}

}  // namespace filmstore
}  // namespace ule
