/// \file reed_solomon.h
/// \brief Systematic Reed–Solomon codec over GF(256) with combined
/// error + erasure decoding.
///
/// This implements both layers of the paper's bidimensional protection
/// (§3.1):
///  * the **inner** code RS(255,223): each block carries 223 user bytes and
///    32 redundancy bytes and corrects up to 16 unknown byte errors —
///    "up to 7.2% damaged data within a single emblem";
///  * the **outer** code RS(20,17): per byte position across a group of
///    17 data emblems, 3 parity bytes allow full restoration when any
///    3 whole emblems of the 20 are missing (erasure decoding).
///
/// Decoder: Berlekamp–Massey over Forney-modified syndromes, Chien search,
/// Forney magnitude evaluation. First consecutive root fcr = 1.
///
/// Cost: a clean word takes one syndrome pass, n × (n-k) multiply-adds. A
/// damaged word adds Berlekamp–Massey, a Chien search over all n
/// positions, Forney, and a second syndrome pass that checks the
/// correction. Each codec builds one 256-entry multiply-by-alpha^i table
/// per parity root at construction ((n-k) × 256 bytes, 8 KB for the inner
/// code), and a syndrome pass runs all roots' Horner chains side by side
/// through those tables, one load and one XOR per root per byte. The
/// locator and evaluator steps use the inline GF(256) operations of
/// gf256.h.

#ifndef ULE_RS_REED_SOLOMON_H_
#define ULE_RS_REED_SOLOMON_H_

#include <vector>

#include "support/bytes.h"
#include "support/status.h"

namespace ule {
namespace rs {

/// Outcome details of a successful decode (how much correction happened).
struct DecodeInfo {
  int errors_corrected = 0;    ///< unknown-position corrections
  int erasures_corrected = 0;  ///< known-position corrections
};

/// \brief RS(n, k) codec, n <= 255. Codeword layout: [k data bytes][n-k
/// parity bytes]. Shortened codes (n < 255) are supported directly.
class Codec {
 public:
  /// \param n codeword length in bytes (2..255)
  /// \param k data length in bytes (1..n-1)
  Codec(int n, int k);

  int n() const { return n_; }
  int k() const { return k_; }
  /// Number of parity bytes (n - k).
  int parity() const { return n_ - k_; }
  /// Maximum number of correctable unknown errors (no erasures).
  int max_errors() const { return (n_ - k_) / 2; }

  /// Encodes exactly k data bytes into an n-byte codeword.
  Result<Bytes> Encode(BytesView data) const;

  /// Decodes an n-byte codeword (possibly corrupted) back to k data bytes.
  /// \param codeword received word, size must be n
  /// \param erasures positions (0-based codeword indices) known to be bad
  /// \param info optional: filled with correction counts on success
  /// Fails with Corruption when 2*errors + erasures exceeds n-k.
  Result<Bytes> Decode(BytesView codeword, const std::vector<int>& erasures = {},
                       DecodeInfo* info = nullptr) const;

  /// \brief Parity weight rows of the systematic code.
  ///
  /// Row i (k rows of parity() bytes each) is the parity of the i-th
  /// unit data vector; parity is linear in the data, so the parity of
  /// any word is `XOR_i data[i] * row_i`. Callers encoding many
  /// codewords that share byte positions (one codeword per byte column
  /// across a group of streams) can therefore produce whole parity
  /// *rows* with `Gf256::MulSliceAccum` — byte-identical to per-column
  /// Encode, k*parity() multiplies per row instead of per byte.
  std::vector<Bytes> ParityWeights() const;

  /// \brief The GF(256) weight of codeword byte `pos` in syndrome S_i,
  /// i.e. alpha^((fcr + i) * (n-1-pos)) for i in [0, parity()).
  ///
  /// Lets callers accumulate the syndromes of whole byte rows (one
  /// MulSliceAccum per present row) for bulk erasure reconstruction;
  /// matches exactly what Decode computes per codeword.
  uint8_t SyndromeFactor(int i, int pos) const;

 private:
  /// Writes the parity() syndromes of the n-byte `word` to `synd`;
  /// returns whether they are all zero (`word` is a codeword).
  bool Syndromes(const uint8_t* word, uint8_t* synd) const;

  int n_;
  int k_;
  Bytes generator_;  // monic generator polynomial, descending powers
  // root_mul_[i * 256 + x] = x * alpha^(fcr + i), one row per parity root.
  Bytes root_mul_;
};

/// Inverts a square GF(256) matrix by Gauss–Jordan elimination. Every
/// matrix the erasure paths build from surviving streams of an MDS code
/// is invertible; a singular input fails with ExecutionFault (caller
/// bookkeeping bug, not data damage).
Result<std::vector<std::vector<uint8_t>>> InvertGf256Matrix(
    std::vector<std::vector<uint8_t>> a);

}  // namespace rs
}  // namespace ule

#endif  // ULE_RS_REED_SOLOMON_H_
