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
/// The ULE-P1 parity reels (filmstore/parity.h) are a third use: an
/// RS(n+m, n) code across the n data reels of a set.
///
/// `Codec::ErasureWeights` is the single bulk encode/repair entry: the
/// outer code's parity emblems and lost-emblem repair (mocoder/outer.cc)
/// and the parity reels' encode and repair all apply its weight rows to
/// whole byte rows at once. All GF(256) erasure algebra lives here.
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

  /// \brief Weights that rebuild erased codeword positions from the rest:
  /// the one bulk encode/repair entry of the codec.
  ///
  /// For rho <= parity() distinct positions in `missing`, returns rho
  /// rows of n weights; row m gives position missing[m]'s byte of any
  /// codeword as `XOR_s w[m][s] * word[s]` over the positions s not in
  /// `missing` (the weights at the missing positions are 0). The rows
  /// depend only on the positions, so callers holding one codeword per
  /// byte column across a group of streams rebuild whole missing *rows*
  /// with `Gf256::MulSliceAccum`, byte-identical to a per-column erasure
  /// Decode of a word that is intact elsewhere.
  /// Encoding is the case missing = the parity positions k..n-1.
  /// InvalidArgument for a repeated or out-of-range position or more
  /// than parity() of them.
  Result<std::vector<Bytes>> ErasureWeights(
      const std::vector<int>& missing) const;

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

}  // namespace rs
}  // namespace ule

#endif  // ULE_RS_REED_SOLOMON_H_
