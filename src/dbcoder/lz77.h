/// \file lz77.h
/// \brief LZ77 parsing shared by the LZSS and LZAC schemes of DBCoder.
///
/// DBCoder's generic scheme is "based on LZ77 and arithmetic coding" (§3.1).
/// This module produces the token stream (literals and back-references);
/// the two schemes differ only in how tokens are entropy-coded.
///
/// Format parameters are fixed for the archival format (they are baked into
/// the archived DynaRisc decoder, so they can never change — that is the
/// point of ULE):
///   * window: 8192 bytes (13-bit offsets)
///   * match length: 3..34 (5-bit length field, bias 3)

#ifndef ULE_DBCODER_LZ77_H_
#define ULE_DBCODER_LZ77_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/bytes.h"

namespace ule {
namespace dbcoder {

/// Archival-format constants (frozen; see file comment).
inline constexpr int kWindowBits = 13;
inline constexpr uint32_t kWindowSize = 1u << kWindowBits;  // 8192
inline constexpr int kLengthBits = 5;
inline constexpr uint32_t kMinMatch = 3;
inline constexpr uint32_t kMaxMatch = kMinMatch + (1u << kLengthBits) - 1;  // 34
/// \brief Upper bound on raw bytes per byte of an LZSS or LZAC token
/// stream. LZSS spends 1 + kWindowBits + kLengthBits = 19 bits on a
/// kMaxMatch-byte match; LZAC codes the same bits with probabilities
/// clamped to [15, 241]/256, so each stream byte covers at most 103 coded
/// bits (about 185 raw bytes).
/// Decoders cap their up-front reservation at this multiple of their
/// input, so a forged raw length cannot allocate what the input could
/// never produce.
inline constexpr size_t kMaxExpansion = 256;

/// One LZ77 token: either a literal byte or a (distance, length) match.
struct Token {
  bool is_match = false;
  uint8_t literal = 0;    ///< when !is_match
  uint16_t distance = 0;  ///< 1..kWindowSize, when is_match
  uint8_t length = 0;     ///< kMinMatch..kMaxMatch, when is_match
};

/// Greedy hash-chain parse of `input` into tokens (with one-step lazy
/// matching, zlib-style). Deterministic.
std::vector<Token> Parse(BytesView input);

/// Reconstructs the original bytes from a token stream (reference
/// expansion used by tests and by the C++ decoders).
Bytes Expand(const std::vector<Token>& tokens);

}  // namespace dbcoder
}  // namespace ule

#endif  // ULE_DBCODER_LZ77_H_
