/// \file rangecoder.h
/// \brief Adaptive binary arithmetic (range) coder used by the LZAC scheme.
///
/// The coder is deliberately specified with 16-bit state and 8-bit
/// probabilities so that the archived DynaRisc decoder (a 16-bit machine)
/// can implement it without multi-precision arithmetic:
///
///   state: range (16-bit, init 0xFFFF), code (16-bit)
///   prob:  per-context P(bit = 0) scaled to 0..255, init 128
///   decode bit with context p:
///     bound = (range >> 8) * p
///     if code < bound:  bit = 0; range = bound;          p += (256 - p) >> 4
///     else:             bit = 1; code -= bound;
///                       range -= bound;                  p -= p >> 4
///     while range < 0x100: range <<= 8; code = (code << 8) | next byte
///   decoder init: discard one byte (always zero), then read two bytes
///   into code.
///
/// The encoder is the standard carry-counting construction (LZMA-style,
/// scaled down); it only ever runs at archival time, on a contemporary
/// machine, so it is implemented in C++ only.

#ifndef ULE_DBCODER_RANGECODER_H_
#define ULE_DBCODER_RANGECODER_H_

#include <cstddef>
#include <cstdint>

#include "support/bytes.h"
#include "support/status.h"

namespace ule {
namespace dbcoder {

/// Probability update shift (adaptation rate).
inline constexpr int kProbShift = 4;
/// Initial probability (P(bit=0) = 0.5).
inline constexpr uint8_t kProbInit = 128;
/// Bytes RangeEncoder::Finish flushes after the last coded bit. Decoding
/// a valid stream never needs more zero bytes past its end than this, so
/// a decoder that does has a truncated stream or a forged length.
inline constexpr size_t kFlushBytes = 4;

/// \brief Encoder half of the range coder. Append bits, then Finish().
class RangeEncoder {
 public:
  /// Encodes `bit` under the adaptive context probability `*prob`.
  void EncodeBit(uint8_t* prob, int bit);
  /// Flushes the remaining state; returns the byte stream (first byte is
  /// always zero, as the decoder spec requires).
  Bytes Finish();

 private:
  void ShiftLow();

  uint64_t low_ = 0;
  uint32_t range_ = 0xFFFF;
  uint8_t cache_ = 0;
  uint64_t pending_ = 0;  // count of 0xFF bytes awaiting carry resolution
  bool first_ = true;
  Bytes out_;
};

/// \brief Decoder half. Mirrors the archived DynaRisc implementation
/// bit-for-bit (the conformance tests in tests/decoders_test.cc rely on
/// that).
class RangeDecoder {
 public:
  /// \param data encoded stream (from RangeEncoder::Finish)
  explicit RangeDecoder(BytesView data);

  /// Decodes one bit under `*prob`. Reading past the end of the stream
  /// supplies zero bytes (the encoder's flush guarantees enough data for
  /// all encoded bits).
  int DecodeBit(uint8_t* prob);

  size_t position() const { return pos_; }
  /// Zero bytes supplied past the end of the stream so far.
  size_t overrun() const { return overrun_; }

 private:
  uint8_t NextByte() {
    if (pos_ < data_.size()) return data_[pos_++];
    ++overrun_;
    return 0;
  }

  BytesView data_;
  size_t pos_ = 0;
  size_t overrun_ = 0;
  uint32_t range_ = 0xFFFF;
  uint32_t code_ = 0;
};

}  // namespace dbcoder
}  // namespace ule

#endif  // ULE_DBCODER_RANGECODER_H_
