#include "dbcoder/rangecoder.h"

namespace ule {
namespace dbcoder {

void RangeEncoder::ShiftLow() {
  // low_ is a 16-bit window plus a carry bit at bit 16 (the LZMA shift-low
  // construction scaled from 32-bit range to 16-bit range). A byte can be
  // emitted once no future carry can change it: either the outgoing byte is
  // below 0xFF, or a carry has just resolved the pending run.
  if ((low_ & 0xFFFFull) < 0xFF00ull || (low_ >> 16) != 0) {
    const uint8_t carry = static_cast<uint8_t>(low_ >> 16);
    if (!first_) {
      out_.push_back(static_cast<uint8_t>(cache_ + carry));
    } else {
      // The very first shifted byte is the initial cache (zero); emit it so
      // the decoder can discard exactly one byte.
      out_.push_back(carry);
      first_ = false;
    }
    while (pending_ > 0) {
      out_.push_back(static_cast<uint8_t>(0xFF + carry));
      --pending_;
    }
    cache_ = static_cast<uint8_t>((low_ >> 8) & 0xFF);
  } else {
    ++pending_;
  }
  low_ = (low_ & 0xFFull) << 8;
}

void RangeEncoder::EncodeBit(uint8_t* prob, int bit) {
  const uint32_t bound = (range_ >> 8) * (*prob);
  if (bit == 0) {
    range_ = bound;
    *prob = static_cast<uint8_t>(*prob + ((256 - *prob) >> kProbShift));
  } else {
    low_ += bound;
    range_ -= bound;
    *prob = static_cast<uint8_t>(*prob - (*prob >> kProbShift));
  }
  while (range_ < 0x100) {
    range_ <<= 8;
    ShiftLow();
  }
}

Bytes RangeEncoder::Finish() {
  for (size_t i = 0; i < kFlushBytes; ++i) ShiftLow();
  return std::move(out_);
}

RangeDecoder::RangeDecoder(BytesView data) : data_(data) {
  NextByte();  // the spec's discarded leading byte
  code_ = NextByte();
  code_ = (code_ << 8) | NextByte();
}

int RangeDecoder::DecodeBit(uint8_t* prob) {
  const uint32_t bound = (range_ >> 8) * (*prob);
  int bit;
  if (code_ < bound) {
    bit = 0;
    range_ = bound;
    *prob = static_cast<uint8_t>(*prob + ((256 - *prob) >> kProbShift));
  } else {
    bit = 1;
    code_ -= bound;
    range_ -= bound;
    *prob = static_cast<uint8_t>(*prob - (*prob >> kProbShift));
  }
  while (range_ < 0x100) {
    range_ <<= 8;
    code_ = ((code_ << 8) | NextByte()) & 0xFFFF;
  }
  return bit;
}

}  // namespace dbcoder
}  // namespace ule
