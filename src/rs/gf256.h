/// \file gf256.h
/// \brief GF(2^8) arithmetic for Reed–Solomon coding.
///
/// Field: GF(256) with primitive polynomial x^8+x^4+x^3+x^2+1 (0x11D) and
/// generator alpha = 2 — the conventional choice for RS(255,223), the inner
/// emblem code in the paper (223 data + 32 parity bytes per block).
///
/// The exp/log tables are built at compile time (`constexpr`), and the
/// scalar operations are inline header functions: a multiply is two log
/// loads, an add and an exp load, with no call and no first-use guard.
/// The RS decoder's inner loops (Berlekamp–Massey, Chien, Forney) are
/// chains of these multiplies.

#ifndef ULE_RS_GF256_H_
#define ULE_RS_GF256_H_

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace ule {
namespace rs {

namespace internal {

/// alpha^i for i in [0, 510) (doubled so Mul needs no modulo) and the
/// discrete log of every non-zero element (`log[0]` is unused).
struct Gf256Tables {
  uint8_t exp[512];
  uint8_t log[256];
};

constexpr Gf256Tables BuildGf256Tables() {
  Gf256Tables t{};
  unsigned x = 1;
  for (int i = 0; i < 255; ++i) {
    t.exp[i] = static_cast<uint8_t>(x);
    t.log[x] = static_cast<uint8_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= 0x11D;
  }
  for (int i = 255; i < 512; ++i) t.exp[i] = t.exp[i - 255];
  return t;
}

inline constexpr Gf256Tables kGf256 = BuildGf256Tables();

}  // namespace internal

/// Table-driven GF(256) arithmetic. All operations are total; division by
/// zero is a programming error (asserted in debug builds).
class Gf256 {
 public:
  /// alpha^i for i in [0, 510) (doubled table avoids a modulo in Mul).
  static uint8_t Exp(int i) {
    assert(i >= 0 && i < 512);
    return internal::kGf256.exp[i];
  }
  /// Discrete log base alpha; Log(0) is undefined (asserted).
  static uint8_t Log(uint8_t x) {
    assert(x != 0 && "log of zero");
    return internal::kGf256.log[x];
  }

  static uint8_t Mul(uint8_t a, uint8_t b) {
    if (a == 0 || b == 0) return 0;
    return internal::kGf256.exp[internal::kGf256.log[a] +
                                internal::kGf256.log[b]];
  }
  static uint8_t Div(uint8_t a, uint8_t b) {
    assert(b != 0 && "division by zero in GF(256)");
    if (a == 0) return 0;
    return internal::kGf256.exp[internal::kGf256.log[a] + 255 -
                                internal::kGf256.log[b]];
  }
  static uint8_t Pow(uint8_t x, int power) {
    if (x == 0) return power == 0 ? 1 : 0;
    int e = (internal::kGf256.log[x] * power) % 255;
    if (e < 0) e += 255;
    return internal::kGf256.exp[e];
  }
  static uint8_t Inv(uint8_t x) {
    assert(x != 0 && "inverse of zero");
    return internal::kGf256.exp[255 - internal::kGf256.log[x]];
  }

  /// Bulk multiply-accumulate: `dst[i] ^= factor * src[i]` for i in
  /// [0, n). `dst` and `src` must not overlap. This is the one GF
  /// primitive worth vectorizing — RS encode, parity striping, and
  /// erasure reconstruction are all linear combinations of byte rows —
  /// and it routes through the runtime-dispatched SIMD kernel layer
  /// (support/kernels.h), byte-identical to `Mul` per element.
  static void MulSliceAccum(uint8_t* dst, const uint8_t* src, uint8_t factor,
                            size_t n);
};

}  // namespace rs
}  // namespace ule

#endif  // ULE_RS_GF256_H_
