#include "rs/gf256.h"

#include "support/kernels.h"

namespace ule {
namespace rs {

void Gf256::MulSliceAccum(uint8_t* dst, const uint8_t* src, uint8_t factor,
                          size_t n) {
  kernels::Gf256MulAccum(dst, src, factor, n);
}

}  // namespace rs
}  // namespace ule
