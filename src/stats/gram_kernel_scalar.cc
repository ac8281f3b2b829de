// Scalar Gram kernel: the V4 wrapper pinned to its std::fma backend.
// Always compiled, with baseline flags, so every build has a kernel that
// runs anywhere — and one whose results the SIMD backends must (and do)
// match bit for bit. On hardware with FMA, libm's fma resolves to the
// fused instruction; without it, the correctly-rounded software path
// keeps the bitwise contract at reduced speed.
#define CDI_SIMD_FORCE_SCALAR 1

#include "stats/gram_kernel_impl.h"

namespace cdi::stats {

const GramKernelFns* CdiGramKernelScalar() {
  static const GramKernelFns fns = {
      &GramTileImpl,        &GramTile2Impl,
      &GramPackTileImpl,    &GramPresentBitsImpl,
      &GramCorrRowImpl,     &GramDivRowImpl, "scalar"};
  return &fns;
}

}  // namespace cdi::stats
