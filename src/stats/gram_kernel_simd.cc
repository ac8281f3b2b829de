// Vector Gram kernel: the V4 wrapper on its native backend. On x86-64
// this TU is compiled with -mavx2 -mfma (dispatch checks the CPU at
// runtime before selecting it); on aarch64 the NEON backend is
// architectural and needs no extra flags.
#include "stats/gram_kernel_impl.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace cdi::stats {

#if defined(__AVX2__)
namespace {

// Centered 4x4 in-register transposes: subtraction is one IEEE op per
// element, identical to the scalar pack bit for bit; only the store
// pattern changes. The scalar tail handles count % 4.
void Avx2PackTile(const double* const* cols, const double* means,
                  std::size_t count, double* dst) {
  const std::size_t main = count & ~std::size_t{3};
  for (std::size_t cg = 0; cg < kGramTile; cg += 4) {
    const __m256d mm = _mm256_setr_pd(means[cg], means[cg + 1], means[cg + 2],
                                      means[cg + 3]);
    for (std::size_t i = 0; i < main; i += 4) {
      const __m256d c0 = _mm256_loadu_pd(cols[cg] + i);
      const __m256d c1 = _mm256_loadu_pd(cols[cg + 1] + i);
      const __m256d c2 = _mm256_loadu_pd(cols[cg + 2] + i);
      const __m256d c3 = _mm256_loadu_pd(cols[cg + 3] + i);
      const __m256d t0 = _mm256_unpacklo_pd(c0, c1);  // rows 0,2 of (c0,c1)
      const __m256d t1 = _mm256_unpackhi_pd(c0, c1);  // rows 1,3
      const __m256d t2 = _mm256_unpacklo_pd(c2, c3);
      const __m256d t3 = _mm256_unpackhi_pd(c2, c3);
      const __m256d r0 =
          _mm256_sub_pd(_mm256_permute2f128_pd(t0, t2, 0x20), mm);
      const __m256d r1 =
          _mm256_sub_pd(_mm256_permute2f128_pd(t1, t3, 0x20), mm);
      const __m256d r2 =
          _mm256_sub_pd(_mm256_permute2f128_pd(t0, t2, 0x31), mm);
      const __m256d r3 =
          _mm256_sub_pd(_mm256_permute2f128_pd(t1, t3, 0x31), mm);
      double* out = dst + i * kGramTile + cg;
      _mm256_storeu_pd(out, r0);
      _mm256_storeu_pd(out + kGramTile, r1);
      _mm256_storeu_pd(out + 2 * kGramTile, r2);
      _mm256_storeu_pd(out + 3 * kGramTile, r3);
    }
  }
  for (std::size_t i = main; i < count; ++i) {
    for (std::size_t c = 0; c < kGramTile; ++c) {
      dst[i * kGramTile + c] = cols[c][i] - means[c];
    }
  }
}

std::uint64_t Avx2PresentBits(const double* col, std::size_t count) {
  std::uint64_t bits = 0;
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d v = _mm256_loadu_pd(col + i);
    const int m =
        _mm256_movemask_pd(_mm256_cmp_pd(v, v, _CMP_EQ_OQ));
    bits |= static_cast<std::uint64_t>(m) << i;
  }
  for (; i < count; ++i) {
    bits |= static_cast<std::uint64_t>(col[i] == col[i]) << i;
  }
  return bits;
}

}  // namespace
#endif  // __AVX2__

const GramKernelFns* CdiGramKernelSimd() {
#if defined(__AVX2__)
  static const GramKernelFns fns = {
      &GramTileImpl,    &GramTile2Impl,
      &Avx2PackTile,    &Avx2PresentBits,
      &GramCorrRowImpl, &GramDivRowImpl, cdi::simd::BackendName()};
#else
  static const GramKernelFns fns = {
      &GramTileImpl,        &GramTile2Impl,
      &GramPackTileImpl,    &GramPresentBitsImpl,
      &GramCorrRowImpl,     &GramDivRowImpl, cdi::simd::BackendName()};
#endif
  return &fns;
}

}  // namespace cdi::stats
