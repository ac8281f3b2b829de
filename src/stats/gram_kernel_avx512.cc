// AVX-512 Gram kernel: one 8-wide zmm register covers a full tile row,
// so a kGramTile x kGramTile tile needs just 8 accumulator registers and
// the fused two-B-tile variant (16 accumulators + operands) still fits
// the 32-register file with room to spare — the per-row broadcast cost
// is amortized over twice the FMAs, which is what pushes the kernel from
// load-port-bound to FMA-bound. Compiled with -mavx512f -mavx2 -mfma;
// dispatch checks the CPU at runtime before selecting it.
//
// Determinism: identical to the V4 backends — one fused multiply-add per
// (entry, row), rows ascending, one accumulator lane per entry.
#include <immintrin.h>

#include <cmath>

#include "stats/gram_kernel.h"

namespace cdi::stats {

namespace {

void Avx512Tile(const double* a, const double* b, std::size_t count,
                double* local) {
  __m512d acc[kGramTile];
  for (std::size_t x = 0; x < kGramTile; ++x) {
    acc[x] = _mm512_loadu_pd(local + x * kGramTile);
  }
  for (std::size_t i = 0; i < count; ++i) {
    _mm_prefetch(reinterpret_cast<const char*>(b + (i + 16) * kGramTile),
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(a + (i + 16) * kGramTile),
                 _MM_HINT_T0);
    const __m512d bv = _mm512_loadu_pd(b + i * kGramTile);
    for (std::size_t x = 0; x < kGramTile; ++x) {
      const __m512d av = _mm512_set1_pd(a[i * kGramTile + x]);
      acc[x] = _mm512_fmadd_pd(av, bv, acc[x]);
    }
  }
  for (std::size_t x = 0; x < kGramTile; ++x) {
    _mm512_storeu_pd(local + x * kGramTile, acc[x]);
  }
}

void Avx512Tile2(const double* a, const double* b0, const double* b1,
                 std::size_t count, double* local0, double* local1) {
  __m512d acc0[kGramTile];
  __m512d acc1[kGramTile];
  for (std::size_t x = 0; x < kGramTile; ++x) {
    acc0[x] = _mm512_loadu_pd(local0 + x * kGramTile);
    acc1[x] = _mm512_loadu_pd(local1 + x * kGramTile);
  }
  for (std::size_t i = 0; i < count; ++i) {
    _mm_prefetch(reinterpret_cast<const char*>(b0 + (i + 16) * kGramTile),
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(b1 + (i + 16) * kGramTile),
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(a + (i + 16) * kGramTile),
                 _MM_HINT_T0);
    const __m512d bv0 = _mm512_loadu_pd(b0 + i * kGramTile);
    const __m512d bv1 = _mm512_loadu_pd(b1 + i * kGramTile);
    for (std::size_t x = 0; x < kGramTile; ++x) {
      const __m512d av = _mm512_set1_pd(a[i * kGramTile + x]);
      acc0[x] = _mm512_fmadd_pd(av, bv0, acc0[x]);
      acc1[x] = _mm512_fmadd_pd(av, bv1, acc1[x]);
    }
  }
  for (std::size_t x = 0; x < kGramTile; ++x) {
    _mm512_storeu_pd(local0 + x * kGramTile, acc0[x]);
    _mm512_storeu_pd(local1 + x * kGramTile, acc1[x]);
  }
}

// Centered 8x8 in-register transpose pack: load 8 rows of each of the 8
// columns, subtract the column means (one IEEE op per element — bitwise
// identical to the scalar pack), transpose with the classic
// unpack/shuffle ladder, store 8 contiguous tile rows. count % 8 rows
// fall back to the scalar loop.
void Avx512PackTile(const double* const* cols, const double* means,
                    std::size_t count, double* dst) {
  const std::size_t main = count & ~std::size_t{7};
  for (std::size_t i = 0; i < main; i += 8) {
    __m512d z[8];
    for (std::size_t c = 0; c < 8; ++c) {
      z[c] = _mm512_sub_pd(_mm512_loadu_pd(cols[c] + i),
                           _mm512_set1_pd(means[c]));
    }
    const __m512d t0 = _mm512_unpacklo_pd(z[0], z[1]);
    const __m512d t1 = _mm512_unpackhi_pd(z[0], z[1]);
    const __m512d t2 = _mm512_unpacklo_pd(z[2], z[3]);
    const __m512d t3 = _mm512_unpackhi_pd(z[2], z[3]);
    const __m512d t4 = _mm512_unpacklo_pd(z[4], z[5]);
    const __m512d t5 = _mm512_unpackhi_pd(z[4], z[5]);
    const __m512d t6 = _mm512_unpacklo_pd(z[6], z[7]);
    const __m512d t7 = _mm512_unpackhi_pd(z[6], z[7]);
    const __m512d u0 = _mm512_shuffle_f64x2(t0, t2, 0x88);
    const __m512d u1 = _mm512_shuffle_f64x2(t1, t3, 0x88);
    const __m512d u2 = _mm512_shuffle_f64x2(t0, t2, 0xdd);
    const __m512d u3 = _mm512_shuffle_f64x2(t1, t3, 0xdd);
    const __m512d u4 = _mm512_shuffle_f64x2(t4, t6, 0x88);
    const __m512d u5 = _mm512_shuffle_f64x2(t5, t7, 0x88);
    const __m512d u6 = _mm512_shuffle_f64x2(t4, t6, 0xdd);
    const __m512d u7 = _mm512_shuffle_f64x2(t5, t7, 0xdd);
    double* out = dst + i * kGramTile;
    _mm512_storeu_pd(out + 0 * kGramTile, _mm512_shuffle_f64x2(u0, u4, 0x88));
    _mm512_storeu_pd(out + 1 * kGramTile, _mm512_shuffle_f64x2(u1, u5, 0x88));
    _mm512_storeu_pd(out + 2 * kGramTile, _mm512_shuffle_f64x2(u2, u6, 0x88));
    _mm512_storeu_pd(out + 3 * kGramTile, _mm512_shuffle_f64x2(u3, u7, 0x88));
    _mm512_storeu_pd(out + 4 * kGramTile, _mm512_shuffle_f64x2(u0, u4, 0xdd));
    _mm512_storeu_pd(out + 5 * kGramTile, _mm512_shuffle_f64x2(u1, u5, 0xdd));
    _mm512_storeu_pd(out + 6 * kGramTile, _mm512_shuffle_f64x2(u2, u6, 0xdd));
    _mm512_storeu_pd(out + 7 * kGramTile, _mm512_shuffle_f64x2(u3, u7, 0xdd));
  }
  for (std::size_t i = main; i < count; ++i) {
    for (std::size_t c = 0; c < kGramTile; ++c) {
      dst[i * kGramTile + c] = cols[c][i] - means[c];
    }
  }
}

/// 8-wide correlation row: vdivpd/vsqrtpd are correctly-rounded IEEE
/// ops and the clamp/guard are exact mask selections, so the bits match
/// the scalar loop; only the divide/sqrt throughput improves (~5x).
void Avx512CorrRow(const double* s, const double* var, double va,
                   double denom, std::size_t n, double* out) {
  if (!(va > 0)) {
    for (std::size_t j = 0; j < n; ++j) out[j] = 0.0;
    return;
  }
  const __m512d vden = _mm512_set1_pd(denom);
  const __m512d vva = _mm512_set1_pd(va);
  const __m512d lo = _mm512_set1_pd(-1.0);
  const __m512d hi = _mm512_set1_pd(1.0);
  const __m512d zero = _mm512_setzero_pd();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d vv = _mm512_loadu_pd(var + j);
    __m512d r = _mm512_div_pd(_mm512_div_pd(_mm512_loadu_pd(s + j), vden),
                              _mm512_sqrt_pd(_mm512_mul_pd(vva, vv)));
    r = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(r, lo, _CMP_LT_OQ), r, lo);
    r = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(hi, r, _CMP_LT_OQ), r, hi);
    r = _mm512_maskz_mov_pd(_mm512_cmp_pd_mask(vv, zero, _CMP_GT_OQ), r);
    _mm512_storeu_pd(out + j, r);
  }
  for (; j < n; ++j) {
    const double vb = var[j];
    double r = 0.0;
    if (vb > 0) {
      r = (s[j] / denom) / std::sqrt(va * vb);
      r = r < -1.0 ? -1.0 : (1.0 < r ? 1.0 : r);
    }
    out[j] = r;
  }
}

void Avx512DivRow(const double* s, double denom, std::size_t n,
                  double* out) {
  const __m512d vden = _mm512_set1_pd(denom);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm512_storeu_pd(out + j, _mm512_div_pd(_mm512_loadu_pd(s + j), vden));
  }
  for (; j < n; ++j) out[j] = s[j] / denom;
}

std::uint64_t Avx512PresentBits(const double* col, std::size_t count) {
  std::uint64_t bits = 0;
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m512d v = _mm512_loadu_pd(col + i);
    bits |= static_cast<std::uint64_t>(
                _mm512_cmp_pd_mask(v, v, _CMP_EQ_OQ))
            << i;
  }
  for (; i < count; ++i) {
    bits |= static_cast<std::uint64_t>(col[i] == col[i]) << i;
  }
  return bits;
}

}  // namespace

const GramKernelFns* CdiGramKernelAvx512() {
  static const GramKernelFns fns = {
      &Avx512Tile,        &Avx512Tile2,   &Avx512PackTile,
      &Avx512PresentBits, &Avx512CorrRow, &Avx512DivRow, "avx512"};
  return &fns;
}

}  // namespace cdi::stats
