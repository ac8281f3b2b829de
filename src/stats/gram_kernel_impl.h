// Generic Gram microkernel bodies over the cdi::simd::V4 wrapper —
// included by exactly one translation unit per backend (the scalar TU
// defines CDI_SIMD_FORCE_SCALAR first; the SIMD TU is compiled with
// -mavx2 -mfma on x86-64 and picks up the NEON backend on aarch64).
// Everything here has internal linkage; the including TU wraps the
// functions in an exported GramKernelFns.
//
// Determinism: each output entry owns one accumulator lane, fed one
// fused multiply-add per row in ascending row order. The unroll depth
// and vector grouping only decide how many *independent* entries advance
// per instruction, so they never change results.
#ifndef CDI_STATS_GRAM_KERNEL_IMPL_H_
#define CDI_STATS_GRAM_KERNEL_IMPL_H_

#include <cstddef>

#include "common/simd.h"
#include "stats/gram_kernel.h"

namespace cdi::stats {
namespace {

namespace sv = cdi::simd;

/// local[x][y] += sum_i a[i][x] * b[i][y] over tile-contiguous panels.
/// x is unrolled by 4; y rides in two V4 halves.
void GramTileImpl(const double* a, const double* b, std::size_t count,
                  double* local) {
  for (std::size_t xg = 0; xg < kGramTile; xg += 4) {
    sv::V4 acc[4][2];
    for (std::size_t u = 0; u < 4; ++u) {
      acc[u][0] = sv::Load(local + (xg + u) * kGramTile);
      acc[u][1] = sv::Load(local + (xg + u) * kGramTile + 4);
    }
    for (std::size_t i = 0; i < count; ++i) {
      sv::Prefetch(b + (i + 16) * kGramTile);
      sv::Prefetch(a + (i + 16) * kGramTile);
      const sv::V4 b0 = sv::Load(b + i * kGramTile);
      const sv::V4 b1 = sv::Load(b + i * kGramTile + 4);
      for (std::size_t u = 0; u < 4; ++u) {
        const sv::V4 av = sv::Broadcast(a[i * kGramTile + xg + u]);
        acc[u][0] = sv::MulAdd(av, b0, acc[u][0]);
        acc[u][1] = sv::MulAdd(av, b1, acc[u][1]);
      }
    }
    for (std::size_t u = 0; u < 4; ++u) {
      sv::Store(local + (xg + u) * kGramTile, acc[u][0]);
      sv::Store(local + (xg + u) * kGramTile + 4, acc[u][1]);
    }
  }
}

/// Two B tiles against one A tile, sharing the A broadcasts. x is
/// unrolled by 2 so the 8 accumulators + 4 B rows + 1 broadcast fit a
/// 16-register file.
void GramTile2Impl(const double* a, const double* b0, const double* b1,
                   std::size_t count, double* local0, double* local1) {
  for (std::size_t xg = 0; xg < kGramTile; xg += 2) {
    sv::V4 acc[2][2][2];  // [x-unroll][which B tile][y half]
    for (std::size_t u = 0; u < 2; ++u) {
      acc[u][0][0] = sv::Load(local0 + (xg + u) * kGramTile);
      acc[u][0][1] = sv::Load(local0 + (xg + u) * kGramTile + 4);
      acc[u][1][0] = sv::Load(local1 + (xg + u) * kGramTile);
      acc[u][1][1] = sv::Load(local1 + (xg + u) * kGramTile + 4);
    }
    for (std::size_t i = 0; i < count; ++i) {
      sv::Prefetch(b0 + (i + 16) * kGramTile);
      sv::Prefetch(b1 + (i + 16) * kGramTile);
      sv::Prefetch(a + (i + 16) * kGramTile);
      const sv::V4 p0 = sv::Load(b0 + i * kGramTile);
      const sv::V4 p1 = sv::Load(b0 + i * kGramTile + 4);
      const sv::V4 q0 = sv::Load(b1 + i * kGramTile);
      const sv::V4 q1 = sv::Load(b1 + i * kGramTile + 4);
      for (std::size_t u = 0; u < 2; ++u) {
        const sv::V4 av = sv::Broadcast(a[i * kGramTile + xg + u]);
        acc[u][0][0] = sv::MulAdd(av, p0, acc[u][0][0]);
        acc[u][0][1] = sv::MulAdd(av, p1, acc[u][0][1]);
        acc[u][1][0] = sv::MulAdd(av, q0, acc[u][1][0]);
        acc[u][1][1] = sv::MulAdd(av, q1, acc[u][1][1]);
      }
    }
    for (std::size_t u = 0; u < 2; ++u) {
      sv::Store(local0 + (xg + u) * kGramTile, acc[u][0][0]);
      sv::Store(local0 + (xg + u) * kGramTile + 4, acc[u][0][1]);
      sv::Store(local1 + (xg + u) * kGramTile, acc[u][1][0]);
      sv::Store(local1 + (xg + u) * kGramTile + 4, acc[u][1][1]);
    }
  }
}

/// dst[i * kGramTile + c] = cols[c][i] - means[c]: the scalar pack. The
/// per-element subtraction is the only arithmetic, so any traversal
/// order packs the same bits; vector backends override this with
/// in-register transposes (so a vector TU may leave it unused).
[[maybe_unused]] void GramPackTileImpl(const double* const* cols,
                                       const double* means, std::size_t count,
                                       double* dst) {
  for (std::size_t c = 0; c < kGramTile; ++c) {
    const double* col = cols[c];
    const double m = means[c];
    double* out = dst + c;
    for (std::size_t i = 0; i < count; ++i) {
      out[i * kGramTile] = col[i] - m;
    }
  }
}

/// Present (non-NaN) bits, LSB-first, count <= 64. Four independent
/// partial words break the OR dependency chain; the merge order is
/// irrelevant because the bit positions are disjoint.
[[maybe_unused]] std::uint64_t GramPresentBitsImpl(const double* col,
                                                   std::size_t count) {
  std::uint64_t b0 = 0, b1 = 0, b2 = 0, b3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    b0 |= static_cast<std::uint64_t>(col[i] == col[i]) << i;
    b1 |= static_cast<std::uint64_t>(col[i + 1] == col[i + 1]) << (i + 1);
    b2 |= static_cast<std::uint64_t>(col[i + 2] == col[i + 2]) << (i + 2);
    b3 |= static_cast<std::uint64_t>(col[i + 3] == col[i + 3]) << (i + 3);
  }
  for (; i < count; ++i) {
    b0 |= static_cast<std::uint64_t>(col[i] == col[i]) << i;
  }
  return (b0 | b1) | (b2 | b3);
}

/// One strict-upper correlation row (see GramKernelFns::corr_row). Every
/// arithmetic op is correctly-rounded IEEE and the clamp/guard are exact
/// lane selections, so vector lanes and the scalar tail emit the same
/// bits the plain scalar loop does.
void GramCorrRowImpl(const double* s, const double* var, double va,
                     double denom, std::size_t n, double* out) {
  if (!(va > 0)) {
    for (std::size_t j = 0; j < n; ++j) out[j] = 0.0;
    return;
  }
  const sv::V4 vden = sv::Broadcast(denom);
  const sv::V4 vva = sv::Broadcast(va);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const sv::V4 vv = sv::Load(var + j);
    sv::V4 r = sv::Div(sv::Div(sv::Load(s + j), vden),
                       sv::Sqrt(sv::Mul(vva, vv)));
    sv::Store(out + j, sv::ZeroUnlessPos(vv, sv::ClampPm1(r)));
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

/// out[j] = s[j] / denom (see GramKernelFns::div_row).
void GramDivRowImpl(const double* s, double denom, std::size_t n,
                    double* out) {
  const sv::V4 vden = sv::Broadcast(denom);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    sv::Store(out + j, sv::Div(sv::Load(s + j), vden));
  }
  for (; j < n; ++j) out[j] = s[j] / denom;
}

}  // namespace
}  // namespace cdi::stats

#endif  // CDI_STATS_GRAM_KERNEL_IMPL_H_
