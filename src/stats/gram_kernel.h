#ifndef CDI_STATS_GRAM_KERNEL_H_
#define CDI_STATS_GRAM_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace cdi::stats {

/// Tile width of the blocked Gram kernel (see sufficient_stats.cc).
inline constexpr std::size_t kGramTile = 8;

/// One Gram microkernel implementation. All entry points share the same
/// determinism contract: each output entry is accumulated with one fused
/// multiply-add per row, over rows in ascending order, into a single
/// accumulator. Because FMA is correctly rounded, every backend (scalar
/// std::fma, AVX2, AVX-512, NEON) produces bitwise-identical results —
/// the backends differ only in how many independent entries they carry
/// per instruction.
struct GramKernelFns {
  /// local[x * kGramTile + y] += sum_i a[i * kGramTile + x] *
  /// b[i * kGramTile + y] (fused, rows ascending). `a` and `b` are
  /// tile-contiguous panels: row i of a tile is kGramTile adjacent
  /// doubles.
  void (*tile)(const double* a, const double* b, std::size_t count,
               double* local);

  /// Two B-tiles against one A-tile — exactly tile(a, b0, ..., local0)
  /// followed by tile(a, b1, ..., local1), fused so the A broadcasts are
  /// shared. Bitwise identical to the two separate calls.
  void (*tile2)(const double* a, const double* b0, const double* b1,
                std::size_t count, double* local0, double* local1);

  /// Centered transpose-pack of one tile: dst[i * kGramTile + c] =
  /// cols[c][i] - means[c] for i < count, c < kGramTile. Vector backends
  /// run it as an in-register 8x8 (or 4x4) transpose; subtraction is a
  /// single IEEE op per element, so every backend packs identical bits.
  void (*pack_tile)(const double* const* cols, const double* means,
                    std::size_t count, double* dst);

  /// Present (non-NaN) bits of col[0..count), count <= 64, packed
  /// LSB-first: bit i set iff col[i] == col[i]. Exact comparisons — the
  /// backends agree bit for bit.
  std::uint64_t (*present_bits)(const double* col, std::size_t count);

  /// One strict-upper correlation row from sufficient statistics:
  /// out[j] = (va > 0 && var[j] > 0)
  ///            ? clamp((s[j] / denom) / sqrt(va * var[j]), -1, 1) : 0
  /// for j < n, with std::clamp's NaN-passthrough semantics. Division,
  /// sqrt and multiply are correctly-rounded IEEE ops on every backend,
  /// so vector and scalar kernels emit identical bits; only the
  /// divide/sqrt throughput differs.
  void (*corr_row)(const double* s, const double* var, double va,
                   double denom, std::size_t n, double* out);

  /// out[j] = s[j] / denom for j < n — the covariance scaling. IEEE
  /// division is correctly rounded on every backend: identical bits.
  void (*div_row)(const double* s, double denom, std::size_t n, double* out);

  const char* name;
};

/// The best kernel for this machine: AVX-512 when compiled in and the
/// CPU supports it, else AVX2 (or NEON on aarch64), else the scalar
/// fallback. The choice is made once (thread-safe); builds configured
/// with -DCDI_DISABLE_SIMD=ON compile only the scalar kernel, and the
/// runtime CPU check downgrades transparently on older x86-64 parts.
/// The environment variable CDI_SIMD ("scalar", "simd", "avx512") caps
/// the selection — handy for A/B runs without a rebuild; results are
/// bitwise identical either way.
const GramKernelFns& ActiveGramKernel();

/// Kernel registered under `name` ("scalar", plus "avx2"/"neon" and
/// "avx512" when compiled in and supported by this CPU), or null.
const GramKernelFns* GramKernelByName(std::string_view name);

/// Every kernel usable on this machine (scalar first). Test seam: the
/// identity battery runs the full SufficientStats suite under each.
std::vector<const GramKernelFns*> AvailableGramKernels();

/// Overrides ActiveGramKernel() until reset with null. Not synchronized
/// with concurrent kernel users — tests only.
void SetGramKernelForTesting(const GramKernelFns* kernel);

}  // namespace cdi::stats

#endif  // CDI_STATS_GRAM_KERNEL_H_
