#include "stats/sufficient_stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/thread_pool.h"
#include "stats/gram_kernel.h"
#include "stats/linalg.h"

namespace cdi::stats {

namespace {

/// Microkernel tile width (one cache line of doubles per packed tile
/// row). The kernel bodies live in stats/gram_kernel_*.cc — a scalar
/// std::fma fallback plus SIMD backends selected at runtime — all
/// bitwise interchangeable: every Gram entry is accumulated with one
/// fused multiply-add per row, rows ascending, one accumulator per
/// entry, so neither the backend, the thread count, nor the task
/// chunking can change a single bit of the result.
constexpr std::size_t kTile = kGramTile;

/// Rows per blocked sweep. The sweep re-reads the packed chunk once per
/// tile pair, so the chunk (kRowBlock x padded-p doubles) should sit in
/// cache: 256 rows x 400 attrs x 8 B ~ 820 KB.
constexpr std::size_t kRowBlock = 256;

/// Panel bytes under which the whole row range runs as one block. Each
/// extra block costs a full accumulator reload/flush, so when the packed
/// panel fits in L2 next to the accumulators we skip the blocking
/// entirely; past that, keeping the per-block panel L2-resident wins
/// (measured: a single 3.3 MB panel at 400 vars is ~35% slower than
/// 256-row blocks). Store/reload of a double is exact, so the block size
/// never changes a bit of the result — it only moves memory traffic.
constexpr std::size_t kOneBlockPanelBytes = std::size_t{1} << 20;

std::size_t WordCount(std::size_t n) { return (n + 63) / 64; }

/// Present (not-NaN) bits of col[0..count) packed LSB-first — dispatched
/// to the active Gram kernel backend. The comparisons are exact, so every
/// backend returns identical bits.
inline std::uint64_t PresentBitsWord(const double* col, std::size_t count) {
  return ActiveGramKernel().present_bits(col, count);
}

/// mask &= present bits of `col` (n rows). Words already dead are skipped.
void AndColumnMask(const double* col, std::size_t n, std::uint64_t* mask) {
  std::size_t w = 0;
  std::size_t r = 0;
  for (; r + 64 <= n; r += 64, ++w) {
    if (mask[w] != 0) mask[w] &= PresentBitsWord(col + r, 64);
  }
  if (r < n && mask[w] != 0) mask[w] &= PresentBitsWord(col + r, n - r);
}

/// Complete-row mask of `data`: all-ones (tail-clipped), AND'ed with each
/// column's present bits — from its null bitmap when the caller opted in
/// via NumericDataset::null_words, else from a NaN scan.
///
/// NaN-scanned columns also get a speculative full-column sum (ascending
/// plain adds, the exact sequence the per-column sums pass runs when
/// every row is complete) while the column is still cache-hot from the
/// scan: if the final mask comes out all-ones, the caller skips its own
/// pass over the data entirely. `spec_sums[v]` is meaningful only where
/// `spec_ok[v]` is set.
std::vector<std::uint64_t> BuildMask(const NumericDataset& data,
                                     std::vector<double>* spec_sums,
                                     std::vector<char>* spec_ok) {
  const std::size_t n = data.num_rows();
  const std::size_t words = WordCount(n);
  std::vector<std::uint64_t> mask(words, ~std::uint64_t{0});
  if (n % 64 != 0 && words > 0) {
    mask[words - 1] = (std::uint64_t{1} << (n % 64)) - 1;
  }
  // Bitmap-backed columns first (no data read), then the NaN-scanned
  // columns in groups of eight. AND-ing words is commutative, so the
  // reordering cannot change the mask.
  std::vector<std::size_t> scanned;
  scanned.reserve(data.columns.size());
  for (std::size_t v = 0; v < data.columns.size(); ++v) {
    const std::uint64_t* nulls =
        v < data.null_words.size() ? data.null_words[v] : nullptr;
    if (nulls != nullptr) {
      for (std::size_t w = 0; w < words; ++w) mask[w] &= ~nulls[w];
    } else {
      scanned.push_back(v);
    }
  }
  // Per group: the NaN scan, then the speculative sums while the group's
  // ~64 KB is still cache-resident — one DRAM pass instead of two. Each
  // column keeps its own strictly ascending scalar add chain (the exact
  // reference sequence); the eight independent chains cover the FP-add
  // latency x throughput product that made a one-column sum
  // serialization-bound.
  std::size_t g = 0;
  for (; g + 8 <= scanned.size(); g += 8) {
    const double* c[8];
    for (std::size_t u = 0; u < 8; ++u) {
      c[u] = data.columns[scanned[g + u]].data();
    }
    for (std::size_t u = 0; u < 8; ++u) AndColumnMask(c[u], n, mask.data());
    if (spec_sums != nullptr) {
      double s[8] = {0, 0, 0, 0, 0, 0, 0, 0};
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t u = 0; u < 8; ++u) s[u] += c[u][i];
      }
      for (std::size_t u = 0; u < 8; ++u) {
        (*spec_sums)[scanned[g + u]] = s[u];
        (*spec_ok)[scanned[g + u]] = 1;
      }
    }
  }
  for (; g < scanned.size(); ++g) {
    const double* col = data.columns[scanned[g]].data();
    AndColumnMask(col, n, mask.data());
    if (spec_sums != nullptr) {
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) sum += col[i];
      (*spec_sums)[scanned[g]] = sum;
      (*spec_ok)[scanned[g]] = 1;
    }
  }
  return mask;
}

std::size_t PopCount(const std::vector<std::uint64_t>& mask) {
  std::size_t c = 0;
  for (std::uint64_t w : mask) c += static_cast<std::size_t>(std::popcount(w));
  return c;
}

/// Ascending indices of the set bits of `mask`.
std::vector<std::size_t> SetBitIndices(const std::vector<std::uint64_t>& mask,
                                       std::size_t count) {
  std::vector<std::size_t> rows;
  rows.reserve(count);
  for (std::size_t w = 0; w < mask.size(); ++w) {
    std::uint64_t bits = mask[w];
    while (bits != 0) {
      rows.push_back(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
  return rows;
}

/// Centered weighted cross-product matrix over the complete rows, blocked
/// and parallel. Every (a, b) entry is accumulated by exactly one
/// accumulator slab, over rows in ascending order, as
/// fma(w * da, db, acc) — the exact per-entry operation sequence of the
/// straight-line reference kernel and of every SIMD backend — so the
/// result is bitwise identical to the reference, to every backend, and
/// to any thread count.
///
/// Parallel structure (per row chunk): the centered panel is packed once
/// — in parallel, shared by every sweep task — then the upper-triangle
/// tile pairs are swept in contiguous *chunks* of pairs, so each pool
/// task amortizes its dispatch over dozens of microkernel calls instead
/// of one. Within a chunk, consecutive pairs sharing an A tile run
/// through the fused two-B-tile kernel, halving the broadcast traffic.
/// Neither chunking nor fusion touches per-entry accumulation order.
Matrix BlockedGram(const std::vector<DoubleSpan>& cols,
                   const std::vector<double>& weights,
                   const std::vector<std::size_t>& rows,
                   const std::vector<double>& means, ThreadPool* pool) {
  const std::size_t p = cols.size();
  const std::size_t m = rows.size();
  const bool weighted = !weights.empty();
  const std::size_t padded = (p + kTile - 1) / kTile * kTile;
  const std::size_t tiles = padded / kTile;
  const GramKernelFns& kernel = ActiveGramKernel();
  // All rows complete → the row list is the identity permutation and the
  // pack can stream columns contiguously instead of gathering.
  const bool dense_rows = !rows.empty() && rows.back() == m - 1;

  // Upper-triangle tile pairs; each owns its kTile x kTile accumulator
  // slab across all row chunks.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(tiles * (tiles + 1) / 2);
  for (std::size_t ta = 0; ta < tiles; ++ta) {
    for (std::size_t tb = ta; tb < tiles; ++tb) pairs.emplace_back(ta, tb);
  }
  // Scratch is thread_local and reused across calls: a fresh ~2 MB of
  // vectors per call costs more in page faults than the arithmetic they
  // hold (the serving layer recomputes stats per scenario epoch, PC
  // fuzz sweeps call Compute thousands of times). The accumulator must
  // be re-zeroed; the panels are fully overwritten by the pack.
  thread_local std::vector<double> acc_scratch;
  thread_local std::vector<double> bpanel_scratch;
  thread_local std::vector<double> apanel_scratch;
  std::vector<double>& acc = acc_scratch;
  acc.assign(pairs.size() * kTile * kTile, 0.0);

  // Chunk panels, packed tile-contiguous with zero padding: tile t's rows
  // occupy a dense count x kTile block, so the microkernel streams both
  // operands with unit stride. B holds centered values (x - mean), A
  // additionally scales by the row weight. Unweighted runs alias A to B
  // ((1.0 * da) == da bitwise).
  const std::size_t row_block =
      m * padded * sizeof(double) <= kOneBlockPanelBytes ? m : kRowBlock;
  std::vector<double>& bpanel = bpanel_scratch;
  bpanel.resize(row_block * padded);
  std::vector<double>& apanel = apanel_scratch;
  if (weighted) apanel.resize(row_block * padded);

  for (std::size_t start = 0; start < m; start += row_block) {
    const std::size_t count = std::min(row_block, m - start);
    const std::size_t tile_stride = count * kTile;
    // Parallel pack: contiguous column reads, one strided write stream
    // per column, disjoint destination slots. Grain 2 because a whole
    // tile is only ~2 us of work — ParallelFor's per-index pull heuristic
    // would run all 50 tiles on one worker.
    ParallelForRanges(pool, tiles, 2, [&](std::size_t t0, std::size_t t1) {
      for (std::size_t t = t0; t < t1; ++t) {
        if (dense_rows && !weighted) {
          // Hot path: hand the whole tile to the kernel's transpose-pack
          // (an in-register 8x8 on the vector backends). Padded lanes read
          // a shared zero column with mean 0 — 0.0 - 0.0 packs the same
          // 0.0 the guarded loop writes.
          thread_local std::vector<double> zeros;
          if (zeros.size() < count) zeros.assign(count, 0.0);
          const double* colptr[kTile];
          double mean8[kTile];
          for (std::size_t lane = 0; lane < kTile; ++lane) {
            const std::size_t v = t * kTile + lane;
            if (v < p) {
              colptr[lane] = cols[v].data() + start;
              mean8[lane] = means[v];
            } else {
              colptr[lane] = zeros.data();
              mean8[lane] = 0.0;
            }
          }
          kernel.pack_tile(colptr, mean8, count,
                           bpanel.data() + t * tile_stride);
          continue;
        }
        for (std::size_t lane = 0; lane < kTile; ++lane) {
          const std::size_t v = t * kTile + lane;
          double* dst = bpanel.data() + t * tile_stride + lane;
          if (v >= p) {
            for (std::size_t i = 0; i < count; ++i) dst[i * kTile] = 0.0;
            if (weighted) {
              double* wdst = apanel.data() + t * tile_stride + lane;
              for (std::size_t i = 0; i < count; ++i) wdst[i * kTile] = 0.0;
            }
            continue;
          }
          const DoubleSpan& col = cols[v];
          const double mv = means[v];
          if (dense_rows) {
            const double* src = col.data() + start;
            for (std::size_t i = 0; i < count; ++i) {
              dst[i * kTile] = src[i] - mv;
            }
          } else {
            for (std::size_t i = 0; i < count; ++i) {
              dst[i * kTile] = col[rows[start + i]] - mv;
            }
          }
          if (weighted) {
            double* wdst = apanel.data() + t * tile_stride + lane;
            if (dense_rows) {
              const double* wsrc = weights.data() + start;
              for (std::size_t i = 0; i < count; ++i) {
                wdst[i * kTile] = wsrc[i] * dst[i * kTile];
              }
            } else {
              for (std::size_t i = 0; i < count; ++i) {
                wdst[i * kTile] = weights[rows[start + i]] * dst[i * kTile];
              }
            }
          }
        }
      }
    });
    const double* a_base = weighted ? apanel.data() : bpanel.data();
    const double* b_base = bpanel.data();
    ParallelForRanges(
        pool, pairs.size(), 16, [&](std::size_t q0, std::size_t q1) {
          std::size_t q = q0;
          while (q < q1) {
            const double* a_tile = a_base + pairs[q].first * tile_stride;
            if (q + 1 < q1 && pairs[q + 1].first == pairs[q].first) {
              kernel.tile2(a_tile,
                           b_base + pairs[q].second * tile_stride,
                           b_base + pairs[q + 1].second * tile_stride, count,
                           acc.data() + q * kTile * kTile,
                           acc.data() + (q + 1) * kTile * kTile);
              q += 2;
            } else {
              kernel.tile(a_tile, b_base + pairs[q].second * tile_stride,
                          count, acc.data() + q * kTile * kTile);
              q += 1;
            }
          }
        });
  }

  // Scatter the tile slabs into the symmetric matrix; padded lanes and
  // the sub-diagonal halves of diagonal tiles are discarded. Pairs
  // (ta, ta..tiles-1) sit contiguously in `acc`, so each global row `a`
  // streams its upper-triangle entries left to right in one contiguous
  // write run; the lower triangle is mirrored afterwards in cache-blocked
  // bands (pure copies — order is irrelevant to the bits).
  Matrix sxx = Matrix::Uninitialized(p, p);  // every entry written below
  std::vector<std::size_t> row_q0(tiles);
  for (std::size_t ta = 0, q0 = 0; ta < tiles; ++ta) {
    row_q0[ta] = q0;
    q0 += tiles - ta;
  }
  ParallelForRanges(pool, tiles, 8, [&](std::size_t t0, std::size_t t1) {
    for (std::size_t ta = t0; ta < t1; ++ta) {
      const std::size_t nb = tiles - ta;
      const std::size_t xmax = std::min(kTile, p - ta * kTile);
      for (std::size_t x = 0; x < xmax; ++x) {
        const std::size_t a = ta * kTile + x;
        double* row = sxx.Row(a);
        const double* slab_x =
            acc.data() + row_q0[ta] * kTile * kTile + x * kTile;
        for (std::size_t j = 0; j < nb; ++j) {
          const double* sx = slab_x + j * kTile * kTile;
          const std::size_t b0 = (ta + j) * kTile;
          const std::size_t ylo = j == 0 ? x : 0;
          const std::size_t yhi = std::min(kTile, p - b0);
          for (std::size_t y = ylo; y < yhi; ++y) row[b0 + y] = sx[y];
        }
      }
    }
  });
  // Mirror the lower triangle: strided reads over a 64-row band stay
  // cache-resident while the writes run contiguous. Bands write disjoint
  // column ranges, so they parallelize cleanly.
  constexpr std::size_t kMirrorBlock = 64;
  const std::size_t bands = (p + kMirrorBlock - 1) / kMirrorBlock;
  ParallelForRanges(pool, bands, 2, [&](std::size_t g0, std::size_t g1) {
    for (std::size_t g = g0; g < g1; ++g) {
      const std::size_t i0 = g * kMirrorBlock;
      const std::size_t i1 = std::min(i0 + kMirrorBlock, p);
      for (std::size_t j = i0 + 1; j < p; ++j) {
        double* rj = sxx.Row(j);
        const std::size_t end = std::min(i1, j);
        for (std::size_t i = i0; i < end; ++i) rj[i] = sxx.Row(i)[j];
      }
    }
  });
  return sxx;
}

/// Normal-equations solve with the LeastSquares ridge policy: tiny ridge,
/// then a stronger retry for collinear systems.
Result<std::vector<double>> SolveRidged(Matrix a,
                                        const std::vector<double>& b) {
  for (std::size_t d = 0; d < a.rows(); ++d) a(d, d) += 1e-9;
  auto sol = CholeskySolve(a, b);
  if (sol.ok()) return sol;
  for (std::size_t d = 0; d < a.rows(); ++d) a(d, d) += 1e-6;
  return CholeskySolve(a, b);
}

}  // namespace

Result<SufficientStats> SufficientStats::Compute(const NumericDataset& data,
                                                 ThreadPool* pool) {
  const std::size_t p = data.num_vars();
  if (p == 0) return Status::InvalidArgument("no variables");
  for (const auto& col : data.columns) {
    if (col.size() != data.num_rows()) {
      return Status::InvalidArgument("ragged dataset");
    }
  }
  if (!data.weights.empty() && data.weights.size() != data.num_rows()) {
    return Status::InvalidArgument("weights size mismatch");
  }

  SufficientStats s;
  s.columns_ = data.columns;
  s.weights_ = data.weights;
  s.num_rows_ = data.num_rows();

  std::vector<double> spec_sums(p, 0.0);
  std::vector<char> spec_ok(p, 0);
  const bool want_spec = data.weights.empty();
  s.mask_ = BuildMask(data, want_spec ? &spec_sums : nullptr,
                      want_spec ? &spec_ok : nullptr);
  s.complete_rows_ = PopCount(s.mask_);
  if (s.complete_rows_ < 2) {
    return Status::FailedPrecondition("fewer than 2 complete rows");
  }
  const auto rows = SetBitIndices(s.mask_, s.complete_rows_);

  if (s.weights_.empty()) {
    // Sequential += 1.0 is exact for any realistic row count, so the
    // popcount equals the reference kernel's accumulated weight sum.
    s.wsum_ = static_cast<double>(s.complete_rows_);
  } else {
    double w = 0.0;
    for (std::size_t r : rows) w += s.weights_[r];
    s.wsum_ = w;
  }
  if (s.wsum_ <= 0) return Status::InvalidArgument("weights sum to zero");

  s.col_sums_.assign(p, 0.0);
  s.means_.assign(p, 0.0);
  // When every row is complete, the speculative full-column sums from the
  // mask scan ARE the complete-row sums (same ascending adds) — the whole
  // pass below degenerates to a division per column.
  const bool all_complete = s.complete_rows_ == s.num_rows_;

  ParallelFor(pool, p, [&](std::size_t v) {
    const DoubleSpan& col = s.columns_[v];
    double mv = 0.0;
    if (all_complete && spec_ok[v]) {
      mv = spec_sums[v];
    } else if (s.weights_.empty()) {
      for (std::size_t r : rows) mv += col[r];
    } else {
      for (std::size_t r : rows) mv += s.weights_[r] * col[r];
    }
    s.col_sums_[v] = mv;
    s.means_[v] = mv / s.wsum_;
  });

  s.sxx_ = BlockedGram(s.columns_, s.weights_, rows, s.means_, pool);
  return s;
}

Matrix SufficientStats::Covariance() const {
  const std::size_t p = num_vars();
  const double denom = std::max(1.0, wsum_ - 1.0);

  // S is bitwise symmetric (the mirror is a copy), so dividing full rows
  // yields the same bits as divide-upper-then-mirror — and each row is
  // one contiguous vector divide with no strided writes.
  const GramKernelFns& kernel = ActiveGramKernel();
  Matrix cov = Matrix::Uninitialized(p, p);  // div_row writes full rows
  for (std::size_t a = 0; a < p; ++a) {
    kernel.div_row(sxx_.Row(a), denom, p, cov.Row(a));
  }
  return cov;
}

Matrix SufficientStats::Correlation() const {
  const std::size_t p = num_vars();

  // Derived straight from S without materializing Covariance(): var[a] is
  // exactly Covariance()'s diagonal (sxx/denom) and each entry evaluates
  // the identical expression (sxx(a,b)/denom) / sqrt(va*vb) on identical
  // operands, so the result is bitwise unchanged — this only skips a
  // p x p allocation and a full extra pass.
  const double denom = std::max(1.0, wsum_ - 1.0);
  std::vector<double> var(p);
  for (std::size_t a = 0; a < p; ++a) var[a] = sxx_.Row(a)[a] / denom;
  const GramKernelFns& kernel = ActiveGramKernel();
  Matrix corr = Matrix::Uninitialized(p, p);  // diag + upper + mirror cover all
  for (std::size_t a = 0; a < p; ++a) {
    double* ra = corr.Row(a);
    ra[a] = 1.0;
    if (a + 1 < p) {
      kernel.corr_row(sxx_.Row(a) + a + 1, var.data() + a + 1, var[a], denom,
                      p - a - 1, ra + a + 1);
    }
  }
  // Mirror the lower triangle in cache-blocked passes: strided reads over
  // a 64-row band stay resident while the writes run contiguous.
  constexpr std::size_t kMirrorBlock = 64;
  for (std::size_t i0 = 0; i0 < p; i0 += kMirrorBlock) {
    const std::size_t i1 = std::min(i0 + kMirrorBlock, p);
    for (std::size_t j = i0 + 1; j < p; ++j) {
      double* rj = corr.Row(j);
      const std::size_t end = std::min(i1, j);
      for (std::size_t i = i0; i < end; ++i) rj[i] = corr.Row(i)[j];
    }
  }
  return corr;
}

Status SufficientStats::AppendRows(const std::vector<DoubleSpan>& cols,
                                   std::size_t new_rows,
                                   const std::vector<double>& weights,
                                   ThreadPool* pool) {
  if (columns_.empty()) {
    return Status::FailedPrecondition("append to empty SufficientStats");
  }
  if (cols.size() != columns_.size()) {
    return Status::InvalidArgument(
        "AppendRows got " + std::to_string(cols.size()) +
        " columns, statistics have " + std::to_string(columns_.size()));
  }
  const std::size_t total = num_rows_ + new_rows;
  for (const auto& col : cols) {
    if (col.size() != total) return Status::InvalidArgument("ragged dataset");
  }
  if (weighted() != !weights.empty()) {
    return Status::InvalidArgument(
        weighted() ? "weighted statistics need the full weight vector"
                   : "unweighted statistics got weights");
  }
  if (!weights.empty() && weights.size() != total) {
    return Status::InvalidArgument("weights size mismatch");
  }

  // Extend the complete-row mask: words before the one containing row
  // num_rows_ are untouched; the boundary word's low (old) bits recompute
  // to their existing values because the prefix is value-identical, so
  // rebuilding tail words from the full columns splices exactly what
  // BuildMask over the concatenated dataset would produce.
  std::vector<std::uint64_t> mask = mask_;
  const std::size_t words = WordCount(total);
  mask.resize(words, 0);
  for (std::size_t w = num_rows_ / 64; w < words; ++w) {
    const std::size_t base = w * 64;
    const std::size_t len = std::min<std::size_t>(64, total - base);
    std::uint64_t bits =
        len == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1;
    for (const auto& col : cols) {
      if (bits == 0) break;
      bits &= PresentBitsWord(col.data() + base, len);
    }
    mask[w] = bits;
  }

  // Complete rows in the appended region only (ascending) — the rows
  // Compute's sequential scans would visit after the old prefix.
  std::vector<std::size_t> fresh;
  for (std::size_t w = num_rows_ / 64; w < words; ++w) {
    std::uint64_t bits = mask[w];
    while (bits != 0) {
      const std::size_t r =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      if (r >= num_rows_) fresh.push_back(r);
    }
  }

  const std::size_t complete = complete_rows_ + fresh.size();
  double wsum = wsum_;
  if (weights.empty()) {
    wsum = static_cast<double>(complete);
  } else {
    for (std::size_t r : fresh) wsum += weights[r];
    if (wsum <= 0) return Status::InvalidArgument("weights sum to zero");
  }

  if (fresh.empty()) {
    // No new complete row: means and S cannot move. Adopt the re-borrowed
    // spans and the extended mask; skip the Gram sweep.
    columns_ = cols;
    weights_ = weights;
    mask_ = std::move(mask);
    num_rows_ = total;
    last_append_incremental_ = true;
    return Status::OK();
  }

  // Continue the pre-division column sums over the fresh rows, then
  // re-derive every mean with the new weight sum — the same sequential
  // accumulation and single division Compute performs over the full data.
  const std::size_t p = columns_.size();
  std::vector<double> sums = col_sums_;
  std::vector<double> means(p);
  ParallelFor(pool, p, [&](std::size_t v) {
    const DoubleSpan& col = cols[v];
    double mv = sums[v];
    if (weights.empty()) {
      for (std::size_t r : fresh) mv += col[r];
    } else {
      for (std::size_t r : fresh) mv += weights[r] * col[r];
    }
    sums[v] = mv;
    means[v] = mv / wsum;
  });

  // The means moved, so every centered entry's accumulation sequence
  // changed: re-sweep the Gram over the full complete-row set. Bitwise
  // identical to Compute by the kernel's determinism.
  const auto rows = SetBitIndices(mask, complete);
  Matrix sxx = BlockedGram(cols, weights, rows, means, pool);

  columns_ = cols;
  weights_ = weights;
  mask_ = std::move(mask);
  num_rows_ = total;
  complete_rows_ = complete;
  wsum_ = wsum;
  col_sums_ = std::move(sums);
  means_ = std::move(means);
  sxx_ = std::move(sxx);
  last_append_incremental_ = false;
  return Status::OK();
}

Result<double> SufficientStats::GaussianBicLocal(
    std::size_t target, const std::vector<std::size_t>& parents) const {
  const std::size_t p = num_vars();
  if (target >= p) return Status::InvalidArgument("bad target index");
  for (std::size_t pa : parents) {
    if (pa >= p || pa == target) {
      return Status::InvalidArgument("bad parent index");
    }
  }
  if (complete_rows_ < parents.size() + 3) {
    return Status::FailedPrecondition("too few rows for BIC");
  }
  double rss;
  if (parents.empty()) {
    // S(t, t) accumulates (v - m)^2 over complete rows in ascending order
    // — bitwise the legacy GaussianBicLocalScore residual sum.
    rss = sxx_(target, target);
  } else {
    std::vector<double> spy(parents.size());
    for (std::size_t j = 0; j < parents.size(); ++j) {
      spy[j] = sxx_(parents[j], target);
    }
    CDI_ASSIGN_OR_RETURN(std::vector<double> beta,
                         SolveRidged(sxx_.Submatrix(parents), spy));
    double fitted = 0.0;
    for (std::size_t j = 0; j < beta.size(); ++j) fitted += beta[j] * spy[j];
    rss = sxx_(target, target) - fitted;
    // Cancellation near a perfect fit can leave a tiny negative residual.
    if (!(rss > 0.0)) rss = 0.0;
  }
  const double nn = static_cast<double>(complete_rows_);
  const double sigma2 = std::max(rss / nn, 1e-12);
  const double neg2_loglik = nn * std::log(2.0 * M_PI * sigma2) + nn;
  return neg2_loglik +
         std::log(nn) * (static_cast<double>(parents.size()) + 2.0);
}

Result<Matrix> ReferenceCovarianceMatrix(const NumericDataset& data) {
  const std::size_t p = data.num_vars();
  if (p == 0) return Status::InvalidArgument("no variables");
  for (const auto& col : data.columns) {
    if (col.size() != data.num_rows()) {
      return Status::InvalidArgument("ragged dataset");
    }
  }
  if (!data.weights.empty() && data.weights.size() != data.num_rows()) {
    return Status::InvalidArgument("weights size mismatch");
  }
  std::vector<std::size_t> rows;
  const std::size_t n = data.num_rows();
  for (std::size_t r = 0; r < n; ++r) {
    bool ok = true;
    for (const auto& col : data.columns) {
      if (std::isnan(col[r])) {
        ok = false;
        break;
      }
    }
    if (ok) rows.push_back(r);
  }
  if (rows.size() < 2) {
    return Status::FailedPrecondition("fewer than 2 complete rows");
  }
  std::vector<double> mean(p, 0.0);
  double wsum = 0;
  for (std::size_t r : rows) {
    const double w = data.weights.empty() ? 1.0 : data.weights[r];
    wsum += w;
    for (std::size_t v = 0; v < p; ++v) mean[v] += w * data.columns[v][r];
  }
  if (wsum <= 0) return Status::InvalidArgument("weights sum to zero");
  for (double& m : mean) m /= wsum;

  Matrix cov(p, p);
  for (std::size_t r : rows) {
    for (std::size_t a = 0; a < p; ++a) {
      const double da = data.columns[a][r] - mean[a];
      // Weighted side pre-scaled, then one *fused* multiply-add per
      // entry — the per-entry operation sequence the blocked kernel's
      // backends implement, making this the bitwise reference for all
      // of them. Unweighted data skips the scale entirely, matching the
      // kernel's panel aliasing.
      const double wda =
          data.weights.empty() ? da : data.weights[r] * da;
      for (std::size_t b = a; b < p; ++b) {
        cov(a, b) =
            std::fma(wda, data.columns[b][r] - mean[b], cov(a, b));
      }
    }
  }
  const double denom = std::max(1.0, wsum - 1.0);
  for (std::size_t a = 0; a < p; ++a) {
    for (std::size_t b = a; b < p; ++b) {
      cov(a, b) /= denom;
      cov(b, a) = cov(a, b);
    }
  }
  return cov;
}

std::size_t CompleteRowCount(const NumericDataset& data) {
  // Word-at-a-time AND over the columns' present bits, counting as we go —
  // no index vector, no mask buffer. Rows past a short (ragged) column are
  // treated as incomplete.
  std::size_t n = data.num_rows();
  for (const auto& col : data.columns) n = std::min(n, col.size());
  std::size_t count = 0;
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t len = std::min<std::size_t>(64, n - base);
    std::uint64_t bits =
        len == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1;
    for (std::size_t v = 0; v < data.columns.size() && bits != 0; ++v) {
      const std::uint64_t* nulls =
          v < data.null_words.size() ? data.null_words[v] : nullptr;
      if (nulls != nullptr) {
        bits &= ~nulls[base / 64];
      } else {
        bits &= PresentBitsWord(data.columns[v].data() + base, len);
      }
    }
    count += static_cast<std::size_t>(std::popcount(bits));
  }
  return count;
}

}  // namespace cdi::stats
