#ifndef KSHAPE_SIMD_KERNELS_H_
#define KSHAPE_SIMD_KERNELS_H_

#include <cstddef>

namespace kshape::simd {

/// Fused mean + population variance of one pass pair over a buffer.
struct MeanVar {
  double mean = 0.0;
  double variance = 0.0;
};

/// Maximum value and the lowest index attaining it (strict-greater scan).
struct Peak {
  double value = 0.0;
  std::size_t index = 0;
};

/// One vectorized-kernel backend. Every reduction kernel accumulates into a
/// **fixed 4-lane virtual accumulator**: lane `l` sums the terms at indices
/// `i ≡ l (mod 4)` in increasing order, tail elements land in lane `i mod 4`,
/// and the final reduction is always `(lane0 + lane1) + (lane2 + lane3)`.
/// One AVX2 register holds exactly four doubles, so the vector backend
/// realizes the same arithmetic sequence the scalar backend walks explicitly —
/// which is what makes results **bit-identical** across backends (and, with
/// the disjoint-write parallel patterns, across thread counts). Fused
/// multiply-add is never used: every product and sum is rounded separately in
/// every backend (the kernel translation units compile with
/// `-ffp-contract=off` so the compiler cannot fuse behind our back).
///
/// Elementwise kernels (axpy, scale, apply_znorm, complex_mul_conj,
/// complex_mul_conj_soa, dtw_row) have no cross-element reduction, so their
/// per-element rounding sequence is identical by construction.
struct KernelTable {
  /// Backend name for logs/benchmarks ("scalar", "avx2").
  const char* name;

  /// Σ x[i].
  double (*sum)(const double* x, std::size_t n);

  /// Σ x[i]^2.
  double (*sum_squares)(const double* x, std::size_t n);

  /// Fused z-normalization statistics: mean = Σx/n in one pass, then
  /// variance = Σ(x-mean)^2/n in a second pass over the same buffer.
  /// Requires n >= 1.
  MeanVar (*mean_var)(const double* x, std::size_t n);

  /// Σ x[i]*y[i].
  double (*dot)(const double* x, const double* y, std::size_t n);

  /// Σ (x[i]-y[i])^2.
  double (*squared_ed)(const double* x, const double* y, std::size_t n);

  /// Early-abandoning squared ED: accumulates like squared_ed but checks the
  /// running total against `threshold` every 16 elements (the same fixed
  /// cadence in every backend). Returns the full sum if it stayed below the
  /// threshold at every checkpoint, otherwise the partial sum at the
  /// abandoning checkpoint (which is >= threshold). Callers must treat any
  /// return >= threshold as "abandoned".
  double (*squared_ed_abandon)(const double* x, const double* y,
                               std::size_t n, double threshold);

  /// Σ of squared envelope violations: (c[i]-upper[i])^2 where c > upper,
  /// (lower[i]-c[i])^2 where c < lower, 0 inside the envelope. The square of
  /// LB_Keogh.
  double (*lb_keogh_squared)(const double* c, const double* lower,
                             const double* upper, std::size_t n);

  /// out[k] = a[k] * conj(b[k]) over n interleaved (re, im) complex doubles:
  /// re = a_re*b_re + a_im*b_im, im = a_im*b_re - a_re*b_im, each product
  /// rounded separately. `out` may not alias `a` or `b`.
  void (*complex_mul_conj)(const double* a, const double* b, double* out,
                           std::size_t n);

  /// SoA (split-plane) variant of complex_mul_conj over n complex values laid
  /// out as separate real and imaginary planes:
  ///   out_re[k] = a_re[k]*b_re[k] + a_im[k]*b_im[k]
  ///   out_im[k] = a_im[k]*b_re[k] - a_re[k]*b_im[k]
  /// The same per-element arithmetic as the interleaved kernel (each product
  /// rounded separately, no FMA), but every load/store is a plain contiguous
  /// vector op — no shuffles — which is what makes the half-spectrum product
  /// vectorize cleanly. Output planes may not alias the input planes.
  void (*complex_mul_conj_soa)(const double* a_re, const double* a_im,
                               const double* b_re, const double* b_im,
                               double* out_re, double* out_im, std::size_t n);

  /// Max + lowest-index argmax under a strict-greater scan (ties keep the
  /// earliest index, matching a sequential `if (x[i] > best)` loop exactly).
  /// Requires n >= 1.
  Peak (*peak_scan)(const double* x, std::size_t n);

  /// y[i] += a * x[i].
  void (*axpy)(double a, const double* x, double* y, std::size_t n);

  /// x[i] *= s.
  void (*scale)(double* x, double s, std::size_t n);

  /// x[i] = (x[i] - mean) * inv_stddev (the z-normalization apply pass).
  void (*apply_znorm)(double* x, std::size_t n, double mean,
                      double inv_stddev);

  /// One banded-DTW row combine. For t in [0, count):
  ///   cost   = (xi - y_jm1[t])^2
  ///   e      = min(prev_jm1[t], prev_jm1[t+1])
  ///   cur[t] = cost + min(e, cur[t-1])   with cur[-1] = left_seed.
  /// `prev_jm1`/`y_jm1` point at the j_lo-1 positions of the previous DP row
  /// and the y series; `cur` points at the j_lo position of the current row.
  /// The cur[t-1] recurrence is inherently serial; backends vectorize the
  /// cost/e precomputation and share the identical serial combine.
  void (*dtw_row)(const double* prev_jm1, const double* y_jm1, double xi,
                  double left_seed, double* cur, std::size_t count);

  /// Early-abandoning Σ a_mag[k]*b_mag[k] over nonnegative magnitude planes,
  /// with Cauchy–Schwarz tail bounds at the squared_ed_abandon checkpoint
  /// cadence. `a_tail`/`b_tail` hold per-checkpoint suffix norms:
  /// tail[c] >= sqrt(Σ_{k >= 16c} mag[k]^2), arrays of length
  /// floor(n/16) + 1. After each completed 16-element block (i = 16c
  /// elements consumed, c >= 1) the running 4-lane total S is reduced and,
  /// in this fixed order in every backend:
  ///   1. if S >= threshold, return S   (the true sum is >= S — terms are
  ///      nonnegative — so the caller can never abandon this candidate);
  ///   2. bound = S + a_tail[c]*b_tail[c] (one mul, one add, each rounded
  ///      separately); if bound < threshold, return bound (the true sum is
  ///      <= bound by Cauchy–Schwarz on the remaining suffix — abandon).
  /// If neither exit fires the kernel runs to completion and returns the
  /// exact dot product. Contract for callers: the candidate may be
  /// abandoned iff the returned value is < threshold; any return >=
  /// threshold proves nothing beyond "not abandonable at this threshold".
  double (*abs_product_partial_sums)(const double* a_mag, const double* b_mag,
                                     const double* a_tail,
                                     const double* b_tail, std::size_t n,
                                     double threshold);

  /// One radix-2 Cooley–Tukey butterfly stage over `n` interleaved (re, im)
  /// complex doubles, for block length `len` (a power of two, 2 <= len <= n).
  /// `stage_tw` is this stage's contiguous twiddle table of len/2 interleaved
  /// complexes, already in the transform's direction (the caller conjugates
  /// it for an inverse). For every block base (multiples of len) and j in
  /// [0, len/2):
  ///   w = stage_tw[j]
  ///   v = data[base+j+len/2] * w   (re = xr*wr - xi*wi, im = xr*wi + xi*wr,
  ///                                 every product rounded separately, no FMA)
  ///   data[base+j]       = u + v
  ///   data[base+j+len/2] = u - v
  /// Backends vectorize across adjacent j (u/v/w loads are contiguous complex
  /// pairs once len >= 4) and share the identical per-butterfly rounding
  /// sequence, so transforms are bit-identical across backends. At len == 2
  /// (w = 1 ± 0i) the AVX2 backend adds without the multiply while the scalar
  /// backend multiplies by stage_tw[0]; the two can differ only in the sign
  /// of an exact zero.
  void (*radix2_stage)(double* data, const double* stage_tw, std::size_t n,
                       std::size_t len);

  /// Stages `len` and `2*len` of the same transform in one pass (requires
  /// 2*len <= n): for every 2*len block and j in [0, len/2) the four complexes
  /// at offsets j, j+len/2, j+len, j+3len/2 are loaded once, run their two
  /// len-stage butterflies (twiddle tw_len[j]) and their two 2*len-stage
  /// butterflies (tw_2len[j] and tw_2len[j+len/2]) in registers, and are
  /// stored once. Every butterfly is the radix2_stage butterfly on the same
  /// inputs (including the len == 2 case of each backend), so the result is
  /// bit-identical to radix2_stage(len) followed by radix2_stage(2*len).
  void (*radix2_stage_pair)(double* data, const double* tw_len,
                            const double* tw_2len, std::size_t n,
                            std::size_t len);

  /// Fused member pass of the matrix-free shape-extraction matvec. For each
  /// row r in [0, num_rows) of the contiguous row-major pool `rows` (row r
  /// at rows + r*m), in increasing r:
  ///   d      = Σ_j rows[r*m+j] * u[j]   (the fixed 4-lane dot contract)
  ///   out[j] += d * rows[r*m+j]          (the elementwise axpy contract)
  /// Each row's axpy completes before the next row's dot, so the per-element
  /// accumulation order over rows is the plain sequential row order — one
  /// rounding per (row, element) pair, identical in every backend. `out` is
  /// accumulated into, not overwritten; `out` and `u` may not alias `rows`.
  void (*dot_axpy_rows)(const double* rows, std::size_t num_rows,
                        std::size_t m, const double* u, double* out);
};

/// The portable reference backend (plain C++, compiled without
/// auto-vectorization so benchmarks measure a true scalar baseline).
const KernelTable& ScalarKernels();

/// The x86 AVX2+FMA backend, or nullptr when the binary was built without it
/// or the CPU lacks AVX2/FMA. (FMA presence is part of the dispatch gate even
/// though the kernels never fuse — it keeps the backend set predictable on
/// every AVX2-era machine.)
const KernelTable* Avx2Kernels();

}  // namespace kshape::simd

#endif  // KSHAPE_SIMD_KERNELS_H_
