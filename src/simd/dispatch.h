#ifndef KSHAPE_SIMD_DISPATCH_H_
#define KSHAPE_SIMD_DISPATCH_H_

#include <cstddef>
#include <span>

#include "simd/kernels.h"

namespace kshape::simd {

/// Kernel backends selectable at runtime.
enum class Backend {
  kScalar,
  kAvx2,
};

/// The active kernel table. Resolved once, on first use:
///  - `KSHAPE_SIMD=scalar` forces the reference backend;
///  - `KSHAPE_SIMD=avx2` forces the AVX2 backend (aborts if the binary or the
///    CPU does not support it — a forced backend silently falling back would
///    defeat the point of forcing it);
///  - unset: the best backend the CPU supports (CPUID), scalar otherwise.
/// All backends produce bit-identical results (see KernelTable), so the
/// selection affects throughput only.
const KernelTable& Active();

/// Which backend Active() resolved to.
Backend ActiveBackend();

/// Name of the active backend ("scalar", "avx2").
const char* ActiveBackendName();

/// True when the AVX2 backend is compiled in and the CPU supports AVX2+FMA.
bool Avx2Available();

/// Replaces the active backend for the rest of the process. For tests and
/// benchmarks that compare backends within one run; aborts if the requested
/// backend is unavailable. Call from a single thread, before or between (not
/// during) parallel regions.
void SetBackendForTesting(Backend backend);

/// Table lookup by backend (aborts if unavailable). Lets tests and
/// benchmarks drive a specific backend without changing the process-wide
/// dispatch state.
const KernelTable& Kernels(Backend backend);

// ---------------------------------------------------------------------------
// Convenience wrappers over the active table. Span overloads assert nothing:
// callers own the length/emptiness contracts documented in KernelTable.
// ---------------------------------------------------------------------------

inline double Sum(std::span<const double> x) {
  return Active().sum(x.data(), x.size());
}

inline double SumSquares(std::span<const double> x) {
  return Active().sum_squares(x.data(), x.size());
}

inline MeanVar MeanVariance(std::span<const double> x) {
  return Active().mean_var(x.data(), x.size());
}

inline double Dot(std::span<const double> x, std::span<const double> y) {
  return Active().dot(x.data(), y.data(), x.size());
}

inline double SquaredEd(std::span<const double> x,
                        std::span<const double> y) {
  return Active().squared_ed(x.data(), y.data(), x.size());
}

inline double SquaredEdAbandon(std::span<const double> x,
                               std::span<const double> y, double threshold) {
  return Active().squared_ed_abandon(x.data(), y.data(), x.size(), threshold);
}

inline double LbKeoghSquared(std::span<const double> candidate,
                             std::span<const double> lower,
                             std::span<const double> upper) {
  return Active().lb_keogh_squared(candidate.data(), lower.data(),
                                   upper.data(), candidate.size());
}

inline void ComplexMulConjSoa(std::span<const double> a_re,
                              std::span<const double> a_im,
                              std::span<const double> b_re,
                              std::span<const double> b_im,
                              std::span<double> out_re,
                              std::span<double> out_im) {
  Active().complex_mul_conj_soa(a_re.data(), a_im.data(), b_re.data(),
                                b_im.data(), out_re.data(), out_im.data(),
                                a_re.size());
}

inline Peak PeakScan(std::span<const double> x) {
  return Active().peak_scan(x.data(), x.size());
}

inline void Axpy(double a, std::span<const double> x, std::span<double> y) {
  Active().axpy(a, x.data(), y.data(), x.size());
}

inline void Scale(std::span<double> x, double s) {
  Active().scale(x.data(), s, x.size());
}

inline void ApplyZNorm(std::span<double> x, double mean, double inv_stddev) {
  Active().apply_znorm(x.data(), x.size(), mean, inv_stddev);
}

inline void DtwRow(const double* prev_jm1, const double* y_jm1, double xi,
                   double left_seed, double* cur, std::size_t count) {
  Active().dtw_row(prev_jm1, y_jm1, xi, left_seed, cur, count);
}

inline double AbsProductPartialSums(std::span<const double> a_mag,
                                    std::span<const double> b_mag,
                                    std::span<const double> a_tail,
                                    std::span<const double> b_tail,
                                    double threshold) {
  return Active().abs_product_partial_sums(a_mag.data(), b_mag.data(),
                                           a_tail.data(), b_tail.data(),
                                           a_mag.size(), threshold);
}

inline void DotAxpyRows(const double* rows, std::size_t num_rows,
                        std::size_t m, std::span<const double> u,
                        std::span<double> out) {
  Active().dot_axpy_rows(rows, num_rows, m, u.data(), out.data());
}

}  // namespace kshape::simd

#endif  // KSHAPE_SIMD_DISPATCH_H_
