// Portable reference backend. Every reduction walks the fixed 4-lane virtual
// accumulator explicitly (see KernelTable in kernels.h): lane l sums indices
// i ≡ l (mod 4), tails land in lane i mod 4, and the final combine is always
// (lane0 + lane1) + (lane2 + lane3). The vector backends realize the same
// arithmetic sequence with one register, which is what makes the backends
// bit-identical. This translation unit compiles with -ffp-contract=off and
// -fno-tree-vectorize (see src/simd/CMakeLists.txt): no fused multiply-adds,
// and benchmarks against it measure a true scalar baseline.

#include "simd/kernels.h"

#include <cstdint>
#include <limits>
#include <vector>

namespace kshape::simd {

namespace {

inline double Reduce4(const double acc[4]) {
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

double SumScalar(const double* x, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc[0] += x[i];
    acc[1] += x[i + 1];
    acc[2] += x[i + 2];
    acc[3] += x[i + 3];
  }
  for (; i < n; ++i) acc[i & 3] += x[i];
  return Reduce4(acc);
}

double SumSquaresScalar(const double* x, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc[0] += x[i] * x[i];
    acc[1] += x[i + 1] * x[i + 1];
    acc[2] += x[i + 2] * x[i + 2];
    acc[3] += x[i + 3] * x[i + 3];
  }
  for (; i < n; ++i) acc[i & 3] += x[i] * x[i];
  return Reduce4(acc);
}

MeanVar MeanVarScalar(const double* x, std::size_t n) {
  MeanVar mv;
  mv.mean = SumScalar(x, n) / static_cast<double>(n);
  const double mu = mv.mean;
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = x[i] - mu;
    const double d1 = x[i + 1] - mu;
    const double d2 = x[i + 2] - mu;
    const double d3 = x[i + 3] - mu;
    acc[0] += d0 * d0;
    acc[1] += d1 * d1;
    acc[2] += d2 * d2;
    acc[3] += d3 * d3;
  }
  for (; i < n; ++i) {
    const double d = x[i] - mu;
    acc[i & 3] += d * d;
  }
  mv.variance = Reduce4(acc) / static_cast<double>(n);
  return mv;
}

double DotScalar(const double* x, const double* y, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc[0] += x[i] * y[i];
    acc[1] += x[i + 1] * y[i + 1];
    acc[2] += x[i + 2] * y[i + 2];
    acc[3] += x[i + 3] * y[i + 3];
  }
  for (; i < n; ++i) acc[i & 3] += x[i] * y[i];
  return Reduce4(acc);
}

double SquaredEdScalar(const double* x, const double* y, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = x[i] - y[i];
    const double d1 = x[i + 1] - y[i + 1];
    const double d2 = x[i + 2] - y[i + 2];
    const double d3 = x[i + 3] - y[i + 3];
    acc[0] += d0 * d0;
    acc[1] += d1 * d1;
    acc[2] += d2 * d2;
    acc[3] += d3 * d3;
  }
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    acc[i & 3] += d * d;
  }
  return Reduce4(acc);
}

double SquaredEdAbandonScalar(const double* x, const double* y, std::size_t n,
                              double threshold) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  // Fixed 16-element checkpoint cadence shared by every backend: the running
  // 4-lane total is compared (not fed back), so an abandoning call returns
  // the identical partial sum regardless of backend.
  while (i + 16 <= n) {
    const std::size_t stop = i + 16;
    for (; i < stop; i += 4) {
      const double d0 = x[i] - y[i];
      const double d1 = x[i + 1] - y[i + 1];
      const double d2 = x[i + 2] - y[i + 2];
      const double d3 = x[i + 3] - y[i + 3];
      acc[0] += d0 * d0;
      acc[1] += d1 * d1;
      acc[2] += d2 * d2;
      acc[3] += d3 * d3;
    }
    const double total = Reduce4(acc);
    if (total >= threshold) return total;
  }
  for (; i + 4 <= n; i += 4) {
    const double d0 = x[i] - y[i];
    const double d1 = x[i + 1] - y[i + 1];
    const double d2 = x[i + 2] - y[i + 2];
    const double d3 = x[i + 3] - y[i + 3];
    acc[0] += d0 * d0;
    acc[1] += d1 * d1;
    acc[2] += d2 * d2;
    acc[3] += d3 * d3;
  }
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    acc[i & 3] += d * d;
  }
  return Reduce4(acc);
}

double LbKeoghSquaredScalar(const double* c, const double* lower,
                            const double* upper, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  // Per element: du = max(c-upper, 0), dl = max(lower-c, 0); exactly one of
  // the two squares is nonzero outside the envelope, both are +0 inside, so
  // acc += (du*du + dl*dl) adds the same value the branching legacy loop did.
  auto term = [&](std::size_t k) {
    double du = c[k] - upper[k];
    du = du > 0.0 ? du : 0.0;
    double dl = lower[k] - c[k];
    dl = dl > 0.0 ? dl : 0.0;
    return du * du + dl * dl;
  };
  for (; i + 4 <= n; i += 4) {
    acc[0] += term(i);
    acc[1] += term(i + 1);
    acc[2] += term(i + 2);
    acc[3] += term(i + 3);
  }
  for (; i < n; ++i) acc[i & 3] += term(i);
  return Reduce4(acc);
}

void ComplexMulConjScalar(const double* a, const double* b, double* out,
                          std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = a[2 * k];
    const double ai = a[2 * k + 1];
    const double br = b[2 * k];
    const double bi = b[2 * k + 1];
    out[2 * k] = ar * br + ai * bi;
    out[2 * k + 1] = ai * br - ar * bi;
  }
}

void ComplexMulConjSoaScalar(const double* a_re, const double* a_im,
                             const double* b_re, const double* b_im,
                             double* out_re, double* out_im, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = a_re[k];
    const double ai = a_im[k];
    const double br = b_re[k];
    const double bi = b_im[k];
    out_re[k] = ar * br + ai * bi;
    out_im[k] = ai * br - ar * bi;
  }
}

Peak PeakScanScalar(const double* x, std::size_t n) {
  // Lane l starts from its first element x[l] (index l) and keeps the lowest
  // index of its lane maximum under a strict-greater scan; lanes past the end
  // of a short input can never win the combine.
  double bv[4];
  std::size_t bi[4];
  const std::size_t lead = n < 4 ? n : 4;
  for (std::size_t l = 0; l < 4; ++l) {
    bv[l] = l < lead ? x[l] : -std::numeric_limits<double>::infinity();
    bi[l] = l < lead ? l : std::numeric_limits<std::size_t>::max();
  }
  std::size_t i = 4;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      if (x[i + l] > bv[l]) {
        bv[l] = x[i + l];
        bi[l] = i + l;
      }
    }
  }
  for (; i < n; ++i) {
    const std::size_t l = i & 3;
    if (x[i] > bv[l]) {
      bv[l] = x[i];
      bi[l] = i;
    }
  }
  Peak peak;
  peak.value = bv[0];
  peak.index = bi[0];
  for (std::size_t l = 1; l < 4; ++l) {
    if (bv[l] > peak.value ||
        (bv[l] == peak.value && bi[l] < peak.index)) {
      peak.value = bv[l];
      peak.index = bi[l];
    }
  }
  return peak;
}

void AxpyScalar(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void ScaleScalar(double* x, double s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= s;
}

void ApplyZNormScalar(double* x, std::size_t n, double mean,
                      double inv_stddev) {
  for (std::size_t i = 0; i < n; ++i) x[i] = (x[i] - mean) * inv_stddev;
}

void DtwRowScalar(const double* prev_jm1, const double* y_jm1, double xi,
                  double left_seed, double* cur, std::size_t count) {
  // Fused form of the banded recurrence; per element every operation is a
  // single rounding (or exact, for min), so the split precompute+combine the
  // vector backends use produces the identical row.
  double left = left_seed;
  for (std::size_t t = 0; t < count; ++t) {
    const double d = xi - y_jm1[t];
    const double e =
        prev_jm1[t] < prev_jm1[t + 1] ? prev_jm1[t] : prev_jm1[t + 1];
    const double best = e < left ? e : left;
    left = d * d + best;
    cur[t] = left;
  }
}

double AbsProductPartialSumsScalar(const double* a_mag, const double* b_mag,
                                   const double* a_tail, const double* b_tail,
                                   std::size_t n, double threshold) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  // The squared_ed_abandon cadence: a horizontal reduce every 16 elements,
  // compared (never fed back), so both exits return the identical value in
  // every backend. Exit order is fixed by the KernelTable contract: the
  // cannot-abandon check first, then the Cauchy–Schwarz abandon bound.
  while (i + 16 <= n) {
    const std::size_t stop = i + 16;
    for (; i < stop; i += 4) {
      acc[0] += a_mag[i] * b_mag[i];
      acc[1] += a_mag[i + 1] * b_mag[i + 1];
      acc[2] += a_mag[i + 2] * b_mag[i + 2];
      acc[3] += a_mag[i + 3] * b_mag[i + 3];
    }
    const double total = Reduce4(acc);
    if (total >= threshold) return total;
    const double bound = total + a_tail[i / 16] * b_tail[i / 16];
    if (bound < threshold) return bound;
  }
  for (; i + 4 <= n; i += 4) {
    acc[0] += a_mag[i] * b_mag[i];
    acc[1] += a_mag[i + 1] * b_mag[i + 1];
    acc[2] += a_mag[i + 2] * b_mag[i + 2];
    acc[3] += a_mag[i + 3] * b_mag[i + 3];
  }
  for (; i < n; ++i) acc[i & 3] += a_mag[i] * b_mag[i];
  return Reduce4(acc);
}

// One radix-2 butterfly: v = x * w (each product rounded separately), then
// (u + v, u - v). `lo` and `hi` point at interleaved complexes.
inline void Butterfly(double* lo, double* hi, double wr, double wi) {
  const double ur = lo[0];
  const double ui = lo[1];
  const double xr = hi[0];
  const double xi = hi[1];
  const double vr = xr * wr - xi * wi;
  const double vi = xr * wi + xi * wr;
  lo[0] = ur + vr;
  lo[1] = ui + vi;
  hi[0] = ur - vr;
  hi[1] = ui - vi;
}

void Radix2StageScalar(double* data, const double* stage_tw, std::size_t n,
                       std::size_t len) {
  const std::size_t half = len / 2;
  for (std::size_t base = 0; base < n; base += len) {
    for (std::size_t j = 0; j < half; ++j) {
      Butterfly(data + 2 * (base + j), data + 2 * (base + j + half),
                stage_tw[2 * j], stage_tw[2 * j + 1]);
    }
  }
}

void Radix2StagePairScalar(double* data, const double* tw_len,
                           const double* tw_2len, std::size_t n,
                           std::size_t len) {
  const std::size_t half = len / 2;
  for (std::size_t base = 0; base < n; base += 2 * len) {
    for (std::size_t j = 0; j < half; ++j) {
      double* a = data + 2 * (base + j);
      double* b = a + 2 * half;
      double* c = a + 2 * len;
      double* d = c + 2 * half;
      Butterfly(a, b, tw_len[2 * j], tw_len[2 * j + 1]);
      Butterfly(c, d, tw_len[2 * j], tw_len[2 * j + 1]);
      Butterfly(a, c, tw_2len[2 * j], tw_2len[2 * j + 1]);
      Butterfly(b, d, tw_2len[2 * (j + half)], tw_2len[2 * (j + half) + 1]);
    }
  }
}

void DotAxpyRowsScalar(const double* rows, std::size_t num_rows,
                       std::size_t m, const double* u, double* out) {
  // Composition of the dot and axpy kernels per row: the dot walks the fixed
  // 4-lane accumulator, the axpy is elementwise, and both touch the row while
  // it is hot in cache — the "fused" in the name is a locality fusion, not an
  // arithmetic one (the axpy needs the finished dot).
  for (std::size_t r = 0; r < num_rows; ++r) {
    const double* x = rows + r * m;
    const double d = DotScalar(x, u, m);
    AxpyScalar(d, x, out, m);
  }
}

}  // namespace

const KernelTable& ScalarKernels() {
  static const KernelTable table = {
      "scalar",
      SumScalar,
      SumSquaresScalar,
      MeanVarScalar,
      DotScalar,
      SquaredEdScalar,
      SquaredEdAbandonScalar,
      LbKeoghSquaredScalar,
      ComplexMulConjScalar,
      ComplexMulConjSoaScalar,
      PeakScanScalar,
      AxpyScalar,
      ScaleScalar,
      ApplyZNormScalar,
      DtwRowScalar,
      AbsProductPartialSumsScalar,
      Radix2StageScalar,
      Radix2StagePairScalar,
      DotAxpyRowsScalar,
  };
  return table;
}

}  // namespace kshape::simd
