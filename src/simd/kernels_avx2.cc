// x86 AVX2 backend. One 256-bit register holds exactly the four lanes of the
// fixed virtual-accumulator contract (kernels.h), so a vertical vector add
// per 4-element block walks the identical arithmetic sequence the scalar
// backend walks lane by lane; tails fold into the extracted lane array at
// index i mod 4, and the final combine is the shared (l0+l1)+(l2+l3). No
// fused multiply-adds anywhere — multiplies and adds round separately, and
// this translation unit compiles with -ffp-contract=off so the compiler
// cannot fuse them either. The FMA CPUID bit still gates dispatch (every
// AVX2-era part has it; keeping the gate makes the backend set predictable).
//
// Compiled with -mavx2 -mfma on x86 only; elsewhere this file provides the
// nullptr stub and the dispatcher falls back to the scalar backend.

#include "simd/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace kshape::simd {

namespace {

inline double Reduce4(__m256d acc) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

double SumAvx2(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) lanes[i & 3] += x[i];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

double SumSquaresAvx2(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) lanes[i & 3] += x[i] * x[i];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

MeanVar MeanVarAvx2(const double* x, std::size_t n) {
  MeanVar mv;
  mv.mean = SumAvx2(x, n) / static_cast<double>(n);
  const __m256d vmu = _mm256_set1_pd(mv.mean);
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + i), vmu);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) {
    const double d = x[i] - mv.mean;
    lanes[i & 3] += d * d;
  }
  mv.variance =
      ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) / static_cast<double>(n);
  return mv;
}

double DotAvx2(const double* x, const double* y, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) lanes[i & 3] += x[i] * y[i];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

double SquaredEdAvx2(const double* x, const double* y, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    lanes[i & 3] += d * d;
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

double SquaredEdAbandonAvx2(const double* x, const double* y, std::size_t n,
                            double threshold) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  // Same 16-element checkpoint cadence as the scalar backend; the horizontal
  // reduce is compared against the threshold, never accumulated back.
  while (i + 16 <= n) {
    const std::size_t stop = i + 16;
    for (; i < stop; i += 4) {
      const __m256d d =
          _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    const double total = Reduce4(acc);
    if (total >= threshold) return total;
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    lanes[i & 3] += d * d;
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

double LbKeoghSquaredAvx2(const double* c, const double* lower,
                          const double* upper, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vc = _mm256_loadu_pd(c + i);
    // max(v, 0) with the zero as the second operand matches the scalar
    // `v > 0 ? v : 0` for -0.0 and NaN inputs (vmaxpd returns src2 then).
    const __m256d du =
        _mm256_max_pd(_mm256_sub_pd(vc, _mm256_loadu_pd(upper + i)), zero);
    const __m256d dl =
        _mm256_max_pd(_mm256_sub_pd(_mm256_loadu_pd(lower + i), vc), zero);
    acc = _mm256_add_pd(
        acc, _mm256_add_pd(_mm256_mul_pd(du, du), _mm256_mul_pd(dl, dl)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) {
    double du = c[i] - upper[i];
    du = du > 0.0 ? du : 0.0;
    double dl = lower[i] - c[i];
    dl = dl > 0.0 ? dl : 0.0;
    lanes[i & 3] += du * du + dl * dl;
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

void ComplexMulConjAvx2(const double* a, const double* b, double* out,
                        std::size_t n) {
  // -0.0 on the odd (imaginary) lanes only: set_pd takes lanes high-to-low.
  const __m256d odd_flip = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
  std::size_t k = 0;
  // Two interleaved complexes per iteration:
  //   re = ar*br + ai*bi,  im = ai*br - ar*bi
  // via t1 = [ar*br, ai*br], t2 = [ai*bi, ar*bi], then t1 + (t2 with the odd
  // lanes sign-flipped). A plain add (not _mm256_addsub_pd) on purpose: GCC
  // folds mul feeding addsub into vfmsubadd132pd even at -ffp-contract=off,
  // which fuses a rounding away and breaks bit-identity with scalar.
  for (; k + 2 <= n; k += 2) {
    const __m256d va = _mm256_loadu_pd(a + 2 * k);
    const __m256d vb = _mm256_loadu_pd(b + 2 * k);
    const __m256d b_re = _mm256_movedup_pd(vb);          // [br, br, ...]
    const __m256d b_im = _mm256_permute_pd(vb, 0xF);     // [bi, bi, ...]
    const __m256d a_sw = _mm256_permute_pd(va, 0x5);     // [ai, ar, ...]
    const __m256d t1 = _mm256_mul_pd(va, b_re);
    const __m256d t2 = _mm256_mul_pd(a_sw, b_im);
    _mm256_storeu_pd(out + 2 * k,
                     _mm256_add_pd(t1, _mm256_xor_pd(t2, odd_flip)));
  }
  for (; k < n; ++k) {
    const double ar = a[2 * k];
    const double ai = a[2 * k + 1];
    const double br = b[2 * k];
    const double bi = b[2 * k + 1];
    out[2 * k] = ar * br + ai * bi;
    out[2 * k + 1] = ai * br - ar * bi;
  }
}

void ComplexMulConjSoaAvx2(const double* a_re, const double* a_im,
                           const double* b_re, const double* b_im,
                           double* out_re, double* out_im, std::size_t n) {
  // Split planes make this pure vertical arithmetic — four complexes per
  // iteration with zero shuffles. Separate mul/add/sub (no FMA) keeps each
  // product rounded exactly as the scalar backend rounds it.
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d ar = _mm256_loadu_pd(a_re + k);
    const __m256d ai = _mm256_loadu_pd(a_im + k);
    const __m256d br = _mm256_loadu_pd(b_re + k);
    const __m256d bi = _mm256_loadu_pd(b_im + k);
    _mm256_storeu_pd(
        out_re + k,
        _mm256_add_pd(_mm256_mul_pd(ar, br), _mm256_mul_pd(ai, bi)));
    _mm256_storeu_pd(
        out_im + k,
        _mm256_sub_pd(_mm256_mul_pd(ai, br), _mm256_mul_pd(ar, bi)));
  }
  for (; k < n; ++k) {
    const double ar = a_re[k];
    const double ai = a_im[k];
    const double br = b_re[k];
    const double bi = b_im[k];
    out_re[k] = ar * br + ai * bi;
    out_im[k] = ai * br - ar * bi;
  }
}

Peak PeakScanAvx2(const double* x, std::size_t n) {
  // The peak is a max/argmax, not a rounded reduction: comparisons are exact,
  // so ANY index partition yields the sequential scan's result as long as
  // each partition keeps the lowest index of its own maximum (strict-greater
  // updates) and the final combine prefers the lowest index among equal
  // maxima — the globally-first maximum is necessarily its partition's
  // winner. That freedom lets this backend run TWO independent
  // (best, index) register pairs (eight candidates per iteration) to hide
  // the cmp->blend dependency latency that made a single 4-lane chain slower
  // than the branchy scalar scan.
  if (n < 8) {
    Peak peak;
    peak.value = x[0];
    peak.index = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (x[i] > peak.value) {
        peak.value = x[i];
        peak.index = i;
      }
    }
    return peak;
  }

  __m256d vbest0 = _mm256_loadu_pd(x);
  __m256d vbest1 = _mm256_loadu_pd(x + 4);
  __m256i vidx0 = _mm256_set_epi64x(3, 2, 1, 0);
  __m256i vidx1 = _mm256_set_epi64x(7, 6, 5, 4);
  __m256i viter0 = _mm256_set_epi64x(11, 10, 9, 8);
  __m256i viter1 = _mm256_set_epi64x(15, 14, 13, 12);
  const __m256i vstep = _mm256_set1_epi64x(8);
  std::size_t i = 8;
  for (; i + 8 <= n; i += 8) {
    const __m256d v0 = _mm256_loadu_pd(x + i);
    const __m256d v1 = _mm256_loadu_pd(x + i + 4);
    const __m256d gt0 = _mm256_cmp_pd(v0, vbest0, _CMP_GT_OQ);
    const __m256d gt1 = _mm256_cmp_pd(v1, vbest1, _CMP_GT_OQ);
    vbest0 = _mm256_blendv_pd(vbest0, v0, gt0);
    vbest1 = _mm256_blendv_pd(vbest1, v1, gt1);
    vidx0 = _mm256_castpd_si256(_mm256_blendv_pd(
        _mm256_castsi256_pd(vidx0), _mm256_castsi256_pd(viter0), gt0));
    vidx1 = _mm256_castpd_si256(_mm256_blendv_pd(
        _mm256_castsi256_pd(vidx1), _mm256_castsi256_pd(viter1), gt1));
    viter0 = _mm256_add_epi64(viter0, vstep);
    viter1 = _mm256_add_epi64(viter1, vstep);
  }
  alignas(32) double bv[8];
  alignas(32) std::int64_t bi[8];
  _mm256_store_pd(bv, vbest0);
  _mm256_store_pd(bv + 4, vbest1);
  _mm256_store_si256(reinterpret_cast<__m256i*>(bi), vidx0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(bi + 4), vidx1);
  for (; i < n; ++i) {
    const std::size_t l = i & 7;
    if (x[i] > bv[l]) {
      bv[l] = x[i];
      bi[l] = static_cast<std::int64_t>(i);
    }
  }
  Peak peak;
  peak.value = bv[0];
  peak.index = static_cast<std::size_t>(bi[0]);
  for (std::size_t l = 1; l < 8; ++l) {
    const std::size_t idx = static_cast<std::size_t>(bi[l]);
    if (bv[l] > peak.value || (bv[l] == peak.value && idx < peak.index)) {
      peak.value = bv[l];
      peak.index = idx;
    }
  }
  return peak;
}

void AxpyAvx2(double a, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), t));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void ScaleAvx2(double* x, double s, std::size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), vs));
  }
  for (; i < n; ++i) x[i] *= s;
}

void ApplyZNormAvx2(double* x, std::size_t n, double mean,
                    double inv_stddev) {
  const __m256d vmu = _mm256_set1_pd(mean);
  const __m256d vinv = _mm256_set1_pd(inv_stddev);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        x + i,
        _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(x + i), vmu), vinv));
  }
  for (; i < n; ++i) x[i] = (x[i] - mean) * inv_stddev;
}

void DtwRowAvx2(const double* prev_jm1, const double* y_jm1, double xi,
                double left_seed, double* cur, std::size_t count) {
  // The cur[t-1] recurrence is serial, and a measured split (vector
  // precompute of cost/e into scratch + serial combine) ran SLOWER than the
  // fused loop — the extra stores and scratch traffic cost more than the
  // vector squares save. So this backend runs the identical fused loop as
  // the scalar backend (same source, -ffp-contract=off here too), which is
  // also what makes bit-identity trivial for this kernel.
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

double AbsProductPartialSumsAvx2(const double* a_mag, const double* b_mag,
                                 const double* a_tail, const double* b_tail,
                                 std::size_t n, double threshold) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  // Same 16-element cadence and exit order as the scalar backend: reduce,
  // cannot-abandon check, then the Cauchy–Schwarz tail bound (one scalar mul
  // + add, rounded separately — identical arithmetic to the scalar kernel).
  while (i + 16 <= n) {
    const std::size_t stop = i + 16;
    for (; i < stop; i += 4) {
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a_mag + i),
                                             _mm256_loadu_pd(b_mag + i)));
    }
    const double total = Reduce4(acc);
    if (total >= threshold) return total;
    const double bound = total + a_tail[i / 16] * b_tail[i / 16];
    if (bound < threshold) return bound;
  }
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a_mag + i),
                                           _mm256_loadu_pd(b_mag + i)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) lanes[i & 3] += a_mag[i] * b_mag[i];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

// Two complex products x * w at once over interleaved pairs:
//   re = xr*wr - xi*wi,  im = xi*wr + xr*wi
// via t1 = [xr*wr, xi*wr], t2 = [xi*wi, xr*wi], then t1 + (t2 with the even
// lanes sign-flipped). A plain add (not _mm256_addsub_pd) on purpose, the
// non-conjugate mirror of ComplexMulConjAvx2: GCC folds mul feeding addsub
// into vfmsubadd even at -ffp-contract=off, which would fuse a rounding away
// and break bit-identity with the scalar backend.
inline __m256d ComplexMul2(__m256d x, __m256d w) {
  const __m256d even_flip = _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
  const __m256d w_re = _mm256_movedup_pd(w);       // [wr, wr, ...]
  const __m256d w_im = _mm256_permute_pd(w, 0xF);  // [wi, wi, ...]
  const __m256d x_sw = _mm256_permute_pd(x, 0x5);  // [xi, xr, ...]
  const __m256d t1 = _mm256_mul_pd(x, w_re);
  const __m256d t2 = _mm256_mul_pd(x_sw, w_im);
  return _mm256_add_pd(t1, _mm256_xor_pd(t2, even_flip));
}

void Radix2StageAvx2(double* data, const double* stage_tw, std::size_t n,
                     std::size_t len) {
  const std::size_t half = len / 2;
  if (half < 2) {
    // len == 2: w = 1, adjacent complexes — the shuffle-heavy vector form
    // buys nothing, so run the butterflies as plain adds.
    for (std::size_t base = 0; base < n; base += 2) {
      const std::size_t lo = 2 * base;
      const std::size_t hi = lo + 2;
      const double ur = data[lo];
      const double ui = data[lo + 1];
      const double vr = data[hi];
      const double vi = data[hi + 1];
      data[lo] = ur + vr;
      data[lo + 1] = ui + vi;
      data[hi] = ur - vr;
      data[hi + 1] = ui - vi;
    }
    return;
  }
  // half is a power of two >= 2, so the j-loop pairs up with no tail; u, x
  // and the twiddles are all contiguous complex pairs.
  for (std::size_t base = 0; base < n; base += len) {
    double* lo = data + 2 * base;
    double* hi = lo + 2 * half;
    for (std::size_t j = 0; j < half; j += 2) {
      const __m256d u = _mm256_loadu_pd(lo + 2 * j);
      const __m256d v = ComplexMul2(_mm256_loadu_pd(hi + 2 * j),
                                    _mm256_loadu_pd(stage_tw + 2 * j));
      _mm256_storeu_pd(lo + 2 * j, _mm256_add_pd(u, v));
      _mm256_storeu_pd(hi + 2 * j, _mm256_sub_pd(u, v));
    }
  }
}

void Radix2StagePairAvx2(double* data, const double* tw_len,
                         const double* tw_2len, std::size_t n,
                         std::size_t len) {
  const std::size_t half = len / 2;
  if (half < 2) {
    // len == 2: each 4-complex block [a b c d] runs the add-only len-2
    // butterflies (a, b), (c, d) — as in Radix2StageAvx2 — then the len-4
    // butterflies (a', c') and (b', d') with twiddles tw_2len[0..1].
    const __m256d w = _mm256_loadu_pd(tw_2len);
    for (std::size_t base = 0; base < n; base += 4) {
      double* p = data + 2 * base;
      const __m256d r0 = _mm256_loadu_pd(p);      // [a, b]
      const __m256d r1 = _mm256_loadu_pd(p + 4);  // [c, d]
      const __m256d ac = _mm256_permute2f128_pd(r0, r1, 0x20);
      const __m256d bd = _mm256_permute2f128_pd(r0, r1, 0x31);
      const __m256d s = _mm256_add_pd(ac, bd);  // [a', c']
      const __m256d t = _mm256_sub_pd(ac, bd);  // [b', d']
      const __m256d u = _mm256_permute2f128_pd(s, t, 0x20);  // [a', b']
      const __m256d x = _mm256_permute2f128_pd(s, t, 0x31);  // [c', d']
      const __m256d v = ComplexMul2(x, w);
      _mm256_storeu_pd(p, _mm256_add_pd(u, v));
      _mm256_storeu_pd(p + 4, _mm256_sub_pd(u, v));
    }
    return;
  }
  for (std::size_t base = 0; base < n; base += 2 * len) {
    double* pa = data + 2 * base;
    double* pb = pa + 2 * half;
    double* pc = pa + 2 * len;
    double* pd = pc + 2 * half;
    for (std::size_t j = 0; j < half; j += 2) {
      const std::size_t o = 2 * j;
      const __m256d w1 = _mm256_loadu_pd(tw_len + o);
      const __m256d a = _mm256_loadu_pd(pa + o);
      const __m256d c = _mm256_loadu_pd(pc + o);
      const __m256d vb = ComplexMul2(_mm256_loadu_pd(pb + o), w1);
      const __m256d vd = ComplexMul2(_mm256_loadu_pd(pd + o), w1);
      const __m256d a1 = _mm256_add_pd(a, vb);
      const __m256d b1 = _mm256_sub_pd(a, vb);
      const __m256d c1 = _mm256_add_pd(c, vd);
      const __m256d d1 = _mm256_sub_pd(c, vd);
      const __m256d vc = ComplexMul2(c1, _mm256_loadu_pd(tw_2len + o));
      const __m256d vd2 =
          ComplexMul2(d1, _mm256_loadu_pd(tw_2len + o + 2 * half));
      _mm256_storeu_pd(pa + o, _mm256_add_pd(a1, vc));
      _mm256_storeu_pd(pc + o, _mm256_sub_pd(a1, vc));
      _mm256_storeu_pd(pb + o, _mm256_add_pd(b1, vd2));
      _mm256_storeu_pd(pd + o, _mm256_sub_pd(b1, vd2));
    }
  }
}

void DotAxpyRowsAvx2(const double* rows, std::size_t num_rows,
                     std::size_t m, const double* u, double* out) {
  // Same row-order composition as the scalar backend: per-row 4-lane dot
  // (one AVX2 register = the four virtual lanes) followed by the elementwise
  // axpy while the row is hot in cache. No FMA anywhere.
  for (std::size_t r = 0; r < num_rows; ++r) {
    const double* x = rows + r * m;
    const double d = DotAvx2(x, u, m);
    AxpyAvx2(d, x, out, m);
  }
}

}  // namespace

const KernelTable* Avx2Kernels() {
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (!supported) return nullptr;
  static const KernelTable table = {
      "avx2",
      SumAvx2,
      SumSquaresAvx2,
      MeanVarAvx2,
      DotAvx2,
      SquaredEdAvx2,
      SquaredEdAbandonAvx2,
      LbKeoghSquaredAvx2,
      ComplexMulConjAvx2,
      ComplexMulConjSoaAvx2,
      PeakScanAvx2,
      AxpyAvx2,
      ScaleAvx2,
      ApplyZNormAvx2,
      DtwRowAvx2,
      AbsProductPartialSumsAvx2,
      Radix2StageAvx2,
      Radix2StagePairAvx2,
      DotAxpyRowsAvx2,
  };
  return &table;
}

}  // namespace kshape::simd

#else  // !(__AVX2__ && __FMA__)

namespace kshape::simd {

const KernelTable* Avx2Kernels() { return nullptr; }

}  // namespace kshape::simd

#endif
