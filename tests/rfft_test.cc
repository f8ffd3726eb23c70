// Golden-value, round-trip, and convention tests for the half-spectrum RFFT
// layer (fft/rfft.h). The packed transforms are new arithmetic — the
// even/odd packing trick on power-of-two lengths, the full-transform
// fallback on Bluestein lengths — so this suite pins them against the same
// naive O(n^2) DFT oracle fft_test uses, plus the invariants the SBD cache
// relies on: conjugate symmetry of the packed bins, the shared padded-length
// convention, bitwise batch/standalone agreement, and backend bit-identity
// of the SoA product path.

#include "fft/rfft.h"

#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "fft/fft.h"
#include "simd/dispatch.h"

namespace kshape::fft {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Reference O(n^2) DFT of a real sequence, evaluated directly from the
// definition — the oracle every golden-value test compares against.
std::vector<Complex> NaiveRealDft(const std::vector<double>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n, Complex(0, 0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      const double angle =
          -2.0 * kPi * static_cast<double>(k * t) / static_cast<double>(n);
      out[k] += x[t] * Complex(std::cos(angle), std::sin(angle));
    }
  }
  return out;
}

std::vector<double> RandomRealVector(std::size_t n, common::Rng* rng) {
  std::vector<double> x(n);
  for (auto& v : x) v = rng->Gaussian();
  return x;
}

// Restores the process-wide half-spectrum gate and SIMD backend after a test
// that flips them, so test order never leaks state.
class HalfSpectrumGuard {
 public:
  HalfSpectrumGuard()
      : enabled_(HalfSpectrumEnabled()), backend_(simd::ActiveBackend()) {}
  ~HalfSpectrumGuard() {
    SetHalfSpectrumEnabledForTesting(enabled_);
    simd::SetBackendForTesting(backend_);
    common::SetThreadCount(1);
  }

 private:
  bool enabled_;
  simd::Backend backend_;
};

TEST(RfftBinsTest, KnownValues) {
  EXPECT_EQ(RfftBins(1), 1u);
  EXPECT_EQ(RfftBins(2), 2u);
  EXPECT_EQ(RfftBins(7), 4u);
  EXPECT_EQ(RfftBins(8), 5u);
  EXPECT_EQ(RfftBins(1024), 513u);
}

// Power-of-two sizes exercise the even/odd packed path (including the n=2
// degenerate half-size-1 transform); the rest exercise the full-transform
// fallback, with odd sizes covering every Bluestein length the kFftNoPow2
// ablation can produce (2m-1 is always odd).
class RfftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RfftSizeTest, ForwardMatchesNaiveDft) {
  const std::size_t n = GetParam();
  common::Rng rng(n * 7919 + 11);
  const std::vector<double> x = RandomRealVector(n, &rng);
  const RfftSpectrum spec = RfftForward(x, n);
  ASSERT_EQ(spec.fft_len, n);
  ASSERT_EQ(spec.re.size(), RfftBins(n));
  ASSERT_EQ(spec.im.size(), RfftBins(n));

  const std::vector<Complex> slow = NaiveRealDft(x);
  for (std::size_t k = 0; k < spec.bins(); ++k) {
    EXPECT_NEAR(spec.re[k], slow[k].real(), 1e-7 * (1.0 + std::fabs(slow[k].real())))
        << "k=" << k;
    EXPECT_NEAR(spec.im[k], slow[k].imag(), 1e-7 * (1.0 + std::fabs(slow[k].imag())))
        << "k=" << k;
  }
}

TEST_P(RfftSizeTest, RoundTripRecoversInput) {
  const std::size_t n = GetParam();
  common::Rng rng(n * 104729 + 12);
  const std::vector<double> x = RandomRealVector(n, &rng);
  const RfftSpectrum spec = RfftForward(x, n);
  std::vector<double> back(n, 0.0);
  GetRfftPlan(n).Inverse(spec.re.data(), spec.im.data(), back.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-8) << "i=" << i;
  }
}

TEST_P(RfftSizeTest, MatchesFullSpectrumBins) {
  // The packed bins must agree with the full complex Spectrum at the same
  // fft_len — the equivalence the half/full SBD paths rest on.
  const std::size_t n = GetParam();
  common::Rng rng(n * 31 + 13);
  const std::vector<double> x = RandomRealVector(n, &rng);
  const RfftSpectrum half = RfftForward(x, n);
  const std::vector<Complex> full = Spectrum(x, n);
  for (std::size_t k = 0; k < half.bins(); ++k) {
    EXPECT_NEAR(half.re[k], full[k].real(), 1e-8 * (1.0 + std::fabs(full[k].real())))
        << "k=" << k;
    EXPECT_NEAR(half.im[k], full[k].imag(), 1e-8 * (1.0 + std::fabs(full[k].imag())))
        << "k=" << k;
  }
}

TEST_P(RfftSizeTest, PackedRealBinsAreExactlyReal) {
  // Conjugate symmetry of a real input's spectrum pins bins 0 and n/2 (n
  // even) to the real axis. The packed layout stores them with EXACT zero
  // imaginary parts — by construction on the packed path, forced on the
  // fallback — so downstream products never leak a rounding residue into
  // the implied upper half-spectrum.
  const std::size_t n = GetParam();
  common::Rng rng(n * 13 + 14);
  const std::vector<double> x = RandomRealVector(n, &rng);
  const RfftSpectrum spec = RfftForward(x, n);
  EXPECT_EQ(spec.im[0], 0.0);
  if (n % 2 == 0) {
    EXPECT_EQ(spec.im[n / 2], 0.0);
  }
}

TEST_P(RfftSizeTest, PackedBinsImplyConjugateSymmetricSpectrum) {
  // Reconstructing the upper bins as conj(packed) must reproduce the full
  // transform: X[n-k] = conj(X[k]).
  const std::size_t n = GetParam();
  common::Rng rng(n * 17 + 15);
  const std::vector<double> x = RandomRealVector(n, &rng);
  const RfftSpectrum spec = RfftForward(x, n);
  const std::vector<Complex> full = Spectrum(x, n);
  for (std::size_t k = spec.bins(); k < n; ++k) {
    const Complex implied =
        std::conj(Complex(spec.re[n - k], spec.im[n - k]));
    EXPECT_NEAR(implied.real(), full[k].real(),
                1e-8 * (1.0 + std::fabs(full[k].real())))
        << "k=" << k;
    EXPECT_NEAR(implied.imag(), full[k].imag(),
                1e-8 * (1.0 + std::fabs(full[k].imag())))
        << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSizes, RfftSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 13, 16,
                                           25, 27, 31, 32, 33, 63, 64, 100,
                                           127, 128, 129, 255, 256, 257,
                                           500));

TEST(RfftTest, KnownFourPointTransform) {
  // DFT of [1, 2, 3, 4] = [10, -2+2i, -2, ...]; packed bins are the first 3.
  const std::vector<double> x = {1, 2, 3, 4};
  const RfftSpectrum spec = RfftForward(x, 4);
  ASSERT_EQ(spec.bins(), 3u);
  EXPECT_NEAR(spec.re[0], 10.0, 1e-9);
  EXPECT_NEAR(spec.im[0], 0.0, 1e-9);
  EXPECT_NEAR(spec.re[1], -2.0, 1e-9);
  EXPECT_NEAR(spec.im[1], 2.0, 1e-9);
  EXPECT_NEAR(spec.re[2], -2.0, 1e-9);
  EXPECT_NEAR(spec.im[2], 0.0, 1e-9);
}

TEST(RfftTest, ZeroPaddingMatchesFullSpectrum) {
  // The padded-length convention: a length-20 series transformed at
  // fft_len=64 must match Spectrum's zero-padded transform bin for bin.
  common::Rng rng(7);
  const std::vector<double> x = RandomRealVector(20, &rng);
  const RfftSpectrum half = RfftForward(x, 64);
  const std::vector<Complex> full = Spectrum(x, 64);
  for (std::size_t k = 0; k < half.bins(); ++k) {
    EXPECT_NEAR(half.re[k], full[k].real(), 1e-9);
    EXPECT_NEAR(half.im[k], full[k].imag(), 1e-9);
  }
}

TEST(RfftTest, PadNeverTruncateIsEnforced) {
  // Spectrum, RfftForward, and RfftPlan::Forward share the pad-never-
  // truncate contract; violating it must abort, not silently drop samples.
  const std::vector<double> x(10, 1.0);
  EXPECT_DEATH(RfftForward(x, 8), "pads, never truncates");
  std::vector<double> out_re(RfftBins(8)), out_im(RfftBins(8));
  EXPECT_DEATH(GetRfftPlan(8).Forward(x, out_re.data(), out_im.data()),
               "pads, never truncates");
}

TEST(RfftTest, MismatchedSpectrumLengthsAbort) {
  // Bluestein (2m-1) and power-of-two paddings of the same series are NOT
  // comparable; the product path must reject the mix loudly.
  common::Rng rng(8);
  const std::vector<double> x = RandomRealVector(16, &rng);
  const RfftSpectrum pow2 = RfftForward(x, 32);  // NextPowerOfTwo(31)
  const RfftSpectrum odd = RfftForward(x, 31);   // exact 2m-1
  std::vector<double> cc;
  EXPECT_DEATH(CrossCorrelationFromRfft(pow2.view(), odd.view(), 16, &cc),
               "length mismatch");
}

class RfftCrossCorrelationSizeTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RfftCrossCorrelationSizeTest, MatchesNaive) {
  const std::size_t m = GetParam();
  common::Rng rng(m * 13 + 21);
  const std::vector<double> x = RandomRealVector(m, &rng);
  const std::vector<double> y = RandomRealVector(m, &rng);
  const std::vector<double> fast = RfftCrossCorrelation(x, y);
  const std::vector<double> slow = CrossCorrelationNaive(x, y);
  ASSERT_EQ(fast.size(), slow.size());
  ASSERT_EQ(fast.size(), 2 * m - 1);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-7) << "lag index " << i;
  }
}

TEST_P(RfftCrossCorrelationSizeTest, CachedHalfMatchesCachedFull) {
  // The half- and full-spectrum cached paths compute the same quantity with
  // different rounding; they must agree to a tight epsilon at both the
  // power-of-two and the Bluestein (exact 2m-1) padding.
  const std::size_t m = GetParam();
  common::Rng rng(m * 17 + 22);
  const std::vector<double> x = RandomRealVector(m, &rng);
  const std::vector<double> y = RandomRealVector(m, &rng);
  for (const std::size_t len :
       {NextPowerOfTwo(2 * m - 1), 2 * m - 1}) {
    const RfftSpectrum hx = RfftForward(x, len);
    const RfftSpectrum hy = RfftForward(y, len);
    std::vector<double> half_cc;
    CrossCorrelationFromRfft(hx.view(), hy.view(), m, &half_cc);

    const std::vector<Complex> fx = Spectrum(x, len);
    const std::vector<Complex> fy = Spectrum(y, len);
    std::vector<double> full_cc;
    CrossCorrelationFromSpectra(fx, fy, m, &full_cc);

    ASSERT_EQ(half_cc.size(), full_cc.size());
    for (std::size_t i = 0; i < half_cc.size(); ++i) {
      EXPECT_NEAR(half_cc[i], full_cc[i], 1e-8) << "len=" << len << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, RfftCrossCorrelationSizeTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 31, 32, 33, 60,
                                           100, 128, 200));

TEST(BatchSpectraTest, SlotsMatchStandaloneTransformsBitwise) {
  // The batch pool runs the SAME plan and arithmetic as the standalone
  // helper, so slots must match RfftForward bitwise, not just within
  // epsilon.
  common::Rng rng(31);
  const std::size_t count = 9;
  const std::size_t m = 50;
  const std::size_t len = NextPowerOfTwo(2 * m - 1);
  std::vector<std::vector<double>> series;
  for (std::size_t i = 0; i < count; ++i) {
    series.push_back(RandomRealVector(m, &rng));
  }
  BatchSpectra batch(count, len);
  for (std::size_t i = 0; i < count; ++i) batch.Transform(i, series[i]);

  for (std::size_t i = 0; i < count; ++i) {
    const RfftSpectrum solo = RfftForward(series[i], len);
    const RfftView slot = batch.view(i);
    ASSERT_EQ(slot.bins(), solo.bins());
    EXPECT_EQ(std::memcmp(slot.re, solo.re.data(),
                          solo.bins() * sizeof(double)),
              0)
        << "slot " << i;
    EXPECT_EQ(std::memcmp(slot.im, solo.im.data(),
                          solo.bins() * sizeof(double)),
              0)
        << "slot " << i;
  }
}

TEST(BatchSpectraTest, ParallelFillIsBitIdentical) {
  // Slots are disjoint, so a ParallelFor fill at any thread count must
  // produce the byte-identical pool a sequential fill produces.
  HalfSpectrumGuard guard;
  common::Rng rng(32);
  const std::size_t count = 24;
  const std::size_t m = 37;
  const std::size_t len = NextPowerOfTwo(2 * m - 1);
  std::vector<std::vector<double>> series;
  for (std::size_t i = 0; i < count; ++i) {
    series.push_back(RandomRealVector(m, &rng));
  }

  BatchSpectra sequential(count, len);
  for (std::size_t i = 0; i < count; ++i) sequential.Transform(i, series[i]);

  for (const int threads : {2, 8}) {
    common::SetThreadCount(threads);
    BatchSpectra parallel(count, len);
    common::ParallelFor(0, count, 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        parallel.Transform(i, series[i]);
      }
    });
    for (std::size_t i = 0; i < count; ++i) {
      const RfftView a = sequential.view(i);
      const RfftView b = parallel.view(i);
      EXPECT_EQ(std::memcmp(a.re, b.re, a.bins() * sizeof(double)), 0)
          << "threads=" << threads << " slot=" << i;
      EXPECT_EQ(std::memcmp(a.im, b.im, a.bins() * sizeof(double)), 0)
          << "threads=" << threads << " slot=" << i;
    }
  }
}

TEST(RfftBackendTest, ProductPathIsBitIdenticalAcrossBackends) {
  // complex_mul_conj_soa is elementwise, the transforms are backend-
  // independent — so the whole cached half-spectrum pipeline must be
  // bitwise reproducible across SIMD backends.
  HalfSpectrumGuard guard;
  common::Rng rng(41);
  const std::size_t m = 96;
  const std::vector<double> x = RandomRealVector(m, &rng);
  const std::vector<double> y = RandomRealVector(m, &rng);
  const std::size_t len = NextPowerOfTwo(2 * m - 1);
  const RfftSpectrum hx = RfftForward(x, len);
  const RfftSpectrum hy = RfftForward(y, len);

  simd::SetBackendForTesting(simd::Backend::kScalar);
  std::vector<double> scalar_cc;
  CrossCorrelationFromRfft(hx.view(), hy.view(), m, &scalar_cc);

  if (!simd::Avx2Available()) {
    GTEST_SKIP() << "AVX2 backend unavailable";
  }
  simd::SetBackendForTesting(simd::Backend::kAvx2);
  std::vector<double> avx2_cc;
  CrossCorrelationFromRfft(hx.view(), hy.view(), m, &avx2_cc);

  ASSERT_EQ(scalar_cc.size(), avx2_cc.size());
  EXPECT_EQ(std::memcmp(scalar_cc.data(), avx2_cc.data(),
                        scalar_cc.size() * sizeof(double)),
            0);
}

TEST(RfftTest, RepeatedEvaluationIsBitStable) {
  // Fixed inputs must reproduce bitwise across repeated evaluations — the
  // half-path half of the cache's determinism contract.
  common::Rng rng(51);
  const std::size_t m = 61;  // 2m-1 = 121, a Bluestein fallback length
  const std::vector<double> x = RandomRealVector(m, &rng);
  const std::vector<double> y = RandomRealVector(m, &rng);
  for (const std::size_t len :
       {NextPowerOfTwo(2 * m - 1), 2 * m - 1}) {
    const RfftSpectrum hx = RfftForward(x, len);
    const RfftSpectrum hy = RfftForward(y, len);
    const RfftSpectrum hx2 = RfftForward(x, len);
    EXPECT_EQ(std::memcmp(hx.re.data(), hx2.re.data(),
                          hx.bins() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(hx.im.data(), hx2.im.data(),
                          hx.bins() * sizeof(double)),
              0);
    std::vector<double> cc1, cc2;
    CrossCorrelationFromRfft(hx.view(), hy.view(), m, &cc1);
    CrossCorrelationFromRfft(hx.view(), hy.view(), m, &cc2);
    EXPECT_EQ(std::memcmp(cc1.data(), cc2.data(), cc1.size() * sizeof(double)),
              0)
        << "len=" << len;
  }
}

// ---------------------------------------------------------------------------
// Bit-identity oracle. The reference below computes the power-of-two RFFT
// path in separate passes: a swap bit-reversal, radix-2 stages reading a
// strided twiddle table, a separate 1/h scaling pass, an unpack written in
// std::complex, and a relayout of the time-domain buffer into lag order.
// The library's fused path (bit-reversed writes, contiguous per-stage
// twiddles, paired stages, the unpack in real arithmetic, the scaling folded
// into the lag write) promises the same bits. The comparisons are on bytes,
// so signed zeros count.
// ---------------------------------------------------------------------------

// Radix-2 transform in the separate-pass form. `add_only_len2` mirrors the
// AVX2 backend's len-2 stage (a plain add; the scalar backend multiplies by
// the unit twiddle, which can flip the sign of an exact zero).
void ReferenceRadix2(std::vector<Complex>* data, bool inverse,
                     bool add_only_len2) {
  const std::size_t n = data->size();
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t rev = 0;
    for (std::size_t b = 0, v = i; b < log2n; ++b, v >>= 1) {
      rev = (rev << 1) | (v & 1);
    }
    if (i < rev) std::swap((*data)[i], (*data)[rev]);
  }
  std::vector<Complex> twiddles(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double angle =
        -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n);
    twiddles[k] = Complex(std::cos(angle), std::sin(angle));
  }
  double* d = reinterpret_cast<double*>(data->data());
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t step = n / len;
    for (std::size_t base = 0; base < n; base += len) {
      for (std::size_t j = 0; j < half; ++j) {
        const double wr = twiddles[j * step].real();
        const double wi = inverse ? -twiddles[j * step].imag()
                                  : twiddles[j * step].imag();
        double* lo = d + 2 * (base + j);
        double* hi = d + 2 * (base + j + half);
        const double ur = lo[0];
        const double ui = lo[1];
        double vr = hi[0];
        double vi = hi[1];
        if (!(len == 2 && add_only_len2)) {
          const double xr = hi[0];
          const double xi = hi[1];
          vr = xr * wr - xi * wi;
          vi = xr * wi + xi * wr;
        }
        lo[0] = ur + vr;
        lo[1] = ui + vi;
        hi[0] = ur - vr;
        hi[1] = ui - vi;
      }
    }
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (Complex& v : *data) v *= scale;
  }
}

std::vector<Complex> ReferenceUnpackTwiddles(std::size_t n) {
  std::vector<Complex> tw(n / 2 + 1);
  for (std::size_t k = 0; k < tw.size(); ++k) {
    const double angle =
        -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n);
    tw[k] = Complex(std::cos(angle), std::sin(angle));
  }
  return tw;
}

// Packed half spectrum of x zero-padded to power-of-two n.
RfftSpectrum ReferenceForward(const std::vector<double>& x, std::size_t n,
                              bool add_only_len2) {
  RfftSpectrum out;
  out.fft_len = n;
  out.re.assign(RfftBins(n), 0.0);
  out.im.assign(RfftBins(n), 0.0);
  if (n == 1) {
    out.re[0] = x.empty() ? 0.0 : x[0];
    return out;
  }
  const std::size_t h = n / 2;
  std::vector<Complex> z(h);
  for (std::size_t j = 0; j < h; ++j) {
    const double re = 2 * j < x.size() ? x[2 * j] : 0.0;
    const double im = 2 * j + 1 < x.size() ? x[2 * j + 1] : 0.0;
    z[j] = Complex(re, im);
  }
  ReferenceRadix2(&z, /*inverse=*/false, add_only_len2);
  const std::vector<Complex> tw = ReferenceUnpackTwiddles(n);
  out.re[0] = z[0].real() + z[0].imag();
  out.im[0] = 0.0;
  out.re[h] = z[0].real() - z[0].imag();
  out.im[h] = 0.0;
  for (std::size_t k = 1; k < h; ++k) {
    const Complex zk = z[k];
    const Complex zmk = std::conj(z[h - k]);
    const Complex even = 0.5 * (zk + zmk);
    const Complex odd = Complex(0, -0.5) * (zk - zmk);
    const Complex bin = even + tw[k] * odd;
    out.re[k] = bin.real();
    out.im[k] = bin.imag();
  }
  return out;
}

// n real samples from a packed half spectrum, power-of-two n.
std::vector<double> ReferenceInverse(const std::vector<double>& re,
                                     const std::vector<double>& im,
                                     std::size_t n, bool add_only_len2) {
  if (n == 1) return {re[0]};
  const std::size_t h = n / 2;
  const std::vector<Complex> tw = ReferenceUnpackTwiddles(n);
  const auto bin = [&](std::size_t k) {
    return Complex(re[k], (k == 0 || k == h) ? 0.0 : im[k]);
  };
  std::vector<Complex> z(h);
  for (std::size_t k = 0; k < h; ++k) {
    const Complex ck = bin(k);
    const Complex cmk = std::conj(bin(h - k));
    const Complex even = 0.5 * (ck + cmk);
    const Complex odd = 0.5 * (ck - cmk) * std::conj(tw[k]);
    z[k] = even + Complex(0, 1) * odd;
  }
  ReferenceRadix2(&z, /*inverse=*/true, add_only_len2);
  std::vector<double> out(n);
  for (std::size_t j = 0; j < h; ++j) {
    out[2 * j] = z[j].real();
    out[2 * j + 1] = z[j].imag();
  }
  return out;
}

// The 2m-1 lags of the cross-correlation of two packed spectra.
std::vector<double> ReferenceCrossCorrelation(const RfftSpectrum& x,
                                              const RfftSpectrum& y,
                                              std::size_t m,
                                              bool add_only_len2) {
  const std::size_t len = x.fft_len;
  const std::size_t b = RfftBins(len);
  std::vector<double> pr(b), pi(b);
  for (std::size_t k = 0; k < b; ++k) {
    pr[k] = x.re[k] * y.re[k] + x.im[k] * y.im[k];
    pi[k] = x.im[k] * y.re[k] - x.re[k] * y.im[k];
  }
  const std::vector<double> time = ReferenceInverse(pr, pi, len, add_only_len2);
  std::vector<double> cc(2 * m - 1);
  for (std::size_t i = 0; i < 2 * m - 1; ++i) {
    const long long lag =
        static_cast<long long>(i) - static_cast<long long>(m - 1);
    cc[i] = time[lag >= 0 ? static_cast<std::size_t>(lag)
                          : len - static_cast<std::size_t>(-lag)];
  }
  return cc;
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(RfftOracleTest, FusedPathMatchesSeparatePassCompositionBitwise) {
  HalfSpectrumGuard guard;
  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::Avx2Available()) backends.push_back(simd::Backend::kAvx2);
  for (const simd::Backend backend : backends) {
    simd::SetBackendForTesting(backend);
    const bool add_only_len2 = backend == simd::Backend::kAvx2;
    for (const std::size_t m :
         {1u, 2u, 3u, 5u, 33u, 64u, 128u, 129u, 512u, 1000u, 4096u}) {
      const std::size_t len = NextPowerOfTwo(2 * m - 1);
      common::Rng rng(m * 977 + 5);
      std::vector<std::vector<double>> series = {
          RandomRealVector(m, &rng), std::vector<double>(m, 0.0),
          std::vector<double>(m, 2.5), std::vector<double>(m)};
      for (std::size_t t = 0; t < m; ++t) {
        series[3][t] = t % 2 == 0 ? 1.0 : -1.0;
      }
      // Negative zeros and a lone impulse: exact zeros everywhere, where
      // only the operation sequence decides a zero's sign.
      series.push_back(std::vector<double>(m, -0.0));
      series.push_back(std::vector<double>(m, 0.0));
      series.back()[m - 1] = -3.0;
      std::vector<RfftSpectrum> spectra;
      for (std::size_t s = 0; s < series.size(); ++s) {
        const RfftSpectrum got = RfftForward(series[s], len);
        const RfftSpectrum want =
            ReferenceForward(series[s], len, add_only_len2);
        EXPECT_TRUE(SameBytes(got.re, want.re) && SameBytes(got.im, want.im))
            << "forward, backend=" << static_cast<int>(backend)
            << " m=" << m << " series=" << s;
        std::vector<double> back(len);
        GetRfftPlan(len).Inverse(got.re.data(), got.im.data(), back.data());
        EXPECT_TRUE(SameBytes(
            back, ReferenceInverse(got.re, got.im, len, add_only_len2)))
            << "inverse, backend=" << static_cast<int>(backend)
            << " m=" << m << " series=" << s;
        spectra.push_back(got);
      }
      for (std::size_t a = 0; a < spectra.size(); ++a) {
        for (std::size_t b = 0; b < spectra.size(); ++b) {
          std::vector<double> cc;
          CrossCorrelationFromRfft(spectra[a].view(), spectra[b].view(), m,
                                   &cc);
          EXPECT_TRUE(SameBytes(cc, ReferenceCrossCorrelation(
                                        spectra[a], spectra[b], m,
                                        add_only_len2)))
              << "cc, backend=" << static_cast<int>(backend) << " m=" << m
              << " pair=(" << a << "," << b << ")";
        }
      }
    }
  }
}

TEST(RfftPlanCacheTest, ReturnsSameObjectForSameSize) {
  const RfftPlan& a = GetRfftPlan(64);
  const RfftPlan& b = GetRfftPlan(64);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.n(), 64u);
  EXPECT_EQ(a.bins(), 33u);
}

TEST(HalfSpectrumGateTest, TestingOverrideRoundTrips) {
  HalfSpectrumGuard guard;
  SetHalfSpectrumEnabledForTesting(false);
  EXPECT_FALSE(HalfSpectrumEnabled());
  SetHalfSpectrumEnabledForTesting(true);
  EXPECT_TRUE(HalfSpectrumEnabled());
}

}  // namespace
}  // namespace kshape::fft
