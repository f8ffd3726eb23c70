#include "fft/rfft.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "common/check.h"
#include "common/env_gate.h"
#include "simd/dispatch.h"

namespace kshape::fft {

namespace {

constexpr double kPi = 3.14159265358979323846;

// Per-thread transform scratch: complex values for the generic fallback
// (length n) or the packed half-size sequence (length n/2). Concurrent
// workers never share it, which the thread-count-invariance guarantee relies
// on; no transform in this file calls another while it holds the buffer.
std::vector<Complex>& Scratch() {
  static thread_local std::vector<Complex> scratch;
  return scratch;
}

// Per-thread time-domain buffer of the generic InverseLags fallback.
std::vector<double>& TimeScratch() {
  static thread_local std::vector<double> scratch;
  return scratch;
}

}  // namespace

RfftPlan::RfftPlan(std::size_t n) : n_(n) {
  KSHAPE_CHECK(n >= 1);
  packed_ = IsPowerOfTwo(n) && n >= 2;
  half_plan_ = packed_ ? &GetPlan(n / 2) : nullptr;
  if (packed_) {
    // Unpack twiddles e^{-2*pi*i*k/n} for k in [0, n/2] — one per packed bin
    // — and the conjugate planes of bins [0, n/2) for the inverse unpack.
    twiddles_.resize(bins());
    for (std::size_t k = 0; k < bins(); ++k) {
      const double angle =
          -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n_);
      twiddles_[k] = Complex(std::cos(angle), std::sin(angle));
    }
    const std::size_t h = n_ / 2;
    conj_tw_re_.resize(h);
    conj_tw_im_.resize(h);
    for (std::size_t k = 0; k < h; ++k) {
      const Complex w = std::conj(twiddles_[k]);
      conj_tw_re_[k] = w.real();
      conj_tw_im_[k] = w.imag();
    }
  }
}

void RfftPlan::Forward(std::span<const double> x, double* out_re,
                       double* out_im) const {
  KSHAPE_CHECK_MSG(x.size() <= n_,
                   "RfftPlan pads, never truncates: n < series length");
  std::vector<Complex>& data = Scratch();
  if (!packed_) {
    // Generic fallback: full complex transform (radix-2 for n=1, Bluestein
    // otherwise), then keep bins [0, n/2]. Bin 0 — and bin n/2 when n is
    // even — is exactly real for a real input, so its imaginary part is
    // stored as an exact zero rather than the transform's rounding residue;
    // this is what makes the packed-bin conjugate-symmetry invariant exact.
    data.assign(n_, Complex(0, 0));
    for (std::size_t i = 0; i < x.size(); ++i) data[i] = Complex(x[i], 0.0);
    fft::Forward(&data);
    const std::size_t b = bins();
    for (std::size_t k = 0; k < b; ++k) {
      out_re[k] = data[k].real();
      out_im[k] = data[k].imag();
    }
    out_im[0] = 0.0;
    if (n_ % 2 == 0) out_im[n_ / 2] = 0.0;
    return;
  }

  // Power-of-two path: pack even/odd samples into one half-size complex
  // sequence z[j] = x[2j] + i*x[2j+1] — written straight to its bit-reversed
  // slot, so the half-size transform is just its butterfly stages — and
  // unpack
  //   X[k] = E[k] + w^k * O[k],  w = e^{-2*pi*i/n},
  // where E[k] = (Z[k] + conj(Z[h-k])) / 2 and
  //       O[k] = (Z[k] - conj(Z[h-k])) / (2i)
  // are the h-point DFTs of the even and odd subsequences. Bins 0 and h come
  // straight from Z[0]: X[0] = Re(Z0) + Im(Z0), X[h] = Re(Z0) - Im(Z0), both
  // exactly real.
  const std::size_t h = n_ / 2;
  const std::vector<std::size_t>& rev = half_plan_->bit_reverse();
  data.resize(h);
  Complex* z = data.data();
  for (std::size_t j = 0; j < h; ++j) {
    const double re = 2 * j < x.size() ? x[2 * j] : 0.0;
    const double im = 2 * j + 1 < x.size() ? x[2 * j + 1] : 0.0;
    z[rev[j]] = Complex(re, im);
  }
  half_plan_->Stages(z, /*inverse=*/false);

  out_re[0] = z[0].real() + z[0].imag();
  out_im[0] = 0.0;
  out_re[h] = z[0].real() - z[0].imag();
  out_im[h] = 0.0;
  for (std::size_t k = 1; k < h; ++k) {
    const Complex zk = z[k];
    const Complex zmk = std::conj(z[h - k]);
    const Complex even = 0.5 * (zk + zmk);
    const Complex odd = Complex(0, -0.5) * (zk - zmk);
    const Complex bin = even + twiddles_[k] * odd;
    out_re[k] = bin.real();
    out_im[k] = bin.imag();
  }
}

const double* RfftPlan::UnscaledPackedInverse(const double* re,
                                              const double* im) const {
  // Exact algebraic inverse of the packed forward: recover the half-size
  // spectrum Z[k] = E[k] + i*O[k] from the packed bins C[0..h],
  //   E[k] = (C[k] + conj(C[h-k])) / 2,
  //   O[k] = (C[k] - conj(C[h-k])) * conj(w^k) / 2,
  // (C[k+h] = conj(C[h-k]) by the real-input symmetry), then one half-size
  // inverse transform — whose 1/h scaling (left to the caller) IS the full
  // 1/n real inverse, because E and O are exactly the h-point DFTs of the
  // even/odd samples; then x[2j] = Re(z[j]), x[2j+1] = Im(z[j]).
  //
  // The unpack is spelled out in real arithmetic, one rounding per
  // std::complex operation it replaces and in the same order — products
  // (a*c - b*d, a*d + b*c), i*O as (0*Or - Oi, 0*Oi + Or) with the 0.0
  // products kept because they decide the sign of zero results — so the
  // transform matches the std::complex formulation bit for bit. Each Z[k]
  // goes straight to its bit-reversed slot, so the inverse is just the
  // butterfly stages.
  const std::size_t h = n_ / 2;
  const std::vector<std::size_t>& rev = half_plan_->bit_reverse();
  std::vector<Complex>& data = Scratch();
  data.resize(h);
  double* z = reinterpret_cast<double*>(data.data());
  for (std::size_t k = 0; k < h; ++k) {
    // Bins 0 and h are real by the packing contract: their stored imaginary
    // parts are ignored (C[0] pairs with C[h], and only there).
    const double ck_re = re[k];
    const double ck_im = k == 0 ? 0.0 : im[k];
    const double cm_re = re[h - k];
    const double cm_im = -(k == 0 ? 0.0 : im[h - k]);
    const double even_re = 0.5 * (ck_re + cm_re);
    const double even_im = 0.5 * (ck_im + cm_im);
    const double hd_re = 0.5 * (ck_re - cm_re);
    const double hd_im = 0.5 * (ck_im - cm_im);
    const double odd_re = hd_re * conj_tw_re_[k] - hd_im * conj_tw_im_[k];
    const double odd_im = hd_re * conj_tw_im_[k] + hd_im * conj_tw_re_[k];
    const std::size_t slot = 2 * rev[k];
    z[slot] = even_re + (0.0 * odd_re - odd_im);
    z[slot + 1] = even_im + (0.0 * odd_im + odd_re);
  }
  half_plan_->Stages(data.data(), /*inverse=*/true);
  return z;
}

void RfftPlan::Inverse(const double* re, const double* im,
                       double* out) const {
  if (!packed_) {
    if (n_ == 1) {
      out[0] = re[0];
      return;
    }
    // Generic fallback: rebuild the full conjugate-symmetric spectrum from
    // the packed bins and run the full inverse. Bin 0 (and bin n/2 when n is
    // even) is treated as real per the packing contract.
    std::vector<Complex>& data = Scratch();
    data.resize(n_);
    const std::size_t b = bins();
    data[0] = Complex(re[0], 0.0);
    for (std::size_t k = 1; k < b; ++k) data[k] = Complex(re[k], im[k]);
    if (n_ % 2 == 0) data[n_ / 2] = Complex(re[n_ / 2], 0.0);
    for (std::size_t k = b; k < n_; ++k) data[k] = std::conj(data[n_ - k]);
    fft::Inverse(&data);
    for (std::size_t i = 0; i < n_; ++i) out[i] = data[i].real();
    return;
  }
  const double* z = UnscaledPackedInverse(re, im);
  const double scale = 1.0 / static_cast<double>(n_ / 2);
  for (std::size_t i = 0; i < n_; ++i) out[i] = z[i] * scale;
}

void RfftPlan::InverseLags(const double* re, const double* im, std::size_t m,
                           double* cc) const {
  KSHAPE_CHECK(m >= 1 && 2 * m - 1 <= n_);
  // cc[i] = x[lag], lag = i - (m-1); negative lags live at the top of the
  // circular buffer, so both halves are contiguous runs of the time domain.
  const std::size_t neg = m - 1;
  if (!packed_) {
    std::vector<double>& time = TimeScratch();
    time.resize(n_);
    Inverse(re, im, time.data());
    for (std::size_t i = 0; i < neg; ++i) cc[i] = time[n_ - neg + i];
    for (std::size_t i = neg; i < 2 * m - 1; ++i) cc[i] = time[i - neg];
    return;
  }
  // The interleaved (re, im) of the half-size result is the time domain
  // x[0..n) in order; the 1/h scaling is applied on the way out.
  const double* z = UnscaledPackedInverse(re, im);
  const double scale = 1.0 / static_cast<double>(n_ / 2);
  for (std::size_t i = 0; i < neg; ++i) cc[i] = z[n_ - neg + i] * scale;
  for (std::size_t i = neg; i < 2 * m - 1; ++i) cc[i] = z[i - neg] * scale;
}

const RfftPlan& GetRfftPlan(std::size_t n) {
  // Same never-destroyed, construct-outside-the-lock caching as GetPlan.
  static auto* cache = new std::map<std::size_t, std::unique_ptr<RfftPlan>>();
  static auto* mu = new std::mutex();
  {
    std::lock_guard<std::mutex> lock(*mu);
    auto it = cache->find(n);
    if (it != cache->end()) return *it->second;
  }
  auto plan = std::make_unique<RfftPlan>(n);
  std::lock_guard<std::mutex> lock(*mu);
  const auto it = cache->emplace(n, std::move(plan)).first;
  return *it->second;
}

RfftSpectrum RfftForward(std::span<const double> x, std::size_t fft_len) {
  KSHAPE_CHECK(fft_len >= 1);
  KSHAPE_CHECK_MSG(
      x.size() <= fft_len,
      "RfftForward pads, never truncates: fft_len < series length");
  RfftSpectrum spectrum;
  spectrum.fft_len = fft_len;
  spectrum.re.resize(RfftBins(fft_len));
  spectrum.im.resize(RfftBins(fft_len));
  GetRfftPlan(fft_len).Forward(x, spectrum.re.data(), spectrum.im.data());
  return spectrum;
}

BatchSpectra::BatchSpectra(std::size_t count, std::size_t fft_len)
    : count_(count),
      fft_len_(fft_len),
      bins_(RfftBins(fft_len)),
      plan_(&GetRfftPlan(fft_len)),
      re_(std::make_unique_for_overwrite<double[]>(count * bins_)),
      im_(std::make_unique_for_overwrite<double[]>(count * bins_)) {
  KSHAPE_CHECK(fft_len >= 1);
}

void BatchSpectra::Transform(std::size_t i, std::span<const double> x) {
  KSHAPE_CHECK(i < count_);
  plan_->Forward(x, re_.get() + i * bins_, im_.get() + i * bins_);
}

RfftView BatchSpectra::view(std::size_t i) const {
  KSHAPE_CHECK(i < count_);
  return RfftView{fft_len_, re_.get() + i * bins_, im_.get() + i * bins_};
}

void CrossCorrelationFromRfft(const RfftPlan& plan, const RfftView& x,
                              const RfftView& y, std::size_t m,
                              std::vector<double>* cc) {
  const std::size_t len = x.fft_len;
  KSHAPE_CHECK_MSG(y.fft_len == len, "half-spectrum length mismatch");
  KSHAPE_CHECK_MSG(plan.n() == len, "plan/spectrum length mismatch");
  KSHAPE_CHECK(m >= 1);
  KSHAPE_CHECK(len >= 2 * m - 1);

  // Per-thread product planes: concurrent per-pair evaluations never share
  // scratch.
  static thread_local std::vector<double> prod_re;
  static thread_local std::vector<double> prod_im;
  const std::size_t b = RfftBins(len);
  prod_re.resize(b);
  prod_im.resize(b);

  // C[k] = X[k] * conj(Y[k]) over the packed bins only — the upper half of
  // the product spectrum is implied by symmetry and never materialized. The
  // SoA kernel is elementwise, so this product is bit-identical across
  // backends. On the real bins (0, and len/2 when len is even) both factors
  // have exact-zero imaginary parts, so the product's imaginary part is an
  // exact zero too — consistent with Inverse's real-bin contract.
  simd::Active().complex_mul_conj_soa(x.re, x.im, y.re, y.im, prod_re.data(),
                                      prod_im.data(), b);
  // The hot half of the cached path: ONE inverse real transform per pair,
  // written straight into the lag layout of CrossCorrelationFft.
  cc->resize(2 * m - 1);
  plan.InverseLags(prod_re.data(), prod_im.data(), m, cc->data());
}

void CrossCorrelationFromRfft(const RfftView& x, const RfftView& y,
                              std::size_t m, std::vector<double>* cc) {
  CrossCorrelationFromRfft(GetRfftPlan(x.fft_len), x, y, m, cc);
}

std::vector<double> RfftCrossCorrelation(std::span<const double> x,
                                         std::span<const double> y) {
  std::vector<double> cc;
  RfftCrossCorrelation(x, y, &cc);
  return cc;
}

void RfftCrossCorrelation(std::span<const double> x,
                          std::span<const double> y, std::vector<double>* cc) {
  const std::size_t m = x.size();
  KSHAPE_CHECK_MSG(y.size() == m, "cross-correlation requires equal lengths");
  KSHAPE_CHECK(m >= 1);
  const std::size_t fft_len = NextPowerOfTwo(2 * m - 1);
  const RfftPlan& plan = GetRfftPlan(fft_len);

  // Per-thread forward planes (the product/inverse scratch lives inside
  // CrossCorrelationFromRfft).
  static thread_local std::vector<double> x_re, x_im, y_re, y_im;
  const std::size_t b = RfftBins(fft_len);
  x_re.resize(b);
  x_im.resize(b);
  y_re.resize(b);
  y_im.resize(b);
  plan.Forward(x, x_re.data(), x_im.data());
  plan.Forward(y, y_re.data(), y_im.data());

  CrossCorrelationFromRfft(plan, RfftView{fft_len, x_re.data(), x_im.data()},
                           RfftView{fft_len, y_re.data(), y_im.data()}, m, cc);
}

namespace {

common::EnvGate g_half_spectrum{"KSHAPE_HALF_SPECTRUM"};

}  // namespace

bool HalfSpectrumEnabled() { return g_half_spectrum.enabled(); }

void SetHalfSpectrumEnabledForTesting(bool enabled) {
  g_half_spectrum.SetForTesting(enabled);
}

}  // namespace kshape::fft
