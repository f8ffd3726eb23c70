#ifndef KSHAPE_FFT_FFT_H_
#define KSHAPE_FFT_FFT_H_

#include <complex>
#include <cstddef>
#include <span>
#include <memory>
#include <vector>

namespace kshape::fft {

using Complex = std::complex<double>;

/// Returns the smallest power of two >= n. Requires n >= 1.
std::size_t NextPowerOfTwo(std::size_t n);

/// Returns true iff n is a power of two (n >= 1).
bool IsPowerOfTwo(std::size_t n);

/// A precomputed transform plan for a power-of-two size.
///
/// Mirrors the FFTW "plan" idiom: constructing a plan performs the O(n) setup
/// (bit-reversal permutation table and twiddle factors) once, after which
/// transforms of that size run with no allocation. Plans are immutable and
/// safe to share.
class Radix2Plan {
 public:
  /// Builds a plan for `n`-point transforms. Requires n to be a power of two.
  explicit Radix2Plan(std::size_t n);

  /// In-place forward DFT of `data` (length n()).
  void Forward(Complex* data) const;

  /// In-place inverse DFT of `data` (length n()), including the 1/n scaling.
  void Inverse(Complex* data) const;

  /// The butterfly stages alone, for input that is already in bit-reversed
  /// order (data[bit_reverse()[k]] holds element k): no permutation and no
  /// 1/n scaling. Forward() is the swap permutation, Stages(data, false);
  /// Inverse() is the swap, Stages(data, true), then the scaling. Callers
  /// that produce their input element by element (the real-input transforms
  /// of rfft.h) write it straight to its bit-reversed slot instead.
  void Stages(Complex* data, bool inverse) const;

  /// The bit-reversal permutation: bit_reverse()[i] reverses the log2(n) bits
  /// of i. An involution.
  const std::vector<std::size_t>& bit_reverse() const { return bit_reverse_; }

  /// The transform size.
  std::size_t n() const { return n_; }

 private:
  void TransformImpl(Complex* data, bool inverse) const;

  std::size_t n_;
  std::size_t log2n_;
  std::vector<std::size_t> bit_reverse_;
  // Per-stage contiguous twiddle tables, n-1 complexes each: the stage with
  // block length len reads its len/2 twiddles w^(j*n/len), w = e^{-2*pi*i/n},
  // from offset len/2 - 1. The inverse table holds their conjugates.
  std::vector<Complex> forward_twiddles_;
  std::vector<Complex> inverse_twiddles_;
};

/// Returns a cached plan for the power-of-two size `n`.
///
/// The cache is process-wide and intentionally never destroyed (trivially
/// reclaimed at exit), so repeated SBD computations at one series length do
/// not re-derive twiddles. Thread-safe: lookups are mutex-guarded and the
/// returned plan is immutable, so concurrent ParallelFor workers may share
/// it freely.
const Radix2Plan& GetPlan(std::size_t n);

/// In-place forward DFT of arbitrary length (radix-2 when possible, Bluestein
/// chirp-z otherwise).
void Forward(std::vector<Complex>* data);

/// In-place inverse DFT of arbitrary length, including the 1/n scaling.
void Inverse(std::vector<Complex>* data);

/// Computes the `n`-point forward DFT of the real sequence `x` (zero-padded
/// or truncated to length n). Requires n to be a power of two.
std::vector<Complex> RealForward(std::span<const double> x, std::size_t n);

/// The padded forward spectrum of one real series: the `fft_len`-point DFT of
/// x zero-padded to fft_len (any length >= x.size(); radix-2 when possible,
/// Bluestein otherwise). This is the precompute half of the spectrum-cached
/// SBD path: compute each series' spectrum once, and every pairwise
/// cross-correlation against it becomes a single inverse transform
/// (CrossCorrelationFromSpectra) instead of two forwards plus an inverse.
///
/// Padded-length convention — shared by Spectrum, RfftSpectrum (rfft.h), and
/// CrossCorrelationFromSpectra/CrossCorrelationFromRfft, and enforced by
/// tests so cached and uncached paths cannot silently disagree:
///  - A cross-correlation of two length-m series needs fft_len >= 2m-1.
///  - The kFft implementation (CrossCorrelationFft, SbdEngine's default)
///    transforms at NextPowerOfTwo(2m-1); kFftNoPow2 transforms at exactly
///    2m-1 — which is always odd for m >= 2, so it is always a Bluestein
///    length, never a power of two.
///  - Series are zero-padded up to fft_len; a series longer than fft_len is
///    a KSHAPE_CHECK failure (pad, never truncate).
///  - Spectra are only comparable at equal fft_len: the From* functions check
///    the lengths match and abort on mismatch rather than resample.
std::vector<Complex> Spectrum(std::span<const double> x,
                              std::size_t fft_len);

/// Cross-correlation sequence from two cached spectra: given the fft_len
/// spectra of x and y (both of original length m, fft_len >= 2m-1), forms
/// C[k] = X[k] * conj(Y[k]) and runs ONE inverse transform. Fills `cc` with
/// the same 2m-1 lag layout as CrossCorrelationFft.
///
/// Equivalence contract: this path transforms each real series separately,
/// while CrossCorrelationFft packs the two series into one complex transform
/// (x + i*y) and unpacks; the two round differently in the last ulps, so the
/// results agree to a tight epsilon, NOT bitwise. Within the cached pipeline
/// itself the arithmetic is fixed per (spectra, m), so repeated evaluations —
/// at any thread count — are bit-identical. Thread-safe: scratch is
/// per-thread.
void CrossCorrelationFromSpectra(const std::vector<Complex>& x_spectrum,
                                 const std::vector<Complex>& y_spectrum,
                                 std::size_t m, std::vector<double>* cc);

/// Full cross-correlation sequence of Equation 6 of the paper.
///
/// Given x and y of equal length m, returns cc of length 2m-1 with
/// cc[i] = R_{i-(m-1)}(x, y) = sum_l x[l + (i-(m-1))] * y[l],
/// i.e. index m-1 is the zero-shift correlation and larger indices slide x to
/// the left (equivalently, align y by delaying it). Computed with one complex
/// FFT of the packed sequence x + i*y plus one inverse FFT at the next power
/// of two >= 2m-1: O(m log m).
std::vector<double> CrossCorrelationFft(std::span<const double> x,
                                        std::span<const double> y);

/// Same as CrossCorrelationFft but transforms at exactly length 2m-1 using
/// Bluestein's algorithm when that length is not a power of two. This is the
/// "SBD_NoPow2" ablation of Table 2 in the paper.
std::vector<double> CrossCorrelationFftNoPow2(std::span<const double> x,
                                              std::span<const double> y);

/// Reference O(m^2) direct evaluation of the same cross-correlation sequence.
/// This is the "SBD_NoFFT" ablation of Table 2 in the paper and the oracle
/// used by the FFT tests.
std::vector<double> CrossCorrelationNaive(std::span<const double> x,
                                          std::span<const double> y);

/// Linear convolution of a and b (length |a|+|b|-1) via FFT.
std::vector<double> Convolve(std::span<const double> a,
                             std::span<const double> b);

}  // namespace kshape::fft

#endif  // KSHAPE_FFT_FFT_H_
