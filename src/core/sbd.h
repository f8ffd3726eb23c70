#ifndef KSHAPE_CORE_SBD_H_
#define KSHAPE_CORE_SBD_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "distance/measure.h"
#include "tseries/time_series.h"

namespace kshape::core {

/// The three cross-correlation normalizations of Equation 8 of the paper.
enum class NccNormalization {
  kBiased,       // NCCb: CC_w / m
  kUnbiased,     // NCCu: CC_w / (m - |w - m|)
  kCoefficient,  // NCCc: CC_w / sqrt(R0(x,x) * R0(y,y))
};

/// Returns a short name ("NCCb", "NCCu", "NCCc").
const char* NccNormalizationName(NccNormalization norm);

/// How the full cross-correlation sequence is evaluated. Table 2 of the paper
/// ablates these: the padded FFT ("SBD") is 4.4x slower than ED, the
/// unpadded FFT ("SBD_NoPow2") 8.7x, and the direct O(m^2) evaluation
/// ("SBD_NoFFT") 224x.
enum class CrossCorrelationImpl {
  kFft,       // FFT at the next power of two >= 2m-1 (Algorithm 1 line 1-2).
  kFftNoPow2, // FFT at exactly 2m-1 (Bluestein when not a power of two).
  kNaive,     // Direct O(m^2) evaluation of Equation 7.
};

/// Computes the normalized cross-correlation sequence NCCq(x, y) of
/// Equation 8 for every shift: the returned vector has length 2m-1 and its
/// element i corresponds to shift s = i - (m - 1) of x relative to y.
/// For NCCc with a zero-norm input the sequence is all zeros.
std::vector<double> NccSequence(tseries::SeriesView x,
                                tseries::SeriesView y,
                                NccNormalization norm,
                                CrossCorrelationImpl impl =
                                    CrossCorrelationImpl::kFft);

/// The peak of an NCC sequence: value and the shift s at which it occurs.
struct NccPeak {
  double value = 0.0;
  int shift = 0;
};

/// Returns the maximum of NccSequence and the corresponding optimal shift.
/// A zero-norm input (the sequence is identically zero) gives value 0 at
/// shift 0, Sbd()'s convention.
NccPeak MaxNcc(tseries::SeriesView x, tseries::SeriesView y,
               NccNormalization norm,
               CrossCorrelationImpl impl = CrossCorrelationImpl::kFft);

/// Result of Algorithm 1 (SBD): the dissimilarity and y aligned toward x.
struct SbdResult {
  /// 1 - max_w NCCc(x, y), in [0, 2]; 0 means identical shape.
  double distance = 0.0;

  /// y delayed/advanced by `shift` with zero fill (Equation 5) so that it is
  /// optimally aligned with x.
  tseries::Series aligned_y;

  /// The applied shift: positive delays y, negative advances it.
  int shift = 0;
};

/// Shape-based distance, Algorithm 1 of the paper. Requires equal lengths.
/// Inputs are expected to be z-normalized (the measure is still well defined
/// otherwise, but only z-normalized inputs give the scaling invariance the
/// paper argues for). A zero-norm input yields distance 1 and an unshifted y.
SbdResult Sbd(tseries::SeriesView x, tseries::SeriesView y,
              CrossCorrelationImpl impl = CrossCorrelationImpl::kFft);

/// Library-boundary SBD for untrusted data: returns InvalidArgument on empty
/// inputs, a length mismatch (with a pointer to tseries/conditioning.h), or
/// non-finite values, where Sbd() would abort via KSHAPE_CHECK (or propagate
/// NaN). Zero-norm inputs are NOT an error: the documented fallback
/// (distance 1, unshifted y) applies, matching Sbd().
common::StatusOr<SbdResult> TrySbd(
    tseries::SeriesView x, tseries::SeriesView y,
    CrossCorrelationImpl impl = CrossCorrelationImpl::kFft);

/// DistanceMeasure adapter for SBD, usable by any clustering algorithm or
/// the 1-NN classifier (PAM+SBD, S+SBD, H-*+SBD, k-AVG+SBD of the paper).
///
/// The FFT variants also implement the batched DistanceMeasure hooks via
/// SbdEngine (see core/sbd_engine.h): pairwise matrices and fixed-set scans
/// cache one spectrum per series so each pair costs a single inverse
/// transform. The naive variant has no spectra and keeps the per-pair path.
class SbdDistance : public distance::DistanceMeasure {
 public:
  explicit SbdDistance(CrossCorrelationImpl impl = CrossCorrelationImpl::kFft);

  double Distance(tseries::SeriesView x,
                  tseries::SeriesView y) const override;
  std::string Name() const override { return name_; }

  bool BatchedPairwise(const tseries::SeriesBatch& series,
                       std::vector<double>* flat) const override;
  std::unique_ptr<distance::BatchScanner> NewBatchScanner(
      const tseries::SeriesBatch& candidates) const override;

 private:
  CrossCorrelationImpl impl_;
  std::string name_;
};

/// DistanceMeasure adapter for the raw cross-correlation variants NCCb/NCCu
/// (Appendix A): dissimilarity is defined as 1 - max_w NCCq(x, y). For NCCb
/// and NCCu the value is unbounded below/above 1, but 1-NN classification
/// only needs the ordering.
class NccDistance : public distance::DistanceMeasure {
 public:
  explicit NccDistance(NccNormalization norm);

  double Distance(tseries::SeriesView x,
                  tseries::SeriesView y) const override;
  std::string Name() const override { return name_; }

 private:
  NccNormalization norm_;
  std::string name_;
};

}  // namespace kshape::core

#endif  // KSHAPE_CORE_SBD_H_
