#include "core/sbd.h"

#include <cmath>
#include <memory>
#include <string>

#include "common/check.h"
#include "core/sbd_engine.h"
#include "fft/fft.h"
#include "fft/rfft.h"
#include "linalg/matrix.h"
#include "model/assigner.h"
#include "simd/dispatch.h"
#include "tseries/normalization.h"

namespace kshape::core {

const char* NccNormalizationName(NccNormalization norm) {
  switch (norm) {
    case NccNormalization::kBiased:
      return "NCCb";
    case NccNormalization::kUnbiased:
      return "NCCu";
    case NccNormalization::kCoefficient:
      return "NCCc";
  }
  return "NCC?";
}

namespace {

std::vector<double> RawCrossCorrelation(tseries::SeriesView x,
                                        tseries::SeriesView y,
                                        CrossCorrelationImpl impl) {
  switch (impl) {
    case CrossCorrelationImpl::kFft:
      // Half-spectrum path (the default): two packed forward transforms at
      // half size plus one half-size inverse. The pre-PR full-complex
      // pack-two-reals trick stays behind KSHAPE_HALF_SPECTRUM=off; the two
      // agree to a tight epsilon, not bitwise.
      if (fft::HalfSpectrumEnabled()) {
        return fft::RfftCrossCorrelation(x, y);
      }
      return fft::CrossCorrelationFft(x, y);
    case CrossCorrelationImpl::kFftNoPow2:
      return fft::CrossCorrelationFftNoPow2(x, y);
    case CrossCorrelationImpl::kNaive:
      return fft::CrossCorrelationNaive(x, y);
  }
  KSHAPE_CHECK_MSG(false, "unknown CrossCorrelationImpl");
  return {};
}

}  // namespace

std::vector<double> NccSequence(tseries::SeriesView x, tseries::SeriesView y,
                                NccNormalization norm,
                                CrossCorrelationImpl impl) {
  KSHAPE_CHECK_MSG(x.size() == y.size(), "NCC requires equal lengths");
  const int m = static_cast<int>(x.size());
  std::vector<double> cc = RawCrossCorrelation(x, y, impl);

  switch (norm) {
    case NccNormalization::kBiased: {
      const double inv_m = 1.0 / static_cast<double>(m);
      for (double& v : cc) v *= inv_m;
      break;
    }
    case NccNormalization::kUnbiased: {
      for (int i = 0; i < 2 * m - 1; ++i) {
        const int overlap = m - std::abs(i - (m - 1));
        cc[i] /= static_cast<double>(overlap);
      }
      break;
    }
    case NccNormalization::kCoefficient: {
      const double den = linalg::Norm(x) * linalg::Norm(y);
      if (den == 0.0) {
        std::fill(cc.begin(), cc.end(), 0.0);
      } else {
        const double inv = 1.0 / den;
        for (double& v : cc) v *= inv;
      }
      break;
    }
  }
  return cc;
}

NccPeak MaxNcc(tseries::SeriesView x, tseries::SeriesView y,
               NccNormalization norm, CrossCorrelationImpl impl) {
  NccPeak peak;
  // A zero-norm input makes every normalization of the sequence identically
  // zero: value 0 at shift 0, as in Sbd(), rather than the lowest lag.
  if (linalg::Norm(x) * linalg::Norm(y) == 0.0) return peak;
  const std::vector<double> ncc = NccSequence(x, y, norm, impl);
  const int m = static_cast<int>(x.size());
  const simd::Peak p = simd::PeakScan(ncc);
  peak.value = p.value;
  peak.shift = static_cast<int>(p.index) - (m - 1);
  return peak;
}

SbdResult Sbd(tseries::SeriesView x, tseries::SeriesView y,
              CrossCorrelationImpl impl) {
  KSHAPE_CHECK_MSG(x.size() == y.size(), "SBD requires equal lengths");
  SbdResult result;
  const double den = linalg::Norm(x) * linalg::Norm(y);
  if (den == 0.0) {
    // Degenerate (constant after z-normalization) input: NCCc is identically
    // zero, so the distance is 1 and no shift is preferable to any other.
    result.distance = 1.0;
    result.shift = 0;
    result.aligned_y.assign(y.begin(), y.end());
    return result;
  }
  // Peak of the raw cross-correlation, normalized by the denominator already
  // in hand — going through NccSequence(kCoefficient) here would recompute
  // both norms a second time per distance evaluation.
  const std::vector<double> cc = RawCrossCorrelation(x, y, impl);
  const simd::Peak peak = simd::PeakScan(cc);
  const std::size_t m = x.size();
  result.distance = 1.0 - peak.value * (1.0 / den);
  result.shift = static_cast<int>(peak.index) - static_cast<int>(m - 1);
  result.aligned_y = tseries::ShiftWithZeroFill(y, result.shift);
  return result;
}

common::StatusOr<SbdResult> TrySbd(tseries::SeriesView x,
                                   tseries::SeriesView y,
                                   CrossCorrelationImpl impl) {
  if (x.empty() || y.empty()) {
    return common::Status::InvalidArgument("SBD requires non-empty series");
  }
  if (x.size() != y.size()) {
    return common::Status::InvalidArgument(
        "SBD requires equal lengths (" + std::to_string(x.size()) + " vs " +
        std::to_string(y.size()) +
        "); condition the input first (tseries/conditioning.h)");
  }
  for (double v : x) {
    if (!std::isfinite(v)) {
      return common::Status::InvalidArgument(
          "x contains a non-finite value; condition the input first "
          "(tseries/conditioning.h)");
    }
  }
  for (double v : y) {
    if (!std::isfinite(v)) {
      return common::Status::InvalidArgument(
          "y contains a non-finite value; condition the input first "
          "(tseries/conditioning.h)");
    }
  }
  return Sbd(x, y, impl);
}

SbdDistance::SbdDistance(CrossCorrelationImpl impl) : impl_(impl) {
  switch (impl) {
    case CrossCorrelationImpl::kFft:
      name_ = "SBD";
      break;
    case CrossCorrelationImpl::kFftNoPow2:
      name_ = "SBD_NoPow2";
      break;
    case CrossCorrelationImpl::kNaive:
      name_ = "SBD_NoFFT";
      break;
  }
}

double SbdDistance::Distance(tseries::SeriesView x,
                             tseries::SeriesView y) const {
  return Sbd(x, y, impl_).distance;
}

namespace {

class SbdBatchScanner : public distance::BatchScanner {
 public:
  // Bound planes are built only when the process-wide pruning gate is on,
  // so KSHAPE_PRUNE=off keeps the scanner byte-for-byte at its exhaustive
  // behavior (and its PR 6 memory footprint).
  SbdBatchScanner(const tseries::SeriesBatch& candidates,
                  CrossCorrelationImpl impl)
      : engine_(candidates, impl, fft::HalfSpectrumEnabled(),
                /*build_bound_planes=*/PruningEnabled()) {}

  void DistancesToAll(tseries::SeriesView query,
                      std::vector<double>* out) const override {
    // One forward transform for the query, then one inverse per candidate.
    // Sequential on purpose: the accuracy loops already parallelize over
    // queries, so the per-query scan runs inside a worker.
    const SbdEngine::Query q = engine_.MakeQuery(query);
    out->resize(engine_.size());
    for (std::size_t i = 0; i < engine_.size(); ++i) {
      (*out)[i] = engine_.Distance(q, i);
    }
  }

  NearestResult Nearest(tseries::SeriesView query) const override {
    // Spectral early abandoning (exactness-preserving — see
    // Assigner::NearestSeries): candidates whose partial-sum NCC bound
    // cannot beat the best-so-far skip their inverse transform entirely.
    const SbdEngine::Query q = engine_.MakeQuery(query);
    const model::NearestResult r = model::Assigner::NearestSeries(engine_, q);
    NearestResult out;
    out.index = r.index;
    out.distance = r.distance;
    out.computed = r.computed;
    out.abandoned = r.abandoned;
    return out;
  }

 private:
  SbdEngine engine_;
};

}  // namespace

bool SbdDistance::BatchedPairwise(const tseries::SeriesBatch& series,
                                  std::vector<double>* flat) const {
  if (impl_ == CrossCorrelationImpl::kNaive || series.empty()) return false;
  const SbdEngine engine(series, impl_);
  engine.PairwiseFlat(flat);
  return true;
}

std::unique_ptr<distance::BatchScanner> SbdDistance::NewBatchScanner(
    const tseries::SeriesBatch& candidates) const {
  if (impl_ == CrossCorrelationImpl::kNaive || candidates.empty()) {
    return nullptr;
  }
  return std::make_unique<SbdBatchScanner>(candidates, impl_);
}

NccDistance::NccDistance(NccNormalization norm)
    : norm_(norm), name_(NccNormalizationName(norm)) {}

double NccDistance::Distance(tseries::SeriesView x,
                             tseries::SeriesView y) const {
  return 1.0 - MaxNcc(x, y, norm_).value;
}

}  // namespace kshape::core
