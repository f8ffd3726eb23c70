#include "cluster/ksc.h"

#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "core/kshape_driver.h"
#include "fft/rfft.h"
#include "linalg/matrix.h"
#include "simd/dispatch.h"

namespace kshape::cluster {

KscAlignment KscAlign(tseries::SeriesView x, tseries::SeriesView y) {
  KSHAPE_CHECK_MSG(x.size() == y.size(), "KSC requires equal lengths");
  const int m = static_cast<int>(x.size());
  const double x_norm_sq = linalg::Dot(x, x);

  KscAlignment best;
  if (x_norm_sq == 0.0) {
    best.distance = linalg::Dot(y, y) == 0.0 ? 0.0 : 1.0;
    return best;
  }

  best.distance = std::numeric_limits<double>::infinity();
  const simd::KernelTable& kt = simd::Active();
  for (int q = -(m - 1); q <= m - 1; ++q) {
    // Zero-filled shift of y by q: overlap of y[0..m-1-|q|] against x. The
    // overlap windows are contiguous in both inputs, so each shift is one
    // dot plus one sum-of-squares kernel call over the overlap.
    const std::size_t overlap = static_cast<std::size_t>(m - std::abs(q));
    double xy;
    double yy;
    if (q >= 0) {
      xy = kt.dot(x.data() + q, y.data(), overlap);
      yy = kt.sum_squares(y.data(), overlap);
    } else {
      xy = kt.dot(x.data(), y.data() - q, overlap);
      yy = kt.sum_squares(y.data() - q, overlap);
    }
    double alpha = 0.0;
    double residual_sq = x_norm_sq;
    if (yy > 0.0) {
      alpha = xy / yy;
      residual_sq = x_norm_sq - alpha * xy;  // ||x||^2 - (x.yq)^2/||yq||^2
    }
    const double dist = std::sqrt(std::max(0.0, residual_sq) / x_norm_sq);
    if (dist < best.distance) {
      best.distance = dist;
      best.shift = q;
      best.alpha = alpha;
    }
  }
  return best;
}

KscAlignment KscAlignFft(tseries::SeriesView x, tseries::SeriesView y) {
  KSHAPE_CHECK_MSG(x.size() == y.size(), "KSC requires equal lengths");
  const int m = static_cast<int>(x.size());
  const double x_norm_sq = linalg::Dot(x, x);

  KscAlignment best;
  if (x_norm_sq == 0.0) {
    best.distance = linalg::Dot(y, y) == 0.0 ? 0.0 : 1.0;
    return best;
  }

  // Every shifted dot product in one transform: the overlap window of shift
  // q is exactly the lag-q cross-correlation, so xy(q) = cc[m-1+q] in the
  // shared lag layout (cc[i] = R_{i-(m-1)}). Both buffers are per-thread
  // scratch: the assignment scan calls this once per (series, centroid)
  // pair from pool tasks.
  static thread_local std::vector<double> cc;
  static thread_local std::vector<double> prefix;
  fft::RfftCrossCorrelation(x, y, &cc);
  // ||y(q)||^2 over the overlap from prefix sums of y^2: window y[0..m-1-q]
  // for q >= 0, y[-q..m-1] for q < 0. Prefix sums of squares are monotone in
  // exact and floating-point arithmetic alike, so the differences below are
  // nonnegative.
  prefix.resize(static_cast<std::size_t>(m) + 1);
  prefix[0] = 0.0;
  for (int i = 0; i < m; ++i) prefix[i + 1] = prefix[i] + y[i] * y[i];

  best.distance = std::numeric_limits<double>::infinity();
  // Identical scan order and strict-less tie-break as KscAlign.
  for (int q = -(m - 1); q <= m - 1; ++q) {
    const double xy = cc[static_cast<std::size_t>(m - 1 + q)];
    const double yy = q >= 0 ? prefix[m - q] : prefix[m] - prefix[-q];
    double alpha = 0.0;
    double residual_sq = x_norm_sq;
    if (yy > 0.0) {
      alpha = xy / yy;
      residual_sq = x_norm_sq - alpha * xy;  // ||x||^2 - (x.yq)^2/||yq||^2
    }
    const double dist = std::sqrt(std::max(0.0, residual_sq) / x_norm_sq);
    if (dist < best.distance) {
      best.distance = dist;
      best.shift = q;
      best.alpha = alpha;
    }
  }
  return best;
}

double KscDistanceValue(tseries::SeriesView x, tseries::SeriesView y) {
  return KscAlign(x, y).distance;
}

Ksc::Ksc(KscOptions options) : options_(options) {
  KSHAPE_CHECK(options_.max_iterations >= 1);
}

namespace {

// KSC as the k-Shape driver's policy. Assignment measures a series against
// the centroid (KscAlignFft(series, centroid)); refinement shifts a member
// toward the centroid (KscAlignFft(centroid, member)), whose zero-norm
// convention leaves members of the all-zero initial centroid unshifted.
class KscPolicy : public core::CentroidPolicy {
 public:
  core::CentroidSolve solve() const override {
    return core::CentroidSolve::kKsc;
  }
  void Prepare(const std::vector<tseries::Series>& centroids) override {
    centroids_ = centroids;
  }
  double Distance(int j, std::size_t, tseries::SeriesView row) const override {
    return KscAlignFft(row, centroids_[j]).distance;
  }
  int Shift(int j, std::size_t, tseries::SeriesView row) const override {
    return KscAlignFft(centroids_[j], row).shift;
  }

 private:
  std::vector<tseries::Series> centroids_;
};

}  // namespace

ClusteringResult Ksc::Cluster(const tseries::SeriesBatch& series,
                              int k, common::Rng* rng) const {
  KSHAPE_CHECK(!series.empty());
  KSHAPE_CHECK(k >= 1 && static_cast<std::size_t>(k) <= series.size());
  KSHAPE_CHECK(rng != nullptr);
  core::KShapeOptions options;
  options.max_iterations = options_.max_iterations;
  // Every KSC centroid solve starts cold and runs matrix-free over the
  // pooled unit-scaled members, however few.
  options.shape_options.warm_start = false;
  options.shape_options.matrix_free_min_members = 1;
  KscPolicy policy;
  core::InMemoryBlockSource source(series, /*engine=*/nullptr);
  ClusteringResult result = core::RunKShapeDriver(
      &source, k, rng, options, /*minibatch=*/false, &policy);
  AttachFittedModel(&result, Name());
  return result;
}

}  // namespace kshape::cluster
