#ifndef KSHAPE_CORE_MULTIVARIATE_H_
#define KSHAPE_CORE_MULTIVARIATE_H_

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/kshape_driver.h"
#include "core/sbd.h"
#include "core/shape_extraction.h"
#include "fft/rfft.h"
#include "tseries/time_series.h"

namespace kshape::core {

/// Multivariate extension of k-Shape (future-work direction of the paper,
/// later developed in the k-Shape follow-up literature): a d-channel series
/// is d equal-length univariate channels observed simultaneously, and all
/// channels must shift TOGETHER — a heartbeat recorded by several leads is
/// delayed by one offset, not one per lead.
struct MultivariateSeries {
  /// channels[c] is the c-th univariate channel; all share one length.
  std::vector<tseries::Series> channels;

  std::size_t num_channels() const { return channels.size(); }
  std::size_t length() const {
    return channels.empty() ? 0 : channels[0].size();
  }
};

/// Z-normalizes every channel independently.
void ZNormalizeMultivariate(MultivariateSeries* series);

/// Result of the multivariate SBD.
struct MultivariateSbdResult {
  double distance = 0.0;       // 1 - max_w summed NCCc, in [0, 2].
  int shift = 0;               // The single common shift applied to y.
  MultivariateSeries aligned_y;
};

/// Multivariate shape-based distance: the cross-correlation sequences of the
/// channels are summed per shift (one common lag for all channels) and
/// normalized by the geometric mean of the total autocorrelations:
///   mSBD(x, y) = 1 - max_w  sum_c CC_w(x_c, y_c)
///                          / sqrt(sum_c R0(x_c,x_c) * sum_c R0(y_c,y_c)).
/// Reduces exactly to Sbd() for d = 1. Requires matching channel counts and
/// lengths; zero-norm inputs yield distance 1.
MultivariateSbdResult MultivariateSbd(const MultivariateSeries& x,
                                      const MultivariateSeries& y);

/// mSBD as the k-Shape driver's policy, over a corpus packed one series per
/// row: the d channels of m samples laid end to end (channel-major, row
/// length d·m). Every row's per-channel half spectra (fft::RfftForward at
/// NextPowerOfTwo(2m−1)) and summed energy are cached at construction, each
/// centroid's in Prepare, so a distance or shift is d inverse transforms:
/// the per-channel cross-correlations are summed before one peak scan. The
/// result agrees with MultivariateSbd (the direct reference) to rounding;
/// the shift can differ only where two lags' summed NCC nearly tie.
class MsbdPolicy : public CentroidPolicy {
 public:
  MsbdPolicy(const tseries::SeriesBatch& rows, std::size_t channels);

  std::size_t channels() const override { return d_; }
  void Prepare(const std::vector<tseries::Series>& centroids) override;
  double Distance(int j, std::size_t i,
                  tseries::SeriesView row) const override;
  int Shift(int j, std::size_t i, tseries::SeriesView row) const override;

 private:
  // The summed NCC peak of centroid j against row i and its common shift
  // (value 0 at shift 0 when either is zero-norm).
  NccPeak Peak(int j, std::size_t i) const;

  std::size_t d_;
  std::size_t m_;  // channel length
  fft::BatchSpectra rows_;       // channel c of row i at slot i·d + c
  std::vector<double> row_energy_;
  fft::BatchSpectra centroids_;  // channel c of centroid j at slot j·d + c
  std::vector<double> centroid_energy_;
};

/// Output of MultivariateKShape.
struct MultivariateClusteringResult {
  std::vector<int> assignments;
  std::vector<MultivariateSeries> centroids;
  int iterations = 0;
  bool converged = false;

  /// Repair telemetry, mirroring cluster::ClusteringResult: empty-cluster
  /// re-seeds across all iterations, and centroids of the last refinement
  /// whose every channel came out zero-norm from a non-empty member set.
  int empty_cluster_reseeds = 0;
  int degenerate_centroids = 0;
};

/// The data contract MultivariateKShape::Cluster assumes: a non-empty set of
/// series agreeing in channel count and per-channel length, with >= 1
/// channel, no empty channels, only finite values, and 1 <= k <= n. Returns
/// InvalidArgument/OutOfRange describing the first violation.
common::Status ValidateMultivariateInputs(
    const std::vector<MultivariateSeries>& series, int k);

/// Options for multivariate k-Shape.
struct MultivariateKShapeOptions {
  int max_iterations = 100;

  /// The per-channel shape extraction. `warm_start` is ignored: every
  /// channel's solve starts cold.
  ShapeExtractionOptions shape_options;
};

/// k-Shape over multivariate series: Algorithm 3 with mSBD assignments and
/// per-channel shape extraction refinement, every channel of a member
/// shifted by its one mSBD shift. A facade over the k-Shape driver
/// (core/kshape_driver.h): the corpus is packed one series per row and run
/// with an MsbdPolicy.
class MultivariateKShape {
 public:
  explicit MultivariateKShape(MultivariateKShapeOptions options = {});

  /// Partitions `series` into k clusters. All series must agree in channel
  /// count and length; channels should be z-normalized. Violations of the
  /// data contract are programmer errors here and abort; untrusted data must
  /// go through TryCluster.
  MultivariateClusteringResult Cluster(
      const std::vector<MultivariateSeries>& series, int k,
      common::Rng* rng) const;

  /// Library-boundary entry point for untrusted data: validates via
  /// ValidateMultivariateInputs and returns a Status error instead of
  /// aborting on malformed input.
  common::StatusOr<MultivariateClusteringResult> TryCluster(
      const std::vector<MultivariateSeries>& series, int k,
      common::Rng* rng) const;

 private:
  MultivariateKShapeOptions options_;
};

}  // namespace kshape::core

#endif  // KSHAPE_CORE_MULTIVARIATE_H_
