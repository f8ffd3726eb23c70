#include "core/multivariate.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "common/parallel.h"
#include "fft/fft.h"
#include "fft/rfft.h"
#include "linalg/matrix.h"
#include "tseries/normalization.h"

namespace kshape::core {

void ZNormalizeMultivariate(MultivariateSeries* series) {
  for (tseries::Series& channel : series->channels) {
    tseries::ZNormalizeInPlace(&channel);
  }
}

namespace {

void CheckCompatible(const MultivariateSeries& x,
                     const MultivariateSeries& y) {
  KSHAPE_CHECK_MSG(x.num_channels() == y.num_channels(),
                   "channel count mismatch");
  KSHAPE_CHECK(x.num_channels() >= 1);
  KSHAPE_CHECK_MSG(x.length() == y.length(), "length mismatch");
  for (const auto& channel : x.channels) {
    KSHAPE_CHECK_MSG(channel.size() == x.length(), "ragged channels");
  }
  for (const auto& channel : y.channels) {
    KSHAPE_CHECK_MSG(channel.size() == y.length(), "ragged channels");
  }
}

MultivariateSeries ShiftAllChannels(const MultivariateSeries& x, int shift) {
  MultivariateSeries out;
  out.channels.reserve(x.num_channels());
  for (const auto& channel : x.channels) {
    out.channels.push_back(tseries::ShiftWithZeroFill(channel, shift));
  }
  return out;
}

}  // namespace

MultivariateSbdResult MultivariateSbd(const MultivariateSeries& x,
                                      const MultivariateSeries& y) {
  CheckCompatible(x, y);
  const std::size_t m = x.length();

  MultivariateSbdResult result;
  double x_energy = 0.0;
  double y_energy = 0.0;
  for (std::size_t c = 0; c < x.num_channels(); ++c) {
    x_energy += linalg::Dot(x.channels[c], x.channels[c]);
    y_energy += linalg::Dot(y.channels[c], y.channels[c]);
  }
  const double den = std::sqrt(x_energy * y_energy);
  if (den == 0.0) {
    result.distance = 1.0;
    result.aligned_y = y;
    return result;
  }

  // Sum the per-channel cross-correlation sequences: one common shift.
  std::vector<double> total(2 * m - 1, 0.0);
  for (std::size_t c = 0; c < x.num_channels(); ++c) {
    const std::vector<double> cc =
        fft::CrossCorrelationFft(x.channels[c], y.channels[c]);
    for (std::size_t i = 0; i < total.size(); ++i) total[i] += cc[i];
  }

  std::size_t best = 0;
  for (std::size_t i = 1; i < total.size(); ++i) {
    if (total[i] > total[best]) best = i;
  }
  result.shift = static_cast<int>(best) - static_cast<int>(m - 1);
  result.distance = 1.0 - total[best] / den;
  result.aligned_y = ShiftAllChannels(y, result.shift);
  return result;
}

MsbdPolicy::MsbdPolicy(const tseries::SeriesBatch& rows,
                       std::size_t channels)
    : d_(channels),
      m_(rows.length() / channels),
      rows_(rows.size() * channels, fft::NextPowerOfTwo(2 * m_ - 1)),
      row_energy_(rows.size(), 0.0),
      centroids_(0, rows_.fft_len()) {
  KSHAPE_CHECK(d_ >= 1 && m_ >= 1 && m_ * d_ == rows.length());
  common::ParallelFor(0, rows.size(), 1,
                      [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t c = 0; c < d_; ++c) {
        const tseries::SeriesView channel = rows[i].subspan(c * m_, m_);
        rows_.Transform(i * d_ + c, channel);
        row_energy_[i] += linalg::Dot(channel, channel);
      }
    }
  });
}

void MsbdPolicy::Prepare(const std::vector<tseries::Series>& centroids) {
  centroids_ = fft::BatchSpectra(centroids.size() * d_, rows_.fft_len());
  centroid_energy_.assign(centroids.size(), 0.0);
  for (std::size_t j = 0; j < centroids.size(); ++j) {
    for (std::size_t c = 0; c < d_; ++c) {
      const tseries::SeriesView channel =
          tseries::SeriesView(centroids[j]).subspan(c * m_, m_);
      centroids_.Transform(j * d_ + c, channel);
      centroid_energy_[j] += linalg::Dot(channel, channel);
    }
  }
}

NccPeak MsbdPolicy::Peak(int j, std::size_t i) const {
  NccPeak peak;
  const double den = std::sqrt(centroid_energy_[j] * row_energy_[i]);
  if (den == 0.0) return peak;
  // Sum the per-channel cross-correlation sequences: one common shift.
  static thread_local std::vector<double> cc;
  static thread_local std::vector<double> total;
  total.assign(2 * m_ - 1, 0.0);
  for (std::size_t c = 0; c < d_; ++c) {
    fft::CrossCorrelationFromRfft(rows_.plan(), centroids_.view(j * d_ + c),
                                  rows_.view(i * d_ + c), m_, &cc);
    for (std::size_t t = 0; t < total.size(); ++t) total[t] += cc[t];
  }
  std::size_t best = 0;
  for (std::size_t t = 1; t < total.size(); ++t) {
    if (total[t] > total[best]) best = t;
  }
  peak.value = total[best] / den;
  peak.shift = static_cast<int>(best) - static_cast<int>(m_ - 1);
  return peak;
}

double MsbdPolicy::Distance(int j, std::size_t i,
                            tseries::SeriesView) const {
  return 1.0 - Peak(j, i).value;
}

int MsbdPolicy::Shift(int j, std::size_t i, tseries::SeriesView) const {
  return Peak(j, i).shift;
}

MultivariateKShape::MultivariateKShape(MultivariateKShapeOptions options)
    : options_(options) {
  KSHAPE_CHECK(options_.max_iterations >= 1);
}

MultivariateClusteringResult MultivariateKShape::Cluster(
    const std::vector<MultivariateSeries>& series, int k,
    common::Rng* rng) const {
  KSHAPE_CHECK(!series.empty());
  KSHAPE_CHECK(k >= 1 && static_cast<std::size_t>(k) <= series.size());
  KSHAPE_CHECK(rng != nullptr);
  const std::size_t d = series[0].num_channels();
  const std::size_t m = series[0].length();
  for (const auto& s : series) CheckCompatible(series[0], s);

  // One row per series, channels end to end.
  tseries::SeriesStore packed;
  packed.Reserve(series.size(), d * m);
  tseries::Series row(d * m);
  for (const MultivariateSeries& s : series) {
    for (std::size_t c = 0; c < d; ++c) {
      std::copy(s.channels[c].begin(), s.channels[c].end(),
                row.begin() + c * m);
    }
    packed.Append(row);
  }

  KShapeOptions options;
  options.max_iterations = options_.max_iterations;
  options.shape_options = options_.shape_options;
  options.shape_options.warm_start = false;
  MsbdPolicy policy(packed, d);
  InMemoryBlockSource source(packed, /*engine=*/nullptr);
  cluster::ClusteringResult fit = RunKShapeDriver(
      &source, k, rng, options, /*minibatch=*/false, &policy);

  MultivariateClusteringResult result;
  result.assignments = std::move(fit.assignments);
  for (const tseries::Series& centroid : fit.centroids) {
    MultivariateSeries unpacked;
    for (std::size_t c = 0; c < d; ++c) {
      unpacked.channels.emplace_back(centroid.begin() + c * m,
                                     centroid.begin() + (c + 1) * m);
    }
    result.centroids.push_back(std::move(unpacked));
  }
  result.iterations = fit.iterations;
  result.converged = fit.converged;
  result.empty_cluster_reseeds = fit.empty_cluster_reseeds;
  result.degenerate_centroids = fit.degenerate_centroids;
  return result;
}

common::Status ValidateMultivariateInputs(
    const std::vector<MultivariateSeries>& series, int k) {
  if (series.empty()) {
    return common::Status::InvalidArgument("empty dataset: no series to cluster");
  }
  const std::size_t d = series[0].num_channels();
  const std::size_t m = series[0].length();
  if (d == 0) {
    return common::Status::InvalidArgument("series 0 has no channels");
  }
  if (m == 0) {
    return common::Status::InvalidArgument("series 0 has empty channels");
  }
  for (std::size_t i = 0; i < series.size(); ++i) {
    const MultivariateSeries& s = series[i];
    if (s.num_channels() != d) {
      return common::Status::InvalidArgument(
          "series " + std::to_string(i) + ": channel count " +
          std::to_string(s.num_channels()) + " does not match series 0 (" +
          std::to_string(d) + ")");
    }
    for (std::size_t c = 0; c < d; ++c) {
      if (s.channels[c].size() != m) {
        return common::Status::InvalidArgument(
            "series " + std::to_string(i) + " channel " + std::to_string(c) +
            ": length " + std::to_string(s.channels[c].size()) +
            " does not match series 0 (" + std::to_string(m) +
            "); condition the input first (tseries/conditioning.h)");
      }
      for (double v : s.channels[c]) {
        if (!std::isfinite(v)) {
          return common::Status::InvalidArgument(
              "series " + std::to_string(i) + " channel " + std::to_string(c) +
              " contains a non-finite value; condition the input first "
              "(tseries/conditioning.h)");
        }
      }
    }
  }
  if (k < 1 || static_cast<std::size_t>(k) > series.size()) {
    return common::Status::OutOfRange(
        "k = " + std::to_string(k) + " outside [1, n = " +
        std::to_string(series.size()) + "]");
  }
  return common::Status::OK();
}

common::StatusOr<MultivariateClusteringResult> MultivariateKShape::TryCluster(
    const std::vector<MultivariateSeries>& series, int k,
    common::Rng* rng) const {
  if (rng == nullptr) {
    return common::Status::InvalidArgument("rng must not be null");
  }
  common::Status status = ValidateMultivariateInputs(series, k);
  if (!status.ok()) return status;
  return Cluster(series, k, rng);
}

}  // namespace kshape::core
