// Equivalence contract of the spectrum-cached SBD path: every cached
// evaluation (SbdEngine, the batched pairwise hook, the 1-NN batch scanner,
// cached k-Shape, cached multivariate k-Shape) must agree with the direct
// per-pair path to a tight epsilon. Epsilon, not bitwise, by design: the
// direct path packs x + i*y into one complex transform while the cached path
// transforms each series separately, and the two round differently in the
// last ulps. Exact-value conventions (zero diagonal, distance exactly 1 for
// zero-norm inputs, bitwise matrix symmetry) ARE bitwise and are asserted
// with operator==, and so is an engine whose rows are built on request
// against the eager engine over the same series.

#include <cmath>
#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "classify/nearest_neighbor.h"
#include "cluster/kmedoids.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/kshape.h"
#include "core/multivariate.h"
#include "core/sbd.h"
#include "core/sbd_engine.h"
#include "data/generators.h"
#include "distance/measure.h"
#include "fft/fft.h"
#include "fft/rfft.h"
#include "tseries/normalization.h"

namespace kshape {
namespace {

using tseries::Series;

// Power-of-two-transform tolerance; the Bluestein chain is longer, so the
// non-power-of-two lengths get an extra order of magnitude.
constexpr double kEpsPow2 = 1e-9;
constexpr double kEpsBluestein = 1e-8;

std::vector<Series> MakeSeries(std::size_t n, std::size_t m, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Series> series;
  series.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    series.push_back(tseries::ZNormalized(
        data::MakeCbf(static_cast<int>(i % 3), m, &rng)));
  }
  return series;
}

tseries::Dataset MakeDataset(std::size_t n, std::size_t m, uint64_t seed) {
  common::Rng rng(seed);
  tseries::Dataset dataset("sbd-cache-test");
  for (std::size_t i = 0; i < n; ++i) {
    const int klass = static_cast<int>(i % 3);
    dataset.Add(tseries::ZNormalized(data::MakeCbf(klass, m, &rng)), klass);
  }
  return dataset;
}

void ExpectEngineMatchesDirect(std::size_t m, core::CrossCorrelationImpl impl,
                               double eps) {
  const std::vector<Series> series = MakeSeries(12, m, m);
  const core::SbdEngine engine(series, impl);
  EXPECT_EQ(engine.size(), series.size());
  EXPECT_EQ(engine.series_length(), m);
  for (std::size_t i = 0; i < series.size(); ++i) {
    for (std::size_t j = 0; j < series.size(); ++j) {
      const double direct = core::Sbd(series[i], series[j], impl).distance;
      EXPECT_NEAR(engine.Distance(i, j), direct, eps)
          << "m=" << m << " pair (" << i << "," << j << ")";
    }
  }
}

TEST(SbdCacheTest, EngineMatchesDirectSbdPowerOfTwoLengths) {
  // 2m-1 already a power of two is impossible for m > 1, so these all pad;
  // m=64 and m=128 give fft_len 128 and 256.
  for (std::size_t m : {16, 64, 128}) {
    ExpectEngineMatchesDirect(m, core::CrossCorrelationImpl::kFft, kEpsPow2);
  }
}

TEST(SbdCacheTest, EngineMatchesDirectSbdBluesteinLengths) {
  // kFftNoPow2 transforms at exactly 2m-1: m=24 -> 47 (prime), m=50 -> 99,
  // m=80 -> 159 — all through the cached Bluestein chirp plans.
  for (std::size_t m : {24, 50, 80}) {
    ExpectEngineMatchesDirect(m, core::CrossCorrelationImpl::kFftNoPow2,
                              kEpsBluestein);
  }
}

TEST(SbdCacheTest, QueryPathMatchesDirectSbd) {
  const std::vector<Series> series = MakeSeries(10, 96, 1);
  common::Rng rng(2);
  const Series query = tseries::ZNormalized(data::MakeCbf(2, 96, &rng));
  const core::SbdEngine engine(series);
  const core::SbdEngine::Query q = engine.MakeQuery(query);
  std::vector<double> batched;
  engine.DistanceToAll(q, &batched);
  ASSERT_EQ(batched.size(), series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double direct = core::Sbd(query, series[i]).distance;
    EXPECT_NEAR(engine.Distance(q, i), direct, kEpsPow2);
    EXPECT_EQ(batched[i], engine.Distance(q, i));  // Same arithmetic path.
  }
}

// Peak of the direct NCCc sequence minus the largest value at any other
// lag. Below kNearTieGap the two arithmetics (direct vs cached spectra) may
// legitimately pick different lags for the maximum.
constexpr double kNearTieGap = 1e-9;

double TopTwoGap(const Series& x, const Series& y) {
  const std::vector<double> ncc =
      core::NccSequence(x, y, core::NccNormalization::kCoefficient);
  const std::size_t top = static_cast<std::size_t>(
      std::max_element(ncc.begin(), ncc.end()) - ncc.begin());
  double second = -std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < ncc.size(); ++t) {
    if (t != top) second = std::max(second, ncc[t]);
  }
  return ncc[top] - second;
}

// The alignment contract the k-Shape driver rests on: the engine's cached
// peak shift equals the direct Sbd() shift for every (reference, member)
// pair, except at certified near-ties, which are counted and printed.
TEST(SbdCacheTest, MaxNccMatchesDirectShiftAndValue) {
  long long pairs = 0;
  long long near_ties = 0;
  for (const std::size_t m : {64, 70, 128, 129, 512}) {
    common::Rng rng(m);
    std::vector<Series> series = MakeSeries(9, m, m + 1);
    for (int i = 0; i < 4; ++i) {  // Noisy.
      Series s(m);
      for (double& v : s) v = rng.Gaussian();
      series.push_back(tseries::ZNormalized(s));
    }
    for (int i = 0; i < 3; ++i) {  // Near-constant, left unnormalized.
      Series s(m, 1.0 + i);
      for (double& v : s) v += 1e-6 * rng.Gaussian();
      series.push_back(s);
    }
    series.push_back(Series(m, 0.0));  // Zero-norm member.
    const std::vector<Series> references = {
        series[0], series[4], series[9], series[13],
        tseries::ZNormalized(data::MakeCbf(0, m, &rng))};
    for (const bool half : {false, true}) {
      for (const bool planes : {false, true}) {
        const core::SbdEngine engine(series, core::CrossCorrelationImpl::kFft,
                                     half, planes);
        for (const Series& reference : references) {
          const core::SbdEngine::Query q = engine.MakeQuery(reference);
          for (std::size_t i = 0; i < series.size(); ++i) {
            const core::NccPeak cached = engine.MaxNcc(q, i);
            const core::NccPeak direct = core::MaxNcc(
                reference, series[i], core::NccNormalization::kCoefficient);
            EXPECT_NEAR(cached.value, direct.value, kEpsPow2);
            ++pairs;
            const int sbd_shift = core::Sbd(reference, series[i]).shift;
            if (cached.shift == sbd_shift) continue;
            ++near_ties;
            EXPECT_LT(TopTwoGap(reference, series[i]), kNearTieGap)
                << "m=" << m << " half=" << half << " planes=" << planes
                << " member " << i << ": cached shift " << cached.shift
                << " vs Sbd shift " << sbd_shift;
          }
        }
      }
    }
  }
  std::cout << "[ near-ties ] " << near_ties << " of " << pairs
            << " pairs differ in shift (certified near-ties)\n";
  RecordProperty("near_ties", static_cast<int>(near_ties));
}

TEST(SbdCacheTest, MaxNccZeroNormPairPeaksAtShiftZero) {
  // Sbd()'s zero-norm convention: value 0, shift 0 — for a zero-norm member
  // and for a zero-norm query, in both spectrum layouts.
  const std::size_t m = 40;
  std::vector<Series> series = MakeSeries(3, m, 6);
  series.push_back(Series(m, 0.0));
  for (const bool half : {false, true}) {
    const core::SbdEngine engine(series, core::CrossCorrelationImpl::kFft,
                                 half);
    const core::NccPeak zero_member =
        engine.MaxNcc(engine.MakeQuery(series[0]), series.size() - 1);
    EXPECT_EQ(zero_member.value, 0.0);
    EXPECT_EQ(zero_member.shift, 0);
    const core::SbdEngine::Query zero_query = engine.MakeQuery(Series(m, 0.0));
    for (std::size_t i = 0; i < series.size(); ++i) {
      const core::NccPeak peak = engine.MaxNcc(zero_query, i);
      EXPECT_EQ(peak.value, 0.0);
      EXPECT_EQ(peak.shift, 0);
      EXPECT_EQ(peak.shift, core::Sbd(Series(m, 0.0), series[i]).shift);
    }
  }
}

TEST(SbdCacheTest, PairwiseMatrixConventions) {
  std::vector<Series> series = MakeSeries(9, 32, 5);
  series.push_back(Series(32, 0.0));  // Zero-norm member.
  const core::SbdEngine engine(series);
  const linalg::Matrix d = engine.PairwiseMatrix();
  const std::size_t n = series.size();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(d(i, i), 0.0);  // Exact zero diagonal.
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(d(i, j), d(j, i));  // Bitwise symmetry.
    }
    // Zero-norm convention: exactly 1 against every other series.
    if (i + 1 < n) {
      EXPECT_EQ(d(i, n - 1), 1.0);
    }
  }
}

TEST(SbdCacheTest, BatchedPairwiseHookMatchesGenericLoop) {
  // The routed path consumers actually take: PairwiseDistanceMatrix with an
  // SbdDistance goes through DistanceMeasure::BatchedPairwise.
  const std::vector<Series> series = MakeSeries(14, 60, 6);
  const core::SbdDistance sbd;
  std::vector<double> flat;
  ASSERT_TRUE(sbd.BatchedPairwise(series, &flat));
  ASSERT_EQ(flat.size(), series.size() * series.size());
  const linalg::Matrix routed = cluster::PairwiseDistanceMatrix(series, sbd);
  for (std::size_t i = 0; i < series.size(); ++i) {
    for (std::size_t j = 0; j < series.size(); ++j) {
      EXPECT_EQ(routed(i, j), flat[i * series.size() + j]);
      EXPECT_NEAR(routed(i, j), sbd.Distance(series[i], series[j]), kEpsPow2);
    }
  }
  // The naive implementation has no spectra; the hook must decline so the
  // generic loop handles it.
  const core::SbdDistance naive(core::CrossCorrelationImpl::kNaive);
  std::vector<double> unused;
  EXPECT_FALSE(naive.BatchedPairwise(series, &unused));
  EXPECT_EQ(naive.NewBatchScanner(series), nullptr);
}

TEST(SbdCacheTest, BatchScannerMatchesDirectDistances) {
  const std::vector<Series> series = MakeSeries(11, 44, 7);
  common::Rng rng(8);
  const Series query = tseries::ZNormalized(data::MakeCbf(1, 44, &rng));
  const core::SbdDistance sbd;
  const std::unique_ptr<distance::BatchScanner> scanner =
      sbd.NewBatchScanner(series);
  ASSERT_NE(scanner, nullptr);
  std::vector<double> dists;
  scanner->DistancesToAll(query, &dists);
  ASSERT_EQ(dists.size(), series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_NEAR(dists[i], sbd.Distance(query, series[i]), kEpsPow2);
  }
}

TEST(SbdCacheTest, CachedKShapeMatchesUncachedAssignments) {
  // Same seed, same data: the cached and per-pair runs see distances that
  // differ only in the last ulps, which on this data never flips an argmin —
  // so assignments, iteration count, and convergence all match.
  const std::vector<Series> series = MakeSeries(45, 64, 9);
  core::KShapeOptions cached_options;
  cached_options.init = core::KShapeInit::kPlusPlusSeeding;
  const core::SbdDistance direct_sbd;
  core::KShapeOptions uncached_options = cached_options;
  uncached_options.assignment_distance = &direct_sbd;
  const core::KShape cached(cached_options);
  const core::KShape uncached(uncached_options);

  common::Rng rng_a(10);
  common::Rng rng_b(10);
  const cluster::ClusteringResult a = cached.Cluster(series, 3, &rng_a);
  const cluster::ClusteringResult b = uncached.Cluster(series, 3, &rng_b);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  ASSERT_EQ(a.centroids.size(), b.centroids.size());
  for (std::size_t j = 0; j < a.centroids.size(); ++j) {
    ASSERT_EQ(a.centroids[j].size(), b.centroids[j].size());
    for (std::size_t t = 0; t < a.centroids[j].size(); ++t) {
      EXPECT_NEAR(a.centroids[j][t], b.centroids[j][t], kEpsPow2);
    }
  }
}

TEST(SbdCacheTest, CachedOneNnMatchesUncachedMeasure) {
  // A measure without the batch hooks forces the per-pair classify path;
  // SbdDistance routes through the scanner. Predictions must agree.
  class PlainSbd : public distance::DistanceMeasure {
   public:
    double Distance(tseries::SeriesView x,
                    tseries::SeriesView y) const override {
      return core::Sbd(x, y).distance;
    }
    std::string Name() const override { return "SBD_plain"; }
  };
  const tseries::Dataset train = MakeDataset(24, 52, 11);
  const tseries::Dataset test = MakeDataset(18, 52, 12);
  const core::SbdDistance cached;
  const PlainSbd plain;
  EXPECT_EQ(classify::OneNnAccuracy(train, test, cached),
            classify::OneNnAccuracy(train, test, plain));
  EXPECT_EQ(classify::KnnAccuracy(train, test, cached, 3),
            classify::KnnAccuracy(train, test, plain, 3));
}

TEST(SbdCacheTest, MsbdPolicyMatchesMultivariateSbd) {
  // The cached mSBD of multivariate k-Shape against the direct reference:
  // distances agree to rounding, and the common shift is equal except at a
  // certified near-tie (the reference's summed NCC at both shifts within
  // 1e-9). Zero-norm series and centroids take distance 1 at shift 0 on
  // both paths.
  constexpr double kEps = 1e-9;
  common::Rng rng(13);
  int near_ties = 0;
  for (const std::size_t d : {1u, 2u, 3u}) {
    for (const std::size_t m : {1u, 7u, 48u, 65u}) {
      std::vector<core::MultivariateSeries> series(6);
      for (core::MultivariateSeries& s : series) {
        for (std::size_t c = 0; c < d; ++c) {
          s.channels.push_back(
              tseries::ZNormalized(data::MakeCbf(rng.UniformInt(3), m, &rng)));
        }
      }
      series[5].channels.assign(d, Series(m, 0.0));
      // Rows and centroids packed channel-major, one series per row.
      std::vector<Series> packed;
      for (const core::MultivariateSeries& s : series) {
        Series row;
        for (const Series& channel : s.channels) {
          row.insert(row.end(), channel.begin(), channel.end());
        }
        packed.push_back(std::move(row));
      }
      core::MsbdPolicy policy(packed, d);
      policy.Prepare(packed);
      for (std::size_t j = 0; j < series.size(); ++j) {
        for (std::size_t i = 0; i < series.size(); ++i) {
          const core::MultivariateSbdResult direct =
              core::MultivariateSbd(series[j], series[i]);
          const int jj = static_cast<int>(j);
          const std::string what = "d=" + std::to_string(d) +
                                   " m=" + std::to_string(m) + " j=" +
                                   std::to_string(j) + " i=" +
                                   std::to_string(i);
          EXPECT_NEAR(policy.Distance(jj, i, packed[i]), direct.distance,
                      kEps) << what;
          const int shift = policy.Shift(jj, i, packed[i]);
          if (shift != direct.shift) {
            // Both shifts must reach the same summed NCC; every series here
            // has z-normalized channels, so the normalizer is d·m.
            ++near_ties;
            double at_shift = 0.0;
            double at_direct = 0.0;
            for (std::size_t c = 0; c < d; ++c) {
              const Series a = tseries::ShiftWithZeroFill(
                  series[i].channels[c], shift);
              const Series b = tseries::ShiftWithZeroFill(
                  series[i].channels[c], direct.shift);
              for (std::size_t t = 0; t < m; ++t) {
                at_shift += series[j].channels[c][t] * a[t];
                at_direct += series[j].channels[c][t] * b[t];
              }
            }
            EXPECT_NEAR(at_shift / (d * m), at_direct / (d * m), kEps)
                << what;
          }
        }
      }
    }
  }
  EXPECT_LT(near_ties, 3);
}

// ---------------------------------------------------------------------------
// Half-spectrum vs full-complex cache equivalence (fft/rfft.h).
// ---------------------------------------------------------------------------

void ExpectHalfMatchesFull(std::size_t m, core::CrossCorrelationImpl impl,
                           double eps) {
  const std::vector<Series> series = MakeSeries(12, m, m + 1000);
  const core::SbdEngine full(series, impl, /*use_half_spectrum=*/false);
  const core::SbdEngine half(series, impl, /*use_half_spectrum=*/true);
  EXPECT_FALSE(full.half_spectrum());
  EXPECT_TRUE(half.half_spectrum());

  // Both layouts share one padded-length convention (see fft/fft.h): kFft
  // transforms at the next power of two >= 2m-1, kFftNoPow2 at exactly 2m-1.
  const std::size_t expected_len = impl == core::CrossCorrelationImpl::kFft
                                       ? fft::NextPowerOfTwo(2 * m - 1)
                                       : 2 * m - 1;
  EXPECT_EQ(full.fft_length(), expected_len);
  EXPECT_EQ(half.fft_length(), expected_len);

  for (std::size_t i = 0; i < series.size(); ++i) {
    for (std::size_t j = 0; j < series.size(); ++j) {
      EXPECT_NEAR(half.Distance(i, j), full.Distance(i, j), eps)
          << "m=" << m << " pair (" << i << "," << j << ")";
    }
  }

  // Query path: peak value to epsilon, integer shift exactly.
  common::Rng rng(m + 2000);
  const Series query = tseries::ZNormalized(data::MakeCbf(1, m, &rng));
  const core::SbdEngine::Query fq = full.MakeQuery(query);
  const core::SbdEngine::Query hq = half.MakeQuery(query);
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_NEAR(half.Distance(hq, i), full.Distance(fq, i), eps);
    const core::NccPeak fp = full.MaxNcc(fq, i);
    const core::NccPeak hp = half.MaxNcc(hq, i);
    EXPECT_NEAR(hp.value, fp.value, eps);
    EXPECT_EQ(hp.shift, fp.shift);
  }
}

TEST(SbdCacheTest, HalfSpectrumMatchesFullPowerOfTwoLengths) {
  for (std::size_t m : {16, 64, 128}) {
    ExpectHalfMatchesFull(m, core::CrossCorrelationImpl::kFft, kEpsPow2);
  }
}

TEST(SbdCacheTest, HalfSpectrumMatchesFullBluesteinLengths) {
  // 2m-1 is odd for every m >= 2, so the half engine takes the generic
  // (non-packed) RFFT path here — the conjugate-symmetry fold, not the
  // half-size transform.
  for (std::size_t m : {24, 50, 80}) {
    ExpectHalfMatchesFull(m, core::CrossCorrelationImpl::kFftNoPow2,
                          kEpsBluestein);
  }
}

TEST(SbdCacheDeathTest, QueryFromOtherLayoutIsRejected) {
  // A Query carries the spectrum layout of the engine that minted it; using
  // it against an engine with the other layout must abort loudly instead of
  // reading the wrong member.
  const std::vector<Series> series = MakeSeries(6, 32, 17);
  const core::SbdEngine full(series, core::CrossCorrelationImpl::kFft,
                             /*use_half_spectrum=*/false);
  const core::SbdEngine half(series, core::CrossCorrelationImpl::kFft,
                             /*use_half_spectrum=*/true);
  common::Rng rng(18);
  const Series query = tseries::ZNormalized(data::MakeCbf(0, 32, &rng));
  const core::SbdEngine::Query fq = full.MakeQuery(query);
  const core::SbdEngine::Query hq = half.MakeQuery(query);
  EXPECT_DEATH(half.Distance(fq, 0), "different engine configuration");
  EXPECT_DEATH(full.Distance(hq, 0), "different engine configuration");
}

TEST(SbdCacheTest, DirectSbdGateMatchesFullComplexPath) {
  // The direct (uncached) kFft path also routes through the half-spectrum
  // gate; flipping it changes results only at rounding level.
  const std::vector<Series> series = MakeSeries(8, 48, 19);
  const bool saved = fft::HalfSpectrumEnabled();
  fft::SetHalfSpectrumEnabledForTesting(true);
  std::vector<double> on;
  for (std::size_t i = 0; i + 1 < series.size(); ++i) {
    on.push_back(core::Sbd(series[i], series[i + 1]).distance);
  }
  fft::SetHalfSpectrumEnabledForTesting(false);
  for (std::size_t i = 0; i + 1 < series.size(); ++i) {
    EXPECT_NEAR(core::Sbd(series[i], series[i + 1]).distance, on[i], kEpsPow2);
  }
  fft::SetHalfSpectrumEnabledForTesting(saved);
}

TEST(SbdCacheTest, KShapeHalfSpectrumOptionMatchesFull) {
  // Same seed, two cache layouts: epsilon-level distance differences never
  // flip an argmin or alignment shift on this data, so labels, centroids,
  // and telemetry all match exactly.
  const std::vector<Series> series = MakeSeries(45, 64, 20);
  core::KShapeOptions half_options;
  half_options.init = core::KShapeInit::kPlusPlusSeeding;
  core::KShapeOptions full_options = half_options;
  full_options.use_half_spectrum = false;
  ASSERT_TRUE(half_options.use_half_spectrum);  // Documented default.
  const core::KShape half(half_options);
  const core::KShape full(full_options);

  common::Rng rng_a(21);
  common::Rng rng_b(21);
  const cluster::ClusteringResult a = half.Cluster(series, 3, &rng_a);
  const cluster::ClusteringResult b = full.Cluster(series, 3, &rng_b);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.empty_cluster_reseeds, b.empty_cluster_reseeds);
  EXPECT_EQ(a.degenerate_centroids, b.degenerate_centroids);
  ASSERT_EQ(a.centroids.size(), b.centroids.size());
  for (std::size_t j = 0; j < a.centroids.size(); ++j) {
    ASSERT_EQ(a.centroids[j].size(), b.centroids[j].size());
    for (std::size_t t = 0; t < a.centroids[j].size(); ++t) {
      EXPECT_NEAR(a.centroids[j][t], b.centroids[j][t], kEpsPow2);
    }
  }
}

TEST(SbdCacheTest, EngineRepeatedEvaluationIsBitStable) {
  // Within the cached pipeline the arithmetic is fixed: the same pair asked
  // twice (or via the flat carrier) gives bitwise-identical doubles.
  const std::vector<Series> series = MakeSeries(7, 36, 15);
  const std::size_t n = series.size();
  const core::SbdEngine engine(series);
  std::vector<double> flat;
  engine.PairwiseFlat(&flat);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double once = engine.Distance(i, j);
      const double twice = engine.Distance(i, j);
      EXPECT_EQ(once, twice);
      // The flat carrier computes each pair once with i < j in the x role
      // and mirrors that value; Distance(j, i) swaps the roles and may round
      // differently in the last ulp, so only the computed orientation is
      // compared bitwise.
      if (i < j) {
        EXPECT_EQ(flat[i * n + j], once);
        EXPECT_EQ(flat[j * n + i], flat[i * n + j]);
      }
    }
  }
}

// Exact equality of two doubles' bits (distinguishes -0.0 from 0.0).
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Every read a deferred engine can serve so far, compared bit for bit with
// the eager engine: pair distances over the rows holding spectra, query
// distances and peaks for those rows, and the spectral bound and abandoning
// distance for the rows holding planes.
void ExpectDeferredMatchesEager(const core::SbdEngine& eager,
                                const core::SbdEngine& deferred,
                                const std::vector<core::SbdEngine::Query>& qs,
                                const std::vector<std::size_t>& spectra,
                                const std::vector<std::size_t>& planes,
                                const std::string& what) {
  for (const std::size_t i : spectra) {
    for (const std::size_t j : spectra) {
      EXPECT_TRUE(SameBits(deferred.Distance(i, j), eager.Distance(i, j)))
          << what << " pair (" << i << "," << j << ")";
    }
    for (const core::SbdEngine::Query& q : qs) {
      EXPECT_TRUE(SameBits(deferred.Distance(q, i), eager.Distance(q, i)))
          << what << " row " << i;
      const core::NccPeak a = deferred.MaxNcc(q, i);
      const core::NccPeak b = eager.MaxNcc(q, i);
      EXPECT_TRUE(SameBits(a.value, b.value)) << what << " row " << i;
      EXPECT_EQ(a.shift, b.shift) << what << " row " << i;
    }
  }
  for (const std::size_t i : planes) {
    for (const core::SbdEngine::Query& q : qs) {
      EXPECT_TRUE(
          SameBits(deferred.NccUpperBound(q, i), eager.NccUpperBound(q, i)))
          << what << " row " << i;
      for (const double cutoff :
           {0.0, 0.3, std::numeric_limits<double>::infinity()}) {
        bool abandoned_a = false;
        bool abandoned_b = false;
        const double a = deferred.DistanceWithAbandon(q, i, cutoff,
                                                      &abandoned_a);
        const double b = eager.DistanceWithAbandon(q, i, cutoff,
                                                   &abandoned_b);
        EXPECT_TRUE(SameBits(a, b)) << what << " row " << i;
        EXPECT_EQ(abandoned_a, abandoned_b) << what << " row " << i;
      }
    }
  }
}

// A deferred engine builds its rows on request, in any subsets and order;
// each row's spectrum, norm and plane are pure functions of the row, so the
// engine must answer exactly as the eager one — at power-of-two and
// Bluestein lengths, in both spectrum layouts, with a zero-norm row, at
// every thread count.
TEST(SbdCacheTest, RowsBuiltOnRequestMatchEagerEngineBitwise) {
  const int saved_threads = common::ThreadCount();
  // Build steps of one run: (spectrum-only rows, plane rows), applied in
  // order; repeats and already-built rows are allowed.
  const std::vector<std::pair<std::vector<std::size_t>,
                              std::vector<std::size_t>>> steps = {
      {{9, 0}, {7, 2, 7}},
      {{3, 5, 1, 9}, {}},
      {{}, {0, 3, 9, 2}},
      {{6, 4, 8, 7, 2, 1, 0, 3, 5, 9}, {8, 6, 4, 1, 5}},
  };
  for (const std::size_t m : {1u, 7u, 48u, 65u}) {
    std::vector<Series> series = MakeSeries(10, m, 40 + m);
    std::fill(series[3].begin(), series[3].end(), 0.0);
    for (const core::CrossCorrelationImpl impl :
         {core::CrossCorrelationImpl::kFft,
          core::CrossCorrelationImpl::kFftNoPow2}) {
      for (const bool half : {true, false}) {
        for (const int threads : {1, 2, 8}) {
          common::SetThreadCount(threads);
          const std::string what =
              "m=" + std::to_string(m) + " impl=" +
              std::to_string(static_cast<int>(impl)) +
              " half=" + std::to_string(half) +
              " threads=" + std::to_string(threads);
          const core::SbdEngine eager(series, impl, half,
                                      /*build_bound_planes=*/true);
          core::SbdEngine deferred(series, core::SbdEngine::DeferRows{}, impl,
                                   half, /*build_bound_planes=*/true);
          ASSERT_EQ(deferred.size(), eager.size());
          ASSERT_EQ(deferred.fft_length(), eager.fft_length());
          ASSERT_TRUE(deferred.has_bound_planes());
          std::vector<core::SbdEngine::Query> qs;
          for (const std::size_t i : {0u, 3u, 6u}) {
            qs.push_back(eager.MakeQuery(series[i]));
          }
          std::vector<char> has_spectrum(series.size(), 0);
          std::vector<char> has_plane(series.size(), 0);
          for (const auto& [rows, plane_rows] : steps) {
            deferred.BuildRows(rows, plane_rows);
            for (const std::size_t i : rows) has_spectrum[i] = 1;
            for (const std::size_t i : plane_rows) {
              has_spectrum[i] = 1;
              has_plane[i] = 1;
            }
            std::vector<std::size_t> spectra;
            std::vector<std::size_t> planes;
            for (std::size_t i = 0; i < series.size(); ++i) {
              if (has_spectrum[i]) spectra.push_back(i);
              if (has_plane[i]) planes.push_back(i);
            }
            ExpectDeferredMatchesEager(eager, deferred, qs, spectra, planes,
                                       what);
          }
        }
      }
    }
  }
  common::SetThreadCount(saved_threads);
}

TEST(SbdCacheDeathTest, ReadingAnUnbuiltRowAborts) {
  const std::vector<Series> series = MakeSeries(4, 16, 3);
  core::SbdEngine engine(series, core::SbdEngine::DeferRows{},
                         core::CrossCorrelationImpl::kFft,
                         /*use_half_spectrum=*/true,
                         /*build_bound_planes=*/true);
  const std::size_t spectrum_only[] = {1};
  const std::size_t with_planes[] = {0};
  engine.BuildRows(spectrum_only, with_planes);
  const core::SbdEngine::Query q = engine.MakeQuery(series[2]);
  bool abandoned = false;
  EXPECT_DEATH(engine.Distance(q, 2), "before it was built");
  EXPECT_DEATH(engine.MaxNcc(q, 3), "before it was built");
  EXPECT_DEATH(engine.Distance(0, 2), "before it was built");
  // Row 1 holds its spectrum but no plane.
  EXPECT_DEATH(engine.NccUpperBound(q, 1), "before it was built");
  EXPECT_DEATH(engine.DistanceWithAbandon(q, 1, 0.5, &abandoned),
               "before it was built");
}

}  // namespace
}  // namespace kshape
