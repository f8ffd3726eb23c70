#include "core/multivariate.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/sbd.h"
#include "eval/metrics.h"
#include "tseries/normalization.h"

namespace kshape::core {
namespace {

using tseries::Series;

constexpr double kPi = 3.14159265358979323846;

MultivariateSeries RandomMv(std::size_t d, std::size_t m, common::Rng* rng) {
  MultivariateSeries s;
  for (std::size_t c = 0; c < d; ++c) {
    Series channel(m);
    for (double& v : channel) v = rng->Gaussian();
    s.channels.push_back(std::move(channel));
  }
  return s;
}

// A d=2 instance: channel 0 a sine of `cycles`, channel 1 its cosine, both
// delayed by one COMMON random offset (the defining multivariate structure).
MultivariateSeries PhasedPair(double cycles, std::size_t m, common::Rng* rng,
                              double noise) {
  const double phase = rng->Uniform(0.0, 2.0 * kPi);
  MultivariateSeries s;
  s.channels.assign(2, Series(m));
  for (std::size_t t = 0; t < m; ++t) {
    const double u = 2.0 * kPi * cycles * t / static_cast<double>(m) + phase;
    s.channels[0][t] = std::sin(u) + rng->Gaussian(0.0, noise);
    s.channels[1][t] = std::cos(u) + rng->Gaussian(0.0, noise);
  }
  ZNormalizeMultivariate(&s);
  return s;
}

TEST(MultivariateSbdTest, SelfDistanceIsZero) {
  common::Rng rng(1);
  MultivariateSeries x = RandomMv(3, 40, &rng);
  ZNormalizeMultivariate(&x);
  const MultivariateSbdResult r = MultivariateSbd(x, x);
  EXPECT_NEAR(r.distance, 0.0, 1e-9);
  EXPECT_EQ(r.shift, 0);
}

TEST(MultivariateSbdTest, ReducesToUnivariateSbdForOneChannel) {
  common::Rng rng(2);
  MultivariateSeries x = RandomMv(1, 50, &rng);
  MultivariateSeries y = RandomMv(1, 50, &rng);
  const MultivariateSbdResult mv = MultivariateSbd(x, y);
  const SbdResult uni = Sbd(x.channels[0], y.channels[0]);
  EXPECT_NEAR(mv.distance, uni.distance, 1e-10);
  EXPECT_EQ(mv.shift, uni.shift);
}

TEST(MultivariateSbdTest, SymmetricInValue) {
  common::Rng rng(3);
  const MultivariateSeries x = RandomMv(2, 30, &rng);
  const MultivariateSeries y = RandomMv(2, 30, &rng);
  EXPECT_NEAR(MultivariateSbd(x, y).distance, MultivariateSbd(y, x).distance,
              1e-9);
}

TEST(MultivariateSbdTest, RecoversCommonShiftAcrossChannels) {
  const std::size_t m = 80;
  MultivariateSeries x;
  x.channels.assign(2, Series(m, 0.0));
  for (std::size_t t = 30; t < 40; ++t) {
    x.channels[0][t] = 1.0;
    x.channels[1][t] = -2.0 + 0.3 * static_cast<double>(t - 30);
  }
  MultivariateSeries y;
  for (const auto& channel : x.channels) {
    y.channels.push_back(tseries::ShiftWithZeroFill(channel, 7));
  }
  const MultivariateSbdResult r = MultivariateSbd(x, y);
  EXPECT_EQ(r.shift, -7);
  EXPECT_NEAR(r.distance, 0.0, 1e-9);
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t t = 0; t + 7 < m; ++t) {
      EXPECT_NEAR(r.aligned_y.channels[c][t], x.channels[c][t], 1e-9);
    }
  }
}

TEST(MultivariateSbdTest, CommonShiftBeatsPerChannelContradiction) {
  // Channel 0 suggests shift +5, channel 1 suggests -5 with more energy:
  // the common shift must reconcile them (dominated by channel 1 here),
  // demonstrating that channels are not aligned independently.
  const std::size_t m = 64;
  MultivariateSeries x;
  x.channels.assign(2, Series(m, 0.0));
  for (std::size_t t = 20; t < 28; ++t) {
    x.channels[0][t] = 1.0;
    x.channels[1][t] = 3.0;  // Higher energy channel.
  }
  MultivariateSeries y;
  y.channels.push_back(tseries::ShiftWithZeroFill(x.channels[0], 5));
  y.channels.push_back(tseries::ShiftWithZeroFill(x.channels[1], -5));
  const MultivariateSbdResult r = MultivariateSbd(x, y);
  EXPECT_EQ(r.shift, 5);  // Align the heavy channel: y shifted by +5.
}

TEST(MultivariateSbdTest, ZeroNormGivesDistanceOne) {
  MultivariateSeries zero;
  zero.channels.assign(2, Series(10, 0.0));
  common::Rng rng(4);
  const MultivariateSeries x = RandomMv(2, 10, &rng);
  EXPECT_DOUBLE_EQ(MultivariateSbd(x, zero).distance, 1.0);
}

TEST(MultivariateKShapeTest, IdenticalMembersGiveTheSharedShape) {
  common::Rng rng(5);
  const MultivariateSeries base = PhasedPair(2.0, 64, &rng, 0.0);
  const std::vector<MultivariateSeries> members = {base, base, base};
  const MultivariateClusteringResult result =
      MultivariateKShape().Cluster(members, 1, &rng);
  ASSERT_EQ(result.centroids.size(), 1u);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_NEAR(
        Sbd(base.channels[c], result.centroids[0].channels[c]).distance, 0.0,
        1e-6);
  }
  EXPECT_EQ(result.degenerate_centroids, 0);
}

TEST(MultivariateKShapeTest, AllZeroClusterGivesZeroCentroid) {
  common::Rng rng(6);
  MultivariateSeries zero;
  zero.channels.assign(3, Series(16, 0.0));
  const MultivariateClusteringResult result =
      MultivariateKShape().Cluster({zero, zero}, 1, &rng);
  ASSERT_EQ(result.centroids[0].num_channels(), 3u);
  for (const auto& channel : result.centroids[0].channels) {
    for (double v : channel) EXPECT_DOUBLE_EQ(v, 0.0);
  }
  EXPECT_EQ(result.degenerate_centroids, 1);
}

TEST(MultivariateKShapeTest, RecoversTwoPhasedClasses) {
  common::Rng rng(7);
  std::vector<MultivariateSeries> series;
  std::vector<int> labels;
  for (int klass = 0; klass < 2; ++klass) {
    for (int i = 0; i < 10; ++i) {
      series.push_back(PhasedPair(klass == 0 ? 1.0 : 3.0, 64, &rng, 0.05));
      labels.push_back(klass);
    }
  }
  const MultivariateKShape mkshape;
  common::Rng seeder(8);
  double total = 0.0;
  const int runs = 3;
  for (int run = 0; run < runs; ++run) {
    common::Rng cluster_rng = seeder.Fork();
    const MultivariateClusteringResult result =
        mkshape.Cluster(series, 2, &cluster_rng);
    total += eval::RandIndex(labels, result.assignments);
  }
  EXPECT_GT(total / runs, 0.9);
}

TEST(MultivariateKShapeTest, OutputInvariants) {
  common::Rng rng(9);
  std::vector<MultivariateSeries> series;
  for (int i = 0; i < 8; ++i) {
    series.push_back(PhasedPair(1.0 + (i % 2) * 2.0, 32, &rng, 0.1));
  }
  const MultivariateKShape mkshape;
  common::Rng cluster_rng(10);
  const MultivariateClusteringResult result =
      mkshape.Cluster(series, 2, &cluster_rng);
  ASSERT_EQ(result.assignments.size(), series.size());
  ASSERT_EQ(result.centroids.size(), 2u);
  for (const auto& centroid : result.centroids) {
    ASSERT_EQ(centroid.num_channels(), 2u);
    ASSERT_EQ(centroid.length(), 32u);
  }
  std::vector<int> counts(2, 0);
  for (int a : result.assignments) ++counts[a];
  EXPECT_GT(counts[0], 0);
  EXPECT_GT(counts[1], 0);
  EXPECT_GE(result.iterations, 1);
}

TEST(MultivariateKShapeTest, DeterministicGivenSeed) {
  common::Rng rng(11);
  std::vector<MultivariateSeries> series;
  for (int i = 0; i < 6; ++i) {
    series.push_back(PhasedPair(1.0 + (i % 2) * 2.0, 32, &rng, 0.1));
  }
  const MultivariateKShape mkshape;
  common::Rng rng_a(42);
  common::Rng rng_b(42);
  EXPECT_EQ(mkshape.Cluster(series, 2, &rng_a).assignments,
            mkshape.Cluster(series, 2, &rng_b).assignments);
}

}  // namespace
}  // namespace kshape::core
