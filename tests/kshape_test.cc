#include "core/kshape.h"

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/averaging.h"
#include "cluster/kmeans.h"
#include "common/random.h"
#include "core/kshape_driver.h"
#include "data/generators.h"
#include "distance/dtw.h"
#include "distance/euclidean.h"
#include "eval/metrics.h"
#include "tseries/normalization.h"

namespace kshape::core {
namespace {

using tseries::Series;

constexpr double kPi = 3.14159265358979323846;

// Builds n series per class: class k is a (k+1)-cycle sine with random phase
// and mild noise — separable by shape but heavily misaligned.
void MakePhasedSines(int per_class, int num_classes, std::size_t m,
                     common::Rng* rng, std::vector<Series>* series,
                     std::vector<int>* labels) {
  for (int k = 0; k < num_classes; ++k) {
    for (int i = 0; i < per_class; ++i) {
      const double phase = rng->Uniform(0.0, 2.0 * kPi);
      Series s(m);
      for (std::size_t t = 0; t < m; ++t) {
        s[t] = std::sin(2.0 * kPi * (k + 1) * t / static_cast<double>(m) +
                        phase) +
               rng->Gaussian(0.0, 0.05);
      }
      series->push_back(tseries::ZNormalized(s));
      labels->push_back(k);
    }
  }
}

TEST(KShapeTest, RecoversWellSeparatedPhasedClasses) {
  common::Rng rng(1);
  std::vector<Series> series;
  std::vector<int> labels;
  MakePhasedSines(15, 3, 96, &rng, &series, &labels);

  // k-means-style methods can hit local optima on unlucky initializations;
  // average over restarts as the paper does (10 runs per dataset).
  const KShape kshape;
  common::Rng seeder(2);
  double total = 0.0;
  const int runs = 5;
  for (int run = 0; run < runs; ++run) {
    common::Rng cluster_rng = seeder.Fork();
    const cluster::ClusteringResult result =
        kshape.Cluster(series, 3, &cluster_rng);
    total += eval::RandIndex(labels, result.assignments);
  }
  EXPECT_GT(total / runs, 0.85);
}

TEST(KShapeTest, BeatsEdKMeansOnOutOfPhaseEcgLikeData) {
  // The headline scenario of the paper's introduction: similar but
  // out-of-phase ECG patterns. Like every k-means-family method, k-Shape
  // lands in local optima on some initializations, so the paper's claim is
  // *relative*: averaged over random restarts, k-Shape must beat the
  // ED-based k-means on phase-shifted data.
  common::Rng rng(3);
  std::vector<Series> series;
  std::vector<int> labels;
  for (int k = 0; k < 2; ++k) {
    for (int i = 0; i < 30; ++i) {
      series.push_back(
          tseries::ZNormalized(data::MakeEcgLike(k, 136, &rng, 0.1)));
      labels.push_back(k);
    }
  }
  const KShape kshape;
  const distance::EuclideanDistance ed;
  const cluster::ArithmeticMeanAveraging avg;
  const cluster::KMeans kavg_ed(&ed, &avg, "k-AVG+ED");

  common::Rng seeder(4);
  double kshape_total = 0.0;
  double kavg_total = 0.0;
  const int runs = 10;
  for (int run = 0; run < runs; ++run) {
    common::Rng rng_a = seeder.Fork();
    common::Rng rng_b = seeder.Fork();
    kshape_total +=
        eval::RandIndex(labels, kshape.Cluster(series, 2, &rng_a).assignments);
    kavg_total +=
        eval::RandIndex(labels, kavg_ed.Cluster(series, 2, &rng_b).assignments);
  }
  EXPECT_GE(kshape_total, kavg_total);
  EXPECT_GT(kshape_total / runs, 0.5);
}

TEST(KShapeTest, OutputInvariants) {
  common::Rng rng(5);
  std::vector<Series> series;
  std::vector<int> labels;
  MakePhasedSines(8, 2, 64, &rng, &series, &labels);

  const KShape kshape;
  common::Rng cluster_rng(6);
  const cluster::ClusteringResult result =
      kshape.Cluster(series, 2, &cluster_rng);
  ASSERT_EQ(result.assignments.size(), series.size());
  ASSERT_EQ(result.centroids.size(), 2u);
  for (int a : result.assignments) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 2);
  }
  // Centroids are z-normalized series of the right length.
  for (const Series& c : result.centroids) {
    ASSERT_EQ(c.size(), 64u);
    EXPECT_NEAR(tseries::Mean(c), 0.0, 1e-9);
    EXPECT_NEAR(tseries::StdDev(c), 1.0, 1e-9);
  }
  // No empty cluster.
  std::vector<int> counts(2, 0);
  for (int a : result.assignments) ++counts[a];
  EXPECT_GT(counts[0], 0);
  EXPECT_GT(counts[1], 0);
  EXPECT_GE(result.iterations, 1);
}

TEST(KShapeTest, DeterministicGivenSeed) {
  common::Rng rng(7);
  std::vector<Series> series;
  std::vector<int> labels;
  MakePhasedSines(6, 2, 48, &rng, &series, &labels);

  const KShape kshape;
  common::Rng rng_a(42);
  common::Rng rng_b(42);
  const auto result_a = kshape.Cluster(series, 2, &rng_a);
  const auto result_b = kshape.Cluster(series, 2, &rng_b);
  EXPECT_EQ(result_a.assignments, result_b.assignments);
  EXPECT_EQ(result_a.iterations, result_b.iterations);
}

TEST(KShapeTest, SingleClusterAssignsEverythingTogether) {
  common::Rng rng(8);
  std::vector<Series> series;
  std::vector<int> labels;
  MakePhasedSines(5, 2, 32, &rng, &series, &labels);

  const KShape kshape;
  common::Rng cluster_rng(9);
  const auto result = kshape.Cluster(series, 1, &cluster_rng);
  for (int a : result.assignments) EXPECT_EQ(a, 0);
}

TEST(KShapeTest, KEqualsNGivesOnePointPerCluster) {
  common::Rng rng(10);
  std::vector<Series> series;
  std::vector<int> labels;
  MakePhasedSines(2, 2, 32, &rng, &series, &labels);
  const int n = static_cast<int>(series.size());

  const KShape kshape;
  common::Rng cluster_rng(11);
  const auto result = kshape.Cluster(series, n, &cluster_rng);
  std::vector<int> counts(n, 0);
  for (int a : result.assignments) ++counts[a];
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(KShapeTest, ConvergesWithinIterationCap) {
  common::Rng rng(12);
  std::vector<Series> series;
  std::vector<int> labels;
  MakePhasedSines(10, 2, 64, &rng, &series, &labels);

  const KShape kshape;
  common::Rng cluster_rng(13);
  const auto result = kshape.Cluster(series, 2, &cluster_rng);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 100);
}

TEST(KShapeTest, MaxIterationsOptionIsHonored) {
  common::Rng rng(14);
  std::vector<Series> series;
  std::vector<int> labels;
  MakePhasedSines(10, 3, 64, &rng, &series, &labels);

  KShapeOptions options;
  options.max_iterations = 1;
  const KShape kshape(options);
  common::Rng cluster_rng(15);
  const auto result = kshape.Cluster(series, 3, &cluster_rng);
  EXPECT_EQ(result.iterations, 1);
}

TEST(KShapeTest, DtwAssignmentVariantRunsAndIsNamed) {
  const dtw::DtwMeasure dtw_measure = dtw::DtwMeasure::Unconstrained();
  KShapeOptions options;
  options.assignment_distance = &dtw_measure;
  const KShape kshape_dtw(options);
  EXPECT_EQ(kshape_dtw.Name(), "k-Shape+DTW");

  common::Rng rng(16);
  std::vector<Series> series;
  std::vector<int> labels;
  MakePhasedSines(5, 2, 32, &rng, &series, &labels);
  common::Rng cluster_rng(17);
  const auto result = kshape_dtw.Cluster(series, 2, &cluster_rng);
  EXPECT_EQ(result.assignments.size(), series.size());
}

TEST(KShapeTest, DefaultNameIsKShape) {
  EXPECT_EQ(KShape().Name(), "k-Shape");
}

TEST(KShapeTest, PlusPlusSeedingRecoversClasses) {
  common::Rng rng(20);
  std::vector<Series> series;
  std::vector<int> labels;
  MakePhasedSines(10, 3, 64, &rng, &series, &labels);

  KShapeOptions options;
  options.init = KShapeInit::kPlusPlusSeeding;
  const KShape kshape_pp(options);
  common::Rng seeder(21);
  double total = 0.0;
  const int runs = 5;
  for (int run = 0; run < runs; ++run) {
    common::Rng cluster_rng = seeder.Fork();
    total += eval::RandIndex(labels,
                             kshape_pp.Cluster(series, 3, &cluster_rng)
                                 .assignments);
  }
  EXPECT_GT(total / runs, 0.9);
}

TEST(KShapeTest, PlusPlusSeedingIsDeterministicGivenSeed) {
  common::Rng rng(22);
  std::vector<Series> series;
  std::vector<int> labels;
  MakePhasedSines(6, 2, 48, &rng, &series, &labels);

  KShapeOptions options;
  options.init = KShapeInit::kPlusPlusSeeding;
  const KShape kshape_pp(options);
  common::Rng rng_a(5);
  common::Rng rng_b(5);
  EXPECT_EQ(kshape_pp.Cluster(series, 2, &rng_a).assignments,
            kshape_pp.Cluster(series, 2, &rng_b).assignments);
}

// A corpus of INT_MAX + 1 series that holds no samples: the driver must
// refuse it at entry, before any row index is drawn through the int range
// of Rng::UniformInt (or any per-series state is allocated).
class OversizedSource : public BlockSource {
 public:
  std::size_t size() const override {
    return static_cast<std::size_t>(std::numeric_limits<int>::max()) + 1;
  }
  std::size_t length() const override { return 16; }
  std::size_t num_blocks() const override { return 1; }
  SeriesBlock Block(std::size_t, const EngineReads&) override {
    return SeriesBlock{};
  }
  std::size_t BlockOfRow(std::size_t) const override { return 0; }
};

TEST(KShapeDriverDeathTest, CorpusBeyondIntRangeAborts) {
  OversizedSource source;
  common::Rng rng(1);
  for (const KShapeInit init :
       {KShapeInit::kRandomAssignment, KShapeInit::kPlusPlusSeeding}) {
    KShapeOptions options;
    options.init = init;
    EXPECT_DEATH(RunKShapeDriver(&source, 2, &rng, options,
                                 /*minibatch=*/false, /*policy=*/nullptr),
                 "corpus exceeds INT_MAX series");
  }
}

}  // namespace
}  // namespace kshape::core
