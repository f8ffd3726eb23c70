#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/algorithm.h"
#include "cluster/averaging.h"
#include "cluster/dba.h"
#include "cluster/hierarchical.h"
#include "cluster/kmeans.h"
#include "cluster/kmedoids.h"
#include "cluster/ksc.h"
#include "cluster/spectral.h"
#include "common/random.h"
#include "core/sbd.h"
#include "distance/dtw.h"
#include "distance/euclidean.h"
#include "eval/metrics.h"
#include "fft/rfft.h"
#include "tseries/normalization.h"

namespace kshape::cluster {
namespace {

using tseries::Series;

constexpr double kPi = 3.14159265358979323846;

// Two clearly separated level-based classes (no phase games): every
// reasonable algorithm must solve this.
void MakeLevelClasses(int per_class, std::size_t m, common::Rng* rng,
                      std::vector<Series>* series, std::vector<int>* labels) {
  for (int k = 0; k < 2; ++k) {
    for (int i = 0; i < per_class; ++i) {
      Series s(m);
      for (std::size_t t = 0; t < m; ++t) {
        const double base = k == 0
                                ? std::sin(2.0 * kPi * t / double(m))
                                : std::sin(2.0 * kPi * 3.0 * t / double(m));
        s[t] = base + rng->Gaussian(0.0, 0.05);
      }
      series->push_back(s);
      labels->push_back(k);
    }
  }
}

TEST(AlgorithmHelpersTest, GroupByClusterPartitionsIndices) {
  const std::vector<int> assignments = {0, 1, 0, 2, 1};
  const auto groups = GroupByCluster(assignments, 3);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(groups[1], (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(groups[2], (std::vector<std::size_t>{3}));
}

TEST(AlgorithmHelpersTest, RandomAssignmentsCoverAllClusters) {
  common::Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<int> a = RandomAssignments(20, 5, &rng);
    std::vector<int> counts(5, 0);
    for (int c : a) {
      ASSERT_GE(c, 0);
      ASSERT_LT(c, 5);
      ++counts[c];
    }
    for (int c : counts) EXPECT_GT(c, 0);
  }
}

TEST(ArithmeticMeanTest, AveragesSelectedMembers) {
  const std::vector<Series> pool = {{1.0, 2.0}, {3.0, 4.0}, {100.0, 100.0}};
  const ArithmeticMeanAveraging avg;
  common::Rng rng(2);
  const Series mean = avg.Average(pool, {0, 1}, Series(2, 0.0), &rng);
  EXPECT_DOUBLE_EQ(mean[0], 2.0);
  EXPECT_DOUBLE_EQ(mean[1], 3.0);
}

TEST(ArithmeticMeanTest, EmptyClusterIsZero) {
  const std::vector<Series> pool = {{1.0, 2.0}};
  const ArithmeticMeanAveraging avg;
  common::Rng rng(3);
  const Series mean = avg.Average(pool, {}, Series(2, 0.0), &rng);
  EXPECT_DOUBLE_EQ(mean[0], 0.0);
  EXPECT_DOUBLE_EQ(mean[1], 0.0);
}

TEST(DbaTest, AverageOfIdenticalSeriesIsThatSeries) {
  const Series base = {0.0, 1.0, 3.0, 1.0, 0.0};
  const std::vector<Series> pool = {base, base, base};
  const DbaAveraging dba;
  common::Rng rng(4);
  const Series avg = dba.Average(pool, {0, 1, 2}, Series(5, 0.0), &rng);
  for (std::size_t t = 0; t < base.size(); ++t) {
    EXPECT_NEAR(avg[t], base[t], 1e-9);
  }
}

TEST(DbaTest, RefinementReducesDtwCost) {
  common::Rng rng(5);
  std::vector<Series> pool;
  for (int i = 0; i < 6; ++i) {
    Series s(40, 0.0);
    const int start = 10 + rng.UniformInt(8);
    for (int t = start; t < start + 8; ++t) s[t] = 1.0;
    pool.push_back(s);
  }
  const std::vector<std::size_t> all = {0, 1, 2, 3, 4, 5};
  const Series start = pool[0];
  const Series refined = DbaRefineOnce(pool, all, start, -1);
  double cost_start = 0.0;
  double cost_refined = 0.0;
  for (const Series& s : pool) {
    const double a = dtw::DtwDistance(start, s);
    const double b = dtw::DtwDistance(refined, s);
    cost_start += a * a;
    cost_refined += b * b;
  }
  EXPECT_LE(cost_refined, cost_start + 1e-9);
}

TEST(KMeansTest, RecoversSeparatedClassesWithEd) {
  common::Rng rng(6);
  std::vector<Series> series;
  std::vector<int> labels;
  MakeLevelClasses(15, 64, &rng, &series, &labels);

  const distance::EuclideanDistance ed;
  const ArithmeticMeanAveraging avg;
  const KMeans kmeans(&ed, &avg, "k-AVG+ED");
  EXPECT_EQ(kmeans.Name(), "k-AVG+ED");

  common::Rng cluster_rng(7);
  const ClusteringResult result = kmeans.Cluster(series, 2, &cluster_rng);
  EXPECT_GT(eval::RandIndex(labels, result.assignments), 0.95);
  EXPECT_TRUE(result.converged);
}

TEST(KMeansTest, NoEmptyClusters) {
  common::Rng rng(8);
  std::vector<Series> series;
  std::vector<int> labels;
  MakeLevelClasses(4, 32, &rng, &series, &labels);

  const distance::EuclideanDistance ed;
  const ArithmeticMeanAveraging avg;
  const KMeans kmeans(&ed, &avg, "k-AVG+ED");
  common::Rng cluster_rng(9);
  // Ask for more clusters than natural groups; none may end up empty.
  const ClusteringResult result = kmeans.Cluster(series, 5, &cluster_rng);
  std::vector<int> counts(5, 0);
  for (int a : result.assignments) ++counts[a];
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(PamTest, MatchesBruteForceOnTinyInstance) {
  // 6 points on a line; k=2. Brute-force the optimal medoid pair.
  const std::vector<double> points = {0.0, 0.1, 0.2, 10.0, 10.1, 10.2};
  const std::size_t n = points.size();
  linalg::Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      d(i, j) = std::fabs(points[i] - points[j]);
    }
  }
  double best_cost = 1e18;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      double cost = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        cost += std::min(d(i, a), d(i, b));
      }
      best_cost = std::min(best_cost, cost);
    }
  }

  common::Rng rng(10);
  const ClusteringResult result = PamOnMatrix(d, 2, &rng, PamOptions{});
  // Recover the medoid cost from the assignment.
  double pam_cost = 0.0;
  const auto groups = GroupByCluster(result.assignments, 2);
  for (const auto& group : groups) {
    ASSERT_FALSE(group.empty());
    double best_group = 1e18;
    for (std::size_t candidate : group) {
      double cost = 0.0;
      for (std::size_t i : group) cost += d(i, candidate);
      best_group = std::min(best_group, cost);
    }
    pam_cost += best_group;
  }
  EXPECT_NEAR(pam_cost, best_cost, 1e-9);
}

TEST(PamTest, BuildInitIsDeterministicAndGood) {
  common::Rng rng(11);
  std::vector<Series> series;
  std::vector<int> labels;
  MakeLevelClasses(10, 48, &rng, &series, &labels);

  const distance::EuclideanDistance ed;
  PamOptions options;
  options.use_build_init = true;
  const KMedoids pam(&ed, "PAM+ED", options);
  common::Rng rng_a(1);
  common::Rng rng_b(2);
  const auto result_a = pam.Cluster(series, 2, &rng_a);
  const auto result_b = pam.Cluster(series, 2, &rng_b);
  EXPECT_EQ(result_a.assignments, result_b.assignments);
  EXPECT_GT(eval::RandIndex(labels, result_a.assignments), 0.9);
}

TEST(PamTest, MedoidsAreClusterMembers) {
  common::Rng rng(12);
  std::vector<Series> series;
  std::vector<int> labels;
  MakeLevelClasses(8, 32, &rng, &series, &labels);

  const distance::EuclideanDistance ed;
  const KMedoids pam(&ed, "PAM+ED");
  common::Rng cluster_rng(13);
  const auto result = pam.Cluster(series, 2, &cluster_rng);
  ASSERT_EQ(result.centroids.size(), 2u);
  for (const Series& medoid : result.centroids) {
    const bool found = std::any_of(series.begin(), series.end(),
                                   [&](const Series& s) { return s == medoid; });
    EXPECT_TRUE(found);
  }
}

TEST(HierarchicalTest, KnownSingleLinkageDendrogram) {
  // Points 0, 1, 10: single linkage merges {0,1} at 1 then {0,1},{10} at 9.
  linalg::Matrix d(3, 3);
  d(0, 1) = d(1, 0) = 1.0;
  d(0, 2) = d(2, 0) = 10.0;
  d(1, 2) = d(2, 1) = 9.0;
  const auto merges = AgglomerativeDendrogram(d, Linkage::kSingle);
  ASSERT_EQ(merges.size(), 2u);
  EXPECT_DOUBLE_EQ(merges[0].height, 1.0);
  EXPECT_DOUBLE_EQ(merges[1].height, 9.0);

  const std::vector<int> two = CutDendrogram(merges, 3, 2);
  EXPECT_EQ(two[0], two[1]);
  EXPECT_NE(two[0], two[2]);
}

TEST(HierarchicalTest, CompleteLinkageUsesMaxDistance) {
  linalg::Matrix d(3, 3);
  d(0, 1) = d(1, 0) = 1.0;
  d(0, 2) = d(2, 0) = 10.0;
  d(1, 2) = d(2, 1) = 9.0;
  const auto merges = AgglomerativeDendrogram(d, Linkage::kComplete);
  EXPECT_DOUBLE_EQ(merges[1].height, 10.0);  // max(10, 9)
}

TEST(HierarchicalTest, AverageLinkageIsSizeWeighted) {
  linalg::Matrix d(3, 3);
  d(0, 1) = d(1, 0) = 1.0;
  d(0, 2) = d(2, 0) = 10.0;
  d(1, 2) = d(2, 1) = 8.0;
  const auto merges = AgglomerativeDendrogram(d, Linkage::kAverage);
  EXPECT_DOUBLE_EQ(merges[1].height, 9.0);  // (10 + 8) / 2
}

TEST(HierarchicalTest, CutProducesRequestedClusterCount) {
  common::Rng rng(14);
  std::vector<Series> series;
  std::vector<int> labels;
  MakeLevelClasses(6, 32, &rng, &series, &labels);
  const distance::EuclideanDistance ed;
  for (Linkage linkage :
       {Linkage::kSingle, Linkage::kAverage, Linkage::kComplete}) {
    const HierarchicalClustering h(&ed, linkage, "H");
    common::Rng cluster_rng(15);
    for (int k : {1, 2, 3, 5}) {
      const auto result = h.Cluster(series, k, &cluster_rng);
      const int distinct =
          *std::max_element(result.assignments.begin(),
                            result.assignments.end()) + 1;
      EXPECT_EQ(distinct, k) << LinkageName(linkage);
    }
  }
}

TEST(HierarchicalTest, SeparatedClassesAreRecovered) {
  common::Rng rng(16);
  std::vector<Series> series;
  std::vector<int> labels;
  MakeLevelClasses(8, 48, &rng, &series, &labels);
  const distance::EuclideanDistance ed;
  const HierarchicalClustering h(&ed, Linkage::kComplete, "H-C+ED");
  common::Rng cluster_rng(17);
  const auto result = h.Cluster(series, 2, &cluster_rng);
  EXPECT_GT(eval::RandIndex(labels, result.assignments), 0.95);
}

TEST(SpectralTest, EmbeddingRowsAreUnitNorm) {
  common::Rng rng(18);
  std::vector<Series> series;
  std::vector<int> labels;
  MakeLevelClasses(6, 32, &rng, &series, &labels);
  const distance::EuclideanDistance ed;
  const linalg::Matrix d = PairwiseDistanceMatrix(series, ed);
  const linalg::Matrix embedding = SpectralEmbedding(d, 2, -1.0);
  ASSERT_EQ(embedding.rows(), series.size());
  ASSERT_EQ(embedding.cols(), 2u);
  for (std::size_t i = 0; i < embedding.rows(); ++i) {
    double norm = 0.0;
    for (std::size_t c = 0; c < 2; ++c) {
      norm += embedding(i, c) * embedding(i, c);
    }
    EXPECT_NEAR(norm, 1.0, 1e-9);
  }
}

TEST(SpectralTest, RecoversSeparatedClasses) {
  common::Rng rng(19);
  std::vector<Series> series;
  std::vector<int> labels;
  MakeLevelClasses(10, 48, &rng, &series, &labels);
  const distance::EuclideanDistance ed;
  const SpectralClustering spectral(&ed, "S+ED");
  common::Rng cluster_rng(20);
  const auto result = spectral.Cluster(series, 2, &cluster_rng);
  EXPECT_GT(eval::RandIndex(labels, result.assignments), 0.95);
}

TEST(KscDistanceTest, InvariantToScaleOfEitherArgument) {
  common::Rng rng(21);
  Series x(32);
  Series y(32);
  for (double& v : x) v = rng.Gaussian();
  for (double& v : y) v = rng.Gaussian();
  const double base = KscDistanceValue(x, y);
  Series y_scaled = y;
  for (double& v : y_scaled) v *= 5.0;
  EXPECT_NEAR(KscDistanceValue(x, y_scaled), base, 1e-9);
  Series x_scaled = x;
  for (double& v : x_scaled) v *= 3.0;
  EXPECT_NEAR(KscDistanceValue(x_scaled, y), base, 1e-9);
}

TEST(KscDistanceTest, ZeroForScaledShiftedCopy) {
  const std::size_t m = 64;
  Series x(m, 0.0);
  for (std::size_t t = 20; t < 30; ++t) x[t] = 1.0;
  Series y = tseries::ShiftWithZeroFill(x, 6);
  for (double& v : y) v *= 2.5;
  EXPECT_NEAR(KscDistanceValue(x, y), 0.0, 1e-9);
}

TEST(KscDistanceTest, ZeroNormConventions) {
  const Series zero(8, 0.0);
  const Series x = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_DOUBLE_EQ(KscDistanceValue(zero, zero), 0.0);
  EXPECT_DOUBLE_EQ(KscDistanceValue(zero, x), 1.0);
}

TEST(KscTest, RecoversScaledShiftedClusters) {
  common::Rng rng(22);
  std::vector<Series> series;
  std::vector<int> labels;
  for (int k = 0; k < 2; ++k) {
    for (int i = 0; i < 10; ++i) {
      Series s(64);
      const double scale = rng.Uniform(0.5, 2.0);
      const double phase = rng.Uniform(0.0, 2.0 * kPi);
      // Frequencies 1 and 3: distinct enough that restarts converge.
      for (std::size_t t = 0; t < 64; ++t) {
        s[t] = scale * std::sin(2.0 * kPi * (2 * k + 1) * t / 64.0 + phase) +
               rng.Gaussian(0.0, 0.05);
      }
      series.push_back(s);
      labels.push_back(k);
    }
  }
  const Ksc ksc;
  EXPECT_EQ(ksc.Name(), "KSC");
  // Average over restarts, as the paper's protocol does.
  common::Rng seeder(23);
  double total = 0.0;
  const int runs = 5;
  for (int run = 0; run < runs; ++run) {
    common::Rng cluster_rng = seeder.Fork();
    const auto result = ksc.Cluster(series, 2, &cluster_rng);
    total += eval::RandIndex(labels, result.assignments);
  }
  EXPECT_GT(total / runs, 0.8);
}

// Small-integer (ternary) series: the time-domain KSC alignment evaluates
// their shifted dot products exactly, so exact shift ties are common — the
// inputs on which two alignment arithmetics are most likely to part ways.
std::vector<Series> TernaryCorpus(std::size_t n, std::size_t m,
                                  common::Rng* rng) {
  std::vector<Series> series(n, Series(m));
  for (Series& s : series) {
    for (double& v : s) v = rng->UniformInt(3) - 1;
  }
  return series;
}

// Restores the process-wide spectrum-layout gate.
class HalfSpectrumGateGuard {
 public:
  HalfSpectrumGateGuard() : saved_(fft::HalfSpectrumEnabled()) {}
  ~HalfSpectrumGateGuard() { fft::SetHalfSpectrumEnabledForTesting(saved_); }

 private:
  bool saved_;
};

TEST(KscTest, ClusterIgnoresTheSpectrumLayoutGate) {
  // KSC always aligns through KscAlignFft: the spectrum-layout gate must
  // not silently swap in the O(m^2) time-domain arithmetic, whose
  // tie-breaks differ from the FFT path's on inputs like these.
  HalfSpectrumGateGuard guard;
  const Ksc ksc;
  for (const std::size_t m : {16u, 32u}) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      common::Rng corpus_rng(seed);
      const std::vector<Series> series = TernaryCorpus(30, m, &corpus_rng);
      fft::SetHalfSpectrumEnabledForTesting(true);
      common::Rng rng_on(seed + 100);
      const ClusteringResult on = ksc.Cluster(series, 3, &rng_on);
      fft::SetHalfSpectrumEnabledForTesting(false);
      common::Rng rng_off(seed + 100);
      const ClusteringResult off = ksc.Cluster(series, 3, &rng_off);
      EXPECT_EQ(on.assignments, off.assignments)
          << "m=" << m << " seed=" << seed;
      EXPECT_EQ(on.iterations, off.iterations) << "m=" << m << " seed=" << seed;
      EXPECT_EQ(on.centroids, off.centroids) << "m=" << m << " seed=" << seed;
    }
  }
}

// The KSC distance of y shifted by q toward x, in the time domain.
double KscDistanceAtShift(const Series& x, const Series& y, int q) {
  const Series yq = tseries::ShiftWithZeroFill(y, q);
  double xx = 0.0, xy = 0.0, yy = 0.0;
  for (std::size_t t = 0; t < x.size(); ++t) {
    xx += x[t] * x[t];
    xy += x[t] * yq[t];
    yy += yq[t] * yq[t];
  }
  const double residual = yy > 0.0 ? xx - xy * xy / yy : xx;
  return std::sqrt(std::max(0.0, residual) / xx);
}

TEST(KscDistanceTest, FftAlignmentMatchesTimeDomain) {
  // KscAlignFft against KscAlign over seeded pairs: distance and scale agree
  // to epsilon, and the shift is equal except at a certified near-tie — the
  // time-domain distance at the FFT's shift within 1e-9 of the optimum.
  constexpr double kEps = 1e-9;
  common::Rng rng(31);
  int near_ties = 0;
  for (int pair = 0; pair < 200; ++pair) {
    const std::size_t m = 8 + static_cast<std::size_t>(rng.UniformInt(57));
    Series x(m), y(m);
    if (pair % 2 == 0) {
      for (double& v : x) v = rng.Gaussian();
      for (double& v : y) v = rng.Gaussian();
    } else {
      x = TernaryCorpus(1, m, &rng)[0];
      y = TernaryCorpus(1, m, &rng)[0];
    }
    const KscAlignment direct = KscAlign(x, y);
    const KscAlignment fft = KscAlignFft(x, y);
    EXPECT_NEAR(fft.distance, direct.distance, kEps) << "pair=" << pair;
    if (fft.shift == direct.shift) {
      EXPECT_NEAR(fft.alpha, direct.alpha,
                  kEps * std::max(1.0, std::abs(direct.alpha)))
          << "pair=" << pair;
    } else {
      ++near_ties;
      EXPECT_NEAR(KscDistanceAtShift(x, y, fft.shift),
                  KscDistanceAtShift(x, y, direct.shift), kEps)
          << "pair=" << pair << " shifts " << fft.shift << " vs "
          << direct.shift;
    }
  }
  // Ties are a property of the integer pairs only; the Gaussian half of the
  // sweep never reaches this branch, so most pairs compare shifts exactly.
  EXPECT_LT(near_ties, 20);
}

TEST(KDbaCombinationTest, ClustersShiftedBumps) {
  // k-means + DTW + DBA (= k-DBA) on shifted bumps vs double bumps.
  common::Rng rng(24);
  std::vector<Series> series;
  std::vector<int> labels;
  for (int k = 0; k < 2; ++k) {
    for (int i = 0; i < 8; ++i) {
      Series s(48, 0.0);
      const int start = 10 + rng.UniformInt(6);
      for (int t = start; t < start + 6; ++t) s[t] = 1.0;
      if (k == 1) {
        for (int t = start + 14; t < start + 20 && t < 48; ++t) s[t] = 1.0;
      }
      series.push_back(tseries::ZNormalized(s));
      labels.push_back(k);
    }
  }
  const dtw::DtwMeasure dtw_measure = dtw::DtwMeasure::Unconstrained();
  const DbaAveraging dba;
  const KMeans kdba(&dtw_measure, &dba, "k-DBA");
  common::Rng cluster_rng(25);
  const auto result = kdba.Cluster(series, 2, &cluster_rng);
  EXPECT_GT(eval::RandIndex(labels, result.assignments), 0.8);
}

TEST(PairwiseDistanceMatrixTest, SymmetricWithZeroDiagonal) {
  common::Rng rng(26);
  std::vector<Series> series;
  std::vector<int> labels;
  MakeLevelClasses(4, 16, &rng, &series, &labels);
  const distance::EuclideanDistance ed;
  const linalg::Matrix d = PairwiseDistanceMatrix(series, ed);
  for (std::size_t i = 0; i < d.rows(); ++i) {
    EXPECT_DOUBLE_EQ(d(i, i), 0.0);
    for (std::size_t j = 0; j < d.cols(); ++j) {
      EXPECT_DOUBLE_EQ(d(i, j), d(j, i));
    }
  }
}

}  // namespace
}  // namespace kshape::cluster
