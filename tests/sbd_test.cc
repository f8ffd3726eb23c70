#include "core/sbd.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "tseries/normalization.h"

namespace kshape::core {
namespace {

using tseries::Series;

constexpr double kPi = 3.14159265358979323846;

Series RandomSeries(std::size_t m, common::Rng* rng) {
  Series x(m);
  for (double& v : x) v = rng->Gaussian();
  return x;
}

Series Sine(std::size_t m, double cycles, double phase) {
  Series x(m);
  for (std::size_t t = 0; t < m; ++t) {
    x[t] = std::sin(2.0 * kPi * cycles * t / static_cast<double>(m) + phase);
  }
  return x;
}

TEST(NccSequenceTest, LengthAndZeroShiftValue) {
  common::Rng rng(1);
  const Series x = tseries::ZNormalized(RandomSeries(50, &rng));
  const Series y = tseries::ZNormalized(RandomSeries(50, &rng));
  const std::vector<double> ncc =
      NccSequence(x, y, NccNormalization::kCoefficient);
  ASSERT_EQ(ncc.size(), 99u);
  // Index m-1 is the zero-shift coefficient: dot / (|x||y|).
  double dot = 0.0;
  for (std::size_t i = 0; i < 50; ++i) dot += x[i] * y[i];
  double nx = 0.0, ny = 0.0;
  for (double v : x) nx += v * v;
  for (double v : y) ny += v * v;
  EXPECT_NEAR(ncc[49], dot / std::sqrt(nx * ny), 1e-10);
}

TEST(NccSequenceTest, CoefficientValuesAreBounded) {
  common::Rng rng(2);
  const Series x = RandomSeries(64, &rng);
  const Series y = RandomSeries(64, &rng);
  for (double v : NccSequence(x, y, NccNormalization::kCoefficient)) {
    EXPECT_LE(v, 1.0 + 1e-10);
    EXPECT_GE(v, -1.0 - 1e-10);
  }
}

TEST(NccSequenceTest, BiasedDividesByLength) {
  const Series x = {1.0, 2.0};
  const Series y = {3.0, 4.0};
  // Raw CC = [R_{-1}, R_0, R_1] = [4, 11, 6]; biased divides by m = 2.
  const std::vector<double> b = NccSequence(x, y, NccNormalization::kBiased);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_NEAR(b[0], 2.0, 1e-10);
  EXPECT_NEAR(b[1], 5.5, 1e-10);
  EXPECT_NEAR(b[2], 3.0, 1e-10);
}

TEST(NccSequenceTest, UnbiasedDividesByOverlap) {
  const Series x = {1.0, 2.0};
  const Series y = {3.0, 4.0};
  const std::vector<double> u = NccSequence(x, y, NccNormalization::kUnbiased);
  ASSERT_EQ(u.size(), 3u);
  EXPECT_NEAR(u[0], 4.0, 1e-10);   // overlap 1
  EXPECT_NEAR(u[1], 5.5, 1e-10);   // overlap 2
  EXPECT_NEAR(u[2], 6.0, 1e-10);   // overlap 1
}

TEST(NccSequenceTest, ZeroNormInputYieldsZeroCoefficientSequence) {
  const Series zero(10, 0.0);
  const Series x = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  for (double v : NccSequence(x, zero, NccNormalization::kCoefficient)) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

class SbdImplTest : public ::testing::TestWithParam<CrossCorrelationImpl> {};

TEST_P(SbdImplTest, SelfDistanceIsZero) {
  common::Rng rng(3);
  const Series x = tseries::ZNormalized(RandomSeries(60, &rng));
  const SbdResult r = Sbd(x, x, GetParam());
  EXPECT_NEAR(r.distance, 0.0, 1e-9);
  EXPECT_EQ(r.shift, 0);
}

TEST_P(SbdImplTest, DistanceIsWithinZeroTwo) {
  common::Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const Series x = RandomSeries(40, &rng);
    const Series y = RandomSeries(40, &rng);
    const double d = Sbd(x, y, GetParam()).distance;
    EXPECT_GE(d, -1e-10);
    EXPECT_LE(d, 2.0 + 1e-10);
  }
}

TEST_P(SbdImplTest, SymmetricInValue) {
  common::Rng rng(5);
  const Series x = RandomSeries(45, &rng);
  const Series y = RandomSeries(45, &rng);
  EXPECT_NEAR(Sbd(x, y, GetParam()).distance, Sbd(y, x, GetParam()).distance,
              1e-9);
}

TEST_P(SbdImplTest, ScaleInvariantForPositiveScale) {
  common::Rng rng(6);
  const Series x = RandomSeries(30, &rng);
  Series scaled = x;
  for (double& v : scaled) v *= 4.2;
  EXPECT_NEAR(Sbd(x, scaled, GetParam()).distance, 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Impls, SbdImplTest,
                         ::testing::Values(CrossCorrelationImpl::kFft,
                                           CrossCorrelationImpl::kFftNoPow2,
                                           CrossCorrelationImpl::kNaive));

TEST(SbdTest, AllImplementationsAgree) {
  common::Rng rng(7);
  for (std::size_t m : {5, 17, 32, 63, 64, 100}) {
    const Series x = RandomSeries(m, &rng);
    const Series y = RandomSeries(m, &rng);
    const SbdResult fft = Sbd(x, y, CrossCorrelationImpl::kFft);
    const SbdResult nopow2 = Sbd(x, y, CrossCorrelationImpl::kFftNoPow2);
    const SbdResult naive = Sbd(x, y, CrossCorrelationImpl::kNaive);
    EXPECT_NEAR(fft.distance, naive.distance, 1e-8) << "m=" << m;
    EXPECT_NEAR(nopow2.distance, naive.distance, 1e-8) << "m=" << m;
    EXPECT_EQ(fft.shift, naive.shift) << "m=" << m;
    EXPECT_EQ(nopow2.shift, naive.shift) << "m=" << m;
  }
}

TEST(SbdTest, RecoversKnownShiftAndAlignsY) {
  // A localized bump: the exact-match lag dominates every other lag (a
  // periodic signal would allow an off-by-one lag with a longer overlap to
  // win, which is correct but not what this test probes).
  const std::size_t m = 128;
  Series x(m, 0.0);
  for (std::size_t t = 50; t < 60; ++t) x[t] = 1.0 + 0.1 * (t - 50);
  // y is x delayed by 9 samples (zero fill).
  const Series y = tseries::ShiftWithZeroFill(x, 9);
  const SbdResult r = Sbd(x, y);
  EXPECT_EQ(r.shift, -9);  // Align y by advancing it 9 samples.
  EXPECT_NEAR(r.distance, 0.0, 1e-9);
  // The aligned y must now match x on the overlap.
  for (std::size_t t = 0; t + 9 < m; ++t) {
    EXPECT_NEAR(r.aligned_y[t], x[t], 1e-9);
  }
}

TEST(SbdTest, OutOfPhaseSinesAreCloseUnderSbdFarUnderEd) {
  const std::size_t m = 256;
  const Series a = tseries::ZNormalized(Sine(m, 4.0, 0.0));
  const Series b = tseries::ZNormalized(Sine(m, 4.0, kPi));  // Antiphase.
  // ED treats them as opposites; SBD realigns and sees near-identity.
  const double sbd = Sbd(a, b).distance;
  EXPECT_LT(sbd, 0.15);
}

TEST(SbdTest, ZeroNormInputGivesDistanceOne) {
  const Series zero(16, 0.0);
  const Series x = Sine(16, 1.0, 0.0);
  const SbdResult r = Sbd(x, zero);
  EXPECT_DOUBLE_EQ(r.distance, 1.0);
  EXPECT_EQ(r.shift, 0);
  EXPECT_EQ(r.aligned_y, zero);
}

TEST(MaxNccTest, PeakShiftMatchesConstruction) {
  const std::size_t m = 64;
  Series x(m, 0.0);
  for (std::size_t t = 20; t < 28; ++t) x[t] = 1.0;
  const Series y = tseries::ShiftWithZeroFill(x, 5);
  const NccPeak peak = MaxNcc(x, y, NccNormalization::kCoefficient);
  EXPECT_EQ(peak.shift, -5);
  EXPECT_GT(peak.value, 0.9);
}

TEST(MaxNccTest, ZeroNormInputPeaksAtShiftZero) {
  // A zero-norm input makes every NCC sequence identically zero. MaxNcc then
  // reports value 0 at shift 0 — Sbd()'s "no shift is preferable" — not the
  // lowest lag -(m-1) that a scan of the all-zero sequence would pick.
  const std::size_t m = 16;
  const Series zero(m, 0.0);
  const Series x = Sine(m, 1.0, 0.0);
  for (const NccNormalization norm :
       {NccNormalization::kBiased, NccNormalization::kUnbiased,
        NccNormalization::kCoefficient}) {
    for (const auto& [a, b] : {std::pair(x, zero), std::pair(zero, x),
                               std::pair(zero, zero)}) {
      const NccPeak peak = MaxNcc(a, b, norm);
      EXPECT_EQ(peak.value, 0.0) << NccNormalizationName(norm);
      EXPECT_EQ(peak.shift, 0) << NccNormalizationName(norm);
    }
  }
  EXPECT_EQ(MaxNcc(x, zero, NccNormalization::kCoefficient).shift,
            Sbd(x, zero).shift);
}

TEST(SbdDistanceTest, WrapperNamesFollowImplementation) {
  EXPECT_EQ(SbdDistance(CrossCorrelationImpl::kFft).Name(), "SBD");
  EXPECT_EQ(SbdDistance(CrossCorrelationImpl::kFftNoPow2).Name(),
            "SBD_NoPow2");
  EXPECT_EQ(SbdDistance(CrossCorrelationImpl::kNaive).Name(), "SBD_NoFFT");
}

TEST(NccDistanceTest, CoherentWithMaxNcc) {
  common::Rng rng(8);
  const Series x = RandomSeries(33, &rng);
  const Series y = RandomSeries(33, &rng);
  const NccDistance biased(NccNormalization::kBiased);
  EXPECT_EQ(biased.Name(), "NCCb");
  EXPECT_NEAR(biased.Distance(x, y),
              1.0 - MaxNcc(x, y, NccNormalization::kBiased).value, 1e-12);
}

TEST(NccNormalizationNameTest, AllNames) {
  EXPECT_STREQ(NccNormalizationName(NccNormalization::kBiased), "NCCb");
  EXPECT_STREQ(NccNormalizationName(NccNormalization::kUnbiased), "NCCu");
  EXPECT_STREQ(NccNormalizationName(NccNormalization::kCoefficient), "NCCc");
}

}  // namespace
}  // namespace kshape::core
