// Tests for the fit/predict split (src/model/fitted_model.h): the FittedModel
// artifact, its versioned *.kmodel binary format, Predict / TryPredict /
// OnlineScorer scoring, and the serialization contract of ISSUE 9 — a
// saved->loaded model predicts bit-identically to the in-memory model across
// {1,2,8} threads x scalar/AVX2 x half/full spectrum x prune on/off.
//
// The corruption matrix mutates real Save() output with byte surgery and
// asserts Load() rejects each damaged file with a Status (never an abort):
// bad magic, version skew, header geometry, out-of-range dimensions,
// truncated and ragged centroid blocks, non-finite centroids.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "classify/nearest_neighbor.h"
#include "cluster/algorithm.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/status.h"
#include "core/kshape.h"
#include "core/sbd_engine.h"
#include "data/generators.h"
#include "fft/rfft.h"
#include "model/assigner.h"
#include "model/fitted_model.h"
#include "simd/dispatch.h"
#include "tseries/normalization.h"
#include "tseries/time_series.h"

namespace kshape {
namespace {

// Restores thread count, SIMD backend, the runtime gates, and the model
// format version stamp after each test, so config-flipping tests cannot leak
// into their neighbours.
class ConfigGuard {
 public:
  ConfigGuard() {
    core::SetPruningEnabledForTesting(true);
    fft::SetHalfSpectrumEnabledForTesting(true);
  }
  ~ConfigGuard() {
    common::SetThreadCount(saved_threads_);
    simd::SetBackendForTesting(saved_backend_);
    core::SetPruningEnabledForTesting(true);
    fft::SetHalfSpectrumEnabledForTesting(true);
    model::ResetModelFormatVersionStampForTesting();
  }

 private:
  int saved_threads_ = common::ThreadCount();
  simd::Backend saved_backend_ = simd::ActiveBackend();
};

tseries::Dataset MakeCbfDataset(const std::string& name, int per_class,
                                std::size_t m, std::uint64_t seed) {
  common::Rng rng(seed);
  tseries::Dataset data = data::MakeLabeledDataset(
      name, /*num_classes=*/3, per_class,
      [m](int klass, common::Rng* r) { return data::MakeCbf(klass, m, r); },
      &rng);
  tseries::ZNormalizeDataset(&data);
  return data;
}

constexpr std::size_t kLength = 64;

// One fit shared by every test: a converged k-Shape run over CBF, executed
// under the default configuration (half spectrum + pruning on) regardless of
// what the first caller's test has toggled.
struct Fixture {
  tseries::Dataset train = MakeCbfDataset("cbf-train", 20, kLength, 17);
  tseries::Dataset score = MakeCbfDataset("cbf-score", 15, kLength, 91);
  cluster::ClusteringResult result;

  Fixture() {
    core::SetPruningEnabledForTesting(true);
    fft::SetHalfSpectrumEnabledForTesting(true);
    const core::KShape kshape;
    common::Rng rng(7);
    result = kshape.Cluster(train.batch(), 3, &rng);
  }
};

const Fixture& SharedFit() {
  static const Fixture* fixture = new Fixture();
  return *fixture;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

template <typename T>
void PatchBytes(std::string* bytes, std::size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

// Writes the mutated bytes, expects Load to reject them as InvalidArgument,
// and checks the message names the failure.
void ExpectCorrupt(const std::string& bytes, const std::string& needle) {
  const std::string path = TempPath("fitted_model_test_corrupt.kmodel");
  WriteFileBytes(path, bytes);
  common::StatusOr<model::FittedModel> loaded = model::FittedModel::Load(path);
  ASSERT_FALSE(loaded.ok()) << "expected rejection for: " << needle;
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find(needle), std::string::npos)
      << loaded.status().message();
  std::filesystem::remove(path);
}

// Valid Save() output of the shared fit, produced once per call site.
std::string BaselineModelBytes() {
  const std::string path = TempPath("fitted_model_test_baseline.kmodel");
  EXPECT_TRUE(SharedFit().result.model.Save(path).ok());
  const std::string bytes = ReadFileBytes(path);
  std::filesystem::remove(path);
  return bytes;
}

TEST(FittedModelTest, AttachFreezesTheFitState) {
  ConfigGuard guard;
  const cluster::ClusteringResult& result = SharedFit().result;
  const model::FittedModel& m = result.model;
  ASSERT_FALSE(m.empty());
  EXPECT_EQ(m.k(), result.centroids.size());
  EXPECT_EQ(m.m(), kLength);
  EXPECT_EQ(m.method(), "k-Shape");
  EXPECT_TRUE(m.fingerprint().half_spectrum);
  EXPECT_TRUE(m.fingerprint().pruning);
  EXPECT_EQ(m.telemetry().iterations, result.iterations);
  EXPECT_EQ(m.telemetry().converged, result.converged);
  EXPECT_EQ(m.telemetry().distances_computed, result.distances_computed);
  EXPECT_EQ(m.telemetry().distances_pruned_bounds,
            result.distances_pruned_bounds);
  EXPECT_EQ(m.telemetry().distances_abandoned_partial,
            result.distances_abandoned_partial);
  for (std::size_t j = 0; j < m.k(); ++j) {
    ASSERT_EQ(m.centroid(j).size(), result.centroids[j].size());
    EXPECT_EQ(std::memcmp(m.centroid(j).data(), result.centroids[j].data(),
                          kLength * sizeof(double)),
              0)
        << "centroid " << j << " not frozen bitwise";
  }
}

TEST(FittedModelTest, AttachWithoutCentroidsLeavesModelEmpty) {
  ConfigGuard guard;
  cluster::ClusteringResult result;
  cluster::AttachFittedModel(&result, "no-centroids");
  EXPECT_TRUE(result.model.empty());
}

TEST(FittedModelTest, SaveLoadRoundTripIsBitwise) {
  ConfigGuard guard;
  const model::FittedModel& fitted = SharedFit().result.model;
  const std::string path = TempPath("fitted_model_test_roundtrip.kmodel");
  ASSERT_TRUE(fitted.Save(path).ok());

  common::StatusOr<model::FittedModel> loaded = model::FittedModel::Load(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const model::FittedModel& back = loaded.value();
  EXPECT_EQ(back.k(), fitted.k());
  EXPECT_EQ(back.m(), fitted.m());
  EXPECT_EQ(back.method(), fitted.method());
  EXPECT_EQ(back.fingerprint().half_spectrum, fitted.fingerprint().half_spectrum);
  EXPECT_EQ(back.fingerprint().pruning, fitted.fingerprint().pruning);
  EXPECT_EQ(back.fingerprint().length_policy, fitted.fingerprint().length_policy);
  EXPECT_EQ(back.fingerprint().missing_policy,
            fitted.fingerprint().missing_policy);
  EXPECT_EQ(back.telemetry().iterations, fitted.telemetry().iterations);
  EXPECT_EQ(back.telemetry().converged, fitted.telemetry().converged);
  EXPECT_EQ(back.telemetry().empty_cluster_reseeds,
            fitted.telemetry().empty_cluster_reseeds);
  EXPECT_EQ(back.telemetry().degenerate_centroids,
            fitted.telemetry().degenerate_centroids);
  EXPECT_EQ(back.telemetry().distances_computed,
            fitted.telemetry().distances_computed);
  EXPECT_EQ(back.telemetry().distances_pruned_bounds,
            fitted.telemetry().distances_pruned_bounds);
  EXPECT_EQ(back.telemetry().distances_abandoned_partial,
            fitted.telemetry().distances_abandoned_partial);
  EXPECT_EQ(back.telemetry().sampled_series, fitted.telemetry().sampled_series);
  for (std::size_t j = 0; j < fitted.k(); ++j) {
    EXPECT_EQ(std::memcmp(back.centroid(j).data(), fitted.centroid(j).data(),
                          fitted.m() * sizeof(double)),
              0)
        << "centroid " << j << " changed across save/load";
  }
}

TEST(FittedModelTest, PredictOnTrainingSetReproducesConvergedAssignments) {
  ConfigGuard guard;
  const Fixture& fit = SharedFit();
  ASSERT_TRUE(fit.result.converged)
      << "fixture fit did not converge; pick a friendlier seed";
  const model::PredictResult scored =
      model::Predict(fit.result.model, fit.train.batch());
  EXPECT_EQ(scored.labels, fit.result.assignments);
}

// The acceptance contract of the PR: saved -> loaded -> Predict labels (and
// distances) bit-identical to the in-memory model, across the whole gate
// matrix. Labels must also be invariant across every configuration.
TEST(FittedModelTest, SavedLoadedPredictBitIdenticalAcrossGateMatrix) {
  ConfigGuard guard;
  const Fixture& fit = SharedFit();
  const std::string path = TempPath("fitted_model_test_matrix.kmodel");
  ASSERT_TRUE(fit.result.model.Save(path).ok());
  common::StatusOr<model::FittedModel> loaded = model::FittedModel::Load(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();

  const std::vector<int> reference =
      model::Predict(fit.result.model, fit.score.batch()).labels;

  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::Avx2Available()) backends.push_back(simd::Backend::kAvx2);
  for (const int threads : {1, 2, 8}) {
    for (const simd::Backend backend : backends) {
      for (const bool half : {true, false}) {
        for (const bool prune : {true, false}) {
          common::SetThreadCount(threads);
          simd::SetBackendForTesting(backend);
          fft::SetHalfSpectrumEnabledForTesting(half);
          core::SetPruningEnabledForTesting(prune);
          const std::string config =
              "threads=" + std::to_string(threads) +
              " backend=" + (backend == simd::Backend::kAvx2 ? "avx2"
                                                             : "scalar") +
              " half=" + (half ? "on" : "off") +
              " prune=" + (prune ? "on" : "off");

          const model::PredictResult in_memory =
              model::Predict(fit.result.model, fit.score.batch());
          const model::PredictResult from_disk =
              model::Predict(loaded.value(), fit.score.batch());
          EXPECT_EQ(in_memory.labels, from_disk.labels) << config;
          EXPECT_EQ(in_memory.distances, from_disk.distances) << config;
          EXPECT_EQ(in_memory.labels, reference) << config;
        }
      }
    }
  }
}

TEST(FittedModelTest, PredictStatsPartitionTheScan) {
  ConfigGuard guard;
  const Fixture& fit = SharedFit();
  const model::PredictResult scored =
      model::Predict(fit.result.model, fit.score.batch());
  const std::int64_t total =
      static_cast<std::int64_t>(fit.score.size() * fit.result.model.k());
  // A single frozen-centroid pass has no movement bounds, so every candidate
  // is either fully computed or abandoned from partial spectral sums.
  EXPECT_EQ(scored.stats.pruned_bounds, 0);
  EXPECT_EQ(scored.stats.computed + scored.stats.abandoned_partial, total);
  EXPECT_GT(scored.stats.computed, 0);
}

TEST(FittedModelTest, TryPredictRejectsBadInput) {
  ConfigGuard guard;
  const Fixture& fit = SharedFit();

  const model::FittedModel empty_model;
  EXPECT_EQ(model::TryPredict(empty_model, fit.score.batch()).status().code(),
            common::StatusCode::kFailedPrecondition);

  tseries::SeriesStore empty_store;
  EXPECT_EQ(model::TryPredict(fit.result.model,
                              tseries::SeriesBatch(empty_store))
                .status()
                .code(),
            common::StatusCode::kInvalidArgument);

  const tseries::Dataset short_data =
      MakeCbfDataset("cbf-short", 2, kLength / 2, 5);
  EXPECT_EQ(
      model::TryPredict(fit.result.model, short_data.batch()).status().code(),
      common::StatusCode::kInvalidArgument);

  tseries::SeriesStore bad_store;
  bad_store.Reserve(1, kLength);
  tseries::Series bad_row(kLength, 0.25);
  bad_row[3] = std::numeric_limits<double>::quiet_NaN();
  bad_store.Append(bad_row);
  common::StatusOr<model::PredictResult> bad =
      model::TryPredict(fit.result.model, tseries::SeriesBatch(bad_store));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("non-finite"), std::string::npos);

  common::StatusOr<model::PredictResult> good =
      model::TryPredict(fit.result.model, fit.score.batch());
  EXPECT_TRUE(good.ok());
}

TEST(FittedModelTest, SaveRejectsEmptyModelAndUnwritablePath) {
  ConfigGuard guard;
  const model::FittedModel empty_model;
  EXPECT_EQ(empty_model.Save(TempPath("never_written.kmodel")).code(),
            common::StatusCode::kFailedPrecondition);
  EXPECT_EQ(SharedFit()
                .result.model.Save("/nonexistent-dir/model.kmodel")
                .code(),
            common::StatusCode::kIoError);
}

TEST(FittedModelTest, LoadMissingFileIsNotFound) {
  ConfigGuard guard;
  common::StatusOr<model::FittedModel> loaded =
      model::FittedModel::Load(TempPath("fitted_model_test_missing.kmodel"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kNotFound);
}

// Byte-surgery corruption matrix against real Save() output. Offsets follow
// the format doc in fitted_model.h.
TEST(FittedModelTest, LoadRejectsCorruptFiles) {
  ConfigGuard guard;
  const std::string base = BaselineModelBytes();
  ASSERT_GT(base.size(), 160u);

  {
    std::string bytes = base;
    bytes[0] = 'X';
    ExpectCorrupt(bytes, "unrecognized magic");
  }
  {
    std::string bytes = base;
    PatchBytes<std::uint32_t>(&bytes, 8, 99);  // version
    ExpectCorrupt(bytes, "unsupported format version 99");
  }
  {
    std::string bytes = base;
    PatchBytes<std::uint32_t>(&bytes, 12, 128);  // header_bytes
    ExpectCorrupt(bytes, "header geometry");
  }
  {
    std::string bytes = base;
    PatchBytes<std::uint64_t>(&bytes, 16, 0);  // k = 0
    ExpectCorrupt(bytes, "k out of range");
  }
  {
    std::string bytes = base;
    PatchBytes<std::uint64_t>(&bytes, 16, (1ull << 20) + 1);  // absurd k
    ExpectCorrupt(bytes, "k out of range");
  }
  {
    std::string bytes = base;
    PatchBytes<std::uint64_t>(&bytes, 24, 0);  // m = 0
    ExpectCorrupt(bytes, "m out of range");
  }
  {
    std::string bytes = base;
    bytes.resize(bytes.size() - sizeof(double));  // truncated centroid block
    ExpectCorrupt(bytes, "truncated or ragged");
  }
  {
    std::string bytes = base + "ragged-tail";  // trailing junk
    ExpectCorrupt(bytes, "truncated or ragged");
  }
  {
    std::string bytes = base;
    bytes.resize(100);  // shorter than the fixed header
    ExpectCorrupt(bytes, "shorter than the header");
  }
  {
    std::string bytes = base;
    PatchBytes<std::uint32_t>(&bytes, 32, 7);  // half_spectrum flag
    ExpectCorrupt(bytes, "boolean field out of range");
  }
  {
    std::string bytes = base;
    PatchBytes<std::uint32_t>(&bytes, 40, 250);  // length_policy
    ExpectCorrupt(bytes, "conditioning policy out of range");
  }
  {
    std::string bytes = base;
    for (std::size_t i = 112; i < 160; ++i) bytes[i] = 'A';  // method field
    ExpectCorrupt(bytes, "not NUL-terminated");
  }
  {
    std::string bytes = base;
    PatchBytes<double>(&bytes, 160,
                       std::numeric_limits<double>::quiet_NaN());
    ExpectCorrupt(bytes, "non-finite");
  }
  {
    std::string bytes = base;
    PatchBytes<double>(&bytes, 160 + sizeof(double),
                       std::numeric_limits<double>::infinity());
    ExpectCorrupt(bytes, "non-finite");
  }
}

// KSHAPE_MODEL_V (via the testing override) stamps a different version into
// Save() output; the reader only accepts the version it was built for.
TEST(FittedModelTest, VersionStampSkewIsRejectedOnLoad) {
  ConfigGuard guard;
  EXPECT_EQ(model::ModelFormatVersionStamp(), model::kModelFormatVersion);

  model::SetModelFormatVersionStampForTesting(7);
  EXPECT_EQ(model::ModelFormatVersionStamp(), 7u);
  const std::string path = TempPath("fitted_model_test_skew.kmodel");
  ASSERT_TRUE(SharedFit().result.model.Save(path).ok());
  common::StatusOr<model::FittedModel> skewed = model::FittedModel::Load(path);
  ASSERT_FALSE(skewed.ok());
  EXPECT_NE(skewed.status().message().find("unsupported format version 7"),
            std::string::npos)
      << skewed.status().message();

  model::ResetModelFormatVersionStampForTesting();
  EXPECT_EQ(model::ModelFormatVersionStamp(), model::kModelFormatVersion);
  ASSERT_TRUE(SharedFit().result.model.Save(path).ok());
  EXPECT_TRUE(model::FittedModel::Load(path).ok());
  std::filesystem::remove(path);
}

TEST(FittedModelTest, CheckFingerprintFlagsGateMismatch) {
  ConfigGuard guard;
  const model::FittedModel& fitted = SharedFit().result.model;
  EXPECT_TRUE(fitted.CheckFingerprint().ok());

  fft::SetHalfSpectrumEnabledForTesting(false);
  common::Status half_skew = fitted.CheckFingerprint();
  EXPECT_EQ(half_skew.code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(half_skew.message().find("half_spectrum"), std::string::npos);
  fft::SetHalfSpectrumEnabledForTesting(true);

  core::SetPruningEnabledForTesting(false);
  common::Status prune_skew = fitted.CheckFingerprint();
  EXPECT_EQ(prune_skew.code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(prune_skew.message().find("pruning"), std::string::npos);
  core::SetPruningEnabledForTesting(true);

  const model::FittedModel empty_model;
  EXPECT_EQ(empty_model.CheckFingerprint().code(),
            common::StatusCode::kFailedPrecondition);
}

TEST(FittedModelTest, LongMethodNamesAreTruncatedToTheFieldWidth) {
  ConfigGuard guard;
  std::vector<tseries::Series> centroids = {tseries::Series(16, 0.5)};
  const std::string long_name(80, 'x');
  const model::FittedModel fitted(centroids, model::ModelFingerprint{},
                                  model::FitTelemetry{}, long_name);
  EXPECT_EQ(fitted.method().size(), 47u);  // kMethodBytes - 1

  const std::string path = TempPath("fitted_model_test_method.kmodel");
  ASSERT_TRUE(fitted.Save(path).ok());
  common::StatusOr<model::FittedModel> loaded = model::FittedModel::Load(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().method(), fitted.method());
}

TEST(FittedModelTest, NearestCentroidClassifyMatchesPredict) {
  ConfigGuard guard;
  const Fixture& fit = SharedFit();
  const std::vector<int> classified =
      classify::NearestCentroidClassify(fit.result.model, fit.score.batch());
  const model::PredictResult scored =
      model::Predict(fit.result.model, fit.score.batch());
  EXPECT_EQ(classified, scored.labels);
}

TEST(OnlineScorerTest, IngestMatchesBatchedPredict) {
  ConfigGuard guard;
  const Fixture& fit = SharedFit();
  const model::PredictResult batched =
      model::Predict(fit.result.model, fit.score.batch());

  model::OnlineScorer scorer(&fit.result.model);
  const tseries::SeriesBatch batch = fit.score.batch();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const model::OnlineScorer::Ingested got = scorer.Ingest(batch[i]);
    EXPECT_EQ(got.label, batched.labels[i]) << "series " << i;
    EXPECT_EQ(got.distance, batched.distances[i]) << "series " << i;
  }
  EXPECT_EQ(scorer.labels(), batched.labels);
  EXPECT_EQ(scorer.ingested(), batch.size());
  EXPECT_EQ(scorer.store().size(), batch.size());
  EXPECT_EQ(scorer.store().length(), kLength);
  // Same partition invariant as the batched scan: no bounds, so every
  // candidate is computed or abandoned.
  EXPECT_EQ(scorer.stats().pruned_bounds, 0);
  EXPECT_EQ(scorer.stats().computed + scorer.stats().abandoned_partial,
            static_cast<std::int64_t>(batch.size() * fit.result.model.k()));
}

TEST(OnlineScorerTest, DriftCountingAndRefreshThresholds) {
  ConfigGuard guard;
  const Fixture& fit = SharedFit();
  const tseries::SeriesBatch batch = fit.score.batch();

  // drift_distance = -1: every SBD (>= 0) counts as drifted.
  model::OnlineScorerOptions options;
  options.drift_distance = -1.0;
  options.refresh_after_drifted = 3;
  model::OnlineScorer scorer(&fit.result.model, options);
  EXPECT_FALSE(scorer.refresh_due());
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(scorer.Ingest(batch[i]).drifted);
  }
  EXPECT_FALSE(scorer.refresh_due());
  scorer.Ingest(batch[2]);
  EXPECT_EQ(scorer.drifted(), 3u);
  EXPECT_TRUE(scorer.refresh_due());

  // A model swap resets the drift window.
  scorer.SwapModel(&fit.result.model);
  EXPECT_EQ(scorer.drifted(), 0u);
  EXPECT_FALSE(scorer.refresh_due());
  // The history (store + labels) survives the swap; only counters reset.
  EXPECT_EQ(scorer.store().size(), 3u);

  model::OnlineScorerOptions by_count;
  by_count.refresh_after_ingested = 2;
  model::OnlineScorer counting(&fit.result.model, by_count);
  counting.Ingest(batch[0]);
  EXPECT_FALSE(counting.refresh_due());
  counting.Ingest(batch[1]);
  EXPECT_TRUE(counting.refresh_due());
}

TEST(OnlineScorerTest, TryIngestRejectsBadSeries) {
  ConfigGuard guard;
  const Fixture& fit = SharedFit();
  model::OnlineScorer scorer(&fit.result.model);

  const tseries::Series short_series(kLength / 2, 0.5);
  EXPECT_EQ(scorer.TryIngest(short_series).status().code(),
            common::StatusCode::kInvalidArgument);

  tseries::Series bad(kLength, 0.5);
  bad[0] = std::numeric_limits<double>::infinity();
  common::StatusOr<model::OnlineScorer::Ingested> rejected =
      scorer.TryIngest(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("non-finite"), std::string::npos);
  EXPECT_EQ(scorer.ingested(), 0u);

  EXPECT_TRUE(scorer.TryIngest(fit.score.batch()[0]).ok());
  EXPECT_EQ(scorer.ingested(), 1u);
}

// The engine's peak scan reads every lag of every pair: the lag counter
// must total pairs·(2m-1) at every thread count (per-thread cells summed on
// read), nothing is ever skipped, and the distances are bit-identical with
// the pruning gate on or off — the gate drives bound-based pruning only, not
// the peak scan.
TEST(PeakScanStatsTest, CountsEveryLagAtEveryThreadCount) {
  ConfigGuard guard;
  tseries::Dataset data = MakeCbfDataset("cbf-peak", 10, kLength, 33);
  const core::SbdEngine engine(data.batch(), core::CrossCorrelationImpl::kFft,
                               fft::HalfSpectrumEnabled(),
                               /*build_bound_planes=*/false);
  const long long n = static_cast<long long>(data.size());
  const long long expected_lags =
      n * (n - 1) / 2 * static_cast<long long>(2 * kLength - 1);

  std::vector<double> reference;
  for (const int threads : {1, 2, 8}) {
    common::SetThreadCount(threads);
    for (const bool prune : {true, false}) {
      core::SetPruningEnabledForTesting(prune);
      core::ResetPeakScanStatsForTesting();
      std::vector<double> flat;
      engine.PairwiseFlat(&flat);
      const core::PeakScanTelemetry stats = core::PeakScanStats();
      EXPECT_EQ(stats.lags_scanned, expected_lags)
          << "threads=" << threads << " prune=" << prune;
      EXPECT_EQ(stats.lags_skipped, 0);
      if (reference.empty()) reference = flat;
      ASSERT_EQ(flat.size(), reference.size());
      EXPECT_EQ(std::memcmp(flat.data(), reference.data(),
                            flat.size() * sizeof(double)),
                0)
          << "threads=" << threads << " prune=" << prune;
    }
  }
  core::ResetPeakScanStatsForTesting();
}

}  // namespace
}  // namespace kshape
