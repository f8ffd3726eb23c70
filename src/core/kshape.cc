#include "core/kshape.h"

#include <optional>
#include <vector>

#include "common/check.h"
#include "core/kshape_driver.h"
#include "core/sbd.h"
#include "core/sbd_engine.h"

namespace kshape::core {

namespace {

// A custom assignment distance as the driver's policy: distance and repair
// through the measure, members aligned by the direct Sbd() shift, the
// k-Shape solve.
class MeasurePolicy : public CentroidPolicy {
 public:
  explicit MeasurePolicy(const distance::DistanceMeasure* measure)
      : measure_(measure) {}

  void Prepare(const std::vector<tseries::Series>& centroids) override {
    centroids_ = centroids;
  }
  double Distance(int j, std::size_t, tseries::SeriesView row) const override {
    return measure_->Distance(centroids_[j], row);
  }
  int Shift(int j, std::size_t, tseries::SeriesView row) const override {
    return Sbd(centroids_[j], row).shift;
  }

 private:
  const distance::DistanceMeasure* measure_;
  std::vector<tseries::Series> centroids_;
};

}  // namespace

KShape::KShape(KShapeOptions options) : options_(options) {
  KSHAPE_CHECK(options_.max_iterations >= 1);
  name_ = options_.assignment_distance == nullptr
              ? "k-Shape"
              : "k-Shape+" + options_.assignment_distance->Name();
}

cluster::ClusteringResult KShape::Cluster(
    const tseries::SeriesBatch& series, int k, common::Rng* rng) const {
  KSHAPE_CHECK(!series.empty());
  KSHAPE_CHECK(k >= 1 && static_cast<std::size_t>(k) <= series.size());
  KSHAPE_CHECK(rng != nullptr);

  // Spectrum cache: every series' forward FFT is computed once here and
  // reused by every ++-seeding scan and every assignment distance; centroid
  // spectra are minted once per iteration inside the driver. A custom
  // assignment distance runs the no-engine configuration instead: per-pair
  // distances through the DistanceMeasure.
  const distance::DistanceMeasure* distance = options_.assignment_distance;
  std::optional<SbdEngine> engine;
  std::optional<MeasurePolicy> policy;
  if (distance == nullptr) {
    const EngineConfig config = EngineConfigFor(options_);
    engine.emplace(series, CrossCorrelationImpl::kFft, config.half_spectrum,
                   config.bound_planes);
  } else {
    policy.emplace(distance);
  }
  InMemoryBlockSource block(series, engine ? &*engine : nullptr);
  cluster::ClusteringResult result =
      RunKShapeDriver(&block, k, rng, options_, /*minibatch=*/false,
                      policy ? &*policy : nullptr);
  cluster::AttachFittedModel(&result, Name());
  return result;
}

}  // namespace kshape::core
