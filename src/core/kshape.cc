#include "core/kshape.h"

#include <optional>

#include "common/check.h"
#include "core/kshape_driver.h"
#include "core/sbd.h"
#include "core/sbd_engine.h"

namespace kshape::core {

namespace {

// The in-memory corpus as the driver's single, always-resident block.
class InMemoryBlock : public BlockSource {
 public:
  InMemoryBlock(const tseries::SeriesBatch& series, const SbdEngine* engine)
      : series_(series), engine_(engine) {}

  std::size_t size() const override { return series_.size(); }
  std::size_t length() const override { return series_.length(); }
  std::size_t num_blocks() const override { return 1; }
  SeriesBlock Block(std::size_t) override {
    return SeriesBlock{series_, 0, engine_};
  }
  std::size_t BlockOfRow(std::size_t) const override { return 0; }

 private:
  tseries::SeriesBatch series_;
  const SbdEngine* engine_;
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
  // assignment distance, or the cache turned off, runs the no-engine
  // configuration instead: per-pair distances through a DistanceMeasure
  // (the direct Sbd() when none is given).
  const SbdDistance direct_sbd;
  const distance::DistanceMeasure* distance = options_.assignment_distance;
  if (distance == nullptr && !options_.use_spectrum_cache) {
    distance = &direct_sbd;
  }
  std::optional<SbdEngine> engine;
  if (distance == nullptr) {
    const EngineConfig config = EngineConfigFor(options_);
    engine.emplace(series, CrossCorrelationImpl::kFft, config.half_spectrum,
                   config.bound_planes);
  }
  InMemoryBlock block(series, engine ? &*engine : nullptr);
  cluster::ClusteringResult result = RunKShapeDriver(
      &block, k, rng, options_, /*minibatch=*/false, distance);
  cluster::AttachFittedModel(&result, Name());
  return result;
}

}  // namespace kshape::core
