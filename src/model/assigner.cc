#include "model/assigner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "core/sbd.h"

namespace kshape::model {

namespace {

// Same grain as the historical assignment/seeding scans: the per-index work
// dwarfs chunk claiming at 16. Chunking does not affect results (disjoint
// writes of pure per-index values), so per-block chunks and global chunks
// land on the same bits.
constexpr std::size_t kScanGrain = 16;

constexpr double kInfinity = std::numeric_limits<double>::infinity();

}  // namespace

Assigner::Assigner(const AssignerOptions& options) : options_(options) {
  KSHAPE_CHECK(options_.k >= 1);
  KSHAPE_CHECK(options_.num_series >= 1);
  KSHAPE_CHECK_MSG(!options_.use_movement_bounds || options_.use_pruning,
                   "movement bounds ride on the pruning layer");
  const std::size_t n = options_.num_series;
  const int k = options_.k;
  cnt_computed_.assign(n, 0);
  cnt_pruned_.assign(n, 0);
  cnt_abandoned_.assign(n, 0);
  if (options_.use_movement_bounds) {
    ub_r_.assign(n, 0.0);
    lb_r_.assign(n, 0.0);
    shift_r_.assign(k, 0.0);
    if (options_.verify) verify_mismatch_.assign(n, 0);
  } else if (options_.verify && options_.use_pruning) {
    verify_mismatch_.assign(n, 0);
  }
}

void Assigner::SnapshotCentroids(const tseries::SeriesBatch& centroids) {
  if (options_.use_movement_bounds && bounds_valid_) {
    prev_centroids_.clear();
    for (std::size_t j = 0; j < centroids.size(); ++j) {
      const tseries::SeriesView row = centroids[j];
      prev_centroids_.emplace_back(row.begin(), row.end());
    }
  }
}

void Assigner::BeginIteration(const tseries::SeriesBatch& centroids) {
  KSHAPE_CHECK(static_cast<int>(centroids.size()) == options_.k);
  stats_ = AssignmentIterationStats{};
  verify_count_ = 0;
  if (options_.fft_len > 0) {
    // k forward transforms per iteration; every centroid-to-series distance
    // in the scans below reuses them as a single inverse transform. Minted
    // from the configuration alone (MakeQueryFor), so one query set serves
    // every block engine of the run.
    queries_.clear();
    for (int j = 0; j < options_.k; ++j) {
      queries_.push_back(core::SbdEngine::MakeQueryFor(
          centroids[j], options_.m, options_.fft_len,
          options_.use_half_spectrum,
          /*build_bound_planes=*/options_.use_pruning));
    }
  }

  // Centroid-shift distances for the movement bounds: k direct SBDs (old vs
  // new centroid), outside the n·k assignment counters. Hamerly max1/max2:
  // lb shrinks by the largest shift, or the second-largest when the owner
  // itself moved most.
  use_bounds_iter_ = bounds_valid_;
  max_shift1_ = 0.0;
  max_shift2_ = 0.0;
  max_shift_arg_ = -1;
  if (use_bounds_iter_) {
    for (int j = 0; j < options_.k; ++j) {
      const double d =
          core::Sbd(prev_centroids_[j], centroids[j]).distance;
      shift_r_[j] = std::sqrt(std::max(0.0, d));
    }
    for (int j = 0; j < options_.k; ++j) {
      if (max_shift_arg_ < 0 || shift_r_[j] > max_shift1_) {
        if (max_shift_arg_ >= 0) max_shift2_ = max_shift1_;
        max_shift1_ = shift_r_[j];
        max_shift_arg_ = j;
      } else if (shift_r_[j] > max_shift2_) {
        max_shift2_ = shift_r_[j];
      }
    }
  }
}

template <typename Distance>
void Assigner::ScanRow(std::size_t i, bool use_bounds, bool refresh_bounds,
                       const Distance& dist, std::vector<int>* assignments,
                       std::vector<double>* distances) {
  const int k = options_.k;
  const double margin = options_.prune_margin;
  const int owner = (*assignments)[i];
  KSHAPE_CHECK_MSG(owner >= 0 && owner < k,
                   "a row's incoming label must name a centroid");
  long long comp = 0, pruned = 0, aband = 0;
  double lb2 = 0.0;
  if (use_bounds) {
    // Apply this iteration's centroid movement to the bounds. Bounds live in
    // the sqrt(SBD) domain, where SBD behaves (approximately) like a squared
    // chordal distance and the triangle inequality the movement updates rely
    // on approximately holds:
    //   ub_r[i] >= sqrt(d(i, centroid of a_i))     (upper, owner distance)
    //   lb_r[i] <= sqrt(min_{j != a_i} d(i, c_j))  (lower, second-closest)
    // Comparisons happen back in SBD units with the prune_margin slack.
    ub_r_[i] += shift_r_[owner];
    lb_r_[i] -= owner == max_shift_arg_ ? max_shift2_ : max_shift1_;
    if (lb_r_[i] < 0.0) lb_r_[i] = 0.0;
    lb2 = lb_r_[i] * lb_r_[i];
    // Whole-series prune: no centroid can take this series.
    if (ub_r_[i] * ub_r_[i] + margin <= lb2) pruned = k;
  }
  double d_owner = 0.0;
  if (pruned == 0) {
    d_owner = dist(owner, i, kInfinity, nullptr);
    ++comp;
    if (use_bounds) {
      // Tighten the upper bound with the exact owner distance, then re-test
      // (Hamerly's second check).
      ub_r_[i] = std::sqrt(std::max(0.0, d_owner));
      if (d_owner + margin <= lb2) pruned = k - 1;
    }
  }
  if (pruned == 0) {
    // Ascending-j scan with strict-less updates and spectral early
    // abandoning. The owner's distance is computed up front (reused at
    // j == owner), so the comparison sequence over computed distances is the
    // one the exhaustive scan walks — identical labels and tie-breaks.
    double min1 = kInfinity;
    double min2 = kInfinity;
    int best = owner;
    for (int j = 0; j < k; ++j) {
      bool ab = false;
      double v;
      if (j == owner) {
        v = d_owner;
      } else {
        v = dist(j, i, min1 + core::SbdEngine::kDefaultBoundSlack, &ab);
        if (ab) {
          ++aband;
        } else {
          ++comp;
        }
      }
      if (!ab && v < min1) {
        min2 = min1;
        min1 = v;
        best = j;
      } else if (v < min2) {
        // Abandoned candidates contribute their distance LOWER bound: min2
        // stays a valid lower bound on the true second-closest distance.
        min2 = v;
      }
    }
    (*assignments)[i] = best;
    if (refresh_bounds) {
      ub_r_[i] = std::sqrt(std::max(0.0, min1));
      lb_r_[i] = std::sqrt(std::max(0.0, min2));
    }
    if (distances != nullptr) (*distances)[i] = min1;
  }
  cnt_computed_[i] = comp;
  cnt_pruned_[i] = pruned;
  cnt_abandoned_[i] = aband;
}

void Assigner::VerifyRow(const core::SbdEngine& engine, std::size_t i,
                         std::size_t row, int label) {
  // Exact recomputation of the argmin (outside the telemetry counters); the
  // pruned decision is kept either way.
  double vmin = kInfinity;
  int vbest = label;
  for (int j = 0; j < options_.k; ++j) {
    const double d = engine.Distance(queries_[j], row);
    if (d < vmin) {
      vmin = d;
      vbest = j;
    }
  }
  verify_mismatch_[i] = vbest != label ? 1 : 0;
}

void Assigner::AssignRows(const core::SbdEngine* engine,
                          const CentroidDistance& dist, std::size_t base,
                          std::size_t count,
                          std::span<const std::size_t> sample,
                          std::vector<int>* assignments,
                          std::vector<double>* distances) {
  KSHAPE_CHECK(assignments != nullptr);
  if (count == 0) return;
  const bool whole = sample.empty();
  KSHAPE_CHECK(whole || sample.size() == count);
  KSHAPE_CHECK(!whole || base + count <= options_.num_series);
  if (engine != nullptr) {
    KSHAPE_CHECK(!queries_.empty());
  } else {
    KSHAPE_CHECK_MSG(!options_.use_pruning && dist,
                     "pruning needs engine spectra; the callback path is "
                     "the exhaustive scan");
  }
  KSHAPE_CHECK_MSG(distances == nullptr || !options_.use_movement_bounds,
                   "a bounds-pruned series computes no distance; request "
                   "distances only from bound-free scans");

  const auto index = [&](std::size_t t) {
    return whole ? base + t : sample[t];
  };
  // Sampled passes neither consult nor refresh the movement bounds.
  const bool use_bounds = whole && use_bounds_iter_;
  const bool refresh_bounds = whole && options_.use_movement_bounds;
  const auto scan = [&](const auto& distance) {
    common::ParallelFor(0, count, kScanGrain,
                        [&](std::size_t begin, std::size_t end) {
      for (std::size_t t = begin; t < end; ++t) {
        const std::size_t i = index(t);
        ScanRow(i, use_bounds, refresh_bounds, distance, assignments,
                distances);
        if (!verify_mismatch_.empty()) {
          VerifyRow(*engine, i, i - base, (*assignments)[i]);
        }
      }
    });
  };
  // Distance functors take (j, i, cutoff, abandoned). A null `abandoned`
  // asks for the exact distance; otherwise a pruned scan may stop once the
  // distance provably exceeds `cutoff`, setting *abandoned.
  if (engine == nullptr) {
    scan([&](int j, std::size_t i, double, bool*) { return dist(j, i); });
  } else {
    const bool pruning = options_.use_pruning;
    scan([&](int j, std::size_t i, double cutoff, bool* abandoned) {
      return pruning && abandoned != nullptr
                 ? engine->DistanceWithAbandon(queries_[j], i - base, cutoff,
                                               abandoned)
                 : engine->Distance(queries_[j], i - base);
    });
  }
  // Telemetry reduced in ascending index order per block; blocks arrive in
  // ascending base order, so the run-level sums match the historical
  // global-index-order reduction.
  for (std::size_t t = 0; t < count; ++t) {
    const std::size_t i = index(t);
    stats_.computed += cnt_computed_[i];
    stats_.pruned_bounds += cnt_pruned_[i];
    stats_.abandoned_partial += cnt_abandoned_[i];
    if (!verify_mismatch_.empty()) verify_count_ += verify_mismatch_[i];
  }
}

void Assigner::AssignBlock(const core::SbdEngine& engine, std::size_t base,
                           std::vector<int>* assignments,
                           std::vector<double>* distances) {
  AssignRows(&engine, nullptr, base, engine.size(), {}, assignments,
             distances);
}

void Assigner::AssignBlockWith(const CentroidDistance& dist, std::size_t base,
                               std::size_t rows,
                               std::vector<int>* assignments) {
  AssignRows(nullptr, dist, base, rows, {}, assignments);
}

void Assigner::AssignSample(const core::SbdEngine& engine, std::size_t base,
                            const std::vector<std::size_t>& sample,
                            std::size_t pos, std::size_t stop,
                            std::vector<int>* assignments) {
  KSHAPE_CHECK(pos <= stop && stop <= sample.size());
  AssignRows(&engine, nullptr, base, stop - pos,
             std::span(sample).subspan(pos, stop - pos), assignments);
}

void Assigner::FinishIteration(int reseeds) {
  if (options_.use_movement_bounds) {
    // Repair rewires assignments without touching the bounds; a full rebuild
    // next iteration is the only safe continuation.
    bounds_valid_ = reseeds == 0;
  }
}

NearestResult Assigner::NearestSeries(const core::SbdEngine& engine,
                                      const core::SbdEngine::Query& q,
                                      double bound_slack) {
  NearestResult r;
  const std::size_t n = engine.size();
  KSHAPE_CHECK(n >= 1);
  double best = std::numeric_limits<double>::infinity();
  if (!engine.has_bound_planes() || q.mag.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      const double d = engine.Distance(q, i);
      ++r.computed;
      if (d < best) {
        best = d;
        r.index = i;
      }
    }
    r.distance = best;
    return r;
  }
  // Ascending scan with a strict-less update — the identical tie-break to
  // DistanceToAll + first-strict-minimum. A candidate abandons only when its
  // distance lower bound exceeds best + bound_slack, i.e. it provably loses
  // even the tie-break, so early abandoning cannot change the result.
  for (std::size_t i = 0; i < n; ++i) {
    bool ab = false;
    const double d = engine.DistanceWithAbandon(q, i, best + bound_slack, &ab);
    if (ab) {
      ++r.abandoned;
      continue;
    }
    ++r.computed;
    if (d < best) {
      best = d;
      r.index = i;
    }
  }
  r.distance = best;
  return r;
}

}  // namespace kshape::model
