// The assign-series-to-centroids step (Algorithm 3, lines 11-17), written
// once. Every caller — the k-Shape driver's full and sampled passes, its
// engine-free passes for custom distances (KSC, multivariate k-Shape), and
// the serving path — runs one row scan: the owner (the row's incoming label)
// first, then the optional movement-bound prunes, then an ascending
// strict-less argmin with spectral early abandoning, then the bound refresh
// and the row's telemetry cells. Callers differ only in where a distance
// comes from and which rows they pass (AssignRows), so tie-breaks, both
// pruning layers and the telemetry partition are defined once, and the scan
// lands on the exhaustive scan's first minimum whichever layers are on.
//
// Ownership rules:
//   - The Assigner owns the per-iteration centroid queries (minted in
//     BeginIteration), the movement-bound state (ub/lb/shift arrays), and the
//     per-series telemetry cells. Callers own the centroids, the assignment
//     vector, and the engines.
//   - Engines are passed per block: the k-Shape driver passes one engine
//     with base 0 for an in-memory batch and each shard's engine with the
//     shard's global base row for a sharded store. All engines of one
//     clustering run must share one configuration (m, fft_len, spectrum
//     layout, bound planes) — the MakeQueryFor interchange contract — which
//     is what makes the minted queries valid against every block.
//   - The iteration protocol is: SnapshotCentroids (before refinement) →
//     BeginIteration (after refinement) → AssignRows per block
//     → read iteration_stats() → FinishIteration(reseeds). Blocks must be
//     presented in ascending base order so the telemetry reduction matches
//     the historical global-index-order sums bit for bit (integer sums, so
//     this is about discipline, not rounding). Between a block's assignment
//     and the next, the caller may use queries() for other work on the same
//     block: the k-Shape driver aligns the next iteration's members with
//     them while the block is resident, so queries() must stay untouched
//     until the next BeginIteration (FinishIteration leaves it alone).
//
// Determinism: each parallel worker writes only its own assignments[i],
// bound cells, and telemetry cells; comparison sequences are ascending in
// the centroid index with strict-less updates. Results are bit-identical
// across thread counts, SIMD backends, spectrum layouts (labels), and prune
// gates (labels).

#ifndef KSHAPE_MODEL_ASSIGNER_H_
#define KSHAPE_MODEL_ASSIGNER_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/sbd_engine.h"
#include "tseries/time_series.h"

namespace kshape::model {

/// Telemetry partition of one assignment iteration. The invariant (pinned by
/// tests/pruning_test.cc): computed + pruned_bounds + abandoned_partial ==
/// rows * k over the rows assigned (n for full passes) — every (series,
/// centroid) pair is either computed exactly, pruned wholesale by the
/// movement bounds, or abandoned partway through the spectral bound.
struct AssignmentIterationStats {
  long long computed = 0;
  long long pruned_bounds = 0;
  long long abandoned_partial = 0;
};

/// Result of a nearest-candidate scan (classify / serving path).
struct NearestResult {
  std::size_t index = 0;
  double distance = 0.0;
  long long computed = 0;   // exact distances evaluated
  long long abandoned = 0;  // candidates dropped by the spectral bound
};

struct AssignerOptions {
  int k = 0;                // number of centroids
  std::size_t num_series = 0;  // n: sizes the bound/telemetry cells
  std::size_t m = 0;        // series length
  // Padded transform length of the engines this run uses; 0 for engine-free
  // runs (custom assignment distances), which skip query minting entirely.
  std::size_t fft_len = 0;
  bool use_half_spectrum = false;  // layout the queries are minted in
  // Spectral early-abandon NCC (stateless, exactness-preserving). Queries
  // are minted with bound planes iff set.
  bool use_pruning = false;
  // Hamerly-style movement bounds (stateful per series; requires that every
  // series sees every centroid update, so the sampled driver leaves it off).
  // Implies use_pruning at every current call site.
  bool use_movement_bounds = false;
  double prune_margin = 0.0;
  // Exact recomputation of every argmin, counted outside the telemetry:
  // mismatches accumulate in iteration_verify_mismatches().
  bool verify = false;
};

class Assigner {
 public:
  explicit Assigner(const AssignerOptions& options);

  /// Records the pre-refinement centroids the movement bounds will measure
  /// shifts against. Call before refinement mutates the centroids; no-op
  /// unless movement bounds are on and currently valid.
  void SnapshotCentroids(const tseries::SeriesBatch& centroids);

  /// Starts an iteration against the (post-refinement) centroids: mints this
  /// iteration's centroid queries (k forward transforms, sequential), derives
  /// the centroid-shift distances when the bounds are valid, and resets the
  /// iteration telemetry. Serving paths with frozen centroids call this once
  /// and then AssignBlock many times.
  void BeginIteration(const tseries::SeriesBatch& centroids);

  /// Distance from centroid j to global series i, for engine-free runs.
  using CentroidDistance = std::function<double(int, std::size_t)>;

  /// The one assignment routine behind the entry points below. Assigns
  /// `count` rows of a block whose row r is global series base + r: rows
  /// [0, count) when `sample` is empty, else the global indices in `sample`
  /// (all inside the block). Distances come from `engine` with this
  /// iteration's queries or, when `engine` is null, from `dist` (pruning
  /// must be off). Only whole-block passes consult and refresh the movement
  /// bounds (a sample violates their every-series-sees-every-update
  /// premise). Each row's incoming label must name a centroid: the scan
  /// evaluates that owner first. `distances`, when non-null, receives each
  /// row's winning distance (rejected with movement bounds on: a
  /// bounds-pruned series computes none). Parallel over rows with disjoint
  /// writes.
  void AssignRows(const core::SbdEngine* engine, const CentroidDistance& dist,
                  std::size_t base, std::size_t count,
                  std::span<const std::size_t> sample,
                  std::vector<int>* assignments,
                  std::vector<double>* distances = nullptr);

  /// Whole-block pass over every cached row of `engine`; engine row r is
  /// global series base + r.
  void AssignBlock(const core::SbdEngine& engine, std::size_t base,
                   std::vector<int>* assignments,
                   std::vector<double>* distances = nullptr);

  /// Engine-free whole-block pass over global rows [base, base + rows), with
  /// dist(j, i) the distance from centroid j to global series i.
  void AssignBlockWith(const CentroidDistance& dist, std::size_t base,
                       std::size_t rows, std::vector<int>* assignments);

  /// Sampled pass over the global indices sample[pos, stop), all of which
  /// must fall inside this engine's block.
  void AssignSample(const core::SbdEngine& engine, std::size_t base,
                    const std::vector<std::size_t>& sample, std::size_t pos,
                    std::size_t stop, std::vector<int>* assignments);

  /// Ends the iteration: the movement bounds stay valid only when the
  /// empty-cluster repair rewired nothing (repair moves assignments behind
  /// the bounds' back, so a full rebuild is the only safe continuation).
  void FinishIteration(int reseeds);

  /// Telemetry of the current iteration, reduced in ascending global index
  /// order across the blocks presented so far.
  const AssignmentIterationStats& iteration_stats() const { return stats_; }

  /// Verify-mode mismatches observed this iteration.
  long long iteration_verify_mismatches() const { return verify_count_; }

  /// This iteration's centroid queries (for callers' repair scans).
  const std::vector<core::SbdEngine::Query>& queries() const {
    return queries_;
  }

  bool bounds_valid() const { return bounds_valid_; }

  /// The one nearest-candidate scan: sequential argmin over the engine's
  /// cached series with spectral early abandoning (plain scan when the
  /// engine has no bound planes). The abandon cutoff carries `bound_slack`
  /// headroom over the best-so-far so ulp-level bound rounding can never
  /// flip a near-tie: the result index/distance is identical to
  /// DistanceToAll + first-strict-minimum. Backs the SBD BatchScanner
  /// (classify) and the serving path.
  static NearestResult NearestSeries(
      const core::SbdEngine& engine, const core::SbdEngine::Query& q,
      double bound_slack = core::SbdEngine::kDefaultBoundSlack);

 private:
  // The row scan for global series i. `dist(j, i, cutoff, abandoned)` is
  // the distance functor AssignRows picks (see there).
  template <typename Distance>
  void ScanRow(std::size_t i, bool use_bounds, bool refresh_bounds,
               const Distance& dist, std::vector<int>* assignments,
               std::vector<double>* distances);
  // Verify mode: the exact argmin of engine row `row` (global series i),
  // recomputed without pruning and compared with `label`.
  void VerifyRow(const core::SbdEngine& engine, std::size_t i,
                 std::size_t row, int label);

  AssignerOptions options_;
  std::vector<core::SbdEngine::Query> queries_;

  // Movement-bound state, sqrt(SBD) domain (see the scan for the algebra).
  std::vector<double> ub_r_, lb_r_, shift_r_;
  std::vector<tseries::Series> prev_centroids_;
  bool bounds_valid_ = false;
  bool use_bounds_iter_ = false;
  double max_shift1_ = 0.0, max_shift2_ = 0.0;
  int max_shift_arg_ = -1;

  // Per-series telemetry cells (disjoint writes in the parallel scan,
  // reduced sequentially in index order per block).
  std::vector<long long> cnt_computed_, cnt_pruned_, cnt_abandoned_;
  std::vector<unsigned char> verify_mismatch_;
  AssignmentIterationStats stats_;
  long long verify_count_ = 0;
};

}  // namespace kshape::model

#endif  // KSHAPE_MODEL_ASSIGNER_H_
