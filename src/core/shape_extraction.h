#ifndef KSHAPE_CORE_SHAPE_EXTRACTION_H_
#define KSHAPE_CORE_SHAPE_EXTRACTION_H_

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "linalg/matrix.h"
#include "tseries/time_series.h"

namespace kshape::core {

/// Options for ExtractShape.
struct ShapeExtractionOptions {
  /// When true, use O(n^2)-per-step power iteration for the dominant
  /// eigenvector (with a deterministic full-decomposition fallback); when
  /// false, always run the full symmetric eigendecomposition. The ablation
  /// bench compares the two.
  bool use_power_iteration = true;

  /// When true (default), seed the power iteration with the (z-normalized)
  /// reference series — the previous centroid in the k-Shape loop, which
  /// changes little between refinement iterations, so the iteration starts
  /// near its fixed point and converges in a handful of matrix-vector
  /// products instead of tens. A zero-norm reference (the first iteration)
  /// falls back to the usual random start, as does `warm_start = false` —
  /// kept for the warm-vs-cold ablation (ablation_eigensolver). Only affects
  /// the power-iteration path; the centroid still converges to the same
  /// dominant eigenvector (the SymmetricEigen stall fallback is unchanged),
  /// but the start-point change can shift the result within the
  /// eigensolver's tolerance.
  bool warm_start = true;

  /// When true (default), the eigenproblem runs matrix-free: members are
  /// pooled as aligned z-normalized rows (O(n_c·m) memory) instead of being
  /// folded into the m×m Gram matrix S, and each power-iteration step applies
  /// M·v = Q(Σ yᵢ(yᵢ·(Qv))) with the rank-one centering Qv = v − mean(v)·1
  /// in O(n_c·m) — versus O(n_c·m²) to accumulate S plus O(m²) per step.
  /// With warm starts converging in ~5–20 steps this is an ~m/iters win on
  /// the extraction phase. The matrix-free and Gram paths agree to epsilon
  /// (different summation order), not bitwise; end-to-end labels match in
  /// practice (pinned by the on-vs-off equivalence tests). False keeps the
  /// dense Gram path, bit-identically to the crossover and spill below. Only
  /// applies on the power-iteration path — the full-eigensolver ablation
  /// needs the dense matrix regardless.
  bool use_matrix_free = true;

  /// Crossover: clusters with fewer than this many contributing members take
  /// the dense Gram path even when matrix-free is enabled (bit-identical to
  /// use_matrix_free = false). For tiny clusters the per-step fan-out and
  /// pool bookkeeping cost more than the small Gram they avoid; the default
  /// comes from bench/shape_extraction sweeps.
  std::size_t matrix_free_min_members = 8;

  /// Memory bound for the matrix-free member pool, in rows; 0 = unbounded.
  /// When an accumulator exceeds it, the pooled rows are folded into the
  /// Gram matrix (same rows, same order — bit-identical to having
  /// accumulated the Gram from the start) and the pool is released, so
  /// extraction memory never exceeds max(m², cap·m) per cluster. The
  /// out-of-core driver sets this from its shard-residency budget; in-memory
  /// callers leave it unbounded (the pool is at most the corpus itself).
  std::size_t matrix_free_max_members = 0;
};

/// Shape extraction, Algorithm 2 of the paper.
///
/// Computes the cluster centroid that maximizes the summed squared NCCc to
/// the cluster members (Equation 13), reduced to a Rayleigh-quotient
/// maximization (Equation 15): the dominant eigenvector of
/// M = Q^T (X'^T X') Q with Q = I - (1/m) * ones.
///
/// `members` are the (z-normalized) series of the cluster; `reference` is the
/// previous centroid toward which members are SBD-aligned before the
/// eigenproblem. A zero-norm reference (the all-zero initial centroid of
/// Algorithm 3) skips alignment, matching the reference implementation.
/// The eigenvector's sign is chosen to correlate positively with the cluster
/// mean, and the result is z-normalized.
///
/// Returns the all-zero series when `members` is empty. `rng` seeds the power
/// iteration start vector. The batch is read, never retained.
tseries::Series ExtractShape(const tseries::SeriesBatch& members,
                             tseries::SeriesView reference,
                             common::Rng* rng,
                             const ShapeExtractionOptions& options = {});

/// The result of a flagged shape extraction: the centroid plus an explicit
/// repair signal for degenerate member sets.
struct ExtractedShape {
  tseries::Series centroid;

  /// True when no member contributed to the eigenproblem: the member set was
  /// empty, or every member z-normalized to the zero series (all-constant
  /// data). The centroid is then the all-zero series — a deliberate, flagged
  /// value rather than a silent one: under SBD the zero-norm centroid is at
  /// the documented fallback distance 1 from everything, so callers can
  /// either keep it (all-constant clusters are legitimately represented by
  /// it) or re-seed.
  bool degenerate = false;
};

/// ExtractShape with the degenerate-member-set repair signal. Non-degenerate
/// inputs produce bit-identical centroids to ExtractShape; degenerate inputs
/// skip the eigenproblem entirely (the previous behavior ran power iteration
/// on the zero matrix and returned a z-normalized random start vector) and
/// return the flagged zero centroid instead.
ExtractedShape ExtractShapeFlagged(const tseries::SeriesBatch& members,
                                   tseries::SeriesView reference,
                                   common::Rng* rng,
                                   const ShapeExtractionOptions& options = {});

/// Streaming shape extraction: the member loop of Algorithm 2 decoupled from
/// member storage, so a caller that cannot hold (or even view) all members at
/// once — the k-Shape driver streaming members block by block, in global
/// index order — can feed them incrementally and Finish() into the same
/// eigenproblem.
///
/// The batch entry points above are implemented on this class, so streaming
/// members in the same order they'd appear in a batch produces bit-identical
/// centroids to ExtractShapeFlagged.
///
/// Storage mode is fixed at construction from the options. In matrix-free
/// mode the accumulator stores the
/// aligned z-normalized members in a contiguous row-major pool (the m×m Gram
/// is never allocated) and Finish power-iterates through
/// linalg::DominantEigenvectorOp with a deterministic fan-out over member
/// blocks (linalg::RowPoolMatVec) — bit-identical at any thread count and
/// across SIMD backends, epsilon-equal to the Gram path. Small member sets
/// (below matrix_free_min_members) and pools exceeding
/// matrix_free_max_members cross back to the Gram path bit-identically.
///
/// Alignment: each member is shifted toward the reference by its optimal
/// SBD shift before it is pooled or folded. Add(member) finds that shift
/// with a direct Sbd(); Add(member, shift) takes it from the caller. The
/// k-Shape driver uses the latter with the block engine's cached NCC peak
/// (SbdEngine::MaxNcc against the reference's query), which agrees with
/// Sbd() except at near-tie lags, where the two arithmetics may pick
/// different maxima of the same NCC sequence.
///
/// Usage: construct with the alignment reference (the previous centroid; the
/// reference is copied, so the view may die immediately) and the same options
/// later passed to Finish(), Add() each member in a deterministic order, then
/// Finish(). Not thread-safe; one accumulator per cluster, fed from the
/// coordinating thread (Finish's matrix-free path fans out internally).
class ShapeAccumulator {
 public:
  /// `reference` must be non-empty; its length fixes the member length. A
  /// zero-norm reference (the all-zero initial centroid) disables alignment,
  /// as in ExtractShape. `options` selects the storage mode (matrix-free
  /// pool vs dense Gram).
  explicit ShapeAccumulator(tseries::SeriesView reference,
                            const ShapeExtractionOptions& options = {});

  /// Folds one member into the running state (pooled row or Gram update,
  /// plus the mean), aligned by the direct Sbd(reference, member) shift.
  /// Members that z-normalize to the zero series after alignment are counted
  /// but contribute nothing (the degenerate-set rule of ExtractShapeFlagged).
  /// Equivalent to Add(member, Sbd(reference, member).shift).
  void Add(tseries::SeriesView member);

  /// Add() with the alignment shift supplied by the caller — the optimal
  /// shift of `member` toward the reference, as Sbd()/MaxNcc report it —
  /// so a caller holding cached spectra (SbdEngine::MaxNcc against the
  /// reference's query) pays one inverse transform per member instead of a
  /// direct Sbd(). The member is shifted with zero fill and z-normalized in
  /// a reused scratch row, with no per-member allocation; a zero-norm
  /// reference ignores the shift. Requires |shift| < m.
  void Add(tseries::SeriesView member, int shift);

  /// Number of Add() calls so far (including degenerate members).
  std::size_t members_added() const { return added_; }

  /// True while members are pooled for the matrix-free eigenproblem (no Gram
  /// allocated); false in Gram mode, including after a max-members spill.
  bool matrix_free_active() const { return pool_mode_; }

  /// Solves the eigenproblem over everything added so far. Leaves the
  /// accumulator intact (Finish is const: mirroring/centering work on
  /// copies, the matrix-free path only reads the pool), matching
  /// ExtractShapeFlagged on the same member sequence bit for bit — including
  /// the degenerate zero-centroid result when nothing contributed, and the
  /// rng draw only on cold starts.
  ExtractedShape Finish(common::Rng* rng,
                        const ShapeExtractionOptions& options = {}) const;

 private:
  // Folds the pooled rows into the Gram and releases the pool (the
  // matrix_free_max_members bound). Bit-identical to having accumulated the
  // Gram from the first Add.
  void SpillPoolToGram();

  // The symmetric Gram S = Σ yᵢyᵢᵀ, mirrored to both triangles — from s_ in
  // Gram mode, or folded on the fly from the pool (same rows, same order) on
  // the matrix-free crossover/fallback.
  linalg::Matrix MirroredGram() const;

  ExtractedShape FinishDense(common::Rng* rng,
                             const ShapeExtractionOptions& options) const;
  ExtractedShape FinishMatrixFree(common::Rng* rng,
                                  const ShapeExtractionOptions& options) const;

  tseries::Series reference_;
  bool align_ = false;
  bool pool_mode_ = false;
  std::size_t max_pool_rows_ = 0;
  linalg::Matrix s_;           // Gram upper triangle; 0x0 in pool mode.
  tseries::SeriesStore pool_;  // Aligned z-normalized members in pool mode.
  std::vector<double> mean_;
  tseries::Series row_;  // Scratch: the member being aligned and normalized.
  std::size_t used_ = 0;
  std::size_t added_ = 0;
};

}  // namespace kshape::core

#endif  // KSHAPE_CORE_SHAPE_EXTRACTION_H_
