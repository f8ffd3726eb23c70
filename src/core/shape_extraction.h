#ifndef KSHAPE_CORE_SHAPE_EXTRACTION_H_
#define KSHAPE_CORE_SHAPE_EXTRACTION_H_

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "linalg/matrix.h"
#include "tseries/time_series.h"

namespace kshape::core {

/// The centroid a ShapeAccumulator solves for.
enum class CentroidSolve {
  /// k-Shape (Algorithm 2): z-normalized aligned members, the dominant
  /// eigenvector of the centered M = Q·S·Q, z-normalized.
  kShape,
  /// KSC (Yang & Leskovec; §2.5): members unit-scaled, ŝ = b·(1/√(b·b)),
  /// the dominant eigenvector of the uncentered P = Σ ŝŝᵀ — the minimizer of
  /// the summed normalized residuals — left at unit norm.
  kKsc,
};

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
  /// dense Gram path, bit-identically to the crossover below. Only
  /// applies on the power-iteration path — the full-eigensolver ablation
  /// needs the dense matrix regardless.
  bool use_matrix_free = true;

  /// Crossover: clusters with fewer than this many contributing members take
  /// the dense Gram path even when matrix-free is enabled (bit-identical to
  /// use_matrix_free = false). For tiny clusters the per-step fan-out and
  /// pool bookkeeping cost more than the small Gram they avoid; the default
  /// comes from bench/shape_extraction sweeps.
  std::size_t matrix_free_min_members = 8;
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
/// aligned, normalized members in a contiguous row-major pool (the m×m Gram
/// is never allocated) and Finish power-iterates through
/// linalg::DominantEigenvectorOp with a deterministic fan-out over member
/// blocks (linalg::RowPoolMatVec) — bit-identical at any thread count and
/// across SIMD backends, epsilon-equal to the Gram path. Small member sets
/// (below matrix_free_min_members) cross back to the Gram path
/// bit-identically.
///
/// The centroid solve is fixed at construction (CentroidSolve): k-Shape's
/// Algorithm 2 by default, or the KSC centroid, which pools unit-scaled
/// rows and takes the dominant eigenvector of the uncentered Σ ŝŝᵀ.
///
/// Alignment: each member is shifted toward the reference by its optimal
/// SBD shift before it is pooled or folded. Add(member) finds that shift
/// with a direct Sbd(); Add(member, shift) takes it from the caller. The
/// k-Shape driver supplies the block engine's cached NCC peak
/// (SbdEngine::MaxNcc against the reference's query), which agrees with
/// Sbd() except at near-tie lags, where the two arithmetics may pick
/// different maxima of the same NCC sequence.
///
/// Members enter in two steps, one row builder: Stage(count) opens `count`
/// slots (in pool mode, rows appended to the pool), Fill() builds each
/// slot's aligned, normalized row and zero-norm flag, and Commit() folds
/// the slots in slot order — compacting zero-norm rows out of the pool,
/// accumulating the mean, and folding rows into the Gram in Gram mode.
/// Add() is the one-slot case, so a staged member sequence solves to the
/// bits of Add() of the same members in slot order.
///
/// Usage: construct with the alignment reference (the previous centroid; the
/// reference is copied, so the view may die immediately) and the same options
/// later passed to Finish(), feed members in a deterministic order, then
/// Finish().
///
/// Thread safety: Stage, Commit and Add run on one thread. Between Stage and
/// Commit, Fill calls on distinct slots may run concurrently (each writes
/// only its own row and flag). Finish is const and reads nothing mutable:
/// Finish(cold_start, ...) may run concurrently on any accumulators, and a
/// matrix-free solve issued from inside a pool task runs its RowPoolMatVec
/// fan-out inline, on the same fixed chunks, to the same bits.
class ShapeAccumulator {
 public:
  /// `reference` must be non-empty; its length fixes the member length. A
  /// zero-norm reference (the all-zero initial centroid) disables alignment,
  /// as in ExtractShape. `options` selects the storage mode (matrix-free
  /// pool vs dense Gram).
  explicit ShapeAccumulator(tseries::SeriesView reference,
                            const ShapeExtractionOptions& options = {},
                            CentroidSolve solve = CentroidSolve::kShape);

  /// As above, with alignment on exactly when `align` is: for one channel of
  /// a multichannel centroid, whose members align whenever the whole
  /// centroid is nonzero (a zero channel of a nonzero centroid still takes
  /// the members' common shift).
  ShapeAccumulator(tseries::SeriesView reference,
                   const ShapeExtractionOptions& options, CentroidSolve solve,
                   bool align);

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
  /// direct Sbd(). Stage(1), Fill(0, member, shift), Commit(). Requires
  /// |shift| < m and no open stage.
  void Add(tseries::SeriesView member, int shift);

  /// Opens `count` member slots (a count of 0 is allowed). In pool mode the
  /// pool grows once, by `count` rows, and each slot is built straight into
  /// its pooled row. Requires no open stage.
  void Stage(std::size_t count);

  /// Builds slot `slot` of the open stage: `member` shifted toward the
  /// reference by `shift` with zero fill (Equation 5; a zero-norm reference
  /// ignores the shift), normalized (z-normalized, or unit-scaled for the
  /// KSC solve), and flagged when the result is the zero series. Requires
  /// |shift| < m and slot < the staged count. Safe to call concurrently for
  /// distinct slots.
  void Fill(std::size_t slot, tseries::SeriesView member, int shift);

  /// Fill() with the direct Sbd(reference, member) shift, as Add(member).
  void Fill(std::size_t slot, tseries::SeriesView member);

  /// Folds the open stage in slot order and closes it. Every slot must have
  /// been filled. Bit-identical to Add() of the staged members in slot order.
  void Commit();

  /// Number of members committed so far (including degenerate members).
  std::size_t members_added() const { return added_; }

  /// True while members are pooled for the matrix-free eigenproblem (no Gram
  /// allocated); false in Gram mode.
  bool matrix_free_active() const { return pool_mode_; }

  /// Solves the eigenproblem over everything committed so far. Leaves the
  /// accumulator intact (Finish is const: mirroring/centering work on
  /// copies, the matrix-free path only reads the pool), matching
  /// ExtractShapeFlagged on the same member sequence bit for bit — including
  /// the degenerate zero-centroid result when nothing contributed, and the
  /// rng draw only on cold starts. Equal to
  /// Finish(DrawColdStart(rng, options), options). Requires no open stage.
  ExtractedShape Finish(common::Rng* rng,
                        const ShapeExtractionOptions& options = {}) const;

  /// The cold start of Finish(rng, options): the m Gaussian draws a solve
  /// that starts cold takes from `rng` — some member contributed, power
  /// iteration is on, and there is no warm reference (warm starts off or a
  /// zero-norm reference). Empty, with `rng` untouched, for any other solve.
  std::vector<double> DrawColdStart(
      common::Rng* rng, const ShapeExtractionOptions& options = {}) const;

  /// Finish() from a start pre-drawn by DrawColdStart with the same options.
  /// Reads no rng, so the coordinating thread can draw every cluster's
  /// start in cluster order and then solve the clusters side by side.
  ExtractedShape Finish(const std::vector<double>& cold_start,
                        const ShapeExtractionOptions& options = {}) const;

 private:
  // Slot states of the open stage.
  enum SlotState : unsigned char { kUnfilled, kRow, kZeroRow };

  // The eigenproblem's dense matrix: the symmetric Gram S = Σ yᵢyᵢᵀ,
  // mirrored to both triangles — from s_ in Gram mode, or folded on the fly
  // from the pool (same rows, same order) on the matrix-free
  // crossover/fallback — then centered (Q·S·Q) for the k-Shape solve.
  linalg::Matrix SolveMatrix() const;

  // The solved eigenvector oriented to correlate positively with the
  // members' mean, z-normalized for the k-Shape solve.
  ExtractedShape Orient(std::vector<double> centroid) const;

  // True when the solve starts from the reference (the previous centroid).
  bool WarmStarts(const ShapeExtractionOptions& options) const {
    return options.warm_start && align_;
  }

  // The power-iteration start: the reference when warm, else `cold_start`.
  const std::vector<double>& StartVector(
      const std::vector<double>& cold_start,
      const ShapeExtractionOptions& options) const;

  ExtractedShape FinishDense(const std::vector<double>& cold_start,
                             const ShapeExtractionOptions& options) const;
  ExtractedShape FinishMatrixFree(const std::vector<double>& cold_start,
                                  const ShapeExtractionOptions& options) const;

  tseries::Series reference_;
  CentroidSolve solve_ = CentroidSolve::kShape;
  bool align_ = false;
  bool pool_mode_ = false;
  linalg::Matrix s_;  // Gram upper triangle; 0x0 in pool mode.
  // Row storage, m doubles per row: in pool mode the pool_rows_ aligned
  // normalized members followed by the open stage; in Gram mode the open
  // stage alone.
  std::vector<double> rows_;
  std::size_t pool_rows_ = 0;
  std::vector<SlotState> slots_;  // The open stage; empty when closed.
  std::vector<double> mean_;
  std::size_t used_ = 0;
  std::size_t added_ = 0;
};

}  // namespace kshape::core

#endif  // KSHAPE_CORE_SHAPE_EXTRACTION_H_
