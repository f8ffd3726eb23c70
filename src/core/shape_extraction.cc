#include "core/shape_extraction.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/check.h"
#include "core/sbd.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/row_pool.h"
#include "simd/dispatch.h"
#include "tseries/normalization.h"

namespace kshape::core {

namespace {

// Centers M = Q S Q for Q = I - (1/m) * ones in O(m^2) using
// M_ij = S_ij - rowmean_i - colmean_j + grandmean, instead of two O(m^3)
// matrix products. In place: the means are computed up front, so each entry
// is read once and overwritten — no second m×m buffer (the historical
// implementation allocated one, doubling peak Gram-path memory).
void CenterGramInPlace(linalg::Matrix* s_ptr) {
  linalg::Matrix& s = *s_ptr;
  const std::size_t m = s.rows();
  std::vector<double> row_mean(m, 0.0);
  std::vector<double> col_mean(m, 0.0);
  // One kernel pass per row: the row sum reduces the row, the axpy folds it
  // into the running column sums; the grand sum is the reduction of the row
  // sums. All three stay within the epsilon contract of the fused legacy
  // triple accumulation.
  for (std::size_t i = 0; i < m; ++i) {
    row_mean[i] = simd::Active().sum(s.Row(i), m);
    simd::Active().axpy(1.0, s.Row(i), col_mean.data(), m);
  }
  double grand = simd::Sum(row_mean);
  const double inv_m = 1.0 / static_cast<double>(m);
  simd::Scale(row_mean, inv_m);
  simd::Scale(col_mean, inv_m);
  grand *= inv_m * inv_m;

  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      s(i, j) = s(i, j) - row_mean[i] - col_mean[j] + grand;
    }
  }
}

}  // namespace

ShapeAccumulator::ShapeAccumulator(tseries::SeriesView reference,
                                   const ShapeExtractionOptions& options,
                                   CentroidSolve solve)
    : ShapeAccumulator(reference, options, solve,
                       linalg::Norm(reference) > 0.0) {}

ShapeAccumulator::ShapeAccumulator(tseries::SeriesView reference,
                                   const ShapeExtractionOptions& options,
                                   CentroidSolve solve, bool align)
    : reference_(reference.begin(), reference.end()),
      solve_(solve),
      align_(align),
      pool_mode_(options.use_matrix_free && options.use_power_iteration),
      mean_(reference.size(), 0.0) {
  KSHAPE_CHECK_MSG(!reference_.empty(), "empty shape-extraction reference");
  // The whole point of pool mode is that the m×m Gram is never allocated.
  if (!pool_mode_) {
    s_ = linalg::Matrix(reference.size(), reference.size());
  }
}

void ShapeAccumulator::Add(tseries::SeriesView member) {
  Add(member, align_ ? Sbd(reference_, member).shift : 0);
}

void ShapeAccumulator::Add(tseries::SeriesView member, int shift) {
  Stage(1);
  Fill(0, member, shift);
  Commit();
}

void ShapeAccumulator::Stage(std::size_t count) {
  KSHAPE_CHECK_MSG(slots_.empty(), "a stage is already open");
  const std::size_t m = reference_.size();
  rows_.resize(((pool_mode_ ? pool_rows_ : 0) + count) * m);
  slots_.assign(count, kUnfilled);
}

void ShapeAccumulator::Fill(std::size_t slot, tseries::SeriesView member) {
  Fill(slot, member, align_ ? Sbd(reference_, member).shift : 0);
}

void ShapeAccumulator::Fill(std::size_t slot, tseries::SeriesView member,
                            int shift) {
  const std::size_t m = reference_.size();
  KSHAPE_CHECK_MSG(slot < slots_.size(), "slot outside the open stage");
  KSHAPE_CHECK_MSG(member.size() == m, "member length mismatch");
  KSHAPE_CHECK_MSG(shift > -static_cast<int>(m) && shift < static_cast<int>(m),
                   "alignment shift out of range");
  // The member shifted toward the reference with zero fill (Equation 5),
  // built in place in its slot row: the same values Sbd().aligned_y holds
  // for that shift. A zero-norm reference aligns nothing.
  const tseries::MutableSeriesView row(
      rows_.data() + ((pool_mode_ ? pool_rows_ : 0) + slot) * m, m);
  const int lag = align_ ? shift : 0;
  const std::size_t gap = static_cast<std::size_t>(std::abs(lag));
  if (lag < 0) {
    std::copy(member.begin() + gap, member.end(), row.begin());
    std::fill(row.end() - gap, row.end(), 0.0);
  } else {
    std::fill(row.begin(), row.begin() + gap, 0.0);
    std::copy(member.begin(), member.end() - gap, row.begin() + gap);
  }
  // Members that normalize to the zero series (constant after alignment
  // under z-normalization, zero under unit scaling) are flagged here and
  // skipped by Commit, so a fully degenerate member set can be detected
  // instead of feeding the zero matrix to the eigensolver, which would
  // return an arbitrary start vector.
  if (solve_ == CentroidSolve::kShape) {
    tseries::ZNormalizeInPlace(row);
    slots_[slot] = linalg::Norm(row) == 0.0 ? kZeroRow : kRow;
    return;
  }
  // KSC: Σ ŝŝᵀ over ŝ = b·(1/√(b·b)) is Σ bbᵀ/(bᵀb) to rounding.
  const double norm_sq = linalg::Dot(row, row);
  if (norm_sq > 0.0) linalg::Scale(row, 1.0 / std::sqrt(norm_sq));
  slots_[slot] = norm_sq == 0.0 ? kZeroRow : kRow;
}

void ShapeAccumulator::Commit() {
  const std::size_t m = reference_.size();
  // Accumulate S = sum_i y_i y_i^T over the aligned, normalized members —
  // as an explicit Gram in Gram mode, as pooled rows in matrix-free mode.
  // Slot s was built at row base + s; pooled rows compact down over the
  // zero-norm slots, so the pool ends up holding exactly the contributing
  // rows in slot order.
  const std::size_t base = pool_mode_ ? pool_rows_ : 0;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    KSHAPE_CHECK_MSG(slots_[s] != kUnfilled, "committed an unfilled slot");
    ++added_;
    if (slots_[s] == kZeroRow) continue;
    const double* row = rows_.data() + (base + s) * m;
    if (pool_mode_) {
      double* pooled = rows_.data() + pool_rows_ * m;
      if (pooled != row) std::copy(row, row + m, pooled);
      row = pooled;
      ++pool_rows_;
    } else {
      // Upper triangle only (S is symmetric); mirrored once in Finish at
      // half the accumulation cost, bit-identical to the full outer
      // products.
      s_.AddSymmetricOuterProduct(tseries::SeriesView(row, m));
    }
    linalg::Axpy(1.0, tseries::SeriesView(row, m), &mean_);
    ++used_;
  }
  slots_.clear();
  if (pool_mode_) {
    rows_.resize(pool_rows_ * m);
  } else if (rows_.size() > m) {
    // Gram mode keeps one row of capacity for Add(); a multi-row stage gives
    // its memory back.
    std::vector<double>().swap(rows_);
  } else {
    rows_.clear();
  }
}

linalg::Matrix ShapeAccumulator::SolveMatrix() const {
  const std::size_t m = reference_.size();
  // Crossover (small cluster) or eigensolver fallback: fold the pooled rows
  // into the Gram they would have accumulated — same rows, same order, so
  // the result is bit-identical to Gram mode on this member sequence. Gram
  // mode pools no rows.
  linalg::Matrix s = pool_mode_ ? linalg::Matrix(m, m) : s_;
  for (std::size_t r = 0; r < pool_rows_; ++r) {
    s.AddSymmetricOuterProduct(tseries::SeriesView(rows_.data() + r * m, m));
  }
  s.MirrorUpperToLower();
  if (solve_ == CentroidSolve::kShape) CenterGramInPlace(&s);
  return s;
}

ExtractedShape ShapeAccumulator::Orient(std::vector<double> centroid) const {
  // An eigenvector's sign is arbitrary; pick the orientation that correlates
  // positively with the cluster mean so centroids look like the data.
  if (linalg::Dot(centroid, mean_) < 0.0) {
    linalg::Scale(&centroid, -1.0);
  }
  if (solve_ == CentroidSolve::kShape) tseries::ZNormalizeInPlace(&centroid);
  ExtractedShape result;
  result.centroid = std::move(centroid);
  return result;
}

std::vector<double> ShapeAccumulator::DrawColdStart(
    common::Rng* rng, const ShapeExtractionOptions& options) const {
  KSHAPE_CHECK(rng != nullptr);
  std::vector<double> start;
  if (used_ == 0 || !options.use_power_iteration || WarmStarts(options)) {
    return start;
  }
  // The draws DominantEigenvectorOp takes on a cold start, in its order; it
  // normalizes the vector it is handed exactly as it would its own draw.
  start.resize(reference_.size());
  for (double& x : start) x = rng->Gaussian();
  return start;
}

const std::vector<double>& ShapeAccumulator::StartVector(
    const std::vector<double>& cold_start,
    const ShapeExtractionOptions& options) const {
  // Warm start: the alignment reference (the previous centroid) is close to
  // the new dominant eigenvector once the clustering begins to settle, so
  // seeding with it saves most of the power-iteration steps. `align_`
  // already certifies a nonzero reference.
  if (WarmStarts(options)) return reference_;
  KSHAPE_CHECK_MSG(cold_start.size() == reference_.size(),
                   "cold-start vector missing or of the wrong length");
  return cold_start;
}

ExtractedShape ShapeAccumulator::Finish(
    common::Rng* rng, const ShapeExtractionOptions& options) const {
  return Finish(DrawColdStart(rng, options), options);
}

ExtractedShape ShapeAccumulator::Finish(
    const std::vector<double>& cold_start,
    const ShapeExtractionOptions& options) const {
  KSHAPE_CHECK_MSG(slots_.empty(), "Finish with an open stage");
  const std::size_t m = reference_.size();
  if (used_ == 0) {
    ExtractedShape result;
    result.centroid = tseries::Series(m, 0.0);
    result.degenerate = true;
    return result;
  }
  // Crossover: tiny clusters pay more in per-step fan-out than the small
  // Gram costs, so they fold the pool into the dense path (bit-identical to
  // Gram mode; the pooled rows ARE the Gram's member sequence).
  if (pool_mode_ && options.use_matrix_free && options.use_power_iteration &&
      used_ >= options.matrix_free_min_members) {
    return FinishMatrixFree(cold_start, options);
  }
  return FinishDense(cold_start, options);
}

ExtractedShape ShapeAccumulator::FinishDense(
    const std::vector<double>& cold_start,
    const ShapeExtractionOptions& options) const {
  const std::size_t m = reference_.size();
  const linalg::Matrix matrix = SolveMatrix();
  if (options.use_power_iteration) {
    return Orient(linalg::DominantEigenvector(
        matrix, /*rng=*/nullptr, /*max_iters=*/200, /*tol=*/1e-10,
        /*eigenvalue=*/nullptr, &StartVector(cold_start, options)));
  }
  const linalg::EigenDecomposition decomp = linalg::SymmetricEigen(matrix);
  return Orient(decomp.eigenvectors.ColVector(m - 1));  // Largest eigenvalue.
}

ExtractedShape ShapeAccumulator::FinishMatrixFree(
    const std::vector<double>& cold_start,
    const ShapeExtractionOptions& options) const {
  const std::size_t m = reference_.size();
  // M·v = Q(S(Qv)) with Qv = v − mean(v)·1 (rank-one centering) and
  // S(u) = Σ yᵢ(yᵢ·u) applied row-wise over the pooled members: O(n_c·m)
  // per power step, the Gram never formed (the KSC solve applies S alone).
  // The pool holds exactly the non-degenerate aligned rows, so S here is the
  // same sum the Gram path accumulates (up to summation order — the
  // epsilon-level difference the matrix-free equivalence tests allow for).
  linalg::RowPoolMatVec pool_op(rows_.data(), pool_rows_, m);
  std::vector<double> centered(m);
  const linalg::MatVecFn matvec = [&](const std::vector<double>& v,
                                      std::vector<double>* out) {
    if (solve_ == CentroidSolve::kKsc) {
      pool_op.Apply(v, *out);
      return;
    }
    const double v_mean = simd::Sum(v) / static_cast<double>(m);
    for (std::size_t j = 0; j < m; ++j) centered[j] = v[j] - v_mean;
    pool_op.Apply(centered, *out);
    const double w_mean = simd::Sum(*out) / static_cast<double>(m);
    for (double& x : *out) x -= w_mean;
  };
  // The O(m³) stall fallback needs the dense matrix; materialize it lazily
  // from the pool — at most once per cold extraction (warm starts never
  // reach it, per the eigensolver's stall contract).
  const linalg::MaterializeFn materialize = [&]() { return SolveMatrix(); };

  return Orient(linalg::DominantEigenvectorOp(
      m, matvec, materialize, /*rng=*/nullptr, /*max_iters=*/200,
      /*tol=*/1e-10, /*eigenvalue=*/nullptr,
      &StartVector(cold_start, options)));
}

tseries::Series ExtractShape(const tseries::SeriesBatch& members,
                             tseries::SeriesView reference,
                             common::Rng* rng,
                             const ShapeExtractionOptions& options) {
  return ExtractShapeFlagged(members, reference, rng, options).centroid;
}

ExtractedShape ExtractShapeFlagged(const tseries::SeriesBatch& members,
                                   tseries::SeriesView reference,
                                   common::Rng* rng,
                                   const ShapeExtractionOptions& options) {
  KSHAPE_CHECK(rng != nullptr);
  if (members.empty()) {
    ExtractedShape result;
    result.centroid = tseries::Series(reference.size(), 0.0);
    result.degenerate = true;
    return result;
  }
  ShapeAccumulator accumulator(reference, options);
  for (std::size_t i = 0; i < members.size(); ++i) accumulator.Add(members[i]);
  return accumulator.Finish(rng, options);
}

}  // namespace kshape::core
