#ifndef KSHAPE_LINALG_EIGEN_H_
#define KSHAPE_LINALG_EIGEN_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/random.h"
#include "linalg/matrix.h"

namespace kshape::linalg {

/// Result of a full symmetric eigendecomposition.
///
/// Eigenvalues are sorted ascending; column j of `eigenvectors` is the unit
/// eigenvector for `eigenvalues[j]`.
struct EigenDecomposition {
  std::vector<double> eigenvalues;
  Matrix eigenvectors;
};

/// Full eigendecomposition of a symmetric matrix by the cyclic Jacobi method.
///
/// Robust and simple; O(n^3) per sweep with a larger constant than
/// SymmetricEigen. Used as the reference implementation in tests and for
/// small matrices. Requires a symmetric input.
EigenDecomposition JacobiEigen(const Matrix& a, int max_sweeps = 64,
                               double tol = 1e-12);

/// Full eigendecomposition of a symmetric matrix via Householder
/// tridiagonalization followed by the implicit-shift QL algorithm
/// (tred2/tql2). This is the production path used by spectral clustering and
/// KSC centroid computation. Requires a symmetric input.
EigenDecomposition SymmetricEigen(const Matrix& a);

/// Dominant eigenpair of a symmetric positive semi-definite matrix by power
/// iteration.
///
/// Shape extraction (Algorithm 2 of the paper) needs only the eigenvector of
/// the largest eigenvalue of the PSD matrix M = Q^T S Q; power iteration gets
/// it in O(n^2) per step instead of the O(n^3) full decomposition. `rng`
/// supplies the random start vector; convergence is declared when successive
/// iterates differ by less than `tol` in norm. Returns the eigenvector and
/// stores the Rayleigh quotient in `*eigenvalue` when non-null. Falls back to
/// SymmetricEigen if not converged within `max_iters` (e.g. when the top two
/// eigenvalues are nearly equal).
///
/// `initial`, when non-null with size n and a nonzero norm, seeds the
/// iteration instead of a random draw (and leaves the RNG stream untouched;
/// `rng` may then be null):
/// a warm start near the dominant eigenvector — e.g. the previous k-Shape
/// centroid, which moves little between refinement iterations — cuts the
/// matrix-vector products spent per call. A null/mismatched/zero `initial`
/// falls back to the random start. The SymmetricEigen safety net is
/// unchanged, so a pathological warm start costs iterations, never
/// correctness.
///
/// Stall handling: a run that exhausts `max_iters` without converging (the
/// near-tied-top-eigenpair regime, e.g. uniformly-phase-shifted corpora in
/// shape extraction) is NOT sent straight to the O(n^3) decomposition.
/// First the final iterate is accepted if its eigen-residual ||Av - λv|| is
/// already tiny (a tied top eigenSPACE makes the iterate rotate within the
/// space forever while being a perfectly valid maximizer); then up to two
/// capped restarts of shifted iteration on A + |λ|·I break sign
/// oscillation from magnitude ties. Only when all of that fails does the
/// SymmetricEigen fallback run — its firing count is observable below.
std::vector<double> DominantEigenvector(const Matrix& a, common::Rng* rng,
                                        int max_iters = 200,
                                        double tol = 1e-10,
                                        double* eigenvalue = nullptr,
                                        const std::vector<double>* initial =
                                            nullptr);

/// A symmetric linear operator given only by its action: `apply(v, &out)`
/// overwrites `out` with A·v (out arrives sized to the operator dimension).
/// The callable must be deterministic — power iteration evaluates it many
/// times and the stall handling compares successive results.
using MatVecFn =
    std::function<void(const std::vector<double>&, std::vector<double>*)>;

/// Lazily materializes the operator as a dense symmetric Matrix. Invoked at
/// most once per DominantEigenvectorOp call, and only on the full
/// SymmetricEigen fallback — the matrix-free fast paths never pay for it.
using MaterializeFn = std::function<Matrix()>;

/// Operator-form DominantEigenvector: the same power iteration, residual
/// acceptance, capped shifted restarts, and SymmetricEigen fallback, but the
/// matrix is only ever touched through `matvec` — so callers whose A·v is
/// cheaper than forming A (the matrix-free shape-extraction path: A = Q^T S Q
/// applied as center → Σ yᵢ(yᵢ·u) → center in O(n_c·m) per step) never
/// allocate the dense matrix. `materialize` supplies the dense form for the
/// O(m³) fallback only; it runs at most once per call, and warm-started
/// iterations in practice never reach it (the PR 8 stall contract).
/// DominantEigenvector below is exactly this function with `matvec` wrapping
/// Matrix::MultiplyVector, so the two paths share every acceptance decision
/// bit for bit.
std::vector<double> DominantEigenvectorOp(
    std::size_t n, const MatVecFn& matvec, const MaterializeFn& materialize,
    common::Rng* rng, int max_iters = 200, double tol = 1e-10,
    double* eigenvalue = nullptr, const std::vector<double>* initial = nullptr);

/// Process-wide count of DominantEigenvector calls that fell all the way
/// through to SymmetricEigen (the stall regression tests pin this at 0 on
/// corpora that used to trigger it), and its reset. Monotonic, thread-safe.
long long DominantEigenvectorFallbackCountForTesting();
void ResetDominantEigenvectorFallbackCountForTesting();

/// Rayleigh quotient v^T A v / v^T v. Requires v not all-zero.
double RayleighQuotient(const Matrix& a, const std::vector<double>& v);

}  // namespace kshape::linalg

#endif  // KSHAPE_LINALG_EIGEN_H_
